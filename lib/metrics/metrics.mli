(** Interaction accounting and screen-connectivity analysis.

    The paper's evaluation is about economy of gesture: "Through this
    entire demo I haven't yet touched the keyboard", per-step click
    counts ("two button clicks", "a total of three clicks of the middle
    button"), and the "exponential connectivity" of the filling screen.
    This module measures all of that on the live model. *)

type t

(** Counters since creation or the last {!mark}. *)
type counts = {
  clicks : int;  (** button presses *)
  releases : int;
  keys : int;  (** characters typed *)
  travel : int;  (** mouse travel, Manhattan cells *)
  execs : int;  (** commands executed *)
}

(** Attach a recorder to a help instance (registers gesture and exec
    hooks). *)
val attach : Help.t -> t

(** Totals since attach. *)
val total : t -> counts

(** Counts since the previous {!mark} (a labelled step boundary);
    records the step and resets the window. *)
val mark : t -> string -> counts

(** All recorded steps, oldest first. *)
val steps : t -> (string * counts) list

val zero : counts
val add : counts -> counts -> counts

(** {1 Connectivity}

    How much of the text now on screen is {e actionable} — file names,
    file:line addresses, executable command words?  "As each new window
    is created ... it is filled with text that points to new and old
    text, and a kind of exponential connectivity results." *)

(** Distinct actionable tokens visible on screen: paths, file:line
    addresses, built-in command words, and words that resolve to
    executables in the window's context. *)
val connectivity : Help.t -> int

(** Number of visible windows. *)
val visible_windows : Help.t -> int
