(** Interaction-cost models of the systems the paper positions [help]
    against: a conventional pop-up-menu window system and a typed
    shell + vi workflow on a character terminal.

    The paper's implicit comparison ("involving less mouse activity
    than with a typical pop-up menu", "it often seems easier to retype
    the text than to use the mouse to pick it up") is made quantitative
    by replaying the same logical tasks under each model.  [help]'s own
    costs are {e measured} from the live replay (see [Metrics]); these
    models supply the comparison columns.  Modeling assumptions are
    spelled out per constructor below, and every model is charged the
    minimum gestures its interface style permits — the comparison is
    generous to the baselines. *)

(** One logical step of the paper's worked example. *)
type task =
  | Execute_word of string
      (** run a command whose name is visible on screen.
          help: one middle click on the word.
          popup: right-press, travel into the menu, release.
          shell: type the command and newline. *)
  | Point_and_execute of string * string
      (** (object, command): designate an object, then act on it.
          help: left click + middle click.
          popup: click to select + menu round trip.
          shell: retype the object as an argument (no pointing). *)
  | Open_at of string * int option
      (** open file, optionally at a line, when its name is on screen.
          help: point at the name, click Open.
          popup: menu open + type the path into a dialog.
          shell: type "vi [+n] path". *)
  | Sweep_and_cut of int
      (** select [n] characters and delete them.
          help: sweep + middle chord (no mouse move).
          popup: sweep + menu round trip.
          shell: vi motions (dd). *)
  | Save_file of string
      (** help: one click on Put!.
          popup: menu.  shell: ":w" + newline. *)
  | Type_text of string  (** typing is typing everywhere *)

type cost = { c_clicks : int; c_keys : int; c_travel : int }

type system = Popup_wm | Typed_shell

val cost : system -> task -> cost

val total : system -> task list -> cost

val zero : cost
val add : cost -> cost -> cost

(** The nine logical steps of the paper's worked example (figures 4-12),
    used by experiment E2. *)
val demo_tasks : (string * task) list
