(** Editable text buffer over {!Rope}.

    A buffer is the shared, mutable text of a file; several windows may
    observe one buffer (the paper lists "multiple windows per file" as
    overdue work — here it falls out of sharing).  Every mutation is
    journalled so it can be undone; undo itself is journalled for redo.

    Offsets follow the paper's convention: a text position is a byte
    offset; a range is [(q0, q1)] with [q0 <= q1]. *)

type t

(** An edit as seen by observers, used to adjust selections and frames. *)
type edit =
  | Inserted of int * int  (** [Inserted (pos, len)] *)
  | Deleted of int * int  (** [Deleted (pos, len)] *)

val create : ?name:string -> string -> t

val name : t -> string

val text : t -> Rope.t
val length : t -> int
val to_string : t -> string

(** Has the buffer been modified since the last {!clean} (file write)? *)
val dirty : t -> bool

(** Mark the buffer clean, e.g. after [Put!]. *)
val clean : t -> unit

(** Mark the buffer modified without editing it (the [dirty] control
    command). *)
val taint : t -> unit

val insert : t -> int -> string -> unit
val delete : t -> int -> int -> unit

(** Replace range [(q0, q1)] by [s] (one journal group). *)
val replace : t -> int -> int -> string -> unit

(** Close the current undo group: subsequent edits undo separately.
    Called by the event loop between user actions. *)
val commit : t -> unit

(** Undo the most recent group.  Returns the edits performed (in order of
    application) or [] when there is nothing to undo. *)
val undo : t -> edit list

(** Redo the most recently undone group. *)
val redo : t -> edit list

(** [on_edit b f] registers [f], called after every applied edit
    (including those performed by undo/redo). *)
val on_edit : t -> (edit -> unit) -> unit

(** Monotonic edit counter: bumped once per applied edit (including
    undo/redo primitives).  Equal generations imply equal text, so it is
    a sound cache key for layout and analysis results. *)
val generation : t -> int

val read : t -> int -> int -> string
