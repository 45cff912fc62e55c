(** A subwindow of editable text: a view (origin, selection, frame) onto
    a shared {!Buffer0.t}.  Each window has two of these — the tag and
    the body — and "each subwindow has its own selection".  Several
    views may share one buffer (multiple windows per file); edits from
    any of them adjust every view's origin and selection. *)

type t

val create : Buffer0.t -> t

val buffer : t -> Buffer0.t
val length : t -> int
val string : t -> string

(** The buffer's text as a rope, without flattening — the streaming
    search path ({!Hsearch}) iterates its chunks in place. *)
val rope : t -> Rope.t

(** Selection; always [q0 <= q1]. *)
val sel : t -> int * int

(** Monotonic view generation: bumped whenever this view could render
    differently — buffer edits seen by this view, selection changes,
    and origin moves.  Equal generations mean the
    view's text, selection and origin are unchanged, so cached
    renderings and token scans of it are still valid. *)
val view_gen : t -> int

val set_sel : t -> int -> int -> unit

(** Origin: offset of the first displayed character. *)
val org : t -> int

val set_org : t -> int -> unit

(** Replace the selection with [s] (as typing does); the selection
    collapses to the insertion end. *)
val type_text : t -> string -> unit

(** Delete the selection; returns the deleted text. *)
val cut : t -> string

(** Replace the selection with [s], leaving it selected. *)
val paste : t -> string -> unit

(** Selected text. *)
val selected : t -> string

(** [read t q0 q1]. *)
val read : t -> int -> int -> string

(** Lay the text out in a [w]×[h] box starting at the origin. *)
val layout : t -> w:int -> h:int -> Frame.t

(** The frame from the most recent {!layout}, if any. *)
val last_frame : t -> Frame.t option

(** Move the origin so that offset [q] is visible in a [w]×[h] box,
    keeping it roughly in the upper part of the frame.  The origin
    lands on a line start. *)
val show : t -> w:int -> h:int -> int -> unit

(** Select 1-based line [n] and return its start offset ([None] when
    out of range). *)
val select_line : t -> int -> int option
