(** Text frame layout: fit a window of rope text into a cell box.

    A frame shows the text starting at origin offset [org] in a [w]×[h]
    box, wrapping long lines and expanding tabs.  It answers the two
    questions the interface needs constantly: where on the screen is
    character [q] ({!cell_of_offset}), and which character is under the
    mouse at a cell ({!offset_of_cell}).  This is the role of
    [libframe] in the paper's implementation. *)

type t

(** [layout text ~org ~w ~h].  [org] is clamped into the text; layout
    begins there (callers keep [org] at a line start for sane display). *)
val layout : Rope.t -> org:int -> w:int -> h:int -> t

val org : t -> int

(** Offset one past the last character displayed. *)
val last : t -> int

(** Number of rows actually used (<= h). *)
val rows_used : t -> int


(** Frame-relative cell of an offset within [org, last]; [None] when the
    offset is outside the displayed range.  An offset equal to [last] maps
    to the cell after the final character when it fits in the box. *)
val cell_of_offset : t -> int -> (int * int) option

(** Character offset for a frame-relative cell; clicks beyond a line end
    clamp to the line end; below the text clamp to [last]. *)
val offset_of_cell : t -> x:int -> y:int -> int

(** [draw t scr ~x ~y ~sel ~sel_attr] paints the frame at screen position
    [(x, y)], highlighting the selection range with [sel_attr] (when the
    selection is an empty range, a one-cell caret tick is shown in the
    same attr). *)
val draw :
  t -> Screen.t -> x:int -> y:int -> sel:int * int -> sel_attr:Screen.attr -> unit

(** Offset of the first character of the display row [n] (0-based among
    used rows). *)
val row_start : t -> int -> int
