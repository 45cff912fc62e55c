(** Character-cell screen.

    Substitute for the paper's bitmap display: [help] is text-only, so a
    grid of glyph cells models everything its interface draws — window
    text, tag lines, the towers of tabs, selections (reverse video for
    the current selection, outline for others).  Figures are reproduced
    by {!dump}. *)

type attr =
  | Plain
  | Reverse  (** current selection *)
  | Outline  (** non-current selections *)
  | Tag  (** tag-line background *)
  | Border
  | Tab  (** the little black squares *)

type t

val create : int -> int -> t

(** [set scr ~x ~y ch attr]; out-of-bounds writes are ignored (clipping). *)
val set : t -> x:int -> y:int -> char -> attr -> unit

val get : t -> x:int -> y:int -> char * attr

(** Fill everything with spaces / [Plain]. *)
val clear : t -> unit

val fill_rect : t -> x:int -> y:int -> w:int -> h:int -> char -> attr -> unit
val draw_string : t -> x:int -> y:int -> string -> attr -> unit

(** Plain-text screendump, one line per row, trailing blanks trimmed. *)
val dump : t -> string

(** Parallel grid of attribute marks: [' '] plain, ['R'] reverse, ['o']
    outline, ['t'] tag, ['|'] border, ['#'] tab.  Used by tests and to
    annotate figures. *)
val dump_attrs : t -> string

(** The text of row [y] (trailing blanks trimmed). *)
val row_text : t -> int -> string

(** Does [needle] appear anywhere in the dumped text? *)
val contains : t -> string -> bool

(** Independent snapshot of the screen. *)
val copy : t -> t

val equal : t -> t -> bool
