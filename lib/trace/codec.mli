(** Length-prefixed, binary-safe serialization shared by the
    durability layer (Trace state capture, Vfs/Help snapshots, WAL
    record framing).  An integer is its decimal digits followed by
    ['\n']; a string is its length then the raw bytes.  The format is
    self-delimiting: a decoder that runs off the end of its input
    raises {!Truncated} rather than returning torn data, which is what
    lets WAL recovery distinguish "clean end of log" from "truncated
    final record". *)

(** Raised by the [r_*] decoders when the input ends mid-field; the
    payload names the field kind. *)
exception Truncated of string

(** {1 Encoding} — writers append to a [Buffer.t]. *)

val w_int : Buffer.t -> int -> unit
val w_str : Buffer.t -> string -> unit
val w_bool : Buffer.t -> bool -> unit
val w_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

(** {1 Decoding} — a positional reader over an immutable string. *)

type dec

val reader : string -> dec

(** No bytes left to read. *)
val at_end : dec -> bool

val r_int : dec -> int
val r_str : dec -> string
val r_bool : dec -> bool
val r_list : dec -> (dec -> 'a) -> 'a list
