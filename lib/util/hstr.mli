(** Allocation-free substring search, shared by every module that used
    to re-implement the naive O(n*m) scan (screen dumps, tag tokens,
    body search, grep, the bench harness). *)

(** [find ?start hay ~sub] is the offset of the first occurrence of
    [sub] at or after [start] ([Some start] when [sub] is empty and
    [start] is in range). *)
val find : ?start:int -> string -> sub:string -> int option

val contains : string -> sub:string -> bool
val starts_with : prefix:string -> string -> bool

(** [line_end s i] is the offset of the ['\n'] that ends the line
    starting at [i], or [String.length s] when no ['\n'] follows. *)
val line_end : string -> int -> int
