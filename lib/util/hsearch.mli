(** The shared search driver.  Every module that scans text — the body
    search behind right-click, [grep], [ed]'s addresses and [s]///,
    the cbr uses-vs-grep experiment — goes through here, so all of
    them get {!Regexp}'s literal prefilter, lazy DFA, and (for ropes)
    the streaming path that never flattens the buffer. *)

(** What to look for: a fixed string or a compiled pattern. *)
type needle = Literal of string | Pattern of Regexp.t

val matches : needle -> string -> bool

(** Rope variants stream leaf chunks; the rope is never flattened. *)

val find_rope : needle -> ?start:int -> Rope.t -> (int * int) option

(** [search_rope re rope pos] — the rope twin of [Regexp.search]:
    identical [(start, stop)] results, streaming execution. *)
val search_rope : Regexp.t -> Rope.t -> int -> (int * int) option

(** All non-overlapping leftmost-longest matches (agrees with
    [Regexp.search_all] on the flattened text). *)
val search_all_rope : Regexp.t -> Rope.t -> (int * int) list

(** [wrapped_find f start] — [f start], wrapping around to [f 0] when
    that fails and [start > 0] (the interactive search order). *)
val wrapped_find : (int -> (int * int) option) -> int -> (int * int) option

(** [subst re ~repl ~global ~empty_ok ~empty_advance ?limit line] —
    the substitution loop shared by sed and ed, returning the new line
    and the number of replacements made.  [empty_ok] false aborts when
    the first match is empty (sed's non-global rule); [empty_advance]
    is the extra scan advance after replacing an empty match (ed uses
    1, sed 0); [limit] caps replacements so nullable global patterns
    terminate. *)
val subst :
  Regexp.t ->
  repl:string ->
  global:bool ->
  empty_ok:bool ->
  empty_advance:int ->
  ?limit:int ->
  string ->
  string * int

(** [iter_lines ~invert nd s f] — {!Regexp.iter_lines} for either
    needle: [f line start stop] on every line of [s] the needle matches
    (does not match, with [~invert:true]), in order, decided where it
    lies.  A line is what [grep] prints: [s] split on ['\n'], a
    trailing newline ending the last line, no lines in [""].  A line's
    verdict equals {!matches} on the line copied out; nothing is
    copied. *)
val iter_lines :
  invert:bool -> needle -> string -> (int -> int -> int -> unit) -> unit

(** The number of lines of [content] matching the needle, lines as
    {!iter_lines} has them (so neither a trailing newline nor an empty
    buffer adds an empty line). *)
val count_matching_lines : needle -> string -> int
