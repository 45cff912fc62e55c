(** Regular expressions, Thompson-NFA style (no backtracking blowup).

    The dialect is the small egrep-like language Plan 9's [libregexp]
    offers and that the paper's tools need: literals, [.], character
    classes [[a-z]] and [[^...]], grouping [(...)], alternation [|],
    repetition [* + ?], and the anchors [^] and [$].  Escapes: [\c]
    makes any metacharacter literal; [\n] and [\t] denote newline/tab. *)

type t

exception Parse_error of string

(** Compile a pattern.  Memoized behind a small LRU (compiled programs
    are immutable): recompiling a recently seen pattern returns the
    same value, so interactive searches pay the NFA construction once.
    @raise Parse_error on malformed input (never cached). *)
val compile : string -> t

(** Compile without consulting the memo (benchmark baseline). *)
val compile_uncached : string -> t

(** Original pattern text. *)
val pattern : t -> string

(** [matches re s] — does [re] match anywhere in [s]?  Runs the literal
    prefilter and the lazy DFA only; short-circuits on first accept. *)
val matches : t -> string -> bool

(** [search re s pos] finds the leftmost-longest match at or after
    [pos]; result is [(start, stop)] with [stop] exclusive.  Pipeline:
    required-literal prefilter, lazy-DFA existence scan, then the
    one-pass NFA sweep for the exact span. *)
val search : t -> string -> int -> (int * int) option

(** [search_nfa re s pos] — same result as {!search}, computed by the
    plain one-pass NFA sweep with no DFA and no prefilter.  The
    triangulation reference for property tests. *)
val search_nfa : t -> string -> int -> (int * int) option

(** All non-overlapping leftmost-longest matches. *)
val search_all : t -> string -> (int * int) list

(** [iter_lines ~invert re s f] decides the lines of [s] where they lie
    and calls [f line start stop] on each one that [re] matches (on each
    one it does not match, with [~invert:true]), in order: [line]
    counts from 1 and [s[start, stop)] is the line without its ['\n'].
    A line's verdict is exactly [matches re] on that line copied out.
    A line is what [grep] prints: [s] is split on ['\n'], a trailing
    newline ends the last line instead of starting an empty one, and
    [""] has no lines.  Nothing is copied.  The required literal is
    searched across the whole buffer, so lines before its next
    occurrence are passed over unread by the DFA; a line it reaches
    runs the DFA from the [^] start state and stops at the line's
    ['\n'] with [$] holding, never stepping over it, so no match spans
    two lines.  Counters are flushed once per call. *)
val iter_lines : invert:bool -> t -> string -> (int -> int -> int -> unit) -> unit

(** [match_at re s pos] — longest match anchored at [pos] (ignores a
    leading [^] semantics; the anchor still constrains as usual). *)
val match_at : t -> string -> int -> int option

(** {1 Compile-time literal analyses}

    Both are sound over-approximations and may be [""].  A nonempty
    required prefix additionally implies the pattern cannot match the
    empty string. *)

(** Literal every match must start with. *)
val required_prefix : t -> string

(** Literal every match must contain (at least as long as the prefix). *)
val required_literal : t -> string

(** {1 The lazy DFA}

    [search]/[matches] answer existence through an RE2-style DFA built
    lazily from the NFA.  Its state cache is bounded: when full it is
    flushed wholesale and rebuilding restarts from the start states.
    Counters: [regexp.dfa.cache_hit]/[cache_miss]/[cache_flush], gauge
    [regexp.dfa.states], plus [regexp.prefilter.skipped_bytes] and
    [regexp.search.bytes] for the byte accounting of all layers. *)

(** Set the per-pattern DFA state-cache bound (clamped to >= 8).
    Affects caches built or flushed afterwards; default 256. *)
val set_dfa_capacity : int -> unit

(** States currently cached for this pattern (0 before first use). *)
val dfa_state_count : t -> int

(** Cache flushes suffered by this pattern's DFA so far. *)
val dfa_flush_count : t -> int

(** {1 Streaming}

    Both cursors accept input in chunks ([Rope.iter_chunks] feeds
    leaves directly), so searching a rope never flattens it. *)

(** Exact streaming search: the one-pass NFA sweep fed incrementally.
    Feed the whole remaining text before [finish] unless [definite]
    already holds — [finish] treats the current point as end of input
    (where [$] matches). *)
module Stream : sig
  type cursor

  (** [create ?pos ?bol re]: a cursor whose first fed byte sits at
      absolute offset [pos] (default 0); [bol] tells whether that
      boundary is a beginning of line (default [pos = 0]). *)
  val create : ?pos:int -> ?bol:bool -> t -> cursor

  (** Feed [s[pos, pos+len)] as the next chunk of the haystack. *)
  val feed : cursor -> string -> pos:int -> len:int -> unit

  (** Best match so far ([(start, stop)], absolute offsets). *)
  val matched : cursor -> (int * int) option

  (** No further input can change the result. *)
  val definite : cursor -> bool

  (** Final leftmost-longest match, treating the current point as end
      of input.  Idempotent. *)
  val finish : cursor -> (int * int) option
end

(** Existence-only streaming scan over the lazy DFA (falls back to a
    short-circuit NFA sweep when the DFA is unavailable or thrashing).
    [feed] returns true as soon as a match is known to exist; [finish]
    resolves [$]-at-end-of-input matches. *)
module Scan : sig
  type cursor

  val create : ?bol:bool -> t -> cursor
  val feed : cursor -> string -> pos:int -> len:int -> bool
  val finish : cursor -> bool
end

(** Abstract syntax, exposed for property tests that compare the NFA
    against a reference matcher. *)
type ast =
  | Empty
  | Char of char
  | Any
  | Class of bool * (char * char) list  (** negated?, ranges *)
  | Seq of ast * ast
  | Alt of ast * ast
  | Star of ast
  | Plus of ast
  | Opt of ast
  | Bol
  | Eol

val parse : string -> ast
