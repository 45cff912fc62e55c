(** Corpus-scale indexed search: a trigram posting-list index feeding
    the {!Regexp} lazy-DFA pipeline.

    The codesearch architecture: every indexed document (a file in the
    namespace) posts the set of 3-byte substrings it contains; a query
    planner turns a compiled pattern into an AND/OR tree over trigrams
    every match must contain; posting lists are intersected to select
    candidate files; and only the candidates are handed to the usual
    {!Regexp} scan.  A file that lacks a required trigram cannot match,
    so pruning is sound — indexed results are byte-identical to the
    linear scan.

    Staleness is tracked with the namespace's generation counter: each
    document carries the {!Vfs} stat fingerprint (version/length/mtime)
    and is revalidated only when the namespace mutation counter has
    moved, lazily on the next query, never on the write itself.

    Counters: [index.docs], [index.postings], [index.query.candidates],
    [index.query.skipped_docs], [index.query.fallbacks],
    [index.stale.reindexed]; spans [index.build] and [index.query]. *)

type t

(** {1 The query planner} *)

(** A trigram query: a condition on document {e content} that every
    document containing a match necessarily satisfies. *)
type query =
  | Q_all  (** no useful trigrams — scan everything (linear fallback) *)
  | Q_none  (** unsatisfiable — no document can match *)
  | Q_tri of string  (** document contains this 3-byte substring *)
  | Q_and of query list
  | Q_or of query list

(** Extract a trigram query from a compiled pattern by walking its
    syntax: literal runs become trigram conjunctions, alternations
    become disjunctions, [+] requires its body once; classes, stars and
    anchors conservatively yield {!Q_all}.  Memoized per pattern. *)
val plan : Regexp.t -> query

(** The query for a fixed string (what [grep_count] searches for). *)
val plan_literal : string -> query

(** [false] iff the query is {!Q_all} — i.e. the planner found nothing
    to prune with and callers fall back to the linear scan. *)
val query_useful : query -> bool

(** Rendering for stats and debugging, e.g. ["(AND int[SPx] x+1)"]. *)
val query_text : query -> string

(** {1 Index lifecycle} *)

val create : Vfs.t -> t

(** The shared index of a namespace: find-or-create, keyed on the
    namespace value itself.  [grep], the [Cbr] tools and the
    [/mnt/help/index] files of one session all resolve to the same
    index through this. *)
val of_ns : Vfs.t -> t

(** Drop every posting and fingerprint; documents re-tokenize on the
    next query.  The [/mnt/help/index/rebuild] control file. *)
val rebuild : t -> unit

(** {1 Queries} *)

(** [prune t q paths] — the sublist of [paths] that can possibly
    contain a match of [q]: the same strings, in order.  Unknown paths
    are tokenized on the spot; stale ones re-tokenized; unreadable ones
    kept (the caller's scan reports the error exactly as an unindexed
    one would). *)
val prune : t -> query -> string list -> string list

(** [prune_names t q ~cwd names] — {!prune} for file names as a tool
    was given them, absolute or relative to [cwd]: the sublist of
    [names] whose files can possibly contain a match of [q], or all of
    [names] when [q] is {!Q_all}.  Coreutils [grep] and the [Cbr]
    queries select their files through this. *)
val prune_names : t -> query -> cwd:string -> string list -> string list

(** One matching line of one document. *)
type hit = {
  h_doc : string;  (** the file's canonical path *)
  h_line : int;  (** 1-based *)
  h_spans : (int * int) list;  (** match spans within the line *)
  h_text : string;  (** the line itself *)
}

(** [grep t re files] — all matching lines of [files], selecting
    candidates through the planner and scanning only those.  Equal to
    {!grep_linear} on every input. *)
val grep : t -> Regexp.t -> string list -> hit list

(** The reference: scan every file, no pruning (and no index updates). *)
val grep_linear : t -> Regexp.t -> string list -> hit list

(** Render hits one per line, [doc:line:spans:text] — the byte-for-byte
    comparison format used by the gates and E14. *)
val hits_text : hit list -> string

(** {1 Introspection (the [/mnt/help/index] files)} *)

(** Key/value lines: docs, postings, trigrams, queries, candidates,
    skipped, fallbacks, reindexed. *)
val stats_text : t -> string

(** One line per trigram, [trigram<TAB>count], escaped, sorted. *)
val postings_text : t -> string

(** (docs, distinct trigrams, posting entries). *)
val sizes : t -> int * int * int

(** Re-tokenizations performed since [create] (the staleness meter the
    generation tests pin down). *)
val reindexed : t -> int
