(** The C browser: cpp-lite, symbol analysis, and the [/help/cbr] tools.

    The paper turns "a compiler into a browser" by stripping the code
    generator and wiring the front end to [help] with shell scripts; the
    result answers {e decl} (where is the declaration of the identifier
    the user points at?) and {e uses} (every reference to it) precisely,
    where [grep n *.c] would return "every occurrence of the letter n".

    This module provides: the preprocessor ({!preprocess}), whole-program
    analysis ({!analyze}), the two queries, the native tools [/bin/cpp]
    and [/bin/rcc], and the [/help/cbr] tool scripts. *)

type program = C_symbols.program

(** [preprocess ns ~dir path] splices ["..."]-includes (relative to the
    including file) and [<...>]-includes (from [/sys/include]), emitting
    [# line "file"] markers; each header is included once. *)
val preprocess : Vfs.t -> dir:string -> string -> string

(** Cache of per-file analyses for {!analyze}.  Entries are keyed on a
    digest of each unit's preprocessed text plus the typedef names
    inherited from earlier units, so touching one file re-parses only
    that file (and any file including it) and re-links the rest from
    cache — the analysis analogue of [mk -modified]. *)
type index

val create_index : unit -> index

(** [(hits, misses)] — cached vs. parsed units since {!create_index}. *)
val index_stats : index -> int * int

(** Analyze source files as one program (shared globals, as the linker
    would arrange).  With [?index], units are parsed in isolation,
    cached by content digest, and linked by event replay; the result is
    equal to the uncached analysis.  Parse errors are collected in the
    result's [p_errors].
    @raise C_lexer.Lex_error on text the lexer cannot split into
    tokens: an unterminated comment, string or character literal, or a
    newline inside a string. *)
val analyze : ?index:index -> Vfs.t -> cwd:string -> string list -> program

(** The declaration position of the identifier [name] occurring at
    [file]:[line].  File names compare modulo a leading [./]. *)
val decl_of : program -> file:string -> line:int -> name:string ->
  (string * int * string) option
(** result: (file, line, kind) *)

(** Every reference (declaration and uses) of the identifier [name]
    occurring at [file]:[line], as (file, line) sorted pairs. *)
val uses_of : program -> file:string -> line:int -> name:string ->
  (string * int) list

(** Count plain text-match lines, what [grep] would report (experiment
    E4 compares this against {!uses_of}).  With [?search], the trigram
    index selects candidate units first; files the planner rules out
    are never read, and the count is unchanged. *)
val grep_count :
  ?search:Index.t -> Vfs.t -> cwd:string -> string list -> string -> int

(** [uses_at ... files ~file ~line ~name] — {!analyze} then {!uses_of}
    in one step.  With [?search], only units that textually contain
    [name] (plus the anchor [file]) are analyzed: a reference to an
    identifier is itself text, so the pruned program yields the same
    sorted positions while reading a fraction of the corpus. *)
val uses_at :
  ?search:Index.t ->
  ?index:index ->
  Vfs.t ->
  cwd:string ->
  string list ->
  file:string ->
  line:int ->
  name:string ->
  (string * int) list

(** Register [/bin/cpp] and [/bin/rcc] natives and write the
    [/help/cbr] tool scripts ([stf], [decl], [uses], [src], [mk] is
    provided by the shell's coreutils). *)
val install : Rc.t -> unit
