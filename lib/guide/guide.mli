(** Executable documentation, after "The Command Line GUIde": the
    repo's markdown man pages parsed into a structured model and
    rendered as clickable windows.

    The pages under [doc/] are embedded at build time (see the dune
    rule generating [Guide_docs]); {!parse} turns one page into a
    {!page} — NAME, the SYNOPSIS as {!invocation}s, the documented
    command verbs, file references and SEE ALSO links — and a page
    window lays the model out as a body whose RUN lines are concrete
    command invocations with their placeholders filled from a built-in
    table of example arguments.  A middle sweep runs a line directly;
    the [run] tag verb runs the selected line into a fresh output
    window; SEE ALSO lines are [guide] commands of their own, so the
    manual is browsed entirely by mouse.

    The parsed model is also served in-band as [/mnt/help/guide] (the
    index) and [/mnt/help/guide/<page>] (one page's facts) by
    [Help_srv].  Registry instruments: [guide.pages], [guide.clicks],
    [guide.invocations] counters and the [guide.parse] span. *)

(** One token of a SYNOPSIS entry after the command word. *)
type syn_item =
  | S_flag of string  (** a literal flag: [-modified] *)
  | S_lit of string  (** a literal word or path: [headers], [/mnt/help/stats] *)
  | S_arg of string  (** a placeholder, filled when composing *)
  | S_opt of string  (** an optional group, skipped when composing *)

(** One SYNOPSIS entry: the command word and its tokens in order. *)
type invocation = { i_cmd : string; i_items : syn_item list }

(** One documented command verb (a def-list entry of a COMMANDS
    section); multi-name entries are exploded, sharing args and
    description. *)
type verb = { v_name : string; v_args : string list; v_desc : string }

type page = {
  p_name : string;  (** lowercased page name from the title line *)
  p_section : int;  (** manual section from the title line *)
  p_title : string;  (** the one-line NAME description *)
  p_invocations : invocation list;
  p_verbs : verb list;
  p_files : string list;  (** FILES paths and served-file entries *)
  p_see : (string * int) list;  (** SEE ALSO cross-references *)
  p_warnings : string list;  (** anything the parser could not place *)
}

(** [parse ~file text] parses one markdown man page; [file] names the
    source in warnings.  Never raises: problems land in
    [p_warnings]. *)
val parse : file:string -> string -> page

(** The embedded sources, [(file, content)] — what the build compiled
    in; test_guide compares these byte-for-byte against [doc/]. *)
val sources : (string * string) list

(** Every embedded page, parsed (under a [guide.parse] span) and
    sorted by name. *)
val pages : unit -> page list

val find : string -> page option

(** The plain-text form of an invocation: command, flags, literals,
    [arg] placeholders and [\[opt\]] groups, space-separated. *)
val invocation_text : invocation -> string

(** The markdown SYNOPSIS form of an invocation — the exact inverse of
    {!parse} on well-formed entries (in-span tokens first, italic
    placeholders after), used by the round-trip tests. *)
val synopsis_string : invocation -> string

(** Compose a concrete, runnable command line: optional groups are
    dropped and placeholders filled from the built-in argument table
    (a ["cmd arg"] key is looked up before the bare ["arg"]); [None]
    when a placeholder has no entry. *)
val synopsis_command : invocation -> string option

(** The [/mnt/help/guide] file: [name TAB section TAB title] lines. *)
val index_text : unit -> string

(** The [/mnt/help/guide/<page>] file: one [key value] line per fact
    of the parsed model. *)
val page_text : page -> string

(** Register the [/bin/guide] native and write the [/help/guide] tool
    scripts ([stf], [run]).  With no argument [guide] opens the index
    window, [guide <page>] opens (or refreshes) a page window, and
    [guide -run <line>] runs a composed invocation into a fresh output
    window — all window traffic crosses the [/mnt/help] mount.
    [builtins] names the capitalized words help
    executes itself (see [Help.builtins]); [guide -run] reports those
    instead of handing them to the shell. *)
val install : ?builtins:string list -> Rc.t -> unit
