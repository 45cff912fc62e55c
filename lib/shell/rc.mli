(** The rc-like shell: state, evaluation, native-tool registry.

    The paper's applications are "a small suite of tiny shell scripts";
    this module is the interpreter they run on.  A shell owns a set of
    global variables, functions, and a registry of {e native tools} —
    OCaml functions standing in for compiled Plan 9 binaries — bound to
    absolute paths in the namespace ([/bin/cat], [/bin/grep], ...).
    Everything else found on [$path] is a script, interpreted here.

    Execution is synchronous: a pipeline runs its left side to
    completion and feeds the output to the right side.  For the paper's
    tools (filters over small texts) this is semantically equivalent to
    concurrent pipes and keeps the system deterministic. *)

type t

(** Per-command I/O: [stdin] is a fixed string ("connected to an empty
    file" by default, as the paper specifies); output and diagnostics
    accumulate in buffers. *)
type io = { stdin : string; out : Buffer.t; err : Buffer.t }

(** A running command's context. *)
type proc

(** A native tool: receives the proc and argv (argv.(0) = command name);
    returns an exit status, 0 for success. *)
type native = proc -> string list -> int

val create : Vfs.t -> t

val ns : t -> Vfs.t

(** [register sh path f] installs a native tool at absolute [path] and
    creates a placeholder file there so directory listings show it. *)
val register : t -> string -> native -> unit

val set_global : t -> string -> string list -> unit
val get_global : t -> string -> string list option

(** All global variables, sorted by name — the shell half of a session
    snapshot (functions and natives are recreated by boot). *)
val globals_list : t -> (string * string list) list

(** Replace the whole global table (snapshot restore). *)
val replace_globals : t -> (string * string list) list -> unit

type result = { r_out : string; r_err : string; r_status : int }

(** Run shell source text. *)
val run : t -> ?cwd:string -> ?stdin:string -> string -> result

(** Run a single command given as argv (no parsing, no globbing): the
    way [help] dispatches an external command with arguments taken from
    the screen. *)
val run_argv : t -> ?cwd:string -> ?stdin:string -> string list -> result

(** {1 For native tools} *)

val proc_ns : proc -> Vfs.t
val proc_cwd : proc -> string
val proc_stdin : proc -> string
val proc_out : proc -> Buffer.t
val proc_err : proc -> Buffer.t

(** Variable lookup as seen by the running command. *)
val proc_get : proc -> string -> string list option

(** The shell owning this proc (to run sub-commands from a native). *)
val proc_shell : proc -> t

(** Run shell source in a child of [proc] (inherits cwd and variables);
    the child's stdout is returned along with its status. *)
val run_in : proc -> ?stdin:string -> string -> string * int

(** Resolve a command name against [.]/[$path] the way execution does;
    [None] if nothing would run.  Used by [help] to decide whether a
    middle-click word is executable. *)
val resolve : t -> cwd:string -> string -> string option
