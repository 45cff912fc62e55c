(** [help] itself: the combination of editor, window system, shell
    front-end and user interface.

    The model is deterministic and event-driven: a {!Screen.t}-sized
    cell grid, a three-button mouse and a keyboard, fed through
    {!event}.  The interface follows the paper's four rules — brevity,
    no retyping, automation, defaults — in {!execute}, the selection
    machinery, and the placement heuristic ({!Hplace}).

    External commands run on the {!Rc} shell with the executing
    window's directory as context; their output lands in the [Errors]
    window.  The [/mnt/help] file interface is layered on top by
    [Help_srv] using {!windows}, {!window_by_id}, {!ctl_command} and
    friends. *)

type t

type button = Left | Middle | Right

type event =
  | Move of int * int  (** absolute cell position *)
  | Press of button
  | Release of button
  | Key of char
  | Type of string  (** convenience: a run of keystrokes *)

(** What the user did, for interaction accounting (experiment E1/E2). *)
type gesture =
  | G_press of button
  | G_release of button
  | G_move of int  (** Manhattan distance travelled *)
  | G_key of int  (** number of characters typed *)

val create :
  ?w:int -> ?h:int -> ?place:Hplace.strategy -> Vfs.t -> Rc.t -> t

val ns : t -> Vfs.t
val shell : t -> Rc.t
val height : t -> int

(** Metrics hook, called once per user gesture. *)
val on_gesture : t -> (gesture -> unit) -> unit

(** Hook called after every executed command (middle-button action),
    with the command text. *)
val on_exec : t -> (string -> unit) -> unit

(** Hook called with every accepted event before it is processed —
    the write-ahead log's tap on session input.  Events arriving after
    [Exit] are ignored and not reported. *)
val on_event : t -> (event -> unit) -> unit

(** Where external commands run.  By default they run on the local
    shell; {!set_executor} redirects them — the paper's sketch of
    running applications on the CPU server while help stays on the
    terminal (see [Cpu]).  The executor receives the context directory
    and the [helpsel] triple. *)
type executor = cwd:string -> helpsel:string list -> string -> Rc.result

val set_executor : t -> executor -> unit

(** Is the session still running ([Exit] clears it)? *)
val running : t -> bool

(** How many times an automatic expansion (word under a middle click,
    file name around a null selection) stood in for a manual sweep —
    the measurable payoff of the {e automation} and {e defaults}
    rules. *)
val auto_expansions : t -> int

(** {1 Events} *)

val event : t -> event -> unit
val events : t -> event list -> unit

(** {1 Windows} *)

val columns : t -> Hcol.t list
val nth_column : t -> int -> Hcol.t option
val windows : t -> Hwin.t list
val window_by_id : t -> int -> Hwin.t option
val window_by_name : t -> string -> Hwin.t option
val column_of : t -> Hwin.t -> Hcol.t option

(** Create a window programmatically (the [new] file of the server).
    Placement follows the current heuristic in the column of the
    current selection. *)
val new_window : t -> ?name:string -> ?body:string -> unit -> Hwin.t

(** Open a file or directory as by the [Open] built-in, with context
    directory [dir] and optional [:n] address already split off. *)
val open_file : t -> dir:string -> string -> Hwin.t option

val close_window : t -> Hwin.t -> unit

(** Append to a window body (the [bodyapp] file), showing the tail. *)
val append_body : t -> Hwin.t -> string -> unit

(** Replace a window body (writes to the [body] file). *)
val set_body : t -> Hwin.t -> string -> unit

(** One line of the control language ([ctl] file): [tag T], [name N],
    [select Q0 Q1], [show Q], [delete Q0 Q1], [insert Q TEXT], [clean],
    [dirty], [get], [put], [close].  Returns an error message on bad
    commands. *)
val ctl_command : t -> Hwin.t -> string -> (unit, string) result

(** {1 Execution} *)

(** The capitalized command words {!execute} runs itself (never the
    shell), in dispatch order; [builtin w] tests membership.  The
    guide's [-run] mode uses this to report rather than mis-run a
    built-in. *)
val builtins : string list

val builtin : string -> bool

(** Execute command text in the context of a window, as a middle-button
    sweep would.  Exposed for tests and for the server's loopback. *)
val execute : t -> Hwin.t -> string -> unit

(** The current selection: subwindow and window holding it. *)
val current_selection : t -> (Hwin.t * Htext.t) option

val snarf_buffer : t -> string

(** {1 Geometry, drawing, and scripted pointing} *)

(** Render the screen.  Incremental under the hood: a persistent screen
    is kept and only windows whose damage signature changed (edits,
    selection or origin moves, geometry, the hover popup) are
    repainted.  The result is that persistent screen, borrowed: it is
    valid until the next draw, which repaints it in place.  Take
    [Screen.copy] to keep it. *)
val draw : t -> Screen.t

(** From-scratch render onto a fresh screen, bypassing damage tracking.
    Reference implementation for tests and benchmarks; [draw] is
    guaranteed byte-identical to it. *)
val draw_full : t -> Screen.t

(** Cumulative counters [(draws, full_repaints, column_repaints,
    window_repaints, windows_skipped)] since {!create}. *)
val draw_stats : t -> int * int * int * int * int

(** Screen cell of a text offset in a window's body ([`Body]) or tag
    ([`Tag]); [None] when not visible. *)
val cell_of : t -> Hwin.t -> [ `Body | `Tag ] -> int -> (int * int) option

(** Find [needle] in the window body and return its offset. *)
val find_in_body : t -> Hwin.t -> string -> int option

(** The Errors window, created on demand. *)
val errors_window : t -> Hwin.t

(** {1 Snapshot / restore}

    Durability support (lib/wal): capture and rebuild the UI state —
    buffers, windows (the boot screen's included: recovery does not
    reopen them), columns, and the interaction registers (mouse,
    selection, drag, snarf).  Buffer text is cut at rope leaves and
    stored through [put] under content digests, so leaves unchanged
    since the previous snapshot are shared.  Hooks, the executor, and
    undo/redo history are not captured: a restored session keeps the
    hooks its boot installed and starts with clean history. *)

(** [snapshot t ~put] serializes the UI state; [put chunk] must return
    a stable key for [chunk]. *)
val snapshot : t -> put:(string -> string) -> string

(** [restore t ~get s] replaces the UI state with [snapshot] output and
    invalidates the render cache ([None] until the next draw, which
    repaints in full). *)
val restore : t -> get:(string -> string) -> string -> unit
