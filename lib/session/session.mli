(** A complete booted [help] session: namespace with the corpus
    installed, shell with every tool registered, the [/mnt/help] server
    mounted over 9P, the user's profile run, the tools loaded into the
    right-hand column, the demo binary compiled, and the broken process
    of the worked example planted.

    Also provides the scripted "user": functions that point, sweep,
    click and type by synthesizing the same events a mouse would,
    located by text content.  All examples, figures and benches drive
    sessions through this module. *)

type t = {
  ns : Vfs.t;
  sh : Rc.t;
  help : Help.t;
  db : Db.t;
  pool : Nine.Pool.t;
      (** the [/mnt/help] server and its connection pool;
          {!attach_client} adds seats *)
  metrics : Metrics.t;
  cpu : Cpu.t option;  (** the CPU server, when booted with [~remote:true] *)
  wal : Wal.t option ref;
      (** the write-ahead log attachment, when booted with [~wal] or
          built by {!recover}; a cell because the [/mnt/help] server is
          mounted before the attachment exists and reads it in-band *)
  mutable in_op : bool;
      (** reentrancy guard: a logged wrapper is on the stack, so the
          raw-event tap must not log the events it synthesizes *)
}

(** The pid of the planted broken process (Sean's crash). *)
val crash_pid : int

(** Boot a session.  Starts by {!Trace.reset}ing the global
    observability ledger, so every boot begins with zeroed metrics and
    an empty span ring — two identical scripted sessions produce
    identical [/mnt/help/trace] logs.

    Boot runs in two phases.  {e Wire} builds what a snapshot cannot
    hold — the namespace's mounts, every shell native, the profile's
    binds and function, the planted process, the [/mnt/help] server and
    pool, and the CPU link — and installs the corpus those read.
    {e Populate} builds the rest of what a snapshot holds: the demo
    binary [mk] compiles (RAM-tree files) and the boot-screen windows.
    {!recover} runs only wire.

    [boot ~remote:true] additionally connects a CPU server and routes
    every external command there — the paper's "invisible call to the
    CPU server".  The session behaves identically; only the 9P link
    counters differ.

    [boot ~fault:config] mounts [/mnt/help] through {!Fault.wrap}: a
    seeded schedule of reply faults exercises the client's retry paths.
    Because only idempotent kinds are faulted by default, a scripted
    session still converges to the fault-free screen state — with
    [nine.fault.*] and [nine.retry.*] counters to show for it.

    [boot ~wal:store] attaches a write-ahead log: every public driving
    operation is recorded in [store], the scheduler's dispatch journal
    is persisted through the pool's journal sink, and boot ends with a
    logged draw and an initial snapshot (so {!recover} always has
    one).  [checkpoint_every] arms automatic snapshots after that many
    ops, taken at the next logged draw.  Attaching a WAL is
    clock-transparent: the logical trace clock of a logged run matches
    an unlogged one event for event. *)
val boot :
  ?w:int ->
  ?h:int ->
  ?remote:bool ->
  ?fault:Fault.config ->
  ?wal:Wal.store ->
  ?checkpoint_every:int ->
  unit ->
  t

(** {1 Durability} *)

(** Take a snapshot now: namespace tree, shell globals, and UI state
    into the WAL's content-addressed chunk store, plus the full metrics
    registry.  No-op without a WAL attachment. *)
val checkpoint : t -> unit

(** Rebuild a session from a WAL store after a crash: check the
    dispatch journal, run boot's wire phase with the same parameters,
    restore the latest snapshot in place of the populate phase (the RAM
    tree, the shell's globals, the windows, then the trace ledger after
    one warm-up repaint), and replay the log tail in replay mode — each
    record's clock stamp is asserted against the logical clock, so
    divergence fails loudly rather than silently.  [mk] does not run.
    A torn final record (the crash landed mid-write) is tolerated and
    counted; a journal-sidecar gap raises {!Wal.Corrupt}.
    The recovered session resumes recording into the same store.  The
    screens, [/mnt/help/stats], and the trace clock of the recovered
    session are byte-identical to an uninterrupted run's (experiment
    E15). *)
val recover :
  ?w:int ->
  ?h:int ->
  ?remote:bool ->
  ?fault:Fault.config ->
  ?checkpoint_every:int ->
  Wal.store ->
  t

(** Apply one operation through the logged wrappers — the one entry
    point for replay and for drivers that speak ops: recovery, helpsim
    (each script line through {!Wal.op_of_string}) and property tests.
    @raise Invalid_argument on a dangling window id or a control
    command the control language rejects. *)
val apply : t -> Wal.op -> unit

(** {1 More clients}

    The paper's point is that {e many} independent programs drive help
    through one file protocol.  [attach_client t] opens another
    connection to the session's own [/mnt/help] server — a disjoint fid
    space, its own uname (default "client") in the [nine.conn.*] stats
    — and returns it with a {!Vfs.filesystem} view, so a simulated
    external program can read and write windows concurrently with the
    session.  [?wrap] interposes a fault schedule on just this client's
    transport.  Use [Nine.Pool.disconnect] on the returned connection
    to release its fids when done. *)
val attach_client :
  ?wrap:((string -> string) -> string -> string) ->
  ?uname:string ->
  t ->
  Nine.Pool.conn * Vfs.filesystem

(** {1 Looking around} *)

(** Draw the screen (a logged draw when the session keeps a WAL) and
    return the live screen {!Help.draw} lends: valid until the next
    draw, which repaints it in place.  Take [Screen.copy] to keep it. *)
val screen : t -> Screen.t

val dump : t -> string

(** Window whose name matches (see {!Help.window_by_name}).
    @raise Not_found when absent. *)
val win : t -> string -> Hwin.t

(** The most recently created window. *)
val last_window : t -> Hwin.t

(** {1 Scripted gestures}

    Each emits real events (Move/Press/Release/Key); the text is located
    in the window body (or tag) and scrolled into view first, as a user
    would do with the scroll controls. *)

(** Left-click at the first occurrence of [needle] in the body;
    [off] clicks that many characters past its start. *)
val point_at : t -> ?off:int -> Hwin.t -> string -> unit

(** Left-sweep exactly over the first occurrence of [needle]. *)
val sweep : t -> Hwin.t -> string -> unit

(** Middle-click on the word at [needle] in the body (executes it). *)
val exec_word : t -> Hwin.t -> string -> unit

(** Middle-click a word in the window's tag (Close!, Put!, ...). *)
val exec_tag_word : t -> Hwin.t -> string -> unit

(** Middle-sweep over the whole [needle] text in the body. *)
val exec_sweep : t -> Hwin.t -> string -> unit

(** Type text at the current mouse position. *)
val type_text : t -> string -> unit

(** Left-sweep [needle], then chord middle while still holding left:
    Cut without moving the mouse. *)
val sweep_and_chord_cut : t -> Hwin.t -> string -> unit

(** Click the column tab square for [w]'s position in its column,
    revealing it. *)
val click_tab : t -> Hwin.t -> unit

(** Right-drag a window by its tag to (column index, row): "the user
    points at the tag of a window, presses the right button, drags the
    window to where it is desired, and releases the button". *)
val drag_window : t -> Hwin.t -> col:int -> y:int -> unit

(** {1 Logged namespace writes}

    Driver-level mutations outside the gesture vocabulary, wrapped so a
    WAL attachment records them. *)

val write_file : t -> string -> string -> unit
val append_file : t -> string -> string -> unit
val remove_file : t -> string -> unit
val mkdir : t -> string -> unit
