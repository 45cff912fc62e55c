(** Write-ahead log, content-addressed snapshots, and crash recovery.

    Durability for a [help] session is op-sourced: every state-mutating
    operation that enters the session from outside — an input event, a
    window control command, a reveal, a draw, a namespace write — is
    recorded as one checksummed {!op} record stamped with the logical
    clock, and the whole session is a pure function of the boot
    parameters plus the op sequence.  Recovery therefore never diffs
    state: it runs boot's wire phase (what no snapshot can hold:
    closures, mounts, the shell's natives), restores the latest snapshot
    in place of boot's populate phase, and replays the log tail,
    asserting at every record that the clock agrees with the stamp laid
    down by the original run.

    A {!store} is the durable half: the append-only log, the
    content-addressed chunk store shared by all snapshots, the snapshot
    records, and the journal sidecar fed by the scheduler's dispatch
    sink (see [Nine.Pool.set_journal_sink]).  A {!t} is one session's
    attachment to a store: it carries the recording mode, the
    checkpoint policy, and per-attachment recovery statistics.

    Modes.  With [recording] on, {!log} appends to the store.  With it
    off — replay mode — {!log} performs the exact same counter
    accounting ([wal.records], [wal.bytes]) but appends nothing, so a
    recovered session's metrics converge byte-for-byte with the
    uninterrupted run's.

    Records.  A record's payload is the clock stamp, as a [Codec] int,
    followed by the op's line in the text form of {!op_to_string} —
    the same lines helpsim reads and [/mnt/help/wal/log] serves.

    Torn tails.  The log is a sequence of length-prefixed,
    digest-checksummed frames.  A truncated final frame (the crash
    landed mid-write) is tolerated and counted; a checksum mismatch
    anywhere else raises {!Corrupt}.  Likewise {!verify_journal} fails
    loudly — a gap in the journal sequence means an entry was lost
    before the sink persisted it, and recovery must not paper over it.

    Counters: [wal.records], [wal.bytes], [wal.snapshots],
    [wal.chunks.new], [wal.chunks.shared], [wal.journal.entries]. *)

exception Corrupt of string

(** One logged state-mutating operation.  The vocabulary is the
    session's public driving API, not its internal effects: replay
    re-invokes the same entry point, so every derived mutation — and
    every counter the entry point touches on the way, including
    read-side ones like layout-cache hits — is reproduced by the same
    code that produced it.  [O_event] covers raw events delivered
    outside a session helper (tapped by [Help.on_event]); the gesture
    ops name their window by id and their target by needle text;
    [O_open] opens a path as the Open built-in does; the namespace ops
    cover direct driver writes outside the UI. *)
type op =
  | O_event of Help.event
  | O_point of int * string * int  (** window id, needle, offset *)
  | O_sweep of int * string
  | O_exec_word of int * string
  | O_exec_sweep of int * string
  | O_exec_tag of int * string
  | O_chord_cut of int * string
  | O_drag of int * int * int  (** window id, column index, row *)
  | O_click_tab of int
  | O_open of string  (** path, opened from [/] *)
  | O_ctl of int * string  (** window id, ctl command *)
  | O_reveal of int  (** window id *)
  | O_draw
  | O_write of string * string  (** path, contents *)
  | O_append of string * string
  | O_remove of string
  | O_mkdir of string

(** {1 Text form}

    One op per line: a verb, then its fields, each after one space.
    The gestures use helpsim's verbs: [point WIN NEEDLE], [point WIN
    "NEEDLE" OFF], [sweep], [exec], [execsweep], [exectag] and [cut]
    (each [WIN NEEDLE]), [tab WIN], [drag WIN COL Y], [type TEXT] (an
    [O_event (Type _)]) and [open PATH].  The rest: [move X Y],
    [press B], [release B] (B is [left], [middle] or [right]),
    [key C], [ctl WIN CMD], [reveal WIN], [draw], [write "PATH" DATA],
    [append "PATH" DATA], [remove PATH] and [mkdir PATH].

    WIN prints as the window id.  A string field prints raw, to the end
    of the line, when it is the last field, is not empty, has no byte
    below space nor DEL, and neither starts with a quote nor starts or
    ends with a space; otherwise it prints as an OCaml string literal
    ([%S]), which other fields may follow.  [point]'s offset prints
    only when it is nonzero, after a quoted needle. *)

val op_to_string : op -> string

(** Parse one line of the text form.  A WIN of digits (with an
    optional minus) is a window id; any other WIN is a window name,
    resolved by [win] (by default it fails).  @raise Failure with the
    reason on a line that does not parse. *)
val op_of_string : ?win:(string -> int) -> string -> op

(** {1 Store} *)

type store

val create_store : unit -> store

val log_pos : store -> int
(** Current byte length of the op log. *)

val chunk_count : store -> int

val chunk_get : store -> string -> string
(** Fetch a chunk by digest key.  @raise Corrupt on an unknown key. *)

val truncate_log : store -> int -> store
(** [truncate_log s n] is a copy of [s] whose op log is cut to the
    first [n] bytes and whose snapshot list keeps only snapshots taken
    at or before that position — the store as a crash at byte [n]
    would have left it.  The chunk table is rebuilt from the surviving
    snapshots' reference lists (chunks written after the cut would not
    exist); the journal sidecar is kept whole, as a separate device
    that may outlive the log tail. *)

(** {1 Snapshots} *)

type snapshot

val snapshots : store -> snapshot list
(** Newest first. *)

val latest_snapshot : store -> snapshot option

val sn_log_pos : snapshot -> int
val sn_vfs : snapshot -> string
val sn_rc : snapshot -> string
val sn_help : snapshot -> string
val sn_trace : snapshot -> string

val sn_total_bytes : snapshot -> int
(** Component bytes plus every referenced chunk's length — the full
    logical size of the snapshot. *)

val sn_new_bytes : snapshot -> int
(** Component bytes plus only the chunks first stored by this
    snapshot — its incremental cost.  Content addressing makes this
    shrink toward the edit size when little changed. *)

(** {1 Attachment} *)

type t

val attach : ?checkpoint_every:int -> recording:bool -> store -> t
(** [checkpoint_every n] arms {!maybe_checkpoint} to fire after [n]
    ops have accumulated since the last snapshot (0, the default,
    disarms automatic checkpoints). *)

val store : t -> store
val recording : t -> bool
val set_recording : t -> bool -> unit
val op_count : t -> int

val log : t -> op -> unit
(** Record one op, stamped with [Trace.logical_now ()].  Appends to
    the store when recording; in replay mode only the counters and op
    count advance. *)

val set_on_checkpoint : t -> (unit -> unit) -> unit

val maybe_checkpoint : t -> unit
(** Fire the checkpoint callback if recording, armed, and at least
    [checkpoint_every] ops have accumulated since the last snapshot.
    The session layer calls this after a draw completes, so snapshots
    always capture post-draw state. *)

val force_checkpoint : t -> unit
(** Fire the checkpoint callback now (if recording), regardless of the
    threshold — the in-band [/mnt/help/wal/checkpoint] trigger.  Taken
    between ops it is consistent; callers that want recovery to
    converge byte-for-byte should trigger it right after a draw, like
    the automatic policy does. *)

val begin_snapshot : t -> unit
(** Reset the per-snapshot byte tallies; component builders call
    {!put} between this and {!commit_snapshot}. *)

val put : t -> string -> string
(** Store a chunk under its content digest, counting it as new or
    shared, and return the key. *)

val commit_snapshot : t -> vfs:string -> rc:string -> help:string -> unit
(** Seal the snapshot: count it, capture the metrics registry
    ([Trace.save_state] — after the [wal.snapshots] bump, so restored
    counters match the reference run's post-checkpoint values), and
    record it at the current log position. *)

(** {1 Replay} *)

val ops_after : store -> pos:int -> (int * op) list * int
(** Decode the log from byte [pos]: the [(stamp, op)] records in
    order, and the number of torn (truncated) trailing frames — 0 or
    1.  @raise Corrupt on a checksum mismatch before the tail. *)

val prime : t -> snapshot -> unit
(** Seed the attachment's op counter from the snapshot before tail
    replay, so replaying [n] tail records through {!log} leaves
    {!op_count} at the reference run's value (the snapshot's op count
    plus [n]). *)

val note_recovery : t -> ops:int -> torn:int -> unit
(** Record per-attachment recovery statistics ([ops] replayed, [torn]
    truncated tail frames) for {!stats_text}. *)

(** {1 Journal sidecar} *)

val journal_entry : t -> int * int * string -> unit
(** Sink target for [Nine.Pool.set_journal_sink]: persist one
    [(clock, conn, kind)] dispatch record under the next sequence
    number.  In replay mode only the [wal.journal.entries] counter
    advances. *)

val verify_journal : store -> unit
(** Check sequence contiguity and clock monotonicity.
    @raise Corrupt on a gap — an entry was dropped before the sink
    persisted it — or a clock inversion. *)

val drop_journal_entry : store -> seq:int -> unit
(** Delete the entry with sequence number [seq] — a test hook
    simulating an entry lost to the bounded ring. *)

(** {1 Introspection} *)

val stats_text : t -> string
(** The [/mnt/help/wal/stats] payload: store totals, snapshot and
    chunk accounting, recording mode, and last-recovery statistics. *)
