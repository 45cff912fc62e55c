(** The [/mnt/help] file server: the interface seen by programs.

    "Each help window is represented by a set of files stored in
    numbered directories ... The help directory is conventionally
    mounted at /mnt/help."  The tree:

    {v
    /mnt/help/index        window number TAB first line of tag, per window
    /mnt/help/stats        the observability registry, one "key value"
                           metric per line (see {!Trace.stats_text})
    /mnt/help/metrics      Prometheus-style exposition of the registry
                           with per-window quantiles
                           (see {!Trace.metrics_text})
    /mnt/help/alerts       the threshold-watch table, evaluated at open
                           (see {!Trace.alerts_text})
    /mnt/help/trace        reading drains the span ring (human-readable
                           text; a trailing line marks dropped spans)
    /mnt/help/trace/last   the same rendering without the drain — any
                           number of observers may peek
    /mnt/help/trace/NNN    the span tree of request NNN; these
                           two are reached by walking through [trace],
                           which remains a file (they are not listed)
    /mnt/help/wal/stats    the durability ledger: log and snapshot
                           totals, chunk sharing, last-recovery
                           statistics (see {!Wal.stats_text}); the wal
                           directory exists only while a write-ahead
                           log is attached
    /mnt/help/wal/log      the op log, one op per line in the text
                           form of {!Wal.op_to_string}, oldest first:
                           a helpsim script that replays the session
                           from a fresh boot
    /mnt/help/wal/checkpoint
                           any write takes a snapshot now
    /mnt/help/new/ctl      opening it creates a window; reading it
                           returns the new window's number
    /mnt/help/N/tag        read/write the tag line
    /mnt/help/N/body       read the body; writing replaces it
    /mnt/help/N/bodyapp    writes append to the body
    /mnt/help/N/ctl        control commands, one per line (see
                           {!Help.ctl_command}); reading gives
                           "N length dirty"
    v}

    The tree is served over the {!Nine} protocol and mounted into the
    session namespace, so a shell script's [cat /mnt/help/7/body] does
    walk/open/read/clunk round-trips exactly as on Plan 9.

    Also registers the glue natives the tool scripts use:
    [/bin/help/parse] (turn [$helpsel] into [win]/[dir]/[file]/[id]/
    [line]/[num] variables) and [/bin/help/buf] (buffer stdin to
    stdout). *)

(** Build the server for this help instance, mount it at [/mnt/help] in
    the instance's namespace, and register the glue natives.  Returns
    the connection pool, so further clients can attach to the same
    server with their own fid spaces (the mount's own connection
    carries uname "help"; [Session.attach_client] is the usual caller),
    and for statistics.  [?wrap] interposes on the transport (e.g.
    [Fault.wrap] for fault injection); if the wrapped transport cannot
    complete version/attach, the exception propagates and nothing is
    mounted.  [?wal] supplies the session's write-ahead log
    attachment; it is a thunk because the attachment is created after
    the mount — the tree reads it on every access, so [wal/] appears as
    soon as one exists. *)
val mount :
  ?wrap:((string -> string) -> string -> string) ->
  ?wal:(unit -> Wal.t option) ->
  Help.t ->
  Nine.Pool.t

(** The raw filesystem (pre-9P), for tests that want to poke it
    directly. *)
val filesystem : ?wal:(unit -> Wal.t option) -> Help.t -> Vfs.filesystem

(** Register only the glue natives ([help/parse], [help/buf]) on some
    other shell — e.g. the CPU server's, whose [/mnt/help] is the
    terminal's, imported over the link. *)
val install_glue : Rc.t -> unit
