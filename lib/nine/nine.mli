(** A 9P-style file protocol: binary codec, in-process server, client.

    The paper's programming interface is "the standard currency in
    Plan 9: files and file servers" — [help] {e is} a file server and its
    clients (shell scripts, tools) talk to it through the kernel's file
    protocol.  This module reproduces that layer: a binary message codec
    in the 9P2000 style and an in-process transport, so every access to a
    mounted server serializes a T-message and parses an R-message, as it
    would on the wire.

    Simplifications relative to 9P2000 (documented, deliberate): tags are
    carried but requests are synchronous; permissions are not modelled
    ([help] has a single user); [iounit] is fixed. *)

(** {1 Wire messages} *)

type qid = { q_type : int; q_version : int; q_path : int }

(** Directory bit of [q_type]. *)
val qtdir : int

type stat9 = {
  s9_name : string;
  s9_qid : qid;
  s9_length : int;
  s9_mtime : int;
}

type open_mode = Oread | Owrite | Ordwr | Otrunc of open_mode

type tmsg =
  | Tversion of { msize : int; version : string }
  | Tattach of { fid : int; uname : string; aname : string }
  | Twalk of { fid : int; newfid : int; names : string list }
  | Topen of { fid : int; mode : open_mode }
  | Tcreate of { fid : int; name : string; dir : bool; mode : open_mode }
  | Tread of { fid : int; offset : int; count : int }
  | Twrite of { fid : int; offset : int; data : string }
  | Tclunk of { fid : int }
  | Tremove of { fid : int }
  | Tstat of { fid : int }
  | Tflush of { oldtag : int }
      (** Cancel the outstanding request carrying [oldtag], if any.
          Always answered with [Rflush]; whether anything was cancelled
          shows in the [nine.flush.cancelled] / [nine.flush.stale]
          counters. *)

type rmsg =
  | Rversion of { msize : int; version : string }
  | Rattach of { qid : qid }
  | Rwalk of { qids : qid list }
  | Ropen of { qid : qid; iounit : int }
  | Rcreate of { qid : qid; iounit : int }
  | Rread of { data : string }
  | Rwrite of { count : int }
  | Rclunk
  | Rremove
  | Rstat of { stat : stat9 }
  | Rflush
  | Rerror of { ename : string }

exception Bad_message of string

(** Raised by a transport to model a reply that never arrived.  The
    in-process server never raises it; the fault injector ({!Fault})
    does, and {!Client} treats it as a timed-out request. *)
exception Timeout

(** Message kind as a short name ("version", "walk", "read", ...);
    keys the [nine.rpc.<kind>] / [nine.retry.<kind>] counters and the
    fault injector's per-kind configuration. *)
val kind_of_t : tmsg -> string

(** {1 Codec}  Messages carry a 16-bit tag, as on the wire.

    The codec itself lives in {!Wire} (zero-copy slice cursors on
    decode, reusable patching writers on encode) and is re-exported
    here; these four are the one-shot convenience forms over a shared
    scratch writer. *)

val encode_t : tag:int -> tmsg -> string
val decode_t : string -> int * tmsg
val encode_r : tag:int -> rmsg -> string
val decode_r : string -> int * rmsg

(** Pack / unpack directory entries as returned by reads of directories. *)
val encode_stat : stat9 -> string

val decode_stats : string -> stat9 list

(** {1 Server} *)

module Server : sig
  type t

  (** One client's seat at the server.  Each connection owns a disjoint
      fid table, its own negotiated msize, and the [uname] its client
      presented at attach — fids never cross connections. *)
  type conn

  (** Serve the given file system (its paths are server-relative).  A
      fresh server has no connections; they are added by {!connection}
      (usually via {!Pool.attach}) or implicitly by the first {!rpc}. *)
  val create : Vfs.filesystem -> t

  (** Open a new connection.  [uname] is a provisional label for stats
      ("none" by default); the [Tattach] on this connection overwrites
      it with the client's own.  Bumps [nine.conn.attached] and the
      [nine.conn.active] gauge. *)
  val connection : ?uname:string -> t -> conn

  (** Close a connection: every open file on it is released, its fid
      table emptied, and it is removed from the server. *)
  val disconnect : t -> conn -> unit

  (** Connections currently open, in creation order. *)
  val connections : t -> conn list

  val conn_id : conn -> int
  val conn_uname : conn -> string

  (** Requests served on this connection so far. *)
  val conn_served : conn -> int

  (** Live fids in this connection's table alone. *)
  val conn_fid_count : conn -> int

  (** One round-trip on an explicit connection: decode a T-message,
      execute against that connection's fid table and msize, encode the
      R-message.  Allocates its own trace context ({!Sched.new_request})
      since no scheduler is involved.  Protocol errors become [Rerror];
      malformed packets raise {!Bad_message}. *)
  val conn_rpc : t -> conn -> string -> string

  (** The scheduler's zero-copy entry point: execute one
      already-decoded T-message and append the framed R-message to the
      given writer.  [len] is the request's wire length (checked
      against the connection's msize); [req] is the trace context
      allocated at submit time — a sampled request's whole execution is
      recorded as a span tree tagged with its request id, readable as
      [/mnt/help/trace/<reqid>].  {!conn_rpc} is this plus a decode and
      a string materialization. *)
  val conn_dispatch :
    t ->
    conn ->
    Wire.Writer.t ->
    tag:int ->
    len:int ->
    req:Sched.request ->
    tmsg ->
    unit

  (** {!conn_rpc} on a lazily-created default connection (uname
      "direct") — the single-client convenience used by direct tests
      and the in-process [Cpu] link. *)
  val rpc : t -> string -> string

  (** Number of requests served by {e this} server, by message kind
      (walk, open, read, ...); used by benches and [Cpu.link_stats].
      Every message also feeds the global observability ledger: the
      [nine.rpc.<kind>] counters and the [nine.rpc.us] round-trip
      latency histogram (see [Trace]). *)
  val stats : t -> (string * int) list

  (** Number of live fids across {e all} connections — the leak
      detector.  After every client handle is closed it must return to
      the count held right after attach (one root fid per attached
      connection).  Also exported as the [nine.fids.live] gauge after
      each rpc. *)
  val fid_count : t -> int
end

(** {1 Pool}

    Many connections over one server.  Since the serving-core rebuild
    this is a thin compatibility shim over the cooperative scheduler in
    {!Sched}: requests are queued per connection into a bounded FIFO
    ring ({!Pool.submit}; a full ring applies backpressure, counted as
    [nine.backpressure.stalls]) and served in round-robin batches
    ({!Pool.step} serves up to the pool's batch limit of one
    connection's requests per turn, observed in the [nine.batch.size]
    histogram) — each turn of the ready queue serves at most one batch
    per connection, so a chatty client waits behind everyone else's
    next batch and can never starve the rest.  Connections are served
    in ready order, a pure function of the submission schedule, and the
    server runs on the deterministic logical clock, so the same
    schedule replays to the same interleaving byte for byte. *)

module Pool : sig
  type t

  (** One pooled connection: a submission queue plus its {!Server.conn}
      seat. *)
  type conn

  (** What became of a submitted request. *)
  type outcome =
    | Waiting  (** still queued, or unknown ticket *)
    | Replied of string  (** served; the encoded R-message *)
    | Flushed  (** cancelled by a later [Tflush] before it ran *)

  (** A fresh server wrapped in an empty pool.  [max_queue] bounds each
      connection's submission ring and [batch_limit] caps requests
      served per connection per turn (defaults from {!Sched.create}). *)
  val create : ?max_queue:int -> ?batch_limit:int -> Vfs.filesystem -> t

  (** The underlying server (stats, fid accounting). *)
  val server : t -> Server.t

  (** Open a connection and add it at the back of the scheduler ring.
      Its requests are counted in [nine.conn.<id>.rpcs]. *)
  val attach : ?uname:string -> t -> conn

  (** Remove the connection from the ring, release its fids and drop its
      [nine.conn.<id>.rpcs] counter.  Its queued requests are dropped
      unserved. *)
  val disconnect : conn -> unit

  val conn_id : conn -> int
  val uname : conn -> string

  (** Requests served on this connection (from {!Server.conn_served}). *)
  val served : conn -> int

  (** Queue [packet] and return a ticket for {!poll}/{!take}.  A
      [Tflush] cancels its victim here if the victim is still queued
      ([nine.flush.cancelled]; the victim's ticket becomes {!Flushed})
      and counts [nine.flush.stale] otherwise; either way the flush
      itself is queued and answered in order.  Submitting into a full
      ring turns the scheduler until space frees
      ([nine.backpressure.stalls]).
      @raise Bad_message on a malformed packet (never queued). *)
  val submit : conn -> string -> int

  (** Wire-level batching: split a buffer of concatenated T-frames in
      place (no per-frame copy) and {!submit} each; tickets in frame
      order. *)
  val feed : conn -> string -> int list

  (** Requests currently queued on this connection — never exceeds the
      pool's [max_queue]. *)
  val queue_length : conn -> int

  val poll : conn -> int -> outcome

  (** {!poll}, forgetting the ticket once it has settled. *)
  val take : conn -> int -> outcome

  (** Continuation-driven completion: run the callback from the
      scheduler's run-to-completion task queue when the ticket settles
      (immediately queued if it already has).  The outcome is consumed
      — {!poll}/{!take} will not see it. *)
  val on_settled : conn -> int -> (outcome -> unit) -> unit

  (** Requests queued across the pool. *)
  val pending : t -> int

  (** One scheduler turn: drain pending continuations, then serve up to
      [batch_limit] queued requests of the next ready connection;
      [false] when nothing is left to do. *)
  val step : t -> bool

  (** {!step} until every queue is empty. *)
  val run : t -> unit

  (** The synchronous transport a {!Client} speaks: submit, then turn
      the scheduler until this request's reply is out — other
      connections' queued work is served on the way, interleaved by the
      round-robin.
      @raise Timeout if the request was flushed before running. *)
  val transport : conn -> string -> string

  (** [(conn_id, uname, served, live fids)] per connection, in attach
      order. *)
  val stats : t -> (int * string * int * int) list

  (** Most-served over least-served connection, among connections that
      submitted at least one request: [1.0] is perfect balance,
      [infinity] means a requester was never served. *)
  val fairness_spread : t -> float

  (** {!Server.fid_count} of the pooled server. *)
  val fid_count : t -> int

  (** [record_journal p true] starts recording [(clock reading, conn
      id, message kind)] per dispatched request — the interleaving
      transcript used by replay tests.  The journal is a bounded ring:
      past its capacity the oldest records are dropped and counted as
      [nine.journal.dropped], so an unbounded bench run cannot grow it
      without limit.  Recording reads the clock, so it perturbs
      timings; leave it off outside tests. *)
  val record_journal : t -> bool -> unit

  (** The journal recorded so far, oldest first ([] if off). *)
  val journal : t -> (int * int * string) list

  (** Install (or clear) a durability sink on the pool's scheduler:
      it receives every dispatch record before the bounded ring can
      evict it (see {!Sched.set_journal_sink}).  The WAL uses this to
      persist the dispatch transcript without racing ring eviction. *)
  val set_journal_sink : t -> (int * int * string -> unit) option -> unit
end

(** {1 Client} *)

module Client : sig
  type t

  (** [connect rpc] performs version + attach over the transport.

      Requests whose replies are lost, late, corrupt, or tagged wrong
      are retried when idempotent (version/attach/walk/stat/read/clunk)
      up to [max_retries] times with exponential backoff ([backoff_us]
      doubling per attempt) on the deterministic trace clock; each
      retry increments [nine.retry.<kind>].  A reply arriving more than
      [timeout_us] logical microseconds after such a request was sent
      counts as lost ([nine.rpc.timeout]).  A timed-out tag is not
      abandoned: a best-effort [Tflush oldtag] ([nine.flush.sent]) asks
      the server to cancel the exchange before the retry re-issues
      under a fresh tag.  Exhausted retries — and any failure of a
      non-idempotent request — raise [Vfs.Error (Eio reason)] and count
      in [nine.rpc.failed].

      [uname] (default "help") is presented at attach; multi-connection
      servers record it per connection for stats.

      @raise Bad_message if version/attach negotiation itself fails. *)
  val connect :
    ?timeout_us:int ->
    ?max_retries:int ->
    ?backoff_us:int ->
    ?uname:string ->
    (string -> string) ->
    t

  (** View the remote tree as a local {!Vfs.filesystem}: each operation
      becomes walk/open/read/write/clunk round-trips.  Reads and writes
      are chunked to fit the negotiated msize. *)
  val filesystem : t -> Vfs.filesystem
end

(** [serve_mount ns path fs] wires a pooled server for [fs] to a fresh
    client and mounts the client's view at [path] in [ns]: from then on
    all access to [path] crosses the protocol.  Returns the server (for
    stats).  [?wrap] interposes on the transport (e.g. {!Fault.wrap});
    the client connects {e before} the mount, so a transport that
    cannot complete version/attach raises with the namespace
    untouched.  [?max_retries] sets the client's retry budget — raise
    it alongside an aggressive fault schedule.  [?uname] (default
    "help") labels the mount's own connection in per-connection
    stats. *)
val serve_mount :
  ?wrap:((string -> string) -> string -> string) ->
  ?max_retries:int ->
  ?uname:string ->
  Vfs.t ->
  string ->
  Vfs.filesystem ->
  Server.t

(** {!serve_mount}, also returning the pool so further clients can
    {!Pool.attach} to the same server — how a session becomes
    multi-tenant (see [Session.attach_client]).  [?max_queue] and
    [?batch_limit] tune the pool's scheduler (see {!Pool.create}). *)
val serve_mount_pool :
  ?wrap:((string -> string) -> string -> string) ->
  ?max_retries:int ->
  ?max_queue:int ->
  ?batch_limit:int ->
  ?uname:string ->
  Vfs.t ->
  string ->
  Vfs.filesystem ->
  Server.t * Pool.t
