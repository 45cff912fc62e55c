(** A 9P-style file protocol: binary codec, in-process server, client.

    The paper's programming interface is "the standard currency in
    Plan 9: files and file servers" — [help] {e is} a file server and its
    clients (shell scripts, tools) talk to it through the kernel's file
    protocol.  This module reproduces that layer: a binary message codec
    in the 9P2000 style and an in-process transport, so every access to a
    mounted server serializes a T-message and parses an R-message, as it
    would on the wire.

    Simplifications relative to 9P2000 (documented, deliberate):
    permissions are not modelled ([help] has a single user); [iounit]
    is fixed. *)

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

(** {1 Pool}

    The server and the only way into it: many connections over one
    in-process server, each with its own fid table, negotiated msize
    and uname, and a cooperative scheduler in front.  Requests are
    queued per connection into a FIFO ring of 128 ({!Pool.submit}; a
    full ring applies backpressure, counted as
    [nine.backpressure.stalls]) and served in round-robin batches
    ({!Pool.step} serves up to 8 of one connection's requests per turn,
    observed in the [nine.batch.size] histogram) — each turn of the
    ready queue serves at most one batch per connection, so a chatty
    client waits behind everyone else's next batch and can never starve
    the rest.  Connections are served
    in ready order, a pure function of the submission schedule, and the
    server runs on the deterministic logical clock, so the same
    schedule replays to the same interleaving byte for byte.

    Every request is tallied on the global ledger ([nine.rpc.<kind>]
    counters, the [nine.rpc.us] latency histogram, the
    [nine.fids.live] gauge) and given a request id at submit time; its
    whole execution is recorded as a span tree tagged with that id,
    readable as [/mnt/help/trace/<reqid>]. *)

module Pool : sig
  type t

  (** One connection: a submission queue plus its seat at the server
      (fid table, msize, uname). *)
  type conn

  (** What became of a submitted request. *)
  type outcome =
    | Waiting  (** still queued, or unknown ticket *)
    | Replied of string  (** served; the encoded R-message *)
    | Flushed  (** cancelled by a later [Tflush] before it ran *)

  (** A server for the given file system (its paths are
      server-relative), with no connections yet. *)
  val create : Vfs.filesystem -> t

  (** Open a connection and add it at the back of the scheduler ring.
      [uname] (default "none") labels it in {!stats} until its
      [Tattach] records the client's own.  Its requests are counted in
      [nine.conn.<id>.rpcs]; bumps [nine.conn.attached] and the
      [nine.conn.active] gauge. *)
  val attach : ?uname:string -> t -> conn

  (** Remove the connection from the ring, clunk its fids (closing
      every file it left open) and drop its [nine.conn.<id>.rpcs]
      counter.  Its queued requests are dropped unserved.  A second
      disconnect is a no-op. *)
  val disconnect : conn -> unit

  val conn_id : conn -> int

  (** Requests served on this connection so far. *)
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

  (** Requests currently queued on this connection — never exceeds
      128. *)
  val queue_length : conn -> int

  val poll : conn -> int -> outcome

  (** {!poll}, forgetting the ticket once it has settled. *)
  val take : conn -> int -> outcome

  (** Continuation-driven completion: run the callback from the
      scheduler's run-to-completion task queue when the ticket settles
      (immediately queued if it already has).  The outcome is consumed
      — {!poll}/{!take} will not see it. *)
  val on_settled : conn -> int -> (outcome -> unit) -> unit

  (** One scheduler turn: drain pending continuations, then serve up to
      8 queued requests of the next ready connection; [false] when
      nothing is left to do. *)
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

  (** Number of live fids across {e all} connections — the leak
      detector.  After every client handle is closed it must return to
      the count held right after attach (one root fid per attached
      connection).  Also exported as the [nine.fids.live] gauge after
      each request. *)
  val fid_count : t -> int

  (** Requests served by {e this} pool's server, by message kind (walk,
      open, read, ...), sorted by kind; [Cpu.link_stats] reads its
      link's this way. *)
  val kind_counts : t -> (string * int) list

  (** Install (or clear) the journal sink: it receives a
      [(clock, conn_id, kind)] record per dispatched request, in
      dispatch order — the interleaving transcript the WAL persists and
      replay tests compare.  Records are stamped with the clock's
      current position rather than a reading, so installing a sink does
      not perturb timestamps. *)
  val set_journal_sink : t -> (int * int * string -> unit) option -> unit
end

(** {1 Client} *)

module Client : sig
  type t

  (** [connect rpc] performs version + attach over the transport.

      Requests whose replies are lost, late, corrupt, or tagged wrong
      are retried when idempotent (version/attach/walk/stat/read/clunk)
      up to 8 times with exponential backoff (1 ms of
      logical time, doubling per attempt) on the deterministic trace
      clock; each retry increments [nine.retry.<kind>].  A reply
      arriving more than 50 ms of logical time after such a request was
      sent counts as lost ([nine.rpc.timeout]).  A timed-out tag is not
      abandoned: a best-effort [Tflush oldtag] ([nine.flush.sent]) asks
      the server to cancel the exchange before the retry re-issues
      under a fresh tag.  Exhausted retries — and any failure of a
      non-idempotent request — raise [Vfs.Error (Eio reason)] and count
      in [nine.rpc.failed].

      [uname] (default "help") is presented at attach; multi-connection
      servers record it per connection for stats.

      @raise Bad_message if version/attach negotiation itself fails. *)
  val connect : ?uname:string -> (string -> string) -> t

  (** View the remote tree as a local {!Vfs.filesystem}: each operation
      becomes walk/open/read/write/clunk round-trips.  Reads and writes
      are chunked to fit the negotiated msize. *)
  val filesystem : t -> Vfs.filesystem
end

(** [serve_mount ns path fs] wires a pooled server for [fs] to a fresh
    client and mounts the client's view at [path] in [ns]: from then on
    all access to [path] crosses the protocol.  Returns the pool, so
    further clients can {!Pool.attach} to the same server — how a
    session becomes multi-tenant (see [Session.attach_client]).
    [?wrap] interposes on the transport (e.g. {!Fault.wrap}); the
    client connects {e before} the mount, so a transport that cannot
    complete version/attach raises with the namespace untouched.
    [?uname] (default "help") labels the mount's own connection in
    per-connection stats. *)
val serve_mount :
  ?wrap:((string -> string) -> string -> string) ->
  ?uname:string ->
  Vfs.t ->
  string ->
  Vfs.filesystem ->
  Pool.t
