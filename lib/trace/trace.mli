(** The observability subsystem: a span tracer and a metrics registry.

    The paper's whole evaluation is measurement — click counts, lines
    of code, connectivity curves — and its central mechanism is "the
    application interface is a file server".  This module is the single
    ledger behind both: every hot path (drawing, layout, analysis
    caches, the 9P server, command execution, the namespace) reports
    here, and [Help_srv] serves the result back through the paper's own
    interface as [/mnt/help/stats], [/mnt/help/trace],
    [/mnt/help/metrics] and [/mnt/help/alerts], so a session's shell
    can literally [cat /mnt/help/stats].

    Everything is process-global: instruments are registered by name
    (find-or-create), and components that need per-instance views keep
    a base snapshot and report deltas.  The clock is logical — it
    advances by one microsecond per reading — so traces of a scripted
    session are deterministic.  Nothing here is configurable: every
    request is traced, the span ring holds 4096 spans, windows are 16
    slots of 65536 us, and the alert table has four fixed rules. *)

(** {1 Clock} *)

(** Read the clock (advances the logical clock by one tick).  Every
    reading also drives the rolling-window machinery: crossing a window
    boundary snapshots the registry (see {!window_series}). *)
val now_us : unit -> int

(** The logical clock's current position, without a reading: no
    advance, no window tick.  The WAL stamps records with this so that
    attaching a log is clock-transparent — a session with a log keeps
    the same timestamps as one without. *)
val logical_now : unit -> int

(** Jump the logical clock forward [n] microseconds without a reading —
    how deterministic components model waiting (client RPC timeouts and
    retry backoff, injected transport latency).  A jump larger than the
    whole rolling window expires every open slot. *)
val advance : int -> unit

(** {1 Counters} *)

type counter

(** Find or create the registered counter [name].
    @raise Invalid_argument if [name] is registered as another kind. *)
val counter : string -> counter

val incr : ?by:int -> counter -> unit
val value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> int -> unit
val gauge_value : gauge -> int

(** {1 Histograms} *)

type histogram

val histogram : string -> histogram

(** Record one observation (microseconds, or any unit-free value). *)
val observe : histogram -> int -> unit

(** [(count, sum, min, max)]; [(0, 0, 0, 0)] before any observation. *)
val histogram_stats : histogram -> int * int * int * int

(** [percentile h p] is the value at or below which [p] percent of the
    observations fall (e.g. [percentile h 99.] is p99), read from
    quarter-octave geometric buckets: within 25% relative error, never
    understating, exact at the observed maximum.  [0] before any
    observation; [p] is clamped to [0..100]. *)
val percentile : histogram -> float -> int

(** {1 Registry snapshot} *)

(** Drop the instrument registered as [name], if any; a later lookup of
    [name] registers a fresh one.  For instruments named after something
    that goes away, such as a connection: every registry walk
    ({!reset}, {!stats_text}, each window roll) pays for every
    registered instrument. *)
val unregister : string -> unit

(** Every registered instrument, one metric per line, [key value],
    sorted by key.  Histograms expand to [.count]/[.sum]/[.min]/[.max]
    lines.  This is the content of [/mnt/help/stats]. *)
val stats_text : unit -> string

(** Prometheus-style text exposition of the whole registry, sorted by
    family: counters as [name_total], gauges bare, histograms as
    cumulative [name_bucket{le="..."}] plus [name_sum]/[name_count],
    and a [name_window] summary family carrying p50/p95/p99 over the
    most recently closed rolling-window slot (whole-run percentiles
    before the first slot closes).  Dots in registry names become
    underscores.  Derived only from the registry and the logical-clock
    windows — never from GC or wall-clock state — so two identically
    scripted sessions produce byte-identical text.  This is the content
    of [/mnt/help/metrics]. *)
val metrics_text : unit -> string

(** Current value of a registered counter or gauge by name. *)
val find_value : string -> int option

(** {1 Request context}

    The serving layer allocates a request id per RPC at scheduler
    submit time and records every request's spans under it.  Ids
    restart from 1 at {!reset}, so scripted sessions allocate
    identical ids on every run. *)

(** Allocate the next request id (1, 2, 3, ...). *)
val request_id : unit -> int

(** [with_request ~reqid name f] runs [f] inside a span as
    {!with_span}, additionally tagging every span recorded during [f]
    — the whole nested tree — with [reqid] (see {!request_text}). *)
val with_request :
  reqid:int -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** {1 Spans} *)

type span = {
  sp_name : string;
  sp_start : int;  (** clock reading at entry, microseconds *)
  sp_dur : int;  (** duration in microseconds *)
  sp_depth : int;  (** nesting depth at entry, 0 = top level *)
  sp_req : int;  (** owning request id, 0 = none *)
  sp_args : (string * string) list;
}

(** [with_span name f] runs [f] inside a span; the span is recorded
    (into the bounded ring) when [f] returns or raises. *)
val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Like {!with_span} for args only known at exit: [f] returns the
    result and the args to record (e.g. cache hits during the span). *)
val with_span_result :
  string -> (unit -> 'a * (string * string) list) -> 'a

(** {1 The span ring}

    Completed spans land in a ring buffer of 4096 spans; when it
    overflows, the oldest spans are dropped and counted (also visible
    as the [trace.spans.dropped] counter). *)

(** Number of spans currently buffered. *)
val pending_spans : unit -> int

(** Remove and return all buffered spans, oldest first, together with
    the number dropped to overflow since the previous drain.  Reading
    [/mnt/help/trace] is a drain. *)
val drain : unit -> span list * int

(** Like {!drain} but non-destructive: the ring and the drop tally are
    left untouched.  Reading [/mnt/help/trace/last] is a peek. *)
val peek : unit -> span list * int

(** {1 Per-request span trees} *)

(** Distinct request ids with at least one span still buffered, in
    order of first appearance (oldest request first). *)
val requests : unit -> int list

(** All buffered spans tagged with the request id, sorted into preorder
    (by start time, parents before children) and rendered as
    {!spans_text}; [None] when no buffered span carries the id (never
    allocated, or already evicted or drained).  This is the content of
    [/mnt/help/trace/<reqid>]. *)
val request_text : int -> string option

(** {1 Exporter} *)

(** Human-readable, one span per line ([start +dur name k=v ...]),
    indented by nesting depth; a final [# N spans dropped] line marks
    ring overflow. *)
val spans_text : ?dropped:int -> span list -> string

(** {1 Rolling windows}

    Logical time is divided into slots of 65536 us; the first reading
    past a boundary snapshots the whole registry, and the 16 most
    recent snapshots turn any counter into a per-slot rate and any
    histogram into per-slot quantiles by differencing consecutive
    snapshots.  Windows are pure views over the registry: nothing is
    double-counted, and an idle period simply produces no snapshots.  A
    clock jump past the whole window expires every old slot (counted on
    [trace.window.rolls] as boundary crossings). *)

(** Per-slot deltas of a counter or gauge, oldest first, as
    [(slot, delta)] where [slot * width] is the slot's start time.
    Empty until two boundary crossings have been observed. *)
val window_series : string -> (int * int) list

(** Per-slot histogram quantiles, oldest first:
    [(slot, count, p50, p95, p99)].  Quantiles of an empty slot are 0;
    delta quantiles are clamped to the highest occupied bucket bound
    (the exact observed max is not known per-slot). *)
val window_quantiles : string -> (int * int * int * int * int) list

(** {1 Alerts}

    A fixed threshold-watch table over the ledger, evaluated only when
    read.  Four rules watch p99 RPC latency ([p99(nine.rpc.us)]),
    backpressure stalls, span drops and index thrash
    ([rate(...)] of [nine.backpressure.stalls], [trace.spans.dropped]
    and [index.stale.reindexed]).  [rate] is the last closed window
    slot's delta; [p99] the histogram percentile over the last closed
    slot, whole-run before one closes.  A rule fires when its source
    exceeds its threshold. *)

(** One line per rule: [name ok|firing current source > threshold],
    preceded by a [#] header line.  This is the content of
    [/mnt/help/alerts]. *)
val alerts_text : unit -> string

(** {1 Reset}

    Zero every registered instrument, empty the ring, restart the
    logical clock and the request-id allocator, and re-seed the window
    baseline snapshot.  Registrations
    survive (handles held by modules stay valid).  [Session.boot]
    resets so each session starts a fresh ledger. *)
val reset : unit -> unit

(** {1 State capture}

    Crash recovery restores the ledger of the crashed session so the
    recovered one continues it exactly: clock position, request-id
    allocator, window epoch, every instrument's value, and the retained
    window snapshots.  The
    span ring is deliberately not captured — recovery restarts with an
    empty ring. *)

(** Serialize the full ledger state ({!Codec} format). *)
val save_state : unit -> string

(** Restore a {!save_state} capture: decode in full first (raising
    [Codec.Truncated] or [Invalid_argument] without touching anything
    on a bad input), then overwrite the ledger.  Instruments absent
    from the capture are zeroed; the span ring is emptied. *)
val restore_state : string -> unit
