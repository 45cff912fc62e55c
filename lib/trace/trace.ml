(* ------------------------------------------------------------------ *)
(* Clock                                                               *)

(* The clock is logical: each reading advances it one microsecond, so
   a scripted session produces the same timestamps on every run. *)

let logical = ref 0

(* Every clock reading feeds the rolling-window machinery below; the
   hook is installed once the window state exists (end of this file). *)
let tick_hook : (int -> unit) ref = ref (fun _ -> ())

let now_us () =
  incr logical;
  let t = !logical in
  !tick_hook t;
  t

(* The logical clock's current position without a reading: no advance,
   no window tick.  The WAL stamps records with this, so logging an
   operation is clock-transparent — a session with a log attached keeps
   the same timestamps as one without. *)
let logical_now () = !logical

(* Model waiting (a client timeout, retry backoff, injected latency) by
   jumping the logical clock forward. *)
let advance n =
  if n > 0 then begin
    logical := !logical + n;
    !tick_hook !logical
  end

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

type counter = { mutable c_v : int }
type gauge = { mutable g_v : int }

(* Histograms keep geometric buckets (quarter-octave resolution) next
   to the running count/sum/min/max, so percentiles can be read without
   storing observations.  Values 0..3 get exact buckets; a value v >= 4
   with 2^o <= v < 2^(o+1) lands in one of four sub-buckets of its
   octave, giving a relative error bound of 2^(o-2)/2^o = 25% on any
   reported quantile. *)
let hist_buckets = 256

type histogram = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  h_b : int array;  (* bucket occupancy, [hist_buckets] slots *)
}

let bucket_of v =
  if v <= 3 then max 0 v
  else begin
    (* octave o: 2^o <= v < 2^(o+1); quarter: next two bits down *)
    let o = ref 2 in
    while v lsr (!o + 1) > 0 do
      incr o
    done;
    let q = (v lsr (!o - 2)) land 3 in
    min (hist_buckets - 1) ((!o - 1) * 4 + q)
  end

(* Upper bound of a bucket — the pessimistic representative, so a
   reported percentile never understates the observed latency. *)
let bucket_upper i =
  if i <= 3 then i
  else
    let o = (i / 4) + 1 in
    let q = i mod 4 in
    (1 lsl o) + ((q + 1) * (1 lsl (o - 2))) - 1

type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64

let kind_clash name =
  invalid_arg
    (Printf.sprintf "Trace: %s is already registered as another kind" name)

let counter name =
  match Hashtbl.find_opt registry name with
  | Some (Counter c) -> c
  | Some _ -> kind_clash name
  | None ->
      let c = { c_v = 0 } in
      Hashtbl.replace registry name (Counter c);
      c

let incr ?(by = 1) c = c.c_v <- c.c_v + by
let value c = c.c_v

let gauge name =
  match Hashtbl.find_opt registry name with
  | Some (Gauge g) -> g
  | Some _ -> kind_clash name
  | None ->
      let g = { g_v = 0 } in
      Hashtbl.replace registry name (Gauge g);
      g

let set_gauge g v = g.g_v <- v
let gauge_value g = g.g_v

let histogram name =
  match Hashtbl.find_opt registry name with
  | Some (Histogram h) -> h
  | Some _ -> kind_clash name
  | None ->
      let h =
        { h_count = 0; h_sum = 0; h_min = 0; h_max = 0;
          h_b = Array.make hist_buckets 0 }
      in
      Hashtbl.replace registry name (Histogram h);
      h

let observe h v =
  if h.h_count = 0 then begin
    h.h_min <- v;
    h.h_max <- v
  end
  else begin
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  end;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  h.h_b.(bucket_of v) <- h.h_b.(bucket_of v) + 1

let histogram_stats h = (h.h_count, h.h_sum, h.h_min, h.h_max)

let unregister name = Hashtbl.remove registry name

(* Percentile over a raw bucket array: the upper bound of the bucket
   holding the rank, clamped to [bmax] (the caller's exact observed
   maximum, or the highest occupied bucket's bound for window deltas).
   0 when [count] is 0. *)
let percentile_from ~count ~bmax b p =
  if count <= 0 then 0
  else begin
    let p = if p < 0. then 0. else if p > 100. then 100. else p in
    let rank =
      max 1 (int_of_float (ceil (p /. 100. *. float_of_int count)))
    in
    let acc = ref 0 and i = ref 0 and found = ref bmax in
    (try
       while !i < hist_buckets do
         acc := !acc + b.(!i);
         if !acc >= rank then begin
           found := bucket_upper !i;
           raise Exit
         end;
         i := !i + 1
       done
     with Exit -> ());
    min !found bmax
  end

(* The value at or below which [p] percent of observations fall, read
   from the buckets: the upper bound of the bucket holding the rank
   (clamped to the observed max, which is exact).  0 before any
   observation. *)
let percentile h p = percentile_from ~count:h.h_count ~bmax:h.h_max h.h_b p

let stats_text () =
  let lines =
    Hashtbl.fold
      (fun name inst acc ->
        match inst with
        | Counter c -> (name, c.c_v) :: acc
        | Gauge g -> (name, g.g_v) :: acc
        | Histogram h ->
            (name ^ ".count", h.h_count)
            :: (name ^ ".sum", h.h_sum)
            :: (name ^ ".min", h.h_min)
            :: (name ^ ".max", h.h_max)
            :: acc)
      registry []
  in
  let b = Buffer.create 512 in
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s %d\n" k v))
    (List.sort compare lines);
  Buffer.contents b

let find_value name =
  match Hashtbl.find_opt registry name with
  | Some (Counter c) -> Some c.c_v
  | Some (Gauge g) -> Some g.g_v
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Request context                                                     *)

(* Request ids are allocated at scheduler submit time (one per RPC) and
   reset with the ledger, so the same scripted session allocates the
   same ids on every run. *)

let next_req = ref 0

let request_id () =
  Stdlib.incr next_req;
  !next_req

let cur_req = ref 0

(* ------------------------------------------------------------------ *)
(* Span ring                                                           *)

type span = {
  sp_name : string;
  sp_start : int;
  sp_dur : int;
  sp_depth : int;
  sp_req : int;
  sp_args : (string * string) list;
}

(* Circular buffer of completed spans; overflow drops the oldest. *)
let ring_size = 4096
let ring = Array.make ring_size None
let ring_head = ref 0  (* index of the oldest buffered span *)
let ring_len = ref 0
let ring_dropped = ref 0  (* since the last drain *)
let dropped_total = counter "trace.spans.dropped"
let depth = ref 0

let pending_spans () = !ring_len

let record sp =
  if !ring_len = ring_size then begin
    (* overwrite the oldest *)
    ring.(!ring_head) <- Some sp;
    ring_head := (!ring_head + 1) mod ring_size;
    Stdlib.incr ring_dropped;
    incr dropped_total
  end
  else begin
    ring.((!ring_head + !ring_len) mod ring_size) <- Some sp;
    Stdlib.incr ring_len
  end

let peek () =
  let spans =
    List.init !ring_len (fun i ->
        match ring.((!ring_head + i) mod ring_size) with
        | Some sp -> sp
        | None -> assert false)
  in
  (spans, !ring_dropped)

let clear_ring () =
  Array.fill ring 0 ring_size None;
  ring_head := 0;
  ring_len := 0;
  ring_dropped := 0

let drain () =
  let out = peek () in
  clear_ring ();
  out

let with_span_result name f =
  let d = !depth in
  depth := d + 1;
  let start = now_us () in
  let finish args =
    depth := d;
    record
      { sp_name = name; sp_start = start; sp_dur = now_us () - start;
        sp_depth = d; sp_req = !cur_req; sp_args = args }
  in
  match f () with
  | v, args ->
      finish args;
      v
  | exception e ->
      finish [ ("error", Printexc.to_string e) ];
      raise e

let with_span ?(args = []) name f =
  with_span_result name (fun () -> (f (), args))

let with_request ~reqid ?args name f =
  let saved = !cur_req in
  cur_req := reqid;
  match with_span ?args name f with
  | v ->
      cur_req := saved;
      v
  | exception e ->
      cur_req := saved;
      raise e

(* ------------------------------------------------------------------ *)
(* Exporter                                                            *)

let spans_text ?(dropped = 0) spans =
  let b = Buffer.create 512 in
  List.iter
    (fun sp ->
      Buffer.add_string b
        (Printf.sprintf "%d +%d %s%s" sp.sp_start sp.sp_dur
           (String.make (2 * sp.sp_depth) ' ')
           sp.sp_name);
      List.iter
        (fun (k, v) -> Buffer.add_string b (Printf.sprintf " %s=%s" k v))
        sp.sp_args;
      Buffer.add_char b '\n')
    spans;
  if dropped > 0 then
    Buffer.add_string b (Printf.sprintf "# %d spans dropped\n" dropped);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Per-request span trees                                              *)

let requests () =
  let seen = Hashtbl.create 16 in
  let spans, _ = peek () in
  List.filter_map
    (fun sp ->
      if sp.sp_req = 0 || Hashtbl.mem seen sp.sp_req then None
      else begin
        Hashtbl.add seen sp.sp_req ();
        Some sp.sp_req
      end)
    spans

let request_spans reqid =
  let spans, _ = peek () in
  let mine = List.filter (fun sp -> sp.sp_req = reqid) spans in
  (* Ring order is completion order (children before parents); sort
     into preorder — by start time, parents before children on ties. *)
  List.stable_sort
    (fun a b -> compare (a.sp_start, a.sp_depth) (b.sp_start, b.sp_depth))
    mine

let request_text reqid =
  match request_spans reqid with
  | [] -> None
  | spans -> Some (spans_text spans)

(* ------------------------------------------------------------------ *)
(* Rolling windows                                                     *)

(* Time is divided into fixed-width epochs of the logical clock;
   crossing an epoch boundary snapshots the whole registry.  A bounded
   ring of snapshots — one per recently closed slot — turns any counter
   into a per-window rate and any histogram into per-window quantiles,
   by differencing consecutive snapshots.  Nothing is recorded twice:
   windows are pure views over the registry.

   A snapshot's [sn_at] is the epoch whose *start* it represents, so
   the delta between snapshots at [a] and [b] is the activity in slots
   [a, b).  A clock jump larger than the whole window prunes every old
   snapshot — those slots have expired and are never reported. *)

let w_width = 65536
let w_slots = 16

type hsnap = { hs_count : int; hs_sum : int; hs_b : int array }
let zero_hsnap = { hs_count = 0; hs_sum = 0; hs_b = Array.make hist_buckets 0 }

type snap = {
  sn_at : int;
  sn_scalars : (string * int) list;  (* sorted by name *)
  sn_hists : (string * hsnap) list;  (* sorted by name *)
}

let w_epoch = ref 0
let w_snaps : snap list ref = ref []  (* newest first *)
let w_rolls = counter "trace.window.rolls"

let take_snap at =
  let scalars = ref [] and hists = ref [] in
  Hashtbl.iter
    (fun name inst ->
      match inst with
      | Counter c -> scalars := (name, c.c_v) :: !scalars
      | Gauge g -> scalars := (name, g.g_v) :: !scalars
      | Histogram h ->
          hists :=
            ( name,
              { hs_count = h.h_count; hs_sum = h.h_sum;
                hs_b = Array.copy h.h_b } )
            :: !hists)
    registry;
  { sn_at = at;
    sn_scalars = List.sort compare !scalars;
    sn_hists = List.sort (fun (a, _) (b, _) -> compare a b) !hists }

let window_check t =
  let e = t / w_width in
  if e > !w_epoch then begin
    let keep = e - w_slots in
    w_snaps := take_snap e :: List.filter (fun s -> s.sn_at >= keep) !w_snaps;
    w_epoch := e;
    incr w_rolls
  end

(* Consecutive snapshot pairs, oldest first. *)
let snap_pairs () =
  let rec go = function
    | a :: (b :: _ as rest) -> (a, b) :: go rest
    | _ -> []
  in
  go (List.rev !w_snaps)

let snap_scalar sn name =
  match List.assoc_opt name sn.sn_scalars with Some v -> v | None -> 0

let snap_hist sn name =
  match List.assoc_opt name sn.sn_hists with Some h -> h | None -> zero_hsnap

let window_series name =
  List.map
    (fun (a, b) -> (a.sn_at, snap_scalar b name - snap_scalar a name))
    (snap_pairs ())

let hist_delta name (a, b) =
  let ha = snap_hist a name and hb = snap_hist b name in
  let db = Array.init hist_buckets (fun i -> hb.hs_b.(i) - ha.hs_b.(i)) in
  (hb.hs_count - ha.hs_count, db)

let delta_percentile (dc, db) p =
  if dc <= 0 then 0
  else begin
    (* no exact max for a delta; clamp to the highest occupied bucket *)
    let bmax = ref 0 in
    Array.iteri (fun i v -> if v > 0 then bmax := bucket_upper i) db;
    percentile_from ~count:dc ~bmax:!bmax db p
  end

let window_quantiles name =
  List.map
    (fun pair ->
      let (dc, _) as d = hist_delta name pair in
      let a, _ = pair in
      ( a.sn_at, dc, delta_percentile d 50., delta_percentile d 95.,
        delta_percentile d 99. ))
    (snap_pairs ())

let () =
  w_snaps := [ take_snap 0 ];
  tick_hook := window_check

(* ------------------------------------------------------------------ *)
(* Prometheus-style exposition                                         *)

let sanitize_metric name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

(* The content of [/mnt/help/metrics].  Deterministic for a scripted
   session: derived only from the registry and the logical-clock window
   snapshots, never from GC or wall-clock state. *)
let metrics_text () =
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  Hashtbl.iter
    (fun name inst ->
      match inst with
      | Counter c -> counters := (name, c.c_v) :: !counters
      | Gauge g -> gauges := (name, g.g_v) :: !gauges
      | Histogram h -> hists := (name, h) :: !hists)
    registry;
  let b = Buffer.create 2048 in
  List.iter
    (fun (name, v) ->
      let n = sanitize_metric name in
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s counter\n%s_total %d\n" n n v))
    (List.sort compare !counters);
  List.iter
    (fun (name, v) ->
      let n = sanitize_metric name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n%s %d\n" n n v))
    (List.sort compare !gauges);
  List.iter
    (fun (name, h) ->
      let n = sanitize_metric name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
      let acc = ref 0 in
      Array.iteri
        (fun i c ->
          if c > 0 then begin
            acc := !acc + c;
            Buffer.add_string b
              (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" n (bucket_upper i)
                 !acc)
          end)
        h.h_b;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n h.h_count);
      Buffer.add_string b (Printf.sprintf "%s_sum %d\n" n h.h_sum);
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n h.h_count);
      (* per-window quantiles over the most recently closed slot; the
         whole-run percentiles before any slot has closed *)
      let dc, p50, p95, p99 =
        match List.rev (window_quantiles name) with
        | (_, dc, p50, p95, p99) :: _ when dc > 0 -> (dc, p50, p95, p99)
        | _ ->
            ( h.h_count, percentile h 50., percentile h 95.,
              percentile h 99. )
      in
      Buffer.add_string b (Printf.sprintf "# TYPE %s_window summary\n" n);
      Buffer.add_string b
        (Printf.sprintf "%s_window{quantile=\"0.5\"} %d\n" n p50);
      Buffer.add_string b
        (Printf.sprintf "%s_window{quantile=\"0.95\"} %d\n" n p95);
      Buffer.add_string b
        (Printf.sprintf "%s_window{quantile=\"0.99\"} %d\n" n p99);
      Buffer.add_string b (Printf.sprintf "%s_window_count %d\n" n dc))
    (List.sort (fun (a, _) (b, _) -> compare a b) !hists);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Alerts                                                              *)

(* A threshold-watch table over the ledger: each rule names a source —
   the last closed window's delta of a counter, or a percentile of a
   histogram over the last closed window — and fires when it exceeds a
   constant.  The table is fixed and evaluated only when read
   ([/mnt/help/alerts]), so a rule costs nothing until somebody cats
   the file. *)

type alert_source = Arate of string | Apct of string * float

type alert = { a_name : string; a_src : alert_source; a_thresh : int }

let alerts =
  [
    { a_name = "rpc-p99"; a_src = Apct ("nine.rpc.us", 99.);
      a_thresh = 100000 };
    { a_name = "backpressure"; a_src = Arate "nine.backpressure.stalls";
      a_thresh = 1000 };
    { a_name = "span-drops"; a_src = Arate "trace.spans.dropped";
      a_thresh = 100000 };
    (* a healthy index re-tokenizes a handful of dirty documents per
       query; a sustained storm means staleness tracking is thrashing *)
    { a_name = "index-thrash"; a_src = Arate "index.stale.reindexed";
      a_thresh = 10000 };
  ]

let render_source = function
  | Arate m -> Printf.sprintf "rate(%s)" m
  | Apct (m, p) -> Printf.sprintf "p%g(%s)" p m

let eval_alert a =
  match a.a_src with
  | Arate m -> (
      match List.rev (window_series m) with (_, d) :: _ -> d | [] -> 0)
  | Apct (m, p) -> (
      match Hashtbl.find_opt registry m with
      | Some (Histogram h) -> (
          match List.rev (snap_pairs ()) with
          | pair :: _ ->
              let (dc, _) as d = hist_delta m pair in
              if dc > 0 then delta_percentile d p else percentile h p
          | [] -> percentile h p)
      | _ -> 0)

let alerts_text () =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "# %d rules, window %dus x %d slots\n"
       (List.length alerts) w_width w_slots);
  List.iter
    (fun a ->
      let v = eval_alert a in
      Buffer.add_string b
        (Printf.sprintf "%s %s %d %s > %d\n" a.a_name
           (if v > a.a_thresh then "firing" else "ok")
           v (render_source a.a_src) a.a_thresh))
    alerts;
  Buffer.contents b

(* ------------------------------------------------------------------ *)

let zero_registry () =
  Hashtbl.iter
    (fun _ inst ->
      match inst with
      | Counter c -> c.c_v <- 0
      | Gauge g -> g.g_v <- 0
      | Histogram h ->
          h.h_count <- 0;
          h.h_sum <- 0;
          h.h_min <- 0;
          h.h_max <- 0;
          Array.fill h.h_b 0 hist_buckets 0)
    registry

let reset () =
  zero_registry ();
  clear_ring ();
  depth := 0;
  logical := 0;
  next_req := 0;
  cur_req := 0;
  w_epoch := 0;
  w_snaps := [ take_snap 0 ]

(* ------------------------------------------------------------------ *)
(* State capture                                                       *)

(* Everything a recovered session needs to continue the crashed
   session's ledger exactly: the clock position, request-id allocator,
   window epoch, every instrument's value, and the retained window
   snapshots.  The span ring is
   deliberately NOT captured — spans are debug traffic, and recovery
   restarts with an empty ring (depth 0, nothing buffered). *)

let state_version = 3

let w_hist_payload b (count, sum, mn, mx) (bkts : int array) =
  Codec.w_int b count;
  Codec.w_int b sum;
  Codec.w_int b mn;
  Codec.w_int b mx;
  (* sparse buckets: (index, occupancy) pairs *)
  let occupied = ref [] in
  Array.iteri (fun i v -> if v <> 0 then occupied := (i, v) :: !occupied) bkts;
  Codec.w_list b
    (fun b (i, v) ->
      Codec.w_int b i;
      Codec.w_int b v)
    (List.rev !occupied)

let r_hist_payload d =
  let count = Codec.r_int d in
  let sum = Codec.r_int d in
  let mn = Codec.r_int d in
  let mx = Codec.r_int d in
  let bkts = Array.make hist_buckets 0 in
  List.iter
    (fun (i, v) -> if i >= 0 && i < hist_buckets then bkts.(i) <- v)
    (Codec.r_list d (fun d ->
         let i = Codec.r_int d in
         let v = Codec.r_int d in
         (i, v)));
  ((count, sum, mn, mx), bkts)

let w_snap b sn =
  Codec.w_int b sn.sn_at;
  Codec.w_list b
    (fun b (name, v) ->
      Codec.w_str b name;
      Codec.w_int b v)
    sn.sn_scalars;
  Codec.w_list b
    (fun b (name, hs) ->
      Codec.w_str b name;
      w_hist_payload b (hs.hs_count, hs.hs_sum, 0, 0) hs.hs_b)
    sn.sn_hists

let r_snap d =
  let at = Codec.r_int d in
  let scalars =
    Codec.r_list d (fun d ->
        let name = Codec.r_str d in
        let v = Codec.r_int d in
        (name, v))
  in
  let hists =
    Codec.r_list d (fun d ->
        let name = Codec.r_str d in
        let (count, sum, _, _), bkts = r_hist_payload d in
        (name, { hs_count = count; hs_sum = sum; hs_b = bkts }))
  in
  { sn_at = at; sn_scalars = scalars; sn_hists = hists }

let save_state () =
  let b = Buffer.create 4096 in
  Codec.w_int b state_version;
  Codec.w_int b !logical;
  Codec.w_int b !next_req;
  Codec.w_int b !cur_req;
  Codec.w_int b !w_epoch;
  let entries =
    Hashtbl.fold (fun name inst acc -> (name, inst) :: acc) registry []
    |> List.sort compare
  in
  Codec.w_list b
    (fun b (name, inst) ->
      Codec.w_str b name;
      match inst with
      | Counter c ->
          Codec.w_int b 0;
          Codec.w_int b c.c_v
      | Gauge g ->
          Codec.w_int b 1;
          Codec.w_int b g.g_v
      | Histogram h ->
          Codec.w_int b 2;
          w_hist_payload b (h.h_count, h.h_sum, h.h_min, h.h_max) h.h_b)
    entries;
  Codec.w_list b w_snap !w_snaps;
  Buffer.contents b

let restore_state s =
  let d = Codec.reader s in
  let v = Codec.r_int d in
  if v <> state_version then
    invalid_arg (Printf.sprintf "Trace.restore_state: version %d" v);
  let logical' = Codec.r_int d in
  let next_req' = Codec.r_int d in
  let cur_req' = Codec.r_int d in
  let epoch' = Codec.r_int d in
  let entries =
    Codec.r_list d (fun d ->
        let name = Codec.r_str d in
        match Codec.r_int d with
        | 0 -> (name, `C (Codec.r_int d))
        | 1 -> (name, `G (Codec.r_int d))
        | 2 -> (name, `H (r_hist_payload d))
        | k ->
            invalid_arg
              (Printf.sprintf "Trace.restore_state: instrument kind %d" k))
  in
  let snaps = Codec.r_list d r_snap in
  (* decode succeeded in full; now mutate *)
  zero_registry ();
  List.iter
    (fun (name, payload) ->
      match payload with
      | `C v -> (counter name).c_v <- v
      | `G v -> (gauge name).g_v <- v
      | `H ((count, sum, mn, mx), bkts) ->
          let h = histogram name in
          h.h_count <- count;
          h.h_sum <- sum;
          h.h_min <- mn;
          h.h_max <- mx;
          Array.blit bkts 0 h.h_b 0 hist_buckets)
    entries;
  clear_ring ();
  depth := 0;
  logical := logical';
  next_req := next_req';
  cur_req := cur_req';
  w_epoch := epoch';
  w_snaps := snaps
