(* The observability layer: registry semantics, deterministic span
   logs, ring truncation, exporter well-formedness, and the paper's
   own interface — reading the ledger back as /mnt/help/stats and
   /mnt/help/trace from an in-session shell. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec f i = i + n <= m && (String.sub hay i n = needle || f (i + 1)) in
  n = 0 || f 0

(* ------------------------------------------------------------------ *)
(* Registry *)

let registry_basics () =
  Trace.reset ();
  let c = Trace.counter "test.ctr" in
  Trace.incr c;
  Trace.incr ~by:4 c;
  check_int "counter accumulates" 5 (Trace.value c);
  Trace.incr (Trace.counter "test.ctr");
  check_int "find-or-create returns the same cell" 6 (Trace.value c);
  check_bool "find_value sees it" true (Trace.find_value "test.ctr" = Some 6);
  check_bool "find_value misses politely" true
    (Trace.find_value "test.absent" = None);
  let g = Trace.gauge "test.g" in
  Trace.set_gauge g 7;
  check_int "gauge holds last value" 7 (Trace.gauge_value g);
  let h = Trace.histogram "test.h" in
  Trace.observe h 10;
  Trace.observe h 2;
  check_bool "histogram stats" true (Trace.histogram_stats h = (2, 12, 2, 10));
  check_bool "a name cannot change kind" true
    (match Trace.gauge "test.ctr" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let text = Trace.stats_text () in
  check_bool "stats_text has the counter" true (contains text "test.ctr 6");
  check_bool "stats_text expands histograms" true
    (contains text "test.h.count 2" && contains text "test.h.sum 12");
  Trace.reset ();
  check_int "reset zeroes but keeps the cell" 0 (Trace.value c)

(* ------------------------------------------------------------------ *)
(* Span ring *)

let ring_truncation () =
  Trace.reset ();
  for i = 1 to 4096 + 12 do
    Trace.with_span "tick" (fun () -> ignore i)
  done;
  check_int "ring holds only the capacity" 4096 (Trace.pending_spans ());
  let spans, dropped = Trace.drain () in
  check_int "newest spans survive" 4096 (List.length spans);
  check_int "overflow is counted" 12 dropped;
  check_bool "cumulative dropped counter" true
    (Trace.find_value "trace.spans.dropped" = Some 12);
  check_int "drain empties the ring" 0 (Trace.pending_spans ());
  let text = Trace.spans_text ~dropped spans in
  check_bool "the text export marks the truncation" true
    (contains text "# 12 spans dropped")

(* ------------------------------------------------------------------ *)
(* Determinism: the same scripted session yields the same span log. *)

let scripted_log () =
  let t = Session.boot () in
  let edit = Session.win t "/help/edit/stf" in
  Session.exec_word t edit "New";
  ignore (Rc.run t.Session.sh "echo traced");
  ignore (Session.screen t);
  let spans, dropped = Trace.drain () in
  Trace.spans_text ~dropped spans

let deterministic_sessions () =
  let a = scripted_log () in
  let b = scripted_log () in
  check_bool "the log is nonempty" true (String.length a > 0);
  check_str "identical sessions trace identically" a b

(* ------------------------------------------------------------------ *)
(* The figure-session replay is traced. *)

let replay_spans () =
  ignore (Demo.run ());
  let spans, _ = Trace.drain () in
  check_bool "the replay produced spans" true (spans <> [])

(* ------------------------------------------------------------------ *)
(* The paper's interface: cat the ledger from the session's shell. *)

let metric_lines out =
  List.filter_map
    (fun line ->
      match String.index_opt line ' ' with
      | Some i -> (
          let k = String.sub line 0 i in
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          match int_of_string_opt v with Some v -> Some (k, v) | None -> None)
      | None -> None)
    (String.split_on_char '\n' out)

let stats_over_the_mount () =
  let t = Session.boot () in
  ignore (Session.screen t);
  ignore (Session.screen t);
  (* one read through the mount first: the stats file snapshots at open,
     so the reads that fetch it are not yet in its own content *)
  ignore (Rc.run t.Session.sh "cat /mnt/help/index");
  let r = Rc.run t.Session.sh "cat /mnt/help/stats" in
  check_int "cat succeeds" 0 r.Rc.r_status;
  let m = metric_lines r.Rc.r_out in
  let nonzero key =
    check_bool (key ^ " is live") true
      (match List.assoc_opt key m with Some v -> v > 0 | None -> false)
  in
  List.iter nonzero
    [
      "help.draw.draws"; "help.draw.full"; "help.layout.hit";
      "help.layout.miss"; "nine.rpc.walk"; "nine.rpc.read"; "rc.runs";
      "vfs.walk"; "vfs.read";
    ]

let trace_over_the_mount () =
  let t = Session.boot () in
  ignore (Session.screen t);
  let r = Rc.run t.Session.sh "cat /mnt/help/trace" in
  check_int "cat succeeds" 0 r.Rc.r_status;
  check_bool "draw spans are in the log" true (contains r.Rc.r_out "help.draw");
  check_bool "exec spans are in the log" true (contains r.Rc.r_out "rc.run");
  (* reading drained the ring: a second cat sees only the spans the
     first cat itself produced (per-RPC spans and shell machinery), not
     the boot's — the draw span of [Session.screen] appears exactly
     once across the two reads *)
  let r2 = Rc.run t.Session.sh "cat /mnt/help/trace" in
  check_bool "the drain drained" false (contains r2.Rc.r_out "help.draw")

(* ------------------------------------------------------------------ *)
(* 9P per-message tallies (the aggregate ledger vs the per-link view). *)

let nine_tallies () =
  Trace.reset ();
  let ns = Vfs.create () in
  let pool = Nine.serve_mount ns "/mnt/nine" (Vfs.ramfs ns) in
  Vfs.write_file ns "/mnt/nine/f" "tally";
  check_str "read back" "tally" (Vfs.read_file ns "/mnt/nine/f");
  ignore (Vfs.readdir ns "/mnt/nine");
  let global k =
    Option.value ~default:0 (Trace.find_value ("nine.rpc." ^ k))
  in
  List.iter
    (fun k -> check_bool ("nine.rpc." ^ k ^ " tallied") true (global k > 0))
    [ "version"; "attach"; "walk"; "open"; "read"; "write"; "clunk" ];
  (* only one server has run since the reset, so the global ledger must
     equal its per-link view exactly *)
  let per_link = Nine.Pool.kind_counts pool in
  List.iter
    (fun (k, v) -> check_int ("ledger agrees on " ^ k) v (global k))
    per_link;
  let rpcs = List.fold_left (fun a (_, v) -> a + v) 0 per_link in
  let cnt, _, _, _ = Trace.histogram_stats (Trace.histogram "nine.rpc.us") in
  check_int "every rpc fed the latency histogram" rpcs cnt

(* ------------------------------------------------------------------ *)
(* Percentile edge cases *)

let percentile_edges () =
  Trace.reset ();
  let h = Trace.histogram "test.pct" in
  check_int "empty p0" 0 (Trace.percentile h 0.);
  check_int "empty p50" 0 (Trace.percentile h 50.);
  check_int "empty p100" 0 (Trace.percentile h 100.);
  Trace.observe h 7;
  check_int "single obs p0" 7 (Trace.percentile h 0.);
  check_int "single obs p50" 7 (Trace.percentile h 50.);
  check_int "single obs p100" 7 (Trace.percentile h 100.);
  Trace.observe h 1000;
  check_int "p0 is the lowest bucket" 7 (Trace.percentile h 0.);
  check_int "p100 is exact at the max" 1000 (Trace.percentile h 100.);
  check_int "out-of-range p clamps low" 7 (Trace.percentile h (-5.));
  check_int "out-of-range p clamps high" 1000 (Trace.percentile h 200.);
  let h2 = Trace.histogram "test.pct2" in
  Trace.observe h2 100;
  Trace.observe h2 101;
  let p = Trace.percentile h2 100. in
  check_bool "never understates, <=25% over" true (p >= 101 && p <= 126);
  Trace.reset ()

(* ------------------------------------------------------------------ *)
(* Rolling windows: rotation, per-slot deltas, expiry on clock jumps *)

let slot = 65536

let window_rotation () =
  Trace.reset ();
  let c = Trace.counter "test.win.c" in
  let h = Trace.histogram "test.win.h" in
  check_bool "no slot closed yet" true (Trace.window_series "test.win.c" = []);
  Trace.incr ~by:5 c;
  Trace.observe h 10;
  Trace.advance slot;
  check_bool "first slot closes on the boundary crossing" true
    (Trace.window_series "test.win.c" = [ (0, 5) ]);
  (match Trace.window_quantiles "test.win.h" with
  | [ (0, 1, p50, p95, p99) ] ->
      check_bool "slot quantiles within the bucket bound" true
        (p50 >= 10 && p50 <= 12 && p95 = p50 && p99 = p50)
  | _ -> Alcotest.fail "expected exactly one quantile slot");
  Trace.incr ~by:2 c;
  Trace.advance slot;
  check_bool "second slot carries only its own delta" true
    (Trace.window_series "test.win.c" = [ (0, 5); (1, 2) ]);
  (* a jump larger than the whole window expires every open slot *)
  Trace.advance (20 * slot);
  check_bool "all slots expired after the jump" true
    (Trace.window_series "test.win.c" = []);
  Trace.incr ~by:3 c;
  Trace.advance slot;
  (match Trace.window_series "test.win.c" with
  | [ (_, 3) ] -> ()
  | _ -> Alcotest.fail "the window restarts cleanly after the jump");
  (* rotation is also driven by plain clock readings *)
  let rolls0 =
    Option.value ~default:0 (Trace.find_value "trace.window.rolls")
  in
  for _ = 1 to slot do
    ignore (Trace.now_us ())
  done;
  let rolls1 =
    Option.value ~default:0 (Trace.find_value "trace.window.rolls")
  in
  check_bool "now_us crossings roll the window" true (rolls1 > rolls0);
  Trace.reset ()

(* ------------------------------------------------------------------ *)
(* Reset clears the windows and the request-id allocator *)

let reset_clears_observability () =
  Trace.reset ();
  Trace.incr (Trace.counter "test.reset.c");
  ignore (Trace.request_id ());
  Trace.advance (2 * slot);
  check_bool "a window slot is closed before the reset" true
    (Trace.window_series "test.reset.c" <> []);
  Trace.reset ();
  check_bool "window slots cleared" true
    (Trace.window_series "test.reset.c" = []);
  check_int "request ids restart" 1 (Trace.request_id ());
  Trace.reset ()

(* ------------------------------------------------------------------ *)
(* Alert table: the fixed rules, evaluated over the windows *)

(* the rule lines of an alerts rendering, without its header *)
let verdict_lines text =
  List.filter
    (fun l -> l <> "" && l.[0] <> '#')
    (String.split_on_char '\n' text)

let alert_table () =
  Trace.reset ();
  check_bool "the header names the window" true
    (contains (Trace.alerts_text ()) "# 4 rules, window 65536us x 16 slots\n");
  let verdicts = verdict_lines (Trace.alerts_text ()) in
  check_int "one verdict line per rule" 4 (List.length verdicts);
  check_bool "a quiet ledger fires nothing" true
    (List.for_all (fun l -> contains l " ok ") verdicts);
  (* a percentile reads the whole run before any slot closes *)
  Trace.observe (Trace.histogram "nine.rpc.us") 200_000;
  check_bool "p99 fires before any slot closes" true
    (contains (Trace.alerts_text ())
       "rpc-p99 firing 200000 p99(nine.rpc.us) > 100000\n");
  (* a rate reads the last closed slot only *)
  let stall verdict v =
    Printf.sprintf "backpressure %s %d rate(nine.backpressure.stalls) > 1000\n"
      verdict v
  in
  Trace.incr ~by:1001 (Trace.counter "nine.backpressure.stalls");
  check_bool "a rate waits for its slot to close" true
    (contains (Trace.alerts_text ()) (stall "ok" 0));
  Trace.advance slot;
  check_bool "the closed slot fires" true
    (contains (Trace.alerts_text ()) (stall "firing" 1001));
  Trace.advance slot;
  check_bool "the next quiet slot clears it" true
    (contains (Trace.alerts_text ()) (stall "ok" 0));
  Trace.reset ()

(* ------------------------------------------------------------------ *)
(* Prometheus exposition: families, buckets, per-window summaries *)

(* well-formedness: every line is a comment or `name[{labels}] value`
   with an integer value *)
let check_well_formed m =
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | Some i ->
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            check_bool ("sample line parses: " ^ line) true
              (int_of_string_opt v <> None)
        | None -> Alcotest.fail ("not a sample line: " ^ line))
    (String.split_on_char '\n' m)

let exposition_format () =
  Trace.reset ();
  Trace.incr ~by:2 (Trace.counter "test.exp.c");
  let h = Trace.histogram "test.exp.h" in
  Trace.observe h 5;
  Trace.observe h 9;
  let m = Trace.metrics_text () in
  check_bool "counter family with _total" true
    (contains m "# TYPE test_exp_c counter\ntest_exp_c_total 2");
  check_bool "histogram family" true (contains m "# TYPE test_exp_h histogram");
  check_bool "+Inf bucket carries the count" true
    (contains m "test_exp_h_bucket{le=\"+Inf\"} 2");
  check_bool "sum and count lines" true
    (contains m "test_exp_h_sum 14" && contains m "test_exp_h_count 2");
  check_bool "window summary family" true
    (contains m "test_exp_h_window{quantile=\"0.99\"}");
  check_well_formed m;
  Trace.reset ()

(* ------------------------------------------------------------------ *)
(* Two identically scripted sessions expose byte-identical metrics. *)

let scripted_metrics () =
  let t = Session.boot () in
  let edit = Session.win t "/help/edit/stf" in
  Session.exec_word t edit "New";
  ignore (Rc.run t.Session.sh "echo traced");
  ignore (Session.screen t);
  let r = Rc.run t.Session.sh "cat /mnt/help/metrics" in
  check_int "cat metrics succeeds" 0 r.Rc.r_status;
  r.Rc.r_out

let deterministic_metrics () =
  let a = scripted_metrics () in
  let b = scripted_metrics () in
  check_bool "the exposition is nonempty" true (String.length a > 0);
  check_str "identical sessions expose identical metrics" a b

(* ------------------------------------------------------------------ *)
(* Per-request trees and the non-destructive peek, over the mount. *)

let request_trees_over_the_mount () =
  let t = Session.boot () in
  ignore (Rc.run t.Session.sh "cat /mnt/help/index");
  let ids = Trace.requests () in
  check_bool "requests are buffered" true (ids <> []);
  let id = List.nth ids (List.length ids - 1) in
  let r = Rc.run t.Session.sh (Printf.sprintf "cat /mnt/help/trace/%d" id) in
  check_int "request file reads" 0 r.Rc.r_status;
  check_bool "it holds the request's rpc span" true (contains r.Rc.r_out "rpc.");
  check_bool "it names the request" true
    (contains r.Rc.r_out (Printf.sprintf "req=%d" id));
  let bad = Rc.run t.Session.sh "cat /mnt/help/trace/999999" in
  check_bool "an unknown request id fails the walk" true
    (bad.Rc.r_status <> 0);
  let p0 = Trace.pending_spans () in
  let l = Rc.run t.Session.sh "cat /mnt/help/trace/last" in
  check_int "peek succeeds" 0 l.Rc.r_status;
  check_bool "peek does not drain" true (Trace.pending_spans () >= p0);
  check_bool "peek shows the spans" true (contains l.Rc.r_out "rpc.")

(* The observability files after the figure replay: the exposition is
   well-formed with its latency and window families, the alert table
   serves a verdict per rule, and trace/last peeks while trace
   drains. *)

let observability_after_replay () =
  let sh = (Demo.run ~keep_screens:false ()).Demo.session.Session.sh in
  let cat file =
    let r = Rc.run sh ("cat /mnt/help/" ^ file) in
    check_int ("cat " ^ file ^ " succeeds") 0 r.Rc.r_status;
    r.Rc.r_out
  in
  let metrics = cat "metrics" in
  check_well_formed metrics;
  List.iter
    (fun family ->
      check_bool ("metrics exposes " ^ family) true (contains metrics family))
    [
      "nine_rpc_us_bucket{le=";
      "nine_rpc_us_window{quantile=\"0.99\"}";
      "trace_window_rolls_total";
    ];
  let verdicts = verdict_lines (cat "alerts") in
  check_int "alerts serves one line per rule" 4 (List.length verdicts);
  check_bool "every alert line carries a verdict" true
    (List.for_all
       (fun l -> contains l " ok " || contains l " firing ")
       verdicts);
  (* a marker span planted now survives two peeks, appears in the
     drain, and is then gone *)
  Trace.with_span "obs.marker" (fun () -> ());
  let peek1 = cat "trace/last" in
  let peek2 = cat "trace/last" in
  check_bool "trace/last peeks without draining" true
    (contains peek1 "obs.marker" && contains peek2 "obs.marker");
  check_bool "cat trace drains the marker" true
    (contains (cat "trace") "obs.marker");
  check_bool "the drain drained" false
    (contains (cat "trace/last") "obs.marker")

let () =
  Alcotest.run "trace"
    [
      ( "registry",
        [
          Alcotest.test_case "counters, gauges, histograms" `Quick
            registry_basics;
          Alcotest.test_case "percentile edge cases" `Quick percentile_edges;
        ] );
      ( "windows",
        [
          Alcotest.test_case "rotation, deltas, expiry on jumps" `Quick
            window_rotation;
        ] );
      ( "alerts",
        [
          Alcotest.test_case "p99 and rate rules fire and clear" `Quick
            alert_table;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "prometheus families and window summaries"
            `Quick exposition_format;
        ] );
      ( "reset",
        [
          Alcotest.test_case "clears windows and request ids" `Quick
            reset_clears_observability;
        ] );
      ( "spans",
        [
          Alcotest.test_case "ring truncation marks dropped spans" `Quick
            ring_truncation;
          Alcotest.test_case "scripted sessions trace deterministically"
            `Quick deterministic_sessions;
          Alcotest.test_case "the figure replay produces spans" `Quick
            replay_spans;
        ] );
      ( "interface",
        [
          Alcotest.test_case "cat /mnt/help/stats shows the ledger" `Quick
            stats_over_the_mount;
          Alcotest.test_case "cat /mnt/help/trace drains the ring" `Quick
            trace_over_the_mount;
          Alcotest.test_case "cat /mnt/help/metrics is byte-deterministic"
            `Quick deterministic_metrics;
          Alcotest.test_case "request trees and trace/last over the mount"
            `Quick request_trees_over_the_mount;
          Alcotest.test_case "metrics, alerts and trace/last after the replay"
            `Quick observability_after_replay;
        ] );
      ( "nine",
        [
          Alcotest.test_case "per-message tallies feed the registry" `Quick
            nine_tallies;
        ] );
    ]
