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
  let old = Trace.ring_capacity () in
  Trace.set_ring_capacity 8;
  for i = 1 to 20 do
    Trace.with_span "tick" (fun () -> ignore i)
  done;
  check_int "ring holds only the capacity" 8 (Trace.pending_spans ());
  let spans, dropped = Trace.drain () in
  check_int "newest spans survive" 8 (List.length spans);
  check_int "overflow is counted" 12 dropped;
  check_bool "cumulative dropped counter" true
    (Trace.find_value "trace.spans.dropped" = Some 12);
  check_int "drain empties the ring" 0 (Trace.pending_spans ());
  let text = Trace.spans_text ~dropped spans in
  check_bool "the text export marks the truncation" true
    (contains text "# 12 spans dropped");
  Trace.set_ring_capacity old

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

let window_rotation () =
  Trace.reset ();
  Trace.window_configure ~width:100 ~slots:4 ();
  let c = Trace.counter "test.win.c" in
  let h = Trace.histogram "test.win.h" in
  check_bool "no slot closed yet" true (Trace.window_series "test.win.c" = []);
  Trace.incr ~by:5 c;
  Trace.observe h 10;
  Trace.advance 120;
  check_bool "first slot closes on the boundary crossing" true
    (Trace.window_series "test.win.c" = [ (0, 5) ]);
  (match Trace.window_quantiles "test.win.h" with
  | [ (0, 1, p50, p95, p99) ] ->
      check_bool "slot quantiles within the bucket bound" true
        (p50 >= 10 && p50 <= 12 && p95 = p50 && p99 = p50)
  | _ -> Alcotest.fail "expected exactly one quantile slot");
  Trace.incr ~by:2 c;
  Trace.advance 100;
  check_bool "second slot carries only its own delta" true
    (Trace.window_series "test.win.c" = [ (0, 5); (1, 2) ]);
  (* a jump larger than the whole window expires every open slot *)
  Trace.advance 10_000;
  check_bool "all slots expired after the jump" true
    (Trace.window_series "test.win.c" = []);
  Trace.incr ~by:3 c;
  Trace.advance 100;
  (match Trace.window_series "test.win.c" with
  | [ (_, 3) ] -> ()
  | _ -> Alcotest.fail "the window restarts cleanly after the jump");
  (* rotation is also driven by plain clock readings *)
  let rolls0 =
    Option.value ~default:0 (Trace.find_value "trace.window.rolls")
  in
  for _ = 1 to 250 do
    ignore (Trace.now_us ())
  done;
  let rolls1 =
    Option.value ~default:0 (Trace.find_value "trace.window.rolls")
  in
  check_bool "now_us crossings roll the window" true (rolls1 > rolls0);
  Trace.reset ()

(* ------------------------------------------------------------------ *)
(* Head sampling: deterministic, seed- and rate-sensitive *)

let sampler_determinism () =
  Trace.reset ();
  let verdicts seed rate =
    Trace.set_sampling ~seed ~rate ();
    List.init 1000 (fun i -> Trace.sample (i + 1))
  in
  let a = verdicts 3 16 in
  check_bool "same seed, same verdicts" true (verdicts 3 16 = a);
  let hits l = List.length (List.filter Fun.id l) in
  let n = hits a in
  check_bool "roughly one in sixteen" true (n > 20 && n < 140);
  check_bool "a different seed samples a different set" true
    (verdicts 4 16 <> a);
  Trace.set_sampling ~rate:0 ();
  check_bool "rate 0 drops everything" false (Trace.sample 5);
  Trace.set_sampling ~rate:1 ();
  check_bool "rate 1 keeps everything" true (Trace.sample 5);
  Trace.reset ()

(* ------------------------------------------------------------------ *)
(* Reset clears the new observability state (windows, sampler, alerts) *)

let reset_clears_observability () =
  Trace.reset ();
  Trace.set_sampling ~seed:9 ~rate:64 ();
  Trace.window_configure ~width:128 ~slots:4 ();
  (match Trace.install_alert "t: value(test.ctr) > 0" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  ignore (Trace.request_id ());
  Trace.advance 1000;
  check_bool "state is set before the reset" true
    (Trace.sampling () = (9, 64) && Trace.alert_rules () <> []);
  Trace.reset ();
  check_bool "sampling back to defaults" true (Trace.sampling () = (0, 1));
  check_int "window width restored" 65536 (Trace.window_width ());
  check_int "window slots restored" 16 (Trace.window_slots ());
  check_bool "alert table cleared" true (Trace.alert_rules () = []);
  check_bool "window slots cleared" true
    (Trace.window_series "nine.rpc.read" = []);
  check_int "request ids restart" 1 (Trace.request_id ());
  Trace.reset ()

(* ------------------------------------------------------------------ *)
(* Alert table: parsing, round-tripping, evaluation *)

let alert_table () =
  Trace.reset ();
  let ok l = match Trace.parse_alert l with Ok _ -> true | Error _ -> false in
  check_bool "value rule parses" true (ok "a: value(x.y) > 3");
  check_bool "rate rule parses" true (ok "a: rate(x.y) <= 3");
  check_bool "percentile rule parses" true (ok "a: p99(x.y) >= 10");
  check_bool "missing colon rejected" false (ok "a value(x) > 3");
  check_bool "unknown op rejected" false (ok "a: value(x) ~ 3");
  check_bool "bad threshold rejected" false (ok "a: value(x) > lots");
  check_bool "bad percentile rejected" false (ok "a: p200(x) > 3");
  check_bool "unknown source rejected" false (ok "a: max(x) > 3");
  Trace.install_default_alerts ();
  List.iter
    (fun l -> check_bool ("rendered rule round-trips: " ^ l) true (ok l))
    (Trace.alert_rules ());
  let c = Trace.counter "test.alert.c" in
  Trace.incr ~by:5 c;
  ignore (Trace.install_alert "watch: value(test.alert.c) > 3");
  check_bool "a crossed threshold fires" true
    (contains (Trace.alerts_text ()) "watch firing 5");
  ignore (Trace.install_alert "watch: value(test.alert.c) > 9");
  check_bool "same-name install replaces the rule" true
    (contains (Trace.alerts_text ()) "watch ok 5");
  Trace.reset ()

(* ------------------------------------------------------------------ *)
(* Prometheus exposition: families, buckets, per-window summaries *)

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
  (* well-formedness: every line is a comment or `name[{labels}] value`
     with an integer value *)
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | Some i ->
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            check_bool ("sample line parses: " ^ line) true
              (int_of_string_opt v <> None)
        | None -> Alcotest.fail ("not a sample line: " ^ line))
    (String.split_on_char '\n' m);
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
  (* boot leaves sampling at rate 1: every request is tagged *)
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

(* The scheduler counts every sampling verdict. *)

let sampling_counters () =
  Trace.reset ();
  Trace.set_sampling ~seed:1 ~rate:4 ();
  let ns = Vfs.create () in
  ignore (Nine.serve_mount ns "/mnt/nine" (Vfs.ramfs ns));
  Vfs.write_file ns "/mnt/nine/f" "x";
  for _ = 1 to 20 do
    ignore (Vfs.read_file ns "/mnt/nine/f")
  done;
  let v k = Option.value ~default:0 (Trace.find_value k) in
  let sampled = v "nine.trace.sampled" and dropped = v "nine.trace.dropped" in
  check_bool "verdicts were counted" true (sampled > 0 && dropped > 0);
  check_bool "every request got a verdict" true
    (sampled + dropped > 20);
  (* only sampled requests leave tagged spans *)
  let tagged = Trace.requests () in
  check_bool "some requests were traced" true (tagged <> []);
  check_bool "fewer trees than requests" true
    (List.length tagged < sampled + dropped);
  Trace.reset ()

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
      ( "sampling",
        [
          Alcotest.test_case "deterministic seeded head sampling" `Quick
            sampler_determinism;
          Alcotest.test_case "the scheduler counts every verdict" `Quick
            sampling_counters;
        ] );
      ( "alerts",
        [
          Alcotest.test_case "parse, round-trip, evaluate" `Quick alert_table;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "prometheus families and window summaries"
            `Quick exposition_format;
        ] );
      ( "reset",
        [
          Alcotest.test_case "clears windows, sampler and alerts" `Quick
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
        ] );
      ( "nine",
        [
          Alcotest.test_case "per-message tallies feed the registry" `Quick
            nine_tallies;
        ] );
    ]
