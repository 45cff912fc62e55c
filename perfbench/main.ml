(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Sets the workload up again and again for [setup_seconds] (setup_s is
   a median of those set-ups), warms it, then runs its closed loop for S seconds of wall clock and prints
   every end-to-end metric.  With --trace 1 it runs the loop untraced
   for S/2 seconds and traced for S/2, and prints the per-layer
   profile, the unattributed remainder and the tracing overhead
   instead.  The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

   Medians and rates are taken over the run's quietest stretches, and
   the 90th percentile over the whole run (see [segment_s]).

   The program runs with its boot defaults (trace sampling rate 1, the
   logical trace clock); the benchmark never changes either. *)

let workloads =
  [ Bugfix.workload; Fanin.workload; Corpus_load.workload; Recover.workload ]

(* A seed kept out of every tuning run, for verifying later claims. *)
let held_back_seed = 7919

(* Set-up repeats, each time from scratch, for this many seconds,
   measured like the loop below. *)
let setup_seconds = 5.

(* The loop is cut into segments of [segment_s] of wall time.  On a
   shared machine the program runs up to half again slower while other
   work shares its core, in stretches of half a second to a minute.  So
   medians and the rate are taken over the [kept_share] of segments in
   which the unit of work ran fastest, and higher percentiles over the
   whole run, whose tail holds those stretches in every run. *)
let segment_s = 0.25
let kept_share = 0.1

let usage () =
  prerr_endline
    "usage: main.exe --workload (bugfix|fanin|corpus|recover) --seed N --seconds S \
     --trace 0|1";
  exit 2

let args () =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let a = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k a with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let w =
    match List.find_opt (fun w -> w.Workload.name = get "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let trace = int "trace" in
  if trace <> 0 && trace <> 1 then usage ();
  (w, int "seed", int "seconds", trace = 1)

(* The state of a run at a segment's end. *)
type mark = { at_s : float; (* measured seconds *) op_n : int; aux_n : int; detail_n : int }

type measured = {
  run : Workload.run;
  wall_s : float;  (* measured loop time, checks and probes excluded *)
  minor_words : float;
  marks : mark array;  (* the start, then each segment's end *)
  fast : int list;  (* the segments kept for medians and the rate *)
}

(* Run [step] until [seconds] of wall clock have passed. *)
let loop step ~seconds ~traced =
  Prof.reset ();
  Prof.Counters.clear ();
  Gc.compact ();
  let r = Workload.new_run () in
  Prof.on := traced;
  let w0 = Gc.minor_words () in
  let t0 = Prof.now_ns () in
  let segments = max 1 (int_of_float (seconds /. segment_s)) in
  let seg = int_of_float (seconds *. 1e9) / segments in
  let mark now =
    {
      at_s = float_of_int (now - t0 - !Prof.paused) /. 1e9;
      op_n = r.op.n;
      aux_n = r.aux.n;
      detail_n = r.detail.n;
    }
  in
  let marks = ref [ mark t0 ] and k = ref 1 in
  while !k <= segments do
    step r;
    let now = Prof.now_ns () in
    (* an iteration longer than a segment leaves empty segments *)
    while !k <= segments && now - t0 >= !k * seg do
      marks := mark now :: !marks;
      incr k
    done
  done;
  Prof.on := false;
  let marks = Array.of_list (List.rev !marks) in
  let p50 k = Workload.Samples.percentile r.op ~lo:marks.(k).op_n ~hi:marks.(k + 1).op_n 50. in
  let by_speed =
    List.sort compare
      (List.filter
         (fun (v, _) -> not (Float.is_nan v))
         (List.init segments (fun k -> (p50 k, k))))
  in
  let kept = max 1 (int_of_float (kept_share *. float_of_int (List.length by_speed))) in
  {
    run = r;
    wall_s = marks.(segments).at_s;
    minor_words = Gc.minor_words () -. w0;
    marks;
    fast = List.filteri (fun i _ -> i < kept) (List.map snd by_speed);
  }

(* The samples of the whole run, or of the fast segments only. *)
let samples ?(fast = false) m which =
  let s, n =
    match which with
    | `Op -> (m.run.op, fun k -> m.marks.(k).op_n)
    | `Aux -> (m.run.aux, fun k -> m.marks.(k).aux_n)
    | `Detail -> (m.run.detail, fun k -> m.marks.(k).detail_n)
  in
  if not fast then s
  else
    Workload.Samples.of_array
      (Array.concat (List.map (fun k -> Array.sub s.a (n k) (n (k + 1) - n k)) m.fast))

(* A median or lower percentile over the fast segments, a higher one
   over the whole run, with the samples it was taken from. *)
let pct_of m which p =
  let s = samples ~fast:(p <= 50.) m which in
  (Workload.Samples.percentile s ~lo:0 ~hi:s.n p, s)

let pct m which p = fst (pct_of m which p)

(* units of work per measured second in the fast segments *)
let rate m =
  let ops, secs =
    List.fold_left
      (fun (o, t) k ->
        (o + m.marks.(k + 1).op_n - m.marks.(k).op_n, t +. m.marks.(k + 1).at_s -. m.marks.(k).at_s))
      (0, 0.) m.fast
  in
  float_of_int ops /. secs

let end_to_end ~setup_s m =
  [
    ("setup_s", setup_s, "s");
    ("op_ms_p50", pct m `Op 50., "ms");
    ("op_ms_p90", pct m `Op 90., "ms");
    ("aux_ms_p50", pct m `Aux 50., "ms");
    ("ops_per_s", rate m, "1/s");
  ]

let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The per-layer metrics of a traced loop; every workload reports all
   of them, so a layer a workload bypasses reads 0. *)
let layers =
  [ "help"; "draw"; "rc"; "nine"; "help_srv"; "index"; "regexp"; "cbr"; "vfs"; "session"; "wal" ]

let per_layer ~untraced m =
  let total = int_of_float (m.wall_s *. 1e9) in
  let ops = m.run.op.n in
  let c = Prof.Counters.get in
  let hits h m = frac (c h) (c h + c m) in
  let batches, batched = Prof.Counters.batches () in
  List.map (fun l -> (l ^ ".self_frac", frac (Prof.layer_self l) total, "frac")) layers
  @ [
      ( "unattributed_frac",
        frac (total - !Prof.top + Prof.layer_self "unattributed") total,
        "frac" );
      ("nine.rpcs_per_op", frac (Prof.Counters.rpcs ()) ops, "count");
      ("nine.rpcs_per_batch", frac batched batches, "count");
      ("rc.runs_per_op", frac (c "rc.runs") ops, "count");
      ("help.layout_hit_frac", hits "help.layout.hit" "help.layout.miss", "frac");
      ("draw.skip_frac", hits "help.draw.clean" "help.draw.wins", "frac");
      ("cbr.unit_hit_frac", hits "cbr.unit.hit" "cbr.unit.miss", "frac");
      ("regexp.compile_hit_frac", hits "regexp.compile.hit" "regexp.compile.miss", "frac");
      ("index.candidate_frac", hits "index.query.candidates" "index.query.skipped_docs", "frac");
      ("index.fallback_frac", frac (Prof.tallied "grep.fallback") (Prof.tallied "grep"), "frac");
      ( "index.reindexed_per_edit",
        frac (c "index.stale.reindexed") (Prof.tallied "edit"),
        "count" );
      ( "wal.new_bytes_frac",
        frac (Prof.tallied "wal.new_bytes") (Prof.tallied "wal.total_bytes"),
        "frac" );
      ("gc.minor_words_per_op", m.minor_words /. float_of_int (max 1 ops), "count");
      ( "trace.overhead_frac",
        (pct m `Op 50. /. pct untraced `Op 50.) -. 1.,
        "frac" );
    ]

let print_metric (name, v, unit) = Printf.printf "  %-26s %14.6f %s\n" name v unit

let print_named (w : Workload.t) m =
  List.iter
    (fun (name, which, p, scale, unit) ->
      let v, s = pct_of m which p in
      Printf.printf "  %-26s %14.6f %-4s (p%g of %d samples, %d beyond it)\n" name (v *. scale)
        unit p s.n
        (Workload.Samples.beyond ~lo:0 ~hi:s.n p))
    w.Workload.named;
  if m.run.rpcs > 0 then print_metric ("rpcs_per_s", float_of_int m.run.rpcs /. m.wall_s, "1/s")

let print_profile m =
  let total = m.wall_s *. 1e9 in
  let ops = float_of_int (max 1 m.run.op.n) in
  Printf.printf "  %-22s %-12s %9s %12s %12s %8s\n" "region" "layer" "calls" "us/call"
    "self us/op" "share";
  List.iter
    (fun (name, r) ->
      Printf.printf "  %-22s %-12s %9d %12.3f %12.3f %8.4f\n" name r.Prof.layer r.Prof.calls
        (float_of_int r.Prof.total /. 1e3 /. float_of_int (max 1 r.Prof.calls))
        (float_of_int r.Prof.self /. 1e3 /. ops)
        (float_of_int r.Prof.self /. total))
    (Prof.used_regions ());
  let outside = total -. float_of_int !Prof.top in
  Printf.printf "  %-22s %-12s %9s %12s %12.3f %8.4f\n" "(outside any region)" "unattributed" ""
    "" (outside /. 1e3 /. ops) (outside /. total)

let json ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (num v) u)
          metrics))

let report label m =
  let r = m.run in
  Printf.printf "%s: %d attempted, %d failed (failed_frac %g), %.3f s measured\n" label
    r.Workload.attempted r.Workload.failed
    (frac r.Workload.failed r.Workload.attempted)
    m.wall_s

let () =
  let w, seed, seconds, traced = args () in
  Printf.printf "perfbench: workload %s, seed %d, %d s, trace %d (held-back seed: %d)\n%!"
    w.Workload.name seed seconds (Bool.to_int traced) held_back_seed;
  let make = w.Workload.setup ~seed in
  let inst = ref None in
  let setups =
    loop ~seconds:setup_seconds ~traced:false (fun r ->
        inst := None;
        Gc.compact ();
        (* checks made during set-up are paused, as in the loop *)
        let p0 = !Prof.paused in
        let i, ns = Prof.elapsed make in
        inst := Some i;
        Workload.Samples.add r.op (float_of_int (ns - (!Prof.paused - p0)) /. 1e6))
  in
  let inst = Option.get !inst in
  let run ~seconds ~traced = loop (inst.Workload.iterate ~traced) ~seconds ~traced in
  let setup_s = pct setups `Op 50. /. 1e3 in
  Printf.printf "set-up: %d times, median %.6f s over the %d in the fastest segments\n"
    setups.run.op.n setup_s
    (samples ~fast:true setups `Op).n;
  Printf.printf "op sequence digest: %s\n" inst.Workload.digest;
  Printf.printf "op: %s; aux: %s\n%!" w.Workload.op_name w.Workload.aux_name;
  (* warm-up: fill caches and finish lazy set-up before timing *)
  ignore (run ~seconds:(Float.min 1. (float_of_int seconds /. 10.)) ~traced:false);
  if not traced then begin
    let m = run ~seconds:(float_of_int seconds) ~traced:false in
    report "run" m;
    let metrics = end_to_end ~setup_s m in
    List.iter print_metric metrics;
    print_named w m;
    let r = m.run in
    let segments = Array.length m.marks - 1 in
    Printf.printf "  op_ms_p50 of each tenth of the run:%s\n"
      (String.concat ""
         (List.init 10 (fun k ->
              Printf.sprintf " %.4g"
                (Workload.Samples.percentile r.op
                   ~lo:m.marks.(k * segments / 10).op_n
                   ~hi:m.marks.((k + 1) * segments / 10).op_n 50.))));
    print_endline (json ~correct:(r.failed = 0) ~attempted:r.attempted ~failed:r.failed metrics)
  end
  else begin
    let half = float_of_int seconds /. 2. in
    let u = run ~seconds:half ~traced:false in
    let m = run ~seconds:half ~traced:true in
    report "untraced" u;
    report "traced" m;
    Printf.printf "per-layer profile (wall clock, traced half):\n";
    print_profile m;
    let metrics = per_layer ~untraced:u m in
    Printf.printf "per-layer metrics:\n";
    List.iter print_metric metrics;
    Printf.printf "tracing overhead (untraced -> traced):\n";
    List.iter2
      (fun (n, a, unit) (_, b, _) ->
        if n <> "setup_s" then
          Printf.printf "  %-26s %14.6f -> %14.6f %-4s (%+.1f%%)\n" n a b unit
            ((b /. a -. 1.) *. 100.))
      (end_to_end ~setup_s u) (end_to_end ~setup_s m);
    let failed = u.run.failed + m.run.failed in
    print_endline
      (json ~correct:(failed = 0) ~attempted:(u.run.attempted + m.run.attempted) ~failed metrics)
  end
