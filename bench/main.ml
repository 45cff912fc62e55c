(* The experiment harness: one section per figure/claim of the paper's
   evaluation (see DESIGN.md's experiment index), then the bechamel
   microbenchmark suite for the responsiveness claim.

   dune exec bench/main.exe                  all experiments + microbenches
   dune exec bench/main.exe -- quick         experiments only
   dune exec bench/main.exe -- search-smoke  the search timing gate
   dune exec bench/main.exe -- gc-smoke      the allocation gate *)

let section id title =
  Printf.printf "\n%s\n%s — %s\n%s\n" (String.make 78 '=') id title
    (String.make 78 '=')

let row fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* Machine-readable ledger (--json <path>)                             *)

(* Median, interquartile range and count of repeated readings. *)
type spread = { median : float; iqr : float; n : int }

let spread readings =
  let a = Array.of_list readings in
  Array.sort compare a;
  let n = Array.length a in
  (* the [p] quantile, interpolating between order statistics *)
  let q p =
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i + 1 < n then a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))
    else a.(i)
  in
  { median = q 0.5; iqr = q 0.75 -. q 0.25; n }

(* Collected as the sections run; written at exit so the perf
   trajectory can be tracked across changes without scraping stdout. *)
let j_e7 : (string * float) list ref = ref []  (* ns per operation *)
let j_cbr : (string * float) list ref = ref []  (* C front-end figures *)
let j_e10 : (string * spread) list ref = ref []  (* processor milliseconds *)
let j_e11 : (string * float) list ref = ref []  (* search ns/op + ratios *)
let j_e12 : (string * float) list ref = ref []  (* pool load figures *)
let j_e13 : (string * float) list ref = ref []  (* serving-core figures *)
let j_e14 : (string * float) list ref = ref []  (* indexed-search figures *)
let j_e15 : (string * float) list ref = ref []  (* durability figures *)
let j_e16 : (string * float) list ref = ref []  (* guide/manual figures *)

let j7 name v = j_e7 := (name, v) :: !j_e7
let jcbr name v = j_cbr := (name, v) :: !j_cbr
let j10 name v = j_e10 := (name, v) :: !j_e10
let j11 name v = j_e11 := (name, v) :: !j_e11
let j12 name v = j_e12 := (name, v) :: !j_e12
let j13 name v = j_e13 := (name, v) :: !j_e13
let j14 name v = j_e14 := (name, v) :: !j_e14
let j15 name v = j_e15 := (name, v) :: !j_e15
let j16 name v = j_e16 := (name, v) :: !j_e16

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json path =
  let oc = open_out path in
  let table ?(fmt = format_of_string "%.3f") entries =
    String.concat ",\n"
      (List.map
         (fun (k, v) ->
           Printf.sprintf "    \"%s\": %s" (json_escape k)
             (Printf.sprintf fmt v))
         entries)
  in
  let spreads entries =
    String.concat ",\n"
      (List.map
         (fun (k, { median; iqr; n }) ->
           Printf.sprintf
             "    \"%s\": { \"median\": %.3f, \"iqr\": %.3f, \"n\": %d }"
             (json_escape k) median iqr n)
         entries)
  in
  Printf.fprintf oc
    "{\n  \"schema\": \"help-bench-12\",\n  \"e7_ns_per_op\": {\n%s\n  },\n  \
     \"cbr\": {\n%s\n  },\n  \"e10_processor_ms\": {\n%s\n  },\n  \
     \"search\": {\n%s\n  },\n  \
     \"pool\": {\n%s\n  },\n  \"e13\": {\n%s\n  },\n  \
     \"index\": {\n%s\n  },\n  \"wal\": {\n%s\n  },\n  \
     \"guide\": {\n%s\n  }\n}\n"
    (table (List.rev !j_e7))
    (table ~fmt:(format_of_string "%.1f") (List.rev !j_cbr))
    (spreads (List.rev !j_e10))
    (table (List.rev !j_e11))
    (table (List.rev !j_e12))
    (table (List.rev !j_e13))
    (table (List.rev !j_e14))
    (table (List.rev !j_e15))
    (table ~fmt:(format_of_string "%.1f") (List.rev !j_e16));
  close_out oc;
  Printf.printf
    "\nwrote %s (%d e7 rows, %d cbr rows, %d e10 rows, %d search rows, %d \
     pool rows, %d e13 rows, %d index rows, %d wal rows, %d guide rows)\n"
    path (List.length !j_e7) (List.length !j_cbr) (List.length !j_e10)
    (List.length !j_e11)
    (List.length !j_e12) (List.length !j_e13) (List.length !j_e14)
    (List.length !j_e15) (List.length !j_e16)

(* ------------------------------------------------------------------ *)
(* E1: the interaction ledger of the worked example                    *)

let e1_demo () =
  section "E1" "interaction ledger of the worked example (figures 4-12)";
  let o = Demo.run ~keep_screens:false () in
  row "%-28s %8s %8s %8s %10s %12s\n" "step" "clicks" "keys" "travel"
    "commands" "connectivity";
  let total =
    List.fold_left
      (fun acc (s : Demo.step) ->
        row "%-28s %8d %8d %8d %10d %12d\n" s.s_label s.s_counts.Metrics.clicks
          s.s_counts.Metrics.keys s.s_counts.Metrics.travel
          s.s_counts.Metrics.execs s.s_connectivity;
        Metrics.add acc s.s_counts)
      Metrics.zero o.Demo.steps
  in
  row "%-28s %8d %8d %8d %10d\n" "TOTAL" total.Metrics.clicks
    total.Metrics.keys total.Metrics.travel total.Metrics.execs;
  row "paper: \"Through this entire demo I haven't yet touched the keyboard.\"\n";
  row "measured keystrokes: %d  %s\n" total.Metrics.keys
    (if total.Metrics.keys = 0 then "(reproduced)" else "(NOT reproduced)");
  o

(* ------------------------------------------------------------------ *)
(* E2: interaction cost against the baselines                          *)

(* help's per-task gesture cost, as the event machinery implements it
   (and as the measured demo confirms): middle-click a visible word = 1
   click; point+act = 2; sweep+chord = 2; Put!/mk = 1. *)
let help_cost = function
  | Baseline.Execute_word _ -> { Baseline.c_clicks = 1; c_keys = 0; c_travel = 8 }
  | Baseline.Point_and_execute _ -> { c_clicks = 2; c_keys = 0; c_travel = 16 }
  | Baseline.Open_at _ -> { c_clicks = 2; c_keys = 0; c_travel = 16 }
  | Baseline.Sweep_and_cut _ -> { c_clicks = 2; c_keys = 0; c_travel = 10 }
  | Baseline.Save_file _ -> { c_clicks = 1; c_keys = 0; c_travel = 8 }
  | Baseline.Type_text s -> { c_clicks = 0; c_keys = String.length s; c_travel = 0 }

let e2_costs (demo : Demo.outcome) =
  section "E2" "interaction cost: help vs pop-up WM vs typed shell";
  row "%-24s %14s %14s %14s\n" "task" "help" "popup-wm" "typed-shell";
  row "%-24s %14s %14s %14s\n" "" "clicks/keys" "clicks/keys" "clicks/keys";
  let tot = ref (Baseline.zero, Baseline.zero, Baseline.zero) in
  List.iter
    (fun (name, task) ->
      let h = help_cost task in
      let p = Baseline.cost Baseline.Popup_wm task in
      let s = Baseline.cost Baseline.Typed_shell task in
      let th, tp, ts = !tot in
      tot := (Baseline.add th h, Baseline.add tp p, Baseline.add ts s);
      row "%-24s %10d/%-4d %10d/%-4d %10d/%-4d\n" name h.Baseline.c_clicks
        h.c_keys p.Baseline.c_clicks p.c_keys s.Baseline.c_clicks s.c_keys)
    Baseline.demo_tasks;
  let th, tp, ts = !tot in
  row "%-24s %10d/%-4d %10d/%-4d %10d/%-4d\n" "TOTAL" th.Baseline.c_clicks
    th.c_keys tp.Baseline.c_clicks tp.c_keys ts.Baseline.c_clicks ts.c_keys;
  let measured =
    List.fold_left
      (fun acc (s : Demo.step) -> Metrics.add acc s.s_counts)
      Metrics.zero demo.Demo.steps
  in
  row "cross-check: live replay measured %d clicks, %d keys (model: %d clicks;\n"
    measured.Metrics.clicks measured.Metrics.keys th.Baseline.c_clicks;
  row "the replay adds one window drag and a Close!, absent from the task list)\n";
  row "shape: help wins on keys everywhere (0 vs %d) and on clicks vs popup (%d vs %d)\n"
    ts.Baseline.c_keys th.Baseline.c_clicks tp.Baseline.c_clicks;
  (* the measured conventional system: the same bug hunt, performed by
     a scripted user in an 8½-flavoured popup WM with typescript shells
     and a real ed(1).  Every command genuinely runs; the bug is really
     fixed by typing. *)
  let popup_t, popup_fixed = Popup.demo () in
  let pc = Popup.counts popup_t in
  let measured_help =
    List.fold_left
      (fun acc (s : Demo.step) -> Metrics.add acc s.s_counts)
      Metrics.zero demo.Demo.steps
  in
  row "\nmeasured head-to-head (both sessions really fix the bug):\n";
  row "%-38s %8s %8s %8s\n" "system" "clicks" "keys" "travel";
  row "%-38s %8d %8d %8d\n" "help (replay)" measured_help.Metrics.clicks
    measured_help.Metrics.keys measured_help.Metrics.travel;
  row "%-38s %8d %8d %8d   (bug fixed: %b)\n" "popup WM + typescripts + ed"
    pc.Popup.clicks pc.Popup.keys pc.Popup.travel popup_fixed;
  row "help trades ~%d keystrokes for ~%d extra clicks; every conventional\n"
    pc.Popup.keys
    (measured_help.Metrics.clicks - pc.Popup.clicks);
  row "keystroke is a retyped name or an editor command.\n";
  (* the automation/defaults rules, quantified *)
  let auto = Help.auto_expansions demo.Demo.session.Session.help in
  row "\nautomation ablation: %d of the demo's gestures used an automatic\n" auto;
  row "expansion (word under a middle click, file name around a null\n";
  row "selection); without those two rules each would need a full sweep —\n";
  row "at least %d extra button transitions plus the travel of tracing the\n"
    (2 * auto);
  row "text, \"which indicates that the interface has failed\".\n"

(* ------------------------------------------------------------------ *)
(* E3: connectivity growth                                             *)

let e3_connectivity (demo : Demo.outcome) =
  section "E3" "\"exponential connectivity\": actionable tokens on screen";
  row "%-28s %12s %8s\n" "step" "connectivity" "growth";
  let _ =
    List.fold_left
      (fun prev (s : Demo.step) ->
        row "%-28s %12d %+8d\n" s.s_label s.s_connectivity
          (s.s_connectivity - prev);
        s.s_connectivity)
      0 demo.Demo.steps
  in
  (match (demo.Demo.steps, List.rev demo.Demo.steps) with
  | first :: _, last :: _ ->
      row "paper: \"Compare Figure 4 to Figure 11 ... After a few minutes the\n";
      row "screen is filled with active data.\"  boot=%d final=%d (x%.1f)\n"
        first.s_connectivity last.s_connectivity
        (float_of_int last.s_connectivity /. float_of_int (max 1 first.s_connectivity))
  | _ -> ())

(* ------------------------------------------------------------------ *)
(* E4: uses vs grep                                                    *)

(* Minor words per unit of a one-unit [Cbr.analyze] over the units
   boot's mk compiles, as [vc] analyzes them; the gc-smoke gate holds
   the C front end's allocation to this figure. *)
let cbr_words_per_unit () =
  let ns = Vfs.create () in
  Corpus.install ns;
  let analyze_each () =
    List.iter
      (fun f -> ignore (Cbr.analyze ns ~cwd:Corpus.src_dir [ f ]))
      Corpus.c_files
  in
  analyze_each ();
  let w0 = Gc.minor_words () in
  analyze_each ();
  (Gc.minor_words () -. w0) /. float_of_int (List.length Corpus.c_files)

(* Minor words per unit of [cpp *.c > /dev/null] through [Rc.run] over
   the units boot's mk compiles (the preprocessing of a [uses *.c]
   click); the gc-smoke gate holds cpp to this figure. *)
let cpp_words_per_unit () =
  let ns = Vfs.create () in
  Corpus.install ns;
  Vfs.mkdir_p ns "/dev";
  let sh = Rc.create ns in
  Coreutils.install sh;
  Cbr.install sh;
  let cpp () = ignore (Rc.run sh ~cwd:Corpus.src_dir "cpp *.c > /dev/null") in
  cpp ();
  let w0 = Gc.minor_words () in
  cpp ();
  (Gc.minor_words () -. w0) /. float_of_int (List.length Corpus.c_files)

(* Minor words of one pruned [grep -n helper42 *.c] and one unpruned
   [grep -n '[0-9]\);' *.c] (a pattern with no usable trigram, so every
   unit is read and walked) through [Rc.run] on a warm 120-unit
   synthetic corpus (perfbench corpus's queries), and per unit of the
   first [Index.prune] after install, which tokenizes every unit; the
   gc-smoke gate holds the glob, the pruning, the line walk and the
   index build to these figures. *)
let corpus_grep_words () =
  let modules = 120 in
  let ns = Vfs.create () in
  let dir = Corpus.install_synthetic ns ~modules in
  let files = List.init modules (fun m -> Printf.sprintf "%s/mod%03d.c" dir m) in
  let q = Index.plan_literal "warm_the_index_zz" in
  let w0 = Gc.minor_words () in
  ignore (Index.prune (Index.create ns) q files);
  let build = (Gc.minor_words () -. w0) /. float_of_int modules in
  let sh = Rc.create ns in
  Coreutils.install sh;
  let words cmd =
    let grep () = ignore (Rc.run sh ~cwd:dir cmd) in
    grep ();
    let w0 = Gc.minor_words () in
    grep ();
    Gc.minor_words () -. w0
  in
  let pruned = words "grep -n helper42 *.c" in
  (pruned, words "grep -n '[0-9]\\);' *.c", build)

let e4_uses_vs_grep () =
  section "E4" "semantic uses vs textual grep over the help sources";
  let ns = Vfs.create () in
  Corpus.install ns;
  let p = Cbr.analyze ns ~cwd:Corpus.src_dir Corpus.c_files in
  row "%-12s %18s %14s %8s\n" "identifier" "semantic refs" "grep lines" "ratio";
  List.iter
    (fun (name, file, needle) ->
      let line = Corpus.line_of ns (Corpus.src_dir ^ "/" ^ file) needle in
      let uses = List.length (Cbr.uses_of p ~file ~line ~name) in
      let greps = Cbr.grep_count ns ~cwd:Corpus.src_dir Corpus.c_files name in
      row "%-12s %18d %14d %7.1fx\n" name uses greps
        (float_of_int greps /. float_of_int (max 1 uses)))
    [
      ("n", "exec.c", "errs((uchar*)n)");
      ("p", "page.c", "p->name = estrdup(name)");
      ("fn", "help.c", "fn = 0;");
      ("execute", "ctrl.c", "execute(t, p0, p)");
      ("curtext", "help.c", "curtext = 0;");
    ];
  row "paper: grep n would find \"every occurrence of the letter n\";\n";
  row "uses parses the program and keeps the local n in textinsert apart.\n";
  let words = cbr_words_per_unit () in
  row "front end: %.0f minor words per unit (the %d units boot's mk compiles)\n"
    words (List.length Corpus.c_files);
  jcbr "cbr_minor_words_per_unit_smoke" words;
  let cpp = cpp_words_per_unit () in
  row "cpp *.c > /dev/null: %.0f minor words per unit\n" cpp;
  jcbr "cpp_minor_words_per_unit_smoke" cpp

(* ------------------------------------------------------------------ *)
(* E5: placement ablation                                              *)

let e5_placement () =
  section "E5" "window placement: the refined heuristic vs alternatives";
  let workload strategy files =
    let ns = Vfs.create () in
    Corpus.install ns;
    let sh = Rc.create ns in
    Coreutils.install sh;
    let help = Help.create ~w:100 ~h:36 ~place:strategy ns sh in
    List.iter
      (fun f -> ignore (Help.open_file help ~dir:"/" (Corpus.src_dir ^ "/" ^ f)))
      files;
    let total = List.length (Help.windows help) in
    let visible = ref 0 and readable = ref 0 and body_rows = ref 0 in
    List.iter
      (fun col ->
        List.iter
          (fun g ->
            incr visible;
            if g.Hcol.g_h >= 3 then incr readable;
            body_rows := !body_rows + max 0 (g.Hcol.g_h - 1))
          (Hcol.geoms col ~h:(Help.height help)))
      (Help.columns help);
    (total, !visible, !readable, !body_rows)
  in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let run_table label files =
    row "-- %s (%d windows into one column of 35 rows) --\n" label
      (List.length files);
    row "%-16s %8s %9s %10s %10s %9s\n" "strategy" "windows" "visible"
      "readable" "body rows" "covered";
    List.iter
      (fun s ->
        let total, visible, readable, rows = workload s files in
        row "%-16s %8d %9d %10d %10d %9d\n" (Hplace.strategy_name s) total
          visible readable rows (total - visible))
      [ Hplace.Refined; Hplace.Naive_top; Hplace.Cover_half;
        Hplace.Bottom_quarter ]
  in
  run_table "light session" (take 6 Corpus.c_files);
  run_table "crowded session"
    (Corpus.c_files @ [ "dat.h"; "fns.h"; "mkfile" ]);
  row "readable = tag plus at least two body lines (the heuristic's own bar).\n";
  row "paper: the refined rule is \"good enough that I don't notice it\" —\n";
  row "it should lead on readable windows in the light case and degrade no\n";
  row "worse than the alternatives when crowded.\n"

(* ------------------------------------------------------------------ *)
(* E6: code size                                                       *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      List.rev !lines

(* an exported value: a [val] line of an interface *)
let is_val_line line =
  let line = String.trim line in
  String.length line > 4 && String.sub line 0 4 = "val "

(* (lines of .ml and .mli, val lines of .mli) in one directory *)
let dir_size dir =
  Sys.readdir dir |> Array.to_list
  |> List.fold_left
       (fun (loc, vals) f ->
         let path = Filename.concat dir f in
         if Filename.check_suffix f ".ml" then
           (loc + List.length (read_lines path), vals)
         else if Filename.check_suffix f ".mli" then
           let lines = read_lines path in
           ( loc + List.length lines,
             vals + List.length (List.filter is_val_line lines) )
         else (loc, vals))
       (0, 0)

let e6_code_size () =
  section "E6" "code size: \"It is also smaller: 4300 lines of C.\"";
  let root =
    (* run from the repo root or from _build: find lib/ upward *)
    let rec find d depth =
      if depth > 6 then None
      else if Sys.file_exists (Filename.concat d "lib/core/help.ml") then Some d
      else find (Filename.concat d "..") (depth + 1)
    in
    find "." 0
  in
  match root with
  | None -> row "(source tree not reachable from the working directory; skipped)\n"
  | Some root ->
      let lib = Filename.concat root "lib" in
      let labels =
        [ ("core", "core (help itself)"); ("srv", "srv (/mnt/help)");
          ("nine", "nine (9P)"); ("shell", "shell (rc)");
          ("cbr", "cbr (C browser)"); ("db", "db (debugger)");
          ("popup", "popup (measured baseline)"); ("cpu", "cpu (CPU server)") ]
      in
      let dirs =
        Sys.readdir lib |> Array.to_list |> List.sort compare
        |> List.filter (fun d -> Sys.is_directory (Filename.concat lib d))
      in
      row "%-30s %8s %8s\n" "component" "LoC" "vals";
      let total = ref 0 and vals = ref 0 and core_total = ref 0 in
      List.iter
        (fun d ->
          let loc, v = dir_size (Filename.concat lib d) in
          row "%-30s %8d %8d\n"
            (Option.value ~default:d (List.assoc_opt d labels))
            loc v;
          total := !total + loc;
          vals := !vals + v;
          if d = "core" || d = "srv" then core_total := !core_total + loc)
        dirs;
      row "%-30s %8d\n" "TOTAL (lib/)" !total;
      row "%-30s %17d\n" "exported values (lib/*/*.mli)" !vals;
      row
        "the interface proper (core+srv) is %d lines vs the paper's 4300 of C;\n"
        !core_total;
      row "the rest is the substrate Plan 9 provided for free.\n"

(* ------------------------------------------------------------------ *)
(* E8: the three-click decl                                            *)

let e8_decl () =
  section "E8" "decl: \"with only three button clicks one may fetch ... the declaration\"";
  let t = Session.boot () in
  (match Help.open_file t.Session.help ~dir:"/" (Corpus.src_dir ^ "/exec.c") with
  | Some _ -> ()
  | None -> failwith "open exec.c");
  let exec_win = Session.win t (Corpus.src_dir ^ "/exec.c") in
  let _ = Metrics.mark t.Session.metrics "setup" in
  (* click 1: point at the variable *)
  Session.point_at t exec_win "(uchar*)n)" ~off:8;
  (* click 2: decl in the browser tool *)
  Session.exec_word t (Session.win t "/help/cbr/stf") "decl";
  (* click 3: Open — the decl script left the selection on its output *)
  Session.exec_word t (Session.win t "/help/edit/stf") "Open";
  let c = Metrics.mark t.Session.metrics "decl" in
  let dat_open = Help.window_by_name t.Session.help (Corpus.src_dir ^ "/dat.h") in
  row "clicks used: %d (paper: three)\n" c.Metrics.clicks;
  row "keystrokes: %d\n" c.Metrics.keys;
  row "dat.h opened at the declaration: %b\n" (dat_open <> None);
  (match dat_open with
  | Some w ->
      let q0, q1 = Htext.sel (Hwin.body w) in
      row "selected there: %S\n" (Htext.read (Hwin.body w) q0 q1)
  | None -> ())

(* ------------------------------------------------------------------ *)
(* E9: the CPU server                                                  *)

let e9_remote () =
  section "E9"
    "extension: applications on the CPU server (\"an invisible call\")";
  let remote = Demo.run ~keep_screens:false ~remote:true () in
  let total =
    List.fold_left
      (fun acc (s : Demo.step) -> Metrics.add acc s.s_counts)
      Metrics.zero remote.Demo.steps
  in
  row "full demo with every application remote: %d clicks, %d keys\n"
    total.Metrics.clicks total.Metrics.keys;
  let disk =
    Vfs.read_file remote.Demo.session.Session.ns (Corpus.src_dir ^ "/exec.c")
  in
  row "bug fixed on the terminal's disk: %b\n"
    (not (Hstr.contains disk ~sub:"\tn = 0;"));
  (match remote.Demo.session.Session.cpu with
  | Some c ->
      let stats = Cpu.link_stats c in
      row "9P messages over the terminal link:";
      List.iter (fun (k, v) -> row " %s=%d" k v) stats;
      row " TOTAL=%d\n" (List.fold_left (fun a (_, v) -> a + v) 0 stats)
  | None -> row "(no CPU server)\n");
  row "paper: \"help's structure as a Plan 9 file server makes the\n";
  row "implementation of this sort of multiplexing straightforward.\"\n"

(* ------------------------------------------------------------------ *)
(* E7: microbenchmarks (the responsiveness claim)                      *)

let microbenches () =
  section "E7" "microbenchmarks: \"delightfully snappy\" (ns per operation)";
  let open Bechamel in
  let open Toolkit in
  (* shared fixtures built once *)
  let big_text =
    String.concat ""
      (List.init 400 (fun i -> Printf.sprintf "line %d of a large buffer under edit\n" i))
  in
  let rope = Rope.of_string big_text in
  let re = Regexp.compile "er+ s" in
  let ns_fix = Vfs.create () in
  Vfs.mkdir_p ns_fix "/d";
  Vfs.write_file ns_fix "/d/f" big_text;
  ignore (Nine.serve_mount ns_fix "/mnt/nine" (Vfs.ramfs ns_fix));
  Vfs.write_file ns_fix "/mnt/nine/f" big_text;
  (* same server shape behind a disabled fault wrapper: the pair of
     rows shows the robustness layer costs nothing when idle *)
  ignore
    (Nine.serve_mount
       ~wrap:(Fault.wrap { Fault.default with rate = 0.0 })
       ns_fix "/mnt/nine0" (Vfs.ramfs ns_fix));
  Vfs.write_file ns_fix "/mnt/nine0/f" big_text;
  let sh_fix = Rc.create ns_fix in
  Coreutils.install sh_fix;
  let corpus_ns = Vfs.create () in
  Corpus.install corpus_ns;
  let help_fix =
    let sh = Rc.create corpus_ns in
    Coreutils.install sh;
    Help.create corpus_ns sh
  in
  ignore (Help.open_file help_fix ~dir:"/" (Corpus.src_dir ^ "/exec.c"));
  let tests =
    [
      Test.make ~name:"rope insert+delete (100KB)"
        (Staged.stage (fun () ->
             let r = Rope.insert rope 5000 "XYZZY" in
             Rope.delete r 5000 5));
      Test.make ~name:"rope line_of_offset"
        (Staged.stage (fun () -> Rope.line_of_offset rope 9000));
      Test.make ~name:"regexp search (16KB)"
        (Staged.stage (fun () -> Regexp.search re big_text 0));
      Test.make ~name:"frame layout 50x40"
        (Staged.stage (fun () -> Frame.layout rope ~org:0 ~w:50 ~h:40));
      Test.make ~name:"vfs read (local)"
        (Staged.stage (fun () -> Vfs.read_file ns_fix "/d/f"));
      Test.make ~name:"vfs read (9P round-trips)"
        (Staged.stage (fun () -> Vfs.read_file ns_fix "/mnt/nine/f"));
      Test.make ~name:"vfs read (9P + disabled fault wrapper)"
        (Staged.stage (fun () -> Vfs.read_file ns_fix "/mnt/nine0/f"));
      Test.make ~name:"shell parse+run: echo"
        (Staged.stage (fun () -> Rc.run sh_fix "echo hi"));
      Test.make ~name:"event: move+click"
        (Staged.stage (fun () ->
             Help.events help_fix
               [ Help.Move (10, 5); Help.Press Help.Left;
                 Help.Release Help.Left ]));
      Test.make ~name:"full screen draw"
        (Staged.stage (fun () -> Help.draw help_fix));
      Test.make ~name:"cbr analyze exec.c"
        (Staged.stage (fun () ->
             Cbr.analyze corpus_ns ~cwd:Corpus.src_dir [ "exec.c" ]));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let instances = Instance.[ monotonic_clock ] in
  let test = Test.make_grouped ~name:"help" tests in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        match Analyze.OLS.estimates result with
        | Some (est :: _) -> (name, est) :: acc
        | _ -> acc)
      results []
  in
  row "%-40s %16s\n" "operation" "ns/op";
  List.iter
    (fun (name, est) ->
      row "%-40s %16.0f\n" name est;
      j7 name est)
    (List.sort compare rows);
  row "every interactive-path operation is far below perceptible latency.\n"

(* ------------------------------------------------------------------ *)
(* E10: scale (the "handle large files gracefully" goal)               *)

(* [f ()] and the processor seconds it took: [Sys.time] is processor
   time, not wall time. *)
let time f =
  let t0 = Sys.time () in
  let v = f () in
  (v, Sys.time () -. t0)

(* E10 reads every figure [e10_reps] times and ledgers its spread. *)
let e10_reps = 9

(* [f (setup ())] timed [e10_reps] times, each on a fresh, untimed
   [setup ()]: the spread of its processor milliseconds and the last
   result. *)
let repeated ~setup f =
  let last = ref None in
  let ms =
    List.init e10_reps (fun _ ->
        let s = setup () in
        let v, secs = time (fun () -> f s) in
        last := Some v;
        secs *. 1000.)
  in
  (spread ms, Option.get !last)

let e10_row ?(unit = "ms") label sp note =
  row "  %-44s %9.3f %s  iqr %7.3f%s\n" label sp.median unit sp.iqr note

(* Words one replay of the paper's bug-fix session (Figures 4-12)
   allocates directly in the major heap: its twenty gestures, each
   followed by a [Session.screen], as perfbench's bugfix workload runs
   them.  [major_words] less [promoted_words] leaves out what minor
   collections moved there.  A screen-sized block (4,800 cells) is too
   big for the minor heap, so a draw that copied the screen showed up
   here; the gc-smoke gate holds drawing to this figure.  A first
   replay warms the process-wide caches. *)
let bugfix_major_words () =
  let replay () =
    let t = Session.boot ~h:48 () in
    let src = Corpus.src_dir in
    let addr file needle =
      file ^ ":"
      ^ string_of_int (Corpus.line_of t.Session.ns (src ^ "/" ^ file) needle)
    in
    let w = Session.win t in
    let stack = ref None and uses = ref None in
    let last r () = r := Some (Session.last_window t) in
    let get r = Option.get !r in
    let gestures =
      [
        (fun () -> Session.exec_word t (w "/help/mail/stf") "headers");
        (fun () -> Session.point_at t (w Corpus.mbox_path) "2 sean");
        (fun () -> Session.exec_word t (w "/help/mail/stf") "messages");
        (fun () -> Session.point_at t (w "From") "176153" ~off:2);
        (fun () ->
          Session.exec_word t (w "/help/db/stf") "stack";
          last stack ());
        (fun () -> Session.drag_window t (get stack) ~col:0 ~y:1);
        (fun () ->
          Session.point_at t (get stack) (addr "text.c" "strlen((char*)s)"));
        (fun () -> Session.exec_word t (w "/help/edit/stf") "Open");
        (fun () -> Session.exec_tag_word t (w (src ^ "/text.c")) "Close!");
        (fun () ->
          Session.point_at t (get stack) (addr "exec.c" "errs((uchar*)n)"));
        (fun () -> Session.exec_word t (w "/help/edit/stf") "Open");
        (fun () -> Session.point_at t (w (src ^ "/exec.c")) "(uchar*)n)" ~off:8);
        (fun () ->
          Session.exec_sweep t (w "/help/cbr/stf") "uses *.c";
          last uses ());
        (fun () ->
          Session.point_at t (get uses) (addr "help.c" "n = \"a test string\""));
        (fun () -> Session.exec_word t (w "/help/edit/stf") "Open");
        (fun () -> Session.point_at t (get uses) (addr "exec.c" "n = 0;"));
        (fun () -> Session.exec_word t (w "/help/edit/stf") "Open");
        (fun () ->
          Session.sweep_and_chord_cut t (w (src ^ "/exec.c")) Demo.offending_line);
        (fun () -> Session.exec_tag_word t (w (src ^ "/exec.c")) "Put!");
        (fun () -> Session.exec_word t (w "/help/cbr/stf") "mk");
      ]
    in
    let _, promoted0, major0 = Gc.counters () in
    List.iter
      (fun g ->
        g ();
        ignore (Session.screen t))
      gestures;
    let _, promoted1, major1 = Gc.counters () in
    major1 -. major0 -. (promoted1 -. promoted0)
  in
  ignore (replay ());
  replay ()

let e10_scale () =
  section "E10" "scale: large files, large builds, crowded screens";
  row "each figure: median and interquartile range of %d runs\n" e10_reps;
  (* a large file through the editor data path *)
  let chunk = "a line of a very large file under interactive edit\n" in
  let big = String.concat "" (List.init 200_000 (fun _ -> chunk)) in
  row "file of %d MB, %d lines (processor time):\n"
    (String.length big / 1_000_000) 200_000;
  let sp, rope = repeated ~setup:ignore (fun () -> Rope.of_string big) in
  e10_row "build rope" sp "";
  j10 "build rope" sp;
  let sp, () =
    repeated ~setup:ignore (fun () ->
        let r = ref rope in
        for i = 1 to 1000 do
          r := Rope.insert !r (i * 9_000) "EDIT";
          r := Rope.delete !r (i * 9_000) 4
        done)
  in
  e10_row "1000 edits (insert+delete)" sp "";
  j10 "1000 edits" sp;
  let sp, _ = repeated ~setup:ignore (fun () -> Rope.line_start rope 150_000) in
  e10_row "seek line 150000" sp "";
  j10 "seek line 150000" sp;
  let sp, _ =
    repeated ~setup:ignore (fun () ->
        Frame.layout rope ~org:(Rope.line_start rope 150_000) ~w:60 ~h:40)
  in
  e10_row "lay out a 60x40 frame there" sp "";
  j10 "60x40 frame layout" sp;
  (* a large build through vc/vl/mk, each run in a fresh namespace *)
  let project () =
    let ns = Vfs.create () in
    Corpus.install ns;
    let sh = Rc.create ns in
    Coreutils.install sh;
    Mk.install sh;
    Cbr.install sh;
    Db.install sh (Db.create ());
    (ns, sh, Corpus.install_synthetic ns ~modules:100)
  in
  let status (r : Rc.result) = Printf.sprintf " (status %d)" r.Rc.r_status in
  row "synthetic project of 100 modules (processor time):\n";
  let sp, r =
    repeated ~setup:project (fun (_, sh, dir) -> Rc.run sh ~cwd:dir "mk")
  in
  e10_row "full mk build (parse+link every unit)" sp (status r);
  j10 "full mk" sp;
  let touched () =
    let ((_, sh, dir) as p) = project () in
    ignore (Rc.run sh ~cwd:dir "mk");
    ignore (Rc.run sh ~cwd:dir "touch mod050.c");
    p
  in
  let sp, r =
    repeated ~setup:touched (fun (_, sh, dir) ->
        Rc.run sh ~cwd:dir "mk -modified")
  in
  e10_row "incremental mk -modified after 1 touch" sp (status r);
  j10 "incremental mk" sp;
  let files = List.init 100 (fun i -> Printf.sprintf "mod%03d.c" i) in
  let sp, p =
    repeated ~setup:project (fun (ns, _, dir) -> Cbr.analyze ns ~cwd:dir files)
  in
  e10_row "whole-program analysis for uses" sp
    (Printf.sprintf " (%d decls)" (List.length p.C_symbols.p_decls));
  j10 "analysis fresh" sp;
  (* incremental analysis: per-unit cache keyed by content digest *)
  let analyze_with ((ns, _, dir), idx) =
    let h0, m0 = Cbr.index_stats idx in
    let p = Cbr.analyze ~index:idx ns ~cwd:dir files in
    let h1, m1 = Cbr.index_stats idx in
    (p, h1 - h0, m1 - m0)
  in
  let cold () = (project (), Cbr.create_index ()) in
  let warm () =
    let c = cold () in
    ignore (analyze_with c);
    c
  in
  let edited () =
    let (((ns, _, dir), _) as c) = warm () in
    Vfs.append_file ns (dir ^ "/mod050.c") "\nint extra050;\n";
    c
  in
  List.iter
    (fun (label, key, setup) ->
      let sp, (p, hits, misses) = repeated ~setup analyze_with in
      e10_row label sp
        (Printf.sprintf " (%d decls; %d hits/%d misses)"
           (List.length p.C_symbols.p_decls) hits misses);
      Option.iter (fun key -> j10 key sp) key)
    [ ("analysis, cold cache", None, cold);
      ("analysis, warm cache (0 edits)", Some "analysis warm", warm);
      ("analysis after editing 1 of 100 files", Some "analysis 1 edit", edited) ];
  (* a crowded screen *)
  let screen () =
    let ns, sh, dir = project () in
    (Help.create ~w:100 ~h:48 ns sh, dir)
  in
  let open_all (help, dir) =
    for i = 0 to 39 do
      ignore
        (Help.open_file help ~dir:"/" (Printf.sprintf "%s/mod%03d.c" dir i))
    done;
    help
  in
  let crowded () = open_all (screen ()) in
  row "40 windows (processor time):\n";
  let sp, _ = repeated ~setup:screen open_all in
  e10_row "open all" sp "";
  j10 "open 40 windows" sp;
  let sp, _ = repeated ~setup:crowded (fun help -> ignore (Help.draw help)) in
  e10_row "draw the whole screen" sp "";
  j10 "draw whole screen" sp;
  (* damage-tracked drawing: a keystroke into one window should repaint
     that window alone, several times faster than repainting all 40.
     Both strategies are timed against the same damage — one typed
     character per frame — so each pays the same layout recompute of
     the edited body; only the painting differs.  The keystroke lands
     in the smallest window that shows a body. *)
  let keystrokes help =
    let kx, ky =
      let best = ref None in
      List.iter
        (fun col ->
          List.iter
            (fun g ->
              if g.Hcol.g_h > 1 then
                match !best with
                | Some (_, _, h) when h <= g.Hcol.g_h -> ()
                | _ -> best := Some (Hcol.x col + 2, g.Hcol.g_y + 1, g.Hcol.g_h))
            (Hcol.geoms col ~h:(Help.height help)))
        (Help.columns help);
      match !best with Some (x, y, _) -> (x, y) | None -> (2, 2)
    in
    Help.event help (Help.Move (kx, ky));
    ignore (Help.draw help);
    let kiters = 1000 in
    let _, t_ev =
      time (fun () ->
          for _ = 1 to kiters do
            Help.event help (Help.Key 'x')
          done)
    in
    let t_ev1 = t_ev /. float_of_int kiters in
    ignore (Help.draw help);
    let _, t_evfull =
      time (fun () ->
          for _ = 1 to kiters do
            Help.event help (Help.Key 'x');
            ignore (Help.draw_full help)
          done)
    in
    let t_full1 = max 0. (t_evfull /. float_of_int kiters -. t_ev1) *. 1000. in
    ignore (Help.draw help);
    let _, t_evdraw =
      time (fun () ->
          for _ = 1 to kiters do
            Help.event help (Help.Key 'x');
            ignore (Help.draw help)
          done)
    in
    let t_incr1 = max 0. (t_evdraw /. float_of_int kiters -. t_ev1) *. 1000. in
    let _, t_clean =
      time (fun () ->
          for _ = 1 to kiters do
            ignore (Help.draw help)
          done)
    in
    let t_clean1 = t_clean /. float_of_int kiters *. 1000. in
    let identical =
      Screen.equal (Help.draw help) (Help.draw_full help)
    in
    (t_full1, t_incr1, t_clean1, identical, Help.draw_stats help)
  in
  let runs = List.init e10_reps (fun _ -> keystrokes (crowded ())) in
  let col f = spread (List.map f runs) in
  let sp_full = col (fun (f, _, _, _, _) -> f) in
  let sp_incr = col (fun (_, i, _, _, _) -> i) in
  let sp_clean = col (fun (_, _, c, _, _) -> c) in
  let sp_x = col (fun (f, i, _, _, _) -> f /. max 1e-9 i) in
  let identical = List.for_all (fun (_, _, _, same, _) -> same) runs in
  let draws, full, cols, wins, clean =
    let _, _, _, _, ledger = List.nth runs (e10_reps - 1) in
    ledger
  in
  e10_row "keystroke + full draw from scratch (avg)" sp_full "";
  e10_row "keystroke redraw, damage-tracked (avg)" sp_incr "";
  e10_row "redraw with no damage (avg)" sp_clean "";
  e10_row ~unit:"x " "single-keystroke speedup vs full draw" sp_x "";
  row "  incremental screen identical to from-scratch draw: %b\n" identical;
  row "  draw ledger (last run): %d draws = %d full + %d column + %d window \
       repaints + %d clean\n"
    draws full cols wins clean;
  j10 "full draw avg" sp_full;
  j10 "keystroke redraw avg" sp_incr;
  j10 "clean redraw avg" sp_clean;
  j10 "keystroke speedup x" sp_x;
  let words = bugfix_major_words () in
  row "  bug-fix replay: %.0f words allocated directly in the major heap\n\
      \    (20 gestures, a repaint after each)\n"
    words;
  jcbr "bugfix_major_words_smoke" words;
  row "nothing on the interactive path grows past a few milliseconds.\n"

(* ------------------------------------------------------------------ *)
(* E11: the search substrate                                           *)

(* The engine this PR replaced: restart the Thompson simulation at
   every byte.  Rebuilt here on [match_at] so the before/after numbers
   come from one binary; if anything this flatters the old design,
   since match_at itself now runs on preallocated arrays instead of a
   per-step list. *)
let old_search re s pos =
  let n = String.length s in
  let rec go i =
    if i > n then None
    else
      match Regexp.match_at re s i with
      | Some j -> Some (i, j)
      | None -> go (i + 1)
  in
  go pos

(* processor ns per call, by repetition under a small [Sys.time]
   budget; the bechamel row stays the authoritative number for the 16KB
   search, this is for the before/after table. *)
let bench_ns f =
  ignore (f ());
  let t0 = Sys.time () in
  let n = ref 0 in
  while Sys.time () -. t0 < 0.15 || !n < 3 do
    ignore (f ());
    incr n
  done;
  (Sys.time () -. t0) *. 1e9 /. float_of_int !n

let e11_search () =
  section "E11" "search substrate: one-pass sweep, lazy DFA, prefilter, streaming";
  let big_text =
    String.concat ""
      (List.init 400 (fun i -> Printf.sprintf "line %d of a large buffer under edit\n" i))
  in
  row "-- 16KB haystack, search from 0 (old = restart per position) --\n";
  row "%-34s %12s %12s %9s\n" "pattern" "old ns/op" "new ns/op" "speedup";
  List.iter
    (fun (pat, note) ->
      let re = Regexp.compile_uncached pat in
      let t_old = bench_ns (fun () -> old_search re big_text 0) in
      let t_new = bench_ns (fun () -> Regexp.search re big_text 0) in
      (if Regexp.search re big_text 0 <> old_search re big_text 0 then
         failwith ("E11: engines disagree on " ^ pat));
      row "%-34s %12.0f %12.0f %8.1fx  %s\n" pat t_old t_new
        (t_old /. max 1e-9 t_new) note;
      j11 (Printf.sprintf "16KB %s old" pat) t_old;
      j11 (Printf.sprintf "16KB %s new" pat) t_new)
    [
      ("er+ s", "(the bechamel pattern; required literal absent)");
      ("under edit", "(pure literal, hits every line)");
      ("l[ai]ne 39[0-9]", "(class pattern, match near the end)");
      ("zq+x", "(no match, prefilter carries it)");
      ("[a-z]+ [0-9]+", "(no usable literal: sweep vs restart)");
    ];
  (* the whole-screen gesture: right-click search over a window body,
     wrapping past the end — what do_search runs under the mouse.  The
     old path flattened the rope and restarted per position; the new
     path streams the rope's own leaves. *)
  let ns = Vfs.create () in
  Corpus.install ns;
  let sh = Rc.create ns in
  Coreutils.install sh;
  let help = Help.create ~w:100 ~h:40 ns sh in
  List.iter
    (fun f -> ignore (Help.open_file help ~dir:"/" (Corpus.src_dir ^ "/" ^ f)))
    [ "exec.c"; "help.c"; "text.c" ];
  (match Help.windows help with
  | w :: _ ->
      let body = Hwin.body w in
      let rope = Htext.rope body in
      let re = Regexp.compile_uncached "cur[a-z]+" in
      let t_old =
        bench_ns (fun () ->
            let s = Rope.to_string rope in
            match old_search re s 1000 with
            | Some r -> Some r
            | None -> old_search re s 0)
      in
      let t_new =
        bench_ns (fun () -> ignore (Help.execute help w "Pattern cur[a-z]+"))
      in
      row "\n-- right-click search of a %d-byte body (wrap from mid-file) --\n"
        (Rope.length rope);
      row "%-34s %12.0f %12.0f %8.1fx\n" "flatten + restart vs full gesture"
        t_old t_new (t_old /. max 1e-9 t_new);
      row "(the new number is the whole Pattern command: rope-streaming\n";
      row " search plus selection, scroll and damage bookkeeping)\n";
      j11 "body search old" t_old;
      j11 "body search gesture new" t_new
  | [] -> ());
  (* corpus-wide grep, the E4 workload's textual half *)
  let files = String.concat " " Corpus.c_files in
  let lines_of f =
    String.split_on_char '\n' (Vfs.read_file ns (Corpus.src_dir ^ "/" ^ f))
  in
  let all_lines = List.concat_map lines_of Corpus.c_files in
  let re = Regexp.compile_uncached "estrdup" in
  let t_old =
    bench_ns (fun () ->
        List.fold_left
          (fun acc l -> if old_search re l 0 <> None then acc + 1 else acc)
          0 all_lines)
  in
  let t_new = bench_ns (fun () -> Rc.run sh ~cwd:Corpus.src_dir ("grep estrdup " ^ files)) in
  row "\n-- grep estrdup over the full C corpus (%d lines) --\n"
    (List.length all_lines);
  row "%-34s %12.0f %12.0f %8.1fx\n" "per-line restart vs grep(1)" t_old t_new
    (t_old /. max 1e-9 t_new);
  row "(grep pays process setup and output formatting on top of the match)\n";
  j11 "corpus grep old" t_old;
  j11 "corpus grep new" t_new;
  (* what the engine did, from its own ledger *)
  let v k = match Trace.find_value k with Some v -> v | None -> 0 in
  row "\nengine ledger: %d bytes scanned, %d skipped by prefilter, dfa %d states\n"
    (v "regexp.search.bytes")
    (v "regexp.prefilter.skipped_bytes")
    (v "regexp.dfa.states");
  row "dfa cache: %d hits / %d misses / %d flushes\n"
    (v "regexp.dfa.cache_hit") (v "regexp.dfa.cache_miss")
    (v "regexp.dfa.flush")

(* ------------------------------------------------------------------ *)
(* search-smoke: the search-substrate timing gate.  The 16KB search
   must beat the committed pre-sweep baseline by a wide margin, and the
   prefilter-less sweep must stay near the restart reference.  (That
   every engine agrees with the reference is a property in
   test/test_regexp.ml.)  Exits nonzero on any failure so check.sh can
   gate on it. *)

let search_smoke () =
  let failed = ref [] in
  let check name ok = if not ok then failed := name :: !failed in
  (* the perf gate: the committed pre-sweep baseline measured 746578
     ns/op on this workload (BENCH_results.json, help-bench-1).  The
     acceptance bar is 10x in the bechamel row; gate here at a lenient
     5x so a loaded CI machine cannot flake the build. *)
  let baseline_ns = 746578. in
  let big_text =
    String.concat ""
      (List.init 400 (fun i -> Printf.sprintf "line %d of a large buffer under edit\n" i))
  in
  let re = Regexp.compile "er+ s" in
  let t_new = bench_ns (fun () -> Regexp.search re big_text 0) in
  check
    (Printf.sprintf "16KB search %.0f ns/op beats baseline %.0f by 5x" t_new
       baseline_ns)
    (t_new *. 5. < baseline_ns);
  (* the prefilter-less guard: [a-z]+ [0-9]+ has no literal and no
     prefix, and its match sits at position 0 of this haystack, so the
     restart reference finds it almost for free.  The engine used to
     pay a DFA existence pre-pass before the sweep here and came in at
     1.4x the restart cost (714 vs 506 ns, help-bench-5); the compile
     flag that skips straight to the sweep must keep it at parity.
     Gate at 2x so a loaded CI machine cannot flake the build. *)
  let re_plain = Regexp.compile "[a-z]+ [0-9]+" in
  let t_plain = bench_ns (fun () -> Regexp.search re_plain big_text 0) in
  let t_restart = bench_ns (fun () -> old_search re_plain big_text 0) in
  check
    (Printf.sprintf
       "prefilter-less sweep %.0f ns/op within 2x of restart reference %.0f"
       t_plain t_restart)
    (t_plain < 2. *. t_restart);
  match List.rev !failed with
  | [] ->
      Printf.printf
        "search-smoke: ok (16KB search %.0f ns/op, %.0fx vs pre-sweep \
         baseline)\n"
        t_new (baseline_ns /. max 1e-9 t_new);
      exit 0
  | fs ->
      List.iter (fun f -> Printf.printf "search-smoke FAIL: %s\n" f) fs;
      exit 1

(* ------------------------------------------------------------------ *)
(* E12: the multi-client serving layer under load.  Eight simulated
   clients attach to one session's /mnt/help pool, each with its own
   connection (disjoint fid table, own uname), and replay three rounds
   of the figure-session RPC mix — create a window, append, read the
   body, the shared index, the ctl line.  Reported: RPCs per operation,
   fairness spread across the eight connections, and fid accounting
   after the clients disconnect; run again under a 10% fault schedule
   the screens must still converge byte for byte. *)

type load_outcome = {
  l_dump : string;  (* the session screen after the load *)
  l_ops : int;  (* whole-file operations issued by the clients *)
  l_rpcs : int;  (* requests served across the client connections *)
  l_spread : float;  (* max/min served among the clients *)
  l_leaked : int;  (* fids above baseline after every client left *)
}

let pool_load ?fault () =
  let s = Session.boot () in
  let baseline = Nine.Pool.fid_count s.Session.pool in
  let wrap = Option.map Fault.wrap fault in
  let n = 8 in
  let clients =
    List.init n (fun i ->
        Session.attach_client ?wrap
          ~uname:(Printf.sprintf "client%d" i) s)
  in
  let scratch = Vfs.create () in
  List.iteri
    (fun i (_, fs) -> Vfs.mount scratch (Printf.sprintf "/c%d" i) fs)
    clients;
  let ops = ref 0 in
  let op f = incr ops; f () in
  let wins = Array.make n "" in
  for round = 0 to 2 do
    List.iteri
      (fun i _ ->
        let root = Printf.sprintf "/c%d" i in
        if round = 0 then
          wins.(i) <-
            op (fun () -> String.trim (Vfs.read_file scratch (root ^ "/new/ctl")));
        let w = Printf.sprintf "%s/%s" root wins.(i) in
        op (fun () ->
            Vfs.write_file scratch (w ^ "/bodyapp")
              (Printf.sprintf "client %d round %d\n" i round));
        ignore (op (fun () -> Vfs.read_file scratch (w ^ "/body")));
        ignore (op (fun () -> Vfs.read_file scratch (root ^ "/index")));
        ignore (op (fun () -> Vfs.read_file scratch (w ^ "/ctl"))))
      clients
  done;
  let serveds = List.map (fun (c, _) -> Nine.Pool.served c) clients in
  let rpcs = List.fold_left ( + ) 0 serveds in
  let spread =
    match serveds with
    | [] -> 1.0
    | s0 :: rest ->
        let mn = List.fold_left min s0 rest in
        let mx = List.fold_left max s0 rest in
        if mn = 0 then infinity else float_of_int mx /. float_of_int mn
  in
  let dump = Session.dump s in
  List.iter (fun (c, _) -> Nine.Pool.disconnect c) clients;
  {
    l_dump = dump;
    l_ops = !ops;
    l_rpcs = rpcs;
    l_spread = spread;
    l_leaked = Nine.Pool.fid_count s.Session.pool - baseline;
  }

let e12_fault_config = { Fault.default with seed = 0xca11; rate = 0.1 }

let e12_pool () =
  section "E12" "multi-client load: 8 clients, one pool, round-robin service";
  let clean = pool_load () in
  let faulty = pool_load ~fault:e12_fault_config () in
  let per_op o = float_of_int o.l_rpcs /. float_of_int o.l_ops in
  row "%-36s %10s %12s\n" "" "clean" "10% faults";
  row "%-36s %10d %12d\n" "client operations" clean.l_ops faulty.l_ops;
  row "%-36s %10d %12d\n" "RPCs served (8 connections)" clean.l_rpcs
    faulty.l_rpcs;
  row "%-36s %10.2f %12.2f\n" "RPCs per operation" (per_op clean)
    (per_op faulty);
  row "%-36s %10.2f %12.2f\n" "fairness spread (max/min served)"
    clean.l_spread faulty.l_spread;
  row "%-36s %10d %12d\n" "fids leaked after disconnect" clean.l_leaked
    faulty.l_leaked;
  row "screens byte-identical under faults: %s\n"
    (if clean.l_dump = faulty.l_dump then "yes" else "NO");
  j12 "rpcs_per_op" (per_op clean);
  j12 "rpcs_per_op_faulted" (per_op faulty);
  j12 "fairness_spread" clean.l_spread;
  j12 "fairness_spread_faulted" faulty.l_spread;
  j12 "leaked_fids" (float_of_int (clean.l_leaked + faulty.l_leaked));
  j12 "screens_identical" (if clean.l_dump = faulty.l_dump then 1.0 else 0.0)

(* ------------------------------------------------------------------ *)
(* E13: the serving core at scale.  One booted session's /mnt/help
   pool, 1k-10k raw-wire clients each replaying the same read-only
   slice of the paper session (attach, read the index, a window's
   body, ctl and tag, stat the index — 21 RPCs), submitted as
   coalesced wire batches and chained through the scheduler's
   continuations so thousands are in flight at once.  Reported: p99 of
   the nine.rpc.us histogram (logical microseconds), fairness spread,
   and minor allocation and major collections per RPC.  Every client's
   concatenated reads must equal the single-client run's, byte for
   byte.  (The pool's wall-clock rate is perfbench fanin's ops_per_s.) *)

(* The per-client script, built once against a booted session: raw
   frames with fixed tags and fids (fid tables are per-connection, so
   every client can use the same ones), coalesced into wire batches
   for Pool.feed. *)
let e13_script s =
  let index = Vfs.read_file s.Session.ns "/mnt/help/index" in
  let w =
    match String.split_on_char '\t' index with
    | id :: _ -> String.trim id
    | [] -> failwith "E13: empty /mnt/help/index"
  in
  let batches_msgs =
    [
      [ (1, Nine.Tversion { msize = 65536; version = "9P2000.help" });
        (2, Nine.Tattach { fid = 0; uname = "load"; aname = "" }) ];
      [ (3, Nine.Twalk { fid = 0; newfid = 1; names = [ "index" ] });
        (4, Nine.Topen { fid = 1; mode = Nine.Oread });
        (5, Nine.Tread { fid = 1; offset = 0; count = 8192 });
        (6, Nine.Tclunk { fid = 1 }) ];
      [ (7, Nine.Twalk { fid = 0; newfid = 1; names = [ w; "body" ] });
        (8, Nine.Topen { fid = 1; mode = Nine.Oread });
        (9, Nine.Tread { fid = 1; offset = 0; count = 8192 });
        (10, Nine.Tclunk { fid = 1 }) ];
      [ (11, Nine.Twalk { fid = 0; newfid = 1; names = [ w; "ctl" ] });
        (12, Nine.Topen { fid = 1; mode = Nine.Oread });
        (13, Nine.Tread { fid = 1; offset = 0; count = 8192 });
        (14, Nine.Tclunk { fid = 1 });
        (15, Nine.Twalk { fid = 0; newfid = 2; names = [ "index" ] });
        (16, Nine.Tstat { fid = 2 });
        (17, Nine.Tclunk { fid = 2 }) ];
      [ (18, Nine.Twalk { fid = 0; newfid = 1; names = [ w; "tag" ] });
        (19, Nine.Topen { fid = 1; mode = Nine.Oread });
        (20, Nine.Tread { fid = 1; offset = 0; count = 8192 });
        (21, Nine.Tclunk { fid = 1 }) ];
    ]
  in
  let encode (tag, m) = Nine.encode_t ~tag m in
  Array.of_list
    (List.map (fun b -> String.concat "" (List.map encode b)) batches_msgs)

let e13_rpcs_per_client = 21

type fleet_outcome = {
  f_rpcs : int;  (* served across the fleet's connections *)
  f_minor : float;  (* minor words allocated during it *)
  f_majors : int;  (* major collections during it *)
  f_spread : float;  (* max/min served among the fleet *)
  f_screens : string array;  (* per client: concatenated Rread payloads *)
}

(* Run [clients] concurrent scripts through the cooperative scheduler:
   each client feeds its first wire batch, and a continuation on the
   batch's last ticket feeds the next, so the whole fleet is in flight
   together and drains under Pool.run.  Connections are disconnected
   before returning. *)
let e13_fleet pool ~clients ~batches =
  let conns =
    Array.init clients (fun _ -> Nine.Pool.attach ~uname:"load" pool)
  in
  let screens = Array.init clients (fun _ -> Buffer.create 256) in
  let nb = Array.length batches in
  let g0 = Gc.quick_stat () in
  (* [Gc.minor_words] counts every word; the quick_stat field moves only
     at minor collections, so it would depend on the heap's fill *)
  let w0 = Gc.minor_words () in
  let rec launch i k =
    let tickets = Nine.Pool.feed conns.(i) batches.(k) in
    let last = List.fold_left (fun _ t -> t) (-1) tickets in
    List.iter
      (fun t ->
        Nine.Pool.on_settled conns.(i) t (fun o ->
            (match o with
            | Nine.Pool.Replied r -> (
                match Nine.decode_r r with
                | _, Nine.Rread { data } -> Buffer.add_string screens.(i) data
                | _ -> ())
            | _ -> ());
            if t = last && k + 1 < nb then launch i (k + 1)))
      tickets
  in
  for i = 0 to clients - 1 do
    launch i 0
  done;
  Nine.Pool.run pool;
  let g1 = Gc.quick_stat () in
  let serveds = Array.map Nine.Pool.served conns in
  let rpcs = Array.fold_left ( + ) 0 serveds in
  let spread =
    let mn = Array.fold_left min serveds.(0) serveds in
    let mx = Array.fold_left max serveds.(0) serveds in
    if mn = 0 then infinity else float_of_int mx /. float_of_int mn
  in
  Array.iter Nine.Pool.disconnect conns;
  {
    f_rpcs = rpcs;
    f_minor = Gc.minor_words () -. w0;
    f_majors = g1.Gc.major_collections - g0.Gc.major_collections;
    f_spread = spread;
    f_screens = Array.map Buffer.contents screens;
  }

let rpc_p99 () = Trace.percentile (Trace.histogram "nine.rpc.us") 99.

(* Codec buffer churn, before/after: the old framing built every
   message through two fresh Buffers (one for the body, one for the
   frame); the Wire writer reuses one scratch and patches the size in
   place.  Minor words per encoded Rread, measured directly. *)
let codec_alloc_words () =
  let data = String.make 1024 'x' in
  let old_encode () =
    let body = Buffer.create 64 in
    let u8 b v = Buffer.add_char b (Char.chr (v land 0xff)) in
    let u16 b v = u8 b v; u8 b (v lsr 8) in
    let u32 b v = u16 b v; u16 b (v lsr 16) in
    u32 body (String.length data);
    Buffer.add_string body data;
    let s = Buffer.contents body in
    let b = Buffer.create (16 + String.length s) in
    u32 b (7 + String.length s);
    u8 b 117;
    u16 b 1;
    Buffer.add_string b s;
    Buffer.contents b
  in
  let new_encode () = Nine.encode_r ~tag:1 (Nine.Rread { data }) in
  let words f =
    ignore (f ());
    let n = 10_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (f ())
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  (words old_encode, words new_encode)

let e13_serving () =
  section "E13"
    "serving core: 1k-10k concurrent clients, batched cooperative scheduler";
  let per_rpc o = o.f_minor /. float_of_int o.f_rpcs in
  (* 1k clients, against the single-client reference screen *)
  let s = Session.boot () in
  let batches = e13_script s in
  let reference = e13_fleet s.Session.pool ~clients:1 ~batches in
  let fleet1k = e13_fleet s.Session.pool ~clients:1000 ~batches in
  let p99_1k = rpc_p99 () in
  let identical_1k =
    Array.for_all (fun sc -> sc = reference.f_screens.(0)) fleet1k.f_screens
  in
  row "-- 1000 clients x %d RPCs --\n" e13_rpcs_per_client;
  row "%-36s %14d\n" "RPCs served" fleet1k.f_rpcs;
  row "%-36s %14.1f\n" "minor words per RPC" (per_rpc fleet1k);
  row "%-36s %14d\n" "major collections" fleet1k.f_majors;
  row "%-36s %14.2f\n" "fairness spread" fleet1k.f_spread;
  row "%-36s %14d\n" "p99 nine.rpc.us (logical us)" p99_1k;
  row "%-36s %14s\n" "screens = single-client run"
    (if identical_1k then "yes" else "NO");
  j13 "minor_words_per_rpc_1k" (per_rpc fleet1k);
  j13 "p99_us_1k" (float_of_int p99_1k);
  j13 "fairness_spread_1k" fleet1k.f_spread;
  j13 "screens_identical_1k" (if identical_1k then 1.0 else 0.0);
  (* 10k clients, on a fresh session *)
  let s2 = Session.boot () in
  let batches2 = e13_script s2 in
  let reference2 = e13_fleet s2.Session.pool ~clients:1 ~batches:batches2 in
  let fleet10k = e13_fleet s2.Session.pool ~clients:10_000 ~batches:batches2 in
  let p99_10k = rpc_p99 () in
  (* read before the next boot resets the ledger *)
  let windows_10k =
    List.filter (fun (_, dc, _, _, _) -> dc > 0)
      (Trace.window_quantiles "nine.rpc.us")
  in
  let identical_10k =
    Array.for_all (fun sc -> sc = reference2.f_screens.(0)) fleet10k.f_screens
  in
  row "-- 10000 clients x %d RPCs --\n" e13_rpcs_per_client;
  row "%-36s %14d\n" "RPCs served" fleet10k.f_rpcs;
  row "%-36s %14.1f\n" "minor words per RPC" (per_rpc fleet10k);
  row "%-36s %14d\n" "major collections" fleet10k.f_majors;
  row "%-36s %14.2f\n" "fairness spread" fleet10k.f_spread;
  row "%-36s %14d\n" "p99 nine.rpc.us (logical us)" p99_10k;
  row "%-36s %14s\n" "screens = single-client run"
    (if identical_10k then "yes" else "NO");
  j13 "minor_words_per_rpc_10k" (per_rpc fleet10k);
  j13 "p99_us_10k" (float_of_int p99_10k);
  j13 "fairness_spread_10k" fleet10k.f_spread;
  j13 "screens_identical_10k" (if identical_10k then 1.0 else 0.0);
  (* the smoke-scale allocation figure the gc-smoke gate compares
     against, and the codec churn row *)
  let s3 = Session.boot () in
  let batches3 = e13_script s3 in
  let smoke = e13_fleet s3.Session.pool ~clients:256 ~batches:batches3 in
  j13 "minor_words_per_rpc_smoke" (per_rpc smoke);
  let old_words, new_words = codec_alloc_words () in
  row "-- codec buffer churn (1KB Rread encode) --\n";
  row "%-36s %14.1f %14.1f\n" "minor words per encode (old/new)" old_words
    new_words;
  j13 "encode_words_old" old_words;
  j13 "encode_words_new" new_words;
  (* per-window throughput/latency curves of the 10k fleet: each slot
     covers 65536 logical us; the count is the slot's RPC volume, the
     quantiles its latency distribution *)
  row "-- per-window latency, 10000 clients (slot width 65536 logical us) --\n";
  row "%-12s %10s %10s %10s %10s\n" "slot" "rpcs" "p50 us" "p95 us" "p99 us";
  List.iter
    (fun (slot, dc, p50, p95, p99) ->
      row "%-12d %10d %10d %10d %10d\n" slot dc p50 p95 p99)
    windows_10k;
  j13 "window_slots_populated" (float_of_int (List.length windows_10k));
  (match List.rev windows_10k with
  | (_, dc, _, _, p99) :: _ ->
      j13 "window_last_slot_rpcs" (float_of_int dc);
      j13 "window_last_slot_p99_us" (float_of_int p99)
  | [] -> ())

(* ------------------------------------------------------------------ *)
(* E14: corpus-scale indexed search.  The trigram index prunes the
   candidate set before the DFA runs; this section measures how much
   that buys on the synthetic corpus at 100x the real one, and proves
   the pruned results byte-identical to the linear scan, at rest and
   under an edit schedule. *)

(* selectivity bookkeeping: the index reports its own counters through
   stats_text; diff two snapshots to attribute candidates to a query. *)
let ix_stat text key =
  List.fold_left
    (fun acc line ->
      match String.index_opt line ' ' with
      | Some i when String.sub line 0 i = key ->
          Option.value ~default:acc
            (int_of_string_opt
               (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> acc)
    0
    (String.split_on_char '\n' text)

let e14_index ~quick () =
  section "E14" "indexed search: trigram postings feeding the lazy DFA";
  (* 100x the real corpus by default; quick mode keeps the shape but
     drops the scale so the experiment list stays interactive. *)
  let scale = if quick then 15 else 100 in
  let modules = scale * List.length Corpus.c_files in
  let ns = Vfs.create () in
  let dir = Corpus.install_synthetic ns ~modules in
  let units = List.init modules (fun i -> Printf.sprintf "mod%03d.c" i) in
  let files = List.map (fun u -> dir ^ "/" ^ u) units @ [ dir ^ "/big.h" ] in
  let ix = Index.create ns in
  let t0 = Sys.time () in
  ignore (Index.grep ix (Regexp.compile_uncached "warm_the_index_zz") files);
  let t_build = (Sys.time () -. t0) *. 1000. in
  let docs, tris, posts = Index.sizes ix in
  row "synthetic corpus at %dx: %d units; index built in %.0f ms\n" scale
    modules t_build;
  row "%d docs, %d distinct trigrams, %d postings\n" docs tris posts;
  let grep_words, fallback_words, build_words = corpus_grep_words () in
  row "120 units: %.0f minor words per pruned grep -n helper42 *.c through rc,\n\
       %.0f per unpruned grep -n '[0-9]\\);' *.c,\n\
       %.0f per unit of the first prune after install\n" grep_words fallback_words
    build_words;
  jcbr "grep_minor_words_pruned_smoke" grep_words;
  jcbr "grep_minor_words_fallback_smoke" fallback_words;
  jcbr "index_build_minor_words_per_unit_smoke" build_words;
  j14 "scale" (float_of_int scale);
  j14 "build ms" t_build;
  j14 "docs" (float_of_int docs);
  j14 "postings" (float_of_int posts);
  let mid = modules / 2 in
  let pats =
    [
      (Printf.sprintf "counter%d = counter%d" mid mid, "one-module literal");
      (Printf.sprintf "helper%d" mid, "identifier, few refs");
      (Printf.sprintf "work%d\\(x" ((mid + 1) mod modules),
       "call site, escaped paren");
      ("no_such_identifier_zz", "no match anywhere");
      ("[a-z]+ [0-9]+", "no usable trigram: fallback");
    ]
  in
  row "\n-- grep over %d units (linear = same scan, no pruning) --\n"
    (List.length files);
  row "%-28s %12s %12s %9s %12s\n" "pattern" "linear ns" "indexed ns" "speedup"
    "candidates";
  let headline = ref (0., 0.) in
  List.iter
    (fun (pat, note) ->
      let re = Regexp.compile_uncached pat in
      (if Index.hits_text (Index.grep ix re files)
          <> Index.hits_text (Index.grep_linear ix re files)
       then failwith ("E14: indexed and linear grep disagree on " ^ pat));
      let s0 = Index.stats_text ix in
      ignore (Index.grep ix re files);
      let s1 = Index.stats_text ix in
      let cand = ix_stat s1 "candidates" - ix_stat s0 "candidates" in
      let t_lin = bench_ns (fun () -> Index.grep_linear ix re files) in
      let t_idx = bench_ns (fun () -> Index.grep ix re files) in
      if fst !headline = 0. then headline := (t_lin, t_idx);
      row "%-28s %12.0f %12.0f %8.1fx %7d/%-4d %s\n" pat t_lin t_idx
        (t_lin /. max 1e-9 t_idx) cand (List.length files) note)
    pats;
  let t_lin, t_idx = !headline in
  j14 "grep linear ns" t_lin;
  j14 "grep indexed ns" t_idx;
  j14 "grep speedup x" (t_lin /. max 1e-9 t_idx);
  (let s = Index.stats_text ix in
   let q = ix_stat s "queries" in
   let c = ix_stat s "candidates" in
   let selectivity =
     float_of_int c /. float_of_int (max 1 (q * List.length files))
   in
   row "mean selectivity %.4f (%d candidates over %d queries x %d docs)\n"
     selectivity c q (List.length files);
   j14 "selectivity" selectivity);
  (* staleness under edit: the schedule a user actually produces.  Edit
     a module, query, edit it back, force a rebuild, query again; the
     pruned hits must stay byte-identical to the linear scan at every
     step. *)
  let victim = dir ^ Printf.sprintf "/mod%03d.c" (modules / 3) in
  let original = Vfs.read_file ns victim in
  let agree pat =
    let re = Regexp.compile_uncached pat in
    Index.hits_text (Index.grep ix re files)
    = Index.hits_text (Index.grep_linear ix re files)
  in
  let ok = ref true in
  Vfs.write_file ns victim (original ^ "int stale_needle_zz;\n");
  ok := !ok && agree "stale_needle_zz" && agree (Printf.sprintf "counter%d" mid);
  Vfs.write_file ns victim original;
  ok := !ok && agree "stale_needle_zz";
  Index.rebuild ix;
  ok := !ok && agree (Printf.sprintf "helper%d" mid);
  row "staleness schedule (edit / revert / rebuild): %s\n"
    (if !ok then "indexed = linear at every step" else "DIVERGED");
  j14 "staleness identical" (if !ok then 1. else 0.);
  if not !ok then failwith "E14: staleness schedule diverged";
  (* uses: the E4 workload's structural half.  The linear analysis
     parses every unit; the planner selects the units that can contain
     the identifier textually and parses only those.  The full pass is
     measured once — at 100x it is most of a minute, which is the
     point. *)
  let name = Printf.sprintf "work%d" mid in
  let anchor = Printf.sprintf "mod%03d.c" mid in
  let line =
    let rec go i = function
      | [] -> 1
      | l :: ls -> if Hstr.contains l ~sub:("int " ^ name) then i else go (i + 1) ls
    in
    go 1 (String.split_on_char '\n' (Vfs.read_file ns (dir ^ "/" ^ anchor)))
  in
  let t0 = Sys.time () in
  let full = Cbr.uses_at ns ~cwd:dir units ~file:anchor ~line ~name in
  let t_full = (Sys.time () -. t0) *. 1000. in
  let t0 = Sys.time () in
  let pruned = Cbr.uses_at ~search:ix ns ~cwd:dir units ~file:anchor ~line ~name in
  let t_pruned = (Sys.time () -. t0) *. 1000. in
  row "\n-- uses %s: parse every unit vs parse the candidates --\n" name;
  row "%-28s %12.1f %12.1f %8.1fx  results %s (%d refs)\n" "uses (ms, one pass)"
    t_full t_pruned
    (t_full /. max 1e-9 t_pruned)
    (if full = pruned then "identical" else "DIVERGED")
    (List.length full);
  if full <> pruned then failwith "E14: indexed and linear uses disagree";
  j14 "uses linear ms" t_full;
  j14 "uses indexed ms" t_pruned;
  j14 "uses speedup x" (t_full /. max 1e-9 t_pruned)

(* ------------------------------------------------------------------ *)
(* E15: durable sessions.  A write-ahead log of the public driving ops
   plus content-addressed snapshots make the session a pure function
   of (boot parameters, op prefix): kill it anywhere — including
   mid-record — recover, re-drive what the crash threw away, and the
   screen and /mnt/help/stats must come back byte-identical to the
   uninterrupted run.  Measures full-log replay and how much digest
   sharing shrinks the incremental snapshot. *)

(* The scripted workload: gestures, typing, namespace writes and
   draws — the whole logged vocabulary except the destructive ops the
   script needs to keep its own needles alive. *)
let wal_script : (Session.t -> unit) list =
  [
    (fun t -> Session.point_at t (Session.win t "help/Boot") "Exit");
    (fun t -> Session.write_file t "/tmp/notes" "draft one\n");
    (fun t -> ignore (Session.dump t));
    (fun t -> Session.type_text t "k");
    (fun t -> Session.sweep t (Session.win t "/help/edit/stf") "Pattern");
    (fun t -> Session.append_file t "/tmp/notes" "draft two\n");
    (fun t -> ignore (Session.dump t));
    (fun t -> Session.point_at t (Session.win t "/help/edit/stf") "Text");
    (fun t -> Session.mkdir t "/tmp/proj");
    (fun t -> Session.write_file t "/tmp/proj/a.txt" "alpha\n");
    (fun t -> ignore (Session.dump t));
    (fun t -> Session.sweep t (Session.win t "help/Boot") "Exit");
    (fun t -> Session.append_file t "/tmp/proj/a.txt" "beta\n");
    (fun t -> ignore (Session.dump t));
    (fun t -> Session.remove_file t "/tmp/notes");
    (fun t -> Session.write_file t "/tmp/proj/a.txt" "alpha\nbeta\ngamma\n");
    (fun t -> ignore (Session.dump t));
    (fun t -> Session.point_at t (Session.win t "help/Boot") "Exit");
  ]

let wal_checkpoint_every = 6

let wal_reference () =
  (* warm-up boot: the regexp-compile LRU is process-global, and the
     byte-compared runs must all see it equally warm *)
  ignore (Session.boot ());
  let store = Wal.create_store () in
  let t = Session.boot ~wal:store ~checkpoint_every:wal_checkpoint_every () in
  let cuts =
    List.map
      (fun op ->
        op t;
        Wal.log_pos store)
      wal_script
  in
  (store, cuts, t)

let wal_finish t =
  (* explicit sequencing: a tuple would evaluate right-to-left and read
     the stats before the final draw is logged *)
  let d = Session.dump t in
  let s = Vfs.read_file t.Session.ns "/mnt/help/stats" in
  (d, s)

(* [f ()] and the wall-clock microseconds it took. *)
let wall_us f =
  let t0 = Monotonic_clock.now () in
  let v = f () in
  (v, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e3)

(* Crash at log byte [pos], recover, re-drive the ops the crash threw
   away (everything after the last op whose record fully precedes the
   cut).  Returns the recovered session.  (Recovery's wall-clock cost is
   perfbench recover's op_ms_p50.) *)
let wal_recover_at store cuts pos =
  let t =
    Session.recover ~checkpoint_every:wal_checkpoint_every
      (Wal.truncate_log store pos)
  in
  let rec todo i = function
    | [] -> []
    | c :: rest ->
        if c <= pos then todo (i + 1) rest
        else List.filteri (fun j _ -> j >= i) wal_script
  in
  List.iter (fun op -> op t) (todo 0 cuts);
  t

let e15_durability ~quick () =
  section "E15" "durable sessions: WAL + content-addressed snapshots";
  let store, cuts, t = wal_reference () in
  let d_ref, s_ref = wal_finish t in
  row "reference run: %d script ops, %d records, %d bytes of log, %d \
       snapshots\n"
    (List.length wal_script)
    (ix_stat s_ref "wal.records")
    (Wal.log_pos store)
    (List.length (Wal.snapshots store));
  (* the fault schedule: every op boundary, and (full mode) a torn cut
     three bytes into every scripted record.  Points stay within the
     scripted log: the measurement reads after the last cut (the stats
     fetch in wal_finish) advance the trace clock without leaving log
     records, so later cuts are unreproducible by design.  Cuts before
     the initial checkpoint have no snapshot to recover from, so torn
     points start at the first snapshot's position. *)
  let last_cut = List.nth cuts (List.length cuts - 1) in
  let sn0 =
    match List.rev (Wal.snapshots store) with
    | sn :: _ -> Wal.sn_log_pos sn
    | [] -> 0
  in
  let points =
    cuts
    @
    if quick then []
    else
      List.filter
        (fun p -> p < last_cut)
        (List.map (fun p -> p + 3) (sn0 :: cuts))
  in
  let identical = ref true in
  List.iter
    (fun pos ->
      let d, s = wal_finish (wal_recover_at store cuts pos) in
      if d <> d_ref || s <> s_ref then begin
        identical := false;
        row "DIVERGED at cut %d (screen %b, stats %b)\n" pos (d = d_ref)
          (s = s_ref)
      end)
    points;
  let n = List.length points in
  row "%d crash points (boundaries%s): screens and stats %s\n" n
    (if quick then "" else " + torn records")
    (if !identical then "byte-identical after recovery" else "DIVERGED");
  j15 "crash points" (float_of_int n);
  j15 "identical" (if !identical then 1. else 0.);
  j15 "log bytes" (float_of_int (Wal.log_pos store));
  j15 "snapshots" (float_of_int (List.length (Wal.snapshots store)));
  if not !identical then failwith "E15: recovery diverged";
  (* full-log replay, decoupled from recovery: decode every record,
     then re-drive them through the public wrappers on a fresh boot *)
  let (ops, torn), decode_us = wall_us (fun () -> Wal.ops_after store ~pos:0) in
  let decode_ms = decode_us /. 1000. in
  let tr = Session.boot () in
  let (), replay_us =
    wall_us (fun () -> List.iter (fun (_, op) -> Session.apply tr op) ops)
  in
  let replay_ms = replay_us /. 1000. in
  row "full-log replay: %d ops decoded in %.2f ms (torn %d), re-driven in \
       %.1f ms\n"
    (List.length ops) decode_ms torn replay_ms;
  j15 "replay ops" (float_of_int (List.length ops));
  j15 "decode ms" decode_ms;
  j15 "replay ms" replay_ms;
  (* content addressing: a small edit between two checkpoints must cost
     roughly the edit, not the session *)
  Session.checkpoint t;
  Session.write_file t "/tmp/proj/a.txt" "alpha\nbeta\ngamma\ndelta\n";
  Session.checkpoint t;
  (match Wal.snapshots store with
  | sn :: _ ->
      let total = Wal.sn_total_bytes sn and fresh = Wal.sn_new_bytes sn in
      row "snapshot after a one-line edit: %d bytes logical, %d new (%.1f%% \
           shared)\n"
        total fresh
        (100. *. float_of_int (total - fresh) /. float_of_int (max 1 total));
      j15 "snapshot total bytes" (float_of_int total);
      j15 "snapshot new bytes" (float_of_int fresh);
      if fresh * 4 > total then
        failwith "E15: snapshot sharing bought less than 4x"
  | [] -> failwith "E15: no snapshot")

(* ------------------------------------------------------------------ *)
(* gc-smoke: the allocation-regression gate.  Re-measures the E13
   minor-allocation-per-RPC at smoke scale, the C front end's and
   cpp's minor words per unit (E4), the pruned and the unpruned corpus
   grep and the index build (E14), and the words a bug-fix replay
   allocates directly in the major heap (E10), and fails if any
   regressed more than 25% against its ledgered baseline in
   BENCH_results.json (allocation counts are deterministic, unlike wall
   time, so the threshold does not flake). *)

let ledger_float path key =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      let pat = "\"" ^ key ^ "\":" in
      (match Hstr.find s ~sub:pat with
      | None -> None
      | Some at ->
          (* the number after the key, whether a comma or the block's
             closing brace follows it *)
          let numeric c = String.contains "0123456789.-+e" c in
          let i = ref (at + String.length pat) in
          while !i < String.length s && s.[!i] = ' ' do incr i done;
          let j = ref !i in
          while !j < String.length s && numeric s.[!j] do incr j done;
          float_of_string_opt (String.sub s !i (!j - !i)))

(* One figure against its ledgered baseline; false past 1.25x. *)
let gc_check what key current =
  match ledger_float "BENCH_results.json" key with
  | None ->
      Printf.printf "gc-smoke: ok (%.1f %s; no ledgered baseline to compare)\n"
        current what;
      true
  | Some baseline when current > baseline *. 1.25 ->
      Printf.printf
        "gc-smoke FAIL: %.1f %s vs ledgered %.1f (>25%% regression)\n" current
        what baseline;
      false
  | Some baseline ->
      Printf.printf "gc-smoke: ok (%.1f %s vs ledgered %.1f)\n" current what
        baseline;
      true

let gc_smoke () =
  let s = Session.boot () in
  let batches = e13_script s in
  (* warm once so one-time lazy setup is not billed to the measurement *)
  ignore (e13_fleet s.Session.pool ~clients:1 ~batches);
  let o = e13_fleet s.Session.pool ~clients:256 ~batches in
  let rpc =
    gc_check "minor words/RPC" "minor_words_per_rpc_smoke"
      (o.f_minor /. float_of_int o.f_rpcs)
  in
  let cbr =
    gc_check "C front-end minor words/unit" "cbr_minor_words_per_unit_smoke"
      (cbr_words_per_unit ())
  in
  let cpp =
    gc_check "cpp minor words/unit" "cpp_minor_words_per_unit_smoke"
      (cpp_words_per_unit ())
  in
  let grep_words, fallback_words, build_words = corpus_grep_words () in
  let grep =
    gc_check "minor words/pruned corpus grep" "grep_minor_words_pruned_smoke"
      grep_words
  in
  let fallback =
    gc_check "minor words/unpruned corpus grep" "grep_minor_words_fallback_smoke"
      fallback_words
  in
  let build =
    gc_check "index build minor words/unit"
      "index_build_minor_words_per_unit_smoke" build_words
  in
  let draw =
    gc_check "major-heap words/bug-fix replay" "bugfix_major_words_smoke"
      (bugfix_major_words ())
  in
  exit (if rpc && cbr && cpp && grep && fallback && build && draw then 0 else 1)

(* ------------------------------------------------------------------ *)
(* E16: the manual as an application — the model's totals and the
   gesture cost of browsing it. *)

let e16_guide () =
  section "E16" "executable documentation: the manual browsed by mouse";
  let pages = Guide.pages () in
  let invs =
    List.fold_left (fun a p -> a + List.length p.Guide.p_invocations) 0 pages
  in
  let composable =
    List.fold_left
      (fun a p ->
        a
        + List.length
            (List.filter
               (fun i -> Guide.synopsis_command i <> None)
               p.Guide.p_invocations))
      0 pages
  in
  let verbs =
    List.fold_left (fun a p -> a + List.length p.Guide.p_verbs) 0 pages
  in
  let sees =
    List.fold_left (fun a p -> a + List.length p.Guide.p_see) 0 pages
  in
  row "manual: %d pages, %d synopsis entries (%d composable), %d documented \
       verbs, %d cross-references\n"
    (List.length pages) invs composable verbs sees;
  let t = Session.boot () in
  let stf = Session.win t "/help/guide/stf" in
  Session.exec_word t stf "guide";
  Session.exec_sweep t stf "guide help";
  let help_pg = Session.win t "/help/guide/help" in
  Session.exec_sweep t help_pg "guide helpfs";
  let helpfs_pg = Session.win t "/help/guide/helpfs" in
  Session.point_at t helpfs_pg "cat /mnt/help/stats";
  Session.exec_tag_word t helpfs_pg "run";
  let m = Metrics.total t.Session.metrics in
  let c name = Option.value ~default:0 (Trace.find_value name) in
  row "browse: index, help(1), a SEE ALSO hop to helpfs(4), one composed run\n";
  row "gestures: %d clicks, %d keys, %d cells of travel; %d pages opened, %d \
       invocations run\n"
    m.Metrics.clicks m.Metrics.keys m.Metrics.travel (c "guide.pages")
    (c "guide.invocations");
  row "keyboard untouched: %s\n"
    (if m.Metrics.keys = 0 then "yes (reproduced)" else "NO");
  j16 "pages" (float_of_int (List.length pages));
  j16 "synopsis_entries" (float_of_int invs);
  j16 "synopsis_composable" (float_of_int composable);
  j16 "verbs" (float_of_int verbs);
  j16 "cross_references" (float_of_int sees);
  j16 "browse_clicks" (float_of_int m.Metrics.clicks);
  j16 "browse_keys" (float_of_int m.Metrics.keys);
  j16 "browse_pages" (float_of_int (c "guide.pages"));
  j16 "browse_invocations" (float_of_int (c "guide.invocations"))

(* The command line, checked before anything runs: an unknown argument,
   a --json without a path, or a path in a directory that does not
   exist fails now, not after every section has run.  Returns the
   --json path, if any. *)
let json_path () =
  let fail msg =
    prerr_endline ("bench: " ^ msg);
    exit 2
  in
  let rec go json = function
    | [] -> json
    | [ "--json" ] -> fail "--json needs a path"
    | "--json" :: path :: rest ->
        let dir = Filename.dirname path in
        if Sys.file_exists dir && Sys.is_directory dir then go (Some path) rest
        else fail (Printf.sprintf "--json %s: no directory %s" path dir)
    | ("quick" | "search-smoke" | "gc-smoke") :: rest -> go json rest
    | arg :: _ -> fail ("unknown argument " ^ arg)
  in
  go None (List.tl (Array.to_list Sys.argv))

let () =
  let json_path = json_path () in
  if Array.exists (fun a -> a = "gc-smoke") Sys.argv then gc_smoke ();
  if Array.exists (fun a -> a = "search-smoke") Sys.argv then search_smoke ();
  let quick = Array.exists (fun a -> a = "quick") Sys.argv in
  print_endline
    "help: experiment harness for \"A Minimalist Global User Interface\" (Pike, 1991)";
  let demo = e1_demo () in
  e2_costs demo;
  e3_connectivity demo;
  e4_uses_vs_grep ();
  e5_placement ();
  e6_code_size ();
  e8_decl ();
  e9_remote ();
  e11_search ();
  e12_pool ();
  e13_serving ();
  e14_index ~quick ();
  e15_durability ~quick ();
  e16_guide ();
  if not quick then begin
    e10_scale ();
    microbenches ()
  end;
  (match json_path with Some path -> write_json path | None -> ());
  print_newline ()
