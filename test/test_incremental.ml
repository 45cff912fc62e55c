(* The incremental pipeline must be invisible: damage-tracked drawing,
   the per-unit analysis cache and the regexp LRU all have to produce
   exactly what the from-scratch computation produces.  These tests
   drive each cache through randomized histories and compare against
   the uncached path. *)

let mk_help () =
  let ns = Vfs.create () in
  Corpus.install ns;
  let sh = Rc.create ns in
  Coreutils.install sh;
  let help = Help.create ~w:90 ~h:30 ns sh in
  List.iteri
    (fun i f ->
      if i < 3 then
        ignore (Help.open_file help ~dir:"/" (Corpus.src_dir ^ "/" ^ f)))
    Corpus.c_files;
  help

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let draw_cache_effective () =
  let help = mk_help () in
  ignore (Help.draw help);
  ignore (Help.draw help);
  let draws, full, cols, wins, clean = Help.draw_stats help in
  check_int "two draws" 2 draws;
  check_int "one full repaint (the first)" 1 full;
  check_int "no column repaints" 0 cols;
  check_int "no window repaints on the quiet second draw" 0 wins;
  check_bool "second draw found clean windows" true (clean > 0)

(* [Help.draw] lends its persistent screen and repaints it in place; a
   caller that keeps a screen takes [Screen.copy]. *)
let draw_lends_the_live_screen () =
  let help = mk_help () in
  let s1 = Help.draw help in
  let before = Screen.dump_attrs s1 in
  let kept = Screen.copy s1 in
  ignore
    (Help.open_file help ~dir:"/"
       (Corpus.src_dir ^ "/" ^ List.nth Corpus.c_files 4));
  let s2 = Help.draw help in
  check_bool "two draws return the same screen" true (s1 == s2);
  check_bool "the next draw repainted it" true (Screen.dump_attrs s2 <> before);
  Alcotest.(check string)
    "a copy taken before the edit keeps its cells" before
    (Screen.dump_attrs kept)

let corpus_cached_analyze () =
  let ns = Vfs.create () in
  Corpus.install ns;
  let idx = Cbr.create_index () in
  let dir = Corpus.src_dir in
  let files = Corpus.c_files in
  let eq label =
    check_bool label true
      (Cbr.analyze ~index:idx ns ~cwd:dir files = Cbr.analyze ns ~cwd:dir files)
  in
  eq "cold cache equals fresh analysis";
  eq "warm cache equals fresh analysis";
  Vfs.append_file ns (dir ^ "/text.c") "\nint probe_incremental;\n";
  eq "after an edit the cache re-parses just that unit";
  let hits, misses = Cbr.index_stats idx in
  check_bool "the cache both hit and missed" true (hits > 0 && misses > 0);
  check_bool "edits cost misses, not a flush" true (hits > misses)

let regexp_lru () =
  let a = Regexp.compile "ab+c" in
  let b = Regexp.compile "ab+c" in
  check_bool "repeated compile returns the memoized program" true (a == b);
  let c = Regexp.compile_uncached "ab+c" in
  check_bool "compile_uncached is fresh" true (c != a);
  check_bool "cached and uncached agree" true
    (Regexp.search a "xxabbbcyy" 0 = Regexp.search c "xxabbbcyy" 0);
  check_bool "errors stay uncached and still raise" true
    (match Regexp.compile "(ab" with
    | exception Regexp.Parse_error _ -> true
    | _ -> false)

(* The lazy DFA's bounded state cache must be deterministic: the same
   workload after a [Trace.reset] (or a [Session.boot], which resets)
   builds the same states, flushes at the same points, and moves the
   regexp.dfa.* counters by the same deltas. *)
let dfa_flush_determinism () =
  let counters () =
    let v name = match Trace.find_value name with Some v -> v | None -> 0 in
    ( v "regexp.dfa.cache_hit",
      v "regexp.dfa.cache_miss",
      v "regexp.dfa.flush" )
  in
  let workload () =
    (* fresh program so the DFA is rebuilt from nothing each run; the
       absent 'c' forces a full scan that overflows a tiny cache *)
    let re = Regexp.compile_uncached "a[ab][ab][ab][ab]c" in
    let hay =
      String.concat "" (List.init 40 (fun i -> if i mod 2 = 0 then "ab" else "ba"))
    in
    ignore (Regexp.search re hay 0);
    ignore (Regexp.matches re (hay ^ "x"));
    ignore (Regexp.search re ("zz" ^ hay) 1);
    (Regexp.dfa_state_count re, Regexp.dfa_flush_count re, counters ())
  in
  Regexp.set_dfa_capacity 8;
  Trace.reset ();
  let base1 = counters () in
  let r1 = workload () in
  Trace.reset ();
  let base2 = counters () in
  let r2 = workload () in
  ignore (Session.boot ());
  let base3 = counters () in
  let r3 = workload () in
  Regexp.set_dfa_capacity 256;
  check_bool "reset zeroes the regexp.dfa counters" true
    (base1 = (0, 0, 0) && base2 = (0, 0, 0) && base3 = (0, 0, 0));
  check_bool "identical workload after Trace.reset is identical" true (r1 = r2);
  check_bool "identical workload after Session.boot is identical" true (r1 = r3);
  let _, flushes, _ = r1 in
  check_bool "the tiny cache really flushed" true (flushes > 0)

(* The live screen [Session.screen] lends equals a from-scratch draw at
   boot and after every gesture of the bug-fix session, whose gestures
   run rc, write through 9P and drag a window. *)
let bugfix_screens_match_full_draw ~remote () =
  let t = Session.boot ~h:48 ~remote () in
  let check label =
    check_bool
      (label ^ ": live screen equals a from-scratch draw")
      true
      (Screen.equal (Session.screen t) (Help.draw_full t.Session.help))
  in
  check "boot";
  List.iteri
    (fun i g ->
      g t;
      check (Printf.sprintf "gesture %d" (i + 1)))
    Bugfix_script.gestures

let unit_tests =
  [
    Alcotest.test_case "quiet draws are all-clean" `Quick draw_cache_effective;
    Alcotest.test_case "draw lends one live screen" `Quick
      draw_lends_the_live_screen;
    Alcotest.test_case "cbr cache on the real corpus" `Quick
      corpus_cached_analyze;
    Alcotest.test_case "regexp compile LRU" `Quick regexp_lru;
    Alcotest.test_case "dfa cache flush is deterministic under reset" `Quick
      dfa_flush_determinism;
    Alcotest.test_case "bug-fix screens = full draw, local" `Slow
      (bugfix_screens_match_full_draw ~remote:false);
    Alcotest.test_case "bug-fix screens = full draw, remote" `Slow
      (bugfix_screens_match_full_draw ~remote:true);
  ]

(* ------------------------------------------------------------------ *)
(* Property: the damage-tracked screen is byte-identical to a          *)
(* from-scratch draw after any event history.                          *)

let buttons = [| Help.Left; Help.Middle; Help.Right |]

let apply_op help (tag, a, b) =
  match tag mod 8 with
  | 0 | 1 -> Help.event help (Help.Move (a mod 90, b mod 30))
  | 2 -> Help.event help (Help.Press buttons.(a mod 3))
  | 3 -> Help.event help (Help.Release buttons.(a mod 3))
  | 4 -> Help.event help (Help.Key (Char.chr (97 + (a mod 26))))
  | 5 ->
      let files = Corpus.c_files in
      let f = List.nth files (a mod List.length files) in
      ignore (Help.open_file help ~dir:"/" (Corpus.src_dir ^ "/" ^ f))
  | 6 -> (
      match Help.windows help with
      | _ :: _ :: _ as ws ->
          Help.close_window help (List.nth ws (a mod List.length ws))
      | _ -> ())
  | _ -> (
      match Help.windows help with
      | [] -> ()
      | ws ->
          let w = List.nth ws (a mod List.length ws) in
          ignore (Help.ctl_command help w (Printf.sprintf "show %d" (b mod 500))))

let ops_gen =
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 1 25)
        (triple (int_range 0 7) (int_range 0 1000) (int_range 0 1000)))

let prop_draw_identical =
  QCheck.Test.make
    ~name:"damage-tracked redraw is byte-identical to a from-scratch draw"
    ~count:40 ops_gen (fun ops ->
      let help = mk_help () in
      List.for_all
        (fun op ->
          apply_op help op;
          Screen.equal (Help.draw help) (Help.draw_full help))
        ops)

(* ------------------------------------------------------------------ *)
(* Property: the unit-cached analysis equals the fresh analysis after  *)
(* any history of file edits, header edits, rewrites, and no-op        *)
(* touches.                                                            *)

let modules = 5

let mutate ns dir (sel, variant) =
  let unit_path = Printf.sprintf "%s/mod%03d.c" dir (sel mod modules) in
  match variant mod 8 with
  | 0 | 1 | 2 ->
      Vfs.append_file ns unit_path
        (Printf.sprintf "\nint extra%d_%d;\n" sel variant)
  | 3 | 4 ->
      (* a header edit: every unit sees the new typedef *)
      Vfs.append_file ns (dir ^ "/big.h")
        (Printf.sprintf "typedef int td%d_%d;\n" sel variant)
  | 5 ->
      (* touch without change: must be all cache hits *)
      Vfs.write_file ns unit_path (Vfs.read_file ns unit_path)
  | 6 ->
      Vfs.append_file ns unit_path
        (Printf.sprintf "\nint broken%d(  /* unclosed */\n" sel)
  | _ ->
      Vfs.write_file ns unit_path
        (Printf.sprintf
           "#include \"big.h\"\n\nstatic int solo%d(int v)\n{\n\treturn v + %d;\n}\n"
           sel variant)

let edits_gen =
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 1 6) (pair (int_range 0 20) (int_range 0 20)))

let prop_analyze_identical =
  QCheck.Test.make ~name:"unit-cached analysis equals fresh analysis"
    ~count:25 edits_gen (fun edits ->
      let ns = Vfs.create () in
      let dir = Corpus.install_synthetic ns ~modules in
      let files = List.init modules (fun i -> Printf.sprintf "mod%03d.c" i) in
      let idx = Cbr.create_index () in
      let agree () =
        Cbr.analyze ~index:idx ns ~cwd:dir files = Cbr.analyze ns ~cwd:dir files
      in
      agree ()
      && List.for_all
           (fun edit ->
             mutate ns dir edit;
             agree ())
           edits)

let () =
  Alcotest.run "incremental"
    [
      ("unit", unit_tests);
      ( "property",
        List.map (Seeded.to_alcotest 17)
          [ prop_draw_identical; prop_analyze_identical ] );
    ]
