(* Integration: the booted session and the full replay of the paper's
   worked example (figures 4-12), with the structural assertions that
   make each figure checkable, and the same replay converging under a
   fault schedule. *)

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec f i = i + n <= m && (String.sub hay i n = needle || f (i + 1)) in
  n = 0 || f 0

let boot_tests =
  [
    Alcotest.test_case "boot loads the tools into the right column" `Quick
      (fun () ->
        let t = Session.boot () in
        let right =
          match List.rev (Help.columns t.Session.help) with
          | c :: _ -> c
          | [] -> Alcotest.fail "no columns"
        in
        List.iter
          (fun tool ->
            let w = Session.win t ("/help/" ^ tool ^ "/stf") in
            check_bool (tool ^ " in right column") true (Hcol.mem right w))
          [ "edit"; "cbr"; "db"; "mail" ]);
    Alcotest.test_case "boot screen shows the tool words (figure 4)" `Quick
      (fun () ->
        let t = Session.boot () in
        let scr = Session.screen t in
        List.iter
          (fun word -> check_bool word true (Screen.contains scr word))
          [ "help/Boot"; "Exit"; "Open"; "Cut"; "Paste"; "Snarf";
            "headers"; "messages"; "stack"; "regs"; "decl"; "uses" ]);
    Alcotest.test_case "profile ran: fortune output exists, binds applied" `Quick
      (fun () ->
        let t = Session.boot () in
        (* profile ends with fortune; its output reached the shell run *)
        check_bool "home bound bin" true
          (Vfs.is_dir t.Session.ns "/usr/rob/bin/rc"));
    Alcotest.test_case "the demo binary was built at boot" `Quick (fun () ->
        let t = Session.boot () in
        check_bool "8.help" true
          (Vfs.exists t.Session.ns (Corpus.src_dir ^ "/8.help")));
    Alcotest.test_case "the broken process is planted" `Quick (fun () ->
        let t = Session.boot () in
        match Db.find t.Session.db Session.crash_pid with
        | Some p -> check_str "status" "Broken" p.Db.pr_status
        | None -> Alcotest.fail "no crash");
  ]

(* one shared replay for all figure assertions (it is deterministic) *)
let outcome = lazy (Demo.run ())

let step label =
  let o = Lazy.force outcome in
  match List.find_opt (fun (s : Demo.step) -> s.s_label = label) o.Demo.steps with
  | Some s -> s
  | None -> Alcotest.fail ("no step " ^ label)

let demo_tests =
  [
    Alcotest.test_case "F5: the headers window lists seven messages" `Quick
      (fun () ->
        let s = step "F5 headers" in
        check_bool "sean's header" true (contains s.s_dump "2 sean Tue Apr 16 19:26");
        check_bool "first header" true (contains s.s_dump "1 chk@alias.com"));
    Alcotest.test_case "F6: sean's message shows the crash report" `Quick
      (fun () ->
        let s = step "F6 message" in
        check_bool "tag" true (contains s.s_dump "From sean");
        check_bool "crash text" true (contains s.s_dump "TLB miss"));
    Alcotest.test_case "F7: the stack window names sources and lines" `Quick
      (fun () ->
        let s = step "F7 stack" in
        check_bool "tag carries src dir and pid" true
          (contains s.s_dump "/usr/rob/src/help/ 176153 stack");
        check_bool "strlen frame" true (contains s.s_dump "strlen(s=#0) called from textinsert");
        check_bool "file:line refs" true (contains s.s_dump "text.c:");
        check_bool "locals shown" true (contains s.s_dump "n = #3d7cc"));
    Alcotest.test_case "F8: text.c opens with the strlen line selected" `Quick
      (fun () ->
        let s = step "F8 text.c" in
        check_bool "window" true (contains s.s_dump "/usr/rob/src/help/text.c");
        check_bool "source visible" true (contains s.s_dump "strlen((char*)s)"));
    Alcotest.test_case "F9: exec.c opens at the errs call" `Quick (fun () ->
        let s = step "F9 exec.c" in
        check_bool "window" true (contains s.s_dump "/usr/rob/src/help/exec.c");
        check_bool "call visible" true (contains s.s_dump "errs((uchar*)n)"));
    Alcotest.test_case "F10: uses window lists the semantic references" `Quick
      (fun () ->
        let s = step "F10 uses" in
        check_bool "uses window tag" true (contains s.s_dump "uses n");
        let o = Lazy.force outcome in
        let uses_win = Help.window_by_name o.Demo.session.Session.help
            "/usr/rob/src/help/" in
        (* locate by content instead: the uses window body *)
        ignore uses_win;
        let found =
          List.exists
            (fun w -> contains (Htext.string (Hwin.body w)) "./dat.h:")
            (Help.windows o.Demo.session.Session.help)
        in
        check_bool "dat.h reference in some window" true found);
    Alcotest.test_case "F12: the fix is on disk and only exec.c recompiled" `Quick
      (fun () ->
        let o = Lazy.force outcome in
        let t = o.Demo.session in
        let disk = Vfs.read_file t.Session.ns (Corpus.src_dir ^ "/exec.c") in
        check_bool "offending line removed" false (contains disk "\tn = 0;");
        match Help.window_by_name t.Session.help "Errors" with
        | Some e ->
            let body = Htext.string (Hwin.body e) in
            check_bool "vc ran on exec.c only" true (contains body "vc -w exec.c");
            check_bool "no other vc" false (contains body "vc -w help.c");
            check_bool "relinked" true (contains body "vl -o 8.help")
        | None -> Alcotest.fail "no Errors window");
    Alcotest.test_case "E1: the whole demo uses zero keystrokes" `Quick (fun () ->
        let o = Lazy.force outcome in
        let keys =
          List.fold_left
            (fun acc (s : Demo.step) -> acc + s.s_counts.Metrics.keys)
            0 o.Demo.steps
        in
        check_int "keys" 0 keys);
    Alcotest.test_case "E1: per-step click economy" `Quick (fun () ->
        (* reading mail: one click; message: two; stack: two *)
        check_int "headers" 1 (step "F5 headers").s_counts.Metrics.clicks;
        check_int "message" 2 (step "F6 message").s_counts.Metrics.clicks;
        (* point + stack + the right-button drag to the left column *)
        check_int "stack" 3 (step "F7 stack").s_counts.Metrics.clicks);
    Alcotest.test_case "E3: connectivity grows across the session" `Quick
      (fun () ->
        let o = Lazy.force outcome in
        let series = List.map (fun (s : Demo.step) -> s.s_connectivity) o.Demo.steps in
        match (series, List.rev series) with
        | first :: _, last :: _ ->
            check_bool "grows substantially" true (last > first + 10)
        | _ -> Alcotest.fail "no steps");
    Alcotest.test_case "the replay is fully deterministic" `Quick (fun () ->
        let a = Lazy.force outcome in
        let b = Demo.run () in
        List.iter2
          (fun (x : Demo.step) (y : Demo.step) ->
            check_str ("dump of " ^ x.s_label) x.s_dump y.s_dump;
            check_int ("clicks of " ^ x.s_label) x.s_counts.Metrics.clicks
              y.s_counts.Metrics.clicks;
            check_int ("connectivity of " ^ x.s_label) x.s_connectivity
              y.s_connectivity)
          a.Demo.steps b.Demo.steps);
    Alcotest.test_case "the replay converges under a 10% fault schedule" `Quick
      (fun () ->
        let clean = Lazy.force outcome in
        let faulty =
          Demo.run ~fault:{ Fault.default with seed = 0xbead; rate = 0.1 } ()
        in
        List.iter2
          (fun (x : Demo.step) (y : Demo.step) ->
            check_str ("screen of " ^ x.s_label) x.s_dump y.s_dump)
          clean.Demo.steps faulty.Demo.steps;
        let fids o = Nine.Pool.fid_count o.Demo.session.Session.pool in
        check_int "no leaked fids" (fids clean) (fids faulty);
        (* the ledger, reset at the faulted boot, describes that run *)
        let v k = Option.value ~default:0 (Trace.find_value k) in
        check_bool "faults were injected" true (v "nine.fault.injected" > 0);
        check_bool "the client retried" true
          (List.exists
             (fun k -> v ("nine.retry." ^ k) > 0)
             [ "version"; "attach"; "walk"; "stat"; "read"; "clunk" ]);
        let stats =
          Rc.run faulty.Demo.session.Session.sh "cat /mnt/help/stats"
        in
        check_int "stats status" 0 stats.Rc.r_status;
        check_bool "faults and retries served in /mnt/help/stats" true
          (contains stats.Rc.r_out "nine.fault.injected"
          && contains stats.Rc.r_out "nine.retry."));
    Alcotest.test_case "windows never lose the tag-or-covered invariant" `Quick
      (fun () ->
        let o = Lazy.force outcome in
        let help = o.Demo.session.Session.help in
        List.iter
          (fun col ->
            List.iter
              (fun g -> check_bool "geometry positive" true (g.Hcol.g_h >= 1))
              (Hcol.geoms col ~h:(Help.height help)))
          (Help.columns help));
  ]

(* A booted session whose exec.c ends in an unterminated comment, open
   with the mouse on the global n; returns the file's good text too. *)
let unlexable_exec () =
  let t = Session.boot () in
  let path = Corpus.src_dir ^ "/exec.c" in
  let original = Vfs.read_file t.Session.ns path in
  Session.write_file t path (original ^ "/* never closed\n");
  (match Help.open_file t.Session.help ~dir:"/" path with
  | Some _ -> ()
  | None -> Alcotest.fail "open exec.c");
  Session.point_at t (Session.win t path) "(uchar*)n)" ~off:8;
  (t, original)

let errors_text t =
  match Help.window_by_name t.Session.help "Errors" with
  | Some w -> Htext.string (Hwin.body w)
  | None -> ""

let gesture_tests =
  [
    Alcotest.test_case
      "E8: three clicks fetch a declaration from another file" `Quick
      (fun () ->
        let t = Session.boot () in
        (match
           Help.open_file t.Session.help ~dir:"/" (Corpus.src_dir ^ "/exec.c")
         with
        | Some _ -> ()
        | None -> Alcotest.fail "open exec.c");
        let exec_win = Session.win t (Corpus.src_dir ^ "/exec.c") in
        let _ = Metrics.mark t.Session.metrics "setup" in
        Session.point_at t exec_win "(uchar*)n)" ~off:8;
        Session.exec_word t (Session.win t "/help/cbr/stf") "decl";
        Session.exec_word t (Session.win t "/help/edit/stf") "Open";
        let c = Metrics.mark t.Session.metrics "decl" in
        check_int "three clicks" 3 c.Metrics.clicks;
        check_int "zero keys" 0 c.Metrics.keys;
        match Help.window_by_name t.Session.help (Corpus.src_dir ^ "/dat.h") with
        | Some w ->
            let q0, q1 = Htext.sel (Hwin.body w) in
            check_str "the declaration is selected" "extern char *n;"
              (Htext.read (Hwin.body w) q0 q1)
        | None -> Alcotest.fail "dat.h not opened");
    Alcotest.test_case "scripted sweep selects exactly the needle" `Quick (fun () ->
        let t = Session.boot () in
        let w =
          match Help.open_file t.Session.help ~dir:"/" (Corpus.src_dir ^ "/errs.c") with
          | Some w -> w
          | None -> Alcotest.fail "open"
        in
        Session.sweep t w "geterrpage";
        match Help.current_selection t.Session.help with
        | Some (_, ht) -> check_str "selected" "geterrpage" (Htext.selected ht)
        | None -> Alcotest.fail "no selection");
    Alcotest.test_case "exec_word runs a command from the screen" `Quick (fun () ->
        let t = Session.boot () in
        let edit = Session.win t "/help/edit/stf" in
        Session.exec_word t edit "New";
        (* a fresh unnamed window appeared *)
        check_bool "new window" true
          (List.exists (fun w -> Hwin.tag_text w = "") (Help.windows t.Session.help)));
    Alcotest.test_case "mk and decl on unlexable C report to Errors" `Quick
      (fun () ->
        let t, _ = unlexable_exec () in
        let cbr = Session.win t "/help/cbr/stf" in
        Session.exec_word t cbr "decl";
        Session.exec_word t cbr "mk";
        (* reported where the input ran out, the line after the opener *)
        let line =
          Corpus.line_of t.Session.ns (Corpus.src_dir ^ "/exec.c") "/* never"
          + 1
        in
        let errors = errors_text t in
        List.iter
          (fun tool ->
            check_bool (tool ^ " reports the comment") true
              (contains errors
                 (Printf.sprintf "%s: exec.c:%d: unterminated comment" tool
                    line)))
          [ "rcc"; "vc" ]);
    Alcotest.test_case "mk succeeds again once the file is fixed" `Quick
      (fun () ->
        let t, original = unlexable_exec () in
        let cbr = Session.win t "/help/cbr/stf" in
        Session.exec_word t cbr "mk";
        let failed = errors_text t in
        check_bool "first mk failed" true
          (contains failed "unterminated comment");
        Session.write_file t (Corpus.src_dir ^ "/exec.c") original;
        Session.exec_word t cbr "mk";
        let after = errors_text t in
        let tail =
          String.sub after (String.length failed)
            (String.length after - String.length failed)
        in
        check_bool "recompiled" true (contains tail "vc -w exec.c");
        check_bool "relinked" true (contains tail "vl -o 8.help");
        check_bool "no new error" false (contains tail "vc: "));
    Alcotest.test_case "type_text goes to the window under the mouse" `Quick
      (fun () ->
        let t = Session.boot () in
        let boot = Session.win t "help/Boot" in
        Session.point_at t boot "Exit";
        Session.type_text t "zzz";
        check_bool "typed" true
          (contains (Htext.string (Hwin.body boot)) "zzz"));
  ]

let () =
  Alcotest.run "session"
    [ ("boot", boot_tests); ("demo", demo_tests); ("gestures", gesture_tests) ]
