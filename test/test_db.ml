(* Debugger substrate: vc/vl toolchain, symbol tables, adb, the
   /help/db scripts' building blocks. *)

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec f i = i + n <= m && (String.sub hay i n = needle || f (i + 1)) in
  n = 0 || f 0

let fresh () =
  let ns = Vfs.create () in
  Corpus.install ns;
  let sh = Rc.create ns in
  Coreutils.install sh;
  Mk.install sh;
  Cbr.install sh;
  let db = Db.create () in
  Db.install sh db;
  (ns, sh, db)

let toolchain_tests =
  [
    Alcotest.test_case "vc emits a symbol table object" `Quick (fun () ->
        let ns, sh, _ = fresh () in
        let r = Rc.run sh ~cwd:Corpus.src_dir "vc -w exec.c" in
        check_int "status" 0 r.Rc.r_status;
        let syms = Db.load_symtab ns (Corpus.src_dir ^ "/exec.v") in
        check_bool "Xdie1 present" true
          (List.exists (fun s -> s.Db.sym_name = "Xdie1" && s.sym_kind = "func") syms);
        check_bool "n present as global" true
          (List.exists (fun s -> s.Db.sym_name = "n" && s.sym_kind = "global") syms));
    Alcotest.test_case "vc rejects broken C" `Quick (fun () ->
        let ns, sh, _ = fresh () in
        Vfs.write_file ns (Corpus.src_dir ^ "/bad.c") "int broken( {\n";
        let r = Rc.run sh ~cwd:Corpus.src_dir "vc -w bad.c" in
        check_bool "fails" true (r.Rc.r_status <> 0);
        check_bool "diagnostic" true (String.length r.Rc.r_err > 0));
    Alcotest.test_case "vc reports a lexical error with status 1" `Quick
      (fun () ->
        let ns, sh, _ = fresh () in
        List.iter
          (fun (text, want) ->
            Vfs.write_file ns (Corpus.src_dir ^ "/bad.c") text;
            let r = Rc.run sh ~cwd:Corpus.src_dir "vc -w bad.c" in
            check_int "status" 1 r.Rc.r_status;
            check_str "message" want r.Rc.r_err)
          [ ("int x;\n/* never closed\n", "vc: bad.c:3: unterminated comment\n");
            ("char *s = \"abc;\nint y;\n", "vc: bad.c:1: newline in string\n") ]);
    Alcotest.test_case "vl links objects, dedupes symbols" `Quick (fun () ->
        let ns, sh, _ = fresh () in
        let _ = Rc.run sh ~cwd:Corpus.src_dir "vc -w exec.c; vc -w help.c" in
        let r = Rc.run sh ~cwd:Corpus.src_dir "vl -o exe exec.v help.v" in
        check_int "status" 0 r.Rc.r_status;
        let syms = Db.load_symtab ns (Corpus.src_dir ^ "/exe") in
        check_int "one n" 1
          (List.length (List.filter (fun s -> s.Db.sym_name = "n") syms)));
    Alcotest.test_case "mk drives vc and vl" `Quick (fun () ->
        let ns, sh, _ = fresh () in
        let r = Rc.run sh ~cwd:Corpus.src_dir "mk" in
        check_int "status" 0 r.Rc.r_status;
        check_bool "binary exists" true (Vfs.exists ns (Corpus.src_dir ^ "/8.help"));
        check_bool "echoes recipes" true (contains r.Rc.r_out "vc -w exec.c"));
    Alcotest.test_case "symtab of a non-object fails" `Quick (fun () ->
        let ns, _, _ = fresh () in
        check_bool "raises" true
          (match Db.load_symtab ns (Corpus.src_dir ^ "/exec.c") with
          | exception Vfs.Error _ -> true
          | _ -> false));
  ]

(* a session-like planted process for adb tests *)
let plant (_ns, sh, db) =
  let _ = Rc.run sh ~cwd:Corpus.src_dir "mk" in
  Db.add_process db
    {
      Db.pr_pid = 42;
      pr_cmd = "help";
      pr_status = "Broken";
      pr_binary = Corpus.src_dir ^ "/8.help";
      pr_note = "TLB miss (load or fetch)";
      pr_insn = "strchr.s:34 strchr+#68? MOVW 0(R3), R5";
      pr_regs = [ ("pc", "0x18df4"); ("sp", "0x3f4e8") ];
      pr_frames =
        [
          { Db.fr_func = "strlen"; fr_args = [ ("s", "#0") ];
            fr_callsite = ("text.c", 32); fr_locals = [] };
          { fr_func = "textinsert";
            fr_args = [ ("sel", "#1"); ("s", "#0") ];
            fr_callsite = ("errs.c", 34); fr_locals = [ ("n", "#3d7cc") ] };
          { fr_func = "nowhere"; fr_args = []; fr_callsite = ("x.c", 1);
            fr_locals = [] };
        ];
    }

let adb_tests =
  [
    Alcotest.test_case "stack trace with locals" `Quick (fun () ->
        let (_, sh, _) as ctx = fresh () in
        plant ctx;
        let r = Rc.run sh ~cwd:Corpus.src_dir "echo '$C' | adb 42" in
        check_int "status" 0 r.Rc.r_status;
        check_bool "exception line" true (contains r.Rc.r_out "last exception: TLB miss");
        check_bool "frame with callsite" true
          (contains r.Rc.r_out "strlen(s=#0) called from textinsert");
        check_bool "file:line" true (contains r.Rc.r_out "text.c:32");
        check_bool "locals" true (contains r.Rc.r_out "n = #3d7cc"));
    Alcotest.test_case "$c omits locals" `Quick (fun () ->
        let (_, sh, _) as ctx = fresh () in
        plant ctx;
        let r = Rc.run sh ~cwd:Corpus.src_dir "echo '$c' | adb 42" in
        check_bool "no locals" false (contains r.Rc.r_out "n = #3d7cc"));
    Alcotest.test_case "unknown function degrades to no-symbol line" `Quick
      (fun () ->
        let (_, sh, _) as ctx = fresh () in
        plant ctx;
        let r = Rc.run sh ~cwd:Corpus.src_dir "echo '$C' | adb 42" in
        check_bool "honest about missing symbols" true
          (contains r.Rc.r_out "no symbol information"));
    Alcotest.test_case "registers" `Quick (fun () ->
        let (_, sh, _) as ctx = fresh () in
        plant ctx;
        let r = Rc.run sh ~cwd:Corpus.src_dir "echo '$r' | adb 42" in
        check_bool "pc" true (contains r.Rc.r_out "pc\t0x18df4"));
    Alcotest.test_case "$s reports the source directory" `Quick (fun () ->
        let (_, sh, _) as ctx = fresh () in
        plant ctx;
        let r = Rc.run sh ~cwd:"/" "echo '$s' | adb 42" in
        check_str "srcdir" (Corpus.src_dir ^ "\n") r.Rc.r_out);
    Alcotest.test_case "no such process" `Quick (fun () ->
        let _, sh, _ = fresh () in
        let r = Rc.run sh "echo '$C' | adb 99" in
        check_bool "fails" true (r.Rc.r_status <> 0));
    Alcotest.test_case "ps lists processes" `Quick (fun () ->
        let (_, sh, _) as ctx = fresh () in
        plant ctx;
        let r = Rc.run sh "ps" in
        check_bool "pid and status" true
          (contains r.Rc.r_out "42" && contains r.Rc.r_out "Broken"));
    Alcotest.test_case "broke-style pipeline" `Quick (fun () ->
        let (_, sh, _) as ctx = fresh () in
        plant ctx;
        let r = Rc.run sh "ps | grep Broken" in
        check_bool "found" true (contains r.Rc.r_out "42"));
  ]

let () =
  Alcotest.run "db" [ ("toolchain", toolchain_tests); ("adb", adb_tests) ]
