(* The guide: man pages parsed into a clickable model, rendered as
   windows, served in-band, and driven entirely by mouse; and the lint
   that holds README.md, doc/ and the lib/ interfaces to the tree. *)

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec f i = i + n <= m && (String.sub hay i n = needle || f (i + 1)) in
  n = 0 || f 0

let page_of text = Guide.parse ~file:"test" text

(* dune runs the tests in _build/default/test, and the stanza's deps
   put the repository's docs and sources under _build/default; run by
   hand from the repository root, the tests read the tree itself. *)
let in_root =
  Filename.concat (if Sys.file_exists "../doc" then ".." else ".")
let read_file path = In_channel.with_open_bin path In_channel.input_all

let all_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

(* The registry as module initialization leaves it: the instruments
   every linked library registers, before any session adds its own. *)
let registry = Trace.stats_text ()

let wrap synopsis =
  "# TESTPAGE(9)\n\n## NAME\n\ntestpage \xe2\x80\x94 a synthetic page\n\n\
   ## SYNOPSIS\n\n" ^ synopsis ^ "\n"

(* ------------------------------------------------------------------ *)
(* Parser units                                                        *)

let parser_tests =
  [
    Alcotest.test_case "title, name and section" `Quick (fun () ->
        let p = page_of (wrap "`foo`") in
        check_str "name" "testpage" p.Guide.p_name;
        check_int "section" 9 p.Guide.p_section;
        check_str "title" "a synthetic page" p.Guide.p_title;
        Alcotest.(check (list string)) "no warnings" [] p.Guide.p_warnings);
    Alcotest.test_case "synopsis grammar" `Quick (fun () ->
        let p =
          page_of (wrap "`foo -a bar` *x* *[y ...]* \xc2\xb7 `foo` *z*")
        in
        Alcotest.(check int) "two entries" 2 (List.length p.Guide.p_invocations);
        let i1 = List.nth p.Guide.p_invocations 0 in
        check_str "cmd" "foo" i1.Guide.i_cmd;
        check_bool "items" true
          (i1.Guide.i_items
          = [
              Guide.S_flag "-a"; Guide.S_lit "bar"; Guide.S_arg "x";
              Guide.S_opt "y ...";
            ]);
        let i2 = List.nth p.Guide.p_invocations 1 in
        check_bool "second" true (i2.Guide.i_items = [ Guide.S_arg "z" ]));
    Alcotest.test_case "drift warns, never raises" `Quick (fun () ->
        let p = page_of (wrap "`$path` \xc2\xb7 *orphan*") in
        check_int "no invocations" 0 (List.length p.Guide.p_invocations);
        check_int "two warnings" 2 (List.length p.Guide.p_warnings));
    Alcotest.test_case "only the first paragraph is machine-read" `Quick
      (fun () ->
        let p = page_of (wrap "`foo`\n\n(prose mentioning `$path` freely)") in
        check_int "one entry" 1 (List.length p.Guide.p_invocations);
        Alcotest.(check (list string)) "no warnings" [] p.Guide.p_warnings);
    Alcotest.test_case "command sections explode multi-name entries" `Quick
      (fun () ->
        let text =
          wrap "`foo`"
          ^ "\n## COMMANDS\n\n`a`, `b`\n: Both of them.\n\n`s` */re/*\n\
             : Substitute.\n"
        in
        let p = page_of text in
        let names = List.map (fun v -> v.Guide.v_name) p.Guide.p_verbs in
        check_bool "names" true (names = [ "a"; "b"; "s" ]);
        let s = List.nth p.Guide.p_verbs 2 in
        check_bool "args" true (s.Guide.v_args = [ "/re/" ]);
        check_str "desc" "Substitute." s.Guide.v_desc);
    Alcotest.test_case "see also references" `Quick (fun () ->
        let text =
          wrap "`foo`" ^ "\n## SEE ALSO\n\nhelp(1), nine(5), help(1) again.\n"
        in
        let p = page_of text in
        check_bool "deduped, ordered" true
          (p.Guide.p_see = [ ("help", 1); ("nine", 5) ]));
  ]

(* ------------------------------------------------------------------ *)
(* Round trip: synopsis_string is the inverse of parse                 *)

let inv_gen =
  let open QCheck.Gen in
  let word =
    map
      (fun l -> String.concat "" (List.map (String.make 1) l))
      (list_size (int_range 1 6)
         (map Char.chr (int_range (Char.code 'a') (Char.code 'z'))))
  in
  let span_item =
    oneof
      [
        map (fun w -> Guide.S_flag ("-" ^ w)) word;
        map (fun w -> Guide.S_lit w) word;
      ]
  in
  let ital_item =
    oneof
      [
        map (fun w -> Guide.S_arg w) word;
        map (fun w -> Guide.S_opt (w ^ " ...")) word;
      ]
  in
  let inv =
    map2
      (fun cmd (spans, itals) -> { Guide.i_cmd = cmd; i_items = spans @ itals })
      word
      (pair (list_size (int_range 0 3) span_item)
         (list_size (int_range 0 2) ital_item))
  in
  list_size (int_range 1 3) inv

let prop_roundtrip =
  QCheck.Test.make ~name:"generated SYNOPSIS lines round-trip" ~count:300
    (QCheck.make
       ~print:(fun invs ->
         String.concat " \xc2\xb7 " (List.map Guide.synopsis_string invs))
       inv_gen)
    (fun invs ->
      let line =
        String.concat " \xc2\xb7 " (List.map Guide.synopsis_string invs)
      in
      let p = page_of (wrap line) in
      p.Guide.p_warnings = [] && p.Guide.p_invocations = invs)

(* ------------------------------------------------------------------ *)
(* The embedded manual                                                 *)

let manual_tests =
  [
    Alcotest.test_case "every page parses warning-free and clickable" `Quick
      (fun () ->
        let t = Session.boot () in
        let ps = Guide.pages () in
        let names = List.map (fun p -> p.Guide.p_name) ps in
        check_int "eight pages" 8 (List.length ps);
        List.iter
          (fun p ->
            let name = p.Guide.p_name in
            Alcotest.(check (list string)) (name ^ " warnings") []
              p.Guide.p_warnings;
            check_bool (name ^ " named") true
              (name <> "" && p.Guide.p_title <> "" && p.Guide.p_section > 0);
            check_bool (name ^ " has invocations") true
              (p.Guide.p_invocations <> []);
            List.iter
              (fun inv ->
                let cmd = Guide.synopsis_command inv in
                check_bool
                  (name ^ ": " ^ Guide.invocation_text inv ^ " composes")
                  true (cmd <> None);
                (* a composed line runs in a booted session: its command
                   resolves and the files it names exist *)
                match String.split_on_char ' ' (Option.value ~default:"" cmd)
                      |> List.filter (fun w -> w <> "")
                with
                | [] -> ()
                | verb :: args ->
                    check_bool (name ^ ": " ^ verb ^ " resolves") true
                      (Help.builtin verb
                      || Rc.resolve t.Session.sh ~cwd:"/help/guide" verb
                         <> None);
                    List.iter
                      (fun w ->
                        if w.[0] = '/' then
                          check_bool (name ^ ": " ^ w ^ " exists") true
                            (Vfs.exists t.Session.ns w))
                      args)
              p.Guide.p_invocations;
            List.iter
              (fun (see, sec) ->
                check_bool
                  (Printf.sprintf "%s: SEE ALSO %s(%d) has a page" name see sec)
                  true (List.mem see names))
              p.Guide.p_see)
          ps);
    Alcotest.test_case "help page documents exactly the built-ins" `Quick
      (fun () ->
        match Guide.find "help" with
        | None -> Alcotest.fail "no help page"
        | Some p ->
            let names =
              List.sort_uniq compare
                (List.map (fun v -> v.Guide.v_name) p.Guide.p_verbs)
            in
            check_bool "same set" true
              (names = List.sort_uniq compare Help.builtins));
    Alcotest.test_case "model spot checks" `Quick (fun () ->
        (match Guide.find "mk" with
        | Some p ->
            check_bool "mk -modified documented" true
              (List.exists
                 (fun i -> List.mem (Guide.S_flag "-modified") i.Guide.i_items)
                 p.Guide.p_invocations)
        | None -> Alcotest.fail "no mk page");
        (match Guide.find "mail" with
        | Some p ->
            check_bool "mail verbs are the scripts" true
              (List.map (fun v -> v.Guide.v_name) p.Guide.p_verbs
              = [ "headers"; "messages"; "delete"; "reread"; "send" ])
        | None -> Alcotest.fail "no mail page");
        (* the documented verbs are exactly the clickable scripts *)
        let t = Session.boot () in
        List.iter
          (fun tool ->
            let scripts =
              Vfs.readdir t.Session.ns ("/help/" ^ tool)
              |> List.map (fun st -> st.Vfs.st_name)
              |> List.filter (fun f -> f <> "stf")
            in
            let verbs =
              match Guide.find tool with
              | Some p -> List.map (fun v -> v.Guide.v_name) p.Guide.p_verbs
              | None -> []
            in
            Alcotest.(check (list string))
              (tool ^ "(1) verbs are /help/" ^ tool)
              (List.sort_uniq compare scripts)
              (List.sort_uniq compare verbs))
          [ "mail"; "guide" ];
        match Guide.find "guide" with
        | Some p ->
            check_bool "guide sees helpfs(4)" true
              (List.mem ("helpfs", 4) p.Guide.p_see);
            check_bool "served files documented" true
              (List.mem "/mnt/help/guide" p.Guide.p_files)
        | None -> Alcotest.fail "no guide page");
    Alcotest.test_case "embedded sources match doc/ on disk" `Quick (fun () ->
        List.iter
          (fun (file, embedded) ->
            check_bool (file ^ " in sync") true
              (read_file (in_root ("doc/" ^ file)) = embedded))
          Guide.sources;
        (* a new man page must be added to lib/guide/dune to be served *)
        Array.iter
          (fun f ->
            match String.split_on_char '.' f with
            | [ _; sec; "md" ] when all_digits sec ->
                check_bool (f ^ " embedded") true
                  (List.mem_assoc f Guide.sources)
            | _ -> ())
          (Sys.readdir (in_root "doc")));
  ]

(* ------------------------------------------------------------------ *)
(* Lint: interfaces and the references the docs make                   *)

(* The paths of lib/'s sources whose names end in [suffix]. *)
let lib_files suffix =
  let lib = in_root "lib" in
  Sys.readdir lib |> Array.to_list
  |> List.filter (fun d -> Sys.is_directory (Filename.concat lib d))
  |> List.concat_map (fun d ->
         let dir = Filename.concat lib d in
         Sys.readdir dir |> Array.to_list
         |> List.filter (fun f -> Filename.check_suffix f suffix)
         |> List.map (Filename.concat dir))

(* lib/'s code in one string, less guide_docs.ml (generated from doc/
   itself): a span name (guide.parse) is no instrument, and resolves
   when lib/ spells it as a string literal. *)
let lib_code =
  lazy
    (lib_files ".ml"
    |> List.filter (fun p -> Filename.basename p <> "guide_docs.ml")
    |> List.map read_file |> String.concat "\n")

let interfaces_have_doc_comments () =
  lib_files ".mli"
  |> List.iter (fun path ->
         check_bool (path ^ " opens with a doc comment") true
           (String.starts_with ~prefix:"(**"
              (String.trim (read_file path))))

(* A code span or link target of README.md or doc/*.md that names a
   tree path, a root document or a metric must resolve; [None] when
   [t] resolves or names none of these. *)
let dangling t =
  let has_prefix ps =
    List.exists
      (fun p ->
        String.length t > String.length p && String.starts_with ~prefix:p t)
      ps
  in
  let only ok = String.for_all ok t in
  let alnum c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  in
  let path_ok t =
    let t =
      match String.index_opt t '#' with Some i -> String.sub t 0 i | None -> t
    in
    t = ""
    || Sys.file_exists (in_root t)
    || (* a dune target (bench/main.exe): its source stands in *)
    Filename.check_suffix t ".exe"
    && Sys.file_exists (in_root (Filename.chop_suffix t ".exe" ^ ".ml"))
  in
  if
    has_prefix [ "lib/"; "doc/"; "bench/"; "test/" ]
    && only (fun c -> alnum c || String.contains "./_-#" c)
  then if path_ok t then None else Some ("dangling path reference " ^ t)
  else if
    (not (String.contains t '/'))
    && (Filename.check_suffix t ".md" || Filename.check_suffix t ".sh")
    && only (fun c -> alnum c || String.contains "._-" c)
  then
    if path_ok t || path_ok ("doc/" ^ t) then None
    else Some ("dangling doc reference " ^ t)
  else if
    has_prefix
      [ "nine."; "help."; "cbr."; "regexp."; "metrics."; "rc."; "vfs.";
        "trace."; "index."; "wal."; "guide." ]
    && only (fun c ->
           (c >= 'a' && c <= 'z')
           || (c >= '0' && c <= '9')
           || String.contains "._<>*" c)
  then
    let segs = String.split_on_char '.' t in
    if
      List.exists all_digits segs (* a man-page name: ed.1, helpfs.4 *)
      || List.mem (List.nth segs (List.length segs - 1))
           [ "ml"; "mli"; "md"; "sh"; "json"; "exe" ] (* a file name *)
    then None
    else
      (* a wildcard, as in nine.rpc.<kind>, names a prefix *)
      let cut =
        List.fold_left
          (fun n c ->
            match String.index_opt t c with Some i -> min n i | None -> n)
          (String.length t) [ '<'; '*' ]
      in
      if
        contains registry (String.sub t 0 cut)
        || contains (Lazy.force lib_code) ("\"" ^ t ^ "\"")
      then None
      else Some ("unknown metric " ^ t)
  else None

let doc_references_resolve () =
  let docs =
    "README.md"
    :: (Sys.readdir (in_root "doc") |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ".md")
       |> List.map (Filename.concat "doc"))
  in
  let failures =
    List.concat_map
      (fun doc ->
        let text = read_file (in_root doc) in
        (* code spans: the odd fields between backticks, counted per
           paragraph outside fenced blocks, so one stray backtick
           cannot invert the rest of the file *)
        let spans =
          String.split_on_char '\n' text
          |> List.fold_left
               (fun (fenced, paras) line ->
                 if String.starts_with ~prefix:"```" line then
                   (not fenced, "" :: paras)
                 else if fenced || String.trim line = "" then
                   (fenced, "" :: paras)
                 else
                   match paras with
                   | p :: rest -> (fenced, (p ^ "\n" ^ line) :: rest)
                   | [] -> (fenced, [ line ]))
               (false, [])
          |> snd
          |> List.concat_map (fun para ->
                 List.filteri
                   (fun i _ -> i mod 2 = 1)
                   (String.split_on_char '`' para))
        in
        (* link targets: ](target), within the tree *)
        let rec links i acc =
          match Hstr.find ~start:i text ~sub:"](" with
          | None -> acc
          | Some j -> (
              match String.index_from_opt text (j + 2) ')' with
              | None -> acc
              | Some k ->
                  let t = String.sub text (j + 2) (k - j - 2) in
                  let acc =
                    if t = "" || contains t "://" || t.[0] = '/' then acc
                    else t :: acc
                  in
                  links (j + 2) acc)
        in
        List.filter_map
          (fun t -> Option.map (fun e -> doc ^ ": " ^ e) (dangling t))
          (spans @ List.rev (links 0 [])))
      docs
  in
  Alcotest.(check (list string)) "dangling references" [] failures

(* ------------------------------------------------------------------ *)
(* The windowed application, driven by mouse                           *)

let counter name =
  match Trace.find_value name with Some v -> v | None -> 0

let session_tests =
  [
    Alcotest.test_case "guide tool is on the boot screen" `Quick (fun () ->
        let t = Session.boot () in
        let stf = Session.win t "/help/guide/stf" in
        check_bool "stf lists the pages" true
          (contains (Htext.string (Hwin.body stf)) "guide help"));
    Alcotest.test_case "browse and run without the keyboard" `Quick (fun () ->
        let store = Wal.create_store () in
        let t = Session.boot ~wal:store () in
        check_int "no pages yet" 0 (counter "guide.pages");
        let stf = Session.win t "/help/guide/stf" in
        (* middle-click `guide`: the index window *)
        Session.exec_word t stf "guide";
        let index = Session.win t "/help/guide/index" in
        check_bool "index lists every page" true
          (contains (Htext.string (Hwin.body index)) "guide helpfs");
        (* middle-sweep `guide help`: the help(1) page *)
        Session.exec_sweep t stf "guide help";
        let help_pg = Session.win t "/help/guide/help" in
        let body () = Htext.string (Hwin.body help_pg) in
        check_bool "RUN composed" true (contains (body ()) " New");
        check_bool "COMMANDS listed" true (contains (body ()) "Split!");
        (* SEE ALSO is itself a guide command: hop to helpfs(4) *)
        Session.exec_sweep t help_pg "guide helpfs";
        let helpfs_pg = Session.win t "/help/guide/helpfs" in
        let hbody = Htext.string (Hwin.body helpfs_pg) in
        check_bool "helpfs RUN" true (contains hbody "cat /mnt/help/stats");
        (* select a RUN line, click run in the tag: output window *)
        Session.point_at t helpfs_pg "cat /mnt/help/stats";
        Session.exec_tag_word t helpfs_pg "run";
        let out = Session.win t "/help/guide/out" in
        let obody = Htext.string (Hwin.body out) in
        check_bool "echoed" true (contains obody "% cat /mnt/help/stats");
        check_bool "ran" true (contains obody "guide.pages");
        (* the ledger saw all of it *)
        check_int "pages" 3 (counter "guide.pages");
        check_int "invocations" 1 (counter "guide.invocations");
        check_int "clicks" 4 (counter "guide.clicks");
        check_int "keys" 0 (Metrics.total t.Session.metrics).Metrics.keys;
        (* a second hop and a second run, on nine(5) *)
        Session.exec_sweep t helpfs_pg "guide nine";
        let nine_pg = Session.win t "/help/guide/nine" in
        Session.point_at t nine_pg "cat /mnt/help/index";
        Session.exec_tag_word t nine_pg "run";
        check_int "pages, after nine(5)" 4 (counter "guide.pages");
        check_int "invocations, after nine(5)" 2 (counter "guide.invocations");
        check_int "clicks, after nine(5)" 6 (counter "guide.clicks");
        check_int "keys, after nine(5)" 0
          (Metrics.total t.Session.metrics).Metrics.keys;
        (* the op log agrees: not one keyboard event *)
        let ops, _ = Wal.ops_after store ~pos:0 in
        check_bool "no Key or Type op logged" false
          (List.exists
             (fun (_, op) ->
               match op with
               | Wal.O_event (Help.Key _ | Help.Type _) -> true
               | _ -> false)
             ops));
    Alcotest.test_case "a page is refreshed in place, not duplicated" `Quick
      (fun () ->
        let t = Session.boot () in
        let stf = Session.win t "/help/guide/stf" in
        Session.exec_sweep t stf "guide help";
        let n1 = List.length (Help.windows t.Session.help) in
        Session.exec_sweep t stf "guide help";
        let n2 = List.length (Help.windows t.Session.help) in
        check_int "same window count" n1 n2;
        check_int "both visits counted" 2 (counter "guide.pages"));
    Alcotest.test_case "a built-in RUN line is reported, not mis-run" `Quick
      (fun () ->
        let t = Session.boot () in
        let stf = Session.win t "/help/guide/stf" in
        Session.exec_sweep t stf "guide help";
        let pg = Session.win t "/help/guide/help" in
        Session.point_at t pg " New";
        Session.exec_tag_word t pg "run";
        let out = Session.win t "/help/guide/out" in
        check_bool "notes the built-in" true
          (contains (Htext.string (Hwin.body out)) "built-in"));
    Alcotest.test_case "the model is served in-band" `Quick (fun () ->
        let t = Session.boot () in
        let r = Rc.run t.Session.sh "cat /mnt/help/guide" in
        check_int "index status" 0 r.Rc.r_status;
        check_bool "index line" true (contains r.Rc.r_out "help\t1\t");
        let r = Rc.run t.Session.sh "cat /mnt/help/guide/mk" in
        check_int "page status" 0 r.Rc.r_status;
        check_bool "name line" true (contains r.Rc.r_out "name mk");
        check_bool "invocation line" true
          (contains r.Rc.r_out "invocation mk -modified");
        let r = Rc.run t.Session.sh "cat /mnt/help/guide/nosuch" in
        check_bool "unknown page errors" true (r.Rc.r_status <> 0));
    Alcotest.test_case "two scripted sessions render identically" `Quick
      (fun () ->
        let drive () =
          let t = Session.boot () in
          let stf = Session.win t "/help/guide/stf" in
          Session.exec_word t stf "guide";
          Session.exec_sweep t stf "guide ed";
          let pg = Session.win t "/help/guide/ed" in
          Session.exec_sweep t pg "guide help";
          Session.dump t
        in
        check_str "byte-identical" (drive ()) (drive ()));
  ]

let () =
  Alcotest.run "guide"
    [
      ("parser", parser_tests);
      ("property", [ Seeded.to_alcotest 13 prop_roundtrip ]);
      ("manual", manual_tests);
      ( "lint",
        [
          Alcotest.test_case "every lib/ interface opens with a doc comment"
            `Quick interfaces_have_doc_comments;
          Alcotest.test_case "README and doc/ references resolve" `Quick
            doc_references_resolve;
        ] );
      ("session", session_tests);
    ]
