(* The trigram index: planner soundness, staleness under edits, the
   generation-counter contract (unchanged generation => zero
   re-tokenizations), and a booted session's index over the real
   corpus with its served files. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let re = Regexp.compile

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)

let planner_basics () =
  check_bool "a long literal is useful" true
    (Index.query_useful (Index.plan_literal "counter42"));
  check_bool "a two-byte literal is not" false
    (Index.query_useful (Index.plan_literal "ab"));
  check_bool "a bare class falls back" false
    (Index.query_useful (Index.plan (re "[a-z]+")));
  check_bool "runs across operators still contribute" true
    (Index.query_useful (Index.plan (re "line [0-9]+ of")));
  check_bool "alternation of literals is useful" true
    (Index.query_useful (Index.plan (re "alpha|bravo")));
  check_bool "alternation with a short branch falls back" false
    (Index.query_useful (Index.plan (re "alpha|ab")));
  check_bool "plus requires its body once" true
    (Index.query_useful (Index.plan (re "(abc)+")));
  check_string "query rendering"
    "(AND abc bcd)"
    (Index.query_text (Index.plan_literal "abcd"))

(* ------------------------------------------------------------------ *)
(* Files: pruning equals the linear scan, at rest and under edits      *)

let mk_tree () =
  let ns = Vfs.create () in
  Vfs.mkdir_p ns "/src";
  let files =
    List.init 6 (fun i -> Printf.sprintf "/src/f%d.txt" i)
  in
  List.iteri
    (fun i p ->
      Vfs.write_file ns p
        (Printf.sprintf "alpha %d\nbravo %d\nneedle%d here\n" i i i))
    files;
  (ns, files)

let same_results ix ns files pat =
  ignore ns;
  let r = re pat in
  Index.hits_text (Index.grep ix r files)
  = Index.hits_text (Index.grep_linear ix r files)

let files_indexed_equals_linear () =
  let ns, files = mk_tree () in
  let ix = Index.create ns in
  List.iter
    (fun pat ->
      check_bool ("indexed = linear: " ^ pat) true
        (same_results ix ns files pat))
    [ "needle3"; "alpha"; "bravo [0-9]"; "nothing-anywhere"; "[a-z]+ [0-9]+" ];
  (* candidate selection actually pruned something *)
  let docs, _, posts = Index.sizes ix in
  check_int "all files tokenized" 6 docs;
  check_bool "postings exist" true (posts > 0);
  (* edit one file: the next query must see the new text *)
  Vfs.write_file ns "/src/f2.txt" "fresh needle9 text\n";
  check_bool "after edit: indexed = linear" true
    (same_results ix ns files "needle9");
  let hits = Index.grep ix (re "needle9") files in
  check_int "edited file found" 1 (List.length hits);
  (* remove a file: pruned scans and linear scans agree on the gap *)
  Vfs.remove ns "/src/f4.txt";
  check_bool "after remove: indexed = linear" true
    (same_results ix ns files "needle4")

let generation_counters () =
  let ns, files = mk_tree () in
  let ix = Index.create ns in
  ignore (Index.grep ix (re "alpha") files);
  let r0 = Index.reindexed ix in
  (* no namespace mutation between queries: nothing may re-tokenize *)
  ignore (Index.grep ix (re "bravo") files);
  ignore (Index.grep ix (re "needle2") files);
  check_int "unchanged generation => zero re-tokenizations" r0
    (Index.reindexed ix);
  (* one edit, many queries: exactly one re-tokenization *)
  Vfs.write_file ns "/src/f1.txt" "bravo rewritten\n";
  ignore (Index.grep ix (re "bravo") files);
  ignore (Index.grep ix (re "bravo") files);
  check_int "one edit => one re-tokenization" (r0 + 1) (Index.reindexed ix)

let rebuild_control () =
  let ns, files = mk_tree () in
  let ix = Index.create ns in
  ignore (Index.grep ix (re "alpha") files);
  let _, _, posts = Index.sizes ix in
  Index.rebuild ix;
  let _, _, posts' = Index.sizes ix in
  check_int "rebuild drops the postings" 0 posts';
  check_bool "and the next query rebuilds them" true
    (same_results ix ns files "needle1"
    && (let _, _, p = Index.sizes ix in p = posts))

(* ------------------------------------------------------------------ *)
(* A booted session: the real corpus and the index's served files      *)

let session_index () =
  let t = Session.boot () in
  let ns = t.Session.ns in
  let ix = Index.of_ns ns in
  let files =
    List.map
      (fun f -> Corpus.src_dir ^ "/" ^ f)
      (Corpus.c_files @ [ "dat.h"; "fns.h" ])
  in
  List.iter
    (fun pat ->
      check_bool ("indexed = linear: " ^ pat) true
        (same_results ix ns files pat))
    [
      "estrdup"; "curtext"; "Draw_op"; "textinsert"; "malloc"; "e?strdup";
      "cur[a-z]+"; "tex+t"; "window|page"; "EIO|ENOENT"; "no_such_thing_zz";
      "void [a-z]+"; "[A-Z][a-z]+_op"; "page->"; "return 0;";
      "static (int|void)"; "\\*text"; "help\\.h"; "(open|close)page";
      "err(or)?";
    ];
  (* a query mid-edit, with no rebuild between the write and the query *)
  let victim = Corpus.src_dir ^ "/text.c" in
  let original = Vfs.read_file ns victim in
  Vfs.write_file ns victim (original ^ "int smoke_needle_zz;\n");
  check_bool "mid-edit: indexed = linear" true
    (same_results ix ns files "smoke_needle_zz");
  check_bool "mid-edit: the needle is found" true
    (Index.grep ix (re "smoke_needle_zz") files <> []);
  Vfs.write_file ns victim original;
  check_bool "after revert: the needle is gone" true
    (Index.grep ix (re "smoke_needle_zz") files = []);
  (* the served surface: stats, postings, rebuild, and the index file
     still the window list *)
  let run cmd = Rc.run t.Session.sh cmd in
  let stats = run "cat /mnt/help/index/stats" in
  check_int "index/stats status" 0 stats.Rc.r_status;
  let fields =
    List.filter_map
      (fun l ->
        if l = "" then None
        else
          match String.split_on_char ' ' l with
          | [ k; v ] -> Some (k, int_of_string_opt v)
          | _ -> Some (l, None))
      (String.split_on_char '\n' stats.Rc.r_out)
  in
  check_int "index/stats has eight fields" 8 (List.length fields);
  List.iter
    (fun (k, v) -> check_bool (k ^ " is \"key int\"") true (v <> None))
    fields;
  check_bool "index/stats counts every queried file" true
    (match List.assoc_opt "docs" fields with
    | Some (Some docs) -> docs >= List.length files
    | _ -> false);
  let posts = run "cat /mnt/help/index/postings" in
  check_bool "index/postings served" true
    (posts.Rc.r_status = 0 && posts.Rc.r_out <> "");
  check_int "index/rebuild accepts a write" 0
    (run "echo rebuild > /mnt/help/index/rebuild").Rc.r_status;
  check_bool "after rebuild: indexed = linear" true
    (same_results ix ns files "estrdup");
  let wins = run "cat /mnt/help/index" in
  check_bool "index is still the window list" true
    (wins.Rc.r_status = 0
    &&
    match String.index_opt wins.Rc.r_out '\t' with
    | Some i ->
        let first = String.sub wins.Rc.r_out 0 i in
        (not (String.contains first '\n')) && int_of_string_opt first <> None
    | None -> false)

(* ------------------------------------------------------------------ *)
(* Files: the qcheck edit-script property                              *)

let patterns =
  [ "abc"; "abcd"; "bc ab"; "cab|bac"; "a[ab]c"; "zzzz"; "ab+c" ]

(* Path and initial text of each file.  Some start without some of the
   patterns' trigrams, so a stale index would wrongly prune them once an
   edit spells one.  With six documents, a re-tokenized one posts its id
   into the middle of lists that already hold larger ids. *)
let prop_files =
  [ ("/src/a.txt", ""); ("/src/b.txt", "abd ca\n");
    ("/src/c.txt", "abc abd cab\nbac abcd\n"); ("/src/d.txt", "bc ab\nab+c\n");
    ("/src/e.txt", "abc\n"); ("/src/f.txt", "cab bac abbc\n") ]

let prop_paths = List.map fst prop_files

(* Ops: rewrite one of [prop_files], inserting a small string drawn
   from a 4-letter alphabet or deleting a range.  Positions are taken
   modulo the live length. *)
let ops_gen =
  QCheck.make
    ~print:
      QCheck.Print.(
        list (pair int (pair int (pair int (option string)))))
    QCheck.Gen.(
      list_size (int_range 1 30)
        (pair (int_range 0 (List.length prop_files - 1))
           (pair (int_range 0 10000)
              (pair (int_range 0 12)
                 (option
                    (string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; ' ' ])
                       (int_range 1 8)))))))

let apply_op ns (file, (pos, (len, ins))) =
  let path = List.nth prop_paths file in
  let s = Vfs.read_file ns path in
  let n = String.length s in
  let pos = if n = 0 then 0 else pos mod (n + 1) in
  let s' =
    match ins with
    | Some x -> String.sub s 0 pos ^ x ^ String.sub s pos (n - pos)
    | None ->
        let len = min len (n - pos) in
        String.sub s 0 pos ^ String.sub s (pos + len) (n - pos - len)
  in
  Vfs.write_file ns path s'

let prop_file_edits =
  QCheck.Test.make
    ~name:"indexed file search equals linear search under any edit script"
    ~count:60 ops_gen (fun ops ->
      let ns = Vfs.create () in
      Vfs.mkdir_p ns "/src";
      List.iter (fun (p, text) -> Vfs.write_file ns p text) prop_files;
      let ix = Index.create ns in
      List.for_all
        (fun op ->
          apply_op ns op;
          List.for_all
            (fun pat ->
              let r = re pat in
              Index.hits_text (Index.grep ix r prop_paths)
              = Index.hits_text (Index.grep_linear ix r prop_paths))
            patterns
          &&
          (* the edited index holds what a fresh one over the same files holds *)
          let fresh = Index.create ns in
          ignore (Index.prune fresh Index.Q_all prop_paths);
          Index.postings_text ix = Index.postings_text fresh
          && Index.sizes ix = Index.sizes fresh)
        ops)

let () =
  Alcotest.run "index"
    [
      ( "planner",
        [ Alcotest.test_case "trigram extraction" `Quick planner_basics ] );
      ( "files",
        [
          Alcotest.test_case "indexed grep equals linear" `Quick
            files_indexed_equals_linear;
          Alcotest.test_case "generation counters" `Quick generation_counters;
          Alcotest.test_case "rebuild control" `Quick rebuild_control;
          Alcotest.test_case "a booted session's corpus and index files"
            `Quick session_index;
          Seeded.to_alcotest 19 prop_file_edits;
        ] );
    ]
