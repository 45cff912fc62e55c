(* Coreutils: the Plan 9 userland natives the session relies on. *)

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh () =
  let ns = Vfs.create () in
  let sh = Rc.create ns in
  Coreutils.install sh;
  Vfs.mkdir_p ns "/d";
  Vfs.write_file ns "/d/f1" "one\ntwo\nthree\n";
  Vfs.write_file ns "/d/f2" "alpha\nbeta\n";
  (ns, sh)

let run src =
  let _, sh = fresh () in
  Rc.run sh src

let out src = (run src).Rc.r_out

let tests =
  [
    Alcotest.test_case "echo -n" `Quick (fun () ->
        check_str "no newline" "x" (out "echo -n x"));
    Alcotest.test_case "cat files and stdin" `Quick (fun () ->
        check_str "files" "one\ntwo\nthree\nalpha\nbeta\n" (out "cat /d/f1 /d/f2");
        check_str "stdin" "piped\n" (out "echo piped | cat"));
    Alcotest.test_case "cp and mv" `Quick (fun () ->
        check_str "copy" "one\ntwo\nthree\n" (out "cp /d/f1 /d/g; cat /d/g");
        let r = run "mv /d/f1 /d/h; cat /d/h; cat /d/f1" in
        check_bool "moved away" true (r.Rc.r_status <> 0 || r.Rc.r_err <> ""));
    Alcotest.test_case "rm" `Quick (fun () ->
        let _, sh = fresh () in
        let _ = Rc.run sh "rm /d/f1" in
        check_bool "gone" false (Vfs.exists (Rc.ns sh) "/d/f1"));
    Alcotest.test_case "mkdir -p semantics" `Quick (fun () ->
        let _, sh = fresh () in
        let _ = Rc.run sh "mkdir /a/b/c" in
        check_bool "deep" true (Vfs.is_dir (Rc.ns sh) "/a/b/c"));
    Alcotest.test_case "ls" `Quick (fun () ->
        check_str "entries" "f1\nf2\n" (out "ls /d"));
    Alcotest.test_case "grep with flags" `Quick (fun () ->
        check_str "plain" "two\n" (out "grep tw /d/f1");
        check_str "numbered" "/d/f1:2:two\n" (out "grep -n tw /d/f1");
        check_str "invert" "one\nthree\n" (out "grep -v tw /d/f1");
        check_str "case" "two\n" (out "grep -i TW /d/f1");
        check_int "status on miss" 1 (run "grep zz /d/f1").Rc.r_status);
    Alcotest.test_case "grep labels multiple files" `Quick (fun () ->
        check_str "labels" "/d/f1:two\n" (out "grep tw /d/f1 /d/f2"));
    Alcotest.test_case "sed 1q" `Quick (fun () ->
        check_str "first line" "one\n" (out "cat /d/f1 | sed 1q"));
    Alcotest.test_case "sed -n 2p" `Quick (fun () ->
        check_str "second line" "two\n" (out "cat /d/f1 | sed -n 2p"));
    Alcotest.test_case "sed substitution" `Quick (fun () ->
        (* first occurrence per line, as sed does *)
        check_str "subst" "Xne\ntwX\nthree\n" (out "cat /d/f1 | sed s/o/X/");
        check_str "global" "general\n" (out "echo goneral | sed s/o/e/g" |> fun s -> s));
    Alcotest.test_case "head" `Quick (fun () ->
        check_str "two" "one\ntwo\n" (out "cat /d/f1 | head -n 2"));
    Alcotest.test_case "wc -l" `Quick (fun () ->
        check_bool "three" true
          (String.trim (out "cat /d/f1 | wc -l") |> fun s ->
           String.length s > 0 && s.[0] = '3'));
    Alcotest.test_case "sort and uniq" `Quick (fun () ->
        check_str "sorted" "a\nb\nc\n" (out "echo 'c\na\nb' | sort");
        check_str "uniq" "a\nb\n" (out "echo 'a\na\nb' | uniq"));
    Alcotest.test_case "touch updates mtime" `Quick (fun () ->
        let _, sh = fresh () in
        let ns = Rc.ns sh in
        let before = (Vfs.stat ns "/d/f1").Vfs.st_mtime in
        let _ = Rc.run sh "touch /d/f1" in
        check_bool "newer" true ((Vfs.stat ns "/d/f1").Vfs.st_mtime > before);
        check_str "content kept" "one\ntwo\nthree\n" (Vfs.read_file ns "/d/f1"));
    Alcotest.test_case "bind replaces, bind -a unions" `Quick (fun () ->
        let _, sh = fresh () in
        let ns = Rc.ns sh in
        Vfs.mkdir_p ns "/src";
        Vfs.write_file ns "/src/x" "X";
        Vfs.mkdir_p ns "/dst";
        let _ = Rc.run sh "bind /src /dst" in
        check_str "replaced view" "X" (Vfs.read_file ns "/dst/x");
        Vfs.mkdir_p ns "/more";
        Vfs.write_file ns "/more/y" "Y";
        let _ = Rc.run sh "bind -a /more /dst" in
        check_str "union member" "Y" (Vfs.read_file ns "/dst/y"));
    Alcotest.test_case "fortune is deterministic on the clock" `Quick (fun () ->
        check_bool "prints something" true (String.length (out "fortune") > 10));
    Alcotest.test_case "news reads /lib/news" `Quick (fun () ->
        let _, sh = fresh () in
        let ns = Rc.ns sh in
        Vfs.mkdir_p ns "/lib";
        Vfs.write_file ns "/lib/news" "the news\n";
        check_str "contents" "the news\n" (Rc.run sh "news").Rc.r_out);
    Alcotest.test_case "basename" `Quick (fun () ->
        check_str "base" "c\n" (out "basename /a/b/c"));
    Alcotest.test_case "tail" `Quick (fun () ->
        check_str "last two" "two\nthree\n" (out "cat /d/f1 | tail -n 2");
        check_str "more than there is" "one\ntwo\nthree\n" (out "cat /d/f1 | tail -n 99"));
    Alcotest.test_case "tee passes through and writes" `Quick (fun () ->
        let _, sh = fresh () in
        let r = Rc.run sh "echo copy | tee /d/t1 /d/t2" in
        check_str "stdout" "copy\n" r.Rc.r_out;
        check_str "file1" "copy\n" (Vfs.read_file (Rc.ns sh) "/d/t1");
        check_str "file2" "copy\n" (Vfs.read_file (Rc.ns sh) "/d/t2"));
    Alcotest.test_case "tr translates and deletes with ranges" `Quick (fun () ->
        check_str "swap case" "HELLO\n" (out "echo hello | tr a-z A-Z");
        check_str "delete digits" "ab\n" (out "echo a1b2 | tr -d 0-9"));
    Alcotest.test_case "cmp" `Quick (fun () ->
        let _, sh = fresh () in
        let r = Rc.run sh "cp /d/f1 /d/same; cmp /d/f1 /d/same" in
        check_int "equal" 0 r.Rc.r_status;
        let r2 = Rc.run sh "cmp /d/f1 /d/f2" in
        check_int "differ" 1 r2.Rc.r_status;
        check_bool "reports the first differing char" true
          (String.length r2.Rc.r_out > 0));
    Alcotest.test_case "date uses the logical clock" `Quick (fun () ->
        check_bool "1991" true
          (let s = out "date" in
           String.length s > 4 && String.sub s (String.length s - 5) 4 = "1991"));
  ]

(* grep against the reference grep (test/grep_ref.ml): generated files
   with and without a final newline, empty lines and '\r'; patterns
   with literals, classes, anchors, nullable patterns and a \n escape;
   -n, -v, -i in any combination over stdin, one file or several (a
   missing one among them).  Output, errors and exit status must be
   the reference's, with the DFA at its usual bound and squeezed to 8
   states, where long a/b lines make it thrash and fall back. *)
let grep_case =
  let open QCheck.Gen in
  let line =
    oneof
      [
        string_size ~gen:(oneofl [ 'a'; 'b'; 'A'; 'B'; 'x'; ' '; '\r'; '1'; '(' ]) (int_range 0 12);
        string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_range 20 60);
      ]
  in
  let file =
    map2
      (fun ls final -> String.concat "\n" ls ^ if final && ls <> [] then "\n" else "")
      (list_size (int_range 0 6) line) bool
  in
  let atom =
    oneofl [ "a"; "b"; "A"; "x"; "."; "[ab]"; "[^a]"; "[A-Z]"; "\\r"; "\\n"; "(a|B)"; "1"; "\\(" ]
  in
  let rep = oneofl [ ""; ""; "*"; "+"; "?" ] in
  let seq = map (String.concat "") (list_size (int_range 1 3) (map2 ( ^ ) atom rep)) in
  let pattern =
    frequency
      [
        ( 6,
          map3
            (fun bol core eol -> (if bol then "^" else "") ^ core ^ if eol then "$" else "")
            bool seq bool );
        (2, oneofl [ "x*"; "^"; "$"; "^$"; "a?"; "(a"; "" ]);
        (* x[ab]^k$ needs 2^(k+1) DFA states, more than a 256-state
           cache holds, so even a pattern the compile memo has seen
           before misses, and at 8 states the DFA thrashes *)
        ( 1,
          map2
            (fun x k -> x ^ String.concat "" (List.init k (fun _ -> "[ab]")) ^ "$")
            (oneofl [ "a"; "b"; "^a"; "ab" ])
            (int_range 8 9) );
      ]
  in
  let flags =
    oneofl
      [ []; [ "-n" ]; [ "-v" ]; [ "-i" ]; [ "-n"; "-v" ]; [ "-i"; "-n" ]; [ "-v"; "-i" ];
        [ "-n"; "-v"; "-i" ] ]
  in
  let names =
    oneof
      [
        return [];
        map (fun k -> [ Printf.sprintf "f%d" k ]) (int_range 1 3);
        list_size (int_range 2 4) (oneofl [ "f1"; "f2"; "f3"; "/t/f1"; "nope" ]);
      ]
  in
  pair (list_repeat 3 file) (triple pattern flags names)

let prop_grep_vs_reference =
  QCheck.Test.make ~name:"grep = reference grep (files, stdin, -n -v -i)"
    ~count:500
    (QCheck.make
       ~print:(fun (files, (pat, flags, names)) ->
         Printf.sprintf "files=%s argv=%s"
           (String.concat " " (List.map (Printf.sprintf "%S") files))
           (String.concat " " (List.map (Printf.sprintf "%S") (("grep" :: flags) @ (pat :: names)))))
       grep_case)
    (fun (files, (pat, flags, names)) ->
      let ns = Vfs.create () in
      let sh = Rc.create ns in
      Coreutils.install sh;
      Rc.register sh "/bin/grepref" Grep_ref.grep;
      Vfs.mkdir_p ns "/t";
      List.iteri (fun i c -> Vfs.write_file ns (Printf.sprintf "/t/f%d" (i + 1)) c) files;
      let run tool =
        Rc.run_argv sh ~cwd:"/t" ~stdin:(List.hd files) ((tool :: flags) @ (pat :: names))
      in
      let show (r : Rc.result) = Printf.sprintf "%S %S %d" r.r_out r.r_err r.r_status in
      List.for_all
        (fun cap ->
          Regexp.set_dfa_capacity cap;
          let got = run "grep" and want = run "grepref" in
          Regexp.set_dfa_capacity 256;
          got = want
          || QCheck.Test.fail_reportf "capacity %d: grep %s, reference %s" cap (show got)
               (show want))
        (* squeezed first: a run at 256 would leave every transition
           the second run needs in the cache *)
        [ 8; 256 ])

let () =
  Alcotest.run "coreutils"
    [ ("tools", tests); ("property", [ Seeded.to_alcotest 61 prop_grep_vs_reference ]) ]
