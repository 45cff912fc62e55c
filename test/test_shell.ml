(* Rc shell: lexer, parser, word expansion, control flow, pipelines,
   redirection, functions, globbing — the substrate all the paper's
   tools run on. *)

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* a shell with the coreutils and a small tree *)
let fresh () =
  let ns = Vfs.create () in
  let sh = Rc.create ns in
  Coreutils.install sh;
  Vfs.mkdir_p ns "/work/sub";
  Vfs.write_file ns "/work/a.c" "alpha\n";
  Vfs.write_file ns "/work/b.c" "beta\n";
  Vfs.write_file ns "/work/notes.txt" "gamma\n";
  Vfs.mkdir_p ns "/tmp";
  (ns, sh)

let run ?cwd src =
  let _, sh = fresh () in
  Rc.run sh ?cwd src

let out ?cwd src = (run ?cwd src).Rc.r_out
let status ?cwd src = (run ?cwd src).Rc.r_status

let lexer_tests =
  [
    Alcotest.test_case "words and operators" `Quick (fun () ->
        match Rc_lexer.tokenize "a b|c" with
        | [ WORD _; WORD _; OP "|"; WORD _; EOF ] -> ()
        | _ -> Alcotest.fail "unexpected tokens");
    Alcotest.test_case "quote with escaped quote" `Quick (fun () ->
        match Rc_lexer.tokenize "'it''s'" with
        | [ WORD [ Rc_ast.Quoted "it's" ]; EOF ] -> ()
        | _ -> Alcotest.fail "unexpected tokens");
    Alcotest.test_case "free-caret pieces" `Quick (fun () ->
        match Rc_lexer.tokenize "-i$id" with
        | [ WORD [ Rc_ast.Lit "-i"; Rc_ast.Var "id" ]; EOF ] -> ()
        | _ -> Alcotest.fail "unexpected tokens");
    Alcotest.test_case "command substitution captured raw" `Quick (fun () ->
        match Rc_lexer.tokenize "x=`{cat f | grep y}" with
        | [ WORD [ Rc_ast.Lit "x="; Rc_ast.Sub "cat f | grep y" ]; EOF ] -> ()
        | _ -> Alcotest.fail "unexpected tokens");
    Alcotest.test_case "nested braces in substitution" `Quick (fun () ->
        match Rc_lexer.tokenize "`{if(~ a a){ echo x }}" with
        | [ WORD [ Rc_ast.Sub "if(~ a a){ echo x }" ]; EOF ] -> ()
        | _ -> Alcotest.fail "unexpected tokens");
    Alcotest.test_case "comments end at newline" `Quick (fun () ->
        match Rc_lexer.tokenize "a # comment\nb" with
        | [ WORD _; OP "\n"; WORD _; EOF ] -> ()
        | _ -> Alcotest.fail "unexpected tokens");
    Alcotest.test_case "count and flat variables" `Quick (fun () ->
        match Rc_lexer.tokenize "$#v $\"v" with
        | [ WORD [ Rc_ast.Count "v" ]; WORD [ Rc_ast.Flat "v" ]; EOF ] -> ()
        | _ -> Alcotest.fail "unexpected tokens");
    Alcotest.test_case "unterminated quote raises" `Quick (fun () ->
        check_bool "raises" true
          (match Rc_lexer.tokenize "'oops" with
          | exception Rc_lexer.Lex_error _ -> true
          | _ -> false));
  ]

let eval_tests =
  [
    Alcotest.test_case "echo" `Quick (fun () ->
        check_str "simple" "a b\n" (out "echo a b"));
    Alcotest.test_case "variables are lists" `Quick (fun () ->
        check_str "list" "3 : a b c\n" (out "v=(a b c); echo $#v : $v"));
    Alcotest.test_case "flat variable joins" `Quick (fun () ->
        check_str "flat" "a b c\n" (out "v=(a b c); echo $\"v"));
    Alcotest.test_case "empty variable vanishes" `Quick (fun () ->
        check_str "gone" "x y\n" (out "echo x $nothing y"));
    Alcotest.test_case "concatenation distributes" `Quick (fun () ->
        check_str "prefix" "pre.a pre.b\n" (out "v=(a b); echo pre.$v"));
    Alcotest.test_case "pairwise concatenation" `Quick (fun () ->
        check_str "zip" "a1 b2\n" (out "x=(a b); y=(1 2); echo $x$y"));
    Alcotest.test_case "$status tracks the last command" `Quick (fun () ->
        check_str "failure then read" "1\n" (out "false; echo $status");
        check_str "success then read" "0\n" (out "true; echo $status");
        check_int "usable in tests" 0 (status "false; ~ $status 1"));
    Alcotest.test_case "list subscripts" `Quick (fun () ->
        check_str "single" "b\n" (out "v=(a b c); echo $v(2)");
        check_str "several, reordered" "c a\n" (out "v=(a b c); echo $v(3 1)");
        check_str "out of range vanishes" "a\n" (out "v=(a b c); echo $v(1 9)"));
    Alcotest.test_case "command substitution splits on whitespace" `Quick (fun () ->
        check_str "count" "2\n" (out "v=`{echo one two}; echo $#v"));
    Alcotest.test_case "quoting protects spaces" `Quick (fun () ->
        check_str "one word" "1\n" (out "v='two words'; v=($v); echo $#v"));
    Alcotest.test_case "sequences and status" `Quick (fun () ->
        check_str "both" "a\nb\n" (out "echo a; echo b");
        check_int "true" 0 (status "true");
        check_int "false" 1 (status "false");
        check_int "not" 0 (status "! false"));
    Alcotest.test_case "and / or" `Quick (fun () ->
        check_str "and runs" "y\n" (out "true && echo y");
        check_str "and skips" "" (out "false && echo y");
        check_str "or runs" "y\n" (out "false || echo y"));
    Alcotest.test_case "pipeline" `Quick (fun () ->
        check_str "grep" "banana\n" (out "echo 'apple\nbanana\ncherry' | grep an | grep ban"));
    Alcotest.test_case "if and if not" `Quick (fun () ->
        check_str "taken" "yes\n" (out "if(true) echo yes; if not echo no");
        check_str "else" "no\n" (out "if(false) echo yes; if not echo no"));
    Alcotest.test_case "while" `Quick (fun () ->
        check_str "loop" "x\nx\nx\n" (out "while(! ~ $#v 3) { echo x; v=($v a) }"));
    Alcotest.test_case "for" `Quick (fun () ->
        check_str "items" "i=a\ni=b\n" (out "for(i in a b) echo i=$i"));
    Alcotest.test_case "switch with glob patterns" `Quick (fun () ->
        check_str "match" "T\n"
          (out "switch(terminal){ case cpu\n echo C\n case term*\n echo T\n}");
        check_str "no match" ""
          (out "switch(other){ case cpu\n echo C\n case term*\n echo T\n}"));
    Alcotest.test_case "~ matching" `Quick (fun () ->
        check_int "literal" 0 (status "~ abc abc");
        check_int "star" 0 (status "~ abc a*");
        check_int "class" 0 (status "~ a5 a[0-9]");
        check_int "miss" 1 (status "~ abc d*"));
    Alcotest.test_case "functions with arguments" `Quick (fun () ->
        check_str "args" "hi rob (2)\n" (out "fn greet { echo hi $1 '('$#*')' }; greet rob pike"));
    Alcotest.test_case "function args shadow and restore" `Quick (fun () ->
        check_str "inner outer" "inner\nouter\n"
          (out "fn f { echo $1 }; f inner; echo outer"));
    Alcotest.test_case "shift" `Quick (fun () ->
        check_str "shifted" "b c\n" (out "fn f { shift; echo $* }; f a b c"));
    Alcotest.test_case "eval re-parses" `Quick (fun () ->
        check_str "expanded" "hello\n" (out "cmd='echo hello'; eval $cmd"));
    Alcotest.test_case "eval re-globs in the new directory" `Quick (fun () ->
        check_str "globbed" "a.c b.c\n" (out "cd /work; eval echo '*.c'"));
    Alcotest.test_case "exit status from scripts" `Quick (fun () ->
        let _, sh = fresh () in
        let ns = Rc.ns sh in
        Vfs.write_file ns "/bin/fail" "exit 3\n";
        check_int "propagated" 3 (Rc.run sh "fail").Rc.r_status);
    Alcotest.test_case "local (prefix) assignment scopes to command" `Quick (fun () ->
        let _, sh = fresh () in
        let ns = Rc.ns sh in
        Vfs.write_file ns "/bin/show" "echo v=$v\n";
        let r = Rc.run sh "v=global; v=local show; echo $v" in
        check_str "temp then restore" "v=local\nglobal\n" r.Rc.r_out);
    Alcotest.test_case "cd changes resolution" `Quick (fun () ->
        check_str "relative cat" "alpha\n" (out "cd /work; cat a.c"));
    Alcotest.test_case "scripts found via the context directory" `Quick (fun () ->
        let _, sh = fresh () in
        let ns = Rc.ns sh in
        Vfs.mkdir_p ns "/help/tool";
        Vfs.write_file ns "/help/tool/hello" "echo from the tool dir\n";
        check_str "dot on path" "from the tool dir\n"
          (Rc.run sh ~cwd:"/help/tool" "hello").Rc.r_out);
    Alcotest.test_case "path variable controls search" `Quick (fun () ->
        let _, sh = fresh () in
        let ns = Rc.ns sh in
        Vfs.mkdir_p ns "/alt";
        Vfs.write_file ns "/alt/only" "echo alt\n";
        check_str "custom path" "alt\n"
          (Rc.run sh "path=(/alt /bin); only").Rc.r_out);
    Alcotest.test_case "unknown command reports not found" `Quick (fun () ->
        let r = run "nonsuch" in
        check_int "127" 127 r.Rc.r_status;
        check_bool "message" true (String.length r.Rc.r_err > 0));
    Alcotest.test_case "run_argv executes without parsing" `Quick (fun () ->
        let _, sh = fresh () in
        let r = Rc.run_argv sh [ "echo"; "a*b"; "$x" ] in
        check_str "no glob, no vars" "a*b $x\n" r.Rc.r_out);
    Alcotest.test_case "resolve finds tools and scripts" `Quick (fun () ->
        let _, sh = fresh () in
        check_bool "native" true (Rc.resolve sh ~cwd:"/" "echo" <> None);
        check_bool "missing" true (Rc.resolve sh ~cwd:"/" "zzz" = None));
  ]

let glob_tests =
  [
    Alcotest.test_case "star expands in cwd" `Quick (fun () ->
        check_str "both" "a.c b.c\n" (out ~cwd:"/work" "echo *.c"));
    Alcotest.test_case "no match stays literal" `Quick (fun () ->
        check_str "literal" "*.zip\n" (out ~cwd:"/work" "echo *.zip"));
    Alcotest.test_case "question mark" `Quick (fun () ->
        check_str "single" "a.c\n" (out ~cwd:"/work" "echo a.?"));
    Alcotest.test_case "quoted stars do not expand" `Quick (fun () ->
        check_str "protected" "*.c\n" (out ~cwd:"/work" "echo '*.c'"));
    Alcotest.test_case "absolute patterns give absolute names" `Quick (fun () ->
        check_str "paths" "/work/a.c /work/b.c\n" (out "echo /work/*.c"));
    Alcotest.test_case "directory components" `Quick (fun () ->
        let _, sh = fresh () in
        let ns = Rc.ns sh in
        Vfs.write_file ns "/work/sub/x.c" "x\n";
        check_str "nested" "/work/sub/x.c\n" (Rc.run sh "echo /work/*/x.c").Rc.r_out);
    Alcotest.test_case "class match" `Quick (fun () ->
        check_str "class" "a.c b.c\n" (out ~cwd:"/work" "echo [ab].c"));
  ]

let redirect_tests =
  [
    Alcotest.test_case "output redirection" `Quick (fun () ->
        check_str "file" "hi\n" (out "echo hi > /tmp/f; cat /tmp/f"));
    Alcotest.test_case "append" `Quick (fun () ->
        check_str "both lines" "1\n2\n"
          (out "echo 1 > /tmp/f; echo 2 >> /tmp/f; cat /tmp/f"));
    Alcotest.test_case "input redirection" `Quick (fun () ->
        check_str "stdin" "alpha\n" (out "cat < /work/a.c"));
    Alcotest.test_case "block redirection" `Quick (fun () ->
        check_str "grouped" "a\nb\n" (out "{ echo a; echo b } > /tmp/f; cat /tmp/f"));
    Alcotest.test_case "redirect into a missing directory errors cleanly" `Quick
      (fun () ->
        let r = run "echo x > /nodir/f" in
        check_bool "status nonzero" true (r.Rc.r_status <> 0));
  ]

let script_tests =
  [
    Alcotest.test_case "the paper's decl script shape parses" `Quick (fun () ->
        let src =
          "eval `{help/parse -c}\n\
           x=`{cat /mnt/help/new/ctl}\n\
           echo tag $dir/' decl '$id' Close!' > /mnt/help/$x/ctl\n\
           cd $dir\n\
           f=`{basename $file}\n\
           cpp $cppflags $f | rcc -w -g -i$id -n$line -s$f | sed 1q > /mnt/help/$x/bodyapp\n"
        in
        match Rc_parser.parse src with
        | _ -> ()
        | exception e -> Alcotest.failf "parse failed: %s" (Printexc.to_string e));
    Alcotest.test_case "the profile shape runs" `Quick (fun () ->
        let _, sh = fresh () in
        Rc.set_global sh "home" [ "/work" ];
        Rc.set_global sh "service" [ "terminal" ];
        let r =
          Rc.run sh
            "fn x {\n\tif(! ~ $#* 0) $*\n}\n\
             switch($service){\ncase terminal\n\tprompt=('% ' '\t')\ncase cpu\n\techo news\n}\n\
             x echo via-the-fn\n"
        in
        check_int "status" 0 r.Rc.r_status;
        check_str "fn dispatched" "via-the-fn\n" r.Rc.r_out;
        check_bool "prompt set" true (Rc.get_global sh "prompt" <> None));
    Alcotest.test_case "nested function calls see their own args" `Quick
      (fun () ->
        check_str "nesting" "outer inner outer\n"
          (out
             "fn inner { echo -n 'inner ' }\n\
              fn outer { echo -n $1' '; inner; echo $1 }\n\
              outer outer"));
    Alcotest.test_case "multiline pipelines with trailing |" `Quick (fun () ->
        check_str "continued" "b\n" (out "echo 'a\nb' |\ngrep b"));
    Alcotest.test_case "dot sourcing affects the caller" `Quick (fun () ->
        let _, sh = fresh () in
        let ns = Rc.ns sh in
        Vfs.mkdir_p ns "/lib";
        Vfs.write_file ns "/lib/setup" "sourced=yes\nfn hello { echo hi }\n";
        let r = Rc.run sh ". /lib/setup; echo $sourced; hello" in
        check_str "var and fn" "yes\nhi\n" r.Rc.r_out);
    Alcotest.test_case "deep recursion terminates" `Quick (fun () ->
        (* 50 levels of shell function recursion *)
        let r =
          run
            "fn down { if(! ~ $1 0) down `{echo $1 | sed 's/.*/0/'} }\n\
             down 9; echo done"
        in
        check_int "status" 0 r.Rc.r_status);
    Alcotest.test_case "command substitution captures pipeline output" `Quick
      (fun () ->
        check_str "captured" "B\n" (out "v=`{echo 'a\nB' | grep B}; echo $v"));
    Alcotest.test_case "stderr of a pipeline stage reaches the caller" `Quick
      (fun () ->
        let r = run "cat /does/not/exist | cat" in
        check_bool "diagnostic" true (String.length r.Rc.r_err > 0);
        check_str "empty stdout" "" r.Rc.r_out);
    Alcotest.test_case "& separates commands (synchronous deviation)" `Quick
      (fun () ->
        check_str "both run" "a\nb\n" (out "echo a & echo b");
        check_str "trailing & tolerated" "bg\n" (out "echo bg &"));
  ]

let prop_lexer_total =
  QCheck.Test.make ~name:"lexer is total on printable input" ~count:500
    (QCheck.make QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 40)))
    (fun s ->
      match Rc_lexer.tokenize s with
      | _ -> true
      | exception Rc_lexer.Lex_error _ -> true)

let prop_parser_total =
  QCheck.Test.make ~name:"parser is total on printable input" ~count:500
    (QCheck.make QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 40)))
    (fun s ->
      match Rc_parser.parse s with
      | _ -> true
      | exception Rc_parser.Parse_error _ -> true
      | exception Rc_lexer.Lex_error _ -> true)

(* property: glob matching agrees with the reference matcher
   (test/rc_glob_ref.ml) on words of unquoted and quoted chunks: stars,
   question marks, classes with ranges, negation and a leading ']',
   unterminated '[' and stray class syntax, against names drawn from
   the same bytes (up to 12 of them) or spelled from the word. *)
let glob_piece =
  QCheck.Gen.(
    frequency
      [ (8, oneofl [ "a"; "b"; "c" ]); (3, return "*"); (2, return "?");
        (1, oneofl [ "[a-c]"; "[^b]"; "[]a]"; "[b-a]"; "[^]]" ]);
        (1, oneofl [ "["; "]"; "-"; "^" ]) ])

let glob_word =
  QCheck.Gen.(
    list_size (int_range 1 3)
      (pair (list_size (int_range 0 5) glob_piece >|= String.concat "")
         (frequency [ (3, return false); (1, return true) ])))

let glob_name =
  QCheck.Gen.(
    string_size
      ~gen:(frequency [ (8, oneofl [ 'a'; 'b'; 'c' ]);
                        (1, oneofl [ '*'; '?'; '['; ']'; '-'; '^' ]) ])
      (int_range 0 12))

(* A name spelled from the word itself, each unquoted '*' standing for
   up to three letters and each '?' for one, so that about half the
   drawn cases match. *)
let glob_instance chunks =
  let letter = QCheck.Gen.oneofl [ 'a'; 'b'; 'c' ] in
  let part (text, quoted) =
    if quoted then QCheck.Gen.return text
    else
      QCheck.Gen.(
        flatten_l
          (List.map
             (function
               | '*' -> string_size ~gen:letter (int_range 0 3)
               | '?' -> map (String.make 1) letter
               | c -> return (String.make 1 c))
             (List.of_seq (String.to_seq text)))
        >|= String.concat "")
  in
  QCheck.Gen.(flatten_l (List.map part chunks) >|= String.concat "")

let print_word chunks =
  String.concat " + "
    (List.map (fun (s, q) -> Printf.sprintf (if q then "'%s'" else "%s") s) chunks)

let prop_glob_vs_reference =
  QCheck.Test.make ~name:"glob matching agrees with a naive reference"
    ~count:3000
    (QCheck.make
       ~print:(fun (w, s) -> Printf.sprintf "pat=%s s=%S" (print_word w) s)
       QCheck.Gen.(
         glob_word >>= fun w ->
         pair (return w) (frequency [ (1, glob_name); (1, glob_instance w) ])))
    (fun (chunks, s) ->
      Rc_glob.matches (Rc_glob.compile chunks) s
      = Rc_glob_ref.matches (Rc_glob_ref.compile chunks) s)

(* property: expansion agrees with the reference's on a generated tree
   under /t, for relative, absolute, "./" and "../" patterns of one to
   three components, with "//" and a trailing '/', from several cwds. *)
let glob_tree =
  QCheck.Gen.(
    list_size (int_range 1 14)
      (list_size (int_range 1 3)
         (oneofl [ "a"; "b"; "ab"; "b1.c"; "bb.c"; "a.c"; "c.h" ])))

let glob_pattern =
  QCheck.Gen.(
    triple
      (oneofl [ ""; "/t/"; "../"; "./"; "/t//"; "/"; "../../t/" ])
      (list_size (int_range 1 3)
         (oneofl [ "*"; "b?.c"; "*.c"; "[ab]*"; "a"; "ab"; "?"; "*b*"; "[^a]*"; ".." ]))
      bool
    >|= fun (prefix, comps, trailing) ->
    prefix ^ String.concat "/" comps ^ if trailing then "/" else "")

let prop_expand_vs_reference =
  QCheck.Test.make ~name:"glob expansion agrees with the reference" ~count:500
    (QCheck.make
       ~print:(fun (tree, pat, cwd) ->
         Printf.sprintf "tree=[%s] pat=%S cwd=%S"
           (String.concat "; " (List.map (String.concat "/") tree))
           pat cwd)
       (QCheck.Gen.triple glob_tree glob_pattern
          (QCheck.Gen.oneofl [ "/t"; "/t/a"; "/t/ab"; "/"; "/t/b/" ])))
    (fun (tree, pat, cwd) ->
      let ns = Vfs.create () in
      Vfs.mkdir_p ns "/t";
      List.iter
        (fun comps ->
          let path = "/t/" ^ String.concat "/" comps in
          try
            Vfs.mkdir_p ns (Vfs.dirname path);
            Vfs.write_file ns path "x"
          with Vfs.Error _ -> ())
        tree;
      let chunks = [ (pat, false) ] in
      Rc_glob.expand ns ~cwd chunks = Rc_glob_ref.expand ns ~cwd chunks)

let prop_echo_roundtrip =
  QCheck.Test.make ~name:"echo of quoted text is identity" ~count:200
    (QCheck.make
       QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 1 20)))
    (fun s -> out (Printf.sprintf "echo '%s'" s) = s ^ "\n")

let () =
  Alcotest.run "shell"
    [
      ("lexer", lexer_tests);
      ("eval", eval_tests);
      ("glob", glob_tests);
      ("redirect", redirect_tests);
      ("scripts", script_tests);
      ( "property",
        List.map (Seeded.to_alcotest 47)
          [ prop_lexer_total; prop_parser_total; prop_glob_vs_reference;
            prop_expand_vs_reference; prop_echo_roundtrip ] );
    ]
