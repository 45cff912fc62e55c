(* C browser: lexer, preprocessor, scope-correct decl/uses, and the
   cpp|rcc pipeline the decl/uses scripts run. *)

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh () =
  let ns = Vfs.create () in
  Corpus.install ns;
  ns

(* A lexer's result in a form both lexers share: each token with its
   (file, line), or the error and its position. *)
type lexed = ((string * string * int) list, string * string * int) result

let lexed : lexed Alcotest.testable =
  Alcotest.(result (list (triple string string int)) (triple string string int))

let lex ~file text : lexed =
  let show = function
    | C_lexer.Ident s -> "id " ^ s
    | C_lexer.Keyword s -> "kw " ^ s
    | C_lexer.Int_lit s -> "int " ^ s
    | C_lexer.Char_lit s -> "chr " ^ s
    | C_lexer.Str_lit s -> "str " ^ s
    | C_lexer.Punct s -> "op " ^ s
    | C_lexer.Eof -> "eof"
  in
  match C_lexer.tokenize ~file text with
  | toks ->
      Ok
        (List.map
           (fun (t : C_lexer.spanned) -> (show t.tok, t.pos.file, t.pos.line))
           toks)
  | exception C_lexer.Lex_error (msg, p) -> Error (msg, p.file, p.line)
  | exception Failure msg -> Error (msg, "", 0)

let lex_ref ~file text : lexed =
  let show = function
    | C_lexer_ref.Ident s -> "id " ^ s
    | C_lexer_ref.Keyword s -> "kw " ^ s
    | C_lexer_ref.Int_lit s -> "int " ^ s
    | C_lexer_ref.Char_lit s -> "chr " ^ s
    | C_lexer_ref.Str_lit s -> "str " ^ s
    | C_lexer_ref.Punct s -> "op " ^ s
    | C_lexer_ref.Eof -> "eof"
  in
  match C_lexer_ref.tokenize ~file text with
  | toks ->
      Ok
        (List.map
           (fun (t : C_lexer_ref.spanned) -> (show t.tok, t.pos.file, t.pos.line))
           toks)
  | exception C_lexer_ref.Lex_error (msg, p) -> Error (msg, p.file, p.line)
  | exception Failure msg -> Error (msg, "", 0)

let lexer_tests =
  [
    Alcotest.test_case "identifiers, keywords, punctuation" `Quick (fun () ->
        let toks = C_lexer.tokenize ~file:"t.c" "int main(void) { return n; }" in
        let kinds =
          List.map
            (fun (t : C_lexer.spanned) ->
              match t.tok with
              | C_lexer.Keyword k -> "kw:" ^ k
              | C_lexer.Ident i -> "id:" ^ i
              | C_lexer.Punct p -> p
              | C_lexer.Int_lit _ -> "int"
              | C_lexer.Str_lit _ -> "str"
              | C_lexer.Char_lit _ -> "chr"
              | C_lexer.Eof -> "eof")
            toks
        in
        Alcotest.(check (list string)) "kinds"
          [ "kw:int"; "id:main"; "("; "kw:void"; ")"; "{"; "kw:return";
            "id:n"; ";"; "}"; "eof" ]
          kinds);
    Alcotest.test_case "comments are skipped, lines counted" `Quick (fun () ->
        let toks =
          C_lexer.tokenize ~file:"t.c" "/* one\ntwo */ x\n// trailing\ny"
        in
        match toks with
        | [ { tok = C_lexer.Ident "x"; pos = p1 };
            { tok = C_lexer.Ident "y"; pos = p2 }; _ ] ->
            check_int "x line" 2 p1.C_lexer.line;
            check_int "y line" 4 p2.C_lexer.line
        | _ -> Alcotest.fail "unexpected tokens");
    Alcotest.test_case "line markers reset position" `Quick (fun () ->
        let toks = C_lexer.tokenize ~file:"t.c" "# 10 \"other.h\"\nx" in
        match toks with
        | [ { tok = C_lexer.Ident "x"; pos }; _ ] ->
            check_str "file" "other.h" pos.C_lexer.file;
            check_int "line" 10 pos.C_lexer.line
        | _ -> Alcotest.fail "unexpected tokens");
    Alcotest.test_case "strings and chars with escapes" `Quick (fun () ->
        let toks = C_lexer.tokenize ~file:"t.c" "\"a\\\"b\" '\\n'" in
        match toks with
        | [ { tok = C_lexer.Str_lit s; _ }; { tok = C_lexer.Char_lit c; _ }; _ ] ->
            check_str "string body" "a\\\"b" s;
            check_str "char body" "\\n" c
        | _ -> Alcotest.fail "unexpected tokens");
    Alcotest.test_case "multi-char punctuators" `Quick (fun () ->
        let toks = C_lexer.tokenize ~file:"t.c" "a->b >>= c" in
        let puncts =
          List.filter_map
            (fun (t : C_lexer.spanned) ->
              match t.tok with C_lexer.Punct p -> Some p | _ -> None)
            toks
        in
        Alcotest.(check (list string)) "ops" [ "->"; ">>=" ] puncts);
    Alcotest.test_case "agrees with the reference on the corpora" `Quick
      (fun () ->
        let ns = fresh () in
        let dir = Corpus.install_synthetic ns ~modules:120 in
        let units =
          List.map (fun f -> (Corpus.src_dir, f)) Corpus.c_files
          @ List.init 120 (fun i -> (dir, Printf.sprintf "mod%03d.c" i))
        in
        List.iter
          (fun (dir, file) ->
            let raw = Vfs.read_file ns (dir ^ "/" ^ file) in
            let preprocessed = Cbr.preprocess ns ~dir file in
            List.iter
              (fun text ->
                Alcotest.check lexed file (lex_ref ~file text) (lex ~file text))
              [ raw; preprocessed ])
          units);
  ]

(* The seed lexer (test/c_lexer_ref.ml) is the reference: on text mixing
   raw bytes with the constructs whose edges the lexer special-cases,
   both give the same tokens at the same (file, line), or the same
   Lex_error at the same position. *)
let multi_puncts =
  [ "<<="; ">>="; "..."; "->"; "++"; "--"; "<<"; ">>"; "<="; ">="; "==";
    "!="; "&&"; "||"; "+="; "-="; "*="; "/="; "%="; "&="; "^="; "|=" ]

let lex_fragments =
  [
    (* line markers, a name with spaces, other cpp residue *)
    "# 12 \"a b.h\"\n"; "# 3 \"x.h\"\n"; "#\t40 \"t.h\" 2\n";
    "#include <u.h>\n"; "#\n"; "# 7\n"; "#";
    (* comments *)
    "/* c */"; "/*\n\n*/"; "/**/"; "// line\n"; "//";
    (* literals: escaped quotes, backslash-newline, a newline in a char *)
    "\"a\\\"b\""; "'\\''"; "\"x\\\ny\""; "'\\\n'"; "'a'"; "\"\""; "'\n'";
    (* unterminated strings, chars and comments *)
    "\""; "'"; "/*"; "\"ab\ncd"; "'ab"; "\"\\";
    (* numbers and exponents *)
    "1e-3"; "2E+10"; "0x1e+5"; "3.14"; "1.";
    (* NUL, form feed, vertical tab, bytes >= 0x80 *)
    "\000"; "\012"; "\011"; "\x80"; "\xff";
    (* words, space *)
    "int"; "while"; "x1"; "_"; " "; "\n"; "\t"; "\r"; "\\";
  ]
  @ multi_puncts

let lex_text_gen =
  QCheck.Gen.(
    let piece =
      frequency
        [ (3, oneofl lex_fragments);
          (1, map (fun c -> String.make 1 (Char.chr c)) (int_range 0 255)) ]
    in
    (* every multi-byte punctuator, also cut off at the end of input *)
    let tail =
      oneof
        [ return "";
          oneofl multi_puncts;
          map
            (fun (p, k) -> String.sub p 0 (1 + (k mod (String.length p - 1))))
            (pair (oneofl multi_puncts) (int_range 0 1)) ]
    in
    map2
      (fun ps tail -> String.concat "" ps ^ tail)
      (list_size (int_range 0 40) piece)
      tail)

let prop_lexer_vs_reference =
  QCheck.Test.make ~name:"agrees with the reference on generated text"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") lex_text_gen)
    (fun text -> lex ~file:"t.c" text = lex_ref ~file:"t.c" text)

let cpp_tests =
  [
    Alcotest.test_case "quoted includes splice with markers" `Quick (fun () ->
        let ns = fresh () in
        let text = Cbr.preprocess ns ~dir:Corpus.src_dir "exec.c" in
        check_bool "dat.h marker present" true
          (let needle = "# 1 \"./dat.h\"" in
           let n = String.length needle and m = String.length text in
           let rec f i = i + n <= m && (String.sub text i n = needle || f (i + 1)) in
           f 0));
    Alcotest.test_case "system includes come from /sys/include" `Quick (fun () ->
        let ns = fresh () in
        let text = Cbr.preprocess ns ~dir:Corpus.src_dir "help.c" in
        check_bool "strlen prototype seen" true
          (let needle = "strlen" in
           let n = String.length needle and m = String.length text in
           let rec f i = i + n <= m && (String.sub text i n = needle || f (i + 1)) in
           f 0));
    Alcotest.test_case "headers included once" `Quick (fun () ->
        let ns = fresh () in
        Vfs.mkdir_p ns "/x";
        Vfs.write_file ns "/x/a.h" "int shared;\n";
        Vfs.write_file ns "/x/b.h" "#include \"a.h\"\n";
        Vfs.write_file ns "/x/m.c" "#include \"a.h\"\n#include \"b.h\"\n";
        let text = Cbr.preprocess ns ~dir:"/x" "m.c" in
        let count needle =
          let n = String.length needle and m = String.length text in
          let rec f i acc =
            if i + n > m then acc
            else f (i + 1) (acc + if String.sub text i n = needle then 1 else 0)
          in
          f 0 0
        in
        check_int "one copy of the declaration" 1 (count "int shared"));
    Alcotest.test_case "missing include noted, not fatal" `Quick (fun () ->
        let ns = fresh () in
        Vfs.mkdir_p ns "/x";
        Vfs.write_file ns "/x/m.c" "#include \"gone.h\"\nint x;\n";
        let text = Cbr.preprocess ns ~dir:"/x" "m.c" in
        check_bool "declaration survives" true
          (let needle = "int x;" in
           let n = String.length needle and m = String.length text in
           let rec f i = i + n <= m && (String.sub text i n = needle || f (i + 1)) in
           f 0));
  ]

(* cpp against the reference preprocessor (test/cpp_ref.ml) on
   generated include trees: quoted, <system> and absolute includes,
   indented ones, [#include"x.h"] with no space, [# include] (not a
   directive), malformed ones, missing and repeated headers, cycles,
   '\r' and form feeds, empty files and files with no final newline.
   Every file preprocessed on its own and the [cpp] tool over several
   must give the reference's bytes. *)
let cpp_tree =
  let open QCheck.Gen in
  let name = oneofl [ "h1.h"; "h2.h"; "sub/h3.h"; "../x/h1.h"; "gone.h"; "a.c"; "" ] in
  let sys = oneofl [ "u.h"; "v.h"; "gone.h"; "/abs/w.h"; "" ] in
  let space = oneofl [ ""; " "; "\t"; "  "; "\012"; "\r" ] in
  let directive =
    oneof
      [
        map3 (fun a n b -> a ^ "#include \"" ^ n ^ "\"" ^ b) space name space;
        map3 (fun a n b -> a ^ "#include <" ^ n ^ ">" ^ b) space sys space;
        map (fun n -> "#include\"" ^ n ^ "\"") name;
        map (fun n -> "#include\t<" ^ n ^ "> // trailing") sys;
        map (fun n -> "#include \"/abs/" ^ n ^ "\"") (oneofl [ "w.h"; "gone.h" ]);
        map (fun n -> "# include \"" ^ n ^ "\"") name;
        oneofl [ "#include"; "#include \"h1.h"; "#include <"; "#includeh1.h"; "#define X 1"; "  #" ];
      ]
  in
  let text = string_size ~gen:(oneofl [ 'i'; 'n'; 't'; ' '; ';'; '#'; '"'; '<'; '\r' ]) (int_range 0 10) in
  let file =
    map2
      (fun ls final -> String.concat "\n" ls ^ if final then "\n" else "")
      (list_size (int_range 0 5) (frequency [ (2, text); (3, directive) ]))
      bool
  in
  list_repeat 8 file

let prop_cpp_vs_reference =
  let paths =
    [ "/x/a.c"; "/x/b.c"; "/x/h1.h"; "/x/h2.h"; "/x/sub/h3.h"; "/sys/include/u.h";
      "/sys/include/v.h"; "/abs/w.h" ]
  in
  QCheck.Test.make ~name:"cpp = reference preprocessor on generated trees" ~count:500
    (QCheck.make
       ~print:(fun files ->
         String.concat "\n" (List.map2 (Printf.sprintf "%s: %S") paths files))
       cpp_tree)
    (fun files ->
      let ns = Vfs.create () in
      List.iter2
        (fun path text ->
          Vfs.mkdir_p ns (Vfs.dirname path);
          Vfs.write_file ns path text)
        paths files;
      List.for_all
        (fun top -> Cbr.preprocess ns ~dir:"/x" top = Cpp_ref.preprocess ns ~dir:"/x" top)
        [ "a.c"; "b.c"; "sub/h3.h"; "/abs/w.h"; "gone.c" ]
      &&
      let sh = Rc.create ns in
      Cbr.install sh;
      let r = Rc.run_argv sh ~cwd:"/x" [ "cpp"; "-DX"; "a.c"; "gone.c"; "b.c" ] in
      r.Rc.r_out
      = String.concat ""
          (List.map (Cpp_ref.preprocess ns ~dir:"/x") [ "a.c"; "gone.c"; "b.c" ])
      && r.Rc.r_status = 0 && r.Rc.r_err = "")

(* Every decl, occurrence and error of a program, one per line. *)
let program_text (p : C_symbols.program) =
  let b = Buffer.create 65536 in
  let at (q : C_lexer.pos) = Printf.sprintf "%s:%d" q.file q.line in
  List.iter
    (fun (d : C_symbols.decl) ->
      Printf.bprintf b "decl %d %s %s %s%s\n" d.d_id d.d_name
        (C_symbols.kind_name d.d_kind) (at d.d_pos)
        (if d.d_global then " global" else ""))
    p.p_decls;
  List.iter
    (fun (o : C_symbols.occurrence) ->
      Printf.bprintf b "%s %s %s -> %s\n"
        (if o.o_is_decl then "def" else "use")
        o.o_name (at o.o_pos)
        (match o.o_decl with Some id -> string_of_int id | None -> "extern"))
    p.p_occs;
  List.iter
    (fun (msg, q) -> Printf.bprintf b "error %s %s\n" (at q) msg)
    p.p_errors;
  Buffer.contents b

(* a unit that walks the parser's error and recovery paths *)
let malformed =
  "int f(int a, 3) { return a; }\n\
   int g(void) { x.y->z = sizeof(struct S); p->q = 1; }\n\
   struct T { int k } t;\n\
   int h = , ;\n\
   ) ] int late;\n\
   int ((( {{{ ;;; broken ***\n"

let analysis_tests =
  [
    Alcotest.test_case "corpus parses without errors" `Quick (fun () ->
        let ns = fresh () in
        let p = Cbr.analyze ns ~cwd:Corpus.src_dir Corpus.c_files in
        check_int "no parse errors" 0 (List.length p.C_symbols.p_errors));
    Alcotest.test_case "decl of the global n is in dat.h" `Quick (fun () ->
        let ns = fresh () in
        let p = Cbr.analyze ns ~cwd:Corpus.src_dir Corpus.c_files in
        let line = Corpus.line_of ns (Corpus.src_dir ^ "/exec.c") "errs((uchar*)n)" in
        match Cbr.decl_of p ~file:"exec.c" ~line ~name:"n" with
        | Some (f, l, kind) ->
            check_str "file" "./dat.h" f;
            check_str "kind" "var" kind;
            check_int "declared at the extern" l
              (Corpus.line_of ns (Corpus.src_dir ^ "/dat.h") "extern char *n;")
        | None -> Alcotest.fail "decl not found");
    Alcotest.test_case "uses of global n exclude the local n" `Quick (fun () ->
        let ns = fresh () in
        let p = Cbr.analyze ns ~cwd:Corpus.src_dir Corpus.c_files in
        let line = Corpus.line_of ns (Corpus.src_dir ^ "/exec.c") "errs((uchar*)n)" in
        let uses = Cbr.uses_of p ~file:"exec.c" ~line ~name:"n" in
        check_bool "no text.c reference (local n shadows)" true
          (List.for_all (fun (f, _) -> f <> "text.c") uses);
        check_bool "includes the clear in Xdie1" true
          (List.mem
             ("exec.c", Corpus.line_of ns (Corpus.src_dir ^ "/exec.c") "n = 0;")
             uses);
        check_bool "includes the init in help.c" true
          (List.mem
             ("help.c",
              Corpus.line_of ns (Corpus.src_dir ^ "/help.c") "a test string")
             uses));
    Alcotest.test_case "local n resolves to textinsert's declaration" `Quick
      (fun () ->
        let ns = fresh () in
        let p = Cbr.analyze ns ~cwd:Corpus.src_dir Corpus.c_files in
        let use_line =
          Corpus.line_of ns (Corpus.src_dir ^ "/text.c") "strinsert(t, s, n, q0)"
        in
        match Cbr.decl_of p ~file:"text.c" ~line:use_line ~name:"n" with
        | Some (f, l, _) ->
            check_str "file" "text.c" f;
            check_bool "declared inside textinsert, not dat.h" true
              (l > Corpus.line_of ns (Corpus.src_dir ^ "/text.c") "textinsert(int sel")
        | None -> Alcotest.fail "decl not found");
    Alcotest.test_case "function decls resolve" `Quick (fun () ->
        let ns = fresh () in
        let p = Cbr.analyze ns ~cwd:Corpus.src_dir Corpus.c_files in
        let line = Corpus.line_of ns (Corpus.src_dir ^ "/errs.c") "textinsert(1, &p->body" in
        match Cbr.decl_of p ~file:"errs.c" ~line ~name:"textinsert" with
        | Some (_, _, kind) -> check_bool "func or extern decl" true (kind = "func" || kind = "var")
        | None -> Alcotest.fail "decl not found");
    Alcotest.test_case "typedef names resolve as typedefs" `Quick (fun () ->
        let ns = fresh () in
        let p = Cbr.analyze ns ~cwd:Corpus.src_dir [ "page.c" ] in
        let line = Corpus.line_of ns (Corpus.src_dir ^ "/page.c") "Page *p;" in
        match Cbr.decl_of p ~file:"page.c" ~line ~name:"Page" with
        | Some (f, _, kind) ->
            check_str "kind" "typedef" kind;
            check_str "from dat.h" "./dat.h" f
        | None -> Alcotest.fail "typedef not resolved");
    Alcotest.test_case "enum constants are declared" `Quick (fun () ->
        let ns = fresh () in
        let p = Cbr.analyze ns ~cwd:Corpus.src_dir [ "file.c" ] in
        let line = Corpus.line_of ns (Corpus.src_dir ^ "/file.c") "emalloc(Maxwrite)" in
        match Cbr.decl_of p ~file:"file.c" ~line ~name:"Maxwrite" with
        | Some (_, _, kind) -> check_str "kind" "enum" kind
        | None -> Alcotest.fail "enum constant not resolved");
    Alcotest.test_case "uses beats grep by orders of magnitude" `Quick (fun () ->
        let ns = fresh () in
        let p = Cbr.analyze ns ~cwd:Corpus.src_dir Corpus.c_files in
        let line = Corpus.line_of ns (Corpus.src_dir ^ "/exec.c") "errs((uchar*)n)" in
        let semantic = List.length (Cbr.uses_of p ~file:"exec.c" ~line ~name:"n") in
        let textual = Cbr.grep_count ns ~cwd:Corpus.src_dir Corpus.c_files "n" in
        check_bool "at least 20x fewer" true (textual > 20 * semantic));
    (* The digests were recorded with the parser that indexed an array
       of tokens, so they hold today's parser to that one's output. *)
    Alcotest.test_case "printouts match the recorded digests" `Quick
      (fun () ->
        let ns = fresh () in
        let dir = Corpus.install_synthetic ns ~modules:120 in
        let units = List.init 120 (fun i -> Printf.sprintf "mod%03d.c" i) in
        Vfs.mkdir_p ns "/m";
        Vfs.write_file ns "/m/bad.c" malformed;
        let digest p = Digest.to_hex (Digest.string (program_text p)) in
        check_str "13-unit corpus" "1159d533bbee2e53150d024f9999873e"
          (digest (Cbr.analyze ns ~cwd:Corpus.src_dir Corpus.c_files));
        check_str "120-unit synthetic" "da01ce9672e5e55e3fa6882958ecf7e5"
          (digest (Cbr.analyze ns ~cwd:dir units));
        check_str "120-unit synthetic, indexed"
          "da01ce9672e5e55e3fa6882958ecf7e5"
          (digest (Cbr.analyze ~index:(Cbr.create_index ()) ns ~cwd:dir units));
        check_str "malformed unit" "24e3d77dc122360623c167a1ad7ba3cc"
          (digest (Cbr.analyze ns ~cwd:"/m" [ "bad.c" ])));
  ]

(* parser robustness: C shapes beyond the corpus *)
let snippet_tests =
  let analyze_snippet code =
    let ns = Vfs.create () in
    Vfs.mkdir_p ns "/s";
    Vfs.write_file ns "/s/t.c" code;
    Cbr.analyze ns ~cwd:"/s" [ "t.c" ]
  in
  let decl_in code ~line ~name =
    Cbr.decl_of (analyze_snippet code) ~file:"t.c" ~line ~name
  in
  let errors code = (analyze_snippet code).C_symbols.p_errors in
  [
    Alcotest.test_case "do-while and switch/case bodies" `Quick (fun () ->
        let code =
          "int f(int x)\n{\n\tint acc;\n\n\tacc = 0;\n\tdo{\n\t\tacc++;\n\t}while(acc < x);\n\tswitch(x){\n\tcase 1:\n\t\tacc = 2;\n\t\tbreak;\n\tdefault:\n\t\tacc = 3;\n\t}\n\treturn acc;\n}\n"
        in
        check_int "no errors" 0 (List.length (errors code));
        match decl_in code ~line:7 ~name:"acc" with
        | Some (_, 3, _) -> ()
        | other ->
            Alcotest.failf "acc resolved to %s"
              (match other with
              | Some (f, l, k) -> Printf.sprintf "%s:%d (%s)" f l k
              | None -> "nothing"));
    Alcotest.test_case "function pointers in declarations" `Quick (fun () ->
        let code = "int (*handler)(int sig);\nint g(void)\n{\n\treturn (*handler)(2);\n}\n" in
        check_int "no errors" 0 (List.length (errors code));
        match decl_in code ~line:4 ~name:"handler" with
        | Some (_, 1, _) -> ()
        | _ -> Alcotest.fail "handler unresolved");
    Alcotest.test_case "nested blocks shadow correctly" `Quick (fun () ->
        let code =
          "int v;\nint f(void)\n{\n\tint v;\n\n\tv = 1;\n\t{\n\t\tint v;\n\n\t\tv = 2;\n\t}\n\treturn v;\n}\n"
        in
        (match decl_in code ~line:10 ~name:"v" with
        | Some (_, 8, _) -> ()
        | _ -> Alcotest.fail "inner v should win at line 10");
        (match decl_in code ~line:12 ~name:"v" with
        | Some (_, 4, _) -> ()
        | _ -> Alcotest.fail "function v should win at line 12");
        match decl_in code ~line:6 ~name:"v" with
        | Some (_, 4, _) -> ()
        | _ -> Alcotest.fail "function v should win at line 6");
    Alcotest.test_case "initializer lists and arrays" `Quick (fun () ->
        let code =
          "int table[] = { 1, 2, 3 };\nchar *names[2] = { \"a\", \"b\" };\nint use(void)\n{\n\treturn table[1];\n}\n"
        in
        check_int "no errors" 0 (List.length (errors code));
        match decl_in code ~line:5 ~name:"table" with
        | Some (_, 1, _) -> ()
        | _ -> Alcotest.fail "table unresolved");
    Alcotest.test_case "enum values and casts in expressions" `Quick (fun () ->
        let code =
          "enum { Small = 1, Big = Small + 10 };\n\
           typedef unsigned char uchar;\n\
           int f(void)\n{\n\treturn (int)(uchar)Big;\n}\n"
        in
        check_int "no errors" 0 (List.length (errors code));
        match decl_in code ~line:5 ~name:"Big" with
        | Some (_, 1, "enum") -> ()
        | _ -> Alcotest.fail "Big unresolved");
    Alcotest.test_case "member names are not identifier uses" `Quick (fun () ->
        let code =
          "typedef struct P P;\nstruct P { int x; };\nint x;\nint f(P *p)\n{\n\treturn p->x;\n}\n"
        in
        let p = analyze_snippet code in
        let uses = Cbr.uses_of p ~file:"t.c" ~line:3 ~name:"x" in
        check_bool "no line-6 reference" true (not (List.mem ("t.c", 6) uses)));
    Alcotest.test_case "garbage input terminates with errors" `Quick (fun () ->
        let code = "int ((( {{{ ;;; broken ***\n" in
        check_bool "errors reported" true (errors code <> []));
  ]

let pipeline_tests =
  [
    Alcotest.test_case "cpp | rcc decl through the shell" `Quick (fun () ->
        let ns = fresh () in
        let sh = Rc.create ns in
        Coreutils.install sh;
        Cbr.install sh;
        let line = Corpus.line_of ns (Corpus.src_dir ^ "/exec.c") "errs((uchar*)n)" in
        let r =
          Rc.run sh ~cwd:Corpus.src_dir
            (Printf.sprintf "cpp exec.c | rcc -w -g -in -n%d -sexec.c | sed 1q" line)
        in
        check_int "status" 0 r.Rc.r_status;
        check_bool "points into dat.h" true
          (String.length r.Rc.r_out > 8 && String.sub r.Rc.r_out 0 8 = "./dat.h:");
        ignore r);
    Alcotest.test_case "rcc -u lists references" `Quick (fun () ->
        let ns = fresh () in
        let sh = Rc.create ns in
        Coreutils.install sh;
        Cbr.install sh;
        let line = Corpus.line_of ns (Corpus.src_dir ^ "/exec.c") "errs((uchar*)n)" in
        let r =
          Rc.run sh ~cwd:Corpus.src_dir
            (Printf.sprintf "cpp *.c | rcc -u -in -n%d -sexec.c" line)
        in
        check_int "status" 0 r.Rc.r_status;
        check_bool "several lines" true
          (List.length (String.split_on_char '\n' (String.trim r.Rc.r_out)) >= 4));
    Alcotest.test_case "rcc errors for unknown identifiers" `Quick (fun () ->
        let ns = fresh () in
        let sh = Rc.create ns in
        Coreutils.install sh;
        Cbr.install sh;
        let r = Rc.run sh ~cwd:Corpus.src_dir "cpp exec.c | rcc -izzz" in
        check_bool "fails" true (r.Rc.r_status <> 0));
    Alcotest.test_case "rcc reports a lexical error with status 1" `Quick
      (fun () ->
        let ns = fresh () in
        let sh = Rc.create ns in
        Coreutils.install sh;
        Cbr.install sh;
        List.iter
          (fun (text, want) ->
            Vfs.write_file ns (Corpus.src_dir ^ "/bad.c") text;
            let r = Rc.run sh ~cwd:Corpus.src_dir "cpp bad.c | rcc -ia" in
            check_int "status" 1 r.Rc.r_status;
            check_str "message" want r.Rc.r_err)
          [ ("int a;\n/* never closed\n", "rcc: bad.c:3: unterminated comment\n");
            ("char *a = \"abc;\nint y;\n", "rcc: bad.c:1: newline in string\n") ]);
  ]

let () =
  Alcotest.run "cbr"
    [
      ( "lexer",
        lexer_tests
        @ [ Seeded.to_alcotest 18 prop_lexer_vs_reference ] );
      ("cpp", cpp_tests @ [ Seeded.to_alcotest 18 prop_cpp_vs_reference ]);
      ("analysis", analysis_tests);
      ("snippets", snippet_tests);
      ("pipeline", pipeline_tests);
    ]
