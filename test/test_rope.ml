(* Rope: unit tests for the core editing algebra plus qcheck laws
   comparing every operation against plain strings. *)

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* reference implementations on strings *)
let str_insert s pos t = String.sub s 0 pos ^ t ^ String.sub s pos (String.length s - pos)
let str_delete s pos len =
  String.sub s 0 pos ^ String.sub s (pos + len) (String.length s - pos - len)

let unit_tests =
  [
    Alcotest.test_case "empty" `Quick (fun () ->
        check_int "len" 0 (Rope.length Rope.empty);
        check_bool "is_empty" true (Rope.is_empty Rope.empty);
        check_str "to_string" "" (Rope.to_string Rope.empty));
    Alcotest.test_case "of_string/to_string roundtrip" `Quick (fun () ->
        let s = "hello, world\nsecond line\n" in
        check_str "roundtrip" s (Rope.to_string (Rope.of_string s)));
    Alcotest.test_case "large roundtrip crosses leaves" `Quick (fun () ->
        let s = String.concat "\n" (List.init 500 (fun i -> Printf.sprintf "line %d of the test text" i)) in
        let r = Rope.of_string s in
        check_str "roundtrip" s (Rope.to_string r);
        check_bool "balanced tree invariants" true (Rope.check r);
        check_bool "tree is not a single leaf" true (Rope.height r > 0));
    Alcotest.test_case "get" `Quick (fun () ->
        let r = Rope.of_string "abcdef" in
        Alcotest.(check char) "get 0" 'a' (Rope.get r 0);
        Alcotest.(check char) "get 5" 'f' (Rope.get r 5);
        Alcotest.check_raises "out of bounds" (Invalid_argument "Rope.get")
          (fun () -> ignore (Rope.get r 6)));
    Alcotest.test_case "insert middle" `Quick (fun () ->
        let r = Rope.insert (Rope.of_string "helloworld") 5 ", " in
        check_str "result" "hello, world" (Rope.to_string r));
    Alcotest.test_case "insert at ends" `Quick (fun () ->
        let r = Rope.of_string "bc" in
        check_str "front" "abc" (Rope.to_string (Rope.insert r 0 "a"));
        check_str "back" "bcd" (Rope.to_string (Rope.insert r 2 "d")));
    Alcotest.test_case "delete" `Quick (fun () ->
        let r = Rope.of_string "hello, world" in
        check_str "mid" "helloworld" (Rope.to_string (Rope.delete r 5 2));
        check_str "all" "" (Rope.to_string (Rope.delete r 0 12)));
    Alcotest.test_case "sub" `Quick (fun () ->
        let r = Rope.of_string "hello, world" in
        check_str "sub" "lo, wo" (Rope.to_string (Rope.sub r 3 6)));
    Alcotest.test_case "split" `Quick (fun () ->
        let a, b = Rope.split (Rope.of_string "abcdef") 2 in
        check_str "left" "ab" (Rope.to_string a);
        check_str "right" "cdef" (Rope.to_string b));
    Alcotest.test_case "newlines count" `Quick (fun () ->
        check_int "three" 3 (Rope.newlines (Rope.of_string "a\nb\nc\n"));
        check_int "none" 0 (Rope.newlines (Rope.of_string "abc")));
    Alcotest.test_case "line_start" `Quick (fun () ->
        let r = Rope.of_string "ab\ncd\nef" in
        check_int "line 1" 0 (Rope.line_start r 1);
        check_int "line 2" 3 (Rope.line_start r 2);
        check_int "line 3" 6 (Rope.line_start r 3);
        Alcotest.check_raises "line 4" Not_found (fun () ->
            ignore (Rope.line_start r 4)));
    Alcotest.test_case "line_of_offset" `Quick (fun () ->
        let r = Rope.of_string "ab\ncd\nef" in
        check_int "offset 0" 1 (Rope.line_of_offset r 0);
        check_int "offset 2 (the newline)" 1 (Rope.line_of_offset r 2);
        check_int "offset 3" 2 (Rope.line_of_offset r 3);
        check_int "offset 8 (end)" 3 (Rope.line_of_offset r 8));
    Alcotest.test_case "line_end" `Quick (fun () ->
        let r = Rope.of_string "ab\ncd" in
        check_int "first line" 2 (Rope.line_end r 0);
        check_int "last line (no newline)" 5 (Rope.line_end r 3));
    Alcotest.test_case "index_from / rindex_before" `Quick (fun () ->
        let r = Rope.of_string "a\nb\nc" in
        Alcotest.(check (option int)) "first nl" (Some 1) (Rope.index_from r 0 '\n');
        Alcotest.(check (option int)) "second nl" (Some 3) (Rope.index_from r 2 '\n');
        Alcotest.(check (option int)) "none" None (Rope.index_from r 4 '\n');
        Alcotest.(check (option int)) "before 4" (Some 3) (Rope.rindex_before r 4 '\n');
        Alcotest.(check (option int)) "before 1" None (Rope.rindex_before r 1 '\n'));
    Alcotest.test_case "to_substring" `Quick (fun () ->
        let s = String.init 2000 (fun i -> Char.chr (32 + (i mod 90))) in
        let r = Rope.of_string s in
        check_str "mid range" (String.sub s 700 600) (Rope.to_substring r 700 600));
    Alcotest.test_case "iter_range" `Quick (fun () ->
        let r = Rope.of_string "abcdef" in
        let b = Buffer.create 4 in
        Rope.iter_range r 1 4 (Buffer.add_char b);
        check_str "collected" "bcde" (Buffer.contents b));
    Alcotest.test_case "fold_chunks concatenates in order" `Quick (fun () ->
        let s = String.make 3000 'x' ^ "ABC" in
        let r = Rope.of_string s in
        let collected = Rope.fold_chunks r ~init:"" ~f:( ^ ) in
        check_str "order" s collected);
  ]

(* qcheck: operations agree with the string model *)
let text_gen = QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 0 400))

let arb_text = QCheck.make ~print:(fun s -> s) text_gen

let prop_insert =
  QCheck.Test.make ~name:"insert agrees with string model" ~count:300
    (QCheck.triple arb_text arb_text QCheck.small_nat)
    (fun (s, t, pos) ->
      let pos = if String.length s = 0 then 0 else pos mod (String.length s + 1) in
      Rope.to_string (Rope.insert (Rope.of_string s) pos t) = str_insert s pos t)

let prop_delete =
  QCheck.Test.make ~name:"delete agrees with string model" ~count:300
    (QCheck.triple arb_text QCheck.small_nat QCheck.small_nat)
    (fun (s, pos, len) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else pos mod (n + 1) in
      let len = min len (n - pos) in
      Rope.to_string (Rope.delete (Rope.of_string s) pos len) = str_delete s pos len)

let prop_split_concat =
  QCheck.Test.make ~name:"split then concat is identity" ~count:300
    (QCheck.pair arb_text QCheck.small_nat)
    (fun (s, i) ->
      let i = if String.length s = 0 then 0 else i mod (String.length s + 1) in
      let a, b = Rope.split (Rope.of_string s) i in
      Rope.to_string (Rope.concat a b) = s && Rope.check (Rope.concat a b))

let prop_line_roundtrip =
  QCheck.Test.make ~name:"line_of_offset inverts line_start" ~count:200
    arb_text
    (fun s ->
      let s = s ^ "\n" in
      let r = Rope.of_string s in
      let lines = Rope.newlines r in
      List.for_all
        (fun n -> Rope.line_of_offset r (Rope.line_start r n) = n)
        (List.init (max 1 lines) (fun i -> i + 1)))

let prop_balanced =
  QCheck.Test.make ~name:"random edit sequences stay balanced and correct"
    ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 1 60)
       (QCheck.triple QCheck.small_nat QCheck.small_nat arb_text))
    (fun ops ->
      let model = ref "" in
      let rope = ref Rope.empty in
      List.iter
        (fun (which, pos, text) ->
          let n = String.length !model in
          let pos = if n = 0 then 0 else pos mod (n + 1) in
          if which mod 2 = 0 then begin
            model := str_insert !model pos text;
            rope := Rope.insert !rope pos text
          end
          else begin
            let len = min (String.length text) (n - pos) in
            model := str_delete !model pos len;
            rope := Rope.delete !rope pos len
          end)
        ops;
      Rope.to_string !rope = !model && Rope.check !rope)

let prop_height_bounded =
  QCheck.Test.make ~name:"height stays logarithmic under many edits" ~count:20
    QCheck.small_nat
    (fun seed ->
      (* deterministic pseudo-random edit positions from the seed *)
      let base = String.concat "" (List.init 2000 (fun i -> Printf.sprintf "line %d\n" i)) in
      let r = ref (Rope.of_string base) in
      let state = ref (seed + 17) in
      let next m =
        state := ((!state * 1103515245) + 12345) land 0x3fffffff;
        !state mod m
      in
      for _ = 1 to 500 do
        let n = Rope.length !r in
        if n > 20 then begin
          let pos = next n in
          if next 2 = 0 then r := Rope.insert !r pos "xyzzy"
          else r := Rope.delete !r pos (min 5 (n - pos))
        end
      done;
      (* a 16 KB rope must stay far below the degenerate height *)
      Rope.check !r && Rope.height !r <= 40)

let () =
  Alcotest.run "rope"
    [
      ("unit", unit_tests);
      ( "property",
        List.map (Seeded.to_alcotest 43)
          [ prop_insert; prop_delete; prop_split_concat; prop_line_roundtrip;
            prop_balanced; prop_height_bounded ] );
    ]
