(* Buffer0: the editable buffer with its undo/redo journal and edit
   observers — "undo" is the paper's first-named overdue feature. *)

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let unit_tests =
  [
    Alcotest.test_case "create and read" `Quick (fun () ->
        let b = Buffer0.create "hello" in
        check_str "text" "hello" (Buffer0.to_string b);
        check_int "length" 5 (Buffer0.length b);
        check_bool "starts clean" false (Buffer0.dirty b));
    Alcotest.test_case "insert marks dirty" `Quick (fun () ->
        let b = Buffer0.create "world" in
        Buffer0.insert b 0 "hello ";
        check_str "text" "hello world" (Buffer0.to_string b);
        check_bool "dirty" true (Buffer0.dirty b);
        Buffer0.clean b;
        check_bool "cleaned" false (Buffer0.dirty b));
    Alcotest.test_case "delete and read range" `Quick (fun () ->
        let b = Buffer0.create "hello world" in
        Buffer0.delete b 5 6;
        check_str "text" "hello" (Buffer0.to_string b);
        check_str "read" "ell" (Buffer0.read b 1 3));
    Alcotest.test_case "replace" `Quick (fun () ->
        let b = Buffer0.create "hello world" in
        Buffer0.replace b 6 11 "there";
        check_str "text" "hello there" (Buffer0.to_string b));
    Alcotest.test_case "undo a group of edits" `Quick (fun () ->
        let b = Buffer0.create "abc" in
        Buffer0.insert b 3 "def";
        Buffer0.delete b 0 1;
        Buffer0.commit b;
        check_str "before undo" "bcdef" (Buffer0.to_string b);
        let edits = Buffer0.undo b in
        check_str "after undo" "abc" (Buffer0.to_string b);
        check_int "two inverse edits" 2 (List.length edits));
    Alcotest.test_case "undo twice crosses groups" `Quick (fun () ->
        let b = Buffer0.create "" in
        Buffer0.insert b 0 "one";
        Buffer0.commit b;
        Buffer0.insert b 3 " two";
        Buffer0.commit b;
        ignore (Buffer0.undo b);
        check_str "first undo" "one" (Buffer0.to_string b);
        ignore (Buffer0.undo b);
        check_str "second undo" "" (Buffer0.to_string b);
        check_bool "nothing left" true (Buffer0.undo b = []));
    Alcotest.test_case "redo reapplies in order" `Quick (fun () ->
        let b = Buffer0.create "xy" in
        Buffer0.insert b 1 "A";
        Buffer0.insert b 3 "B";
        Buffer0.commit b;
        ignore (Buffer0.undo b);
        check_str "undone" "xy" (Buffer0.to_string b);
        ignore (Buffer0.redo b);
        check_str "redone" "xAyB" (Buffer0.to_string b);
        ignore (Buffer0.undo b);
        check_str "undone again" "xy" (Buffer0.to_string b));
    Alcotest.test_case "new edit clears the redo log" `Quick (fun () ->
        let b = Buffer0.create "" in
        Buffer0.insert b 0 "aaa";
        Buffer0.commit b;
        ignore (Buffer0.undo b);
        Buffer0.insert b 0 "bbb";
        Buffer0.commit b;
        check_bool "no redo" true (Buffer0.redo b = []);
        check_str "text" "bbb" (Buffer0.to_string b));
    Alcotest.test_case "observers see every edit" `Quick (fun () ->
        let b = Buffer0.create "abc" in
        let log = ref [] in
        Buffer0.on_edit b (fun e -> log := e :: !log);
        Buffer0.insert b 1 "xx";
        Buffer0.delete b 0 2;
        (match List.rev !log with
        | [ Buffer0.Inserted (1, 2); Buffer0.Deleted (0, 2) ] -> ()
        | _ -> Alcotest.fail "unexpected edit log");
        Buffer0.commit b;
        ignore (Buffer0.undo b);
        check_int "undo notified too" 4 (List.length !log));
    Alcotest.test_case "shared buffer between observers" `Quick (fun () ->
        (* multiple windows per file: all views see one text *)
        let b = Buffer0.create "shared" in
        let seen1 = ref 0 and seen2 = ref 0 in
        Buffer0.on_edit b (fun _ -> incr seen1);
        Buffer0.on_edit b (fun _ -> incr seen2);
        Buffer0.insert b 6 " text";
        check_int "first" 1 !seen1;
        check_int "second" 1 !seen2);
  ]

let ops_gen =
  QCheck.list_of_size (QCheck.Gen.int_range 1 40)
    (QCheck.triple QCheck.bool QCheck.small_nat
       (QCheck.make QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 1 10))))

let prop_undo_inverts =
  QCheck.Test.make ~name:"undo restores the pre-group text" ~count:200 ops_gen
    (fun ops ->
      let b = Buffer0.create "initial text" in
      let before = Buffer0.to_string b in
      List.iter
        (fun (ins, pos, text) ->
          let n = Buffer0.length b in
          let pos = if n = 0 then 0 else pos mod (n + 1) in
          if ins then Buffer0.insert b pos text
          else Buffer0.delete b pos (min (String.length text) (n - pos)))
        ops;
      Buffer0.commit b;
      ignore (Buffer0.undo b);
      Buffer0.to_string b = before)

let prop_undo_redo_roundtrip =
  QCheck.Test.make ~name:"redo after undo restores the post-group text"
    ~count:200 ops_gen
    (fun ops ->
      let b = Buffer0.create "starting point" in
      List.iter
        (fun (ins, pos, text) ->
          let n = Buffer0.length b in
          let pos = if n = 0 then 0 else pos mod (n + 1) in
          if ins then Buffer0.insert b pos text
          else Buffer0.delete b pos (min (String.length text) (n - pos)))
        ops;
      Buffer0.commit b;
      let after = Buffer0.to_string b in
      ignore (Buffer0.undo b);
      ignore (Buffer0.redo b);
      Buffer0.to_string b = after)

let () =
  Alcotest.run "buffer0"
    [
      ("unit", unit_tests);
      ( "property",
        List.map (Seeded.to_alcotest 3)
          [ prop_undo_inverts; prop_undo_redo_roundtrip ] );
    ]
