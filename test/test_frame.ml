(* Frame and Screen: layout, wrapping, tab expansion, and the
   offset<->cell correspondence the mouse depends on. *)

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let layout s ~w ~h = Frame.layout (Rope.of_string s) ~org:0 ~w ~h

let screen_tests =
  [
    Alcotest.test_case "set/get and clipping" `Quick (fun () ->
        let scr = Screen.create 10 4 in
        Screen.set scr ~x:3 ~y:1 'A' Screen.Plain;
        Alcotest.(check char) "stored" 'A' (fst (Screen.get scr ~x:3 ~y:1));
        (* off-screen writes are silently clipped *)
        Screen.set scr ~x:99 ~y:99 'B' Screen.Plain;
        Screen.set scr ~x:(-1) ~y:0 'C' Screen.Plain);
    Alcotest.test_case "draw_string and row_text" `Quick (fun () ->
        let scr = Screen.create 20 3 in
        Screen.draw_string scr ~x:2 ~y:1 "hello" Screen.Plain;
        check_str "row" "  hello" (Screen.row_text scr 1));
    Alcotest.test_case "dump trims trailing blanks" `Quick (fun () ->
        let scr = Screen.create 8 2 in
        Screen.draw_string scr ~x:0 ~y:0 "ab" Screen.Plain;
        check_str "dump" "ab\n\n" (Screen.dump scr));
    Alcotest.test_case "contains" `Quick (fun () ->
        let scr = Screen.create 20 2 in
        Screen.draw_string scr ~x:0 ~y:0 "needle here" Screen.Plain;
        check_bool "hit" true (Screen.contains scr "needle");
        check_bool "miss" false (Screen.contains scr "burrito"));
    Alcotest.test_case "attrs dump" `Quick (fun () ->
        let scr = Screen.create 5 1 in
        Screen.set scr ~x:0 ~y:0 'x' Screen.Reverse;
        Screen.set scr ~x:1 ~y:0 'y' Screen.Tag;
        check_str "marks" "Rt\n" (Screen.dump_attrs scr));
  ]

let layout_tests =
  [
    Alcotest.test_case "simple lines" `Quick (fun () ->
        let f = layout "ab\ncd\n" ~w:10 ~h:5 in
        check_int "rows" 3 (Frame.rows_used f);
        (* the trailing newline leaves an empty caret row *)
        check_int "row 0 start" 0 (Frame.row_start f 0);
        check_int "row 1 start" 3 (Frame.row_start f 1);
        check_int "last covers all" 6 (Frame.last f));
    Alcotest.test_case "wrapping long lines" `Quick (fun () ->
        let f = layout "abcdefghij" ~w:4 ~h:5 in
        check_int "rows" 3 (Frame.rows_used f);
        check_int "second row starts at wrap" 4 (Frame.row_start f 1));
    Alcotest.test_case "height clips and reports last" `Quick (fun () ->
        let f = layout "a\nb\nc\nd\ne\n" ~w:10 ~h:2 in
        check_int "rows" 2 (Frame.rows_used f);
        check_int "last is start of third line" 4 (Frame.last f));
    Alcotest.test_case "tab expansion" `Quick (fun () ->
        let f = layout "\tx" ~w:10 ~h:2 in
        (* tab advances to column 4 *)
        Alcotest.(check (option (pair int int)))
          "x cell" (Some (4, 0)) (Frame.cell_of_offset f 1));
    Alcotest.test_case "offset_of_cell clamps beyond line end" `Quick (fun () ->
        let f = layout "ab\ncdef\n" ~w:10 ~h:5 in
        check_int "click past end of first line" 2 (Frame.offset_of_cell f ~x:7 ~y:0);
        check_int "click below text" 8 (Frame.offset_of_cell f ~x:0 ~y:4));
    Alcotest.test_case "cell_of_offset outside view is None" `Quick (fun () ->
        let f = Frame.layout (Rope.of_string "aaaa\nbbbb\ncccc\n") ~org:5 ~w:10 ~h:1 in
        Alcotest.(check (option (pair int int))) "before org" None (Frame.cell_of_offset f 0);
        check_bool "inside" true (Frame.cell_of_offset f 6 <> None));
    Alcotest.test_case "draw renders selection attrs" `Quick (fun () ->
        let f = layout "hello" ~w:10 ~h:1 in
        let scr = Screen.create 10 1 in
        Frame.draw f scr ~x:0 ~y:0 ~sel:(1, 3) ~sel_attr:Screen.Reverse;
        check_str "text" "hello\n" (Screen.dump scr);
        check_str "attrs" " RR\n" (Screen.dump_attrs scr));
    Alcotest.test_case "caret tick on empty selection" `Quick (fun () ->
        let f = layout "hello" ~w:10 ~h:1 in
        let scr = Screen.create 10 1 in
        Frame.draw f scr ~x:0 ~y:0 ~sel:(2, 2) ~sel_attr:Screen.Reverse;
        check_str "attrs" "  R\n" (Screen.dump_attrs scr));
    Alcotest.test_case "empty text" `Quick (fun () ->
        let f = layout "" ~w:10 ~h:3 in
        check_int "one empty row" 1 (Frame.rows_used f);
        check_int "click lands at 0" 0 (Frame.offset_of_cell f ~x:5 ~y:1));
  ]

(* property: offset_of_cell inverts cell_of_offset for every displayed
   offset *)
let text_gen =
  QCheck.Gen.(
    string_size
      ~gen:(frequency [ (8, map Char.chr (int_range 97 122)); (1, return '\n'); (1, return '\t') ])
      (int_range 0 200))

let prop_bijection =
  QCheck.Test.make ~name:"offset_of_cell inverts cell_of_offset" ~count:300
    (QCheck.make ~print:String.escaped text_gen)
    (fun s ->
      let f = layout s ~w:9 ~h:8 in
      let stop = Frame.last f in
      let rec go q acc =
        if q >= stop then acc
        else
          let ok =
            match Frame.cell_of_offset f q with
            | Some (x, y) ->
                (* a tab cell maps back to the tab's own offset *)
                Frame.offset_of_cell f ~x ~y = q
            | None ->
                (* only a newline on a visually full row has no cell *)
                q < String.length s && s.[q] = '\n'
          in
          go (q + 1) (acc && ok)
      in
      go 0 true)

let prop_rows_bounded =
  QCheck.Test.make ~name:"layout never exceeds the box" ~count:300
    (QCheck.make ~print:String.escaped text_gen)
    (fun s ->
      let w = 7 and h = 5 in
      let f = layout s ~w ~h in
      Frame.rows_used f <= h
      && Frame.last f <= String.length s
      && Frame.last f >= 0)

let prop_coverage =
  QCheck.Test.make ~name:"rows partition [org, last) in order" ~count:300
    (QCheck.make ~print:String.escaped text_gen)
    (fun s ->
      let f = layout s ~w:6 ~h:6 in
      let n = Frame.rows_used f in
      let rec check i prev =
        if i >= n then true
        else
          let st = Frame.row_start f i in
          st >= prev && check (i + 1) st
      in
      n = 0 || (Frame.row_start f 0 = 0 && check 1 (Frame.row_start f 0)))

let () =
  Alcotest.run "frame"
    [
      ("screen", screen_tests);
      ("layout", layout_tests);
      ( "property",
        List.map (Seeded.to_alcotest 11)
          [ prop_bijection; prop_rows_bounded; prop_coverage ] );
    ]
