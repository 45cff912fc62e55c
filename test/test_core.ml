(* help core: views, windows, columns, placement, selection expansion,
   event interpretation, built-ins, context rules. *)

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec f i = i + n <= m && (String.sub hay i n = needle || f (i + 1)) in
  n = 0 || f 0

(* a help over a tiny world with coreutils *)
let fresh () =
  let ns = Vfs.create () in
  let sh = Rc.create ns in
  Coreutils.install sh;
  Vfs.mkdir_p ns "/src";
  Vfs.write_file ns "/src/one.txt" "first line\nsecond line\nthird line\n";
  Vfs.write_file ns "/src/two.txt" "other file\n";
  Vfs.mkdir_p ns "/tmp";
  let help = Help.create ~w:80 ~h:24 ns sh in
  help

let htext_tests =
  [
    Alcotest.test_case "selection clamps and orders" `Quick (fun () ->
        let t = Htext.create (Buffer0.create "hello") in
        Htext.set_sel t 4 2;
        Alcotest.(check (pair int int)) "swapped" (2, 4) (Htext.sel t);
        Htext.set_sel t (-5) 99;
        Alcotest.(check (pair int int)) "clamped" (0, 5) (Htext.sel t));
    Alcotest.test_case "type replaces the selection" `Quick (fun () ->
        let t = Htext.create (Buffer0.create "hello world") in
        Htext.set_sel t 6 11;
        Htext.type_text t "there";
        check_str "text" "hello there" (Htext.string t);
        Alcotest.(check (pair int int)) "caret after" (11, 11) (Htext.sel t));
    Alcotest.test_case "cut returns and removes" `Quick (fun () ->
        let t = Htext.create (Buffer0.create "hello world") in
        Htext.set_sel t 5 11;
        check_str "cut text" " world" (Htext.cut t);
        check_str "remaining" "hello" (Htext.string t));
    Alcotest.test_case "paste leaves pasted text selected" `Quick (fun () ->
        let t = Htext.create (Buffer0.create "ab") in
        Htext.set_sel t 1 1;
        Htext.paste t "XYZ";
        check_str "text" "aXYZb" (Htext.string t);
        Alcotest.(check (pair int int)) "selected" (1, 4) (Htext.sel t));
    Alcotest.test_case "two views of one buffer stay consistent" `Quick (fun () ->
        let buf = Buffer0.create "shared text" in
        let a = Htext.create buf and b = Htext.create buf in
        Htext.set_sel b 7 11;
        Htext.set_sel a 0 0;
        Htext.type_text a "XX";
        (* b's selection slides right by the insertion *)
        Alcotest.(check (pair int int)) "b adjusted" (9, 13) (Htext.sel b);
        check_str "b text" "XXshared text" (Htext.string b));
    Alcotest.test_case "select_line" `Quick (fun () ->
        let t = Htext.create (Buffer0.create "aa\nbb\ncc\n") in
        (match Htext.select_line t 2 with
        | Some start -> check_int "start" 3 start
        | None -> Alcotest.fail "line 2 exists");
        Alcotest.(check (pair int int)) "line selected" (3, 5) (Htext.sel t);
        check_bool "out of range" true (Htext.select_line t 99 = None));
    Alcotest.test_case "show scrolls to a line start" `Quick (fun () ->
        let text = String.concat "" (List.init 100 (fun i -> Printf.sprintf "line%d\n" i)) in
        let t = Htext.create (Buffer0.create text) in
        Htext.show t ~w:20 ~h:5 (String.length text - 3);
        check_bool "origin moved" true (Htext.org t > 0);
        check_bool "origin at line start" true
          (Htext.org t = 0 || Htext.string t |> fun s -> s.[Htext.org t - 1] = '\n'));
  ]

let hwin_tests =
  [
    Alcotest.test_case "name is the first tag word" `Quick (fun () ->
        let w = Hwin.create ~id:1 ~tag_text:"/a/b/f.c Close! Get!" (Buffer0.create "") in
        check_str "name" "/a/b/f.c" (Hwin.name w);
        check_str "dir" "/a/b" (Hwin.dir w));
    Alcotest.test_case "directory windows keep the trailing slash" `Quick (fun () ->
        let w = Hwin.create ~id:1 ~tag_text:"/a/b/ Close!" (Buffer0.create "") in
        check_str "dir is itself" "/a/b" (Hwin.dir w));
    Alcotest.test_case "set_name preserves the tag tail" `Quick (fun () ->
        let w = Hwin.create ~id:1 ~tag_text:"/old Close! Get!" (Buffer0.create "") in
        Hwin.set_name w "/new";
        check_str "tag" "/new Close! Get!" (Hwin.tag_text w));
    Alcotest.test_case "Put! token follows dirty state" `Quick (fun () ->
        let w = Hwin.create ~id:1 ~tag_text:"/f Close! Get!" (Buffer0.create "") in
        Buffer0.insert (Htext.buffer (Hwin.body w)) 0 "edit";
        Hwin.sync_put_token w;
        check_bool "token added" true (contains (Hwin.tag_text w) "Put!");
        Buffer0.clean (Htext.buffer (Hwin.body w));
        Hwin.sync_put_token w;
        check_bool "token removed" false (contains (Hwin.tag_text w) "Put!"));
  ]

let mkwin id name body =
  Hwin.create ~id ~tag_text:(name ^ " Close!") (Buffer0.create body)

let hcol_tests =
  [
    Alcotest.test_case "stacking geometry" `Quick (fun () ->
        let c = Hcol.create ~x:0 ~w:40 in
        let w1 = mkwin 1 "/one" "a\nb\n" and w2 = mkwin 2 "/two" "c\n" in
        Hcol.add c ~h:20 w1 ~y:1;
        Hcol.add c ~h:20 w2 ~y:10;
        (match Hcol.geoms c ~h:20 with
        | [ g1; g2 ] ->
            check_int "w1 top" 1 g1.Hcol.g_y;
            check_int "w1 height to w2" 9 g1.Hcol.g_h;
            check_int "w2 runs to bottom" 10 g2.Hcol.g_h
        | _ -> Alcotest.fail "expected two geoms"));
    Alcotest.test_case "colliding tags are pushed down" `Quick (fun () ->
        let c = Hcol.create ~x:0 ~w:40 in
        Hcol.add c ~h:20 (mkwin 1 "/a" "") ~y:5;
        Hcol.add c ~h:20 (mkwin 2 "/b" "") ~y:5;
        match Hcol.geoms c ~h:20 with
        | [ g1; g2 ] ->
            check_int "first stays" 5 g1.Hcol.g_y;
            check_int "second below" 6 g2.Hcol.g_y
        | _ -> Alcotest.fail "two geoms");
    Alcotest.test_case "window pushed past the bottom is covered" `Quick (fun () ->
        let c = Hcol.create ~x:0 ~w:40 in
        let hidden = mkwin 2 "/hidden" "" in
        Hcol.add c ~h:6 (mkwin 1 "/a" "") ~y:5;
        Hcol.add c ~h:6 hidden ~y:5;
        check_int "only one visible" 1 (List.length (Hcol.geoms c ~h:6));
        check_bool "still in the tab tower" true (Hcol.mem c hidden);
        check_bool "not visible" false (Hcol.visible c ~h:6 hidden));
    Alcotest.test_case "reveal covers the windows below" `Quick (fun () ->
        let c = Hcol.create ~x:0 ~w:40 in
        let w1 = mkwin 1 "/a" "" and w2 = mkwin 2 "/b" "" in
        Hcol.add c ~h:20 w1 ~y:2;
        Hcol.add c ~h:20 w2 ~y:10;
        Hcol.reveal c ~h:20 w1;
        check_bool "w2 covered" false (Hcol.visible c ~h:20 w2);
        (match Hcol.geoms c ~h:20 with
        | [ g ] -> check_int "runs to bottom" 18 g.Hcol.g_h
        | _ -> Alcotest.fail "one geom"));
    Alcotest.test_case "move reorders" `Quick (fun () ->
        let c = Hcol.create ~x:0 ~w:40 in
        let w1 = mkwin 1 "/a" "" and w2 = mkwin 2 "/b" "" in
        Hcol.add c ~h:20 w1 ~y:2;
        Hcol.add c ~h:20 w2 ~y:10;
        Hcol.move c ~h:20 w1 ~y:15;
        match Hcol.geoms c ~h:20 with
        | [ g1; g2 ] ->
            check_bool "w2 now first" true (g1.Hcol.g_win == w2);
            check_bool "w1 below" true (g2.Hcol.g_win == w1)
        | _ -> Alcotest.fail "two geoms");
    Alcotest.test_case "used_bottom measures text" `Quick (fun () ->
        let c = Hcol.create ~x:0 ~w:40 in
        Hcol.add c ~h:20 (mkwin 1 "/a" "x\ny\n") ~y:1;
        (* tag at 1, body rows 2-3 used (plus caret row) *)
        check_int "below text" 5 (Hcol.used_bottom c ~h:20));
    Alcotest.test_case "at_row finds the window" `Quick (fun () ->
        let c = Hcol.create ~x:0 ~w:40 in
        let w1 = mkwin 1 "/a" "" in
        Hcol.add c ~h:20 w1 ~y:3;
        (match Hcol.at_row c ~h:20 5 with
        | Some g -> check_bool "w1" true (g.Hcol.g_win == w1)
        | None -> Alcotest.fail "expected window");
        check_bool "above is nothing" true (Hcol.at_row c ~h:20 2 = None));
  ]

let place_tests =
  [
    Alcotest.test_case "refined: below the lowest text" `Quick (fun () ->
        let c = Hcol.create ~x:0 ~w:40 in
        Hcol.add c ~h:24 (mkwin 1 "/a" "x\ny\n") ~y:1;
        check_int "below text" 5 (Hplace.choose Hplace.Refined c ~h:24));
    Alcotest.test_case "refined: empty column places at the top" `Quick (fun () ->
        let c = Hcol.create ~x:0 ~w:40 in
        check_int "top" 1 (Hplace.choose Hplace.Refined c ~h:24));
    Alcotest.test_case "refined: crowded column covers half the lowest" `Quick
      (fun () ->
        let c = Hcol.create ~x:0 ~w:40 in
        let long = String.concat "" (List.init 30 (fun i -> Printf.sprintf "%d\n" i)) in
        Hcol.add c ~h:12 (mkwin 1 "/a" long) ~y:1;
        (* text fills the column; half of the lowest window = row 6ish *)
        let y = Hplace.choose Hplace.Refined c ~h:12 in
        check_bool "inside the window, not below text" true (y >= 4 && y <= 9));
    Alcotest.test_case "refined: degenerate column uses the bottom quarter" `Quick
      (fun () ->
        let c = Hcol.create ~x:0 ~w:40 in
        let long = String.concat "" (List.init 30 (fun i -> Printf.sprintf "%d\n" i)) in
        (* two stacked tall windows leave no room anywhere *)
        Hcol.add c ~h:8 (mkwin 1 "/a" long) ~y:1;
        Hcol.add c ~h:8 (mkwin 2 "/b" long) ~y:4;
        let y = Hplace.choose Hplace.Refined c ~h:8 in
        check_bool "bottom quarter" true (y >= 8 - max 3 (8 / 4) && y <= 7));
    Alcotest.test_case "strategies differ" `Quick (fun () ->
        let c = Hcol.create ~x:0 ~w:40 in
        Hcol.add c ~h:24 (mkwin 1 "/a" "x\n") ~y:1;
        check_int "naive top" 1 (Hplace.choose Hplace.Naive_top c ~h:24);
        check_bool "bottom quarter deep" true
          (Hplace.choose Hplace.Bottom_quarter c ~h:24 >= 18));
  ]

let select_tests =
  [
    Alcotest.test_case "word_at expands non-whitespace runs" `Quick (fun () ->
        let s = "run the grep -n command" in
        let a, b = Hselect.word_at s 9 in
        check_str "word" "grep" (String.sub s a (b - a));
        (* click at the end of a word still means that word *)
        let a, b = Hselect.word_at s 12 in
        check_str "at end" "grep" (String.sub s a (b - a));
        (* between two spaces there is no word *)
        let a, b = Hselect.word_at "a  b" 2 in
        check_int "whitespace is empty" 0 (b - a);
        ignore a);
    Alcotest.test_case "filename_at takes path characters" `Quick (fun () ->
        let s = "see /usr/rob/src/help/text.c:32 there" in
        let a, b = Hselect.filename_at s 10 in
        check_str "path with address" "/usr/rob/src/help/text.c:32"
          (String.sub s a (b - a)));
    Alcotest.test_case "parse_address splits :line and general forms" `Quick
      (fun () ->
        check_bool "with line" true
          (Hselect.parse_address "help.c:27" = ("help.c", Some (Hselect.A_line 27)));
        check_bool "without" true (Hselect.parse_address "help.c" = ("help.c", None));
        check_bool "trailing colon stripped" true
          (Hselect.parse_address "help.c:" = ("help.c", None));
        check_bool "end address" true
          (Hselect.parse_address "help.c:$" = ("help.c", Some Hselect.A_end));
        check_bool "pattern address" true
          (Hselect.parse_address "help.c:/main/"
          = ("help.c", Some (Hselect.A_pattern "main"))));
    Alcotest.test_case "number_at finds the pid under or near the click" `Quick
      (fun () ->
        let s = "help 176153: user TLB miss" in
        Alcotest.(check (option string)) "under" (Some "176153") (Hselect.number_at s 7);
        Alcotest.(check (option string)) "line fallback" (Some "176153")
          (Hselect.number_at s 20));
    Alcotest.test_case "ident_at stops at punctuation" `Quick (fun () ->
        let s = "errs((uchar*)n);" in
        let a, b = Hselect.ident_at s 13 in
        check_str "ident" "n" (String.sub s a (b - a)));
    Alcotest.test_case "line_at" `Quick (fun () ->
        let s = "aa\nbb cc\ndd" in
        let a, b = Hselect.line_at s 5 in
        check_str "line" "bb cc" (String.sub s a (b - a)));
  ]

(* --- event-level tests over a booted help --- *)

let open_one help path =
  match Help.open_file help ~dir:"/" path with
  | Some w -> w
  | None -> Alcotest.fail ("could not open " ^ path)

let click help ~x ~y b =
  Help.events help [ Help.Move (x, y); Help.Press b; Help.Release b ]

let cell help w part q =
  let _ = Help.draw help in
  match Help.cell_of help w part q with
  | Some c -> c
  | None -> Alcotest.fail "offset not visible"

let event_tests =
  [
    Alcotest.test_case "open file creates a named window" `Quick (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt" in
        check_str "name" "/src/one.txt" (Hwin.name w);
        check_bool "content" true (contains (Htext.string (Hwin.body w)) "second line"));
    Alcotest.test_case "open directory lists contents with slash in tag" `Quick
      (fun () ->
        let help = fresh () in
        let w = open_one help "/src" in
        check_str "tag name has final slash" "/src/" (Hwin.name w);
        check_bool "listing" true (contains (Htext.string (Hwin.body w)) "one.txt"));
    Alcotest.test_case "open file:line selects the line" `Quick (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt:2" in
        let q0, q1 = Htext.sel (Hwin.body w) in
        check_str "selected" "second line"
          (Htext.read (Hwin.body w) q0 q1));
    Alcotest.test_case "open file:/re/ selects the first match" `Quick (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt:/s[a-z]*d/" in
        let q0, q1 = Htext.sel (Hwin.body w) in
        check_str "selected" "second" (Htext.read (Hwin.body w) q0 q1));
    Alcotest.test_case "open file:$ puts the caret at the end" `Quick (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt:$" in
        let q0, q1 = Htext.sel (Hwin.body w) in
        check_int "at end" (Htext.length (Hwin.body w)) q0;
        check_int "empty" q0 q1);
    Alcotest.test_case "bad pattern address reports to Errors" `Quick (fun () ->
        let help = fresh () in
        let _ = open_one help "/src/one.txt:/zzz-not-there/" in
        match Help.window_by_name help "Errors" with
        | Some e ->
            check_bool "reported" true
              (contains (Htext.string (Hwin.body e)) "pattern not found")
        | None -> Alcotest.fail "no Errors window");
    Alcotest.test_case "open twice reuses the window" `Quick (fun () ->
        let help = fresh () in
        let w1 = open_one help "/src/one.txt" in
        let w2 = open_one help "/src/one.txt" in
        check_bool "same" true (w1 == w2);
        check_int "one window" 1 (List.length (Help.windows help)));
    Alcotest.test_case "left click sets the selection and cursel" `Quick (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt" in
        let x, y = cell help w `Body 3 in
        click help ~x ~y Help.Left;
        (match Help.current_selection help with
        | Some (w', ht) ->
            check_bool "window" true (w' == w);
            Alcotest.(check (pair int int)) "caret" (3, 3) (Htext.sel ht)
        | None -> Alcotest.fail "no selection"));
    Alcotest.test_case "left drag sweeps a range" `Quick (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt" in
        let x0, y0 = cell help w `Body 0 in
        let x1, y1 = cell help w `Body 5 in
        Help.events help
          [ Move (x0, y0); Press Left; Move (x1, y1); Release Left ];
        (match Help.current_selection help with
        | Some (_, ht) ->
            check_str "swept" "first" (Htext.selected ht)
        | None -> Alcotest.fail "no selection"));
    Alcotest.test_case "typing replaces the selection under the mouse" `Quick
      (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt" in
        let x0, y0 = cell help w `Body 0 in
        let x1, y1 = cell help w `Body 5 in
        Help.events help
          [ Move (x0, y0); Press Left; Move (x1, y1); Release Left ];
        Help.event help (Help.Type "FIRST");
        check_bool "replaced" true
          (contains (Htext.string (Hwin.body w)) "FIRST line"));
    Alcotest.test_case "middle click on a word executes it (Cut)" `Quick (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt" in
        (* select "first " then execute the word Cut typed into another window *)
        let scratch = Help.new_window help ~name:"/scratch" ~body:"Cut\n" () in
        let x0, y0 = cell help w `Body 0 in
        let x1, y1 = cell help w `Body 6 in
        Help.events help
          [ Move (x0, y0); Press Left; Move (x1, y1); Release Left ];
        let cx, cy = cell help scratch `Body 1 in
        click help ~x:cx ~y:cy Help.Middle;
        check_bool "cut away" true
          (contains (Htext.string (Hwin.body w)) "line\nsecond");
        check_str "snarf holds it" "first " (Help.snarf_buffer help));
    Alcotest.test_case "chords: cut and paste without moving" `Quick (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt" in
        let x0, y0 = cell help w `Body 0 in
        let x1, y1 = cell help w `Body 5 in
        Help.events help
          [ Move (x0, y0); Press Left; Move (x1, y1);
            Press Middle; Release Middle;  (* chord cut *)
            Press Right; Release Right;  (* chord paste back *)
            Release Left ];
        check_bool "text restored" true
          (contains (Htext.string (Hwin.body w)) "first line"));
    Alcotest.test_case "execute external lands in Errors" `Quick (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt" in
        Help.execute help w "echo from outside";
        (match Help.window_by_name help "Errors" with
        | Some e ->
            check_bool "output" true (contains (Htext.string (Hwin.body e)) "from outside")
        | None -> Alcotest.fail "no Errors window"));
    Alcotest.test_case "external commands run in the window's directory" `Quick
      (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt" in
        Help.execute help w "cat two.txt";
        match Help.window_by_name help "Errors" with
        | Some e -> check_bool "relative file read" true
            (contains (Htext.string (Hwin.body e)) "other file")
        | None -> Alcotest.fail "no Errors window");
    Alcotest.test_case "unknown commands report to Errors and keep running"
      `Quick (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt" in
        Help.execute help w "Nonsuch";
        (match Help.window_by_name help "Errors" with
        | Some e ->
            check_bool "not found message" true
              (contains (Htext.string (Hwin.body e)) "Nonsuch: not found")
        | None -> Alcotest.fail "no Errors window");
        check_bool "session alive" true (Help.running help));
    Alcotest.test_case "editing the tag changes the command context" `Quick
      (fun () ->
        (* "help has no explicit notion of current working directory;
           each command operates in the directory appropriate to its
           operands" — and the tag IS the operand's directory, even
           after the user edits it. *)
        let help = fresh () in
        Vfs.mkdir_p (Help.ns help) "/elsewhere";
        Vfs.write_file (Help.ns help) "/elsewhere/only-here" "found it\n";
        let w = open_one help "/src/one.txt" in
        Hwin.set_name w "/elsewhere/fake.txt";
        Help.execute help w "cat only-here";
        (match Help.window_by_name help "Errors" with
        | Some e ->
            check_bool "resolved in the edited context" true
              (contains (Htext.string (Hwin.body e)) "found it")
        | None -> Alcotest.fail "no Errors window"));
    Alcotest.test_case "glob arguments expand in context" `Quick (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt" in
        Help.execute help w "grep other *.txt";
        match Help.window_by_name help "Errors" with
        | Some e -> check_bool "found" true
            (contains (Htext.string (Hwin.body e)) "other file")
        | None -> Alcotest.fail "no Errors window");
    Alcotest.test_case "Open default expands the selection to a file name" `Quick
      (fun () ->
        let help = fresh () in
        let dirw = open_one help "/src" in
        (* point at "two.txt" in the directory listing *)
        let q =
          match Help.find_in_body help dirw "two.txt" with
          | Some q -> q
          | None -> Alcotest.fail "listing"
        in
        let x, y = cell help dirw `Body (q + 2) in
        click help ~x ~y Help.Left;
        Help.execute help dirw "Open";
        check_bool "window opened with dir prepended" true
          (Help.window_by_name help "/src/two.txt" <> None));
    Alcotest.test_case "Put! and Get! operate on their window" `Quick (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt" in
        let x, y = cell help w `Body 0 in
        Help.events help [ Help.Move (x, y) ];
        Help.event help (Help.Type "EDIT ");
        check_bool "dirty" true (Hwin.dirty w);
        Help.execute help w "Put!";
        check_bool "clean after put" false (Hwin.dirty w);
        check_bool "on disk" true
          (contains (Vfs.read_file (Help.ns help) "/src/one.txt") "EDIT ");
        Help.event help (Help.Type "MORE ");
        Help.execute help w "Get!";
        check_bool "reverted to disk" false
          (contains (Htext.string (Hwin.body w)) "MORE "));
    Alcotest.test_case "Undo built-in reverts typing" `Quick (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt" in
        let x, y = cell help w `Body 0 in
        Help.events help [ Help.Move (x, y) ];
        click help ~x ~y Help.Left;
        Help.event help (Help.Type "oops");
        Help.execute help w "Undo";
        check_bool "reverted" false (contains (Htext.string (Hwin.body w)) "oops"));
    Alcotest.test_case "Pattern searches the selected window" `Quick (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt" in
        let x, y = cell help w `Body 0 in
        click help ~x ~y Help.Left;
        Help.execute help w "Pattern s[a-z]*d";
        (match Help.current_selection help with
        | Some (_, ht) -> check_str "match selected" "second" (Htext.selected ht)
        | None -> Alcotest.fail "no selection"));
    Alcotest.test_case "Close! removes the window" `Quick (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt" in
        Help.execute help w "Close!";
        check_bool "gone" true (Help.window_by_name help "/src/one.txt" = None));
    Alcotest.test_case "Exit stops the session" `Quick (fun () ->
        let help = fresh () in
        let w = Help.new_window help ~name:"/scratch" ~body:"Exit\n" () in
        Help.execute help w "Exit";
        check_bool "stopped" false (Help.running help));
    Alcotest.test_case "New creates an empty window" `Quick (fun () ->
        let help = fresh () in
        let w = Help.new_window help ~name:"/scratch" () in
        let before = List.length (Help.windows help) in
        Help.execute help w "New";
        check_int "one more" (before + 1) (List.length (Help.windows help)));
    Alcotest.test_case "Split! makes a second window on the same buffer" `Quick
      (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt" in
        Help.execute help w "Split!";
        let clones =
          List.filter (fun x -> Hwin.name x = "/src/one.txt") (Help.windows help)
        in
        check_int "two views" 2 (List.length clones);
        (match clones with
        | [ a; b ] ->
            check_bool "one buffer" true
              (Htext.buffer (Hwin.body a) == Htext.buffer (Hwin.body b));
            Htext.set_sel (Hwin.body a) 0 0;
            Htext.type_text (Hwin.body a) "shared ";
            check_bool "edit visible in both" true
              (contains (Htext.string (Hwin.body b)) "shared first")
        | _ -> Alcotest.fail "expected two");
        (* closing one view leaves the other alive *)
        (match clones with
        | [ a; b ] ->
            Help.execute help a "Close!";
            check_bool "other view remains" true
              (List.memq b (Help.windows help))
        | _ -> ()));
    Alcotest.test_case "shared buffer: two windows on one file" `Quick (fun () ->
        let help = fresh () in
        let w1 = open_one help "/src/one.txt" in
        (* force a second window on the same file *)
        let buf = Htext.buffer (Hwin.body w1) in
        let w2 = Hwin.create ~id:999 ~tag_text:"/src/one.txt-2" buf in
        Htext.set_sel (Hwin.body w1) 0 0;
        Htext.type_text (Hwin.body w1) "both see ";
        check_bool "second window sees the edit" true
          (contains (Htext.string (Hwin.body w2)) "both see "));
    Alcotest.test_case "tab click reveals a covered window" `Quick (fun () ->
        let help = fresh () in
        (* crowd one column *)
        let w1 = open_one help "/src/one.txt" in
        let col =
          match Help.column_of help w1 with
          | Some c -> c
          | None -> Alcotest.fail "column"
        in
        let hidden = Help.new_window help ~name:"/hidden" ~body:"peek\n" () in
        (match Help.column_of help hidden with
        | Some c2 when c2 == col -> ()
        | _ ->
            (* move it into the same column to set up the cover *)
            (match Help.column_of help hidden with
            | Some c2 -> Hcol.remove c2 hidden
            | None -> ());
            Hcol.add col ~h:(Help.height help) hidden ~y:3);
        Hcol.reveal col ~h:(Help.height help) w1;
        check_bool "covered" false (Hcol.visible col ~h:(Help.height help) hidden);
        (* click its tab square *)
        let idx =
          let rec find i = function
            | [] -> Alcotest.fail "not in column"
            | x :: rest -> if x == hidden then i else find (i + 1) rest
          in
          find 0 (Hcol.windows col)
        in
        click help ~x:(Hcol.x col) ~y:(1 + idx) Help.Left;
        check_bool "revealed" true (Hcol.visible col ~h:(Help.height help) hidden));
    Alcotest.test_case "right drag moves a window between columns" `Quick (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt" in
        let src_col =
          match Help.column_of help w with Some c -> c | None -> Alcotest.fail "col"
        in
        let dest_col =
          match List.find_opt (fun c -> c != src_col) (Help.columns help) with
          | Some c -> c
          | None -> Alcotest.fail "two columns"
        in
        let x, y = cell help w `Tag 0 in
        Help.events help
          [ Move (x, y); Press Right; Move (Hcol.x dest_col + 3, 4); Release Right ];
        check_bool "moved" true (Hcol.mem dest_col w);
        check_bool "gone from source" false (Hcol.mem src_col w));
    Alcotest.test_case "ctl language drives the window" `Quick (fun () ->
        let help = fresh () in
        let w = Help.new_window help () in
        let ok c = match Help.ctl_command help w c with
          | Ok () -> ()
          | Error e -> Alcotest.fail e
        in
        ok "tag /made/up Close!";
        check_str "tag" "/made/up Close!" (Hwin.tag_text w);
        ok "insert 0 hello world";
        ok "select 0 5";
        Alcotest.(check (pair int int)) "selection" (0, 5) (Htext.sel (Hwin.body w));
        ok "delete 5 11";
        check_str "body" "hello" (Htext.string (Hwin.body w));
        check_bool "bad command reports" true
          (match Help.ctl_command help w "frobnicate" with
          | Error _ -> true
          | Ok () -> false));
    Alcotest.test_case "scroll bar: right scrolls forward, left back" `Quick
      (fun () ->
        let help = fresh () in
        let long = String.concat "" (List.init 200 (fun i -> Printf.sprintf "row %d\n" i)) in
        Vfs.write_file (Help.ns help) "/src/long.txt" long;
        let w = open_one help "/src/long.txt" in
        let body = Hwin.body w in
        check_int "starts at top" 0 (Htext.org body);
        (* find the scroll bar: one cell right of the window's column *)
        let col = match Help.column_of help w with Some c -> c | None -> Alcotest.fail "col" in
        let gy = match Hcol.at_row col ~h:24 2 with Some g -> g.Hcol.g_y | None -> 1 in
        let bar_x = Hcol.x col + 1 in
        (* right button deep in the bar scrolls far forward *)
        click help ~x:bar_x ~y:(gy + 8) Help.Right;
        check_bool "scrolled forward" true (Htext.org body > 0);
        let after_fwd = Htext.org body in
        (* left button scrolls back *)
        click help ~x:bar_x ~y:(gy + 8) Help.Left;
        check_bool "scrolled back" true (Htext.org body < after_fwd);
        (* middle jumps proportionally: bottom of the bar ~ end of text *)
        click help ~x:bar_x ~y:(gy + (24 - gy - 2)) Help.Middle;
        check_bool "jumped deep" true
          (Htext.org body > String.length long / 2);
        (* origin always lands on a line start *)
        let org = Htext.org body in
        check_bool "line start" true (org = 0 || long.[org - 1] = '\n'));
    Alcotest.test_case "scroll bar clicks do not move the selection" `Quick
      (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt" in
        let x, y = cell help w `Body 3 in
        click help ~x ~y Help.Left;
        let col = match Help.column_of help w with Some c -> c | None -> Alcotest.fail "col" in
        click help ~x:(Hcol.x col + 1) ~y:(y + 1) Help.Left;
        match Help.current_selection help with
        | Some (_, ht) ->
            Alcotest.(check (pair int int)) "selection intact" (3, 3) (Htext.sel ht)
        | None -> Alcotest.fail "selection lost");
    Alcotest.test_case "column tab expands and restores the columns" `Quick
      (fun () ->
        let help = fresh () in
        let a, b =
          match Help.columns help with
          | [ a; b ] -> (a, b)
          | _ -> Alcotest.fail "two columns"
        in
        let w0 = Hcol.w a in
        click help ~x:(Hcol.x a) ~y:0 Help.Left;
        check_bool "left column grew" true (Hcol.w a > w0);
        check_bool "total width conserved" true (Hcol.w a + Hcol.w b = 80);
        click help ~x:(Hcol.x a) ~y:0 Help.Left;
        check_int "restored" w0 (Hcol.w a));
    Alcotest.test_case "hovering a tab pops up the window name" `Quick (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt" in
        let col = match Help.column_of help w with Some c -> c | None -> Alcotest.fail "col" in
        Help.event help (Help.Move (Hcol.x col, 1));
        let scr = Help.draw help in
        check_bool "name shown" true (Screen.contains scr "[/src/one.txt]");
        Help.event help (Help.Move (0, 0));
        let scr2 = Help.draw help in
        check_bool "gone when the mouse leaves" false
          (Screen.contains scr2 "[/src/one.txt]"));
    Alcotest.test_case "ctl dirty taints and Put! clears" `Quick (fun () ->
        let help = fresh () in
        let w = open_one help "/src/one.txt" in
        (match Help.ctl_command help w "dirty" with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        check_bool "dirty" true (Hwin.dirty w);
        check_bool "Put! token" true (contains (Hwin.tag_text w) "Put!");
        Help.execute help w "Put!";
        check_bool "clean" false (Hwin.dirty w));
  ]

(* property: random column operations keep the stacking invariants *)
let prop_column_invariants =
  let op_gen =
    QCheck.Gen.(pair (int_range 0 3) (pair (int_range 0 9) (int_range 0 25)))
  in
  QCheck.Test.make ~name:"column ops preserve stacking invariants" ~count:300
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 50) op_gen))
    (fun ops ->
      let h = 24 in
      let col = Hcol.create ~x:0 ~w:40 in
      let pool =
        Array.init 10 (fun i ->
            Hwin.create ~id:i
              ~tag_text:(Printf.sprintf "/w%d Close!" i)
              (Buffer0.create "one\ntwo\nthree\n"))
      in
      List.iter
        (fun (op, (slot, y)) ->
          let w = pool.(slot) in
          match op with
          | 0 -> if not (Hcol.mem col w) then Hcol.add col ~h w ~y
          | 1 -> Hcol.remove col w
          | 2 -> if Hcol.mem col w then Hcol.move col ~h w ~y
          | _ -> if Hcol.mem col w then Hcol.reveal col ~h w)
        ops;
      let gs = Hcol.geoms col ~h in
      (* strictly increasing tag rows, positive heights, all on screen,
         every visible window still in the tab tower *)
      let rec increasing = function
        | a :: (b :: _ as rest) ->
            a.Hcol.g_y < b.Hcol.g_y && increasing rest
        | _ -> true
      in
      increasing gs
      && List.for_all
           (fun g ->
             g.Hcol.g_h >= 1 && g.Hcol.g_y >= 1 && g.Hcol.g_y < h
             && Hcol.mem col g.Hcol.g_win)
           gs
      && List.length gs <= List.length (Hcol.windows col))

let prop_word_expansion_idempotent =
  QCheck.Test.make ~name:"word_at returns a word containing the click" ~count:500
    (QCheck.pair
       (QCheck.make
          QCheck.Gen.(
            string_size
              ~gen:(frequency [ (6, map Char.chr (int_range 97 122)); (2, return ' '); (1, return '\n') ])
              (int_range 0 60)))
       QCheck.small_nat)
    (fun (s, q) ->
      let q = if String.length s = 0 then 0 else q mod (String.length s + 1) in
      let a, b = Hselect.word_at s q in
      0 <= a && a <= b
      && b <= String.length s
      && (a = b
         || String.for_all
              (fun c -> not (c = ' ' || c = '\t' || c = '\n'))
              (String.sub s a (b - a))))

let () =
  Alcotest.run "core"
    [
      ("htext", htext_tests);
      ("hwin", hwin_tests);
      ("hcol", hcol_tests);
      ("place", place_tests);
      ("select", select_tests);
      ("events", event_tests);
      ( "property",
        List.map (Seeded.to_alcotest 5)
          [ prop_column_invariants; prop_word_expansion_idempotent ] );
    ]
