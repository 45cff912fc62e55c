(* /mnt/help: the interface seen by programs, exercised through the
   shell (so every access crosses the 9P layer, as on Plan 9). *)

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec f i = i + n <= m && (String.sub hay i n = needle || f (i + 1)) in
  n = 0 || f 0

let fresh () =
  let ns = Vfs.create () in
  let sh = Rc.create ns in
  Coreutils.install sh;
  Vfs.mkdir_p ns "/src";
  Vfs.write_file ns "/src/f.txt" "line one\nline two\n";
  let help = Help.create ~w:80 ~h:24 ns sh in
  let pool = Help_srv.mount help in
  (ns, sh, help, pool)

let sh_out sh src =
  let r = Rc.run sh src in
  Alcotest.(check string) ("stderr of " ^ src) "" r.Rc.r_err;
  r.Rc.r_out

let tests =
  [
    Alcotest.test_case "new/ctl creates a window and returns its number" `Quick
      (fun () ->
        let _, sh, help, _ = fresh () in
        let id = String.trim (sh_out sh "cat /mnt/help/new/ctl") in
        check_bool "window exists" true
          (Help.window_by_id help (int_of_string id) <> None));
    Alcotest.test_case "index lists windows with tag first lines" `Quick (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help ~name:"/some/file" () in
        let index = sh_out sh "cat /mnt/help/index" in
        check_bool "row present" true
          (contains index (Printf.sprintf "%d\t/some/file" (Hwin.id w))));
    Alcotest.test_case "body read matches the window" `Quick (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help ~body:"hello from body\n" () in
        let out = sh_out sh (Printf.sprintf "cat /mnt/help/%d/body" (Hwin.id w)) in
        check_str "body" "hello from body\n" out);
    Alcotest.test_case "cp body to a file (the paper's example)" `Quick (fun () ->
        let ns, sh, help, _ = fresh () in
        let w = Help.new_window help ~body:"copy me\n" () in
        let _ = Rc.run sh (Printf.sprintf "cp /mnt/help/%d/body /tmp.out" (Hwin.id w)) in
        check_str "copied" "copy me\n" (Vfs.read_file ns "/tmp.out"));
    Alcotest.test_case "grep pattern body (the paper's example)" `Quick (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help ~body:"alpha\nbeta\ngamma\n" () in
        let out = sh_out sh (Printf.sprintf "grep ta /mnt/help/%d/body" (Hwin.id w)) in
        check_str "hit" "beta\n" out);
    Alcotest.test_case "body write replaces" `Quick (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help ~body:"old content\n" () in
        let _ = Rc.run sh (Printf.sprintf "echo new > /mnt/help/%d/body" (Hwin.id w)) in
        check_str "replaced" "new\n" (Htext.string (Hwin.body w)));
    Alcotest.test_case "bodyapp appends" `Quick (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help ~body:"start\n" () in
        let _ = Rc.run sh (Printf.sprintf "echo more >> /mnt/help/%d/bodyapp" (Hwin.id w)) in
        let _ = Rc.run sh (Printf.sprintf "echo again > /mnt/help/%d/bodyapp" (Hwin.id w)) in
        check_str "appended twice" "start\nmore\nagain\n" (Htext.string (Hwin.body w)));
    Alcotest.test_case "tag read and ctl tag write" `Quick (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help () in
        let _ =
          Rc.run sh (Printf.sprintf "echo tag /my/name' Close!' > /mnt/help/%d/ctl" (Hwin.id w))
        in
        check_str "tag set" "/my/name Close!" (Hwin.tag_text w);
        let out = sh_out sh (Printf.sprintf "cat /mnt/help/%d/tag" (Hwin.id w)) in
        check_str "tag read" "/my/name Close!" out);
    Alcotest.test_case "ctl select and read back status" `Quick (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help ~body:"0123456789" () in
        let _ = Rc.run sh (Printf.sprintf "echo select 2 5 > /mnt/help/%d/ctl" (Hwin.id w)) in
        Alcotest.(check (pair int int)) "selection" (2, 5) (Htext.sel (Hwin.body w));
        let out = sh_out sh (Printf.sprintf "cat /mnt/help/%d/ctl" (Hwin.id w)) in
        check_bool "status line has id, len, sel" true
          (contains out (Printf.sprintf "%d 10 0 2 5" (Hwin.id w))));
    Alcotest.test_case "ctl close removes the window" `Quick (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help () in
        let id = Hwin.id w in
        let _ = Rc.run sh (Printf.sprintf "echo close > /mnt/help/%d/ctl" id) in
        check_bool "gone" true (Help.window_by_id help id = None));
    Alcotest.test_case "missing window is Enonexist over the wire" `Quick (fun () ->
        let _, sh, _, _ = fresh () in
        let r = Rc.run sh "cat /mnt/help/999/body" in
        check_bool "fails" true (r.Rc.r_status <> 0));
    Alcotest.test_case "a full script drives windows (decl-shaped)" `Quick (fun () ->
        let ns, sh, help, _ = fresh () in
        Vfs.write_file ns "/bin/mkwin"
          "x=`{cat /mnt/help/new/ctl}\n\
           echo tag /made/by/script' Close!' > /mnt/help/$x/ctl\n\
           echo the script wrote this > /mnt/help/$x/bodyapp\n";
        let r = Rc.run sh "mkwin" in
        check_int "status" 0 r.Rc.r_status;
        match Help.window_by_name help "/made/by/script" with
        | Some w ->
            check_bool "body" true
              (contains (Htext.string (Hwin.body w)) "the script wrote this")
        | None -> Alcotest.fail "window not created");
    Alcotest.test_case "help/parse exposes the selection context" `Quick (fun () ->
        let _, sh, help, _ = fresh () in
        let w =
          match Help.open_file help ~dir:"/" "/src/f.txt" with
          | Some w -> w
          | None -> Alcotest.fail "open"
        in
        Htext.set_sel (Hwin.body w) 5 5;
        Rc.set_global sh "helpsel" [ string_of_int (Hwin.id w); "5"; "5" ];
        let out = sh_out sh "help/parse -c -n" in
        check_bool "file" true (contains out "file='/src/f.txt'");
        check_bool "dir" true (contains out "dir='/src'");
        check_bool "ident under cursor" true (contains out "id='one'");
        check_bool "line" true (contains out "line='1'");
        (* eval the output as rc assignments *)
        let r = Rc.run sh (Printf.sprintf "eval `{help/parse -c}; echo $file $line") in
        check_str "evaled" "/src/f.txt 1\n" r.Rc.r_out);
    Alcotest.test_case "server statistics show protocol traffic" `Quick (fun () ->
        let _, sh, help, pool = fresh () in
        let w = Help.new_window help ~body:"x" () in
        let _ = Rc.run sh (Printf.sprintf "cat /mnt/help/%d/body" (Hwin.id w)) in
        let stats = Nine.Pool.kind_counts pool in
        check_bool "walk+open+read counted" true
          (List.mem_assoc "walk" stats && List.mem_assoc "open" stats
          && List.mem_assoc "read" stats));
    Alcotest.test_case "window removal via fs remove" `Quick (fun () ->
        let ns, _, help, _ = fresh () in
        let w = Help.new_window help () in
        Vfs.remove ns (Printf.sprintf "/mnt/help/%d" (Hwin.id w));
        check_bool "closed" true (Help.window_by_id help (Hwin.id w) = None));
    Alcotest.test_case "index reflects closes immediately" `Quick (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help ~name:"/transient" () in
        let before = sh_out sh "cat /mnt/help/index" in
        check_bool "present" true (contains before "/transient");
        Help.close_window help w;
        let after = sh_out sh "cat /mnt/help/index" in
        check_bool "absent" false (contains after "/transient"));
    Alcotest.test_case "ls of /mnt/help lists numbered dirs and new" `Quick
      (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help () in
        let out = sh_out sh "ls /mnt/help" in
        check_bool "index" true (contains out "index");
        check_bool "new" true (contains out "new");
        check_bool "the window dir" true
          (contains out (string_of_int (Hwin.id w))));
    Alcotest.test_case "ls of a window dir lists the four files" `Quick
      (fun () ->
        let _, sh, help, _ = fresh () in
        let w = Help.new_window help () in
        let out = sh_out sh (Printf.sprintf "ls /mnt/help/%d" (Hwin.id w)) in
        List.iter
          (fun f -> check_bool f true (contains out f))
          [ "tag"; "body"; "bodyapp"; "ctl" ]);
    Alcotest.test_case "several ctl commands in one write" `Quick (fun () ->
        let ns, _, help, _ = fresh () in
        let w = Help.new_window help ~body:"0123456789" () in
        Vfs.write_file ns
          (Printf.sprintf "/mnt/help/%d/ctl" (Hwin.id w))
          "select 1 4\ntag /multi Close!\nshow 0\n";
        Alcotest.(check (pair int int)) "selection" (1, 4) (Htext.sel (Hwin.body w));
        check_str "tag" "/multi Close!" (Hwin.tag_text w));
    Alcotest.test_case "a bad ctl command errors without killing the write"
      `Quick (fun () ->
        let ns, _, help, _ = fresh () in
        let w = Help.new_window help () in
        check_bool "error surfaces" true
          (match
             Vfs.write_file ns
               (Printf.sprintf "/mnt/help/%d/ctl" (Hwin.id w))
               "frobnicate now\n"
           with
          | exception Vfs.Error _ -> true
          | () -> false));
    Alcotest.test_case "shell pipeline reads a window and filters it" `Quick
      (fun () ->
        let _, sh, help, _ = fresh () in
        let w =
          Help.new_window help ~body:"alpha 1\nbeta 2\nalpha 3\n" ()
        in
        let out =
          sh_out sh
            (Printf.sprintf "cat /mnt/help/%d/body | grep alpha | wc -l"
               (Hwin.id w))
        in
        check_bool "two lines" true (contains (String.trim out) "2"));
  ]

let () = Alcotest.run "srv" [ ("mnt-help", tests) ]
