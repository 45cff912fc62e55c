(* Vfs: paths, the RAM file system, mounts, union binds, handles. *)

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fresh () = Vfs.create ()

let path_tests =
  [
    Alcotest.test_case "normalize" `Quick (fun () ->
        check_str "plain" "/a/b" (Vfs.normalize "/a/b");
        check_str "trailing slash" "/a/b" (Vfs.normalize "/a/b/");
        check_str "dot" "/a/b" (Vfs.normalize "/a/./b");
        check_str "dotdot" "/b" (Vfs.normalize "/a/../b");
        check_str "dotdot above root" "/b" (Vfs.normalize "/../../b");
        check_str "double slash" "/a/b" (Vfs.normalize "//a//b");
        check_str "root" "/" (Vfs.normalize "/"));
    Alcotest.test_case "dirname / basename" `Quick (fun () ->
        check_str "dirname" "/a/b" (Vfs.dirname "/a/b/c");
        check_str "dirname of top" "/" (Vfs.dirname "/a");
        check_str "basename" "c" (Vfs.basename "/a/b/c");
        check_str "basename of root" "/" (Vfs.basename "/"));
    Alcotest.test_case "split and join invert" `Quick (fun () ->
        check_str "roundtrip" "/x/y/z" (Vfs.join_path (Vfs.split_path "/x/y/z")));
  ]

let file_tests =
  [
    Alcotest.test_case "write and read" `Quick (fun () ->
        let ns = fresh () in
        Vfs.mkdir_p ns "/a/b";
        Vfs.write_file ns "/a/b/f" "content";
        check_str "read" "content" (Vfs.read_file ns "/a/b/f"));
    Alcotest.test_case "write truncates" `Quick (fun () ->
        let ns = fresh () in
        Vfs.write_file ns "/f" "long content here";
        Vfs.write_file ns "/f" "short";
        check_str "read" "short" (Vfs.read_file ns "/f"));
    Alcotest.test_case "append creates and extends" `Quick (fun () ->
        let ns = fresh () in
        Vfs.append_file ns "/log" "a\n";
        Vfs.append_file ns "/log" "b\n";
        check_str "read" "a\nb\n" (Vfs.read_file ns "/log"));
    Alcotest.test_case "missing file errors" `Quick (fun () ->
        let ns = fresh () in
        check_bool "raises" true
          (match Vfs.read_file ns "/nope" with
          | exception Vfs.Error Vfs.Enonexist -> true
          | _ -> false));
    Alcotest.test_case "exists / is_dir" `Quick (fun () ->
        let ns = fresh () in
        Vfs.mkdir_p ns "/d";
        Vfs.write_file ns "/d/f" "x";
        check_bool "dir" true (Vfs.is_dir ns "/d");
        check_bool "file not dir" false (Vfs.is_dir ns "/d/f");
        check_bool "exists" true (Vfs.exists ns "/d/f");
        check_bool "not exists" false (Vfs.exists ns "/d/g"));
    Alcotest.test_case "mkdir_p builds ancestors" `Quick (fun () ->
        let ns = fresh () in
        Vfs.mkdir_p ns "/x/y/z";
        check_bool "deep dir" true (Vfs.is_dir ns "/x/y/z"));
    Alcotest.test_case "mkdir into existing errors" `Quick (fun () ->
        let ns = fresh () in
        Vfs.mkdir_p ns "/x";
        check_bool "Eexist" true
          (match Vfs.mkdir ns "/x" with
          | exception Vfs.Error Vfs.Eexist -> true
          | _ -> false));
    Alcotest.test_case "remove" `Quick (fun () ->
        let ns = fresh () in
        Vfs.write_file ns "/f" "x";
        Vfs.remove ns "/f";
        check_bool "gone" false (Vfs.exists ns "/f"));
    Alcotest.test_case "remove non-empty dir refuses" `Quick (fun () ->
        let ns = fresh () in
        Vfs.mkdir_p ns "/d";
        Vfs.write_file ns "/d/f" "x";
        check_bool "Eperm" true
          (match Vfs.remove ns "/d" with
          | exception Vfs.Error Vfs.Eperm -> true
          | _ -> false));
    Alcotest.test_case "readdir sorted entries" `Quick (fun () ->
        let ns = fresh () in
        Vfs.mkdir_p ns "/d/sub";
        Vfs.write_file ns "/d/b" "x";
        Vfs.write_file ns "/d/a" "y";
        let names = List.map (fun (s : Vfs.stat) -> s.st_name) (Vfs.readdir ns "/d") in
        Alcotest.(check (list string)) "names" [ "a"; "b"; "sub" ] names);
    Alcotest.test_case "mtime advances with the logical clock" `Quick (fun () ->
        let ns = fresh () in
        Vfs.write_file ns "/old" "x";
        Vfs.write_file ns "/new" "y";
        let o = Vfs.stat ns "/old" and n = Vfs.stat ns "/new" in
        check_bool "newer" true (n.Vfs.st_mtime > o.Vfs.st_mtime));
    Alcotest.test_case "version bumps on modification" `Quick (fun () ->
        let ns = fresh () in
        Vfs.write_file ns "/f" "a";
        let v1 = (Vfs.stat ns "/f").Vfs.st_version in
        Vfs.write_file ns "/f" "b";
        check_bool "bumped" true ((Vfs.stat ns "/f").Vfs.st_version > v1));
  ]

let mount_tests =
  [
    Alcotest.test_case "mount a fresh ramfs" `Quick (fun () ->
        let ns = fresh () in
        Vfs.mount ns "/mnt/extra" (Vfs.ramfs ns);
        Vfs.write_file ns "/mnt/extra/f" "via mount";
        check_str "read back" "via mount" (Vfs.read_file ns "/mnt/extra/f"));
    Alcotest.test_case "mount point appears in parent readdir" `Quick (fun () ->
        let ns = fresh () in
        Vfs.mkdir_p ns "/mnt";
        Vfs.mount ns "/mnt/help" (Vfs.ramfs ns);
        let names = List.map (fun (s : Vfs.stat) -> s.st_name) (Vfs.readdir ns "/mnt") in
        check_bool "listed" true (List.mem "help" names));
    Alcotest.test_case "subtree bind (bind /a /b)" `Quick (fun () ->
        let ns = fresh () in
        Vfs.mkdir_p ns "/a";
        Vfs.write_file ns "/a/f" "original";
        Vfs.mkdir_p ns "/b";
        Vfs.mount ns "/b" (Vfs.subtree ns "/a");
        check_str "view" "original" (Vfs.read_file ns "/b/f");
        Vfs.write_file ns "/b/f" "changed";
        check_str "write through" "changed" (Vfs.read_file ns "/a/f"));
    Alcotest.test_case "union bind: bind -a" `Quick (fun () ->
        let ns = fresh () in
        Vfs.mkdir_p ns "/bin";
        Vfs.write_file ns "/bin/cat" "base";
        Vfs.mkdir_p ns "/home/bin";
        Vfs.write_file ns "/home/bin/mytool" "mine";
        Vfs.bind_after ns "/bin" (Vfs.subtree ns "/home/bin");
        check_str "base still wins" "base" (Vfs.read_file ns "/bin/cat");
        check_str "union member visible" "mine" (Vfs.read_file ns "/bin/mytool");
        let names = List.map (fun (s : Vfs.stat) -> s.st_name) (Vfs.readdir ns "/bin") in
        check_bool "union dir lists both" true
          (List.mem "cat" names && List.mem "mytool" names));
    Alcotest.test_case "earlier union member shadows later" `Quick (fun () ->
        let ns = fresh () in
        Vfs.mkdir_p ns "/bin";
        Vfs.write_file ns "/bin/tool" "first";
        Vfs.mkdir_p ns "/alt";
        Vfs.write_file ns "/alt/tool" "second";
        Vfs.bind_after ns "/bin" (Vfs.subtree ns "/alt");
        check_str "first wins" "first" (Vfs.read_file ns "/bin/tool");
        check_int "one entry for the name" 1
          (List.length
             (List.filter (fun (s : Vfs.stat) -> s.st_name = "tool")
                (Vfs.readdir ns "/bin"))));
    Alcotest.test_case "longest mount prefix wins" `Quick (fun () ->
        let ns = fresh () in
        Vfs.mount ns "/m" (Vfs.ramfs ns);
        Vfs.mount ns "/m/deep" (Vfs.ramfs ns);
        Vfs.write_file ns "/m/deep/f" "deep";
        Vfs.write_file ns "/m/f" "shallow";
        check_str "deep" "deep" (Vfs.read_file ns "/m/deep/f");
        check_str "shallow" "shallow" (Vfs.read_file ns "/m/f"));
  ]

let handle_tests =
  [
    Alcotest.test_case "sequential reads" `Quick (fun () ->
        let ns = fresh () in
        Vfs.write_file ns "/f" "abcdefgh";
        let h = Vfs.open_file ns "/f" Vfs.Read in
        check_str "first" "abc" (Vfs.read h 3);
        check_str "second" "def" (Vfs.read h 3);
        check_str "rest" "gh" (Vfs.read h 10);
        check_str "eof" "" (Vfs.read h 10);
        Vfs.close h);
    Alcotest.test_case "sequential writes" `Quick (fun () ->
        let ns = fresh () in
        let h = Vfs.create_file ns "/f" in
        Vfs.write h "hello ";
        Vfs.write h "world";
        Vfs.close h;
        check_str "combined" "hello world" (Vfs.read_file ns "/f"));
    Alcotest.test_case "read_all" `Quick (fun () ->
        let ns = fresh () in
        let big = String.concat "" (List.init 100 (fun i -> string_of_int i)) in
        Vfs.write_file ns "/f" big;
        let h = Vfs.open_file ns "/f" Vfs.Read in
        check_str "all" big (Vfs.read_all h));
  ]

(* property: a random sequence of writes/appends/removes agrees with a
   simple map model *)
let prop_model =
  let op_gen =
    QCheck.Gen.(
      pair (int_range 0 2)
        (pair (int_range 0 4)
           (string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 0 8))))
  in
  QCheck.Test.make ~name:"random file ops agree with a map model" ~count:200
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 40) op_gen))
    (fun ops ->
      let ns = fresh () in
      let model = Hashtbl.create 8 in
      let ok = ref true in
      List.iter
        (fun (op, (slot, data)) ->
          let path = Printf.sprintf "/f%d" slot in
          match op with
          | 0 ->
              Vfs.write_file ns path data;
              Hashtbl.replace model path data
          | 1 ->
              Vfs.append_file ns path data;
              let prev = Option.value ~default:"" (Hashtbl.find_opt model path) in
              Hashtbl.replace model path (prev ^ data)
          | _ -> (
              match Vfs.remove ns path with
              | () ->
                  if not (Hashtbl.mem model path) then ok := false;
                  Hashtbl.remove model path
              | exception Vfs.Error Vfs.Enonexist ->
                  if Hashtbl.mem model path then ok := false))
        ops;
      !ok
      && Hashtbl.fold
           (fun path data acc -> acc && Vfs.read_file ns path = data)
           model true)

(* Paths absolute or relative (the empty path among them), with empty,
   ".", ".." and dot-led components and an optional trailing '/'. *)
let path_gen =
  QCheck.Gen.(
    triple bool
      (list_size (int_range 0 6)
         (frequency
            [ (4, oneofl [ "a"; "bb"; "c3" ]); (2, oneofl [ "."; ".." ]);
              (1, oneofl [ ""; ".a"; "..b"; "..." ]) ]))
      bool
    >|= fun (absolute, parts, trailing) ->
    (if absolute then "/" else "")
    ^ String.concat "/" parts
    ^ if trailing then "/" else "")

(* Normalizing is splitting into components and joining them again; a
   path already in that form comes back as it is. *)
let prop_normalize_idempotent =
  QCheck.Test.make ~name:"normalize is idempotent" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") path_gen)
    (fun p ->
      Vfs.normalize p = Vfs.join_path (Vfs.split_path p)
      && Vfs.normalize (Vfs.normalize p) = Vfs.normalize p)

let prop_normalize_clean =
  QCheck.Test.make ~name:"normalized paths have no dot components" ~count:300
    (QCheck.make ~print:(Printf.sprintf "%S") path_gen)
    (fun p ->
      let comps = Vfs.split_path (Vfs.normalize p) in
      List.for_all (fun c -> c <> "." && c <> ".." && c <> "") comps)

let prop_dirname_basename =
  QCheck.Test.make ~name:"dirname/basename recompose" ~count:300
    (QCheck.make ~print:(Printf.sprintf "%S") path_gen)
    (fun p ->
      let p = Vfs.normalize p in
      p = "/"
      || Vfs.normalize (Vfs.dirname p ^ "/" ^ Vfs.basename p) = p)

let () =
  Alcotest.run "vfs"
    [
      ("paths", path_tests);
      ("files", file_tests);
      ("mounts", mount_tests);
      ("handles", handle_tests);
      ( "property",
        List.map (Seeded.to_alcotest 53)
          [ prop_model; prop_normalize_idempotent; prop_normalize_clean;
            prop_dirname_basename ] );
    ]
