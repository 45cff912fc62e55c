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

(* property: [readdir] over a namespace built with [mount] and
   [bind_after] agrees with a model of the union view.  The namespace
   root and three ramfs members each hold a few generated files and
   directories; mounted members may list a directory in reverse or
   twice over.  The model lists a directory from the members of its
   longest mount prefix in union order, earlier members shadowing later
   ones by name, adds the mount points directly below it as
   directories, and sorts by name; with no member that has the
   directory and no mount point below it, [readdir] raises
   [Enonexist]. *)
let rd_names = [ "a"; "b"; "c" ]

let rd_comps lo hi = QCheck.Gen.(list_size (int_range lo hi) (oneofl rd_names))

(* a member's contents: paths created in order, directory or file *)
let rd_tree = QCheck.Gen.(list_size (int_range 0 8) (pair (rd_comps 1 3) bool))

(* (bind_after rather than mount, at, member 1-3, listing order) *)
let rd_mount =
  QCheck.Gen.(quad bool (rd_comps 0 2) (int_range 1 3) (int_range 0 2))

let rd_print (trees, mounts) =
  let path p = Vfs.join_path p in
  Printf.sprintf "trees: %s\nmounts: %s"
    (String.concat " | "
       (List.map
          (fun t ->
            String.concat " "
              (List.map (fun (p, d) -> path p ^ if d then "/" else "") t))
          trees))
    (String.concat "; "
       (List.map
          (fun (bind, at, m, order) ->
            Printf.sprintf "%s %s fs%d order%d"
              (if bind then "bind_after" else "mount")
              (path at) m order)
          mounts))

(* [Some rest] when [prefix] starts [comps] *)
let rec rd_strip prefix comps =
  match (prefix, comps) with
  | [], rest -> Some rest
  | p :: ps, c :: cs when p = c -> rd_strip ps cs
  | _ -> None

(* Create [entries] through [create], ancestors first, skipping an entry
   that exists or lies below a file; returns path -> is_dir. *)
let rd_populate create entries =
  let model = Hashtbl.create 16 in
  Hashtbl.replace model [] true;
  let rec ancestors prefix = function
    | c :: (_ :: _ as rest) -> (
        let p = prefix @ [ c ] in
        match Hashtbl.find_opt model p with
        | Some true -> ancestors p rest
        | Some false -> false
        | None ->
            create p true;
            Hashtbl.replace model p true;
            ancestors p rest)
    | _ -> true
  in
  List.iter
    (fun (path, dir) ->
      if (not (Hashtbl.mem model path)) && ancestors [] path then begin
        create path dir;
        Hashtbl.replace model path dir
      end)
    entries;
  model

(* The members of the longest mount prefix of [dir], and the rest of
   [dir] below it; the model's members are (index, base path). *)
let rd_resolve mtab dir =
  let _, stack, rest =
    List.fold_left
      (fun ((q, _, _) as best) (prefix, stack) ->
        match rd_strip prefix dir with
        | Some rest when List.length prefix >= List.length q ->
            (prefix, stack, rest)
        | _ -> best)
      ([], [], dir) mtab
  in
  (stack, rest)

let rd_model_readdir models mtab dir =
  let stack, rest = rd_resolve mtab dir in
  let listings =
    List.filter_map
      (fun (i, base) ->
        let d = base @ rest in
        if Hashtbl.find_opt models.(i) d = Some true then
          Some
            (Hashtbl.fold
               (fun p is_dir acc ->
                 match rd_strip d p with
                 | Some [ x ] -> (x, is_dir) :: acc
                 | _ -> acc)
               models.(i) [])
        else None)
      stack
  in
  let below =
    List.filter_map
      (fun (prefix, _) ->
        match rd_strip dir prefix with Some [ x ] -> Some (x, true) | _ -> None)
      mtab
  in
  let entries =
    List.fold_left
      (fun acc (x, d) -> if List.mem_assoc x acc then acc else acc @ [ (x, d) ])
      [] (List.concat listings @ below)
  in
  if listings = [] && below = [] then Error ()
  else Ok (List.sort (fun (a, _) (b, _) -> String.compare a b) entries)

let prop_readdir_union =
  QCheck.Test.make ~name:"readdir agrees with a model of the union view"
    ~count:300
    (QCheck.make ~print:rd_print
       QCheck.Gen.(
         pair (list_repeat 4 rd_tree) (list_size (int_range 0 5) rd_mount)))
    (fun (trees, mounts) ->
      let ns = fresh () in
      let members =
        Array.init 4 (fun i -> if i = 0 then None else Some (Vfs.ramfs ns))
      in
      let models =
        Array.of_list
          (List.mapi
             (fun i tree ->
               let create p dir =
                 match members.(i) with
                 | Some fs -> fs.Vfs.fs_create p ~dir
                 | None ->
                     if dir then Vfs.mkdir ns (Vfs.join_path p)
                     else Vfs.write_file ns (Vfs.join_path p) ""
               in
               rd_populate create tree)
             trees)
      in
      let mtab = ref [ ([], [ (0, []) ]) ] in
      List.iter
        (fun (bind, at, m, order) ->
          let fs = Option.get members.(m) in
          let listed f =
            { fs with Vfs.fs_readdir = (fun p -> f (fs.Vfs.fs_readdir p)) }
          in
          let fs =
            match order with
            | 0 -> fs
            | 1 -> listed List.rev
            | _ -> listed (fun l -> l @ l)
          in
          let path = Vfs.join_path at in
          let existing = List.assoc_opt at !mtab in
          let others = List.remove_assoc at !mtab in
          if not bind then begin
            Vfs.mount ns path fs;
            mtab := (at, [ (m, []) ]) :: others
          end
          else begin
            Vfs.bind_after ns path fs;
            let stack =
              match existing with
              | Some stack -> stack
              | None ->
                  let stack, rest = rd_resolve !mtab at in
                  List.map (fun (i, base) -> (i, base @ rest)) stack
            in
            mtab := (at, stack @ [ (m, []) ]) :: others
          end)
        mounts;
      let dirs =
        [] :: List.concat_map
          (fun a ->
            [ a ] :: List.concat_map
              (fun b -> [ a; b ] :: List.map (fun c -> [ a; b; c ]) rd_names)
              rd_names)
          rd_names
      in
      List.for_all
        (fun dir ->
          let real =
            match Vfs.readdir ns (Vfs.join_path dir) with
            | sts ->
                Ok (List.map (fun (st : Vfs.stat) -> (st.st_name, st.st_dir))
                      sts)
            | exception Vfs.Error Vfs.Enonexist -> Error ()
          in
          real = rd_model_readdir models !mtab dir)
        dirs)

(* RAM directories keep their children in name order, and a lookup
   stops at the first name past the one it wants.  Every child of a
   generated directory, created in any order, is found by [stat] and
   [read_file]; names that sort before, between or after the children
   are absent to [stat], [read_file] and [remove]; creating a child
   twice is refused; after removals the rest are still found.  A string
   [read_file] returned (the stored string itself, for a whole RAM
   file) keeps its bytes when the file is overwritten in place through
   a handle, rewritten, truncated or appended. *)
let prop_children =
  let open QCheck.Gen in
  let name = string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; 'B'; '.'; '0'; '~' ]) (int_range 1 4) in
  QCheck.Test.make ~name:"children found in order; absent names; reads survive writes"
    ~count:300
    (QCheck.make
       ~print:(fun (kids, probes) ->
         Printf.sprintf "children=[%s] probes=[%s]"
           (String.concat " " (List.map (fun (n, d) -> Printf.sprintf "%S%s" n (if d then "/" else "")) kids))
           (String.concat " " (List.map (Printf.sprintf "%S") probes)))
       (pair (list_size (int_range 1 8) (pair name bool)) (list_size (int_range 1 8) name)))
    (fun (kids, probes) ->
      let ns = fresh () in
      Vfs.mkdir_p ns "/d";
      (* "." and ".." are resolved away, not names *)
      let real n = n <> "." && n <> ".." in
      let kids = List.sort_uniq (fun (a, _) (b, _) -> compare a b) kids in
      let kids = List.filter (fun (n, _) -> real n) kids in
      let path n = "/d/" ^ n in
      List.iter
        (fun (n, dir) -> if dir then Vfs.mkdir ns (path n) else Vfs.write_file ns (path n) ("<" ^ n ^ ">"))
        (List.rev kids);
      let found (n, dir) =
        let st = Vfs.stat ns (path n) in
        st.Vfs.st_name = n && st.st_dir = dir
        && (dir || Vfs.read_file ns (path n) = "<" ^ n ^ ">")
      in
      let absent n =
        let gone f = match f () with _ -> false | exception Vfs.Error Vfs.Enonexist -> true in
        gone (fun () -> Vfs.stat ns (path n))
        && gone (fun () -> Vfs.read_file ns (path n))
        && gone (fun () -> Vfs.remove ns (path n))
      in
      let probes = List.filter (fun p -> real p && not (List.mem_assoc p kids)) probes in
      let twice (n, _) =
        match Vfs.mkdir ns (path n) with _ -> false | exception Vfs.Error Vfs.Eexist -> true
      in
      let survives (n, dir) =
        dir
        ||
        let before = Vfs.read_file ns (path n) in
        let copy = String.sub before 0 (String.length before) in
        (* overwrite the first byte in place, through a handle *)
        let h = Vfs.open_file ns (path n) Vfs.Write in
        Vfs.write h "X";
        Vfs.close h;
        let after_overwrite = String.equal before copy in
        Vfs.write_file ns (path n) "rewritten";
        let after_write = String.equal before copy in
        Vfs.close (Vfs.create_file ns (path n));
        let after_trunc = String.equal before copy in
        Vfs.append_file ns (path n) "+tail";
        after_overwrite && after_write && after_trunc && String.equal before copy
        && Vfs.read_file ns (path n) = "+tail"
      in
      List.for_all found kids && List.for_all absent probes && List.for_all twice kids
      && List.for_all survives kids
      &&
      (* remove every other child; the rest are still found *)
      let removed = List.filteri (fun i _ -> i mod 2 = 0) kids in
      List.iter (fun (n, _) -> Vfs.remove ns (path n)) removed;
      List.for_all (fun (n, _) -> absent n) removed
      && List.for_all
           (fun (n, _) -> List.mem_assoc n removed || (Vfs.stat ns (path n)).Vfs.st_name = n)
           kids)

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
            prop_dirname_basename; prop_readdir_union; prop_children ] );
    ]
