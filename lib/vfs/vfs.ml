type error =
  | Enonexist
  | Enotdir
  | Eisdir
  | Eexist
  | Eperm
  | Ebadname
  | Eio of string

exception Error of error

let error_message = function
  | Enonexist -> "file does not exist"
  | Enotdir -> "not a directory"
  | Eisdir -> "is a directory"
  | Eexist -> "file already exists"
  | Eperm -> "permission denied"
  | Ebadname -> "bad path element"
  | Eio msg -> msg

let err e = raise (Error e)

type mode = Read | Write | Rdwr

type stat = {
  st_name : string;
  st_dir : bool;
  st_length : int;
  st_mtime : int;
  st_version : int;
}

type openfile = {
  of_read : off:int -> count:int -> string;
  of_write : off:int -> string -> int;
  of_close : unit -> unit;
}

type filesystem = {
  fs_stat : string list -> stat;
  fs_open : string list -> mode -> trunc:bool -> openfile;
  fs_create : string list -> dir:bool -> unit;
  fs_remove : string list -> unit;
  fs_readdir : string list -> stat list;
}

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)

let split_path path =
  let parts = String.split_on_char '/' path in
  let rec resolve acc = function
    | [] -> List.rev acc
    | ("" | ".") :: rest -> resolve acc rest
    | ".." :: rest -> (
        match acc with [] -> resolve [] rest | _ :: up -> resolve up rest)
    | comp :: rest -> resolve (comp :: acc) rest
  in
  resolve [] parts

let join_path comps = "/" ^ String.concat "/" comps

(* Is [path] already what [join_path (split_path path)] returns:
   absolute, with no empty, "." or ".." component and no trailing '/'?
   One scan, no allocation; [i] starts a component. *)
let rec component_end path n i =
  if i < n && String.unsafe_get path i <> '/' then component_end path n (i + 1) else i

let rec canonical_from path n i =
  let j = component_end path n i in
  let len = j - i in
  len > 0
  && (not (path.[i] = '.' && (len = 1 || (len = 2 && path.[i + 1] = '.'))))
  && (j = n || canonical_from path n (j + 1))

let canonical path =
  let n = String.length path in
  n > 0 && path.[0] = '/' && (n = 1 || canonical_from path n 1)

let normalize path = if canonical path then path else join_path (split_path path)

let dirname path =
  match List.rev (split_path path) with
  | [] -> "/"
  | _ :: rev_dir -> join_path (List.rev rev_dir)

let basename path =
  match List.rev (split_path path) with [] -> "/" | base :: _ -> base

(* ------------------------------------------------------------------ *)
(* Namespace: a root fs plus a mount table of union stacks             *)

type rnode = {
  mutable content : string;  (* regular files *)
  mutable children : (string * rnode) list option;  (* Some -> directory *)
  mutable mtime : int;
  mutable version : int;
}

type t = {
  mutable clock : int;
  mutable mounts : (string list * filesystem list ref) list;
      (* longest prefixes first; each point is a union stack *)
  mutable root : filesystem option;  (* set right after creation *)
  mutable ram : rnode option;
      (* the root RAM tree behind [root]; kept addressable so snapshot
         and restore can capture and rebuild it exactly (content,
         mtime, version, child order) without going through the
         filesystem record *)
  mutable mutations : int;
      (* bumped on every namespace mutation (writes, creates, removes,
         mounts) but not on reads or opens — unlike [clock], so it is a
         usable invalidation key for caches over namespace contents *)
}

(* Namespace operation counters, registered in the global observability
   ledger (lib/trace): every path resolution, open, read and write in
   the system passes through here.  Increments only — nothing on this
   path may allocate or slow down. *)
let m_walk = Trace.counter "vfs.walk"
let m_stat = Trace.counter "vfs.stat"
let m_open = Trace.counter "vfs.open"
let m_read = Trace.counter "vfs.read"
let m_write = Trace.counter "vfs.write"
let m_create = Trace.counter "vfs.create"
let m_remove = Trace.counter "vfs.remove"
let m_readdir = Trace.counter "vfs.readdir"

let now t = t.clock
let tick t = t.clock <- t.clock + 1
let generation t = t.mutations
let mutated t = t.mutations <- t.mutations + 1

(* ------------------------------------------------------------------ *)
(* RAM file system                                                     *)

let rnode_stat name node =
  {
    st_name = name;
    st_dir = node.children <> None;
    st_length =
      (match node.children with
      | None -> String.length node.content
      | Some kids -> List.length kids);
    st_mtime = node.mtime;
    st_version = node.version;
  }

(* A directory keeps its children in name order, so [readdir] can hand
   a listing on without sorting it. *)
let rec insert_child name node = function
  | ((n, _) as kid) :: rest when String.compare n name < 0 ->
      kid :: insert_child name node rest
  | kids -> (name, node) :: kids

let ramfs_over t root =
  let rec walk node = function
    | [] -> node
    | comp :: rest -> (
        match node.children with
        | None -> err Enotdir
        | Some kids -> (
            match List.assoc_opt comp kids with
            | None -> err Enonexist
            | Some child -> walk child rest))
  in
  let parent_of path =
    match List.rev path with
    | [] -> err Eperm
    | base :: rev_dir -> (walk root (List.rev rev_dir), base)
  in
  let fs_stat path =
    let node = walk root path in
    rnode_stat (match List.rev path with [] -> "/" | b :: _ -> b) node
  in
  let fs_open path mode ~trunc =
    let node = walk root path in
    if node.children <> None && (mode = Write || mode = Rdwr) then err Eisdir;
    if node.children <> None then
      (* Directory opened for read: reading it as a file is an error in
         this implementation; use readdir. *)
      err Eisdir;
    if trunc then begin
      node.content <- "";
      node.mtime <- t.clock;
      node.version <- node.version + 1
    end;
    {
      of_read =
        (fun ~off ~count ->
          let len = String.length node.content in
          if off >= len then ""
          else String.sub node.content off (min count (len - off)));
      of_write =
        (fun ~off data ->
          let len = String.length node.content in
          let newlen = max len (off + String.length data) in
          let b = Bytes.make newlen '\000' in
          Bytes.blit_string node.content 0 b 0 len;
          Bytes.blit_string data 0 b off (String.length data);
          node.content <- Bytes.to_string b;
          node.mtime <- t.clock;
          node.version <- node.version + 1;
          String.length data);
      of_close = (fun () -> ());
    }
  in
  let fs_create path ~dir =
    let parent, base = parent_of path in
    match parent.children with
    | None -> err Enotdir
    | Some kids ->
        if List.mem_assoc base kids then err Eexist;
        let node =
          {
            content = "";
            children = (if dir then Some [] else None);
            mtime = t.clock;
            version = 0;
          }
        in
        parent.children <- Some (insert_child base node kids);
        parent.mtime <- t.clock;
        parent.version <- parent.version + 1
  in
  let fs_remove path =
    let parent, base = parent_of path in
    match parent.children with
    | None -> err Enotdir
    | Some kids ->
        (match List.assoc_opt base kids with
        | None -> err Enonexist
        | Some node ->
            if node.children <> None && node.children <> Some [] then
              err Eperm (* directory not empty *));
        parent.children <- Some (List.remove_assoc base kids);
        parent.mtime <- t.clock;
        parent.version <- parent.version + 1
  in
  let fs_readdir path =
    let node = walk root path in
    match node.children with
    | None -> err Enotdir
    | Some kids -> List.map (fun (name, n) -> rnode_stat name n) kids
  in
  { fs_stat; fs_open; fs_create; fs_remove; fs_readdir }

let ramfs t =
  ramfs_over t
    { content = ""; children = Some []; mtime = t.clock; version = 0 }

let create () =
  let t = { clock = 0; mounts = []; root = None; ram = None; mutations = 0 } in
  let node =
    { content = ""; children = Some []; mtime = t.clock; version = 0 }
  in
  let root = ramfs_over t node in
  t.root <- Some root;
  t.ram <- Some node;
  t.mounts <- [ ([], ref [ root ]) ];
  t

(* Longest matching mount prefix of a split path; returns the union
   stack and the path remainder. *)
let resolve_comps t comps =
  Trace.incr m_walk;
  let rec strip prefix comps =
    match (prefix, comps) with
    | [], rest -> Some rest
    | p :: ps, c :: cs when p = c -> strip ps cs
    | _ -> None
  in
  let best =
    List.fold_left
      (fun acc (prefix, stack) ->
        match strip prefix comps with
        | Some rest -> (
            match acc with
            | Some (plen, _, _) when plen >= List.length prefix -> acc
            | _ -> Some (List.length prefix, stack, rest))
        | None -> acc)
      None t.mounts
  in
  match best with
  | Some (_, stack, rest) -> (!stack, rest)
  | None -> assert false (* root mount always matches *)

let resolve t path = resolve_comps t (split_path path)

let mount t path fs =
  mutated t;
  let comps = split_path path in
  match List.assoc_opt comps t.mounts with
  | Some stack -> stack := [ fs ]
  | None -> t.mounts <- (comps, ref [ fs ]) :: t.mounts

(* View [fs] as rooted [prefix] below its own root, so a path inside an
   existing tree can participate in a union as a filesystem of its
   own. *)
let rebase fs prefix =
  {
    fs_stat = (fun rest -> fs.fs_stat (prefix @ rest));
    fs_open = (fun rest mode ~trunc -> fs.fs_open (prefix @ rest) mode ~trunc);
    fs_create = (fun rest ~dir -> fs.fs_create (prefix @ rest) ~dir);
    fs_remove = (fun rest -> fs.fs_remove (prefix @ rest));
    fs_readdir = (fun rest -> fs.fs_readdir (prefix @ rest));
  }

let bind_after t path fs =
  mutated t;
  let comps = split_path path in
  match List.assoc_opt comps t.mounts with
  | Some stack -> stack := !stack @ [ fs ]
  | None ->
      (* Union with whatever currently resolves there: rebase each
         member of the covering stack to this path, then append. *)
      let stack, rest = resolve t path in
      let existing = List.map (fun member -> rebase member rest) stack in
      t.mounts <- (comps, ref (existing @ [ fs ])) :: t.mounts

(* Try each fs in the union stack; first success wins, Enonexist falls
   through to the next member.  A member whose transport is broken (Eio,
   e.g. a mount whose client exhausted its retries) also falls through —
   a flaky mount degrades to whatever the rest of the union provides —
   but if nothing else answers, the transport error is reported in
   preference to a generic Enonexist. *)
let union_find stack f =
  let rec go first_eio = function
    | [] -> (match first_eio with Some e -> raise (Error e) | None -> err Enonexist)
    | fs :: rest -> (
        try f fs
        with
        | Error Enonexist when rest <> [] -> go first_eio rest
        | Error (Eio _ as e) when rest <> [] ->
            go (if first_eio = None then Some e else first_eio) rest)
  in
  go None stack

(* Is [comps] a strict prefix of some mount point?  Such paths exist as
   directories even when no file system provides them (mounting at
   /mnt/help makes /mnt a directory). *)
let mount_ancestor t comps =
  List.exists
    (fun (prefix, _) ->
      let rec is_prefix a b =
        match (a, b) with
        | [], _ :: _ -> true
        | x :: xs, y :: ys -> x = y && is_prefix xs ys
        | _, [] -> false
      in
      is_prefix comps prefix)
    t.mounts

let stat t path =
  Trace.incr m_stat;
  let stack, rest = resolve t path in
  try union_find stack (fun fs -> fs.fs_stat rest)
  with Error Enonexist when mount_ancestor t (split_path path) ->
    {
      st_name = (match List.rev (split_path path) with b :: _ -> b | [] -> "/");
      st_dir = true;
      st_length = 0;
      st_mtime = 0;
      st_version = 0;
    }

let exists t path =
  match stat t path with _ -> true | exception Error _ -> false

let is_dir t path =
  match stat t path with
  | st -> st.st_dir
  | exception Error _ -> false

let open_raw t path mode ~trunc =
  Trace.incr m_open;
  let stack, rest = resolve t path in
  union_find stack (fun fs -> fs.fs_open rest mode ~trunc)

let read_file t path =
  Trace.incr m_read;
  let f = open_raw t path Read ~trunc:false in
  Fun.protect
    ~finally:(fun () -> try f.of_close () with _ -> ())
    (fun () ->
      let b = Buffer.create 256 in
      let rec loop off =
        let chunk = f.of_read ~off ~count:65536 in
        if chunk <> "" then begin
          Buffer.add_string b chunk;
          loop (off + String.length chunk)
        end
      in
      loop 0;
      Buffer.contents b)

let write_file t path data =
  Trace.incr m_write;
  tick t;
  mutated t;
  let stack, rest = resolve t path in
  let f =
    try union_find stack (fun fs -> fs.fs_open rest Write ~trunc:true)
    with Error Enonexist ->
      (* Create in the first member that accepts creation. *)
      let rec create_in = function
        | [] -> err Enonexist
        | fs :: more -> (
            try
              fs.fs_create rest ~dir:false;
              fs.fs_open rest Write ~trunc:true
            with Error (Eperm | Enonexist | Enotdir | Eio _) when more <> [] ->
              create_in more)
      in
      create_in stack
  in
  Fun.protect
    ~finally:(fun () -> try f.of_close () with _ -> ())
    (fun () -> ignore (f.of_write ~off:0 data))

let append_file t path data =
  Trace.incr m_write;
  tick t;
  mutated t;
  let stack, rest = resolve t path in
  let f, off =
    try
      let st = union_find stack (fun fs -> fs.fs_stat rest) in
      (union_find stack (fun fs -> fs.fs_open rest Write ~trunc:false),
       st.st_length)
    with Error Enonexist ->
      let rec create_in = function
        | [] -> err Enonexist
        | fs :: more -> (
            try
              fs.fs_create rest ~dir:false;
              fs.fs_open rest Write ~trunc:false
            with Error (Eperm | Enonexist | Enotdir | Eio _) when more <> [] ->
              create_in more)
      in
      (create_in stack, 0)
  in
  Fun.protect
    ~finally:(fun () -> try f.of_close () with _ -> ())
    (fun () -> ignore (f.of_write ~off data))

let mkdir t path =
  Trace.incr m_create;
  tick t;
  mutated t;
  let stack, rest = resolve t path in
  let rec create_in = function
    | [] -> err Eperm
    | fs :: more -> (
        try fs.fs_create rest ~dir:true
        with Error (Eperm | Enotdir) when more <> [] -> create_in more)
  in
  create_in stack

let mkdir_p t path =
  let comps = split_path path in
  let rec go prefix = function
    | [] -> ()
    | comp :: rest ->
        let here = prefix @ [ comp ] in
        let p = join_path here in
        if not (exists t p) then mkdir t p;
        go here rest
  in
  go [] comps

let remove t path =
  Trace.incr m_remove;
  tick t;
  mutated t;
  let stack, rest = resolve t path in
  union_find stack (fun fs -> fs.fs_remove rest)

(* The name of the mount point [prefix] when it lies directly below the
   directory [here]. *)
let rec mount_child here prefix =
  match (here, prefix) with
  | [], [ base ] -> Some base
  | h :: hs, p :: ps when String.equal h p -> mount_child hs ps
  | _ -> None

let rec strictly_ascending = function
  | a :: (b :: _ as rest) ->
      String.compare a.st_name b.st_name < 0 && strictly_ascending rest
  | _ -> true

let readdir t path =
  Trace.incr m_readdir;
  let here = split_path path in
  let stack, rest = resolve_comps t here in
  let first_eio = ref None in
  let listings =
    List.filter_map
      (fun fs ->
        match fs.fs_readdir rest with
        | stats -> Some stats
        | exception Error (Eio _ as e) ->
            (* a broken member degrades to the others, but remember the
               transport error in case nothing answers *)
            if !first_eio = None then first_eio := Some e;
            None
        | exception Error _ -> None)
      stack
  in
  (* mount points directly under this directory are entries too *)
  let below =
    List.filter_map (fun (prefix, _) -> mount_child here prefix) t.mounts
  in
  match (listings, below) with
  | [ stats ], [] when strictly_ascending stats ->
      (* one member answered with a listing already in name order:
         nothing to shadow, add or sort *)
      stats
  | [], [] -> (
      match !first_eio with Some e -> raise (Error e) | None -> err Enonexist)
  | _ ->
      (* Union view: entries of every member that has the directory,
         earlier members shadowing later ones by name. *)
      let seen = Hashtbl.create 16 in
      let entries = ref [] in
      let add st =
        if not (Hashtbl.mem seen st.st_name) then begin
          Hashtbl.add seen st.st_name ();
          entries := st :: !entries
        end
      in
      List.iter (List.iter add) listings;
      List.iter
        (fun base ->
          add
            {
              st_name = base;
              st_dir = true;
              st_length = 0;
              st_mtime = 0;
              st_version = 0;
            })
        below;
      List.sort (fun a b -> String.compare a.st_name b.st_name) !entries

let subtree t prefix =
  let prefix = split_path prefix in
  let full rest = join_path (prefix @ rest) in
  (* A subtree's openfile and create paths are driven directly by
     consumers that bypass the namespace wrappers — most importantly the
     9P server, which calls [fs_open]/[fs_create]/[of_write] on the
     exported record.  Each mutation must still bump [t.mutations], or
     caches keyed on [generation] (the trigram index above all) keep
     serving state that a remote client has already changed. *)
  let bump () =
    tick t;
    mutated t
  in
  {
    fs_stat = (fun rest -> stat t (full rest));
    fs_open =
      (fun rest mode ~trunc ->
        if trunc then bump ();
        let f = open_raw t (full rest) mode ~trunc in
        {
          f with
          of_write =
            (fun ~off data ->
              bump ();
              f.of_write ~off data);
        });
    fs_create =
      (fun rest ~dir ->
        bump ();
        let stack, r = resolve t (full rest) in
        let rec create_in = function
          | [] -> err Eperm
          | fs :: more -> (
              try fs.fs_create r ~dir
              with Error (Eperm | Enotdir) when more <> [] -> create_in more)
        in
        create_in stack);
    fs_remove = (fun rest -> remove t (full rest));
    fs_readdir = (fun rest -> readdir t (full rest));
  }

(* ------------------------------------------------------------------ *)
(* Client-side handles                                                 *)

type handle = { file : openfile; mutable pos : int; ns : t }

let open_file t path mode =
  tick t;
  { file = open_raw t path mode ~trunc:false; pos = 0; ns = t }

let create_file t path =
  Trace.incr m_create;
  tick t;
  mutated t;
  if not (exists t path) then begin
    let stack, rest = resolve t path in
    let rec create_in = function
      | [] -> err Enonexist
      | fs :: more -> (
          try fs.fs_create rest ~dir:false
          with Error (Eperm | Enonexist | Enotdir) when more <> [] ->
            create_in more)
    in
    create_in stack
  end;
  { file = open_raw t path Rdwr ~trunc:true; pos = 0; ns = t }

let read h count =
  Trace.incr m_read;
  let data = h.file.of_read ~off:h.pos ~count in
  h.pos <- h.pos + String.length data;
  data

let write h data =
  Trace.incr m_write;
  tick h.ns;
  mutated h.ns;
  let n = h.file.of_write ~off:h.pos data in
  h.pos <- h.pos + n

let close h = h.file.of_close ()

let read_all h =
  let b = Buffer.create 256 in
  let rec loop () =
    let chunk = read h 65536 in
    if chunk <> "" then begin
      Buffer.add_string b chunk;
      loop ()
    end
  in
  loop ();
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                  *)

(* Capture and rebuild the root RAM tree exactly — content, mtime,
   version, child order — plus the namespace clock and mutation
   counter.  File contents are not embedded: they are cut into
   fixed-size chunks handed to [put], which stores each chunk under a
   content digest and returns the key; the snapshot records only the
   keys.  Unchanged chunks therefore cost nothing across consecutive
   snapshots (the WAL's content-addressed store deduplicates them).
   The mount table is NOT captured: recovery runs boot's wire phase,
   which recreates every mount, then restores the RAM tree whole. *)

let chunk_size = 8192

let w_content b ~put s =
  Codec.w_int b (String.length s);
  let n = (String.length s + chunk_size - 1) / chunk_size in
  Codec.w_int b n;
  for i = 0 to n - 1 do
    let off = i * chunk_size in
    let len = min chunk_size (String.length s - off) in
    Codec.w_str b (put (String.sub s off len))
  done

let r_content d ~get =
  let total = Codec.r_int d in
  let n = Codec.r_int d in
  let b = Buffer.create total in
  for _ = 1 to n do
    Buffer.add_string b (get (Codec.r_str d))
  done;
  let s = Buffer.contents b in
  if String.length s <> total then
    err (Eio "snapshot chunk length mismatch");
  s

let rec w_rnode b ~put node =
  Codec.w_int b node.mtime;
  Codec.w_int b node.version;
  match node.children with
  | None ->
      Codec.w_int b 0;
      w_content b ~put node.content
  | Some kids ->
      Codec.w_int b 1;
      Codec.w_list b
        (fun b (name, child) ->
          Codec.w_str b name;
          w_rnode b ~put child)
        kids

let rec r_rnode d ~get =
  let mtime = Codec.r_int d in
  let version = Codec.r_int d in
  match Codec.r_int d with
  | 0 ->
      let content = r_content d ~get in
      { content; children = None; mtime; version }
  | _ ->
      let kids =
        Codec.r_list d (fun d ->
            let name = Codec.r_str d in
            (name, r_rnode d ~get))
      in
      { content = ""; children = Some kids; mtime; version }

let snapshot t ~put =
  match t.ram with
  | None -> invalid_arg "Vfs.snapshot: no RAM root"
  | Some root ->
      let b = Buffer.create 4096 in
      Codec.w_int b t.clock;
      Codec.w_int b t.mutations;
      w_rnode b ~put root;
      Buffer.contents b

let restore t ~get s =
  match t.ram with
  | None -> invalid_arg "Vfs.restore: no RAM root"
  | Some root ->
      let d = Codec.reader s in
      let clock = Codec.r_int d in
      let mutations = Codec.r_int d in
      let fresh = r_rnode d ~get in
      root.content <- fresh.content;
      root.children <- fresh.children;
      root.mtime <- fresh.mtime;
      root.version <- fresh.version;
      t.clock <- clock;
      t.mutations <- mutations
