let err e = raise (Vfs.Error e)

let first_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

let index_text help =
  String.concat ""
    (List.map
       (fun w ->
         Printf.sprintf "%d\t%s\n" (Hwin.id w)
           (first_line (Hwin.tag_text w)))
       (Help.windows help))

(* A read-only openfile over a string snapshot. *)
let string_file data =
  {
    Vfs.of_read =
      (fun ~off ~count ->
        let len = String.length data in
        if off >= len then "" else String.sub data off (min count (len - off)));
    of_write = (fun ~off:_ _ -> err Vfs.Eperm);
    of_close = (fun () -> ());
  }

(* The WAL's op log as op lines, oldest first, less a torn tail: a
   helpsim script that replays the session from a fresh boot. *)
let wal_log_text a =
  fst (Wal.ops_after (Wal.store a) ~pos:0)
  |> List.map (fun (_, op) -> Wal.op_to_string op ^ "\n")
  |> String.concat ""

let stat_of ~name ~dir ~length now =
  { Vfs.st_name = name; st_dir = dir; st_length = length; st_mtime = now;
    st_version = 0 }

let filesystem ?(wal = fun () -> None) help =
  let ns = Help.ns help in
  let now () = Vfs.now ns in
  let win id =
    match Help.window_by_id help id with
    | Some w -> w
    | None -> err Vfs.Enonexist
  in
  (* the session attaches its WAL after the mount, so the tree reads
     the cell on every access: wal/ appears once an attachment exists *)
  let the_wal () =
    match wal () with Some a -> a | None -> err Vfs.Enonexist
  in
  let body_text w = Htext.string (Hwin.body w) in
  let parse_path = function
    | [] -> `Root
    | [ "index" ] -> `Index
    (* like trace/, the children live under a path whose head is
       itself a readable file (the window list) and are reached by
       direct walk *)
    | [ "index"; "stats" ] -> `Ixstats
    | [ "index"; "postings" ] -> `Ixpostings
    | [ "index"; "rebuild" ] -> `Ixrebuild
    | [ "stats" ] -> `Stats
    | [ "metrics" ] -> `Metrics
    | [ "alerts" ] -> `Alerts
    | [ "trace" ] -> `Trace
    | [ "new" ] -> `New
    | [ "new"; "ctl" ] -> `Newctl
    (* per-request views live under trace/ but are reached by direct
       walk — [trace] itself remains the (draining) log file *)
    | [ "trace"; "last" ] -> `TraceLast
    | [ "trace"; rid ] -> (
        match int_of_string_opt rid with
        | Some r -> `TraceReq r
        | None -> err Vfs.Enonexist)
    (* the manual: guide is the page index, pages are reached by
       direct walk through it — the trace/ arrangement again *)
    | [ "guide" ] -> `Guide
    | [ "guide"; pg ] -> `GuidePage pg
    | [ "wal" ] -> `WalDir
    | [ "wal"; "stats" ] -> `Wstats
    | [ "wal"; "log" ] -> `Wlog
    | [ "wal"; "checkpoint" ] -> `Wcheckpoint
    | [ id ] -> (
        match int_of_string_opt id with
        | Some id -> `Win id
        | None -> err Vfs.Enonexist)
    | [ id; file ] -> (
        match int_of_string_opt id with
        | Some id -> (
            match file with
            | "tag" -> `Tag id
            | "body" -> `Body id
            | "bodyapp" -> `Bodyapp id
            | "ctl" -> `Ctl id
            | _ -> err Vfs.Enonexist)
        | None -> err Vfs.Enonexist)
    | _ -> err Vfs.Enonexist
  in
  let fs_stat path =
    match parse_path path with
    | `Root -> stat_of ~name:"/" ~dir:true ~length:0 (now ())
    | `Index ->
        stat_of ~name:"index" ~dir:false
          ~length:(String.length (index_text help))
          (now ())
    | `Ixstats ->
        stat_of ~name:"stats" ~dir:false
          ~length:(String.length (Index.stats_text (Index.of_ns ns)))
          (now ())
    | `Ixpostings ->
        (* sized at open: the posting table moves under queries *)
        stat_of ~name:"postings" ~dir:false ~length:0 (now ())
    | `Ixrebuild -> stat_of ~name:"rebuild" ~dir:false ~length:0 (now ())
    | `Stats ->
        stat_of ~name:"stats" ~dir:false
          ~length:(String.length (Trace.stats_text ()))
          (now ())
    | `Metrics ->
        stat_of ~name:"metrics" ~dir:false
          ~length:(String.length (Trace.metrics_text ()))
          (now ())
    | `Alerts ->
        stat_of ~name:"alerts" ~dir:false
          ~length:(String.length (Trace.alerts_text ()))
          (now ())
    | `Trace ->
        (* length unknown until the ring is drained at open *)
        stat_of ~name:"trace" ~dir:false ~length:0 (now ())
    | `TraceLast ->
        (* the ring keeps moving between stat and open; like trace,
           length is only known at open *)
        stat_of ~name:"last" ~dir:false ~length:0 (now ())
    | `TraceReq r -> (
        match Trace.request_text r with
        | Some _ -> stat_of ~name:(string_of_int r) ~dir:false ~length:0 (now ())
        | None -> err Vfs.Enonexist)
    | `Guide ->
        stat_of ~name:"guide" ~dir:false
          ~length:(String.length (Guide.index_text ()))
          (now ())
    | `GuidePage pg -> (
        match Guide.find pg with
        | Some p ->
            stat_of ~name:pg ~dir:false
              ~length:(String.length (Guide.page_text p))
              (now ())
        | None -> err Vfs.Enonexist)
    | `WalDir ->
        let _ = the_wal () in
        stat_of ~name:"wal" ~dir:true ~length:3 (now ())
    | `Wstats ->
        stat_of ~name:"stats" ~dir:false
          ~length:(String.length (Wal.stats_text (the_wal ())))
          (now ())
    | `Wlog ->
        stat_of ~name:"log" ~dir:false
          ~length:(String.length (wal_log_text (the_wal ())))
          (now ())
    | `Wcheckpoint ->
        let _ = the_wal () in
        stat_of ~name:"checkpoint" ~dir:false ~length:0 (now ())
    | `New -> stat_of ~name:"new" ~dir:true ~length:1 (now ())
    | `Newctl -> stat_of ~name:"ctl" ~dir:false ~length:0 (now ())
    | `Win id ->
        let _ = win id in
        stat_of ~name:(string_of_int id) ~dir:true ~length:4 (now ())
    | `Tag id ->
        stat_of ~name:"tag" ~dir:false
          ~length:(String.length (Hwin.tag_text (win id)))
          (now ())
    | `Body id ->
        stat_of ~name:"body" ~dir:false
          ~length:(String.length (body_text (win id)))
          (now ())
    | `Bodyapp id ->
        let _ = win id in
        stat_of ~name:"bodyapp" ~dir:false ~length:0 (now ())
    | `Ctl id ->
        let _ = win id in
        stat_of ~name:"ctl" ~dir:false ~length:0 (now ())
  in
  let fs_readdir path =
    match parse_path path with
    | `Root ->
        stat_of ~name:"index" ~dir:false
          ~length:(String.length (index_text help))
          (now ())
        :: stat_of ~name:"stats" ~dir:false
             ~length:(String.length (Trace.stats_text ()))
             (now ())
        :: stat_of ~name:"metrics" ~dir:false
             ~length:(String.length (Trace.metrics_text ()))
             (now ())
        :: stat_of ~name:"alerts" ~dir:false
             ~length:(String.length (Trace.alerts_text ()))
             (now ())
        :: stat_of ~name:"trace" ~dir:false ~length:0 (now ())
        :: stat_of ~name:"guide" ~dir:false
             ~length:(String.length (Guide.index_text ()))
             (now ())
        :: stat_of ~name:"new" ~dir:true ~length:1 (now ())
        :: ((match wal () with
            | Some _ -> [ stat_of ~name:"wal" ~dir:true ~length:3 (now ()) ]
            | None -> [])
           @ List.map
               (fun w ->
                 stat_of ~name:(string_of_int (Hwin.id w)) ~dir:true ~length:4
                   (now ()))
               (Help.windows help))
    | `WalDir ->
        let a = the_wal () in
        [
          stat_of ~name:"stats" ~dir:false
            ~length:(String.length (Wal.stats_text a))
            (now ());
          stat_of ~name:"log" ~dir:false
            ~length:(String.length (wal_log_text a))
            (now ());
          stat_of ~name:"checkpoint" ~dir:false ~length:0 (now ());
        ]
    | `New -> [ stat_of ~name:"ctl" ~dir:false ~length:0 (now ()) ]
    | `Win id ->
        let _ = win id in
        List.map
          (fun n -> stat_of ~name:n ~dir:false ~length:0 (now ()))
          [ "tag"; "body"; "bodyapp"; "ctl" ]
    | `Index | `Ixstats | `Ixpostings | `Ixrebuild | `Stats | `Metrics
    | `Alerts | `Trace | `TraceLast | `TraceReq _ | `Guide | `GuidePage _
    | `Wstats | `Wlog | `Wcheckpoint | `Newctl | `Tag _ | `Body _ | `Bodyapp _
    | `Ctl _ ->
        err Vfs.Enotdir
  in
  (* Fixed string semantics don't fit tag/body/ctl writes, which must
     act on the live window; each open file carries its own behaviour. *)
  let tag_file id ~trunc =
    let w = win id in
    if trunc then Hwin.set_tag w "";
    {
      Vfs.of_read =
        (fun ~off ~count ->
          let data = Hwin.tag_text w in
          let len = String.length data in
          if off >= len then ""
          else String.sub data off (min count (len - off)));
      of_write =
        (fun ~off data ->
          (* writes build up the tag at the given offset *)
          let cur = Hwin.tag_text w in
          let len = String.length cur in
          let b = Bytes.make (max len (off + String.length data)) ' ' in
          Bytes.blit_string cur 0 b 0 len;
          Bytes.blit_string data 0 b off (String.length data);
          Hwin.set_tag w (Bytes.to_string b);
          String.length data);
      of_close = (fun () -> ());
    }
  in
  let body_file id ~trunc =
    let w = win id in
    if trunc then Help.set_body help w "";
    {
      Vfs.of_read =
        (fun ~off ~count ->
          let data = body_text w in
          let len = String.length data in
          if off >= len then ""
          else String.sub data off (min count (len - off)));
      of_write =
        (fun ~off data ->
          let buf = Htext.buffer (Hwin.body w) in
          let was_dirty = Buffer0.dirty buf in
          let len = Buffer0.length buf in
          if off >= len then Buffer0.insert buf len data
          else begin
            let stop = min len (off + String.length data) in
            Buffer0.replace buf off stop data
          end;
          Buffer0.commit buf;
          (* program-written content is not an unsaved user edit *)
          if not was_dirty then Buffer0.clean buf;
          String.length data);
      of_close = (fun () -> ());
    }
  in
  let bodyapp_file id =
    let w = win id in
    {
      Vfs.of_read = (fun ~off:_ ~count:_ -> "");
      of_write =
        (fun ~off:_ data ->
          Help.append_body help w data;
          String.length data);
      of_close = (fun () -> ());
    }
  in
  let ctl_file id =
    let w = win id in
    (* writes accumulate; complete lines are executed as they arrive *)
    let pending = Buffer.create 64 in
    let run_lines final =
      let data = Buffer.contents pending in
      let rec go start =
        match String.index_from_opt data start '\n' with
        | Some i ->
            let line = String.sub data start (i - start) in
            (match Help.ctl_command help w line with
            | Ok () -> ()
            | Error msg -> err (Vfs.Eio msg));
            go (i + 1)
        | None ->
            if final && start < String.length data then begin
              (match
                 Help.ctl_command help w
                   (String.sub data start (String.length data - start))
               with
              | Ok () -> ()
              | Error msg -> err (Vfs.Eio msg));
              Buffer.clear pending
            end
            else begin
              let rest = String.sub data start (String.length data - start) in
              Buffer.clear pending;
              Buffer.add_string pending rest
            end
      in
      go 0
    in
    {
      Vfs.of_read =
        (fun ~off ~count ->
          let q0, q1 = Htext.sel (Hwin.body w) in
          let data =
            Printf.sprintf "%d %d %d %d %d\n" id
              (Htext.length (Hwin.body w))
              (if Hwin.dirty w then 1 else 0)
              q0 q1
          in
          let len = String.length data in
          if off >= len then ""
          else String.sub data off (min count (len - off)));
      of_write =
        (fun ~off:_ data ->
          Buffer.add_string pending data;
          run_lines false;
          String.length data);
      of_close = (fun () -> run_lines true);
    }
  in
  let newctl_file () =
    (* "To create a new window, a process just opens /mnt/help/new/ctl
       ... and may then read from that file the name of the window
       created."  The window exists as soon as the file is open. *)
    let w = Help.new_window help () in
    let data = string_of_int (Hwin.id w) ^ "\n" in
    {
      Vfs.of_read =
        (fun ~off ~count ->
          let len = String.length data in
          if off >= len then ""
          else String.sub data off (min count (len - off)));
      of_write = (fun ~off:_ _ -> err Vfs.Eperm);
      of_close = (fun () -> ());
    }
  in
  let rebuild_file () =
    {
      Vfs.of_read = (fun ~off:_ ~count:_ -> "");
      of_write =
        (fun ~off:_ data ->
          (* any write rebuilds; content is ignored *)
          Index.rebuild (Index.of_ns ns);
          String.length data);
      of_close = (fun () -> ());
    }
  in
  let wal_checkpoint_file a =
    {
      Vfs.of_read = (fun ~off:_ ~count:_ -> "");
      of_write =
        (fun ~off:_ data ->
          (* any write snapshots now; content is ignored *)
          Wal.force_checkpoint a;
          String.length data);
      of_close = (fun () -> ());
    }
  in
  let fs_open path _mode ~trunc =
    match parse_path path with
    | `Index -> string_file (index_text help)
    | `Ixstats -> string_file (Index.stats_text (Index.of_ns ns))
    | `Ixpostings -> string_file (Index.postings_text (Index.of_ns ns))
    | `Ixrebuild -> rebuild_file ()
    | `Stats ->
        (* the registry snapshot, one metric per line: the whole
           observability ledger through the paper's own interface *)
        string_file (Trace.stats_text ())
    | `Metrics ->
        (* Prometheus-style exposition of the same ledger, with
           per-window quantiles — scrape by cat *)
        string_file (Trace.metrics_text ())
    | `Alerts ->
        (* threshold table, evaluated at open *)
        string_file (Trace.alerts_text ())
    | `Trace ->
        (* reading drains the span ring; the snapshot taken at open is
           what this open file serves *)
        let spans, dropped = Trace.drain () in
        string_file (Trace.spans_text ~dropped spans)
    | `TraceLast ->
        (* same rendering, but a peek: the ring is left intact, so any
           number of observers can read without racing the drain *)
        let spans, dropped = Trace.peek () in
        string_file (Trace.spans_text ~dropped spans)
    | `TraceReq r -> (
        match Trace.request_text r with
        | Some text -> string_file text
        | None -> err Vfs.Enonexist)
    | `Guide ->
        (* the manual's index — the same model guide(1) renders as
           windows, one name/section/title line per page *)
        string_file (Guide.index_text ())
    | `GuidePage pg -> (
        match Guide.find pg with
        | Some p -> string_file (Guide.page_text p)
        | None -> err Vfs.Enonexist)
    | `Wstats ->
        (* the durability ledger: log and snapshot totals, chunk
           sharing, last-recovery statistics *)
        string_file (Wal.stats_text (the_wal ()))
    | `Wlog -> string_file (wal_log_text (the_wal ()))
    | `Wcheckpoint -> wal_checkpoint_file (the_wal ())
    | `Newctl -> newctl_file ()
    | `Tag id -> tag_file id ~trunc
    | `Body id -> body_file id ~trunc
    | `Bodyapp id -> bodyapp_file id
    | `Ctl id -> ctl_file id
    | `Root | `New | `Win _ | `WalDir -> err Vfs.Eisdir
  in
  let fs_create _path ~dir:_ = err Vfs.Eperm in
  let fs_remove path =
    match parse_path path with
    | `Win id ->
        Help.close_window help (win id)
    | _ -> err Vfs.Eperm
  in
  { Vfs.fs_stat; fs_open; fs_create; fs_remove; fs_readdir }

(* ------------------------------------------------------------------ *)
(* Glue natives: help/parse and help/buf                               *)

let line_of_offset text q =
  let q = max 0 (min q (String.length text)) in
  let line = ref 1 in
  for i = 0 to q - 1 do
    if text.[i] = '\n' then incr line
  done;
  !line

let quote v = "'" ^ String.concat "''" (String.split_on_char '\'' v) ^ "'"

let parse_native proc args =
  let flags = List.tl args in
  let out = Rc.proc_out proc in
  match Rc.proc_get proc "helpsel" with
  | Some [ id; q0; q1 ] -> (
      let ns = Rc.proc_ns proc in
      let win_dir = "/mnt/help/" ^ id in
      match Vfs.read_file ns (win_dir ^ "/tag") with
      | exception Vfs.Error _ ->
          Buffer.add_string (Rc.proc_err proc) "help/parse: no such window\n";
          1
      | tag_line ->
          let q0 = int_of_string_opt q0 |> Option.value ~default:0 in
          let q1 = int_of_string_opt q1 |> Option.value ~default:q0 in
          let name =
            match String.index_opt tag_line ' ' with
            | Some i -> String.sub tag_line 0 i
            | None -> (
                match String.index_opt tag_line '\t' with
                | Some i -> String.sub tag_line 0 i
                | None -> tag_line)
          in
          let dir =
            if name = "" then "/"
            else if name.[String.length name - 1] = '/' then Vfs.normalize name
            else Vfs.dirname name
          in
          let add k v = Buffer.add_string out (k ^ "=" ^ quote v ^ "\n") in
          add "win" id;
          add "file" name;
          add "dir" dir;
          let body () = Vfs.read_file ns (win_dir ^ "/body") in
          List.iter
            (fun flag ->
              match flag with
              | "-c" ->
                  let text = body () in
                  let a, b = Hselect.ident_at text q0 in
                  let a, b = if b > a then (a, b) else Hselect.ident_at text q1 in
                  add "id" (String.sub text a (b - a));
                  add "line" (string_of_int (line_of_offset text q0))
              | "-w" ->
                  let text = body () in
                  let a, b = Hselect.word_at text q0 in
                  add "id" (String.sub text a (b - a))
              | "-n" ->
                  let text = body () in
                  (match Hselect.number_at text q0 with
                  | Some num -> add "num" num
                  | None -> add "num" "0")
              | "-l" ->
                  let text = body () in
                  let a, b = Hselect.line_at text q0 in
                  add "text" (String.sub text a (b - a))
              | _ -> ())
            flags;
          0)
  | _ ->
      Buffer.add_string (Rc.proc_err proc) "help/parse: no selection\n";
      1

let buf_native proc _args =
  Buffer.add_string (Rc.proc_out proc) (Rc.proc_stdin proc);
  0

let install_glue sh =
  Rc.register sh "/bin/help/parse" parse_native;
  Rc.register sh "/bin/help/buf" buf_native

let mount ?wrap ?wal help =
  let fs = filesystem ?wal help in
  let pool =
    Nine.serve_mount ?wrap ~uname:"help" (Help.ns help) "/mnt/help" fs
  in
  install_glue (Help.shell help);
  pool
