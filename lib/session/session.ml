type t = {
  ns : Vfs.t;
  sh : Rc.t;
  help : Help.t;
  db : Db.t;
  pool : Nine.Pool.t;
  metrics : Metrics.t;
  cpu : Cpu.t option;
  wal : Wal.t option ref;
  mutable in_op : bool;
}

let crash_pid = 176153

let edit_stf =
  "Open\nPattern \"\nText ''\nCut\tPaste\tSnarf\nWrite\tNew\tUndo\tRedo\tSplit!\n"

let boot_body = "Exit\n"

(* The "traditional shell window" the paper lists as overdue, delivered
   the help way: a typescript is just a window, and `run' is a
   three-line script — select a command line anywhere and click run. *)
let shell_stf = "window run\n"

let shell_window_script =
  "x=`{cat /mnt/help/new/ctl}\n\
   echo tag /tmp/typescript' /help/shell Close!' > /mnt/help/$x/ctl\n\
   echo 'type a command, select its line, click run' > /mnt/help/$x/bodyapp\n"

let shell_run_script =
  "eval `{help/parse -l}\n\
   cd $dir\n\
   echo '% '$text > /mnt/help/$win/bodyapp\n\
   eval $text > /mnt/help/$win/bodyapp\n"

(* The planted crash of the worked example: Sean ran the new help, a
   null n reached strlen.  Call-site lines are resolved from the live
   corpus text so the stack follows the sources. *)
let plant_crash ns db =
  let src = Corpus.src_dir in
  let line file needle = Corpus.line_of ns (src ^ "/" ^ file) needle in
  let frames =
    [
      {
        Db.fr_func = "strchr";
        fr_args = [ ("c", "#3c"); ("s", "#0") ];
        fr_callsite = ("/sys/src/libc/port/strlen.c", 7);
        fr_locals = [];
      };
      {
        fr_func = "strlen";
        fr_args = [ ("s", "#0") ];
        fr_callsite = ("text.c", line "text.c" "strlen((char*)s)");
        fr_locals = [];
      };
      {
        fr_func = "textinsert";
        fr_args =
          [ ("sel", "#1"); ("t", "#40e60"); ("s", "#0"); ("q0", "#d");
            ("full", "#1") ];
        fr_callsite = ("errs.c", line "errs.c" "textinsert(1, &p->body");
        fr_locals = [ ("n", "#3d7cc") ];
      };
      {
        fr_func = "errs";
        fr_args = [ ("s", "#0") ];
        fr_callsite = ("exec.c", line "exec.c" "errs((uchar*)n)");
        fr_locals = [ ("p", "#40d88") ];
      };
      {
        fr_func = "Xdie2";
        fr_args = [];
        fr_callsite = ("exec.c", line "exec.c" "(*b->fn)(1, &b->name");
        fr_locals = [];
      };
      {
        fr_func = "lookup";
        fr_args = [ ("s", "#40be8") ];
        fr_callsite = ("exec.c", line "exec.c" "if(lookup(&cmd))");
        fr_locals = [ ("i", "#1f"); ("n", "#c5bf") ];
      };
      {
        fr_func = "execute";
        fr_args = [ ("t", "#3ebbc"); ("p0", "#2"); ("p1", "#2") ];
        fr_callsite = ("ctrl.c", line "ctrl.c" "execute(t, p0, p)");
        fr_locals = [ ("i", "#1f") ];
      };
      {
        fr_func = "control";
        fr_args = [];
        fr_callsite = ("ctrl.c", line "ctrl.c" "control(void)");
        fr_locals =
          [ ("t", "#3ebbc"); ("op", "#0"); ("p", "#0"); ("dclick", "#0");
            ("p0", "#2"); ("obut", "#0") ];
      };
    ]
  in
  Db.add_process db
    {
      Db.pr_pid = crash_pid;
      pr_cmd = "help";
      pr_status = "Broken";
      pr_binary = Corpus.src_dir ^ "/8.help";
      pr_note = "TLB miss (load or fetch)";
      pr_insn = "/sys/src/libc/mips/strchr.s:34 strchr+#68? MOVW 0(R3), R5";
      pr_regs =
        [ ("pc", "0x18df4"); ("sp", "0x3f4e8"); ("r1", "0x0");
          ("r2", "0x40e60"); ("r3", "0x0"); ("status", "0xfb0c") ];
      pr_frames = frames;
    }

(* ------------------------------------------------------------------ *)
(* Durability plumbing (lib/wal)

   The WAL records the session's public driving API: each wrapper below
   logs its op (write-ahead, stamped with the logical clock) and then
   runs the original entry point.  Replay re-invokes the same entry
   point, so every derived effect — including read-side counters like
   layout-cache hits — is reproduced by the code that produced it.  The
   [in_op] guard keeps the raw-event tap ({!Help.on_event}) from also
   logging the events a wrapper synthesizes. *)

let logged t op f =
  match !(t.wal) with
  | Some a when Wal.recording a && not t.in_op ->
      t.in_op <- true;
      Wal.log a op;
      Fun.protect ~finally:(fun () -> t.in_op <- false) f
  | _ -> f ()

(* The shell half of a snapshot: the global variables (functions and
   natives are recreated by boot's wire phase). *)
let rc_snapshot sh =
  let b = Buffer.create 256 in
  Codec.w_list b
    (fun b (k, v) ->
      Codec.w_str b k;
      Codec.w_list b Codec.w_str v)
    (Rc.globals_list sh);
  Buffer.contents b

let rc_restore sh s =
  let d = Codec.reader s in
  Rc.replace_globals sh
    (Codec.r_list d (fun d ->
         let k = Codec.r_str d in
         (k, Codec.r_list d Codec.r_str)))

let checkpoint t =
  match !(t.wal) with
  | None -> ()
  | Some a ->
      Wal.begin_snapshot a;
      let put = Wal.put a in
      let vfs = Vfs.snapshot t.ns ~put in
      let rc = rc_snapshot t.sh in
      let help = Help.snapshot t.help ~put in
      Wal.commit_snapshot a ~vfs ~rc ~help

let install_wal t a =
  t.wal := Some a;
  Wal.set_on_checkpoint a (fun () -> checkpoint t);
  Nine.Pool.set_journal_sink t.pool (Some (Wal.journal_entry a));
  Help.on_event t.help (fun ev ->
      if not t.in_op then
        match !(t.wal) with
        | Some a when Wal.recording a -> Wal.log a (Wal.O_event ev)
        | _ -> ())

(* ------------------------------------------------------------------ *)
(* Boot, in two phases

   [wire] builds what a snapshot cannot hold: shell natives, the
   profile's binds and function, the planted process, the /mnt/help
   server and pool, and the CPU link.  It also installs the corpus,
   which the snapshot does hold, because the profile, [plant_crash] and
   [Cpu.connect] read it.  [populate] builds the rest of what a
   snapshot holds: the demo binary's files in the RAM tree and the
   boot-screen windows.  Boot runs both; recovery runs [wire] and
   restores a snapshot where boot would run [populate]. *)

let wire ?w ?h ~remote ?fault () =
  (* each session starts a fresh observability ledger (and a fresh
     logical trace clock), so scripted sessions trace identically *)
  Trace.reset ();
  let ns = Vfs.create () in
  Corpus.install ns;
  let sh = Rc.create ns in
  Coreutils.install sh;
  Mk.install sh;
  Cbr.install sh;
  Mail.install sh;
  Ed.install sh;
  Guide.install ~builtins:Help.builtins sh;
  let db = Db.create () in
  Db.install sh db;
  (* environment the profile expects *)
  Rc.set_global sh "home" [ Corpus.home ];
  Rc.set_global sh "user" [ "rob" ];
  Rc.set_global sh "service" [ "terminal" ];
  Rc.set_global sh "cputype" [ "mips" ];
  Rc.set_global sh "cppflags" [];
  (* the help-provided tools: the editor listing and the shell windows *)
  Vfs.mkdir_p ns "/help/edit";
  Vfs.write_file ns "/help/edit/stf" edit_stf;
  Vfs.mkdir_p ns "/help/shell";
  Vfs.write_file ns "/help/shell/stf" shell_stf;
  Vfs.write_file ns "/help/shell/window" shell_window_script;
  Vfs.write_file ns "/help/shell/run" shell_run_script;
  let help = Help.create ?w ?h ns sh in
  let metrics = Metrics.attach help in
  (* the WAL attachment is created after the mount, so the server gets a
     cell it can read later: /mnt/help/wal appears once one exists *)
  let wal_ref = ref None in
  let pool =
    Help_srv.mount ?wrap:(Option.map Fault.wrap fault)
      ~wal:(fun () -> !wal_ref)
      help
  in
  (* run the user's profile: a snapshot keeps the shell's globals, not
     the binds and the function it makes *)
  let _ = Rc.run sh ~cwd:Corpus.home (". " ^ Corpus.home ^ "/lib/profile") in
  plant_crash ns db;
  (* optionally, run applications on a CPU server over the 9P link; it
     imports the terminal directories that exist now *)
  let cpu =
    if not remote then None
    else begin
      let install csh =
        Coreutils.install csh;
        Mk.install csh;
        Cbr.install csh;
        Mail.install csh;
        Ed.install csh;
        Guide.install ~builtins:Help.builtins csh;
        Db.install csh db;
        Help_srv.install_glue csh;
        Rc.set_global csh "home" [ Corpus.home ];
        Rc.set_global csh "user" [ "rob" ];
        Rc.set_global csh "service" [ "cpu" ];
        Rc.set_global csh "cputype" [ "mips" ];
        Rc.set_global csh "cppflags" []
      in
      let cpu = Cpu.connect ~install help in
      Help.set_executor help (Cpu.executor cpu);
      Some cpu
    end
  in
  { ns; sh; help; db; pool; metrics; cpu; wal = wal_ref; in_op = false }

let populate t =
  (* build the demo binary so the debugger has a symbol table *)
  let _ = Rc.run t.sh ~cwd:Corpus.src_dir "mk" in
  (* boot screen: the Boot window and the tools, right-hand column *)
  let boot_win = Help.new_window t.help ~body:boot_body () in
  Hwin.set_tag boot_win "help/Boot";
  List.iter
    (fun tool ->
      ignore (Help.open_file t.help ~dir:"/" ("/help/" ^ tool ^ "/stf")))
    [ "edit"; "cbr"; "db"; "mail"; "guide" ]

let boot ?w ?h ?(remote = false) ?fault ?wal:wal_store ?checkpoint_every () =
  let t = wire ?w ?h ~remote ?fault () in
  populate t;
  (match wal_store with
  | None -> ()
  | Some store ->
      let a = Wal.attach ?checkpoint_every ~recording:true store in
      install_wal t a;
      (* end boot with a logged draw, then the initial checkpoint:
         snapshots always capture post-draw state, so recovery's
         warm-up repaint reproduces the render signatures the
         reference run held at the same point *)
      ignore (logged t Wal.O_draw (fun () -> Help.draw t.help));
      checkpoint t);
  t

(* ------------------------------------------------------------------ *)
(* More clients                                                        *)

(* An extra seat at the session's own /mnt/help server: a fresh pooled
   connection with its own fid table, presented as a Vfs.filesystem so
   a simulated external program can drive help with whole-file
   operations.  All its RPCs interleave with the session's own through
   the pool's round-robin. *)
let attach_client ?wrap ?(uname = "client") t =
  let conn = Nine.Pool.attach ~uname t.pool in
  let transport =
    match wrap with
    | Some w -> w (Nine.Pool.transport conn)
    | None -> Nine.Pool.transport conn
  in
  let client = Nine.Client.connect ~uname transport in
  (conn, Nine.Client.filesystem client)

(* ------------------------------------------------------------------ *)
(* Looking around                                                      *)

let screen t =
  let scr = logged t Wal.O_draw (fun () -> Help.draw t.help) in
  (match !(t.wal) with
  | Some a when not t.in_op -> Wal.maybe_checkpoint a
  | _ -> ());
  scr

let dump t = Screen.dump (screen t)

let win t name =
  match Help.window_by_name t.help name with
  | Some w -> w
  | None -> raise Not_found

let last_window t =
  match List.rev (Help.windows t.help) with
  | w :: _ -> w
  | [] -> raise Not_found

(* ------------------------------------------------------------------ *)
(* Scripted gestures                                                   *)

let find_or_fail t w needle =
  match Help.find_in_body t.help w needle with
  | Some q -> q
  | None ->
      invalid_arg
        (Printf.sprintf "Session: %S not found in window %d %s" needle
           (Hwin.id w) (Hwin.name w))

(* Reveal a window in its column, as a click on its tab would. *)
let reveal t w =
  match Help.column_of t.help w with
  | Some col -> Hcol.reveal col ~h:(Help.height t.help) w
  | None -> ()

(* Make sure offset [q] of the body is on screen: reveal the window and
   scroll (as the scroll bar would). *)
let ensure_visible t w q =
  let try_cell () =
    let _ = Help.draw t.help in
    Help.cell_of t.help w `Body q
  in
  let show () =
    match Help.ctl_command t.help w (Printf.sprintf "show %d" q) with
    | Ok () | Error _ -> ()
  in
  let attempts =
    [ (fun () -> ()); show; (fun () -> reveal t w; show ()) ]
  in
  let rec go = function
    | [] ->
        invalid_arg
          (Printf.sprintf "Session: offset %d of window %d not visible" q
             (Hwin.id w))
    | attempt :: rest -> (
        attempt ();
        match try_cell () with Some cell -> cell | None -> go rest)
  in
  go attempts

let point_at_raw t ~off w needle =
  let q = find_or_fail t w needle + off in
  let x, y = ensure_visible t w q in
  Help.events t.help [ Move (x, y); Press Left; Release Left ]

let point_at t ?(off = 0) w needle =
  logged t
    (Wal.O_point (Hwin.id w, needle, off))
    (fun () -> point_at_raw t ~off w needle)

let sweep_raw t w needle =
  let q0 = find_or_fail t w needle in
  let q1 = q0 + String.length needle in
  let x0, y0 = ensure_visible t w q0 in
  Help.events t.help [ Move (x0, y0); Press Left ];
  let x1, y1 = ensure_visible t w q1 in
  Help.events t.help [ Move (x1, y1); Release Left ]

let sweep t w needle =
  logged t (Wal.O_sweep (Hwin.id w, needle)) (fun () -> sweep_raw t w needle)

let exec_word_raw t w needle =
  let q = find_or_fail t w needle in
  let x, y = ensure_visible t w q in
  Help.events t.help [ Move (x, y); Press Middle; Release Middle ]

let exec_word t w needle =
  logged t
    (Wal.O_exec_word (Hwin.id w, needle))
    (fun () -> exec_word_raw t w needle)

let exec_tag_word_raw t w needle =
  let tagtext = Hwin.tag_text w in
  let q =
    match Hstr.find tagtext ~sub:needle with
    | Some i -> i
    | None -> invalid_arg ("Session: " ^ needle ^ " not in tag")
  in
  let cell () =
    let _ = Help.draw t.help in
    Help.cell_of t.help w `Tag q
  in
  match (match cell () with None -> reveal t w; cell () | c -> c) with
  | Some (x, y) -> Help.events t.help [ Move (x, y); Press Middle; Release Middle ]
  | None -> invalid_arg "Session: tag not visible"

let exec_tag_word t w needle =
  logged t
    (Wal.O_exec_tag (Hwin.id w, needle))
    (fun () -> exec_tag_word_raw t w needle)

let exec_sweep_raw t w needle =
  let q0 = find_or_fail t w needle in
  let q1 = q0 + String.length needle in
  let x0, y0 = ensure_visible t w q0 in
  Help.events t.help [ Move (x0, y0); Press Middle ];
  let x1, y1 = ensure_visible t w (max q0 (q1 - 1)) in
  (* release just past the last character *)
  Help.events t.help [ Move (x1 + 1, y1); Release Middle ]

let exec_sweep t w needle =
  logged t
    (Wal.O_exec_sweep (Hwin.id w, needle))
    (fun () -> exec_sweep_raw t w needle)

(* Raw events reach the log through the [Help.on_event] tap, not a
   wrapper: the tap also covers drivers that hold [t.help] directly. *)
let type_text t s = Help.event t.help (Type s)

let sweep_and_chord_cut_raw t w needle =
  let q0 = find_or_fail t w needle in
  let q1 = q0 + String.length needle in
  let x0, y0 = ensure_visible t w q0 in
  Help.events t.help [ Move (x0, y0); Press Left ];
  let x1, y1 = ensure_visible t w q1 in
  Help.events t.help
    [ Move (x1, y1); Press Middle; Release Middle; Release Left ]

let sweep_and_chord_cut t w needle =
  logged t
    (Wal.O_chord_cut (Hwin.id w, needle))
    (fun () -> sweep_and_chord_cut_raw t w needle)

let drag_window_raw t w ~col ~y =
  let _ = Help.draw t.help in
  match Help.cell_of t.help w `Tag 0 with
  | None -> invalid_arg "Session.drag_window: tag not visible"
  | Some (x0, y0) -> (
      match Help.nth_column t.help col with
      | None -> invalid_arg "Session.drag_window: no such column"
      | Some c ->
          let dest_x = Hcol.x c + 2 in
          Help.events t.help
            [ Move (x0, y0); Press Right; Move (dest_x, y); Release Right ])

let drag_window t w ~col ~y =
  logged t
    (Wal.O_drag (Hwin.id w, col, y))
    (fun () -> drag_window_raw t w ~col ~y)

let click_tab_raw t w =
  match Help.column_of t.help w with
  | None -> invalid_arg "Session.click_tab: window not in a column"
  | Some col -> (
      let rec index i = function
        | [] -> None
        | x :: rest -> if x == w then Some i else index (i + 1) rest
      in
      match index 0 (Hcol.windows col) with
      | None -> invalid_arg "Session.click_tab: not in column"
      | Some i ->
          Help.events t.help
            [ Move (Hcol.x col, 1 + i); Press Left; Release Left ])

let click_tab t w =
  logged t (Wal.O_click_tab (Hwin.id w)) (fun () -> click_tab_raw t w)

(* ------------------------------------------------------------------ *)
(* Logged namespace writes *)

let write_file t path data =
  logged t (Wal.O_write (path, data)) (fun () -> Vfs.write_file t.ns path data)

let append_file t path data =
  logged t
    (Wal.O_append (path, data))
    (fun () -> Vfs.append_file t.ns path data)

let remove_file t path =
  logged t (Wal.O_remove path) (fun () -> Vfs.remove t.ns path)

let mkdir t path =
  logged t (Wal.O_mkdir path) (fun () -> Vfs.mkdir_p t.ns path)

(* ------------------------------------------------------------------ *)
(* Replay *)

let win_by_id t id =
  match Help.window_by_id t.help id with
  | Some w -> w
  | None -> invalid_arg (Printf.sprintf "Session: no window with id %d" id)

let apply t op =
  match op with
  | Wal.O_event ev -> Help.event t.help ev
  | Wal.O_point (id, needle, off) -> point_at t ~off (win_by_id t id) needle
  | Wal.O_sweep (id, needle) -> sweep t (win_by_id t id) needle
  | Wal.O_exec_word (id, needle) -> exec_word t (win_by_id t id) needle
  | Wal.O_exec_sweep (id, needle) -> exec_sweep t (win_by_id t id) needle
  | Wal.O_exec_tag (id, needle) -> exec_tag_word t (win_by_id t id) needle
  | Wal.O_chord_cut (id, needle) ->
      sweep_and_chord_cut t (win_by_id t id) needle
  | Wal.O_drag (id, col, y) -> drag_window t (win_by_id t id) ~col ~y
  | Wal.O_click_tab id -> click_tab t (win_by_id t id)
  | Wal.O_open p ->
      logged t op (fun () -> ignore (Help.open_file t.help ~dir:"/" p))
  | Wal.O_ctl (id, cmd) ->
      let w = win_by_id t id in
      logged t op (fun () ->
          match Help.ctl_command t.help w cmd with
          | Ok () -> ()
          | Error e -> invalid_arg ("Session: ctl: " ^ e))
  | Wal.O_reveal id ->
      let w = win_by_id t id in
      logged t op (fun () -> reveal t w)
  | Wal.O_draw -> ignore (screen t)
  | Wal.O_write (p, s) -> write_file t p s
  | Wal.O_append (p, s) -> append_file t p s
  | Wal.O_remove p -> remove_file t p
  | Wal.O_mkdir p -> mkdir t p

let recover ?w ?h ?(remote = false) ?fault ?checkpoint_every store =
  let sn =
    match Wal.latest_snapshot store with
    | Some sn -> sn
    | None -> raise (Wal.Corrupt "recover: no snapshot in store")
  in
  (* A journal gap means a dispatch record was lost before the sink
     persisted it; recovery refuses rather than silently diverging. *)
  Wal.verify_journal store;
  (* 1. wire: rebuild what the snapshot does not hold *)
  let t = wire ?w ?h ~remote ?fault () in
  let a = Wal.attach ?checkpoint_every ~recording:false store in
  let get = Wal.chunk_get store in
  (* 2. restore in place of populate: the RAM tree and the windows *)
  Vfs.restore t.ns ~get (Wal.sn_vfs sn);
  rc_restore t.sh (Wal.sn_rc sn);
  Help.restore t.help ~get (Wal.sn_help sn);
  (* 3. warm-up: a full repaint of the restored state rebuilds the
     render and layout caches to exactly what the reference run held
     after its checkpoint draw *)
  ignore (Help.draw t.help);
  (* 4. counters back to their captured values (wiping the boot's and
     the warm-up's); from here the replay accounts like the original *)
  Nine.Pool.set_journal_sink t.pool (Some (Wal.journal_entry a));
  Trace.restore_state (Wal.sn_trace sn);
  Wal.prime a sn;
  (* 5. replay the tail in replay mode (count, don't re-append),
     asserting per record that the logical clock agrees with the stamp
     the original run laid down *)
  let ops, torn = Wal.ops_after store ~pos:(Wal.sn_log_pos sn) in
  t.wal := Some a;
  List.iter
    (fun (stamp, op) ->
      if Trace.logical_now () <> stamp then
        raise
          (Wal.Corrupt
             (Printf.sprintf
                "replay clock divergence: record stamped %d, clock at %d"
                stamp (Trace.logical_now ())));
      Wal.log a op;
      try apply t op
      with Invalid_argument _ | Not_found | Vfs.Error _ ->
        (* the original run saw the same deterministic failure after
           logging; the partial effects match *)
        ())
    ops;
  Wal.note_recovery a ~ops:(List.length ops) ~torn;
  install_wal t a;
  Wal.set_recording a true;
  t
