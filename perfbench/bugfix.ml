(* bugfix: the paper's mouse-only session of Figures 4-12, as Demo.run
   scripts it.  Each iteration boots a session and performs the twenty
   gestures, each followed by a repaint.  This is the paper's unit of
   work: it exercises lib/core, lib/frame, lib/shell, lib/cbr (the
   `uses *.c' and `mk' steps) and boot, and makes only about a hundred
   9P requests per replay, so it barely touches lib/nine.

   The unit of work is one replay of the twenty gestures.  Per-gesture
   percentiles of a fixed script are a mixture of twenty fixed costs,
   and the median falls between two gesture kinds; the replay time is
   the steady figure.  Per-gesture latencies are still recorded and
   printed.

   The script is the paper's and does not depend on the seed. *)

let src = Corpus.src_dir

(* the screen height of the paper's figures *)
let height = 48

(* The twenty gestures; windows Demo.run keeps in variables are kept
   in cells here, so the script is replayable from a fresh boot. *)
let script () : (string * (Session.t -> unit)) list =
  let line t file needle = Corpus.line_of t.Session.ns (src ^ "/" ^ file) needle in
  let addr t file needle = file ^ ":" ^ string_of_int (line t file needle) in
  let w = Session.win in
  let stack = ref None and uses = ref None in
  let get r = Option.get !r in
  [
    ("F5 headers", fun t -> Session.exec_word t (w t "/help/mail/stf") "headers");
    ("F6 point", fun t -> Session.point_at t (w t Corpus.mbox_path) "2 sean");
    ("F6 messages", fun t -> Session.exec_word t (w t "/help/mail/stf") "messages");
    ("F7 point", fun t -> Session.point_at t (w t "From") "176153" ~off:2);
    ("F7 stack", fun t ->
        Session.exec_word t (w t "/help/db/stf") "stack";
        stack := Some (Session.last_window t));
    ("F7 drag", fun t -> Session.drag_window t (get stack) ~col:0 ~y:1);
    ("F8 point", fun t ->
        Session.point_at t (get stack) (addr t "text.c" "strlen((char*)s)"));
    ("F8 Open", fun t -> Session.exec_word t (w t "/help/edit/stf") "Open");
    ("F8 Close!", fun t -> Session.exec_tag_word t (w t (src ^ "/text.c")) "Close!");
    ("F9 point", fun t ->
        Session.point_at t (get stack) (addr t "exec.c" "errs((uchar*)n)"));
    ("F9 Open", fun t -> Session.exec_word t (w t "/help/edit/stf") "Open");
    ("F10 point", fun t -> Session.point_at t (w t (src ^ "/exec.c")) "(uchar*)n)" ~off:8);
    ("F10 uses", fun t ->
        Session.exec_sweep t (w t "/help/cbr/stf") "uses *.c";
        uses := Some (Session.last_window t));
    ("F11 point", fun t ->
        Session.point_at t (get uses) (addr t "help.c" "n = \"a test string\""));
    ("F11 Open", fun t -> Session.exec_word t (w t "/help/edit/stf") "Open");
    ("F11 point", fun t -> Session.point_at t (get uses) (addr t "exec.c" "n = 0;"));
    ("F11 Open", fun t -> Session.exec_word t (w t "/help/edit/stf") "Open");
    ("F12 cut", fun t ->
        Session.sweep_and_chord_cut t (w t (src ^ "/exec.c")) Demo.offending_line);
    ("F12 Put!", fun t -> Session.exec_tag_word t (w t (src ^ "/exec.c")) "Put!");
    ("F12 mk", fun t -> Session.exec_word t (w t "/help/cbr/stf") "mk");
  ]

let outcome t = (Session.dump t, Vfs.read_file t.Session.ns (src ^ "/exec.c"))

let boot = Prof.region "session.boot"
let gesture = Prof.region "help.gesture"
let repaint = Prof.region "draw.repaint"
let rc_run = Prof.region "rc.run"
let rpc = Prof.region "nine.rpc"

(* Traced runs re-mount /mnt/help through a bench-built pool whose
   transport and served filesystem are timed, and route external
   commands through a timed executor that runs them as help does. *)
let instrument t =
  let pool = Nine.Pool.create (Workload.timed_fs (Help_srv.filesystem t.Session.help)) in
  let conn = Nine.Pool.attach ~uname:"help" pool in
  let transport pkt = Prof.time rpc (fun () -> Nine.Pool.transport conn pkt) in
  let client = Nine.Client.connect ~uname:"help" transport in
  Vfs.mount t.Session.ns "/mnt/help" (Nine.Client.filesystem client);
  Help.set_executor t.Session.help (fun ~cwd ~helpsel:_ cmd ->
      Prof.time rc_run (fun () -> Rc.run t.Session.sh ~cwd cmd))

(* Set-up boots the first session; each iteration replays on the
   current session and then boots the next. *)
let setup ~seed:_ =
  let reference =
    let d = Demo.run ~h:height ~keep_screens:false () in
    outcome d.Demo.session
  in
  let digest = Digest.to_hex (Digest.string (String.concat "\n" (List.map fst (script ())))) in
  fun () ->
    let next = ref (Session.boot ~h:height ()) in
    let iterate ~traced (r : Workload.run) =
      let t = !next in
      if traced then Prof.pause (fun () -> instrument t);
      let ok = ref true in
      let replay () =
        List.iter
          (fun (_, g) ->
            r.attempted <- r.attempted + 1;
            match
              Workload.timed r.detail (fun () ->
                  Prof.time gesture (fun () -> g t);
                  ignore (Prof.time repaint (fun () -> Session.screen t)))
            with
            | () -> ()
            | exception e ->
                ok := false;
                r.failed <- r.failed + 1;
                prerr_endline ("bugfix: gesture raised " ^ Printexc.to_string e))
          (script ())
      in
      Workload.timed r.op (fun () -> Prof.Counters.around replay);
      if !ok then
        Prof.pause (fun () ->
            if outcome t <> reference then begin
              r.failed <- r.failed + 1;
              prerr_endline "bugfix: final screen or exec.c differs from Demo.run"
            end);
      next :=
        Workload.timed r.aux (fun () -> Prof.time boot (fun () -> Session.boot ~h:height ()))
    in
    { Workload.digest; iterate }

let workload =
  {
    Workload.name = "bugfix";
    op_name = "replay of the 20 gestures, each from events through repaint";
    aux_name = "Session.boot";
    named =
      [
        ("replay_ms_p50", `Op, 50., 1., "ms");
        ("gesture_ms_p50", `Detail, 50., 1., "ms");
        ("gesture_ms_p99", `Detail, 99., 1., "ms");
        ("boot_ms_p50", `Aux, 50., 1., "ms");
      ];
    setup;
  }
