(* The twenty gestures of the paper's bug-fix session (Figures 4-12),
   each a function of the session it drives.  The file:line addresses
   are read from a namespace of their own at module initialisation,
   before any test case boots: Corpus.install and Corpus.line_of count
   on the global vfs counters, so building them after a logged boot
   would move that session's vfs.* stats, and no order of test cases
   may do that.  The stack and uses windows are found by tag text, so
   the gestures also drive a recovered session, which has no handle on
   the windows the crashed one made. *)

let gestures =
  let ns = Vfs.create () in
  Corpus.install ns;
  let src = Corpus.src_dir in
  let addr file needle =
    file ^ ":" ^ string_of_int (Corpus.line_of ns (src ^ "/" ^ file) needle)
  in
  let strlen_call = addr "text.c" "strlen((char*)s)"
  and errs_call = addr "exec.c" "errs((uchar*)n)"
  and init_n = addr "help.c" "n = \"a test string\""
  and clear_n = addr "exec.c" "n = 0;" in
  let w = Session.win in
  let tagged sub t =
    List.find
      (fun win -> Hstr.contains (Hwin.tag_text win) ~sub)
      (Help.windows t.Session.help)
  in
  let stack = tagged " stack Close!" and uses = tagged " uses " in
  [
    (fun t -> Session.exec_word t (w t "/help/mail/stf") "headers");
    (fun t -> Session.point_at t (w t Corpus.mbox_path) "2 sean");
    (fun t -> Session.exec_word t (w t "/help/mail/stf") "messages");
    (fun t -> Session.point_at t (w t "From") "176153" ~off:2);
    (fun t -> Session.exec_word t (w t "/help/db/stf") "stack");
    (fun t -> Session.drag_window t (stack t) ~col:0 ~y:1);
    (fun t -> Session.point_at t (stack t) strlen_call);
    (fun t -> Session.exec_word t (w t "/help/edit/stf") "Open");
    (fun t -> Session.exec_tag_word t (w t (src ^ "/text.c")) "Close!");
    (fun t -> Session.point_at t (stack t) errs_call);
    (fun t -> Session.exec_word t (w t "/help/edit/stf") "Open");
    (fun t -> Session.point_at t (w t (src ^ "/exec.c")) "(uchar*)n)" ~off:8);
    (fun t -> Session.exec_sweep t (w t "/help/cbr/stf") "uses *.c");
    (fun t -> Session.point_at t (uses t) init_n);
    (fun t -> Session.exec_word t (w t "/help/edit/stf") "Open");
    (fun t -> Session.point_at t (uses t) clear_n);
    (fun t -> Session.exec_word t (w t "/help/edit/stf") "Open");
    (fun t ->
      Session.sweep_and_chord_cut t (w t (src ^ "/exec.c")) Demo.offending_line);
    (fun t -> Session.exec_tag_word t (w t (src ^ "/exec.c")) "Put!");
    (fun t -> Session.exec_word t (w t "/help/cbr/stf") "mk");
  ]
