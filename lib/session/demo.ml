type step = {
  s_label : string;
  s_dump : string;
  s_counts : Metrics.counts;
  s_connectivity : int;
}

type outcome = { session : Session.t; steps : step list }

let offending_line = "\tn = 0;\n"

let run ?w ?(h = 48) ?(keep_screens = true) ?remote ?fault () =
  let t = Session.boot ?w ~h ?remote ?fault () in
  let ns = t.Session.ns in
  let src = Corpus.src_dir in
  let steps = ref [] in
  let snap label =
    let counts = Metrics.mark t.Session.metrics label in
    let dump = if keep_screens then Session.dump t else "" in
    steps :=
      {
        s_label = label;
        s_dump = dump;
        s_counts = counts;
        s_connectivity = Metrics.connectivity t.Session.help;
      }
      :: !steps
  in
  let line file needle = Corpus.line_of ns (src ^ "/" ^ file) needle in
  let addr file needle = file ^ ":" ^ string_of_int (line file needle) in

  (* Figure 4: the screen after booting. *)
  snap "F4 boot";

  (* Figure 5: "To read my mail, I first execute headers in the mail
     tool". *)
  let mail_stf = Session.win t "/help/mail/stf" in
  Session.exec_word t mail_stf "headers";
  snap "F5 headers";

  (* Figure 6: point anywhere in Sean's header line and click
     messages. *)
  let headers_win = Session.win t Corpus.mbox_path in
  Session.point_at t headers_win "2 sean";
  let db_is_mail = Session.win t "/help/mail/stf" in
  Session.exec_word t db_is_mail "messages";
  snap "F6 message";

  (* Figure 7: point at the process number, execute stack in the
     debugger tool. *)
  let message_win = Session.win t "From" in
  Session.point_at t message_win "176153" ~off:2;
  let db_stf = Session.win t "/help/db/stf" in
  Session.exec_word t db_stf "stack";

  (* As in the paper's figures, the trace and the sources live on the
     left: drag the stack window there by its tag (right button). *)
  let stack_win = Session.last_window t in
  Session.drag_window t stack_win ~col:0 ~y:1;
  snap "F7 stack";

  (* Figure 8: the deepest help routine is textinsert, which calls
     strlen on line 32 of text.c; point at the identifying text and
     Open the source. *)
  let edit_stf = Session.win t "/help/edit/stf" in
  Session.point_at t stack_win (addr "text.c" "strlen((char*)s)");
  Session.exec_word t edit_stf "Open";
  snap "F8 text.c";

  (* Close text.c: "commands ending in an exclamation mark ... apply to
     the window in which they are executed". *)
  let text_win = Session.win t (src ^ "/text.c") in
  Session.exec_tag_word t text_win "Close!";

  (* Figure 9: Open exec.c at the errs call site. *)
  Session.point_at t stack_win (addr "exec.c" "errs((uchar*)n)");
  Session.exec_word t edit_stf "Open";
  snap "F9 exec.c";

  (* Figure 10: point at the variable n and execute "uses *.c" by
     sweeping both words in the C browser tool. *)
  let exec_win = Session.win t (src ^ "/exec.c") in
  Session.point_at t exec_win "(uchar*)n)" ~off:8;
  let cbr_stf = Session.win t "/help/cbr/stf" in
  Session.exec_sweep t cbr_stf "uses *.c";
  snap "F10 uses";

  (* Figure 11: the initialization looks fine (help.c), so look at the
     write in exec.c. *)
  let uses_win = Session.last_window t in
  Session.point_at t uses_win (addr "help.c" "n = \"a test string\"");
  Session.exec_word t edit_stf "Open";
  let helpc_win = Session.win t (src ^ "/help.c") in
  Session.point_at t uses_win (addr "exec.c" "n = 0;");
  Session.exec_word t edit_stf "Open";
  ignore helpc_win;
  snap "F11 the write of n";

  (* Figure 12: cut the offending line (left sweep + middle chord),
     write the file back out (Put! appears in the tag of a modified
     window), and execute mk to compile: three clicks of the middle
     button in total for fix-write-compile. *)
  Session.sweep_and_chord_cut t exec_win offending_line;
  Session.exec_tag_word t exec_win "Put!";
  Session.exec_word t cbr_stf "mk";
  snap "F12 compiled";

  { session = t; steps = List.rev !steps }
