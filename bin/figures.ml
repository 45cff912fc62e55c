(* figures: emit the reproductions of the paper's figures 4-12 as ASCII
   screendumps, with the per-step interaction ledger.

   dune exec bin/figures.exe [-- --attrs] *)

(* Figure 1 is from a different session than the demo: a small help
   screen with /usr/rob/src/help Opened and, from there, errs.c and
   file.c. *)
let figure1 () =
  let t = Session.boot ~h:40 () in
  let src = Corpus.src_dir in
  let win name = Hwin.id (Session.win t name) in
  (* open the directory, then point at the sources inside it and Open
     them — the left column fills as in the figure *)
  List.iter
    (fun line -> Session.apply t (Wal.op_of_string ~win line))
    [ "open " ^ src; "drag " ^ src ^ " 0 1"; "point " ^ src ^ " errs.c";
      "exec /help/edit/stf Open"; "point " ^ src ^ " file.c";
      "exec /help/edit/stf Open" ];
  Printf.printf "%s\nF1  a small help screen: the directory and two sources\n%s\n"
    (String.make 100 '=') (String.make 100 '=');
  print_string (Session.dump t);
  print_newline ()

let () =
  figure1 ();
  let o = Demo.run () in
  List.iter
    (fun (s : Demo.step) ->
      Printf.printf "%s\n%s\n%s\n" (String.make 100 '=') s.s_label
        (String.make 100 '=');
      print_string s.s_dump;
      Printf.printf
        "[this step: %d clicks, %d keys, %d commands; %d actionable tokens visible]\n\n"
        s.s_counts.Metrics.clicks s.s_counts.Metrics.keys s.s_counts.Metrics.execs
        s.s_connectivity)
    o.Demo.steps;
  (* the final screen's attribute overlay, once: R reverse, o outline,
     t tag, # tab, | border *)
  print_endline "--- final screen attributes ---";
  print_string (Screen.dump_attrs (Session.screen o.Demo.session))
