(* helpsim: drive a help session from a gesture script and watch the
   screen.  Each line is one op of the session's gesture language, the
   text form of Wal.op that the write-ahead log stores and
   /mnt/help/wal/log serves:

     open PATH              open a file or directory (the Open built-in)
     point WIN NEEDLE       left-click at the first occurrence of NEEDLE
     point WIN "NEEDLE" N   ... N characters past its start
     sweep WIN NEEDLE       left-sweep exactly NEEDLE
     exec WIN WORD          middle-click WORD in WIN's body
     exectag WIN WORD       middle-click WORD in WIN's tag
     execsweep WIN NEEDLE   middle-sweep NEEDLE
     cut WIN NEEDLE         sweep NEEDLE and chord-cut it
     tab WIN                click WIN's tab square
     drag WIN COL Y         right-drag WIN to column COL, row Y
     type TEXT              type at the mouse position
     move X Y, press B, release B, key C, ctl WIN CMD, reveal WIN,
     draw, write "PATH" DATA, append "PATH" DATA, remove PATH,
     mkdir PATH             the other ops (see wal.mli)

   WIN is a window id or name (tag first word).  A text field runs to
   the end of the line, or is an OCaml string literal ("\tn = 0;\n"),
   which a needle needs when it starts with a quote or an offset
   follows it.  helpsim's own verbs:

     sh COMMAND             run a shell command directly (not a gesture)
     dump                   print the screen
     windows                list windows
     ledger                 print the interaction counts so far

   Lines starting with # are comments.  A line that fails to parse or
   apply stops the script with "helpsim: line N: REASON" and exit 1.

   dune exec bin/helpsim.exe -- --script demo.hs
   echo 'dump' | dune exec bin/helpsim.exe *)

open Cmdliner

let window t name =
  match Help.window_by_name t.Session.help name with
  | Some w -> Hwin.id w
  | None -> failwith ("no window named " ^ name)

let run t line =
  match String.trim line with
  | "" -> ()
  | l when l.[0] = '#' -> ()
  | "dump" -> print_string (Session.dump t)
  | "windows" ->
      List.iter
        (fun w -> Printf.printf "%d\t%s\n" (Hwin.id w) (Hwin.tag_text w))
        (Help.windows t.Session.help)
  | "ledger" ->
      let c = Metrics.total t.Session.metrics in
      Printf.printf "clicks %d  keys %d  travel %d  commands %d\n"
        c.Metrics.clicks c.Metrics.keys c.Metrics.travel c.Metrics.execs
  | l when l = "sh" || String.starts_with ~prefix:"sh " l ->
      let r = Rc.run t.Session.sh (String.sub l 2 (String.length l - 2)) in
      print_string r.Rc.r_out;
      prerr_string r.Rc.r_err
  | l -> Session.apply t (Wal.op_of_string ~win:(window t) l)

let main width height script final_dump =
  let t = Session.boot ~w:width ~h:height () in
  let text =
    match script with
    | Some path -> In_channel.with_open_bin path In_channel.input_all
    | None -> In_channel.input_all stdin
  in
  List.iteri
    (fun i line ->
      try run t line
      with e ->
        let reason =
          match e with Failure m | Invalid_argument m -> m | e -> Printexc.to_string e
        in
        Printf.eprintf "helpsim: line %d: %s\n" (i + 1) reason;
        exit 1)
    (String.split_on_char '\n' text);
  if final_dump then print_string (Session.dump t);
  if not (Help.running t.Session.help) then print_endline "(session exited)"

let width_arg =
  Arg.(value & opt int 100 & info [ "w"; "width" ] ~doc:"Screen width in cells.")

let height_arg =
  Arg.(value & opt int 48 & info [ "h"; "height" ] ~doc:"Screen height in cells.")

let script_arg =
  Arg.(value & opt (some file) None & info [ "script" ] ~doc:"Gesture script file (default: stdin).")

let dump_arg =
  Arg.(value & flag & info [ "dump" ] ~doc:"Print the final screen.")

let cmd =
  Cmd.v
    (Cmd.info "helpsim" ~doc:"Drive a help session from a gesture script")
    Term.(const main $ width_arg $ height_arg $ script_arg $ dump_arg)

let () = exit (Cmd.eval cmd)
