type counts = { clicks : int; keys : int; travel : int }

type win = {
  id : int;
  mutable cwd : string;
  ts : Buffer.t;  (* the typescript *)
}

type t = {
  ns : Vfs.t;
  sh : Rc.t;
  mutable wins : win list;
  mutable focus : win option;
  mutable next_id : int;
  mutable c : counts;
}

(* Gesture prices, shared with the analytic model in Baseline: pointing
   at something on screen costs 8 cells of travel; reaching a menu item
   costs 3 more. *)
let point_travel = 8
let menu_travel = 3

let create ns sh =
  { ns; sh; wins = []; focus = None; next_id = 1;
    c = { clicks = 0; keys = 0; travel = 0 } }

let counts t = t.c

let charge t ~clicks ~keys ~travel =
  t.c <-
    { clicks = t.c.clicks + clicks;
      keys = t.c.keys + keys;
      travel = t.c.travel + travel }

let menu_new_window t ~cwd =
  (* right-press, travel into the menu, release on "New", then sweep
     the window rectangle: press, drag, release *)
  charge t ~clicks:2 ~keys:0 ~travel:(menu_travel + point_travel);
  let w = { id = t.next_id; cwd; ts = Buffer.create 256 } in
  t.next_id <- t.next_id + 1;
  t.wins <- t.wins @ [ w ];
  (* a fresh window grabs focus in 8½ *)
  t.focus <- Some w;
  w

let menu_delete t w =
  charge t ~clicks:1 ~keys:0 ~travel:(menu_travel + point_travel);
  t.wins <- List.filter (fun x -> x != w) t.wins;
  match t.focus with
  | Some f when f == w -> t.focus <- None
  | _ -> ()

let focus t w =
  (* click-to-type: "that click is wasted" *)
  charge t ~clicks:1 ~keys:0 ~travel:point_travel;
  t.focus <- Some w

let typescript w = Buffer.contents w.ts

let type_command t ?(input = "") cmd =
  match t.focus with
  | None -> invalid_arg "Popup.type_command: no window has focus"
  | Some w ->
      (* the command line, its newline, and any standard input typed
         into the running program *)
      charge t ~clicks:0
        ~keys:(String.length cmd + 1 + String.length input)
        ~travel:0;
      Buffer.add_string w.ts ("% " ^ cmd ^ "\n");
      if input <> "" then Buffer.add_string w.ts input;
      let r = Rc.run t.sh ~cwd:w.cwd ~stdin:input cmd in
      Buffer.add_string w.ts r.Rc.r_out;
      Buffer.add_string w.ts r.Rc.r_err;
      (match w.cwd, cmd with
      | _, _ when String.length cmd > 3 && String.sub cmd 0 3 = "cd " ->
          (* keep the typescript's directory in step *)
          let dir = String.trim (String.sub cmd 3 (String.length cmd - 3)) in
          w.cwd <-
            (if String.length dir > 0 && dir.[0] = '/' then Vfs.normalize dir
             else Vfs.normalize (w.cwd ^ "/" ^ dir))
      | _ -> ());
      r

(* ------------------------------------------------------------------ *)
(* The measured session: the same bug hunt, the conventional way.      *)

let demo () =
  let ns = Vfs.create () in
  Corpus.install ns;
  let sh = Rc.create ns in
  Coreutils.install sh;
  Mk.install sh;
  Cbr.install sh;
  Mail.install sh;
  Ed.install sh;
  let db = Db.create () in
  Db.install sh db;
  (* the same crashed process as help's session *)
  let _ = Rc.run sh ~cwd:Corpus.src_dir "mk" in
  Db.add_process db
    {
      Db.pr_pid = 176153;
      pr_cmd = "help";
      pr_status = "Broken";
      pr_binary = Corpus.src_dir ^ "/8.help";
      pr_note = "TLB miss (load or fetch)";
      pr_insn = "/sys/src/libc/mips/strchr.s:34 strchr+#68? MOVW 0(R3), R5";
      pr_regs = [ ("pc", "0x18df4"); ("sp", "0x3f4e8") ];
      pr_frames =
        [
          { Db.fr_func = "strlen"; fr_args = [ ("s", "#0") ];
            fr_callsite = ("text.c", 32); fr_locals = [] };
          { fr_func = "textinsert";
            fr_args = [ ("sel", "#1"); ("s", "#0") ];
            fr_callsite = ("errs.c", 29); fr_locals = [ ("n", "#3d7cc") ] };
          { fr_func = "errs"; fr_args = [ ("s", "#0") ];
            fr_callsite = ("exec.c", 63); fr_locals = [] };
          { fr_func = "Xdie2"; fr_args = [];
            fr_callsite = ("exec.c", 91); fr_locals = [] };
        ];
    };
  let t = create ns sh in
  let run cmd = ignore (type_command t cmd) in

  (* a shell window for the mail *)
  let mail_win = menu_new_window t ~cwd:"/" in
  ignore mail_win;
  run "mailtool headers";
  run "mailtool print 2";

  (* another window for the debugger — and the pid retyped from the
     message, since pointing at it does nothing here *)
  let dbg = menu_new_window t ~cwd:Corpus.src_dir in
  ignore dbg;
  ignore (type_command t ~input:"$C\n" "adb 176153");

  (* view the sources named by the trace: retype each path *)
  let edit = menu_new_window t ~cwd:Corpus.src_dir in
  ignore edit;
  ignore (type_command t ~input:"32p\nq\n" "ed text.c");
  ignore (type_command t ~input:"/errs/p\nq\n" "ed exec.c");

  (* find the uses of n the conventional way *)
  run "grep -n n *.c";

  (* fix: back into ed, delete the offending line, write *)
  ignore (type_command t ~input:"/n = 0;/d\nw\nq\n" "ed exec.c");

  (* recompile *)
  run "mk";

  let disk = Vfs.read_file ns (Corpus.src_dir ^ "/exec.c") in
  let still_there = Hstr.contains disk ~sub:"\tn = 0;" in
  (t, not still_there)
