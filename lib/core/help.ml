type button = Left | Middle | Right

type event =
  | Move of int * int
  | Press of button
  | Release of button
  | Key of char
  | Type of string

type gesture =
  | G_press of button
  | G_release of button
  | G_move of int
  | G_key of int

(* What a screen position points at. *)
type target =
  | T_coltab of Hcol.t
  | T_tab of Hcol.t * int
  | T_tag of Hcol.t * Hcol.geom * int  (* text offset *)
  | T_body of Hcol.t * Hcol.geom * int
  | T_scroll of Hcol.geom * int  (* row within the window body *)
  | T_nothing

type drag =
  | D_select of Hwin.t * Htext.t * int  (* left button: anchor offset *)
  | D_exec of Hwin.t * Htext.t * int  (* middle button sweep *)
  | D_window of Hwin.t  (* right button on a tag *)

type t = {
  namespace : Vfs.t;
  sh : Rc.t;
  w : int;
  h : int;
  mutable cols : Hcol.t list;
  wins : (int, Hwin.t) Hashtbl.t;
  buffers : (string, Buffer0.t) Hashtbl.t;
  mutable next_id : int;
  mutable snarf : string;
  mutable cursel : (Hwin.t * Htext.t) option;
  mutable place : Hplace.strategy;
  mutable gesture_hook : gesture -> unit;
  mutable exec_hook : string -> unit;
  mutable event_hook : event -> unit;
      (* fires before each accepted event is processed — the WAL's tap *)
  mutable mx : int;
  mutable my : int;
  mutable held : button list;
  mutable drag : drag option;
  mutable chord : bool;  (* a chord fired while this middle/right press *)
  mutable alive : bool;
  mutable expanded : Hcol.t option;  (* column widened via its top tab *)
  mutable auto_count : int;
      (* times an automatic expansion stood in for a manual sweep *)
  mutable executor : executor option;
      (* when set, external commands run here instead of the local
         shell — the paper's "invisible call to the CPU server" *)
  mutable render : render option;
      (* persistent screen + damage signatures; None until first draw *)
  stats_base : int * int * int * int * int;
      (* registry values at creation; draw_stats reports deltas *)
}

and executor = cwd:string -> helpsel:string list -> string -> Rc.result

(* Damage tracking.  Rather than a push-based dirty flag wired through
   every mutation site, each draw pulls cheap signatures and compares
   them with the previous frame's: a window whose signature is unchanged
   cannot render differently, so its cells are left alone.

   - [wsig] covers everything a window's rectangle depends on: the tag
     and body view generations (bumped by edits, selection changes and
     origin moves — see {!Htext.view_gen}) and whether either holds the
     current selection.
   - [csig] covers the column chrome: position, width, the tab tower
     (window ids in order) and each visible window's (id, y, height).
     A change repaints the whole column.
   - The hover popup can overflow its column onto a neighbour, where the
     full-draw paint order decides which cells survive; frames where it
     is (or was) visible therefore fall back to a full repaint. *)
and wsig = { s_tag : int; s_body : int; s_cur_tag : bool; s_cur_body : bool }

and csig = {
  s_x : int;
  s_w : int;
  s_tabs : int list;  (* tab tower: window ids *)
  s_geoms : (int * int * int) list;  (* visible windows: (id, y, h) *)
}

and render = {
  r_scr : Screen.t;
  mutable r_cols : (csig * wsig array) array;  (* indexed like t.cols *)
  mutable r_hover : bool;  (* the popup was visible in the last frame *)
}

(* The draw ledger lives in the global observability registry
   (lib/trace) — the single set of cells behind [draw_stats], the
   [help.draw] spans, and /mnt/help/stats.  Each instance snapshots the
   values at creation and reports deltas. *)
let m_draws = Trace.counter "help.draw.draws"
let m_full = Trace.counter "help.draw.full"
let m_cols = Trace.counter "help.draw.cols"
let m_wins = Trace.counter "help.draw.wins"
let m_clean = Trace.counter "help.draw.clean"

let draw_ledger () =
  (Trace.value m_draws, Trace.value m_full, Trace.value m_cols,
   Trace.value m_wins, Trace.value m_clean)

let default_w = 100
let default_h = 36

let create ?(w = default_w) ?(h = default_h) ?(place = Hplace.Refined) ns sh =
  let half = w / 2 in
  {
    namespace = ns;
    sh;
    w;
    h;
    cols = [ Hcol.create ~x:0 ~w:half; Hcol.create ~x:half ~w:(w - half) ];
    wins = Hashtbl.create 32;
    buffers = Hashtbl.create 32;
    next_id = 1;
    snarf = "";
    cursel = None;
    place;
    gesture_hook = ignore;
    exec_hook = ignore;
    event_hook = ignore;
    mx = 0;
    my = 0;
    held = [];
    drag = None;
    chord = false;
    alive = true;
    expanded = None;
    auto_count = 0;
    executor = None;
    render = None;
    stats_base = draw_ledger ();
  }

let ns t = t.namespace
let shell t = t.sh
let auto_expansions t = t.auto_count
let height t = t.h
let on_gesture t f = t.gesture_hook <- f
let on_event t f = t.event_hook <- f
let on_exec t f = t.exec_hook <- f
let running t = t.alive
let columns t = t.cols
let snarf_buffer t = t.snarf
let current_selection t = t.cursel

let windows t =
  Hashtbl.fold (fun _ w acc -> w :: acc) t.wins []
  |> List.sort (fun a b -> compare (Hwin.id a) (Hwin.id b))

let window_by_id t id = Hashtbl.find_opt t.wins id

let window_by_name t name =
  let matches w =
    let n = Hwin.name w in
    n = name || n = name ^ "/"
  in
  List.find_opt matches (windows t)

let column_of t win = List.find_opt (fun c -> Hcol.mem c win) t.cols

(* ------------------------------------------------------------------ *)
(* Geometry                                                            *)

let col_at t x = List.find_opt (fun c -> x >= Hcol.x c && x < Hcol.x c + Hcol.w c) t.cols

let target_at t x y =
  if y = 0 then match col_at t x with Some c -> T_coltab c | None -> T_nothing
  else
    match col_at t x with
    | None -> T_nothing
    | Some col ->
        if x = Hcol.x col then begin
          let idx = y - 1 in
          if idx >= 0 && idx < List.length (Hcol.windows col) then T_tab (col, idx)
          else T_nothing
        end
        else begin
          match Hcol.at_row col ~h:t.h y with
          | None -> T_nothing
          | Some g ->
              if x = Hcol.x col + 1 then begin
                (* the scroll bar runs beside the body *)
                if y > g.Hcol.g_y then T_scroll (g, y - g.Hcol.g_y - 1)
                else T_nothing
              end
              else begin
                let inner_x = x - (Hcol.x col + 2) in
                let tw = Hcol.text_w col in
                if y = g.Hcol.g_y then begin
                  let f = Htext.layout (Hwin.tag g.Hcol.g_win) ~w:tw ~h:1 in
                  T_tag (col, g, Frame.offset_of_cell f ~x:inner_x ~y:0)
                end
                else begin
                  let body_h = max 1 (g.Hcol.g_h - 1) in
                  let f = Htext.layout (Hwin.body g.Hcol.g_win) ~w:tw ~h:body_h in
                  T_body
                    (col, g,
                     Frame.offset_of_cell f ~x:inner_x ~y:(y - g.Hcol.g_y - 1))
                end
              end
        end

let geom_of t win =
  match column_of t win with
  | None -> None
  | Some col ->
      List.find_opt
        (fun g -> g.Hcol.g_win == win)
        (Hcol.geoms col ~h:t.h)
      |> Option.map (fun g -> (col, g))

let cell_of t win part q =
  match geom_of t win with
  | None -> None
  | Some (col, g) -> (
      let tw = Hcol.text_w col in
      match part with
      | `Tag ->
          let f = Htext.layout (Hwin.tag win) ~w:tw ~h:1 in
          Frame.cell_of_offset f q
          |> Option.map (fun (cx, cy) -> (Hcol.x col + 2 + cx, g.Hcol.g_y + cy))
      | `Body ->
          if g.Hcol.g_h <= 1 then None
          else
            let f = Htext.layout (Hwin.body win) ~w:tw ~h:(g.Hcol.g_h - 1) in
            Frame.cell_of_offset f q
            |> Option.map (fun (cx, cy) ->
                   (Hcol.x col + 2 + cx, g.Hcol.g_y + 1 + cy)))

let find_in_body _t win needle =
  if needle = "" then None
  else Hstr.find (Htext.string (Hwin.body win)) ~sub:needle

let show_offset t win q =
  match geom_of t win with
  | None -> ()
  | Some (col, g) ->
      if g.Hcol.g_h > 1 then
        Htext.show (Hwin.body win) ~w:(Hcol.text_w col) ~h:(g.Hcol.g_h - 1) q

(* ------------------------------------------------------------------ *)
(* Window management                                                   *)

let sync_tags t =
  Hashtbl.iter (fun _ w -> Hwin.sync_put_token w) t.wins

let placement_column t =
  (* "the column containing the selection" *)
  match t.cursel with
  | Some (win, _) -> (
      match column_of t win with
      | Some c -> c
      | None -> (
          match t.cols with c :: _ -> c | [] -> invalid_arg "no columns"))
  | None -> (
      (* boot: tools load into the right-hand column *)
      match List.rev t.cols with c :: _ -> c | [] -> invalid_arg "no columns")

let alloc_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let attach t ?(col : Hcol.t option) win =
  let col = match col with Some c -> c | None -> placement_column t in
  let y = Hplace.choose t.place col ~h:t.h in
  Hcol.add col ~h:t.h win ~y

let nth_column t i = List.nth_opt t.cols i

let new_window t ?(name = "") ?(body = "") () =
  let id = alloc_id t in
  let tag_text = if name = "" then "" else name ^ " Close! Get!" in
  let win = Hwin.create ~id ~tag_text (Buffer0.create ~name body) in
  Buffer0.clean (Htext.buffer (Hwin.body win));
  Hashtbl.replace t.wins id win;
  attach t win;
  win

let close_window t win =
  Hashtbl.remove t.wins (Hwin.id win);
  (match column_of t win with Some c -> Hcol.remove c win | None -> ());
  (match t.cursel with
  | Some (w, _) when w == win -> t.cursel <- None
  | _ -> ())

(* The Errors window: "a special window, called Errors, that will be
   created automatically if needed". *)
let errors_window t =
  match window_by_name t "Errors" with
  | Some w -> w
  | None ->
      let id = alloc_id t in
      let win = Hwin.create ~id ~tag_text:"Errors Close!" (Buffer0.create "") in
      Hashtbl.replace t.wins id win;
      attach t win;
      win

(* Program-written content is not an unsaved user edit: windows filled
   through bodyapp/body stay clean (no spurious Put! in the tag). *)
let append_body t win text =
  if text <> "" then begin
    let body = Hwin.body win in
    let buf = Htext.buffer body in
    let was_dirty = Buffer0.dirty buf in
    let was_empty = Buffer0.length buf = 0 in
    Buffer0.insert buf (Buffer0.length buf) text;
    Buffer0.commit buf;
    if not was_dirty then Buffer0.clean buf;
    (* first output into a fresh window reads from the top; further
       appends (the Errors log) keep the tail in view *)
    show_offset t win (if was_empty then 0 else Buffer0.length buf)
  end

let set_body _t win text =
  let buf = Htext.buffer (Hwin.body win) in
  let was_dirty = Buffer0.dirty buf in
  Buffer0.replace buf 0 (Buffer0.length buf) text;
  Buffer0.commit buf;
  if not was_dirty then Buffer0.clean buf

let report t msg =
  let w = errors_window t in
  append_body t w (if msg = "" || msg.[String.length msg - 1] = '\n' then msg else msg ^ "\n")

(* Reveal a window (make at least its tag visible). *)
let reveal t win =
  match column_of t win with
  | Some col -> if not (Hcol.visible col ~h:t.h win) then Hcol.reveal col ~h:t.h win
  | None -> ()

let shared_buffer t path content =
  match Hashtbl.find_opt t.buffers path with
  | Some b -> b
  | None ->
      let b = Buffer0.create ~name:path content in
      Hashtbl.replace t.buffers path b;
      b

(* Directory bodies are packed into columns, as in the paper's figure 1
   (subdirectories get a trailing slash so Open's context rule chains). *)
let list_directory ?(width = 48) t path =
  let names =
    List.map
      (fun (e : Vfs.stat) -> e.st_name ^ if e.st_dir then "/" else "")
      (Vfs.readdir t.namespace path)
  in
  match names with
  | [] -> ""
  | names ->
      let widest = List.fold_left (fun m n -> max m (String.length n)) 0 names in
      let colw = widest + 2 in
      let ncols = max 1 (width / colw) in
      let n = List.length names in
      let nrows = (n + ncols - 1) / ncols in
      let arr = Array.of_list names in
      let b = Buffer.create 256 in
      for r = 0 to nrows - 1 do
        for c = 0 to ncols - 1 do
          let i = (c * nrows) + r in
          if i < n then begin
            let name = arr.(i) in
            Buffer.add_string b name;
            (* pad unless this is the row's last entry *)
            if i + nrows < n then
              Buffer.add_string b (String.make (colw - String.length name) ' ')
          end
        done;
        Buffer.add_char b '\n'
      done;
      Buffer.contents b

let open_file t ~dir name =
  let name, line = Hselect.parse_address (String.trim name) in
  if name = "" then None
  else begin
    let path =
      if name.[0] = '/' then Vfs.normalize name
      else Vfs.normalize (dir ^ "/" ^ name)
    in
    let win =
      match window_by_name t path with
      | Some w ->
          (* "If the file is already open, the command just guarantees
             that its window is visible." *)
          reveal t w;
          Some w
      | None -> (
          match Vfs.stat t.namespace path with
          | exception Vfs.Error e ->
              report t (Printf.sprintf "%s: %s" path (Vfs.error_message e));
              None
          | st ->
              let id = alloc_id t in
              let win =
                if st.Vfs.st_dir then begin
                  (* "When a directory is Opened, help puts its name,
                     including a final slash, in the tag and just lists
                     the contents in the body." *)
                  let width = Hcol.text_w (placement_column t) in
                  let listing = list_directory ~width t path in
                  Hwin.create ~id
                    ~tag_text:(path ^ "/ Close! Get!")
                    (Buffer0.create ~name:path listing)
                end
                else begin
                  let content = Vfs.read_file t.namespace path in
                  Hwin.create ~id ~tag_text:(path ^ " Close! Get!")
                    (shared_buffer t path content)
                end
              in
              Buffer0.clean (Htext.buffer (Hwin.body win));
              Hashtbl.replace t.wins id win;
              attach t win;
              Some win)
    in
    (match (win, line) with
    | Some w, Some addr -> (
        let body = Hwin.body w in
        let select q0 q1 =
          Htext.set_sel body q0 q1;
          t.cursel <- Some (w, body);
          show_offset t w q0
        in
        match addr with
        | Hselect.A_line n -> (
            match Htext.select_line body n with
            | Some start ->
                t.cursel <- Some (w, body);
                show_offset t w start
            | None -> ())
        | Hselect.A_end ->
            let stop = Htext.length body in
            select stop stop
        | Hselect.A_pattern pat -> (
            match Regexp.compile pat with
            | exception Regexp.Parse_error msg -> report t ("Open: " ^ msg)
            | re -> (
                match Hsearch.search_rope re (Htext.rope body) 0 with
                | Some (a, b) -> select a b
                | None ->
                    report t (Printf.sprintf "Open: %s: pattern not found" pat))))
    | _ -> ());
    win
  end

(* ------------------------------------------------------------------ *)
(* Built-ins                                                           *)

let cursel_or t win =
  match t.cursel with Some (w, ht) -> (w, ht) | None -> (win, Hwin.body win)

(* Default file name: expand around the current selection ("if Open is
   executed without an argument, it uses the file name containing the
   most recent selection"). *)
let default_filename t win =
  let selw, ht = cursel_or t win in
  let text = Htext.string ht in
  let q0, q1 = Htext.sel ht in
  let name =
    if q1 > q0 then String.sub text q0 (q1 - q0)
    else begin
      let a, b = Hselect.filename_at text q0 in
      if b > a then t.auto_count <- t.auto_count + 1;
      String.sub text a (b - a)
    end
  in
  (Hwin.dir selw, name)

let do_cut t win =
  let _, ht = cursel_or t win in
  let text = Htext.cut ht in
  if text <> "" then t.snarf <- text;
  Buffer0.commit (Htext.buffer ht)

let do_snarf t win =
  let _, ht = cursel_or t win in
  let text = Htext.selected ht in
  if text <> "" then t.snarf <- text

let do_paste t win =
  let _, ht = cursel_or t win in
  Htext.paste ht t.snarf;
  Buffer0.commit (Htext.buffer ht)

let do_put t win =
  let name = Hwin.name win in
  let name =
    if name <> "" && name.[String.length name - 1] = '/' then
      String.sub name 0 (String.length name - 1)
    else name
  in
  if name = "" then report t "Put!: window has no name"
  else begin
    match Vfs.write_file t.namespace name (Htext.string (Hwin.body win)) with
    | () -> Buffer0.clean (Htext.buffer (Hwin.body win))
    | exception Vfs.Error e ->
        report t (Printf.sprintf "Put! %s: %s" name (Vfs.error_message e))
  end

let do_get t win =
  let name = Hwin.name win in
  if name = "" then report t "Get!: window has no name"
  else begin
    let path =
      if name.[String.length name - 1] = '/' then
        String.sub name 0 (String.length name - 1)
      else name
    in
    match Vfs.stat t.namespace path with
    | exception Vfs.Error e ->
        report t (Printf.sprintf "Get! %s: %s" name (Vfs.error_message e))
    | st ->
        let content =
          if st.Vfs.st_dir then list_directory t path
          else Vfs.read_file t.namespace path
        in
        set_body t win content;
        Buffer0.clean (Htext.buffer (Hwin.body win))
  end

let do_undo t win =
  let _, ht = cursel_or t win in
  ignore (Buffer0.undo (Htext.buffer ht))

let do_redo t win =
  let _, ht = cursel_or t win in
  ignore (Buffer0.redo (Htext.buffer ht))

let strip_quotes s =
  let n = String.length s in
  if n >= 2 && ((s.[0] = '\'' && s.[n - 1] = '\'') || (s.[0] = '"' && s.[n - 1] = '"'))
  then String.sub s 1 (n - 2)
  else s

let do_search t win ~pattern ~literal =
  let selw, ht = cursel_or t win in
  let rope = Htext.rope ht in
  let _, q1 = Htext.sel ht in
  let needle =
    if literal then
      if pattern = "" then None else Some (Hsearch.Literal pattern)
    else
      match Regexp.compile pattern with
      | exception Regexp.Parse_error msg ->
          report t ("Pattern: " ^ msg);
          None
      | re -> Some (Hsearch.Pattern re)
  in
  let find nd pos =
    (* zero-width pattern matches never select anything *)
    match Hsearch.find_rope nd ~start:pos rope with
    | Some (a, b) when b > a -> Some (a, b)
    | _ -> None
  in
  match
    match needle with
    | None -> None
    | Some nd -> Hsearch.wrapped_find (find nd) q1
  with
  | Some (a, b) ->
      Htext.set_sel ht a b;
      t.cursel <- Some (selw, ht);
      show_offset t selw a
  | None -> report t (Printf.sprintf "search: %s: not found" pattern)

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\n')
  |> List.filter (fun x -> x <> "")

let set_executor t f = t.executor <- Some f

let run_external t win cmd =
  let dir = Hwin.dir win in
  let selid, (q0, q1) =
    match t.cursel with
    | Some (w, ht) -> (Hwin.id w, Htext.sel ht)
    | None -> (Hwin.id win, (0, 0))
  in
  let helpsel = [ string_of_int selid; string_of_int q0; string_of_int q1 ] in
  Rc.set_global t.sh "helpsel" helpsel;
  let res =
    match t.executor with
    | Some exec -> exec ~cwd:dir ~helpsel cmd
    | None -> Rc.run t.sh ~cwd:dir cmd
  in
  (* "the standard and error outputs are directed to a special window,
     called Errors" *)
  if res.Rc.r_out <> "" then report t res.Rc.r_out;
  if res.Rc.r_err <> "" then report t res.Rc.r_err

(* The capitalized command words [execute] handles itself rather than
   handing to the shell — the dispatch below must cover exactly this
   list (test_guide holds doc/help.1.md to it too). *)
let builtins =
  [
    "Open"; "Cut"; "Paste"; "Snarf"; "New"; "Exit"; "Undo"; "Redo"; "Write";
    "Pattern"; "Text"; "Close!"; "Get!"; "Put!"; "Split!";
  ]

let builtin w = List.mem w builtins

let execute_inner t win cmdtext =
  let cmd = String.trim cmdtext in
  if cmd <> "" && t.alive then begin
    t.exec_hook cmd;
    let words = split_ws cmd in
    match words with
    | [] -> ()
    | first :: args -> (
        let arg () = String.concat " " args in
        let bang = String.length first > 1 && first.[String.length first - 1] = '!' in
        if bang then begin
          match first with
          | "Close!" -> close_window t win
          | "Get!" -> do_get t win
          | "Put!" -> do_put t win
          | "Split!" ->
              (* extension: a second window on the same buffer — the
                 "multiple windows per file" of the paper's overdue
                 list.  Both views share the text; selections are
                 per-view. *)
              let id = alloc_id t in
              let clone =
                Hwin.create ~id ~tag_text:(Hwin.tag_text win)
                  (Htext.buffer (Hwin.body win))
              in
              Hashtbl.replace t.wins id clone;
              attach t clone
          | _ -> run_external t win cmd
        end
        else
          match first with
          | "Open" ->
              let dir, name =
                if args = [] then default_filename t win
                else (Hwin.dir win, arg ())
              in
              ignore (open_file t ~dir name)
          | "Cut" -> do_cut t win
          | "Paste" -> do_paste t win
          | "Snarf" -> do_snarf t win
          | "New" -> ignore (new_window t ())
          | "Exit" -> t.alive <- false
          | "Undo" -> do_undo t win
          | "Redo" -> do_redo t win
          | "Write" ->
              let selw, _ = cursel_or t win in
              do_put t selw
          | "Pattern" ->
              if args <> [] then
                do_search t win ~pattern:(strip_quotes (arg ())) ~literal:false
          | "Text" ->
              if args <> [] then
                do_search t win ~pattern:(strip_quotes (arg ())) ~literal:true
          | _ -> run_external t win cmd);
    sync_tags t
  end

(* A built-in that dies because a mount's transport gave out (retries
   exhausted under [Nine.Client]) degrades into help's own idiom: an
   error note appended to the acting window's tag line, and a line in
   Errors — never an exception out of the event loop. *)
let execute t win cmdtext =
  try execute_inner t win cmdtext
  with Vfs.Error (Vfs.Eio msg) ->
    let note = " !" ^ msg in
    let tag = Hwin.tag_text win in
    if not (Hstr.contains tag ~sub:note) then Hwin.set_tag win (tag ^ note);
    report t (Printf.sprintf "%s: %s" (String.trim cmdtext) msg)

(* ------------------------------------------------------------------ *)
(* Control language (the ctl file)                                     *)

let ctl_command t win line =
  let line = String.trim line in
  let cmd, rest =
    match String.index_opt line ' ' with
    | Some i ->
        ( String.sub line 0 i,
          String.sub line (i + 1) (String.length line - i - 1) )
    | None -> (line, "")
  in
  let int2 () =
    match split_ws rest with
    | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some a, Some b -> Some (a, b)
        | _ -> None)
    | _ -> None
  in
  match cmd with
  | "" -> Ok ()
  | "tag" ->
      Hwin.set_tag win rest;
      Ok ()
  | "name" ->
      Hwin.set_name win rest;
      Ok ()
  | "clean" ->
      Buffer0.clean (Htext.buffer (Hwin.body win));
      sync_tags t;
      Ok ()
  | "dirty" ->
      Buffer0.taint (Htext.buffer (Hwin.body win));
      sync_tags t;
      Ok ()
  | "select" -> (
      match int2 () with
      | Some (q0, q1) ->
          Htext.set_sel (Hwin.body win) q0 q1;
          t.cursel <- Some (win, Hwin.body win);
          Ok ()
      | None -> Error "usage: select q0 q1")
  | "show" -> (
      match int_of_string_opt (String.trim rest) with
      | Some q ->
          show_offset t win q;
          Ok ()
      | None -> Error "usage: show q")
  | "delete" -> (
      match int2 () with
      | Some (q0, q1) when q1 >= q0 ->
          let buf = Htext.buffer (Hwin.body win) in
          let q1 = min q1 (Buffer0.length buf) in
          let q0 = max 0 q0 in
          Buffer0.delete buf q0 (q1 - q0);
          Buffer0.commit buf;
          Ok ()
      | _ -> Error "usage: delete q0 q1")
  | "insert" -> (
      match String.index_opt rest ' ' with
      | Some i -> (
          match int_of_string_opt (String.sub rest 0 i) with
          | Some q ->
              let raw = String.sub rest (i + 1) (String.length rest - i - 1) in
              let text = try Scanf.unescaped raw with Scanf.Scan_failure _ -> raw in
              let buf = Htext.buffer (Hwin.body win) in
              Buffer0.insert buf (max 0 (min q (Buffer0.length buf))) text;
              Buffer0.commit buf;
              Ok ()
          | None -> Error "usage: insert q text")
      | None -> Error "usage: insert q text")
  | "get" ->
      do_get t win;
      Ok ()
  | "put" ->
      do_put t win;
      Ok ()
  | "close" ->
      close_window t win;
      Ok ()
  | _ -> Error (Printf.sprintf "unknown ctl command: %s" cmd)

(* ------------------------------------------------------------------ *)
(* Event interpretation                                                *)

(* Scroll by whole lines ([delta] > 0 moves forward in the text) or
   jump to a fraction of the text — the scroll-bar gestures. *)
let scroll_lines win delta =
  let body = Hwin.body win in
  let text = Buffer0.text (Htext.buffer body) in
  let cur = Rope.line_of_offset text (Htext.org body) in
  let total = Rope.newlines text + 1 in
  let target = max 1 (min total (cur + delta)) in
  match Rope.line_start text target with
  | org -> Htext.set_org body org
  | exception Not_found -> ()

let scroll_jump win frac =
  let body = Hwin.body win in
  let text = Buffer0.text (Htext.buffer body) in
  let total = Rope.newlines text + 1 in
  let target = max 1 (min total (1 + int_of_float (frac *. float_of_int (total - 1)))) in
  match Rope.line_start text target with
  | org -> Htext.set_org body org
  | exception Not_found -> ()

let subwindow_at t x y =
  match target_at t x y with
  | T_tag (_, g, q) -> Some (g.Hcol.g_win, Hwin.tag g.Hcol.g_win, q)
  | T_body (_, g, q) -> Some (g.Hcol.g_win, Hwin.body g.Hcol.g_win, q)
  | T_coltab _ | T_tab _ | T_scroll _ | T_nothing -> None

let expand_column t col =
  match t.cols with
  | [ a; b ] ->
      let total = t.w in
      let already = match t.expanded with Some c -> c == col | None -> false in
      if already then begin
        (* restore even split *)
        let half = total / 2 in
        Hcol.set_span a ~x:0 ~w:half;
        Hcol.set_span b ~x:half ~w:(total - half);
        t.expanded <- None
      end
      else begin
        let wide = total * 2 / 3 in
        if col == a then begin
          Hcol.set_span a ~x:0 ~w:wide;
          Hcol.set_span b ~x:wide ~w:(total - wide)
        end
        else begin
          Hcol.set_span a ~x:0 ~w:(total - wide);
          Hcol.set_span b ~x:(total - wide) ~w:wide
        end;
        t.expanded <- Some col
      end
  | _ -> ()

let press t b =
  t.gesture_hook (G_press b);
  t.held <- b :: t.held;
  match b with
  | Left -> (
      match target_at t t.mx t.my with
      | T_tab (col, idx) -> (
          match List.nth_opt (Hcol.windows col) idx with
          | Some win ->
              Hcol.reveal col ~h:t.h win;
              t.drag <- None
          | None -> ())
      | T_coltab col ->
          expand_column t col;
          t.drag <- None
      | T_tag (_, g, q) ->
          let ht = Hwin.tag g.Hcol.g_win in
          Htext.set_sel ht q q;
          t.cursel <- Some (g.Hcol.g_win, ht);
          t.drag <- Some (D_select (g.Hcol.g_win, ht, q))
      | T_body (_, g, q) ->
          let ht = Hwin.body g.Hcol.g_win in
          Htext.set_sel ht q q;
          t.cursel <- Some (g.Hcol.g_win, ht);
          t.drag <- Some (D_select (g.Hcol.g_win, ht, q))
      | T_scroll (g, rel) ->
          (* left button in the bar scrolls backwards, more the lower
             the click (as in 8½) *)
          scroll_lines g.Hcol.g_win (-(rel + 1));
          t.drag <- None
      | T_nothing -> t.drag <- None)
  | Middle -> (
      (* chord: left held -> Cut *)
      if List.mem Left t.held then begin
        match t.drag with
        | Some (D_select (win, _, _)) ->
            t.chord <- true;
            do_cut t win;
            sync_tags t
        | _ -> ()
      end
      else
        match target_at t t.mx t.my with
        | T_scroll (g, rel) ->
            (* middle button jumps to the proportional position *)
            let span = max 1 (g.Hcol.g_h - 2) in
            scroll_jump g.Hcol.g_win (float_of_int rel /. float_of_int span)
        | _ -> (
            match subwindow_at t t.mx t.my with
            | Some (win, ht, q) -> t.drag <- Some (D_exec (win, ht, q))
            | None -> ()))
  | Right ->
      if List.mem Left t.held then begin
        match t.drag with
        | Some (D_select (win, _, _)) ->
            t.chord <- true;
            do_paste t win;
            sync_tags t
        | _ -> ()
      end
      else begin
        match target_at t t.mx t.my with
        | T_tag (_, g, _) -> t.drag <- Some (D_window g.Hcol.g_win)
        | T_scroll (g, rel) ->
            (* right button in the bar scrolls forwards *)
            scroll_lines g.Hcol.g_win (rel + 1)
        | T_coltab _ | T_tab _ | T_body _ | T_nothing -> ()
      end

let update_select t =
  match t.drag with
  | Some (D_select (win, ht, anchor)) -> (
      match subwindow_at t t.mx t.my with
      | Some (w, ht', q) when w == win && ht' == ht ->
          Htext.set_sel ht (min anchor q) (max anchor q)
      | _ -> ())
  | _ -> ()

let release t b =
  t.gesture_hook (G_release b);
  t.held <- List.filter (fun x -> x <> b) t.held;
  let was_chord = t.chord in
  (* a chord is over once every button is up *)
  if t.held = [] && t.chord then t.chord <- false;
  match b with
  | Left ->
      if not was_chord then update_select t;
      (match t.drag with Some (D_select _) -> t.drag <- None | _ -> ())
  | Middle -> (
      if was_chord then ()
      else
        match t.drag with
        | Some (D_exec (win, ht, anchor)) ->
            t.drag <- None;
            let q =
              match subwindow_at t t.mx t.my with
              | Some (w, ht', q) when w == win && ht' == ht -> q
              | _ -> anchor
            in
            let text = Htext.string ht in
            let a, b' =
              if q = anchor then begin
                let a, b' = Hselect.word_at text anchor in
                if b' > a then t.auto_count <- t.auto_count + 1;
                (a, b')
              end
              else (min anchor q, max anchor q)
            in
            let cmd = String.sub text a (b' - a) in
            execute t win cmd
        | _ -> ())
  | Right -> (
      if was_chord then ()
      else
        match t.drag with
        | Some (D_window win) -> (
            t.drag <- None;
            match col_at t t.mx with
            | None -> ()
            | Some dest -> (
                match column_of t win with
                | Some src when src == dest ->
                    Hcol.move src ~h:t.h win ~y:t.my
                | Some src ->
                    Hcol.remove src win;
                    Hcol.add dest ~h:t.h win ~y:(max 1 t.my)
                | None -> ()))
        | _ -> ())

let type_char t c =
  match subwindow_at t t.mx t.my with
  | Some (win, ht, _) ->
      Htext.type_text ht (String.make 1 c);
      t.cursel <- Some (win, ht);
      sync_tags t
  | None -> ()

let event t ev =
  if t.alive then begin
    t.event_hook ev;
    match ev with
    | Move (x, y) ->
        let d = abs (x - t.mx) + abs (y - t.my) in
        if d > 0 then t.gesture_hook (G_move d);
        t.mx <- max 0 (min x (t.w - 1));
        t.my <- max 0 (min y (t.h - 1));
        update_select t
    | Press b -> press t b
    | Release b -> release t b
    | Key c ->
        t.gesture_hook (G_key 1);
        type_char t c
    | Type s ->
        t.gesture_hook (G_key (String.length s));
        String.iter (type_char t) s
  end

let events t evs = List.iter (event t) evs

(* ------------------------------------------------------------------ *)
(* Drawing                                                             *)

(* Paint one window (tag row, scroll bar, body) into [scr].  This is
   the only code that puts window cells on the screen: the full redraw
   and the damage-tracked repaint both call it, which is what makes
   them byte-identical by construction. *)
let paint_window t scr ~cx ~tw g =
  let cursel_ht = Option.map snd t.cursel in
  let win = g.Hcol.g_win in
  let gy = g.Hcol.g_y in
  (* tag row (spans the scroll-bar column too) *)
  Screen.fill_rect scr ~x:(cx + 1) ~y:gy ~w:(tw + 1) ~h:1 ' ' Screen.Tag;
  let tag = Hwin.tag win in
  let tagf = Htext.layout tag ~w:tw ~h:1 in
  let sel_attr =
    if cursel_ht == Some (Hwin.tag win) then Screen.Reverse
    else Screen.Outline
  in
  Frame.draw tagf scr ~x:(cx + 2) ~y:gy ~sel:(Htext.sel tag) ~sel_attr;
  (* body *)
  if g.Hcol.g_h > 1 then begin
    let body = Hwin.body win in
    let body_h = g.Hcol.g_h - 1 in
    let bodyf = Htext.layout body ~w:tw ~h:body_h in
    (* scroll bar: track with a thumb covering the visible fraction of
       the text *)
    let len = max 1 (Htext.length body) in
    let frac_top = float_of_int (Frame.org bodyf) /. float_of_int len in
    let frac_bot = float_of_int (Frame.last bodyf) /. float_of_int len in
    let th_top = int_of_float (frac_top *. float_of_int body_h) in
    let th_bot =
      max (th_top + 1) (int_of_float (ceil (frac_bot *. float_of_int body_h)))
    in
    for j = 0 to body_h - 1 do
      let ch = if j >= th_top && j < th_bot then '|' else ' ' in
      Screen.set scr ~x:(cx + 1) ~y:(gy + 1 + j) ch Screen.Border
    done;
    let sel_attr =
      if cursel_ht == Some body then Screen.Reverse else Screen.Outline
    in
    Frame.draw bodyf scr ~x:(cx + 2) ~y:(gy + 1) ~sel:(Htext.sel body) ~sel_attr
  end

(* Paint a column's chrome and windows (no hover popup). *)
let paint_column t scr col geoms =
  let cx = Hcol.x col in
  let tw = Hcol.text_w col in
  (* column tab in the top row *)
  Screen.set scr ~x:cx ~y:0 '#' Screen.Tab;
  (* tab tower: one square per window, visible or not *)
  List.iteri
    (fun i _win -> Screen.set scr ~x:cx ~y:(1 + i) '#' Screen.Tab)
    (Hcol.windows col);
  List.iter (paint_window t scr ~cx ~tw) geoms

(* hovering over a tab square pops the window's name up alongside it —
   the improvement the paper suggests for the tab problem *)
let paint_hover t scr col =
  let cx = Hcol.x col in
  if t.mx = cx && t.my >= 1 then
    List.iteri
      (fun i win ->
        if t.my = 1 + i then
          Screen.draw_string scr ~x:(cx + 2) ~y:(1 + i)
            ("[" ^ Hwin.name win ^ "]")
            Screen.Outline)
      (Hcol.windows col)

(* Is the hover popup visible anywhere?  Its cells can spill into the
   neighbouring column, whose own painting then decides which cells
   survive — entangling two columns' damage.  The popup only exists
   while the pointer sits exactly on a tab square, so such frames (and
   the first frame after) simply repaint everything. *)
let hover_active t =
  t.my >= 1
  && List.exists
       (fun col ->
         t.mx = Hcol.x col && t.my - 1 < List.length (Hcol.windows col))
       t.cols

(* From-scratch render onto a fresh screen: the reference
   implementation the damage-tracked path is tested against. *)
let draw_full t =
  let scr = Screen.create t.w t.h in
  List.iter
    (fun col ->
      paint_column t scr col (Hcol.geoms col ~h:t.h);
      paint_hover t scr col)
    t.cols;
  scr

let col_sig col geoms =
  {
    s_x = Hcol.x col;
    s_w = Hcol.w col;
    s_tabs = List.map Hwin.id (Hcol.windows col);
    s_geoms =
      List.map
        (fun g -> (Hwin.id g.Hcol.g_win, g.Hcol.g_y, g.Hcol.g_h))
        geoms;
  }

let win_sig t g =
  let win = g.Hcol.g_win in
  let tag = Hwin.tag win and body = Hwin.body win in
  let cur ht = match t.cursel with Some (_, h) -> h == ht | None -> false in
  {
    s_tag = Htext.view_gen tag;
    s_body = Htext.view_gen body;
    s_cur_tag = cur tag;
    s_cur_body = cur body;
  }

let repaint_all t r hover =
  Trace.incr m_full;
  Screen.clear r.r_scr;
  List.iter
    (fun col ->
      paint_column t r.r_scr col (Hcol.geoms col ~h:t.h);
      paint_hover t r.r_scr col)
    t.cols;
  r.r_cols <-
    Array.of_list
      (List.map
         (fun col ->
           let geoms = Hcol.geoms col ~h:t.h in
           (col_sig col geoms, Array.of_list (List.map (win_sig t) geoms)))
         t.cols);
  r.r_hover <- hover

(* Bring the persistent screen up to date, repainting only what the
   signatures say changed, and return it (borrowed: valid until the
   next draw). *)
let draw_plain t =
  Trace.incr m_draws;
  let r, fresh =
    match t.render with
    | Some r -> (r, false)
    | None ->
        let r =
          { r_scr = Screen.create t.w t.h; r_cols = [||]; r_hover = false }
        in
        t.render <- Some r;
        repaint_all t r (hover_active t);
        (r, true)
  in
  (if not fresh then
     let hover = hover_active t in
     if hover || r.r_hover || List.length t.cols <> Array.length r.r_cols then
       repaint_all t r hover
     else
       List.iteri
         (fun ci col ->
           let geoms = Hcol.geoms col ~h:t.h in
           let cs = col_sig col geoms in
           let ws = Array.of_list (List.map (win_sig t) geoms) in
           let old_cs, old_ws = r.r_cols.(ci) in
           if cs <> old_cs then begin
             Trace.incr m_cols;
             Screen.fill_rect r.r_scr ~x:cs.s_x ~y:0 ~w:cs.s_w ~h:t.h ' '
               Screen.Plain;
             paint_column t r.r_scr col geoms
           end
           else begin
             let cx = Hcol.x col in
             let tw = Hcol.text_w col in
             List.iteri
               (fun wi g ->
                 if ws.(wi) = old_ws.(wi) then
                   Trace.incr m_clean
                 else begin
                   Trace.incr m_wins;
                   (* the window's rectangle: tag row through body,
                      scroll bar included, tab tower excluded *)
                   Screen.fill_rect r.r_scr ~x:(cx + 1) ~y:g.Hcol.g_y
                     ~w:(cs.s_w - 1) ~h:g.Hcol.g_h ' ' Screen.Plain;
                   paint_window t r.r_scr ~cx ~tw g
                 end)
               geoms
           end;
           r.r_cols.(ci) <- (cs, ws))
         t.cols);
  r.r_scr

(* The damage pipeline under a span: each frame records how many
   windows were repainted vs skipped (the per-frame deltas of the
   ledger cells).  It returns the persistent screen itself, lent until
   the next draw. *)
let draw t =
  let _, f0, c0, w0, k0 = draw_ledger () in
  Trace.with_span_result "help.draw" (fun () ->
      let scr = draw_plain t in
      let _, f1, c1, w1, k1 = draw_ledger () in
      let arg name a b = (name, string_of_int (b - a)) in
      ( scr,
        [ arg "full" f0 f1; arg "cols" c0 c1; arg "wins" w0 w1;
          arg "clean" k0 k1 ] ))

let draw_stats t =
  let bd, bf, bc, bw, bk = t.stats_base in
  let d, f, c, w, k = draw_ledger () in
  (d - bd, f - bf, c - bc, w - bw, k - bk)

(* ------------------------------------------------------------------ *)
(* Snapshot / restore

   The WAL's structural capture: everything a [t] holds but its hooks
   and executor — buffers, windows, columns, the interaction registers
   — serialized with lib/trace's Codec.  Buffer
   text is cut at rope leaves and handed to [put] so unchanged leaves
   are shared across snapshots by content digest.  Undo/redo logs are
   deliberately not captured: a recovered session starts with clean
   history, which the durability harness works around by never crossing
   a snapshot boundary with Undo. *)

let button_code = function Left -> 0 | Middle -> 1 | Right -> 2
let button_of_code = function 0 -> Left | 1 -> Middle | _ -> Right

let place_code = function
  | Hplace.Refined -> 0
  | Hplace.Naive_top -> 1
  | Hplace.Cover_half -> 2
  | Hplace.Bottom_quarter -> 3

let place_of_code = function
  | 0 -> Hplace.Refined
  | 1 -> Hplace.Naive_top
  | 2 -> Hplace.Cover_half
  | _ -> Hplace.Bottom_quarter

let sorted_wins t =
  List.sort
    (fun a b -> compare (Hwin.id a) (Hwin.id b))
    (Hashtbl.fold (fun _ w acc -> w :: acc) t.wins [])

let snapshot t ~put =
  let b = Buffer.create 1024 in
  Codec.w_int b 2 (* snapshot format version *);
  (* Distinct body buffers in a stable order (windows by id, then the
     shared-file table by path); sharing is by physical identity, so a
     file open in two windows restores as one buffer again. *)
  let bufs = ref [] and nbufs = ref 0 in
  let buf_id buf =
    match List.find_opt (fun (b0, _) -> b0 == buf) !bufs with
    | Some (_, i) -> i
    | None ->
        let i = !nbufs in
        incr nbufs;
        bufs := (buf, i) :: !bufs;
        i
  in
  let wins = sorted_wins t in
  List.iter (fun w -> ignore (buf_id (Htext.buffer (Hwin.body w)))) wins;
  let paths =
    List.sort compare (Hashtbl.fold (fun p _ acc -> p :: acc) t.buffers [])
  in
  List.iter (fun p -> ignore (buf_id (Hashtbl.find t.buffers p))) paths;
  let ordered =
    List.map fst (List.sort (fun (_, i) (_, j) -> compare i j) !bufs)
  in
  Codec.w_int b !nbufs;
  List.iter
    (fun buf ->
      Codec.w_str b (Buffer0.name buf);
      Codec.w_bool b (Buffer0.dirty buf);
      Codec.w_int b (Buffer0.length buf);
      let keys =
        List.rev
          (Rope.fold_chunks (Buffer0.text buf) ~init:[] ~f:(fun acc leaf ->
               put leaf :: acc))
      in
      Codec.w_list b Codec.w_str keys)
    ordered;
  Codec.w_int b (List.length paths);
  List.iter
    (fun p ->
      Codec.w_str b p;
      Codec.w_int b (buf_id (Hashtbl.find t.buffers p)))
    paths;
  Codec.w_int b (List.length wins);
  List.iter
    (fun w ->
      Codec.w_int b (Hwin.id w);
      let tag = Hwin.tag w and body = Hwin.body w in
      Codec.w_str b (Htext.string tag);
      Codec.w_int b (Htext.org tag);
      let q0, q1 = Htext.sel tag in
      Codec.w_int b q0;
      Codec.w_int b q1;
      Codec.w_int b (buf_id (Htext.buffer body));
      Codec.w_int b (Htext.org body);
      let p0, p1 = Htext.sel body in
      Codec.w_int b p0;
      Codec.w_int b p1)
    wins;
  Codec.w_int b (List.length t.cols);
  List.iter
    (fun col ->
      Codec.w_int b (Hcol.x col);
      Codec.w_int b (Hcol.w col);
      let es = Hcol.entries_list col in
      Codec.w_int b (List.length es);
      List.iter
        (fun (w, y, shown) ->
          Codec.w_int b (Hwin.id w);
          Codec.w_int b y;
          Codec.w_bool b shown)
        es)
    t.cols;
  let expanded_idx =
    match t.expanded with
    | None -> -1
    | Some c ->
        let rec find i = function
          | [] -> -1
          | c' :: _ when c' == c -> i
          | _ :: rest -> find (i + 1) rest
        in
        find 0 t.cols
  in
  Codec.w_int b expanded_idx;
  Codec.w_int b t.next_id;
  Codec.w_str b t.snarf;
  Codec.w_int b (place_code t.place);
  Codec.w_int b t.mx;
  Codec.w_int b t.my;
  Codec.w_list b (fun b bt -> Codec.w_int b (button_code bt)) t.held;
  Codec.w_bool b t.chord;
  Codec.w_bool b t.alive;
  Codec.w_int b t.auto_count;
  (match t.cursel with
  | None -> Codec.w_int b (-1)
  | Some (w, ht) ->
      Codec.w_int b (Hwin.id w);
      Codec.w_int b (if ht == Hwin.tag w then 0 else 1));
  (match t.drag with
  | None -> Codec.w_int b 0
  | Some (D_select (w, ht, a)) ->
      Codec.w_int b 1;
      Codec.w_int b (Hwin.id w);
      Codec.w_int b (if ht == Hwin.tag w then 0 else 1);
      Codec.w_int b a
  | Some (D_exec (w, ht, a)) ->
      Codec.w_int b 2;
      Codec.w_int b (Hwin.id w);
      Codec.w_int b (if ht == Hwin.tag w then 0 else 1);
      Codec.w_int b a
  | Some (D_window w) ->
      Codec.w_int b 3;
      Codec.w_int b (Hwin.id w));
  Buffer.contents b

let restore t ~get s =
  let d = Codec.reader s in
  if Codec.r_int d <> 2 then
    invalid_arg "Help.restore: unknown snapshot version";
  Hashtbl.reset t.wins;
  Hashtbl.reset t.buffers;
  let nbufs = Codec.r_int d in
  let bufs = Array.make (max nbufs 1) (Buffer0.create "") in
  for i = 0 to nbufs - 1 do
    let name = Codec.r_str d in
    let dirty = Codec.r_bool d in
    let len = Codec.r_int d in
    let keys = Codec.r_list d Codec.r_str in
    let text = String.concat "" (List.map get keys) in
    if String.length text <> len then
      invalid_arg "Help.restore: buffer length mismatch";
    let buf = Buffer0.create ~name text in
    if dirty then Buffer0.taint buf else Buffer0.clean buf;
    bufs.(i) <- buf
  done;
  let npaths = Codec.r_int d in
  for _ = 1 to npaths do
    let p = Codec.r_str d in
    let i = Codec.r_int d in
    Hashtbl.replace t.buffers p bufs.(i)
  done;
  let nwins = Codec.r_int d in
  for _ = 1 to nwins do
    let id = Codec.r_int d in
    let tag_text = Codec.r_str d in
    let torg = Codec.r_int d in
    let tq0 = Codec.r_int d in
    let tq1 = Codec.r_int d in
    let bi = Codec.r_int d in
    let borg = Codec.r_int d in
    let bq0 = Codec.r_int d in
    let bq1 = Codec.r_int d in
    let w = Hwin.create ~id ~tag_text bufs.(bi) in
    Htext.set_org (Hwin.tag w) torg;
    Htext.set_sel (Hwin.tag w) tq0 tq1;
    Htext.set_org (Hwin.body w) borg;
    Htext.set_sel (Hwin.body w) bq0 bq1;
    Hashtbl.replace t.wins id w
  done;
  let win_of id =
    match Hashtbl.find_opt t.wins id with
    | Some w -> w
    | None -> invalid_arg "Help.restore: unknown window id"
  in
  let ht_of w which = if which = 0 then Hwin.tag w else Hwin.body w in
  let ncols = Codec.r_int d in
  let cols = ref [] in
  for _ = 1 to ncols do
    let cx = Codec.r_int d in
    let cw = Codec.r_int d in
    let col = Hcol.create ~x:cx ~w:cw in
    let n = Codec.r_int d in
    let es = ref [] in
    for _ = 1 to n do
      let id = Codec.r_int d in
      let y = Codec.r_int d in
      let shown = Codec.r_bool d in
      es := (win_of id, y, shown) :: !es
    done;
    Hcol.set_entries col (List.rev !es);
    cols := col :: !cols
  done;
  t.cols <- List.rev !cols;
  let expanded_idx = Codec.r_int d in
  t.expanded <-
    (if expanded_idx < 0 then None else List.nth_opt t.cols expanded_idx);
  t.next_id <- Codec.r_int d;
  t.snarf <- Codec.r_str d;
  t.place <- place_of_code (Codec.r_int d);
  t.mx <- Codec.r_int d;
  t.my <- Codec.r_int d;
  t.held <- Codec.r_list d (fun d -> button_of_code (Codec.r_int d));
  t.chord <- Codec.r_bool d;
  t.alive <- Codec.r_bool d;
  t.auto_count <- Codec.r_int d;
  (match Codec.r_int d with
  | -1 -> t.cursel <- None
  | id ->
      let w = win_of id in
      t.cursel <- Some (w, ht_of w (Codec.r_int d)));
  (match Codec.r_int d with
  | 0 -> t.drag <- None
  | 1 ->
      let w = win_of (Codec.r_int d) in
      let ht = ht_of w (Codec.r_int d) in
      t.drag <- Some (D_select (w, ht, Codec.r_int d))
  | 2 ->
      let w = win_of (Codec.r_int d) in
      let ht = ht_of w (Codec.r_int d) in
      t.drag <- Some (D_exec (w, ht, Codec.r_int d))
  | 3 -> t.drag <- Some (D_window (win_of (Codec.r_int d)))
  | _ -> invalid_arg "Help.restore: bad drag tag");
  t.render <- None
