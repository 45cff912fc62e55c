type counts = {
  clicks : int;
  releases : int;
  keys : int;
  travel : int;
  execs : int;
}

let zero = { clicks = 0; releases = 0; keys = 0; travel = 0; execs = 0 }

let add a b =
  {
    clicks = a.clicks + b.clicks;
    releases = a.releases + b.releases;
    keys = a.keys + b.keys;
    travel = a.travel + b.travel;
    execs = a.execs + b.execs;
  }

type t = {
  help : Help.t;
  mutable window : counts;  (* since last mark *)
  mutable totals : counts;
  mutable step_log : (string * counts) list;  (* newest first *)
}

let attach help =
  let t = { help; window = zero; totals = zero; step_log = [] } in
  Help.on_gesture help (fun g ->
      let d =
        match g with
        | Help.G_press _ -> { zero with clicks = 1 }
        | Help.G_release _ -> { zero with releases = 1 }
        | Help.G_move n -> { zero with travel = n }
        | Help.G_key n -> { zero with keys = n }
      in
      t.window <- add t.window d;
      t.totals <- add t.totals d);
  Help.on_exec help (fun _cmd ->
      let d = { zero with execs = 1 } in
      t.window <- add t.window d;
      t.totals <- add t.totals d);
  t

let total t = t.totals

let mark t label =
  let c = t.window in
  t.step_log <- (label, c) :: t.step_log;
  t.window <- zero;
  c

let steps t = List.rev t.step_log

(* ------------------------------------------------------------------ *)
(* Connectivity                                                        *)

let builtins =
  [ "Open"; "Cut"; "Paste"; "Snarf"; "New"; "Exit"; "Undo"; "Redo"; "Write";
    "Pattern"; "Text"; "Close!"; "Get!"; "Put!" ]

let is_white c = c = ' ' || c = '\t' || c = '\n'

let tokens_of s =
  let toks = ref [] in
  let b = Buffer.create 16 in
  let flush () =
    if Buffer.length b > 0 then begin
      toks := Buffer.contents b :: !toks;
      Buffer.clear b
    end
  in
  String.iter (fun c -> if is_white c then flush () else Buffer.add_char b c) s;
  flush ();
  !toks

let is_digit c = c >= '0' && c <= '9'

let looks_like_address tok =
  (* name.c:27 or name.h:136 *)
  match String.rindex_opt tok ':' with
  | Some i when i > 0 && i + 1 < String.length tok ->
      String.for_all is_digit (String.sub tok (i + 1) (String.length tok - i - 1))
  | _ -> false

let looks_like_source tok =
  let n = String.length tok in
  (n > 2 && (String.sub tok (n - 2) 2 = ".c" || String.sub tok (n - 2) 2 = ".h"))
  || (n > 2 && String.sub tok (n - 2) 2 = ".v")
  || (n > 3 && String.sub tok (n - 3) 3 = ".s")

(* The visible text of a window: its tag plus the body rows its frame
   actually shows. *)
let visible_text win =
  let tag = Hwin.tag_text win in
  let body =
    match Htext.last_frame (Hwin.body win) with
    | Some f ->
        let a = Frame.org f and b = Frame.last f in
        Htext.read (Hwin.body win) a b
    | None -> ""
  in
  tag ^ "\n" ^ body

let actionable sh ~dir tok =
  String.contains tok '/'
  || looks_like_address tok
  || looks_like_source tok
  || List.mem tok builtins
  || (String.length tok > 1 && Rc.resolve sh ~cwd:dir tok <> None)

(* Each distinct (directory, token) pair is resolved once per call;
   nothing a resolution reads changes during the call. *)
let connectivity help =
  (* Drawing refreshes every frame so "visible" is current. *)
  let _ = Help.draw help in
  let sh = Help.shell help in
  let seen = Hashtbl.create 64 in
  let count = ref 0 in
  List.iter
    (fun col ->
      List.iter
        (fun g ->
          let win = g.Hcol.g_win in
          let dir = Hwin.dir win in
          List.iter
            (fun tok ->
              let key = (dir, tok) in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                if actionable sh ~dir tok then incr count
              end)
            (tokens_of (visible_text win)))
        (Hcol.geoms col ~h:(Help.height help)))
    (Help.columns help);
  !count

let visible_windows help =
  List.fold_left
    (fun acc col -> acc + List.length (Hcol.geoms col ~h:(Help.height help)))
    0 (Help.columns help)
