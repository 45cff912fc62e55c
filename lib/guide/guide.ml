type syn_item =
  | S_flag of string
  | S_lit of string
  | S_arg of string
  | S_opt of string

type invocation = { i_cmd : string; i_items : syn_item list }
type verb = { v_name : string; v_args : string list; v_desc : string }

type page = {
  p_name : string;
  p_section : int;
  p_title : string;
  p_invocations : invocation list;
  p_verbs : verb list;
  p_files : string list;
  p_see : (string * int) list;
  p_warnings : string list;
}

let m_pages = Trace.counter "guide.pages"
let m_clicks = Trace.counter "guide.clicks"
let m_invocations = Trace.counter "guide.invocations"

(* ------------------------------------------------------------------ *)
(* Scanning                                                            *)

let em_dash = "\xe2\x80\x94"

let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun x -> x <> "")

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* The markdown inline elements the man pages use: `code spans` are
   literal command text, *italic groups* are placeholders. *)
type tok = Span of string | Ital of string

let tokens s =
  let n = String.length s in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    match s.[!i] with
    | '`' -> (
        match String.index_from_opt s (!i + 1) '`' with
        | Some j ->
            out := Span (String.sub s (!i + 1) (j - !i - 1)) :: !out;
            i := j + 1
        | None -> i := n)
    | '*' -> (
        match String.index_from_opt s (!i + 1) '*' with
        | Some j ->
            out := Ital (String.sub s (!i + 1) (j - !i - 1)) :: !out;
            i := j + 1
        | None -> i := n)
    | _ -> incr i
  done;
  List.rev !out

(* Title line + "## "-delimited sections, in order. *)
let sections text =
  let title = ref "" in
  let secs = ref [] in
  let cur = ref None in
  let close () =
    match !cur with
    | Some (n, ls) -> secs := (n, List.rev ls) :: !secs
    | None -> ()
  in
  List.iter
    (fun line ->
      if starts_with "## " line then begin
        close ();
        cur := Some (String.trim (String.sub line 3 (String.length line - 3)), [])
      end
      else if starts_with "# " line && !title = "" && !cur = None then
        title := String.trim (String.sub line 2 (String.length line - 2))
      else
        match !cur with
        | Some (n, ls) -> cur := Some (n, line :: ls)
        | None -> ())
    (String.split_on_char '\n' text);
  close ();
  (!title, List.rev !secs)

let first_paragraph lines =
  let rec skip = function "" :: rest -> skip rest | ls -> ls in
  let rec take acc = function
    | [] | "" :: _ -> List.rev acc
    | l :: rest -> take (l :: acc) rest
  in
  take [] (skip lines)

(* ------------------------------------------------------------------ *)
(* The grammar                                                         *)

(* SYNOPSIS: the first paragraph is the machine-readable part.  A code
   span starting with a letter opens an entry — its first word is the
   command, later words literal flags and arguments; the italic groups
   that follow attach as placeholders ([*x*]) or optional groups
   ([*\[x ...\]*]).  Anything else is drift, and warns. *)
let parse_synopsis warn lines =
  let text = String.concat " " (first_paragraph lines) in
  let invs = ref [] in
  let cur = ref None in
  let flush () =
    match !cur with
    | Some (cmd, items) ->
        invs := { i_cmd = cmd; i_items = List.rev items } :: !invs;
        cur := None
    | None -> ()
  in
  List.iter
    (function
      | Span s -> (
          match split_ws s with
          | w :: rest when w <> "" && is_letter w.[0] ->
              flush ();
              let items =
                List.map (fun t -> if t.[0] = '-' then S_flag t else S_lit t) rest
              in
              cur := Some (w, List.rev items)
          | _ -> warn (Printf.sprintf "synopsis: unparsable `%s`" s))
      | Ital s -> (
          let s = String.trim s in
          let item =
            if String.length s >= 2 && s.[0] = '[' && s.[String.length s - 1] = ']'
            then S_opt (String.sub s 1 (String.length s - 2))
            else S_arg s
          in
          match !cur with
          | Some (cmd, items) -> cur := Some (cmd, item :: items)
          | None ->
              warn (Printf.sprintf "synopsis: placeholder *%s* outside an entry" s)))
    (tokens text);
  flush ();
  List.rev !invs

(* Definition-list entries: a line opening with a code span whose next
   line is the `: description`. *)
let parse_defs lines =
  let arr = Array.of_list lines in
  let out = ref [] in
  Array.iteri
    (fun i line ->
      if
        String.length line > 0
        && line.[0] = '`'
        && i + 1 < Array.length arr
        &&
        let nxt = arr.(i + 1) in
        String.length nxt > 0 && nxt.[0] = ':'
      then
        let nxt = arr.(i + 1) in
        let desc = String.trim (String.sub nxt 1 (String.length nxt - 1)) in
        out := (line, desc) :: !out)
    arr;
  List.rev !out

let verbs_of_defs warn defs =
  List.concat_map
    (fun (line, desc) ->
      let names =
        List.filter_map
          (function Span s when s <> "" -> Some s | _ -> None)
          (tokens line)
      in
      let args =
        List.filter_map
          (function Ital s -> Some (String.trim s) | _ -> None)
          (tokens line)
      in
      match names with
      | [] ->
          warn "commands: definition entry without a name";
          []
      | ns -> List.map (fun n -> { v_name = n; v_args = args; v_desc = desc }) ns)
    defs

(* SEE ALSO references: every name(N). *)
let scan_refs text =
  let n = String.length text in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    if is_letter text.[!i] then begin
      let j = ref !i in
      while
        !j < n
        && (is_letter text.[!j] || (text.[!j] >= '0' && text.[!j] <= '9'))
      do
        incr j
      done;
      if
        !j + 2 < n
        && text.[!j] = '('
        && text.[!j + 1] >= '0'
        && text.[!j + 1] <= '9'
        && text.[!j + 2] = ')'
      then begin
        out :=
          ( String.lowercase_ascii (String.sub text !i (!j - !i)),
            Char.code text.[!j + 1] - Char.code '0' )
          :: !out;
        i := !j + 3
      end
      else i := !j
    end
    else incr i
  done;
  let rec dedup seen = function
    | [] -> []
    | r :: rest ->
        if List.mem r seen then dedup seen rest else r :: dedup (r :: seen) rest
  in
  dedup [] (List.rev !out)

let parse_title warn t =
  match String.index_opt t '(' with
  | Some i
    when String.length t >= i + 3 && t.[String.length t - 1] = ')' -> (
      let name = String.lowercase_ascii (String.trim (String.sub t 0 i)) in
      match int_of_string_opt (String.sub t (i + 1) (String.length t - i - 2)) with
      | Some n -> (name, n)
      | None ->
          warn "title: bad section number";
          (name, 0))
  | _ ->
      warn "title: expected NAME(N)";
      (String.lowercase_ascii t, 0)

let parse ~file text =
  let warnings = ref [] in
  let warn m = warnings := (file ^ ": " ^ m) :: !warnings in
  let title_line, secs = sections text in
  let name, section = parse_title warn title_line in
  let sec n = List.assoc_opt n secs in
  let is_cmd_section n = Hstr.contains n ~sub:"COMMAND" in
  let title =
    match sec "NAME" with
    | Some lines -> (
        let t = String.trim (String.concat " " (first_paragraph lines)) in
        match Hstr.find t ~sub:em_dash with
        | Some i ->
            String.trim (String.sub t (i + 3) (String.length t - i - 3))
        | None ->
            warn "NAME: expected `name \xe2\x80\x94 title`";
            t)
    | None ->
        warn "NAME: missing";
        ""
  in
  let invocations =
    match sec "SYNOPSIS" with
    | Some lines -> parse_synopsis warn lines
    | None ->
        warn "SYNOPSIS: missing";
        []
  in
  let verbs =
    secs
    |> List.filter (fun (n, _) -> is_cmd_section n)
    |> List.concat_map (fun (_, ls) -> verbs_of_defs warn (parse_defs ls))
  in
  let files =
    (match sec "FILES" with
    | Some ls ->
        tokens (String.concat " " ls)
        |> List.filter_map (function
             | Span s when s <> "" && s.[0] = '/' -> Some s
             | _ -> None)
    | None -> [])
    @ (secs
      |> List.filter (fun (n, _) ->
             (not (List.mem n [ "NAME"; "SYNOPSIS"; "FILES"; "SEE ALSO" ]))
             && not (is_cmd_section n))
      |> List.concat_map (fun (_, ls) ->
             parse_defs ls
             |> List.filter_map (fun (line, _) ->
                    match tokens line with
                    | Span s :: _ when s <> "" -> Some s
                    | _ -> None)))
  in
  let see =
    match sec "SEE ALSO" with
    | Some ls -> scan_refs (String.concat " " ls)
    | None -> []
  in
  {
    p_name = name;
    p_section = section;
    p_title = title;
    p_invocations = invocations;
    p_verbs = verbs;
    p_files = files;
    p_see = see;
    p_warnings = List.rev !warnings;
  }

(* ------------------------------------------------------------------ *)
(* The embedded manual                                                 *)

let sources = Guide_docs.pages

let pages () =
  Trace.with_span "guide.parse" (fun () ->
      sources
      |> List.map (fun (file, text) -> parse ~file text)
      |> List.sort (fun a b -> compare a.p_name b.p_name))

let find name = List.find_opt (fun p -> p.p_name = name) (pages ())

(* ------------------------------------------------------------------ *)
(* Composition                                                         *)

let default_args =
  [
    ("Open file", "/usr/rob/src/help/help.c");
    ("ed file", "/usr/rob/src/help/exec.c");
    ("rc file", "/usr/rob/lib/profile");
    ("file", "/usr/rob/src/help/help.c");
    ("page", "help");
    ("regexp", "strlen");
    ("k", "1");
    ("who", "sean");
  ]

let item_text = function
  | S_flag s | S_lit s | S_arg s -> s
  | S_opt s -> "[" ^ s ^ "]"

let invocation_text inv =
  String.concat " " (inv.i_cmd :: List.map item_text inv.i_items)

let synopsis_string inv =
  let in_span, post =
    List.partition (function S_flag _ | S_lit _ -> true | _ -> false) inv.i_items
  in
  let span = String.concat " " (inv.i_cmd :: List.map item_text in_span) in
  let ital =
    List.map
      (function
        | S_arg a -> "*" ^ a ^ "*"
        | S_opt o -> "*[" ^ o ^ "]*"
        | S_flag _ | S_lit _ -> "")
      post
  in
  String.concat " " (("`" ^ span ^ "`") :: ital)

let synopsis_command inv =
  let lookup a =
    match List.assoc_opt (inv.i_cmd ^ " " ^ a) default_args with
    | Some v -> Some v
    | None -> List.assoc_opt a default_args
  in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | (S_flag w | S_lit w) :: rest -> go (w :: acc) rest
    | S_opt _ :: rest -> go acc rest
    | S_arg a :: rest -> (
        match lookup a with Some v -> go (v :: acc) rest | None -> None)
  in
  match go [] inv.i_items with
  | Some words -> Some (String.concat " " (inv.i_cmd :: words))
  | None -> None

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let render p =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%s(%d) - %s\n" p.p_name p.p_section p.p_title;
  Buffer.add_string b "\nRUN\n";
  List.iter
    (fun inv ->
      match synopsis_command inv with
      | Some cmd -> Printf.bprintf b " %s\n" cmd
      | None -> Printf.bprintf b " # %s\n" (invocation_text inv))
    p.p_invocations;
  if p.p_verbs <> [] then begin
    Buffer.add_string b "\nCOMMANDS\n";
    List.iter
      (fun v ->
        Printf.bprintf b " %s%s\t%s\n" v.v_name
          (match v.v_args with
          | [] -> ""
          | a -> " " ^ String.concat " " a)
          v.v_desc)
      p.p_verbs
  end;
  if p.p_files <> [] then begin
    Buffer.add_string b "\nFILES\n";
    List.iter (fun f -> Printf.bprintf b " %s\n" f) p.p_files
  end;
  if p.p_see <> [] then begin
    Buffer.add_string b "\nSEE ALSO\n";
    List.iter (fun (n, s) -> Printf.bprintf b " guide %s\t%s(%d)\n" n n s) p.p_see
  end;
  Buffer.contents b

let index_body () =
  let b = Buffer.create 256 in
  Buffer.add_string b "GUIDE - the manual, clickable\n\n";
  List.iter
    (fun p ->
      Printf.bprintf b " guide %s\t%s(%d) - %s\n" p.p_name p.p_name p.p_section
        p.p_title)
    (pages ());
  Buffer.contents b

let index_text () =
  String.concat ""
    (List.map
       (fun p -> Printf.sprintf "%s\t%d\t%s\n" p.p_name p.p_section p.p_title)
       (pages ()))

let page_text p =
  let b = Buffer.create 512 in
  Printf.bprintf b "name %s\nsection %d\ntitle %s\n" p.p_name p.p_section
    p.p_title;
  List.iter
    (fun i -> Printf.bprintf b "synopsis %s\n" (invocation_text i))
    p.p_invocations;
  List.iter
    (fun i ->
      match synopsis_command i with
      | Some c -> Printf.bprintf b "invocation %s\n" c
      | None -> ())
    p.p_invocations;
  List.iter
    (fun v ->
      Printf.bprintf b "verb %s\t%s\t%s\n" v.v_name
        (String.concat " " v.v_args)
        v.v_desc)
    p.p_verbs;
  List.iter (fun f -> Printf.bprintf b "file %s\n" f) p.p_files;
  List.iter (fun (n, s) -> Printf.bprintf b "see %s %d\n" n s) p.p_see;
  List.iter (fun w -> Printf.bprintf b "warning %s\n" w) p.p_warnings;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The native tool: all window traffic crosses the /mnt/help mount     *)

let builtins_ref = ref ([] : string list)
let mnt = "/mnt/help"

(* Find a window by tag name through the served index, the same way
   the shell scripts do. *)
let win_with_name ns name =
  match Vfs.read_file ns (mnt ^ "/index") with
  | exception Vfs.Error _ -> None
  | index ->
      String.split_on_char '\n' index
      |> List.find_map (fun line ->
             match String.index_opt line '\t' with
             | Some i ->
                 let id = String.sub line 0 i in
                 let tag =
                   String.sub line (i + 1) (String.length line - i - 1)
                 in
                 let first =
                   match String.index_opt tag ' ' with
                   | Some j -> String.sub tag 0 j
                   | None -> tag
                 in
                 if first = name then Some id else None
             | None -> None)

let create_window ns ~tag =
  let x = String.trim (Vfs.read_file ns (mnt ^ "/new/ctl")) in
  Vfs.write_file ns (mnt ^ "/" ^ x ^ "/ctl") ("tag " ^ tag ^ "\n");
  x

let open_page proc p =
  let ns = Rc.proc_ns proc in
  let name = "/help/guide/" ^ p.p_name in
  let x =
    match win_with_name ns name with
    | Some x -> x
    | None -> create_window ns ~tag:(name ^ " Close! run")
  in
  Vfs.write_file ns (mnt ^ "/" ^ x ^ "/body") (render p);
  Trace.incr m_pages

let open_index proc =
  let ns = Rc.proc_ns proc in
  let name = "/help/guide/index" in
  let x =
    match win_with_name ns name with
    | Some x -> x
    | None -> create_window ns ~tag:(name ^ " Close!")
  in
  Vfs.write_file ns (mnt ^ "/" ^ x ^ "/body") (index_body ());
  Trace.incr m_pages

let run_line proc rest =
  let cmd = String.trim (String.concat " " rest) in
  if cmd = "" then begin
    Buffer.add_string (Rc.proc_err proc) "guide: nothing to run\n";
    1
  end
  else begin
    Trace.incr m_invocations;
    let ns = Rc.proc_ns proc in
    (* a fresh output window per run: the manual itself is never
       scribbled on *)
    let x = create_window ns ~tag:"/help/guide/out Close!" in
    let app s = Vfs.append_file ns (mnt ^ "/" ^ x ^ "/bodyapp") s in
    app ("% " ^ cmd ^ "\n");
    let first =
      match String.index_opt cmd ' ' with
      | Some i -> String.sub cmd 0 i
      | None -> cmd
    in
    if List.mem first !builtins_ref then begin
      app ("(" ^ first ^ " is a help built-in: middle-sweep it in the page window)\n");
      0
    end
    else begin
      let out, st = Rc.run_in proc cmd in
      if out <> "" then app out;
      if st <> 0 then app (Printf.sprintf "exit status %d\n" st);
      st
    end
  end

let native proc args =
  Trace.incr m_clicks;
  match List.tl args with
  | [] ->
      open_index proc;
      0
  | "-run" :: rest -> run_line proc rest
  | [ name ] -> (
      match find name with
      | Some p ->
          open_page proc p;
          0
      | None ->
          Buffer.add_string (Rc.proc_err proc)
            ("guide: no page " ^ name ^ "\n");
          1)
  | _ ->
      Buffer.add_string (Rc.proc_err proc)
        "usage: guide [page] | guide -run line\n";
      1

(* ------------------------------------------------------------------ *)
(* Scripts                                                             *)

let stf = "guide\nguide help\nguide mail\nguide ed\n"
let run_script = "eval `{help/parse -l}\nguide -run $text\n"

let install ?(builtins = []) sh =
  builtins_ref := builtins;
  Rc.register sh "/bin/guide" native;
  let ns = Rc.ns sh in
  Vfs.mkdir_p ns "/help/guide";
  Vfs.write_file ns "/help/guide/stf" stf;
  Vfs.write_file ns "/help/guide/run" run_script
