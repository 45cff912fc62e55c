open Rc_ast

type io = { stdin : string; out : Buffer.t; err : Buffer.t }

type t = {
  namespace : Vfs.t;
  globals : (string, string list) Hashtbl.t;
  funcs : (string, cmd) Hashtbl.t;
  natives : (string, native) Hashtbl.t;
}

and proc = {
  sh : t;
  io : io;
  mutable cwd : string;
  frames : (string, string list) Hashtbl.t list;
  mutable ifflag : bool;  (* did the last if-guard at this level succeed? *)
}

and native = proc -> string list -> int

exception Exit_shell of int

(* Command execution on the global observability ledger: every
   top-level [run]/[run_argv] is counted and traced as a span whose
   [cmd] argument is the (first line of the) source text. *)
let m_runs = Trace.counter "rc.runs"

let span_cmd src =
  let line =
    match String.index_opt src '\n' with
    | Some i -> String.sub src 0 i
    | None -> src
  in
  if String.length line > 48 then String.sub line 0 48 ^ "..." else line

let create namespace =
  {
    namespace;
    globals = Hashtbl.create 64;
    funcs = Hashtbl.create 16;
    natives = Hashtbl.create 64;
  }

let ns sh = sh.namespace

let register sh path f =
  let path = Vfs.normalize path in
  Hashtbl.replace sh.natives path f;
  if not (Vfs.exists sh.namespace path) then begin
    Vfs.mkdir_p sh.namespace (Vfs.dirname path);
    Vfs.write_file sh.namespace path "#native\n"
  end

let set_global sh name v = Hashtbl.replace sh.globals name v
let get_global sh name = Hashtbl.find_opt sh.globals name

let globals_list sh =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) sh.globals [])

let replace_globals sh gs =
  Hashtbl.reset sh.globals;
  List.iter (fun (k, v) -> Hashtbl.replace sh.globals k v) gs

type result = { r_out : string; r_err : string; r_status : int }

(* ------------------------------------------------------------------ *)
(* Variables                                                           *)

let lookup proc name =
  let rec in_frames = function
    | [] -> Hashtbl.find_opt proc.sh.globals name
    | f :: rest -> (
        match Hashtbl.find_opt f name with
        | Some v -> Some v
        | None -> in_frames rest)
  in
  in_frames proc.frames

let assign proc name v =
  let rec in_frames = function
    | [] -> Hashtbl.replace proc.sh.globals name v
    | f :: rest ->
        if Hashtbl.mem f name then Hashtbl.replace f name v else in_frames rest
  in
  in_frames proc.frames

let proc_ns proc = proc.sh.namespace
let proc_cwd proc = proc.cwd
let proc_stdin proc = proc.io.stdin
let proc_out proc = proc.io.out
let proc_err proc = proc.io.err
let proc_get = lookup
let proc_shell proc = proc.sh

(* ------------------------------------------------------------------ *)
(* Word expansion                                                      *)

let split_ifs s =
  let words = ref [] in
  let b = Buffer.create 16 in
  let flush () =
    if Buffer.length b > 0 then begin
      words := Buffer.contents b :: !words;
      Buffer.clear b
    end
  in
  String.iter
    (fun c ->
      if c = ' ' || c = '\t' || c = '\n' then flush () else Buffer.add_char b c)
    s;
  flush ();
  List.rev !words

(* rc list concatenation: pairwise when equal lengths, distribute when
   either side is a singleton (or empty ~ empty list). *)
let list_concat err a b =
  match (a, b) with
  | [], _ | _, [] -> []
  | [ x ], ys -> List.map (fun y -> x @ y) ys
  | xs, [ y ] -> List.map (fun x -> x @ y) xs
  | xs, ys when List.length xs = List.length ys -> List.map2 (fun x y -> x @ y) xs ys
  | _ ->
      Buffer.add_string err "rc: mismatched list lengths in concatenation\n";
      []

let rec eval_cmd proc cmd =
  match cmd with
  | Nop -> 0
  | Assign (name, rv) ->
      let v = List.concat_map (expand_word proc) rv in
      assign proc name v;
      0
  | Local (binds, body) ->
      let frame = Hashtbl.create 4 in
      List.iter
        (fun (name, rv) ->
          Hashtbl.replace frame name (List.concat_map (expand_word proc) rv))
        binds;
      let child = { proc with frames = frame :: proc.frames } in
      eval_cmd child body
  | Simple (words, redirs) ->
      let st = exec_simple proc words redirs in
      (* rc keeps the last command's status in $status *)
      Hashtbl.replace proc.sh.globals "status" [ string_of_int st ];
      st
  | Pipe (a, b) ->
      let mid = Buffer.create 256 in
      let left =
        { proc with io = { proc.io with out = mid }; ifflag = proc.ifflag }
      in
      let _ = eval_cmd left a in
      let right =
        {
          proc with
          io = { proc.io with stdin = Buffer.contents mid };
          ifflag = proc.ifflag;
        }
      in
      eval_cmd right b
  | Seq (a, b) ->
      let _ = eval_cmd proc a in
      eval_cmd proc b
  | And (a, b) ->
      let st = eval_cmd proc a in
      if st = 0 then eval_cmd proc b else st
  | Or (a, b) ->
      let st = eval_cmd proc a in
      if st <> 0 then eval_cmd proc b else st
  | Not a ->
      let st = eval_cmd proc a in
      if st = 0 then 1 else 0
  | Block (body, redirs) -> with_redirects proc redirs (fun p -> eval_cmd p body)
  | If (guard, body) ->
      let st = eval_cmd proc guard in
      proc.ifflag <- st = 0;
      if st = 0 then eval_cmd proc body else 0
  | IfNot body -> if not proc.ifflag then eval_cmd proc body else 0
  | While (guard, body) ->
      let rec loop last =
        if eval_cmd proc guard = 0 then loop (eval_cmd proc body) else last
      in
      loop 0
  | For (name, words, body) ->
      let items = List.concat_map (expand_word proc) words in
      List.fold_left
        (fun _ item ->
          assign proc name [ item ];
          eval_cmd proc body)
        0 items
  | Switch (subject, cases) ->
      let subjects = expand_word proc subject in
      let matches patterns =
        List.exists
          (fun pat ->
            let chunks = chunks_of_word proc pat in
            let toks = Rc_glob.compile chunks in
            List.exists (fun s -> Rc_glob.matches toks s) subjects)
          patterns
      in
      let rec go = function
        | [] -> 0
        | (patterns, body) :: rest ->
            if matches patterns then eval_cmd proc body else go rest
      in
      go cases
  | Fn (name, body) ->
      Hashtbl.replace proc.sh.funcs name body;
      0

(* Expand word pieces into chunk lists (text, quoted) — the list-valued
   cartesian/pairwise product of the pieces. *)
and chunks_of_words_of_piece proc piece : (string * bool) list list =
  match piece with
  | Lit s -> [ [ (s, false) ] ]
  | Quoted s -> [ [ (s, true) ] ]
  | Var name ->
      let v = Option.value ~default:[] (lookup proc name) in
      List.map (fun s -> [ (s, true) ]) v
  | Select (name, indices) ->
      let v = Option.value ~default:[] (lookup proc name) in
      let picks = List.filter_map int_of_string_opt (split_ifs indices) in
      List.filter_map
        (fun i -> Option.map (fun s -> [ (s, true) ]) (List.nth_opt v (i - 1)))
        picks
  | Count name ->
      let v = Option.value ~default:[] (lookup proc name) in
      [ [ (string_of_int (List.length v), true) ] ]
  | Flat name ->
      let v = Option.value ~default:[] (lookup proc name) in
      [ [ (String.concat " " v, true) ] ]
  | Sub src ->
      let out, _ = run_sub proc src in
      List.map (fun s -> [ (s, true) ]) (split_ifs out)

and chunk_lists_of_word proc word : (string * bool) list list =
  match word with
  | [] -> [ [] ]
  | piece :: rest ->
      let heads = chunks_of_words_of_piece proc piece in
      let tails = chunk_lists_of_word proc rest in
      if heads = [] then [] (* empty list annihilates, as in rc *)
      else list_concat proc.io.err heads tails

(* First (often only) alternative, for pattern words in switch/~. *)
and chunks_of_word proc word =
  match chunk_lists_of_word proc word with [] -> [] | c :: _ -> c

and expand_word proc word : string list =
  let alternatives = chunk_lists_of_word proc word in
  List.concat_map
    (fun chunks ->
      if Rc_glob.has_meta chunks then
        match Rc_glob.expand proc.sh.namespace ~cwd:proc.cwd chunks with
        | [] -> [ Rc_glob.literal chunks ]
        | files -> files
      else [ Rc_glob.literal chunks ])
    alternatives

and run_sub proc src =
  let out = Buffer.create 256 in
  let child = { proc with io = { proc.io with out }; ifflag = false } in
  let status =
    match Rc_parser.parse src with
    | cmd -> eval_cmd child cmd
    | exception Rc_parser.Parse_error msg | exception Rc_lexer.Lex_error msg ->
        Buffer.add_string proc.io.err ("rc: " ^ msg ^ "\n");
        1
  in
  (Buffer.contents out, status)

and with_redirects proc redirs f =
  match redirs with
  | [] -> f proc
  | r :: rest -> (
      let target =
        match expand_word proc r.r_target with
        | [ t ] -> t
        | _ ->
            Buffer.add_string proc.io.err "rc: bad redirection target\n";
            ""
      in
      if target = "" then 1
      else
        let path =
          if String.length target > 0 && target.[0] = '/' then target
          else Vfs.normalize (proc.cwd ^ "/" ^ target)
        in
        match r.r_kind with
        | Rin -> (
            match Vfs.read_file proc.sh.namespace path with
            | data ->
                with_redirects
                  { proc with io = { proc.io with stdin = data } }
                  rest f
            | exception Vfs.Error e ->
                Buffer.add_string proc.io.err
                  (Printf.sprintf "rc: %s: %s\n" target (Vfs.error_message e));
                1)
        | Rout | Rappend -> (
            let out = Buffer.create 256 in
            let st =
              with_redirects { proc with io = { proc.io with out } } rest f
            in
            match
              if r.r_kind = Rout then
                Vfs.write_file proc.sh.namespace path (Buffer.contents out)
              else Vfs.append_file proc.sh.namespace path (Buffer.contents out)
            with
            | () -> st
            | exception Vfs.Error e ->
                Buffer.add_string proc.io.err
                  (Printf.sprintf "rc: %s: %s\n" target (Vfs.error_message e));
                1))

and exec_simple proc words redirs =
  let argv = List.concat_map (expand_word proc) words in
  match argv with
  | [] -> 0
  | name :: args ->
      with_redirects proc redirs (fun p -> dispatch p name args)

and dispatch proc name args =
  match name with
  | "cd" ->
      (match args with
      | [] -> proc.cwd <- "/"
      | dir :: _ ->
          let path =
            if String.length dir > 0 && dir.[0] = '/' then Vfs.normalize dir
            else Vfs.normalize (proc.cwd ^ "/" ^ dir)
          in
          if Vfs.is_dir proc.sh.namespace path then proc.cwd <- path
          else
            Buffer.add_string proc.io.err
              (Printf.sprintf "rc: can't cd %s\n" dir));
      0
  | "eval" ->
      let src = String.concat " " args in
      (match Rc_parser.parse src with
      | cmd -> eval_cmd proc cmd
      | exception Rc_parser.Parse_error msg | exception Rc_lexer.Lex_error msg ->
          Buffer.add_string proc.io.err ("rc: eval: " ^ msg ^ "\n");
          1)
  | "exit" ->
      let st = match args with s :: _ -> (try int_of_string s with _ -> 1) | [] -> 0 in
      raise (Exit_shell st)
  | "~" -> (
      match args with
      | [] -> 1
      | subject_and_pats ->
          (* First argument is the subject as one element; rc expands the
             subject before ~ sees it, so lists arrive as several leading
             elements only via $x — approximate: subject = first arg. *)
          let subject = List.hd subject_and_pats in
          let pats = List.tl subject_and_pats in
          let ok =
            List.exists
              (fun pat ->
                Rc_glob.matches (Rc_glob.compile [ (pat, false) ]) subject)
              pats
          in
          if ok then 0 else 1)
  | "shift" ->
      (match proc.frames with
      | frame :: _ -> (
          match Hashtbl.find_opt frame "*" with
          | Some (_ :: rest) -> Hashtbl.replace frame "*" rest
          | _ -> ())
      | [] -> ());
      0
  | "." -> (
      match args with
      | file :: rest -> run_file proc file rest
      | [] -> 1)
  | "true" -> 0
  | "false" -> 1
  | _ -> (
      match Hashtbl.find_opt proc.sh.funcs name with
      | Some body -> call_function proc name body args
      | None -> run_external proc name args)

and call_function proc name body args =
  let frame = Hashtbl.create 8 in
  Hashtbl.replace frame "*" args;
  Hashtbl.replace frame "0" [ name ];
  List.iteri (fun i a -> Hashtbl.replace frame (string_of_int (i + 1)) [ a ]) args;
  let child = { proc with frames = frame :: proc.frames; ifflag = false } in
  eval_cmd child body

and search_path proc name =
  (* rc rule: names starting with /, ./ or ../ are taken as-is; others
     are searched along $path (default: . then /bin). *)
  let starts_with p = String.length name >= String.length p
                      && String.sub name 0 (String.length p) = p in
  if starts_with "/" then
    let p = Vfs.normalize name in
    if Vfs.exists proc.sh.namespace p then Some p else None
  else if starts_with "./" || starts_with "../" then
    let p = Vfs.normalize (proc.cwd ^ "/" ^ name) in
    if Vfs.exists proc.sh.namespace p then Some p else None
  else
    let path_dirs =
      match lookup proc "path" with
      | Some dirs when dirs <> [] -> dirs
      | _ -> [ "."; "/bin" ]
    in
    let rec try_dirs = function
      | [] -> None
      | dir :: rest ->
          let base = if dir = "." then proc.cwd else dir in
          let p = Vfs.normalize (base ^ "/" ^ name) in
          if Vfs.exists proc.sh.namespace p && not (Vfs.is_dir proc.sh.namespace p)
          then Some p
          else try_dirs rest
    in
    try_dirs path_dirs

and run_external proc name args =
  match search_path proc name with
  | None ->
      Buffer.add_string proc.io.err (Printf.sprintf "%s: not found\n" name);
      127
  | Some path -> (
      match Hashtbl.find_opt proc.sh.natives path with
      | Some f -> (
          try f proc (name :: args)
          with Vfs.Error e ->
            Buffer.add_string proc.io.err
              (Printf.sprintf "%s: %s\n" name (Vfs.error_message e));
            1)
      | None -> run_file proc path args)

and run_file proc path args =
  match Vfs.read_file proc.sh.namespace path with
  | exception Vfs.Error e ->
      Buffer.add_string proc.io.err
        (Printf.sprintf "%s: %s\n" path (Vfs.error_message e));
      127
  | src -> (
      let frame = Hashtbl.create 8 in
      Hashtbl.replace frame "*" args;
      Hashtbl.replace frame "0" [ path ];
      List.iteri
        (fun i a -> Hashtbl.replace frame (string_of_int (i + 1)) [ a ])
        args;
      let child = { proc with frames = frame :: proc.frames; ifflag = false } in
      match Rc_parser.parse src with
      | cmd -> ( try eval_cmd child cmd with Exit_shell st -> st)
      | exception Rc_parser.Parse_error msg | exception Rc_lexer.Lex_error msg ->
          Buffer.add_string proc.io.err
            (Printf.sprintf "%s: syntax error: %s\n" path msg);
          1)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let make_proc sh ?(cwd = "/") ?(stdin = "") () =
  {
    sh;
    io = { stdin; out = Buffer.create 256; err = Buffer.create 64 };
    cwd = Vfs.normalize cwd;
    frames = [];
    ifflag = false;
  }

let run sh ?cwd ?stdin src =
  Trace.incr m_runs;
  Trace.with_span ~args:[ ("cmd", span_cmd src) ] "rc.run" @@ fun () ->
  let proc = make_proc sh ?cwd ?stdin () in
  let status =
    match Rc_parser.parse src with
    | cmd -> ( try eval_cmd proc cmd with Exit_shell st -> st)
    | exception Rc_parser.Parse_error msg | exception Rc_lexer.Lex_error msg ->
        Buffer.add_string proc.io.err ("rc: " ^ msg ^ "\n");
        1
  in
  {
    r_out = Buffer.contents proc.io.out;
    r_err = Buffer.contents proc.io.err;
    r_status = status;
  }

let run_argv sh ?cwd ?stdin argv =
  Trace.incr m_runs;
  Trace.with_span ~args:[ ("cmd", span_cmd (String.concat " " argv)) ]
    "rc.run"
  @@ fun () ->
  let proc = make_proc sh ?cwd ?stdin () in
  let status =
    match argv with
    | [] -> 0
    | name :: args -> (
        try dispatch proc name args with Exit_shell st -> st)
  in
  {
    r_out = Buffer.contents proc.io.out;
    r_err = Buffer.contents proc.io.err;
    r_status = status;
  }

let run_in proc ?stdin src =
  let out = Buffer.create 256 in
  let stdin = Option.value ~default:proc.io.stdin stdin in
  let child =
    { proc with io = { proc.io with out; stdin }; ifflag = false }
  in
  let status =
    match Rc_parser.parse src with
    | cmd -> ( try eval_cmd child cmd with Exit_shell st -> st)
    | exception Rc_parser.Parse_error msg | exception Rc_lexer.Lex_error msg ->
        Buffer.add_string proc.io.err ("rc: " ^ msg ^ "\n");
        1
  in
  (Buffer.contents out, status)

let resolve sh ~cwd name =
  if Hashtbl.mem sh.funcs name then Some name
  else
    let proc = make_proc sh ~cwd () in
    search_path proc name
