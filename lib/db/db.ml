type frame = {
  fr_func : string;
  fr_args : (string * string) list;
  fr_callsite : string * int;
  fr_locals : (string * string) list;
}

type process = {
  pr_pid : int;
  pr_cmd : string;
  pr_status : string;
  pr_binary : string;
  pr_note : string;
  pr_insn : string;
  pr_regs : (string * string) list;
  pr_frames : frame list;
}

type t = { mutable procs : process list }

let create () = { procs = [] }

let add_process db p =
  db.procs <- List.filter (fun q -> q.pr_pid <> p.pr_pid) db.procs @ [ p ]

let find db pid = List.find_opt (fun p -> p.pr_pid = pid) db.procs

(* ------------------------------------------------------------------ *)
(* Object / symbol-table format                                        *)

type sym = { sym_name : string; sym_kind : string; sym_file : string; sym_line : int }

let object_magic = "%help object v1"
let exe_magic = "%help exe v1"

let load_symtab ns path =
  let text = Vfs.read_file ns path in
  let lines = String.split_on_char '\n' text in
  match lines with
  | magic :: rest when magic = object_magic || magic = exe_magic ->
      List.filter_map
        (fun line ->
          match String.split_on_char ' ' line with
          | [ kind; name; file; lno ] when kind = "func" || kind = "global" ->
              (try
                 Some
                   { sym_name = name; sym_kind = kind; sym_file = file;
                     sym_line = int_of_string lno }
               with _ -> None)
          | _ -> None)
        rest
  | _ -> raise (Vfs.Error (Vfs.Eio (path ^ ": not a help object file")))

(* ------------------------------------------------------------------ *)
(* vc: the C "compiler".  Parses the translation unit with the real C
   front end (so a genuine syntax error fails the build, landing in the
   Errors window as on Plan 9) and emits the symbol table as the .v
   object. *)

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let vc_native proc args =
  let out_name = ref "" in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "-o" :: name :: rest ->
        out_name := name;
        parse rest
    | a :: rest ->
        if not (starts_with "-" a) then files := a :: !files;
        parse rest
  in
  parse (List.tl args);
  match List.rev !files with
  | [] ->
      Buffer.add_string (Rc.proc_err proc) "vc: no input files\n";
      1
  | [ file ] -> (
      let ns = Rc.proc_ns proc in
      let cwd = Rc.proc_cwd proc in
      let report (msg, (pos : C_lexer.pos)) =
        Buffer.add_string (Rc.proc_err proc)
          (Printf.sprintf "vc: %s:%d: %s\n" pos.file pos.line msg)
      in
      match Cbr.analyze ns ~cwd [ file ] with
      | exception C_lexer.Lex_error (msg, pos) ->
          report (msg, pos);
          1
      | p when p.C_symbols.p_errors <> [] ->
          List.iter report p.C_symbols.p_errors;
          1
      | p ->
          let b = Buffer.create 256 in
          Buffer.add_string b (object_magic ^ "\n");
          Buffer.add_string b (Printf.sprintf "unit %s\n" file);
          List.iter
            (fun (d : C_symbols.decl) ->
              if d.d_global then
                match d.d_kind with
                | C_symbols.Kfunc ->
                    Buffer.add_string b
                      (Printf.sprintf "func %s %s %d\n" d.d_name d.d_pos.file
                         d.d_pos.line)
                | C_symbols.Kvar ->
                    Buffer.add_string b
                      (Printf.sprintf "global %s %s %d\n" d.d_name d.d_pos.file
                         d.d_pos.line)
                | _ -> ())
            p.C_symbols.p_decls;
          let stem =
            match String.rindex_opt file '.' with
            | Some i -> String.sub file 0 i
            | None -> file
          in
          let out = if !out_name <> "" then !out_name else stem ^ ".v" in
          let out_path =
            if starts_with "/" out then out else Vfs.normalize (cwd ^ "/" ^ out)
          in
          Vfs.write_file ns out_path (Buffer.contents b);
          0)
  | _ ->
      Buffer.add_string (Rc.proc_err proc) "vc: one file at a time\n";
      1

(* vl: the loader.  Concatenates object symbol tables into an
   executable image. *)
let vl_native proc args =
  let out_name = ref "8.out" in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "-o" :: name :: rest ->
        out_name := name;
        parse rest
    | a :: rest ->
        if not (starts_with "-" a) then files := a :: !files;
        parse rest
  in
  parse (List.tl args);
  let ns = Rc.proc_ns proc in
  let cwd = Rc.proc_cwd proc in
  let b = Buffer.create 1024 in
  Buffer.add_string b (exe_magic ^ "\n");
  Buffer.add_string b (Printf.sprintf "srcdir %s\n" cwd);
  (* The loader keeps one entry per symbol, first definition wins. *)
  let seen = Hashtbl.create 256 in
  let status =
    List.fold_left
      (fun st f ->
        let path = if starts_with "/" f then f else Vfs.normalize (cwd ^ "/" ^ f) in
        match Vfs.read_file ns path with
        | exception Vfs.Error e ->
            Buffer.add_string (Rc.proc_err proc)
              (Printf.sprintf "vl: %s: %s\n" f (Vfs.error_message e));
            1
        | text ->
            (match String.split_on_char '\n' text with
            | magic :: rest when magic = object_magic ->
                List.iter
                  (fun line ->
                    match String.split_on_char ' ' line with
                    | [ ("func" | "global"); name; _; _ ]
                      when not (Hashtbl.mem seen name) ->
                        Hashtbl.add seen name ();
                        Buffer.add_string b line;
                        Buffer.add_char b '\n'
                    | _ -> ())
                  rest
            | _ ->
                Buffer.add_string (Rc.proc_err proc)
                  (Printf.sprintf "vl: %s: not an object file\n" f));
            st)
      0 (List.rev !files)
  in
  if status = 0 then begin
    let out_path =
      if starts_with "/" !out_name then !out_name
      else Vfs.normalize (cwd ^ "/" ^ !out_name)
    in
    Vfs.write_file ns out_path (Buffer.contents b)
  end;
  status

(* ------------------------------------------------------------------ *)
(* adb                                                                 *)

let fmt_value v = if starts_with "0x" v || starts_with "#" v then v else v

let fmt_args args =
  String.concat ", "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (fmt_value v)) args)

(* Offsets shown after '+' are synthesized deterministically from the
   function name: adb prints them but nothing downstream parses them. *)
let offset_of name = Hashtbl.hash name land 0xfff

let print_stack out ~symtab ~locals p =
  Buffer.add_string out
    (Printf.sprintf "last exception: %s\n" p.pr_note);
  if p.pr_insn <> "" then Buffer.add_string out (p.pr_insn ^ "\n");
  let has_sym name =
    name = "strlen" || name = "strchr" || name = "main"
    || List.exists (fun s -> s.sym_name = name) symtab
  in
  let rec go = function
    | [] -> ()
    | fr :: rest ->
        let caller =
          match rest with
          | next :: _ -> next.fr_func
          | [] -> fr.fr_func
        in
        let file, line = fr.fr_callsite in
        if not (has_sym fr.fr_func) then
          Buffer.add_string out
            (Printf.sprintf "%#x? no symbol information\n" (offset_of fr.fr_func))
        else
          Buffer.add_string out
            (Printf.sprintf "%s(%s) called from %s+#%x %s:%d\n" fr.fr_func
               (fmt_args fr.fr_args) caller (offset_of caller) file line);
        if locals then
          List.iter
            (fun (k, v) ->
              Buffer.add_string out (Printf.sprintf "\t%s = %s\n" k v))
            fr.fr_locals;
        go rest
  in
  go p.pr_frames

let print_regs out p =
  List.iter
    (fun (r, v) -> Buffer.add_string out (Printf.sprintf "%s\t%s\n" r v))
    p.pr_regs

let adb_native db proc args =
  (* adb [binary] pid; commands on stdin: $C (stack+locals), $c (stack),
     $r (registers), $n (note). *)
  let args = List.tl args in
  let binary, pid =
    match args with
    | [ b; p ] -> (Some b, int_of_string_opt p)
    | [ p ] -> (None, int_of_string_opt p)
    | _ -> (None, None)
  in
  match pid with
  | None ->
      Buffer.add_string (Rc.proc_err proc) "usage: adb [binary] pid\n";
      1
  | Some pid -> (
      match find db pid with
      | None ->
          Buffer.add_string (Rc.proc_err proc)
            (Printf.sprintf "adb: no process %d\n" pid);
          1
      | Some p ->
          let binpath =
            match binary with Some b -> b | None -> p.pr_binary
          in
          let ns = Rc.proc_ns proc in
          let binpath =
            if starts_with "/" binpath then binpath
            else Vfs.normalize (Rc.proc_cwd proc ^ "/" ^ binpath)
          in
          let symtab =
            match load_symtab ns binpath with
            | syms -> syms
            | exception Vfs.Error _ -> []
          in
          let out = Rc.proc_out proc in
          let commands =
            String.split_on_char '\n' (Rc.proc_stdin proc)
            |> List.map String.trim
            |> List.filter (fun s -> s <> "")
          in
          let srcdir () =
            match Vfs.read_file ns binpath with
            | text ->
                String.split_on_char '\n' text
                |> List.find_map (fun line ->
                       if starts_with "srcdir " line then
                         Some (String.sub line 7 (String.length line - 7))
                       else None)
                |> Option.value ~default:"/"
            | exception Vfs.Error _ -> "/"
          in
          List.iter
            (fun cmdline ->
              match cmdline with
              | "$C" -> print_stack out ~symtab ~locals:true p
              | "$c" -> print_stack out ~symtab ~locals:false p
              | "$r" -> print_regs out p
              | "$n" -> Buffer.add_string out (p.pr_note ^ "\n")
              | "$s" -> Buffer.add_string out (srcdir () ^ "\n")
              | c ->
                  Buffer.add_string (Rc.proc_err proc)
                    (Printf.sprintf "adb: unknown request %s\n" c))
            commands;
          0)

let ps_native db proc _args =
  List.iter
    (fun p ->
      Buffer.add_string (Rc.proc_out proc)
        (Printf.sprintf "%-10s %8d %8s %s\n" "rob" p.pr_pid p.pr_status p.pr_cmd))
    db.procs;
  0

(* ------------------------------------------------------------------ *)
(* /help/db scripts                                                    *)

let stf = "ps\tpc\tregs\tbroke\nstack\tkstack\tnextkstack\n"

(* The tag carries the crashed binary's source directory, so that
   pointing at "text.c:32" in the traceback and clicking Open resolves
   in the right place — the context rule at work. *)
let stack_script =
  "eval `{help/parse -n}\n\
   d=`{echo '$s' | adb $num}\n\
   x=`{cat /mnt/help/new/ctl}\n\
   echo tag $d/' '$num' stack Close!' > /mnt/help/$x/ctl\n\
   echo '$C' | adb $num > /mnt/help/$x/bodyapp\n"

let regs_script =
  "eval `{help/parse -n}\n\
   d=`{echo '$s' | adb $num}\n\
   x=`{cat /mnt/help/new/ctl}\n\
   echo tag $d/' '$num' regs Close!' > /mnt/help/$x/ctl\n\
   echo '$r' | adb $num > /mnt/help/$x/bodyapp\n"

let pc_script =
  "eval `{help/parse -n}\n\
   d=`{echo '$s' | adb $num}\n\
   x=`{cat /mnt/help/new/ctl}\n\
   echo tag $d/' '$num' pc Close!' > /mnt/help/$x/ctl\n\
   echo '$r' | adb $num | grep pc > /mnt/help/$x/bodyapp\n"

let ps_script =
  "x=`{cat /mnt/help/new/ctl}\n\
   echo tag ps' Close!' > /mnt/help/$x/ctl\n\
   ps > /mnt/help/$x/bodyapp\n"

let broke_script =
  "x=`{cat /mnt/help/new/ctl}\n\
   echo tag broke' Close!' > /mnt/help/$x/ctl\n\
   ps | grep Broken > /mnt/help/$x/bodyapp\n"

let kstack_script =
  "eval `{help/parse -n}\n\
   x=`{cat /mnt/help/new/ctl}\n\
   echo tag $dir/' '$num' kstack Close!' > /mnt/help/$x/ctl\n\
   echo '$n' | adb $num > /mnt/help/$x/bodyapp\n"

let install sh db =
  Rc.register sh "/bin/vc" vc_native;
  Rc.register sh "/bin/vl" vl_native;
  Rc.register sh "/bin/adb" (adb_native db);
  Rc.register sh "/bin/ps" (ps_native db);
  let ns = Rc.ns sh in
  Vfs.mkdir_p ns "/help/db";
  Vfs.write_file ns "/help/db/stf" stf;
  Vfs.write_file ns "/help/db/stack" stack_script;
  Vfs.write_file ns "/help/db/regs" regs_script;
  Vfs.write_file ns "/help/db/pc" pc_script;
  Vfs.write_file ns "/help/db/ps" ps_script;
  Vfs.write_file ns "/help/db/broke" broke_script;
  Vfs.write_file ns "/help/db/kstack" kstack_script;
  Vfs.write_file ns "/help/db/nextkstack" kstack_script
