type program = C_symbols.program

(* ------------------------------------------------------------------ *)
(* Preprocessor-lite                                                   *)

let starts_with prefix s = Hstr.starts_with ~prefix s

(* String.trim's white space. *)
let is_space c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

let rec skip_space s i stop =
  if i < stop && is_space (String.unsafe_get s i) then skip_space s (i + 1) stop else i

let rec find_char s c i stop =
  if i >= stop then -1
  else if String.unsafe_get s i = c then i
  else find_char s c (i + 1) stop

let rec is_include s k j =
  j = 8 || (String.unsafe_get s (k + j) = "#include".[j] && is_include s k (j + 1))

(* The #include directive on the line [s[i, stop)], read where it lies:
   (name, system?) or None.  After leading white space the line starts
   with [#include]; after more white space comes ["name"] or [<name>]
   with its closing quote on the line.  Only the name is copied. *)
let include_at s i stop =
  let k = skip_space s i stop in
  if k + 8 > stop || not (is_include s k 0) then None
  else
    let p = skip_space s (k + 8) stop in
    let name close system =
      match find_char s close (p + 1) stop with
      | -1 -> None
      | q -> Some (String.sub s (p + 1) (q - p - 1), system)
    in
    if p >= stop then None
    else
      match String.unsafe_get s p with
      | '"' -> name '"' false
      | '<' -> name '>' true
      | _ -> None

(* One pass over each file's bytes.  Runs of ordinary lines are copied
   to [out] whole, '\n's and all; an include line is replaced by the
   included file (once per file) and a marker.  The file's last
   segment, empty when the file ends in a newline, gets a '\n' of its
   own, as splitting on '\n' would give it. *)
let preprocess_into out ns ~dir path =
  let included = Hashtbl.create 8 in
  let marker line file =
    Buffer.add_string out "# ";
    Buffer.add_string out (string_of_int line);
    Buffer.add_string out " \"";
    Buffer.add_string out file;
    Buffer.add_string out "\"\n"
  in
  let rec expand abs display =
    match Vfs.read_file ns abs with
    | exception Vfs.Error _ ->
        Buffer.add_string out "/* missing include: ";
        Buffer.add_string out display;
        Buffer.add_string out " */\n"
    | s ->
        Hashtbl.replace included abs ();
        marker 1 display;
        let n = String.length s in
        let here = lazy (Vfs.dirname abs) in
        (* [run] is where the bytes not yet copied start *)
        let rec lines i line run =
          let eol = Hstr.line_end s i in
          match include_at s i eol with
          | None ->
              if eol < n then lines (eol + 1) (line + 1) run
              else begin
                Buffer.add_substring out s run (n - run);
                Buffer.add_char out '\n'
              end
          | Some (name, system) ->
              Buffer.add_substring out s run (i - run);
              let absolute = starts_with "/" name in
              let iabs =
                if absolute then Vfs.normalize name
                else
                  Vfs.normalize
                    ((if system then "/sys/include" else Lazy.force here) ^ "/" ^ name)
              in
              if not (Hashtbl.mem included iabs) then
                expand iabs (if system || absolute then name else "./" ^ name);
              marker (line + 1) display;
              if eol < n then lines (eol + 1) (line + 1) (eol + 1)
        in
        lines 0 1 0
  in
  expand
    (if starts_with "/" path then Vfs.normalize path
     else Vfs.normalize (dir ^ "/" ^ path))
    path

let preprocess ns ~dir path =
  let out = Buffer.create 4096 in
  preprocess_into out ns ~dir path;
  Buffer.contents out

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)

(* Per-file cache of isolated-unit parses.  A unit's parse is a pure
   function of its preprocessed text and the typedef names inherited
   from earlier units, so entries are keyed on a digest of both;
   preprocessing itself (string splicing) is redone every time, which
   also makes edits to headers invalidate every includer for free. *)
type index = {
  units : (string, Digest.t * C_symbols.cunit) Hashtbl.t;  (* by file *)
  base : int * int;  (* registry (hit, miss) at creation *)
}

(* The unit-cache ledger lives in the global observability registry;
   an index snapshots it at creation and [index_stats] reports deltas
   (process-wide if several indexes run interleaved). *)
let m_hit = Trace.counter "cbr.unit.hit"
let m_miss = Trace.counter "cbr.unit.miss"
let m_link_us = Trace.histogram "cbr.link.us"

let create_index () =
  { units = Hashtbl.create 16;
    base = (Trace.value m_hit, Trace.value m_miss) }

let index_stats idx =
  let bh, bm = idx.base in
  (Trace.value m_hit - bh, Trace.value m_miss - bm)

let analyze ?index ns ~cwd files =
  match index with
  | None ->
      (* reference path: one shared symbol-table state across units *)
      let st = C_symbols.create_state () in
      List.iter
        (fun file ->
          let text = preprocess ns ~dir:cwd file in
          let toks = C_lexer.tokenize ~file text in
          C_symbols.parse_unit st toks)
        files;
      C_symbols.finish st
  | Some idx ->
      (* incremental path: per-unit parses from the cache, then link *)
      Trace.with_span_result "cbr.analyze" (fun () ->
      let h0 = Trace.value m_hit and m0 = Trace.value m_miss in
      let typedefs = ref [] in  (* inherited names, newest first *)
      let units =
        List.map
          (fun file ->
            let text = preprocess ns ~dir:cwd file in
            let key =
              Digest.string
                (String.concat "\x00"
                   (file :: text :: List.sort compare !typedefs))
            in
            let u =
              match Hashtbl.find_opt idx.units file with
              | Some (k, u) when k = key ->
                  Trace.incr m_hit;
                  u
              | _ ->
                  Trace.incr m_miss;
                  let toks = C_lexer.tokenize ~file text in
                  let u =
                    C_symbols.parse_unit_isolated ~typedefs:!typedefs toks
                  in
                  Hashtbl.replace idx.units file (key, u);
                  u
            in
            typedefs := List.rev_append u.C_symbols.u_typedefs !typedefs;
            u)
          files
      in
      (* the replay/link step, timed on its own *)
      let program =
        Trace.with_span "cbr.link" (fun () ->
            let t0 = Trace.now_us () in
            let program = C_symbols.link units in
            Trace.observe m_link_us (Trace.now_us () - t0);
            program)
      in
      ( program,
        [ ("units", string_of_int (List.length files));
          ("hit", string_of_int (Trace.value m_hit - h0));
          ("miss", string_of_int (Trace.value m_miss - m0)) ] ))

let file_eq a b =
  let strip s = if starts_with "./" s then String.sub s 2 (String.length s - 2) else s in
  strip a = strip b || Vfs.basename a = Vfs.basename b

let find_occurrence (p : program) ~file ~line ~name =
  List.find_opt
    (fun (o : C_symbols.occurrence) ->
      o.o_name = name && o.o_pos.line = line && file_eq o.o_pos.file file)
    p.C_symbols.p_occs

let decl_by_id (p : program) id =
  List.find_opt (fun (d : C_symbols.decl) -> d.d_id = id) p.C_symbols.p_decls

let decl_of p ~file ~line ~name =
  match find_occurrence p ~file ~line ~name with
  | None -> None
  | Some occ -> (
      match occ.o_decl with
      | None -> None
      | Some id -> (
          match decl_by_id p id with
          | None -> None
          | Some d ->
              Some (d.d_pos.file, d.d_pos.line, C_symbols.kind_name d.d_kind)))

let uses_of p ~file ~line ~name =
  match find_occurrence p ~file ~line ~name with
  | None -> []
  | Some occ -> (
      match occ.o_decl with
      | None -> []
      | Some id -> (
          match decl_by_id p id with
          | None -> []
          | Some d ->
              (* For a global, collect references to any same-named global
                 declaration (extern in a header and the definition are the
                 same object); for locals, exactly this decl. *)
              let target_ids =
                if d.d_global then
                  List.filter_map
                    (fun (d' : C_symbols.decl) ->
                      if d'.d_global && d'.d_name = d.d_name then Some d'.d_id
                      else None)
                    p.C_symbols.p_decls
                else [ id ]
              in
              List.filter_map
                (fun (o : C_symbols.occurrence) ->
                  match o.o_decl with
                  | Some oid when List.mem oid target_ids ->
                      Some (o.o_pos.file, o.o_pos.line)
                  | _ -> None)
                p.C_symbols.p_occs
              |> List.sort_uniq compare))

(* Candidate selection for the textual queries: the trigram index
   prunes the unit list before any file is read.  A unit that lacks a
   required trigram of the needle cannot contain it, so the count (and
   the analysis below) is unchanged — only the work shrinks. *)
let select_units ?search ~cwd files needle =
  match search with
  | None -> files
  | Some ix -> Index.prune_names ix (Index.plan_literal needle) ~cwd files

let grep_count ?search ns ~cwd files pattern =
  let files =
    if pattern = "" then files else select_units ?search ~cwd files pattern
  in
  List.fold_left
    (fun acc file ->
      let abs =
        if starts_with "/" file then file else Vfs.normalize (cwd ^ "/" ^ file)
      in
      match Vfs.read_file ns abs with
      | exception Vfs.Error _ -> acc
      | content ->
          if pattern = "" then acc
          else
            acc + Hsearch.count_matching_lines (Hsearch.Literal pattern) content)
    0 files

(* [uses] at corpus scale: any unit referencing [name] contains it
   textually, so the trigram index selects the units worth analyzing
   (the anchor unit is always kept).  With the synthetic corpora this
   turns a whole-program analysis into a couple of units; results are
   identical because occurrences can only come from units that mention
   the identifier (headers are spliced into whichever candidate
   includes them, and [uses_of] deduplicates positions). *)
let uses_at ?search ?index ns ~cwd files ~file ~line ~name =
  let units = select_units ?search ~cwd files name in
  let units = if List.mem file units then units else file :: units in
  let p = analyze ?index ns ~cwd units in
  uses_of p ~file ~line ~name

(* ------------------------------------------------------------------ *)
(* Native tools                                                        *)

let cpp_native proc args =
  let files =
    List.filter (fun a -> not (starts_with "-" a)) (List.tl args)
  in
  match files with
  | [] ->
      Buffer.add_string (Rc.proc_err proc) "cpp: no input files\n";
      1
  | files ->
      List.iter
        (fun f ->
          preprocess_into (Rc.proc_out proc) (Rc.proc_ns proc)
            ~dir:(Rc.proc_cwd proc) f)
        files;
      0

(* [decl] then [uses] of the same identifier pipe the same preprocessed
   text through rcc twice; memoize the analysis on a digest of stdin.
   Programs are immutable, so sharing the value is safe.  Bounded: the
   table is dropped wholesale when it grows past a handful of builds. *)
let rcc_memo : (Digest.t, program) Hashtbl.t = Hashtbl.create 8

let rcc_program text =
  let key = Digest.string text in
  match Hashtbl.find_opt rcc_memo key with
  | Some p -> p
  | None ->
      let st = C_symbols.create_state () in
      let toks = C_lexer.tokenize ~file:"<stdin>" text in
      C_symbols.parse_unit st toks;
      let p = C_symbols.finish st in
      if Hashtbl.length rcc_memo >= 32 then Hashtbl.reset rcc_memo;
      Hashtbl.add rcc_memo key p;
      p

(* rcc -w -g -i<ident> -n<line> -s<file> [-u]: the compiler without a
   code generator.  Reads preprocessed C on stdin; prints the
   declaration coordinate of <ident> at <file>:<line> (or all its
   references with -u). *)
let rcc_native proc args =
  let ident = ref "" and line = ref 0 and file = ref "" and uses = ref false in
  List.iter
    (fun a ->
      if starts_with "-i" a then ident := String.sub a 2 (String.length a - 2)
      else if starts_with "-n" a then
        line := (try int_of_string (String.sub a 2 (String.length a - 2)) with _ -> 0)
      else if starts_with "-s" a then file := String.sub a 2 (String.length a - 2)
      else if a = "-u" then uses := true)
    (List.tl args);
  if !ident = "" then begin
    Buffer.add_string (Rc.proc_err proc) "rcc: no identifier (-i)\n";
    1
  end
  else
    match rcc_program (Rc.proc_stdin proc) with
    | exception C_lexer.Lex_error (msg, pos) ->
        Buffer.add_string (Rc.proc_err proc)
          (Printf.sprintf "rcc: %s:%d: %s\n" pos.file pos.line msg);
        1
    | p ->
        (* If no position was given, use the identifier's first occurrence. *)
        let file, line =
          if !line > 0 && !file <> "" then (!file, !line)
          else
            match
              List.find_opt
                (fun (o : C_symbols.occurrence) -> o.o_name = !ident)
                p.C_symbols.p_occs
            with
            | Some o -> (o.o_pos.file, o.o_pos.line)
            | None -> (!file, !line)
        in
        if !uses then begin
          match uses_of p ~file ~line ~name:!ident with
          | [] ->
              Buffer.add_string (Rc.proc_err proc)
                (Printf.sprintf "rcc: %s: no references found\n" !ident);
              1
          | refs ->
              List.iter
                (fun (f, l) ->
                  Buffer.add_string (Rc.proc_out proc)
                    (Printf.sprintf "%s:%d\n" f l))
                refs;
              0
        end
        else begin
          match decl_of p ~file ~line ~name:!ident with
          | Some (f, l, kind) ->
              Buffer.add_string (Rc.proc_out proc)
                (Printf.sprintf "%s:%d	/* declaration of %s (%s) */\n" f l !ident kind);
              0
          | None ->
              Buffer.add_string (Rc.proc_err proc)
                (Printf.sprintf "rcc: %s: declaration not found\n" !ident);
              1
        end

(* ------------------------------------------------------------------ *)
(* Tool scripts                                                        *)

let stf = "Open mk src decl uses *.c\n"

(* decl: three button clicks fetch the declaration of whatever C object
   the user points at, "from whatever file in which it resides".  The
   script runs in the directory of the window holding the selection
   (the context rule), so coordinates come out relative to it and can
   themselves be Opened. *)
let decl_script =
  "eval `{help/parse -c}\n\
   x=`{cat /mnt/help/new/ctl}\n\
   echo tag $dir/' decl '$id' Close!' > /mnt/help/$x/ctl\n\
   cd $dir\n\
   f=`{basename $file}\n\
   cpp $cppflags $f | rcc -w -g -i$id -n$line -s$f | sed 1q > /mnt/help/$x/bodyapp\n\
   echo select 0 0 > /mnt/help/$x/ctl\n"

(* uses: the file arguments ("*.c") are re-evaluated in the selection's
   directory, which is where the pattern is meant to glob. *)
let uses_script =
  "eval `{help/parse -c}\n\
   x=`{cat /mnt/help/new/ctl}\n\
   echo tag $dir/' uses '$id' Close!' > /mnt/help/$x/ctl\n\
   cd $dir\n\
   f=`{basename $file}\n\
   eval cpp $cppflags $* | rcc -u -i$id -n$line -s$f > /mnt/help/$x/bodyapp\n"

(* mk: compile in the directory of the selection, not of the tool. *)
let mk_script =
  "eval `{help/parse}\n\
   cd $dir\n\
   /bin/mk $*\n"

(* src: show the source of a command found on $path. *)
let src_script =
  "eval `{help/parse -w}\n\
   x=`{cat /mnt/help/new/ctl}\n\
   echo tag src' '$id' Close!' > /mnt/help/$x/ctl\n\
   cat `{whereis $id} > /mnt/help/$x/bodyapp\n"

let whereis_native proc args =
  match List.tl args with
  | [ name ] -> (
      match Rc.resolve (Rc.proc_shell proc) ~cwd:(Rc.proc_cwd proc) name with
      | Some path ->
          Buffer.add_string (Rc.proc_out proc) (path ^ "\n");
          0
      | None ->
          Buffer.add_string (Rc.proc_err proc)
            (Printf.sprintf "whereis: %s: not found\n" name);
          1)
  | _ ->
      Buffer.add_string (Rc.proc_err proc) "usage: whereis name\n";
      1

let install sh =
  Rc.register sh "/bin/cpp" cpp_native;
  Rc.register sh "/bin/rcc" rcc_native;
  Rc.register sh "/bin/whereis" whereis_native;
  let ns = Rc.ns sh in
  Vfs.mkdir_p ns "/help/cbr";
  Vfs.write_file ns "/help/cbr/stf" stf;
  Vfs.write_file ns "/help/cbr/decl" decl_script;
  Vfs.write_file ns "/help/cbr/uses" uses_script;
  Vfs.write_file ns "/help/cbr/src" src_script;
  Vfs.write_file ns "/help/cbr/mk" mk_script
