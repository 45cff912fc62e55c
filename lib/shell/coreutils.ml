(* Standard native tools: the Plan 9 userland commands the paper's
   session relies on, implemented against the VFS and registered under
   /bin.  Each is a [Rc.native]. *)

let lines s =
  if s = "" then []
  else
    let parts = String.split_on_char '\n' s in
    match List.rev parts with "" :: rest -> List.rev rest | _ -> parts

let abspath proc p =
  if String.length p > 0 && p.[0] = '/' then Vfs.normalize p
  else Vfs.normalize (Rc.proc_cwd proc ^ "/" ^ p)

let out_line proc s =
  Buffer.add_string (Rc.proc_out proc) s;
  Buffer.add_char (Rc.proc_out proc) '\n'

let fail proc msg =
  Buffer.add_string (Rc.proc_err proc) msg;
  Buffer.add_char (Rc.proc_err proc) '\n';
  1

let read_file_or_fail proc path k =
  match Vfs.read_file (Rc.proc_ns proc) (abspath proc path) with
  | data -> k data
  | exception Vfs.Error e ->
      fail proc (Printf.sprintf "%s: %s" path (Vfs.error_message e))

let echo proc args =
  let args = List.tl args in
  let newline, args =
    match args with "-n" :: rest -> (false, rest) | _ -> (true, args)
  in
  Buffer.add_string (Rc.proc_out proc) (String.concat " " args);
  if newline then Buffer.add_char (Rc.proc_out proc) '\n';
  0

let cat proc args =
  match List.tl args with
  | [] ->
      Buffer.add_string (Rc.proc_out proc) (Rc.proc_stdin proc);
      0
  | files ->
      List.fold_left
        (fun st f ->
          match
            read_file_or_fail proc f (fun data ->
                Buffer.add_string (Rc.proc_out proc) data;
                0)
          with
          | 0 -> st
          | e -> e)
        0 files

let cp proc args =
  match List.tl args with
  | [ src; dst ] ->
      read_file_or_fail proc src (fun data ->
          Vfs.write_file (Rc.proc_ns proc) (abspath proc dst) data;
          0)
  | _ -> fail proc "usage: cp from to"

let mv proc args =
  match List.tl args with
  | [ src; dst ] ->
      read_file_or_fail proc src (fun data ->
          Vfs.write_file (Rc.proc_ns proc) (abspath proc dst) data;
          Vfs.remove (Rc.proc_ns proc) (abspath proc src);
          0)
  | _ -> fail proc "usage: mv from to"

let rm proc args =
  List.fold_left
    (fun st f ->
      match Vfs.remove (Rc.proc_ns proc) (abspath proc f) with
      | () -> st
      | exception Vfs.Error e ->
          fail proc (Printf.sprintf "rm: %s: %s" f (Vfs.error_message e)))
    0 (List.tl args)

let mkdir proc args =
  List.fold_left
    (fun st d ->
      match Vfs.mkdir_p (Rc.proc_ns proc) (abspath proc d) with
      | () -> st
      | exception Vfs.Error e ->
          fail proc (Printf.sprintf "mkdir: %s: %s" d (Vfs.error_message e)))
    0 (List.tl args)

let ls proc args =
  let long, paths =
    List.partition (fun a -> a = "-l") (List.tl args)
  in
  let long = long <> [] in
  let paths = if paths = [] then [ "." ] else paths in
  let ns = Rc.proc_ns proc in
  List.fold_left
    (fun st p ->
      let path = abspath proc p in
      let entry (e : Vfs.stat) prefix =
        if long then
          out_line proc
            (Printf.sprintf "%s%s%s %6d %4d %s"
               (if e.st_dir then "d" else "-")
               "rw" "xr" e.st_length e.st_mtime (prefix ^ e.st_name))
        else out_line proc (prefix ^ e.st_name)
      in
      match Vfs.stat ns path with
      | st_ when st_.Vfs.st_dir ->
          List.iter (fun e -> entry e "") (Vfs.readdir ns path);
          st
      | st_ ->
          entry st_ "";
          st
      | exception Vfs.Error e ->
          fail proc (Printf.sprintf "ls: %s: %s" p (Vfs.error_message e)))
    0 paths

let grep proc args =
  let args = List.tl args in
  let rec parse_flags flags = function
    | "-n" :: rest -> parse_flags (`N :: flags) rest
    | "-v" :: rest -> parse_flags (`V :: flags) rest
    | "-i" :: rest -> parse_flags (`I :: flags) rest
    | rest -> (flags, rest)
  in
  let flags, rest = parse_flags [] args in
  let number = List.mem `N flags in
  let invert = List.mem `V flags in
  let nocase = List.mem `I flags in
  match rest with
  | [] -> fail proc "usage: grep [-niv] pattern [file ...]"
  | pattern :: files -> (
      let pattern = if nocase then String.lowercase_ascii pattern else pattern in
      match Regexp.compile pattern with
      | exception Regexp.Parse_error msg -> fail proc ("grep: " ^ msg)
      | re ->
          let needle = Hsearch.Pattern re in
          let out = Rc.proc_out proc in
          let matched = ref false in
          (* Lines are decided where they lie and only printed ones are
             copied, straight into the output; under -i the walk runs
             on a lowercased copy, whose offsets are the original's. *)
          let scan label data =
            let subject = if nocase then String.lowercase_ascii data else data in
            Hsearch.iter_lines ~invert needle subject (fun line start stop ->
                matched := true;
                (match label with
                | Some f ->
                    Buffer.add_string out f;
                    Buffer.add_char out ':'
                | None -> ());
                if number then begin
                  Buffer.add_string out (string_of_int line);
                  Buffer.add_char out ':'
                end;
                Buffer.add_substring out data start (stop - start);
                Buffer.add_char out '\n')
          in
          (* Corpus-scale candidate selection: the trigram index rules
             out files that cannot contain a match before they are
             read.  Unsound under -v (non-matching files print every
             line) and -i (the index stores original case), so those
             fall back to the full scan; pruned files are exactly the
             ones that would have produced no output and no error. *)
          let prune files =
            if invert || nocase || List.length files < 2 then files
            else
              (* unreadable paths survive pruning, so error reporting
                 is untouched *)
              Index.prune_names
                (Index.of_ns (Rc.proc_ns proc))
                (Index.plan re) ~cwd:(Rc.proc_cwd proc) files
          in
          (match files with
          | [] -> scan None (Rc.proc_stdin proc)
          | [ f ] ->
              ignore
                (read_file_or_fail proc f (fun d ->
                     scan (if number then Some f else None) d;
                     0))
          | files ->
              List.iter
                (fun f ->
                  ignore
                    (read_file_or_fail proc f (fun d ->
                         scan (Some f) d;
                         0)))
                (prune files));
          if !matched then 0 else 1)

(* sed: the small subset the paper's scripts use: 'Nq' (quit after N
   lines), 's/re/repl/[g]', '-n Np' (print only line N), 'd' ranges are
   not needed. *)
let sed proc args =
  let args = List.tl args in
  let quiet, args =
    match args with "-n" :: rest -> (true, rest) | _ -> (false, args)
  in
  match args with
  | [] -> fail proc "usage: sed [-n] script [file]"
  | script :: files ->
      let input =
        match files with
        | [] -> Some (Rc.proc_stdin proc)
        | f :: _ -> (
            match Vfs.read_file (Rc.proc_ns proc) (abspath proc f) with
            | d -> Some d
            | exception Vfs.Error e ->
                ignore (fail proc (Printf.sprintf "sed: %s: %s" f (Vfs.error_message e)));
                None)
      in
      (match input with
      | None -> 1
      | Some data ->
          let ls = lines data in
          let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s in
          let n = String.length script in
          if n >= 2 && script.[n - 1] = 'q' && is_digits (String.sub script 0 (n - 1))
          then begin
            let k = int_of_string (String.sub script 0 (n - 1)) in
            List.iteri (fun i l -> if i < k then out_line proc l) ls;
            0
          end
          else if
            n >= 2 && script.[n - 1] = 'p' && quiet
            && is_digits (String.sub script 0 (n - 1))
          then begin
            let k = int_of_string (String.sub script 0 (n - 1)) in
            List.iteri (fun i l -> if i + 1 = k then out_line proc l) ls;
            0
          end
          else if n >= 4 && script.[0] = 's' then begin
            let delim = script.[1] in
            match String.split_on_char delim script with
            | [ "s"; re_src; repl; flags ] -> (
                match Regexp.compile re_src with
                | exception Regexp.Parse_error msg -> fail proc ("sed: " ^ msg)
                | re ->
                    let global = flags = "g" in
                    (* empty matches are replaced only under [g] (the
                       historical guard [b > a || global]); the limit
                       bounds nullable patterns that used to loop *)
                    List.iter
                      (fun l ->
                        let l', _ =
                          Hsearch.subst re ~repl ~global ~empty_ok:global
                            ~empty_advance:0
                            ~limit:(if global then 10000 else 1)
                            l
                        in
                        out_line proc l')
                      ls;
                    0)
            | _ -> fail proc "sed: bad substitution"
          end
          else fail proc ("sed: unsupported script: " ^ script))

let head proc args =
  let args = List.tl args in
  let k, files =
    match args with
    | "-n" :: n :: rest -> ((try int_of_string n with _ -> 10), rest)
    | _ -> (10, args)
  in
  let data =
    match files with
    | [] -> Some (Rc.proc_stdin proc)
    | f :: _ -> (
        match Vfs.read_file (Rc.proc_ns proc) (abspath proc f) with
        | d -> Some d
        | exception Vfs.Error _ -> None)
  in
  match data with
  | None -> fail proc "head: cannot read input"
  | Some d ->
      List.iteri (fun i l -> if i < k then out_line proc l) (lines d);
      0

let wc proc args =
  let args = List.tl args in
  let lines_only, files =
    match args with "-l" :: rest -> (true, rest) | _ -> (false, args)
  in
  let count label data =
    let nl = List.length (lines data) in
    let nw = List.length (String.split_on_char ' ' (String.trim data)) in
    let nc = String.length data in
    if lines_only then
      out_line proc (Printf.sprintf "%7d %s" nl label)
    else out_line proc (Printf.sprintf "%7d %7d %7d %s" nl nw nc label)
  in
  (match files with
  | [] -> count "" (Rc.proc_stdin proc)
  | fs ->
      List.iter
        (fun f ->
          ignore
            (read_file_or_fail proc f (fun d ->
                 count f d;
                 0)))
        fs);
  0

let sort proc args =
  let files = List.tl args in
  let data =
    match files with
    | [] -> Rc.proc_stdin proc
    | f :: _ -> (
        try Vfs.read_file (Rc.proc_ns proc) (abspath proc f)
        with Vfs.Error _ -> "")
  in
  List.iter (out_line proc) (List.sort compare (lines data));
  0

let uniq proc args =
  let _ = args in
  let rec go prev = function
    | [] -> ()
    | l :: rest ->
        if Some l <> prev then out_line proc l;
        go (Some l) rest
  in
  go None (lines (Rc.proc_stdin proc));
  0

let date proc _args =
  (* Logical time rendered in the paper's style. *)
  let t = Vfs.now (Rc.proc_ns proc) in
  out_line proc (Printf.sprintf "Tue Apr 16 19:%02d:%02d EDT 1991" (t / 60 mod 60) (t mod 60));
  0

let touch proc args =
  let ns = Rc.proc_ns proc in
  List.iter
    (fun f ->
      let p = abspath proc f in
      let data = try Vfs.read_file ns p with Vfs.Error _ -> "" in
      Vfs.write_file ns p data)
    (List.tl args);
  0

let bind proc args =
  let ns = Rc.proc_ns proc in
  match List.tl args with
  | [ "-a"; src; dst ] | [ "-b"; src; dst ] ->
      if not (Vfs.is_dir ns (abspath proc src)) then
        fail proc (Printf.sprintf "bind: %s: not a directory" src)
      else begin
        Vfs.bind_after ns (abspath proc dst) (Vfs.subtree ns (abspath proc src));
        0
      end
  | [ src; dst ] ->
      if not (Vfs.exists ns (abspath proc src)) then
        fail proc (Printf.sprintf "bind: %s does not exist" src)
      else begin
        Vfs.mount ns (abspath proc dst) (Vfs.subtree ns (abspath proc src));
        0
      end
  | _ -> fail proc "usage: bind [-a|-b] new old"

let fortunes =
  [|
    "The cheapest, fastest and most reliable components are those that aren't there.";
    "When in doubt, use brute force.";
    "Controlling complexity is the essence of computer programming.";
    "A program that produces incorrect results twice as fast is infinitely slower.";
    "Simplicity is the ultimate sophistication.";
  |]

let fortune proc _args =
  let t = Vfs.now (Rc.proc_ns proc) in
  out_line proc fortunes.(t mod Array.length fortunes);
  0

let news proc _args =
  match Vfs.read_file (Rc.proc_ns proc) "/lib/news" with
  | data ->
      Buffer.add_string (Rc.proc_out proc) data;
      0
  | exception Vfs.Error _ ->
      out_line proc "no news is good news";
      0

let tail proc args =
  let args = List.tl args in
  let k, files =
    match args with
    | "-n" :: n :: rest -> ((try int_of_string n with _ -> 10), rest)
    | _ -> (10, args)
  in
  let data =
    match files with
    | [] -> Some (Rc.proc_stdin proc)
    | f :: _ -> (
        match Vfs.read_file (Rc.proc_ns proc) (abspath proc f) with
        | d -> Some d
        | exception Vfs.Error _ -> None)
  in
  (match data with
  | None -> ignore (fail proc "tail: cannot read input")
  | Some d ->
      let ls = lines d in
      let n = List.length ls in
      List.iteri (fun i l -> if i >= n - k then out_line proc l) ls);
  0

let tee proc args =
  let data = Rc.proc_stdin proc in
  Buffer.add_string (Rc.proc_out proc) data;
  List.fold_left
    (fun st f ->
      match Vfs.write_file (Rc.proc_ns proc) (abspath proc f) data with
      | () -> st
      | exception Vfs.Error e ->
          fail proc (Printf.sprintf "tee: %s: %s" f (Vfs.error_message e)))
    0 (List.tl args)

(* tr set1 set2 / tr -d set1, with a-z ranges *)
let tr proc args =
  let expand_set s =
    let b = Buffer.create 32 in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if !i + 2 < n && s.[!i + 1] = '-' && s.[!i + 2] >= s.[!i] then begin
        for c = Char.code s.[!i] to Char.code s.[!i + 2] do
          Buffer.add_char b (Char.chr c)
        done;
        i := !i + 3
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    Buffer.contents b
  in
  let data = Rc.proc_stdin proc in
  match List.tl args with
  | [ "-d"; set ] ->
      let set = expand_set set in
      String.iter
        (fun c ->
          if not (String.contains set c) then
            Buffer.add_char (Rc.proc_out proc) c)
        data;
      0
  | [ from_set; to_set ] ->
      let from_set = expand_set from_set and to_set = expand_set to_set in
      let last = String.length to_set - 1 in
      if last < 0 then fail proc "tr: empty replacement set"
      else begin
        String.iter
          (fun c ->
            match String.index_opt from_set c with
            | Some i -> Buffer.add_char (Rc.proc_out proc) to_set.[min i last]
            | None -> Buffer.add_char (Rc.proc_out proc) c)
          data;
        0
      end
  | _ -> fail proc "usage: tr [-d] set1 [set2]"

let cmp proc args =
  match List.tl args with
  | [ a; b ] -> (
      match
        ( Vfs.read_file (Rc.proc_ns proc) (abspath proc a),
          Vfs.read_file (Rc.proc_ns proc) (abspath proc b) )
      with
      | da, db ->
          if da = db then 0
          else begin
            let n = min (String.length da) (String.length db) in
            let rec first i = if i < n && da.[i] = db.[i] then first (i + 1) else i in
            out_line proc
              (Printf.sprintf "%s %s differ: char %d" a b (first 0 + 1));
            1
          end
      | exception Vfs.Error e -> fail proc (Printf.sprintf "cmp: %s" (Vfs.error_message e)))
  | _ -> fail proc "usage: cmp file1 file2"

(* rc(1)'s documented file mode: run a script file in the current
   process, so its variable assignments stick. *)
let rc_tool proc args =
  match List.tl args with
  | [ f ] ->
      read_file_or_fail proc f (fun src ->
          let out, st = Rc.run_in proc src in
          Buffer.add_string (Rc.proc_out proc) out;
          st)
  | _ -> fail proc "usage: rc file"

let basename_tool proc args =
  match List.tl args with
  | [ p ] ->
      out_line proc (Vfs.basename p);
      0
  | _ -> fail proc "usage: basename path"

let install sh =
  let reg name f = Rc.register sh ("/bin/" ^ name) f in
  reg "echo" echo;
  reg "cat" cat;
  reg "cp" cp;
  reg "mv" mv;
  reg "rm" rm;
  reg "mkdir" mkdir;
  reg "ls" ls;
  reg "lc" ls;
  reg "grep" grep;
  reg "sed" sed;
  reg "head" head;
  reg "wc" wc;
  reg "sort" sort;
  reg "uniq" uniq;
  reg "date" date;
  reg "touch" touch;
  reg "bind" bind;
  reg "fortune" fortune;
  reg "news" news;
  reg "basename" basename_tool;
  reg "tail" tail;
  reg "tee" tee;
  reg "tr" tr;
  reg "cmp" cmp;
  reg "rc" rc_tool
