(* The reference grep: the first coreutils [grep], kept to hold the
   in-place one to.  It splits each file into a list of line strings,
   lowercases each line again under -i, and matches the lines one by
   one through [Hsearch.matches].  Slow, but plainly the definition.
   It reads every file it is given: the trigram pruning in front of the
   real grep is sound, so leaving it out changes no output, and a
   property against this reference checks the pruning as well. *)

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
          let matched = ref false in
          let scan label data =
            List.iteri
              (fun i line ->
                let subject =
                  if nocase then String.lowercase_ascii line else line
                in
                let hit = Hsearch.matches needle subject in
                if hit <> invert then begin
                  matched := true;
                  let prefix =
                    (match label with Some f -> f ^ ":" | None -> "")
                    ^ (if number then string_of_int (i + 1) ^ ":" else "")
                  in
                  out_line proc (prefix ^ line)
                end)
              (lines data)
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
                files);
          if !matched then 0 else 1)
