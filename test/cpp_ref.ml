(* The reference preprocessor: the first [Cbr.preprocess], kept to hold
   the one-pass version to.  It splits each file into a list of lines,
   trims every line to look for [#include], and builds each
   [# N "file"] marker with [Printf.sprintf].  Slow, but plainly the
   definition, down to the empty line it emits after a file's final
   newline. *)

let starts_with prefix s = Hstr.starts_with ~prefix s

(* Parse an #include line; returns (name, system?) or None. *)
let include_of line =
  let t = String.trim line in
  if not (starts_with "#include" t) then None
  else
    let rest = String.trim (String.sub t 8 (String.length t - 8)) in
    let n = String.length rest in
    if n >= 2 && rest.[0] = '"' then
      match String.index_from_opt rest 1 '"' with
      | Some stop -> Some (String.sub rest 1 (stop - 1), false)
      | None -> None
    else if n >= 2 && rest.[0] = '<' then
      match String.index_from_opt rest 1 '>' with
      | Some stop -> Some (String.sub rest 1 (stop - 1), true)
      | None -> None
    else None

let preprocess ns ~dir path =
  let out = Buffer.create 4096 in
  let included = Hashtbl.create 8 in
  let marker line file = Printf.sprintf "# %d \"%s\"\n" line file in
  let rec expand ~dir ~display path =
    let abs =
      if starts_with "/" path then Vfs.normalize path
      else Vfs.normalize (dir ^ "/" ^ path)
    in
    match Vfs.read_file ns abs with
    | exception Vfs.Error _ ->
        Buffer.add_string out
          (Printf.sprintf "/* missing include: %s */\n" display)
    | content ->
        Hashtbl.replace included abs ();
        Buffer.add_string out (marker 1 display);
        let lines = String.split_on_char '\n' content in
        List.iteri
          (fun i line ->
            match include_of line with
            | Some (name, system) ->
                let idir, idisplay =
                  if system then ("/sys/include", name)
                  else
                    ( Vfs.dirname abs,
                      if starts_with "/" name then name else "./" ^ name )
                in
                let iabs =
                  if starts_with "/" name then Vfs.normalize name
                  else Vfs.normalize (idir ^ "/" ^ name)
                in
                if not (Hashtbl.mem included iabs) then
                  expand ~dir:idir ~display:idisplay name;
                Buffer.add_string out (marker (i + 2) display)
            | None ->
                Buffer.add_string out line;
                Buffer.add_char out '\n')
          lines
  in
  expand ~dir ~display:path path;
  Buffer.contents out
