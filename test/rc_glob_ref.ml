(* The reference glob: the first file-name matcher, kept to hold
   Rc_glob to.  It compiles a word to a token list and matches by
   memoized recursion over (token, position) pairs, and expansion
   builds every absolute path and strips the cwd off again for a
   relative pattern.  Slow, but plainly the definition. *)

type gtok =
  | Gchar of char
  | Gstar
  | Gquest
  | Gclass of bool * (char * char) list

(* A word after variable expansion: chunks tagged with quotedness. *)
type chunk = string * bool (* text, quoted *)

(* Compile chunks to glob tokens; quoted text is all-literal. *)
let compile chunks =
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  List.iter
    (fun (s, quoted) ->
      if quoted then String.iter (fun c -> emit (Gchar c)) s
      else begin
        let n = String.length s in
        let i = ref 0 in
        while !i < n do
          (match s.[!i] with
          | '*' -> emit Gstar
          | '?' -> emit Gquest
          | '[' ->
              (* parse a class; unterminated -> literal '[' *)
              let j = ref (!i + 1) in
              let neg = !j < n && s.[!j] = '^' in
              if neg then incr j;
              let ranges = ref [] in
              let ok = ref false in
              let start = !j in
              while (not !ok) && !j < n do
                if s.[!j] = ']' && !j > start then ok := true
                else begin
                  let lo = s.[!j] in
                  if !j + 2 < n && s.[!j + 1] = '-' && s.[!j + 2] <> ']' then begin
                    ranges := (lo, s.[!j + 2]) :: !ranges;
                    j := !j + 3
                  end
                  else begin
                    ranges := (lo, lo) :: !ranges;
                    incr j
                  end
                end
              done;
              if !ok then begin
                emit (Gclass (neg, List.rev !ranges));
                i := !j
              end
              else emit (Gchar '[')
          | c -> emit (Gchar c));
          incr i
        done
      end)
    chunks;
  List.rev !toks

(* Match a token list against a string (whole-string match). *)
let matches toks s =
  let n = String.length s in
  let toks = Array.of_list toks in
  let m = Array.length toks in
  (* memoized on (ti, si) *)
  let memo = Hashtbl.create 64 in
  let rec go ti si =
    match Hashtbl.find_opt memo (ti, si) with
    | Some v -> v
    | None ->
        let v =
          if ti = m then si = n
          else
            match toks.(ti) with
            | Gchar c -> si < n && s.[si] = c && go (ti + 1) (si + 1)
            | Gquest -> si < n && go (ti + 1) (si + 1)
            | Gclass (neg, ranges) ->
                si < n
                && (let inside =
                      List.exists (fun (lo, hi) -> s.[si] >= lo && s.[si] <= hi) ranges
                    in
                    if neg then not inside else inside)
                && go (ti + 1) (si + 1)
            | Gstar -> go (ti + 1) si || (si < n && go ti (si + 1))
        in
        Hashtbl.add memo (ti, si) v;
        v
  in
  go 0 0

(* Split glob tokens into path components on literal '/'. *)
let split_components toks =
  let rec go current acc = function
    | [] -> List.rev (List.rev current :: acc)
    | Gchar '/' :: rest -> go [] (List.rev current :: acc) rest
    | t :: rest -> go (t :: current) acc rest
  in
  go [] [] toks

let component_is_literal toks =
  List.for_all (function Gchar _ -> true | _ -> false) toks

let component_text toks =
  String.concat ""
    (List.map (function Gchar c -> String.make 1 c | _ -> assert false) toks)

(* Expand a pattern word against the file system.  Returns matches in
   sorted order; [] when nothing matches (caller decides to keep the
   literal word, as rc does). *)
let expand ns ~cwd chunks =
  let toks = compile chunks in
  let absolute = match toks with Gchar '/' :: _ -> true | _ -> false in
  let comps = split_components toks in
  let comps = if absolute then List.tl comps else comps in
  let start = if absolute then "/" else cwd in
  let rec walk dir comps =
    match comps with
    | [] -> [ dir ]
    | comp :: rest ->
        if comp = [] then walk dir rest (* "//" or trailing slash *)
        else if component_is_literal comp then begin
          let name = component_text comp in
          let path =
            if dir = "/" then "/" ^ name else dir ^ "/" ^ name
          in
          if Vfs.exists ns path then walk path rest else []
        end
        else begin
          match Vfs.readdir ns dir with
          | entries ->
              List.concat_map
                (fun (st : Vfs.stat) ->
                  if matches comp st.st_name then
                    let path =
                      if dir = "/" then "/" ^ st.st_name
                      else dir ^ "/" ^ st.st_name
                    in
                    if rest = [] then [ path ]
                    else if st.st_dir then walk path rest
                    else []
                  else [])
                entries
          | exception Vfs.Error _ -> []
        end
  in
  let results = walk start comps in
  (* Relative patterns yield relative names, as in rc. *)
  let results =
    if absolute then results
    else
      let prefix = if cwd = "/" then "/" else cwd ^ "/" in
      let plen = String.length prefix in
      List.map
        (fun p ->
          if String.length p >= plen && String.sub p 0 plen = prefix then
            String.sub p plen (String.length p - plen)
          else p)
        results
  in
  List.sort_uniq compare results
