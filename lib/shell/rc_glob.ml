(* File-name patterns for the shell: *, ?, [a-z], with quoting respected
   (quoted pieces of a word never act as metacharacters).  Expansion
   walks the VFS, per path component, as rc does.

   A pattern compiles once into an array of tokens; matching a name is
   a two-pointer scan that allocates nothing.  Every token but [*]
   consumes exactly one byte, so on a mismatch the scan only has to
   retry from the most recent star, one byte further along. *)

type gtok =
  | Gchar of char
  | Gstar
  | Gquest
  | Gclass of Bytes.t  (* 256 entries, nonzero for a member byte *)

type pattern = gtok array

(* A word after variable expansion: chunks tagged with quotedness. *)
type chunk = string * bool (* text, quoted *)

let has_meta chunks =
  List.exists
    (fun (s, quoted) ->
      (not quoted) && String.exists (fun c -> c = '*' || c = '?' || c = '[') s)
    chunks

let literal chunks = String.concat "" (List.map fst chunks)

(* A class [neg] over [ranges] as a membership table. *)
let class_table neg ranges =
  let t = Bytes.make 256 (if neg then '\001' else '\000') in
  List.iter
    (fun (lo, hi) ->
      for c = Char.code lo to Char.code hi do
        Bytes.set t c (if neg then '\000' else '\001')
      done)
    ranges;
  t

(* Compile chunks to glob tokens; quoted text is all-literal. *)
let compile chunks : pattern =
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
                emit (Gclass (class_table neg !ranges));
                i := !j
              end
              else emit (Gchar '[')
          | c -> emit (Gchar c));
          incr i
        done
      end)
    chunks;
  Array.of_list (List.rev !toks)

(* Does token [t] (not a star) accept byte [c]? *)
let accepts t c =
  match t with
  | Gchar d -> c = d
  | Gquest -> true
  | Gclass tbl -> Bytes.unsafe_get tbl (Char.code c) <> '\000'
  | Gstar -> false

(* Whole-string match of [p.(lo) .. p.(hi - 1)] against [s].  [star] is
   the index of the last star seen (-1 before any) and [mark] the byte
   its current try resumes after. *)
let match_range p lo hi s =
  let n = String.length s in
  let rec go pi si star mark =
    if si < n then
      if pi < hi && p.(pi) == Gstar then go (pi + 1) si pi si
      else if pi < hi && accepts p.(pi) (String.unsafe_get s si) then
        go (pi + 1) (si + 1) star mark
      else if star >= 0 then go (star + 1) (mark + 1) star (mark + 1)
      else false
    else
      let rec stars pi = pi = hi || (p.(pi) == Gstar && stars (pi + 1)) in
      stars pi
  in
  go lo 0 (-1) 0

let matches p s = match_range p 0 (Array.length p) s

(* Expand a pattern word against the file system.  Returns matches in
   sorted order; [] when nothing matches (caller decides to keep the
   literal word, as rc does).  Relative patterns yield names relative
   to [cwd], built as they are matched. *)
let expand ns ~cwd chunks =
  let p = compile chunks in
  let m = Array.length p in
  let absolute = m > 0 && p.(0) = Gchar '/' in
  (* components are the token ranges [lo, hi) between literal '/'s; an
     empty one ("//" or a trailing '/') is skipped *)
  let rec component_end i =
    if i = m then i else match p.(i) with Gchar '/' -> i | _ -> component_end (i + 1)
  in
  let rec is_literal i hi =
    i = hi || (match p.(i) with Gchar _ -> is_literal (i + 1) hi | _ -> false)
  in
  let literal_text lo hi =
    String.init (hi - lo) (fun i -> match p.(lo + i) with Gchar c -> c | _ -> assert false)
  in
  let join dir name = if dir = "/" then "/" ^ name else dir ^ "/" ^ name in
  (* [dir] is the directory a component is matched in, and [shown] what
     a result under it prints as: from "/" for an absolute pattern, and
     from "" (relative to [cwd]) for a relative one *)
  let child shown name = if shown = "" then name else join shown name in
  let rec walk dir shown lo acc =
    if lo >= m then shown :: acc
    else
      let hi = component_end lo in
      if hi = lo then walk dir shown (lo + 1) acc
      else if is_literal lo hi then begin
        let name = literal_text lo hi in
        let path = join dir name in
        if Vfs.exists ns path then walk path (child shown name) hi acc else acc
      end
      else
        match Vfs.readdir ns dir with
        | entries ->
            List.fold_left
              (fun acc (st : Vfs.stat) ->
                let name = st.st_name in
                if not (match_range p lo hi name) then acc
                else if hi = m then child shown name :: acc
                else if st.st_dir then walk (join dir name) (child shown name) hi acc
                else acc)
              acc entries
        | exception Vfs.Error _ -> acc
  in
  let results = List.rev (if absolute then walk "/" "/" 0 [] else walk cwd "" 0 []) in
  (* [Vfs.readdir] lists a directory in order, so one matched component
     yields its results ascending; a '/' can break the order ("a" lists
     before "a-c", but "a-c/b" sorts before "a/b"), so sort only then *)
  let rec ascending = function
    | a :: (b :: _ as rest) -> String.compare a b < 0 && ascending rest
    | _ -> true
  in
  if ascending results then results else List.sort_uniq String.compare results
