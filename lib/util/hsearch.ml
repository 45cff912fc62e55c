(* One search driver for every text-scanning caller (help body search,
   grep, ed, cbr's uses-vs-grep experiment).  Strings go through
   Regexp's prefilter+DFA pipeline directly; ropes are streamed leaf by
   leaf through Regexp.Scan/Stream so nothing is flattened. *)

type needle = Literal of string | Pattern of Regexp.t

let matches nd s =
  match nd with
  | Literal sub -> Hstr.contains s ~sub
  | Pattern re -> Regexp.matches re s

exception Found of int

(* Leftmost occurrence of [sub] in the rope at or after [start],
   without flattening.  A rolling tail of the last [m-1] bytes is kept
   across chunks so occurrences straddling leaf boundaries (possibly
   spanning several short leaves) are caught: each chunk first checks
   the window [tail ^ head-of-chunk] for occurrences starting in the
   tail, then scans its own bytes.  Any straddling occurrence starts
   after every in-chunk occurrence of the previous chunk, so the first
   hit is the leftmost. *)
let find_literal_rope ?(start = 0) rope sub =
  let n = Rope.length rope in
  let start = max 0 start in
  let m = String.length sub in
  if start > n then None
  else if m = 0 then Some (start, start)
  else if start + m > n then None
  else begin
    let tail = ref "" in
    let abs = ref start in
    (* absolute offset of the next unprocessed byte *)
    try
      Rope.iter_chunks rope ~pos:start ~len:(n - start) (fun s off len ->
          let tl = String.length !tail in
          if tl > 0 then begin
            let head = min (m - 1) len in
            let w = !tail ^ String.sub s off head in
            match Hstr.find w ~sub with
            | Some j when j < tl -> raise (Found (!abs - tl + j))
            | _ -> ()
          end;
          (match Hstr.find s ~start:off ~sub with
          | Some j when j + m <= off + len -> raise (Found (!abs + (j - off)))
          | _ -> ());
          let keep = min (m - 1) (tl + len) in
          let from_chunk = min len keep in
          let from_tail = keep - from_chunk in
          let b = Buffer.create (max keep 1) in
          if from_tail > 0 then
            Buffer.add_substring b !tail (tl - from_tail) from_tail;
          Buffer.add_substring b s (off + len - from_chunk) from_chunk;
          tail := Buffer.contents b;
          abs := !abs + len);
      None
    with Found a -> Some (a, a + m)
  end

let rope_bol rope pos = pos = 0 || Rope.get rope (pos - 1) = '\n'

(* Leftmost-longest match in the rope at or after [pos]: literal
   prefilter, then a streaming DFA existence pass, then the streaming
   NFA sweep for the exact span — the rope twin of [Regexp.search]. *)
let search_rope re rope pos =
  let n = Rope.length rope in
  let pos = max 0 pos in
  if pos > n then None
  else begin
    let lit = Regexp.required_literal re in
    if lit <> "" && find_literal_rope ~start:pos rope lit = None then None
    else begin
      let bol = rope_bol rope pos in
      let sc = Regexp.Scan.create ~bol re in
      let matched = ref false in
      (try
         Rope.iter_chunks rope ~pos ~len:(n - pos) (fun s off len ->
             if Regexp.Scan.feed sc s ~pos:off ~len then raise Exit)
       with Exit -> matched := true);
      if not (!matched || Regexp.Scan.finish sc) then None
      else begin
        let cu = Regexp.Stream.create ~pos ~bol re in
        (try
           Rope.iter_chunks rope ~pos ~len:(n - pos) (fun s off len ->
               Regexp.Stream.feed cu s ~pos:off ~len;
               if Regexp.Stream.definite cu then raise Exit)
         with Exit -> ());
        Regexp.Stream.finish cu
      end
    end
  end

let find_rope nd ?(start = 0) rope =
  match nd with
  | Literal sub -> find_literal_rope ~start rope sub
  | Pattern re -> search_rope re rope start

let search_all_rope re rope =
  let n = Rope.length rope in
  let rec loop pos acc =
    if pos > n then List.rev acc
    else
      match search_rope re rope pos with
      | None -> List.rev acc
      | Some (a, b) ->
          let next = if b > a then b else a + 1 in
          loop next ((a, b) :: acc)
  in
  loop 0 []

let wrapped_find find start =
  match find start with
  | Some _ as r -> r
  | None -> if start = 0 then None else find 0

(* The one substitution loop behind sed and ed, parameterized over
   their (differing) empty-match rules: [empty_ok] false skips the
   whole substitution when the first match is empty; [empty_advance]
   is how far past an empty match the next scan starts (beyond the
   replacement text); [limit] bounds the number of replacements so
   nullable patterns with [global] terminate.  Returns the new line
   and the replacement count. *)
let subst re ~repl ~global ~empty_ok ~empty_advance ?(limit = max_int) line =
  let rl = String.length repl in
  let rec loop l pos count =
    if count >= limit then (l, count)
    else
      match Regexp.search re l pos with
      | Some (a, b) when b > a || empty_ok ->
          let l' =
            String.sub l 0 a ^ repl ^ String.sub l b (String.length l - b)
          in
          let count = count + 1 in
          if global then
            loop l' (a + rl + if b = a then empty_advance else 0) count
          else (l', count)
      | _ -> (l, count)
  in
  loop line 0 0

(* The literal twin of [Regexp.iter_lines]: the same lines, decided by
   where the next occurrence of [sub] lies.  An occurrence that ends
   past a line's '\n' cannot lie inside that line, and none later in
   the line can either, since the first one would then end earlier. *)
let literal_lines ~invert sub s f =
  let n = String.length s and m = String.length sub in
  let find from = match Hstr.find s ~start:from ~sub with Some j -> j | None -> -1 in
  let next = ref (if m > 0 then find 0 else 0) in
  let pos = ref 0 and line = ref 1 in
  while !pos < n do
    let i = !pos in
    if m > 0 && !next < 0 && not invert then pos := n
    else begin
      let eol = Hstr.line_end s i in
      if m > 0 && !next >= 0 && !next < i then next := find i;
      if (m = 0 || (!next >= 0 && !next + m <= eol)) <> invert then f !line i eol;
      pos := eol + 1;
      incr line
    end
  done

let iter_lines ~invert nd s f =
  match nd with
  | Literal sub -> literal_lines ~invert sub s f
  | Pattern re -> Regexp.iter_lines ~invert re s f

let count_matching_lines nd content =
  let count = ref 0 in
  iter_lines ~invert:false nd content (fun _ _ _ -> incr count);
  !count
