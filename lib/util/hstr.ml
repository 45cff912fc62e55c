(* Shared substring search.

   Several modules (screen dumps, tag tokens, body search, grep, the
   bench harness) used to re-implement the same naive scan, each one
   allocating a [String.sub] per candidate position — O(n*m) time and
   O(n*m) garbage on megabyte inputs.  This is the one copy: the outer
   loop skips with [String.index_from_opt] (a memchr) and the inner
   comparison walks bytes without allocating. *)

let find ?(start = 0) hay ~sub =
  let n = String.length sub and m = String.length hay in
  let start = max 0 start in
  if n = 0 then if start <= m then Some start else None
  else begin
    let c0 = sub.[0] in
    let rec eq j k = k = n || (hay.[j + k] = sub.[k] && eq j (k + 1)) in
    let rec go i =
      if i + n > m then None
      else
        match String.index_from_opt hay i c0 with
        | None -> None
        | Some j ->
            if j + n > m then None else if eq j 1 then Some j else go (j + 1)
    in
    go start
  end

let contains hay ~sub = find hay ~sub <> None

let starts_with ~prefix s =
  let n = String.length prefix in
  String.length s >= n
  &&
  let rec eq i = i = n || (s.[i] = prefix.[i] && eq (i + 1)) in
  eq 0

let rec line_end s i =
  if i < String.length s && String.unsafe_get s i <> '\n' then line_end s (i + 1)
  else i
