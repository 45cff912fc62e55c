(* Length-prefixed, binary-safe serialization shared by the durability
   layer: Trace state capture, Vfs/Help snapshots, and the WAL record
   framing all use the same two primitives.  An integer is its decimal
   digits followed by '\n'; a string is its length as an integer
   followed by the raw bytes.  The format is self-delimiting, so a
   decoder always knows whether the remaining input can hold the next
   field — a truncated tail raises [Truncated] instead of tearing. *)

exception Truncated of string

type dec = { s : string; mutable pos : int }

let w_int b n =
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b '\n'

let w_str b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_bool b v = w_int b (if v then 1 else 0)

let w_list b f xs =
  w_int b (List.length xs);
  List.iter (fun x -> f b x) xs

let reader s = { s; pos = 0 }
let at_end d = d.pos >= String.length d.s

let r_int d =
  let n = String.length d.s in
  let start = d.pos in
  let i = ref start in
  if !i < n && d.s.[!i] = '-' then incr i;
  let digits = ref 0 in
  while !i < n && d.s.[!i] >= '0' && d.s.[!i] <= '9' do
    incr i;
    incr digits
  done;
  if !digits = 0 || !i >= n then raise (Truncated "int")
  else if d.s.[!i] <> '\n' then raise (Truncated "int terminator")
  else begin
    let v = int_of_string (String.sub d.s start (!i - start)) in
    d.pos <- !i + 1;
    v
  end

let r_str d =
  let n = r_int d in
  if n < 0 || d.pos + n > String.length d.s then raise (Truncated "string")
  else begin
    let v = String.sub d.s d.pos n in
    d.pos <- d.pos + n;
    v
  end

let r_bool d = r_int d <> 0

let r_list d f =
  let n = r_int d in
  if n < 0 then raise (Truncated "list length")
  else List.init n (fun _ -> f d)
