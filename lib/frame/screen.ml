type attr = Plain | Reverse | Outline | Tag | Border | Tab

type t = { w : int; h : int; chars : Bytes.t; attrs : attr array }

let create w h =
  if w <= 0 || h <= 0 then invalid_arg "Screen.create";
  { w; h; chars = Bytes.make (w * h) ' '; attrs = Array.make (w * h) Plain }


let set s ~x ~y ch attr =
  if x >= 0 && x < s.w && y >= 0 && y < s.h then begin
    Bytes.set s.chars ((y * s.w) + x) ch;
    s.attrs.((y * s.w) + x) <- attr
  end

let get s ~x ~y =
  if x < 0 || x >= s.w || y < 0 || y >= s.h then invalid_arg "Screen.get";
  (Bytes.get s.chars ((y * s.w) + x), s.attrs.((y * s.w) + x))

let clear s =
  Bytes.fill s.chars 0 (Bytes.length s.chars) ' ';
  Array.fill s.attrs 0 (Array.length s.attrs) Plain

let fill_rect s ~x ~y ~w ~h ch attr =
  for j = y to y + h - 1 do
    for i = x to x + w - 1 do
      set s ~x:i ~y:j ch attr
    done
  done

let draw_string s ~x ~y str attr =
  String.iteri (fun i ch -> set s ~x:(x + i) ~y ch attr) str

let trim_right line =
  let n = ref (String.length line) in
  while !n > 0 && line.[!n - 1] = ' ' do
    decr n
  done;
  String.sub line 0 !n

let row_text s y =
  if y < 0 || y >= s.h then invalid_arg "Screen.row_text";
  trim_right (Bytes.sub_string s.chars (y * s.w) s.w)

let dump s =
  let b = Buffer.create (s.w * s.h) in
  for y = 0 to s.h - 1 do
    Buffer.add_string b (row_text s y);
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

let attr_char = function
  | Plain -> ' '
  | Reverse -> 'R'
  | Outline -> 'o'
  | Tag -> 't'
  | Border -> '|'
  | Tab -> '#'

let dump_attrs s =
  let b = Buffer.create (s.w * s.h) in
  for y = 0 to s.h - 1 do
    let line = String.init s.w (fun x -> attr_char s.attrs.((y * s.w) + x)) in
    Buffer.add_string b (trim_right line);
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

let contains s needle = Hstr.contains (dump s) ~sub:needle

let copy s =
  { w = s.w; h = s.h; chars = Bytes.copy s.chars; attrs = Array.copy s.attrs }

let equal a b =
  a.w = b.w && a.h = b.h && Bytes.equal a.chars b.chars && a.attrs = b.attrs
