let tab_width = 4

(* A display row: [start, stop) of text offsets, [nl] when the row was
   terminated by a newline character (which is not itself displayed). *)
type row = { start : int; stop : int; nl : bool }

type t = {
  text : Rope.t;
  org : int;
  w : int;
  h : int;
  rows : row array;
  last : int;
}

let org t = t.org
let last t = t.last
let rows_used t = Array.length t.rows

let char_width col = function
  | '\t' -> tab_width - (col mod tab_width)
  | _ -> 1

let layout text ~org ~w ~h =
  if w <= 0 || h <= 0 then invalid_arg "Frame.layout";
  let len = Rope.length text in
  let org = max 0 (min org len) in
  let rows = ref [] in
  let nrows = ref 0 in
  let pos = ref org in
  let continue = ref true in
  while !continue && !nrows < h do
    let start = !pos in
    let col = ref 0 in
    let stop = ref (-1) in
    let nl = ref false in
    while !stop < 0 && !pos < len do
      let c = Rope.get text !pos in
      if c = '\n' then begin
        stop := !pos;
        nl := true;
        incr pos
      end
      else begin
        let cw = char_width !col c in
        if !col + cw > w && !col > 0 then stop := !pos (* wrap *)
        else begin
          col := !col + cw;
          incr pos
        end
      end
    done;
    if !stop < 0 then begin
      (* Ran out of text: final row. *)
      stop := len;
      continue := false
    end;
    rows := { start; stop = !stop; nl = !nl } :: !rows;
    incr nrows;
    (* A trailing newline leaves an empty row for the caret; the loop's
       next iteration creates it naturally if there is room. *)
    if (not !continue) || (!pos >= len && not !nl) then continue := false
  done;
  let rows = Array.of_list (List.rev !rows) in
  let last =
    if Array.length rows = 0 then org
    else
      let r = rows.(Array.length rows - 1) in
      if r.nl then r.stop + 1 else r.stop
  in
  { text; org; w; h; rows; last }

(* Column of offset [q] within row [r] (walks the row expanding tabs). *)
let col_of t r q =
  let col = ref 0 in
  let pos = ref r.start in
  while !pos < q do
    col := !col + char_width !col (Rope.get t.text !pos);
    incr pos
  done;
  !col

let cell_of_offset t q =
  let n = Array.length t.rows in
  let rec find i =
    if i >= n then None
    else
      let r = t.rows.(i) in
      if q >= r.start && q < r.stop then Some (col_of t r q, i)
      else if q = r.stop && (r.nl || i = n - 1) then
        (* Caret position at end of a line (before its newline) or at
           the very end of the displayed text; on a visually full row
           there is no cell for it. *)
        let col = col_of t r q in
        if col < t.w then Some (col, i) else None
      else find (i + 1)
  in
  if q < t.org || q > t.last then None else find 0

let offset_of_cell t ~x ~y =
  let n = Array.length t.rows in
  if n = 0 then t.org
  else
    let y = max 0 (min y (n - 1)) in
    let r = t.rows.(y) in
    let col = ref 0 in
    let pos = ref r.start in
    let found = ref (-1) in
    while !found < 0 && !pos < r.stop do
      let cw = char_width !col (Rope.get t.text !pos) in
      if x < !col + cw then found := !pos
      else begin
        col := !col + cw;
        incr pos
      end
    done;
    if !found >= 0 then !found else r.stop

let row_start t n =
  if n < 0 || n >= Array.length t.rows then invalid_arg "Frame.row_start";
  t.rows.(n).start

let draw t scr ~x ~y ~sel:(q0, q1) ~sel_attr =
  Array.iteri
    (fun j r ->
      let col = ref 0 in
      for q = r.start to r.stop - 1 do
        let c = Rope.get t.text q in
        let cw = char_width !col c in
        let attr = if q >= q0 && q < q1 && q0 < q1 then sel_attr else Screen.Plain in
        if c = '\t' then
          for k = 0 to cw - 1 do
            Screen.set scr ~x:(x + !col + k) ~y:(y + j) ' ' attr
          done
        else
          Screen.set scr ~x:(x + !col) ~y:(y + j)
            (if c >= ' ' && c < '\127' then c else '?')
            attr;
        col := !col + cw
      done)
    t.rows;
  (* Caret tick for an empty selection. *)
  if q0 = q1 then
    match cell_of_offset t q0 with
    | Some (cx, cy) ->
        let ch, _ = Screen.get scr ~x:(x + cx) ~y:(y + cy) in
        Screen.set scr ~x:(x + cx) ~y:(y + cy) ch sel_attr
    | None -> ()
