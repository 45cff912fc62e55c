(* A single-entry layout cache.  [c_gen] is the buffer generation the
   frame was computed at; equal generation + origin + box means the
   frame is still exact, so redraws of unchanged windows skip
   [Frame.layout] entirely. *)
type cache = { c_gen : int; c_org : int; c_w : int; c_h : int; c_frame : Frame.t }

(* Layout-cache effectiveness, on the global observability ledger. *)
let m_hit = Trace.counter "help.layout.hit"
let m_miss = Trace.counter "help.layout.miss"

type t = {
  buf : Buffer0.t;
  mutable org : int;
  mutable q0 : int;
  mutable q1 : int;
  mutable vgen : int;  (* bumped whenever the view could look different *)
  mutable cache : cache option;
}

(* Shift a view position right by inserts / left by deletes that land
   before it.  An insertion exactly at a selection endpoint pushes the
   endpoint right (typing at the caret advances it); an insertion
   exactly at the origin stays visible (the origin does not move). *)
let adjust_pos ~inclusive pos = function
  | Buffer0.Inserted (at, len) ->
      if at < pos || (inclusive && at = pos) then pos + len else pos
  | Buffer0.Deleted (at, len) ->
      if at + len <= pos then pos - len else if at < pos then at else pos

let create buf =
  let t = { buf; org = 0; q0 = 0; q1 = 0; vgen = 0; cache = None } in
  Buffer0.on_edit buf (fun e ->
      t.org <- adjust_pos ~inclusive:false t.org e;
      t.q0 <- adjust_pos ~inclusive:true t.q0 e;
      t.q1 <- adjust_pos ~inclusive:true t.q1 e;
      t.vgen <- t.vgen + 1);
  t

let buffer t = t.buf
let length t = Buffer0.length t.buf
let string t = Buffer0.to_string t.buf
let rope t = Buffer0.text t.buf
let sel t = (t.q0, t.q1)
let view_gen t = t.vgen

let clamp t q = max 0 (min q (length t))

let set_sel t q0 q1 =
  let q0 = clamp t q0 and q1 = clamp t q1 in
  let q0, q1 = (min q0 q1, max q0 q1) in
  if q0 <> t.q0 || q1 <> t.q1 then begin
    t.q0 <- q0;
    t.q1 <- q1;
    t.vgen <- t.vgen + 1
  end

let org t = t.org

let set_org t o =
  let o = clamp t o in
  if o <> t.org then begin
    t.org <- o;
    t.vgen <- t.vgen + 1
  end

let read t q0 q1 =
  let q0 = clamp t q0 and q1 = clamp t (max q0 q1) in
  Buffer0.read t.buf q0 (q1 - q0)

let selected t = read t t.q0 t.q1

let type_text t s =
  let q0, q1 = (t.q0, t.q1) in
  Buffer0.replace t.buf q0 q1 s;
  (* replace moved q0 to q0 (delete) then shifted by insert at q0 *)
  t.q0 <- q0 + String.length s;
  t.q1 <- t.q0

let cut t =
  let text = selected t in
  Buffer0.delete t.buf t.q0 (t.q1 - t.q0);
  text

let paste t s =
  let q0, q1 = (t.q0, t.q1) in
  Buffer0.replace t.buf q0 q1 s;
  t.q0 <- q0;
  t.q1 <- q0 + String.length s

let layout t ~w ~h =
  let gen = Buffer0.generation t.buf in
  match t.cache with
  | Some c when c.c_gen = gen && c.c_org = t.org && c.c_w = w && c.c_h = h ->
      Trace.incr m_hit;
      c.c_frame
  | _ ->
      Trace.incr m_miss;
      let f = Frame.layout (Buffer0.text t.buf) ~org:t.org ~w ~h in
      t.cache <- Some { c_gen = gen; c_org = t.org; c_w = w; c_h = h; c_frame = f };
      f

(* Like the original mutable-[frame] field: the most recent layout,
   still reported after origin moves (callers re-layout before trusting
   geometry) but dropped once the text changes under it. *)
let last_frame t =
  match t.cache with
  | Some c when c.c_gen = Buffer0.generation t.buf -> Some c.c_frame
  | _ -> None

let show t ~w ~h q =
  let q = clamp t q in
  let f = layout t ~w ~h in
  if not (q >= Frame.org f && q < max (Frame.last f) (Frame.org f + 1)) then begin
    (* Put the line holding q a third of the way down the frame. *)
    let text = Buffer0.text t.buf in
    let target_line = Rope.line_of_offset text q in
    let first = max 1 (target_line - (h / 3)) in
    let org = try Rope.line_start text first with Not_found -> 0 in
    set_org t org;
    ignore (layout t ~w ~h)
  end

let select_line t n =
  let text = Buffer0.text t.buf in
  match Rope.line_start text n with
  | start ->
      let stop = Rope.line_end text start in
      set_sel t start stop;
      Some start
  | exception Not_found -> None
  | exception Invalid_argument _ -> None
