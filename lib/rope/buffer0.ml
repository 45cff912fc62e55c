type edit = Inserted of int * int | Deleted of int * int

(* A primitive journal entry carries enough to invert itself. *)
type prim =
  | P_insert of int * string  (* inserted [string] at offset *)
  | P_delete of int * string  (* deleted [string] from offset *)

type t = {
  mutable name : string;
  mutable text : Rope.t;
  mutable gen : int;  (* bumped on every applied edit, incl. undo/redo *)
  mutable dirty : bool;
  mutable undo_log : prim list list;  (* groups, newest first *)
  mutable redo_log : prim list list;
  mutable open_group : prim list;  (* current group, newest first *)
  mutable observers : (edit -> unit) list;
}

let create ?(name = "") s =
  {
    name;
    text = Rope.of_string s;
    gen = 0;
    dirty = false;
    undo_log = [];
    redo_log = [];
    open_group = [];
    observers = [];
  }

let name b = b.name
let text b = b.text
let length b = Rope.length b.text
let to_string b = Rope.to_string b.text
let dirty b = b.dirty
let clean b = b.dirty <- false
let taint b = b.dirty <- true
let on_edit b f = b.observers <- b.observers @ [ f ]
let generation b = b.gen

let notify b e = List.iter (fun f -> f e) b.observers

let apply_insert b pos s =
  b.text <- Rope.insert b.text pos s;
  b.gen <- b.gen + 1;
  b.dirty <- true;
  notify b (Inserted (pos, String.length s))

let apply_delete b pos len =
  let removed = Rope.to_substring b.text pos len in
  b.text <- Rope.delete b.text pos len;
  b.gen <- b.gen + 1;
  b.dirty <- true;
  notify b (Deleted (pos, len));
  removed

let insert b pos s =
  if s <> "" then begin
    apply_insert b pos s;
    b.open_group <- P_insert (pos, s) :: b.open_group;
    b.redo_log <- []
  end

let delete b pos len =
  if len > 0 then begin
    let removed = apply_delete b pos len in
    b.open_group <- P_delete (pos, removed) :: b.open_group;
    b.redo_log <- []
  end

let replace b q0 q1 s =
  delete b q0 (q1 - q0);
  insert b q0 s

let commit b =
  if b.open_group <> [] then begin
    b.undo_log <- b.open_group :: b.undo_log;
    b.open_group <- []
  end

(* Apply the inverse of a primitive; return the inverse primitive (for the
   opposite log) and the visible edit. *)
let invert b = function
  | P_insert (pos, s) ->
      let len = String.length s in
      let _ = apply_delete b pos len in
      (P_delete (pos, s), Deleted (pos, len))
  | P_delete (pos, s) ->
      apply_insert b pos s;
      (P_insert (pos, s), Inserted (pos, String.length s))

let undo b =
  commit b;
  match b.undo_log with
  | [] -> []
  | group :: rest ->
      b.undo_log <- rest;
      (* Primitives are newest-first, which is the order to invert in. *)
      let inverses, edits =
        List.fold_left
          (fun (inv, eds) p ->
            let i, e = invert b p in
            (i :: inv, e :: eds))
          ([], []) group
      in
      b.redo_log <- inverses :: b.redo_log;
      List.rev edits

let redo b =
  match b.redo_log with
  | [] -> []
  | group :: rest ->
      b.redo_log <- rest;
      let inverses, edits =
        List.fold_left
          (fun (inv, eds) p ->
            let i, e = invert b p in
            (i :: inv, e :: eds))
          ([], []) group
      in
      b.undo_log <- inverses :: b.undo_log;
      List.rev edits

let read b pos len = Rope.to_substring b.text pos len
