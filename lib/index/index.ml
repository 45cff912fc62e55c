(* Trigram posting-list index over namespace files.
   Candidate selection runs before the Regexp DFA/NFA pipeline ever
   touches a document; pruning is sound because a document that lacks a
   required trigram of the pattern cannot contain a match. *)

let c_candidates = Trace.counter "index.query.candidates"
let c_skipped = Trace.counter "index.query.skipped_docs"
let c_fallbacks = Trace.counter "index.query.fallbacks"
let c_reindexed = Trace.counter "index.stale.reindexed"
let g_docs = Trace.gauge "index.docs"
let g_postings = Trace.gauge "index.postings"

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

type query =
  | Q_all
  | Q_none
  | Q_tri of string
  | Q_and of query list
  | Q_or of query list

let esc_char b c =
  let code = Char.code c in
  if code >= 33 && code < 127 && c <> '\\' then Buffer.add_char b c
  else Printf.bprintf b "\\x%02x" code

let esc s =
  let b = Buffer.create (String.length s) in
  String.iter (esc_char b) s;
  Buffer.contents b

let rec query_text = function
  | Q_all -> "ALL"
  | Q_none -> "NONE"
  | Q_tri s -> esc s
  | Q_and qs -> "(AND " ^ String.concat " " (List.map query_text qs) ^ ")"
  | Q_or qs -> "(OR " ^ String.concat " " (List.map query_text qs) ^ ")"

let query_useful = function Q_all -> false | _ -> true

let rec simplify = function
  | Q_and qs ->
      let qs = List.map simplify qs in
      if List.mem Q_none qs then Q_none
      else
        let qs = List.filter (fun q -> q <> Q_all) qs in
        let qs = List.sort_uniq compare qs in
        (match qs with [] -> Q_all | [ q ] -> q | qs -> Q_and qs)
  | Q_or qs ->
      let qs = List.map simplify qs in
      if List.mem Q_all qs then Q_all
      else
        let qs = List.filter (fun q -> q <> Q_none) qs in
        let qs = List.sort_uniq compare qs in
        (match qs with [] -> Q_none | [ q ] -> q | qs -> Q_or qs)
  | q -> q

(* Every window of three consecutive bytes of a required literal run
   is itself required. *)
let tris_of_run run acc =
  let n = String.length run in
  if n < 3 then acc
  else begin
    let l = ref acc in
    for i = 0 to n - 3 do
      l := Q_tri (String.sub run i 3) :: !l
    done;
    !l
  end

(* Walk the syntax collecting a conjunction: literal runs along a Seq
   spine yield trigrams; Alt yields the disjunction of its branches;
   Plus requires one instance of its body.  Everything else (classes,
   ., *, ?, anchors) conservatively breaks the run and requires
   nothing.  Sound over-approximation: any text matching the pattern
   satisfies the returned query. *)
let plan_ast ast =
  let rec top ast =
    let run = Buffer.create 8 in
    let acc = walk ast run [] in
    let acc = flush run acc in
    simplify (Q_and acc)
  and flush run acc =
    let s = Buffer.contents run in
    Buffer.clear run;
    tris_of_run s acc
  and walk ast run acc =
    match ast with
    | Regexp.Char c ->
        Buffer.add_char run c;
        acc
    | Regexp.Empty -> acc
    | Regexp.Seq (a, b) ->
        let acc = walk a run acc in
        walk b run acc
    | Regexp.Alt (a, b) ->
        let acc = flush run acc in
        simplify (Q_or [ top a; top b ]) :: acc
    | Regexp.Plus a ->
        let acc = flush run acc in
        top a :: acc
    | Regexp.Star _ | Regexp.Opt _ | Regexp.Any | Regexp.Class _
    | Regexp.Bol | Regexp.Eol ->
        flush run acc
  in
  top ast

let plan_literal s = simplify (Q_and (tris_of_run s []))

let plan_cache : (string, query) Hashtbl.t = Hashtbl.create 64

let plan re =
  let pat = Regexp.pattern re in
  match Hashtbl.find_opt plan_cache pat with
  | Some q -> q
  | None ->
      if Hashtbl.length plan_cache > 256 then Hashtbl.reset plan_cache;
      let q =
        match Regexp.parse pat with
        | exception Regexp.Parse_error _ -> Q_all
        | ast -> plan_ast ast
      in
      Hashtbl.add plan_cache pat q;
      q

(* ------------------------------------------------------------------ *)
(* Documents and postings                                              *)

let stamp_none = (-1, -1, -1)

type doc = {
  d_id : int;
  d_path : string;  (* canonical path *)
  mutable d_ok : bool;  (* tokenized and current at last validation *)
  mutable d_seen : bool;  (* tokenized at least once (reindex meter) *)
  mutable d_stamp : int * int * int;
  mutable d_tris : int array;  (* sorted distinct trigrams posted *)
}

type t = {
  ix_ns : Vfs.t;
  ix_docs : (string, doc) Hashtbl.t;  (* canonical path -> doc *)
  ix_alias : (string, doc) Hashtbl.t;  (* as-given path -> doc (hot lookup) *)
  ix_post : (int, int list ref) Hashtbl.t;  (* trigram -> ids, descending *)
  mutable ix_next : int;
  mutable ix_nsgen : int;  (* Vfs.generation at last file sweep *)
  mutable ix_npost : int;
  mutable ix_queries : int;
  mutable ix_candidates : int;
  mutable ix_skipped : int;
  mutable ix_fallbacks : int;
  mutable ix_reindexed : int;
}

let create ns =
  {
    ix_ns = ns;
    ix_docs = Hashtbl.create 64;
    ix_alias = Hashtbl.create 64;
    ix_post = Hashtbl.create 1024;
    ix_next = 0;
    ix_nsgen = -1;
    ix_npost = 0;
    ix_queries = 0;
    ix_candidates = 0;
    ix_skipped = 0;
    ix_fallbacks = 0;
    ix_reindexed = 0;
  }

(* One index per namespace, shared by grep, Cbr and /mnt/help/index. *)
let registry : (Vfs.t * t) list ref = ref []

let of_ns ns =
  match List.find_opt (fun (n, _) -> n == ns) !registry with
  | Some (_, t) -> t
  | None ->
      let t = create ns in
      let keep =
        if List.length !registry >= 8 then List.filteri (fun i _ -> i < 7) !registry
        else !registry
      in
      registry := (ns, t) :: keep;
      t

let enc3 s = (Char.code s.[0] lsl 16) lor (Char.code s.[1] lsl 8) lor Char.code s.[2]

let dec3 tri =
  let b = Buffer.create 3 in
  Buffer.add_char b (Char.chr ((tri lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((tri lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (tri land 0xff));
  Buffer.contents b

let tokenize content =
  let n = String.length content in
  if n < 3 then [||]
  else begin
    let tbl = Hashtbl.create 256 in
    for i = 0 to n - 3 do
      let tri =
        (Char.code content.[i] lsl 16)
        lor (Char.code content.[i + 1] lsl 8)
        lor Char.code content.[i + 2]
      in
      if not (Hashtbl.mem tbl tri) then Hashtbl.add tbl tri ()
    done;
    let a = Array.make (Hashtbl.length tbl) 0 in
    let i = ref 0 in
    Hashtbl.iter
      (fun k () ->
        a.(!i) <- k;
        incr i)
      tbl;
    Array.sort compare a;
    a
  end

(* Posting lists run in descending id order.  A new document has the
   largest id so far, so posting it is one cons at the head; only a
   re-tokenized one lands further in, past the larger ids. *)
let insert_desc x l =
  let rec go acc = function
    | y :: ys when y > x -> go (y :: acc) ys
    | y :: _ as ys when y = x -> List.rev_append acc ys
    | ys -> List.rev_append acc (x :: ys)
  in
  go [] l

let post_add t tri id =
  let r =
    match Hashtbl.find_opt t.ix_post tri with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add t.ix_post tri r;
        r
  in
  r := insert_desc id !r;
  t.ix_npost <- t.ix_npost + 1

let post_remove t tri id =
  match Hashtbl.find_opt t.ix_post tri with
  | None -> ()
  | Some r ->
      r := List.filter (fun y -> y <> id) !r;
      t.ix_npost <- t.ix_npost - 1;
      if !r = [] then Hashtbl.remove t.ix_post tri

(* Replace a document's posted trigrams, touching only the difference
   of the two sorted sets — a small edit perturbs few postings. *)
let apply_tris t doc ntris =
  let o = doc.d_tris in
  let no = Array.length o and nn = Array.length ntris in
  let i = ref 0 and j = ref 0 in
  while !i < no || !j < nn do
    if !i < no && (!j >= nn || o.(!i) < ntris.(!j)) then begin
      post_remove t o.(!i) doc.d_id;
      incr i
    end
    else if !j < nn && (!i >= no || ntris.(!j) < o.(!i)) then begin
      post_add t ntris.(!j) doc.d_id;
      incr j
    end
    else begin
      incr i;
      incr j
    end
  done;
  doc.d_tris <- ntris

let tokenize_doc t doc content stamp =
  Trace.with_span "index.build" ~args:[ ("doc", doc.d_path) ] (fun () ->
      apply_tris t doc (tokenize content);
      doc.d_stamp <- stamp;
      doc.d_ok <- true;
      if doc.d_seen then begin
        t.ix_reindexed <- t.ix_reindexed + 1;
        Trace.incr c_reindexed
      end;
      doc.d_seen <- true)

let clear_doc t doc =
  apply_tris t doc [||];
  doc.d_stamp <- stamp_none;
  doc.d_ok <- false

let revalidate t doc =
  match Vfs.stat t.ix_ns doc.d_path with
  | exception Vfs.Error _ -> clear_doc t doc
  | st when st.Vfs.st_dir -> clear_doc t doc
  | st -> (
      let stamp = (st.Vfs.st_version, st.st_length, st.st_mtime) in
      if (not doc.d_ok) || stamp <> doc.d_stamp then
        match Vfs.read_file t.ix_ns doc.d_path with
        | exception Vfs.Error _ -> clear_doc t doc
        | content -> tokenize_doc t doc content stamp)

(* Lazy staleness: documents are swept only when the namespace mutation
   counter has moved since the last sweep (an unmoved counter proves no
   file changed).  Nothing is touched on the write itself. *)
let validate t =
  let g = Vfs.generation t.ix_ns in
  if g <> t.ix_nsgen then begin
    Hashtbl.iter (fun _ doc -> revalidate t doc) t.ix_docs;
    t.ix_nsgen <- Vfs.generation t.ix_ns
  end;
  Trace.set_gauge g_docs (Hashtbl.length t.ix_docs);
  Trace.set_gauge g_postings t.ix_npost

let new_doc t path =
  let doc =
    {
      d_id = t.ix_next;
      d_path = path;
      d_ok = false;
      d_seen = false;
      d_stamp = stamp_none;
      d_tris = [||];
    }
  in
  t.ix_next <- t.ix_next + 1;
  Hashtbl.replace t.ix_docs path doc;
  doc

(* Paths arrive already absolute from every caller, so the hot path is
   a single hash probe on the string as given; normalization runs only
   the first time a spelling is seen, and the result is memoized in the
   alias table. *)
let doc_of_path t path =
  match Hashtbl.find t.ix_alias path with
  | doc -> doc
  | exception Not_found ->
      let key = Vfs.normalize path in
      let doc =
        match Hashtbl.find_opt t.ix_docs key with
        | Some doc -> doc
        | None ->
            let doc = new_doc t key in
            revalidate t doc;
            doc
      in
      Hashtbl.replace t.ix_alias path doc;
      if path <> key then Hashtbl.replace t.ix_alias key doc;
      doc

let rebuild t =
  Hashtbl.iter
    (fun _ doc ->
      doc.d_tris <- [||];
      doc.d_stamp <- stamp_none;
      doc.d_ok <- false)
    t.ix_docs;
  Hashtbl.reset t.ix_post;
  t.ix_npost <- 0;
  t.ix_nsgen <- -1

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)

type cset = C_all | C_ids of int list

(* Both over descending id lists. *)
let inter a b =
  let rec go acc a b =
    match (a, b) with
    | [], _ | _, [] -> List.rev acc
    | x :: xs, y :: ys ->
        if x = y then go (x :: acc) xs ys
        else if x > y then go acc xs b
        else go acc a ys
  in
  go [] a b

let union a b =
  let rec go acc a b =
    match (a, b) with
    | [], r | r, [] -> List.rev_append acc r
    | x :: xs, y :: ys ->
        if x = y then go (x :: acc) xs ys
        else if x > y then go (x :: acc) xs b
        else go (y :: acc) a ys
  in
  go [] a b

let posting t tri = match Hashtbl.find_opt t.ix_post tri with Some r -> !r | None -> []

let rec eval t = function
  | Q_all -> C_all
  | Q_none -> C_ids []
  | Q_tri s -> C_ids (posting t (enc3 s))
  | Q_and qs ->
      List.fold_left
        (fun acc q ->
          match acc with
          | C_ids [] -> acc (* already empty: no further narrowing *)
          | _ -> (
              match (acc, eval t q) with
              | C_all, c | c, C_all -> c
              | C_ids a, C_ids b -> C_ids (inter a b)))
        C_all qs
  | Q_or qs ->
      List.fold_left
        (fun acc q ->
          match acc with
          | C_all -> acc
          | _ -> (
              match (acc, eval t q) with
              | C_all, _ | _, C_all -> C_all
              | C_ids a, C_ids b -> C_ids (union a b)))
        (C_ids []) qs

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let prune t q paths =
  Trace.with_span "index.query" (fun () ->
      t.ix_queries <- t.ix_queries + 1;
      validate t;
      let docs = List.map (doc_of_path t) paths in
      match eval t q with
      | C_all ->
          t.ix_fallbacks <- t.ix_fallbacks + 1;
          Trace.incr c_fallbacks;
          paths
      | C_ids ids ->
          let mark = Bytes.make t.ix_next '\000' in
          List.iter (fun id -> Bytes.set mark id '\001') ids;
          let rec filter acc paths docs =
            match (paths, docs) with
            | p :: paths, doc :: docs ->
                (* an unindexable doc is kept: let the scan report it *)
                if (not doc.d_ok) || Bytes.get mark doc.d_id <> '\000' then
                  filter (p :: acc) paths docs
                else filter acc paths docs
            | _ -> List.rev acc
          in
          let keep = filter [] paths docs in
          let kept = List.length keep in
          let skipped = List.length paths - kept in
          t.ix_candidates <- t.ix_candidates + kept;
          t.ix_skipped <- t.ix_skipped + skipped;
          Trace.incr ~by:kept c_candidates;
          Trace.incr ~by:skipped c_skipped;
          Trace.set_gauge g_docs (Hashtbl.length t.ix_docs);
          Trace.set_gauge g_postings t.ix_npost;
          keep)

let prune_names t q ~cwd names =
  if not (query_useful q) then names
  else begin
    let paths =
      List.map
        (fun f ->
          if String.length f > 0 && f.[0] = '/' then Vfs.normalize f
          else Vfs.normalize (cwd ^ "/" ^ f))
        names
    in
    (* [prune] keeps a sub-list of [paths], in order *)
    let rec walk acc names paths keep =
      match (names, paths, keep) with
      | name :: names, p :: paths, k :: ks ->
          if String.equal p k then walk (name :: acc) names paths ks
          else walk acc names paths keep
      | _ -> List.rev acc
    in
    walk [] names paths (prune t q paths)
  end

type hit = {
  h_doc : string;
  h_line : int;
  h_spans : (int * int) list;
  h_text : string;
}

let scan_content re key content acc =
  let hits = ref acc in
  List.iteri
    (fun i line ->
      match Regexp.search_all re line with
      | [] -> ()
      | spans ->
          hits := { h_doc = key; h_line = i + 1; h_spans = spans; h_text = line } :: !hits)
    (String.split_on_char '\n' content);
  !hits

let scan_files ns re paths =
  List.rev
    (List.fold_left
       (fun acc p ->
         match Vfs.read_file ns (Vfs.normalize p) with
         | exception Vfs.Error _ -> acc
         | content -> scan_content re (Vfs.normalize p) content acc)
       [] paths)

let grep t re files =
  let keep = prune t (plan re) files in
  scan_files t.ix_ns re keep

let grep_linear t re files = scan_files t.ix_ns re files

let hits_text hits =
  String.concat ""
    (List.map
       (fun h ->
         Printf.sprintf "%s:%d:%s:%s\n" h.h_doc h.h_line
           (String.concat ","
              (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) h.h_spans))
           h.h_text)
       hits)

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let sizes t = (Hashtbl.length t.ix_docs, Hashtbl.length t.ix_post, t.ix_npost)

let reindexed t = t.ix_reindexed

let stats_text t =
  let docs, tris, posts = sizes t in
  Printf.sprintf
    "docs %d\npostings %d\ntrigrams %d\nqueries %d\ncandidates %d\n\
     skipped %d\nfallbacks %d\nreindexed %d\n"
    docs posts tris t.ix_queries t.ix_candidates t.ix_skipped t.ix_fallbacks
    t.ix_reindexed

let postings_text t =
  let rows = Hashtbl.fold (fun tri r acc -> (tri, List.length !r) :: acc) t.ix_post [] in
  let rows = List.sort compare rows in
  let b = Buffer.create (16 * List.length rows) in
  List.iter (fun (tri, n) -> Printf.bprintf b "%s\t%d\n" (esc (dec3 tri)) n) rows;
  Buffer.contents b
