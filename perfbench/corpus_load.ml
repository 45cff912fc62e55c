(* corpus: the synthetic C project at 120 translation units (15x the
   real tree's eight), loaded into a booted session.  Seeded queries:
   `grep -n PAT *.c' through Rc.run, the way a middle click runs it,
   and Cbr.uses_at over the session's shared trigram index.  Every
   eighth query is followed by a Session.write_file edit of one unit.
   The sixteen patterns sit inside the 64-entry compile LRU, so repeats
   share work; twelve are literals the index prunes to one or two
   units, four have no usable trigram and fall back to a linear scan.
   This stresses lib/regexp, lib/index and lib/cbr and bypasses
   lib/nine; the edits are the write side, and re-indexing the stale
   unit lands in the next query's latency.

   Each round issues every pattern and uses anchor once, in a seeded
   order, so every seed runs the same mix. *)

let modules = 120
let edit_every = 8

(* module numbers are two-digit, so no identifier of one is a prefix of
   another's and every seed prunes to the same shape *)
let module_number st = 20 + Random.State.int st 80

let grep_pool st =
  List.concat_map
    (fun _ ->
      let a = module_number st and b = module_number st and c = module_number st in
      [
        Printf.sprintf "counter%d = counter%d" a a;
        Printf.sprintf "helper%d" b;
        Printf.sprintf "work%d\\(x" c;
        Printf.sprintf "acc = helper%d" a;
      ])
    [ 1; 2; 3 ]
  @ [ "[a-z]+ [0-9]+"; "x [<>] [0-9]"; "[a-z][0-9]+;"; "[0-9]\\);" ]

let rc_grep = Prof.region "rc.grep"
let cbr_uses = Prof.region "cbr.uses"
let edit = Prof.region "vfs.edit"
let compile = Prof.region "regexp.compile"
let prune = Prof.region "index.prune"
let scan = Prof.region "regexp.scan"

type query = Grep of string | Uses of string * string * int

let describe = function
  | Grep p -> "grep " ^ p
  | Uses (n, f, l) -> Printf.sprintf "uses %s %s:%d" n f l

(* A booted session with the corpus installed: its directory and unit
   paths. *)
let install () =
  let t = Session.boot () in
  let dir = Corpus.install_synthetic t.Session.ns ~modules in
  (t, dir, Array.init modules (fun m -> Printf.sprintf "%s/mod%03d.c" dir m))

let setup ~seed =
  (* the references, on a session of their own *)
  let ns, dir, paths =
    let t, dir, paths = install () in
    (t.Session.ns, dir, paths)
  in
  let units = List.init modules (Printf.sprintf "mod%03d.c") in
  let files = Array.to_list paths in
  let originals = Array.map (Vfs.read_file ns) paths in
  let st = Workload.rng ~seed "corpus" in
  let greps = grep_pool st in
  let anchor name =
    let m = int_of_string (String.sub name (String.length name - 2) 2) in
    let file = Printf.sprintf "mod%03d.c" m in
    (name, file, Corpus.line_of ns (dir ^ "/" ^ file) name)
  in
  let uses =
    List.map
      (fun kind -> anchor (Printf.sprintf "%s%d" kind (module_number st)))
      [ "work"; "work"; "counter"; "counter"; "helper"; "helper"; "work"; "counter" ]
  in
  let useful p = Index.query_useful (Index.plan (Regexp.compile p)) in
  if List.length (List.filter useful greps) <> 12 then
    failwith "corpus: the pattern pool lost its 12/4 split";
  (* the unpruned answer for every anchor; edits only append
     declarations no anchor refers to, so it stays valid *)
  let expected =
    let cache = Cbr.create_index () in
    List.map
      (fun (name, file, line) ->
        ((name, file, line), Cbr.uses_at ~index:cache ns ~cwd:dir units ~file ~line ~name))
      uses
  in
  let pool =
    Array.of_list
      (List.map (fun p -> Grep p) greps @ List.map (fun (n, f, l) -> Uses (n, f, l)) uses)
  in
  let n = Array.length pool in
  (* per round: the query order, the edits (unit, pad) and which
     queries are checked *)
  let stream () =
    let ops = Workload.rng ~seed "corpus.ops" in
    fun () ->
      let order = Workload.permutation ops n in
      let edits =
        Array.init (n / edit_every) (fun _ ->
            (Random.State.int ops modules, Random.State.int ops 1_000_000))
      in
      let sample = Array.init n (fun _ -> Random.State.int ops 8 = 0) in
      (order, edits, sample)
  in
  let digest =
    let next = stream () in
    let b = Buffer.create 65536 in
    for _ = 1 to 64 do
      let order, edits, _ = next () in
      Array.iteri
        (fun k i ->
          Buffer.add_string b (describe pool.(i) ^ "\n");
          if (k + 1) mod edit_every = 0 then
            let u, x = edits.(k / edit_every) in
            Buffer.add_string b (Printf.sprintf "edit %d %d\n" u x))
        order
    done;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  fun () ->
    let t, _, _ = install () in
    let ns = t.Session.ns in
    (* build the index and warm it and the compile cache *)
    let ix = Index.of_ns ns in
    List.iter (fun p -> ignore (Index.grep ix (Regexp.compile p) files)) greps;
    let next = stream () in
    let fail (r : Workload.run) msg =
      r.failed <- r.failed + 1;
      prerr_endline ("corpus: " ^ msg)
    in
    (* rc's output must be the linear scan's hits, and the indexed scan
       must agree with the linear one *)
    let check_grep r pat out =
      Prof.pause (fun () ->
          let re = Regexp.compile pat in
          let linear = Index.grep_linear ix re files in
          let expect =
            String.concat ""
              (List.map
                 (fun h ->
                   Printf.sprintf "%s:%d:%s\n" (Filename.basename h.Index.h_doc)
                     h.Index.h_line h.Index.h_text)
                 linear)
          in
          if Index.hits_text (Index.grep ix re files) <> Index.hits_text linear || out <> expect
          then fail r ("grep disagrees with the linear scan on " ^ pat))
    in
    let grep ~traced (r : Workload.run) ~check pat =
      let cmd = Printf.sprintf "grep -n '%s' *.c" pat in
      let res =
        Workload.timed r.op (fun () ->
            Prof.Counters.around (fun () ->
                Prof.time rc_grep (fun () -> Rc.run t.Session.sh ~cwd:dir cmd)))
      in
      if res.Rc.r_status > 1 || res.Rc.r_err <> "" then fail r ("grep failed: " ^ res.Rc.r_err)
      else if check then check_grep r pat res.Rc.r_out;
      if traced then begin
        (* the same query through the lower layers' entry points, each
           carved out of the shell's time; the shell prunes only when
           the planner found trigrams *)
        let compile_ns, prune_ns, scan_ns, useful =
          Prof.pause (fun () ->
              let re, compile_ns = Prof.elapsed (fun () -> Regexp.compile pat) in
              let q = Index.plan re in
              let useful = Index.query_useful q in
              let kept, prune_ns =
                if useful then Prof.elapsed (fun () -> Index.prune ix q files) else (files, 0)
              in
              (* the shell's scan: every line of every kept unit *)
              let _, scan_ns =
                Prof.elapsed (fun () ->
                    List.iter
                      (fun f ->
                        ignore (Hsearch.count_matching_lines (Hsearch.Pattern re) (Vfs.read_file ns f)))
                      kept)
              in
              (compile_ns, prune_ns, scan_ns, useful))
        in
        Prof.carve ~from:rc_grep compile compile_ns;
        Prof.carve ~from:rc_grep prune prune_ns;
        Prof.carve ~from:rc_grep scan scan_ns;
        Prof.tally "grep";
        if not useful then Prof.tally "grep.fallback"
      end
    in
    let uses_at ~traced (r : Workload.run) ~check ((name, file, line) as key) =
      let got =
        Workload.timed r.aux (fun () ->
            Prof.Counters.around (fun () ->
                Prof.time cbr_uses (fun () ->
                    Cbr.uses_at ~search:ix ns ~cwd:dir units ~file ~line ~name)))
      in
      if check then
        Prof.pause (fun () ->
            if got <> List.assoc key expected then fail r ("pruned uses differs for " ^ name));
      if traced then begin
        let _, prune_ns =
          Prof.pause (fun () ->
              Prof.elapsed (fun () -> Index.prune ix (Index.plan_literal name) files))
        in
        Prof.carve ~from:cbr_uses prune prune_ns
      end
    in
    let iterate ~traced (r : Workload.run) =
      let order, edits, sample = next () in
      Array.iteri
        (fun k i ->
          r.attempted <- r.attempted + 1;
          (match pool.(i) with
          | Grep pat -> grep ~traced r ~check:sample.(k) pat
          | Uses (name, file, line) -> uses_at ~traced r ~check:sample.(k) (name, file, line));
          if (k + 1) mod edit_every = 0 then begin
            let u, x = edits.(k / edit_every) in
            r.attempted <- r.attempted + 1;
            Prof.tally "edit";
            Prof.time edit (fun () ->
                Session.write_file t paths.(u)
                  (originals.(u) ^ Printf.sprintf "static int zz_pad_%06d;\n" x))
          end)
        order
    in
    { Workload.digest; iterate }

let workload =
  {
    Workload.name = "corpus";
    op_name = "grep -n PAT *.c through Rc.run";
    aux_name = "Cbr.uses_at ~search";
    named =
      [
        ("grep_ms_p50", `Op, 50., 1., "ms");
        ("grep_ms_p99", `Op, 99., 1., "ms");
        ("uses_ms_p50", `Aux, 50., 1., "ms");
        ("uses_ms_p90", `Aux, 90., 1., "ms");
      ];
    setup;
  }
