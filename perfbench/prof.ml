(* Wall-clock accounting for the traced run.

   Timed regions nest: a region's self time is its duration minus the
   part of it its child regions cover, and is credited to the layer
   named by the region's prefix ("rc.run" -> rc).  Regions are recorded
   only from the benchmark's own files, around calls into a layer's
   public functions or through the interposition points the code
   offers (an executor, a transport, a served filesystem).  Where no
   interposition point exists, the benchmark times the lower layer's
   entry point separately on the same input and {!carve}s that time
   out of the enclosing region.

   Everything here is wall clock (a monotonic nanosecond counter).
   The program's own trace clock is logical and is never read as time. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type region = {
  layer : string;
  mutable calls : int;
  mutable total : int;  (* ns *)
  mutable self : int;  (* ns *)
}

(* Regions are created once, at module initialisation, and zeroed by
   [reset]; timing a call costs two clock reads and no lookup. *)
let regions : (string * region) list ref = ref []
let on = ref false

(* [covered.(d)]: ns covered so far by the children of the region open
   at depth [d] *)
let covered = Array.make 256 0
let depth = ref 0

(* ns covered by top-level regions, and ns excluded by [pause] *)
let top = ref 0
let paused = ref 0

(* the benchmark's own counts of what it issued, by kind *)
let tallies : (string, int) Hashtbl.t = Hashtbl.create 8
let tallied name = Option.value ~default:0 (Hashtbl.find_opt tallies name)
let tally ?(by = 1) name = if !on then Hashtbl.replace tallies name (tallied name + by)

let reset () =
  Hashtbl.reset tallies;
  List.iter
    (fun (_, r) ->
      r.calls <- 0;
      r.total <- 0;
      r.self <- 0)
    !regions;
  depth := 0;
  top := 0;
  paused := 0

(* The region [name], credited to [layer] (by default, the name up to
   its first dot). *)
let region ?layer name =
  match List.assoc_opt name !regions with
  | Some r -> r
  | None ->
      let layer =
        match (layer, String.index_opt name '.') with
        | Some l, _ -> l
        | None, Some i -> String.sub name 0 i
        | None, None -> name
      in
      let r = { layer; calls = 0; total = 0; self = 0 } in
      regions := !regions @ [ (name, r) ];
      r

let close r d t0 =
  let dur = now_ns () - t0 in
  depth := d;
  r.calls <- r.calls + 1;
  r.total <- r.total + dur;
  r.self <- r.self + dur - covered.(d);
  if d > 0 then covered.(d - 1) <- covered.(d - 1) + dur else top := !top + dur

(* Run [f] inside region [r]; a no-op wrapper when tracing is off. *)
let time r f =
  if not !on then f ()
  else begin
    let d = !depth in
    covered.(d) <- 0;
    depth := d + 1;
    let t0 = now_ns () in
    match f () with
    | v ->
        close r d t0;
        v
    | exception e ->
        close r d t0;
        raise e
  end

(* Wall time of [f], unrecorded. *)
let elapsed f =
  let t0 = now_ns () in
  let v = f () in
  (v, now_ns () - t0)

(* Run [f] outside the measurement: checks and probes.  Its wall time
   is excluded from the run's measured time and its own regions are
   not kept. *)
let pause f =
  let was = !on in
  on := false;
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      paused := !paused + (now_ns () - t0);
      on := was)
    f

(* Credit [ns], measured by a probe, to region [r] and take it out of
   [from]'s self time: "from minus the lower layer". *)
let carve ~from r ns =
  if !on then begin
    r.calls <- r.calls + 1;
    r.total <- r.total + ns;
    r.self <- r.self + ns;
    from.self <- from.self - ns
  end

let used_regions () = List.filter (fun (_, r) -> r.calls > 0) !regions

let layer_self layer =
  List.fold_left (fun acc (_, r) -> if r.layer = layer then acc + r.self else acc) 0 !regions

(* Program counters, read as deltas around an operation.  These are
   the program's own deterministic counts (of cache hits, RPCs, runs);
   they are reported as counts and ratios, never as times.  A boot
   resets the registry, so a delta that went negative spans a reset
   and is dropped. *)
module Counters = struct
  let rpc_kinds =
    [ "version"; "attach"; "walk"; "open"; "create"; "read"; "write";
      "clunk"; "remove"; "stat"; "flush" ]

  let names =
    Array.of_list
      ([ "help.layout.hit"; "help.layout.miss"; "help.draw.clean";
         "help.draw.wins"; "cbr.unit.hit"; "cbr.unit.miss";
         "regexp.compile.hit"; "regexp.compile.miss";
         "index.query.candidates"; "index.query.skipped_docs";
         "index.stale.reindexed"; "rc.runs" ]
      @ List.map (fun k -> "nine.rpc." ^ k) rpc_kinds)

  let n = Array.length names
  let batch = Trace.histogram "nine.batch.size"

  (* counter values, then batch count and batch sum *)
  let read () =
    let a = Array.make (n + 2) 0 in
    Array.iteri
      (fun i name -> a.(i) <- Option.value ~default:0 (Trace.find_value name))
      names;
    let c, s, _, _ = Trace.histogram_stats batch in
    a.(n) <- c;
    a.(n + 1) <- s;
    a

  let acc = Array.make (n + 2) 0
  let clear () = Array.fill acc 0 (n + 2) 0

  let around f =
    if not !on then f ()
    else begin
      let before = read () in
      let v = f () in
      let after = read () in
      if Array.for_all2 ( <= ) before after then
        Array.iteri (fun i b -> acc.(i) <- acc.(i) + after.(i) - b) before;
      v
    end

  let get name =
    let rec find i =
      if i >= n then invalid_arg ("Prof.Counters.get " ^ name)
      else if names.(i) = name then acc.(i)
      else find (i + 1)
    in
    find 0

  let rpcs () =
    List.fold_left (fun s k -> s + get ("nine.rpc." ^ k)) 0 rpc_kinds

  let batches () = (acc.(n), acc.(n + 1))
end
