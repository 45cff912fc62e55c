(* fanin: 256 seats attached to one booted session's /mnt/help pool.
   Each round, every seat feeds one walk/open/read/clunk batch for
   `cat N/body' of a window from a fixed set; a seeded quarter of the
   seats instead write a body (walk, open with truncation, write,
   clunk) with one of sixteen seeded fixed-size texts.  Replies come
   back through the scheduler's continuations; the round drains under
   Pool.run and the session repaints once.  This is the "programs
   drive help through files" path: it exercises lib/nine (wire, sched,
   server) and lib/srv, and barely touches lib/shell, lib/regexp or
   lib/index.  Writes take the same server path as reads but also
   dirty buffers and leave damage for the repaint.

   All seats are in-process connections of the cooperative scheduler,
   driven from one OS thread; each waits for its reply (closed loop). *)

let seats = 256
let text_size = 256
let n_texts = 16
let read_count = 60000
let files = [ Corpus.mbox_path; "/lib/news"; Corpus.src_dir ^ "/dat.h"; Corpus.src_dir ^ "/fns.h" ]

let feed = Prof.region "nine.feed"
let sched = Prof.region "nine.sched"
let decode = Prof.region "nine.decode"
let repaint = Prof.region "draw.repaint"

let batch msgs =
  String.concat "" (List.mapi (fun i m -> Nine.encode_t ~tag:(i + 1) m) msgs)

let cat_batch id =
  batch
    [
      Nine.Twalk { fid = 0; newfid = 1; names = [ string_of_int id; "body" ] };
      Nine.Topen { fid = 1; mode = Nine.Oread };
      Nine.Tread { fid = 1; offset = 0; count = read_count };
      Nine.Tclunk { fid = 1 };
    ]

let write_batch id text =
  batch
    [
      Nine.Twalk { fid = 0; newfid = 1; names = [ string_of_int id; "body" ] };
      Nine.Topen { fid = 1; mode = Nine.Otrunc Nine.Owrite };
      Nine.Twrite { fid = 1; offset = 0; data = text };
      Nine.Tclunk { fid = 1 };
    ]

let attach_seats pool =
  Array.init seats (fun _ ->
      let c = Nine.Pool.attach ~uname:"seat" pool in
      let rpc m = ignore (Nine.Pool.transport c (Nine.encode_t ~tag:1 m)) in
      rpc (Nine.Tversion { msize = 65536; version = "9P2000.help" });
      rpc (Nine.Tattach { fid = 0; uname = "seat"; aname = "" });
      c)

(* The booted session the seats attach to, with the windows of the
   fixed set open. *)
let session () =
  let t = Session.boot () in
  List.iter (fun f -> ignore (Help.open_file t.Session.help ~dir:"/" f)) files;
  ignore (Session.screen t);
  t

let setup ~seed =
  let nwin = List.length (Help.windows (session ()).Session.help) in
  let st = Workload.rng ~seed "fanin" in
  let texts =
    Array.init n_texts (fun _ ->
        String.init text_size (fun i ->
            if i mod 64 = 63 then '\n' else Char.chr (97 + Random.State.int st 26)))
  in
  let writer = Array.make seats false in
  let perm = Workload.permutation st seats in
  for k = 0 to (seats / 4) - 1 do
    writer.(perm.(k)) <- true
  done;
  (* the op stream: per round and seat, a window and a text *)
  let stream () =
    let ops = Workload.rng ~seed "fanin.ops" in
    fun () ->
      Array.init seats (fun _ ->
          let w = Random.State.int ops nwin in
          (w, Random.State.int ops n_texts))
  in
  let digest =
    let next = stream () in
    let b = Buffer.create 65536 in
    for _ = 1 to 16 do
      Array.iteri
        (fun i (w, x) ->
          Buffer.add_string b
            (if writer.(i) then Printf.sprintf "w%d:%d " w x else Printf.sprintf "r%d " w))
        (next ())
    done;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  fun () ->
    let t = session () in
    let ids = Array.of_list (List.map Hwin.id (Help.windows t.Session.help)) in
    (* a read must return the window's initial body or a text written
       to it; every body must fit one read *)
    let allowed =
      Prof.pause (fun () ->
          Array.map
            (fun id ->
              let h = Hashtbl.create 8 in
              let body = Vfs.read_file t.Session.ns (Printf.sprintf "/mnt/help/%d/body" id) in
              if String.length body >= read_count then failwith "fanin: body exceeds one read";
              Hashtbl.replace h body ();
              h)
            ids)
    in
    let cats = Array.map cat_batch ids in
    let writes = Array.map (fun id -> Array.map (write_batch id) texts) ids in
    let plain = attach_seats t.Session.pool in
    let traced_seats =
      lazy
        (let pool =
           Nine.Pool.create (Workload.timed_fs (Help_srv.filesystem t.Session.help))
         in
         (pool, attach_seats pool))
    in
    let next = stream () in
    let fed = Array.make seats 0 in
    (* each seat's decoded replies of the round, checked after it *)
    let got = Array.make seats [] in
    let ok w = function
      | Some (Nine.Rwalk { qids }) -> List.length qids = 2
      | Some (Nine.Ropen _ | Nine.Rclunk) -> true
      | Some (Nine.Rread { data }) -> Hashtbl.mem allowed.(w) data
      | Some (Nine.Rwrite { count }) -> count = text_size
      | _ -> false
    in
    let iterate ~traced (r : Workload.run) =
      let pool, conns =
        if traced then Prof.pause (fun () -> Lazy.force traced_seats)
        else (t.Session.pool, plain)
      in
      let choice = next () in
      Prof.Counters.around (fun () ->
          for i = 0 to seats - 1 do
            let w, x = choice.(i) in
            let is_write = writer.(i) in
            if is_write then Hashtbl.replace allowed.(w) texts.(x) ();
            let c = conns.(i) in
            r.attempted <- r.attempted + 1;
            got.(i) <- [];
            fed.(i) <- Prof.now_ns ();
            let settled tk last o =
              let reply =
                match o with
                | Nine.Pool.Replied rep -> Some (snd (Prof.time decode (fun () -> Nine.decode_r rep)))
                | Nine.Pool.Waiting | Nine.Pool.Flushed -> None
              in
              got.(i) <- reply :: got.(i);
              if tk = last then
                Workload.Samples.add
                  (if is_write then r.aux else r.op)
                  (float_of_int (Prof.now_ns () - fed.(i)) /. 1e6)
            in
            (* submission: the batch, then a continuation per ticket *)
            Prof.time feed (fun () ->
                let tickets = Nine.Pool.feed c (if is_write then writes.(w).(x) else cats.(w)) in
                let last = List.nth tickets 3 in
                List.iter (fun tk -> Nine.Pool.on_settled c tk (settled tk last)) tickets)
          done;
          Prof.time sched (fun () -> Nine.Pool.run pool));
      Prof.pause (fun () ->
          Array.iteri
            (fun i replies ->
              let w, _ = choice.(i) in
              if List.length replies <> 4 || not (List.for_all (ok w) replies) then
                r.failed <- r.failed + 1)
            got);
      r.rpcs <- r.rpcs + (4 * seats);
      ignore (Prof.time repaint (fun () -> Session.screen t))
    in
    { Workload.digest; iterate }

let workload =
  {
    Workload.name = "fanin";
    op_name = "cat N/body (feed to last reply)";
    aux_name = "body write (feed to last reply)";
    named =
      [
        ("cat_us_p50", `Op, 50., 1000., "us");
        ("cat_us_p99", `Op, 99., 1000., "us");
        ("write_us_p50", `Aux, 50., 1000., "us");
      ];
    setup;
  }
