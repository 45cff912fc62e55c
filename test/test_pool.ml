(* The multi-connection serving layer: per-connection fid spaces,
   Tflush cancellation, round-robin fairness, deterministic
   interleaving replay, and many clients on one booted session,
   with and without faults. *)

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let counter_value name = Option.value ~default:0 (Trace.find_value name)

(* raw message helpers: drive a pooled connection at the wire level *)

let tmsg ~tag m = Nine.encode_t ~tag m

let version ~tag = tmsg ~tag (Nine.Tversion { msize = 65536; version = "9P2000.help" })
let attach ~tag = tmsg ~tag (Nine.Tattach { fid = 0; uname = "test"; aname = "" })
let stat_root ~tag = tmsg ~tag (Nine.Tstat { fid = 0 })
let flush ~tag oldtag = tmsg ~tag (Nine.Tflush { oldtag })

let reply_of = function
  | Nine.Pool.Replied r -> snd (Nine.decode_r r)
  | Waiting -> Alcotest.fail "request still waiting"
  | Flushed -> Alcotest.fail "request unexpectedly flushed"

(* [n] raw connections to [pool], each negotiated and attached,
   serving as we go *)
let raw_seats pool n =
  let conns =
    List.init n (fun i ->
        Nine.Pool.attach ~uname:(Printf.sprintf "raw%d" i) pool)
  in
  List.iter
    (fun c ->
      ignore (Nine.Pool.transport c (version ~tag:1));
      ignore (Nine.Pool.transport c (attach ~tag:2)))
    conns;
  conns

(* a pool over a ramfs with [n] raw attached connections *)
let raw_pool n =
  let ns = Vfs.create () in
  let pool = Nine.Pool.create (Vfs.ramfs ns) in
  (ns, pool, raw_seats pool n)

(* most-served over least-served, among the given served counts *)
let spread_of served =
  float_of_int (List.fold_left max 0 served)
  /. float_of_int (List.fold_left min max_int served)

(* live fids in one connection's table, from the pool's stats *)
let fids_of pool c =
  let id = Nine.Pool.conn_id c in
  List.fold_left
    (fun acc (i, _, _, fids) -> if i = id then fids else acc)
    0 (Nine.Pool.stats pool)

(* ------------------------------------------------------------------ *)
(* Codec + queue cancellation                                          *)

let flush_tests =
  [
    Alcotest.test_case "Tflush / Rflush round-trip the codec" `Quick (fun () ->
        (match Nine.decode_t (Nine.encode_t ~tag:3 (Nine.Tflush { oldtag = 77 })) with
        | 3, Nine.Tflush { oldtag } -> check_int "oldtag" 77 oldtag
        | _ -> Alcotest.fail "wrong message");
        match Nine.decode_r (Nine.encode_r ~tag:3 Nine.Rflush) with
        | 3, Nine.Rflush -> ()
        | _ -> Alcotest.fail "wrong message");
    Alcotest.test_case "flushing a queued request cancels it" `Quick (fun () ->
        let _ns, pool, conns = raw_pool 1 in
        let c = List.hd conns in
        let cancelled0 = counter_value "nine.flush.cancelled" in
        (* queue a walk, then flush it before the scheduler runs *)
        let victim =
          Nine.Pool.submit c
            (tmsg ~tag:5 (Nine.Twalk { fid = 0; newfid = 1; names = [] }))
        in
        let fl = Nine.Pool.submit c (flush ~tag:6 5) in
        Nine.Pool.run pool;
        check_bool "victim flushed" true
          (Nine.Pool.take c victim = Nine.Pool.Flushed);
        (match reply_of (Nine.Pool.take c fl) with
        | Nine.Rflush -> ()
        | _ -> Alcotest.fail "expected Rflush");
        check_int "cancelled counted" (cancelled0 + 1)
          (counter_value "nine.flush.cancelled");
        (* the cancelled walk never ran: no fid beyond the root *)
        check_int "no fid bound" 1 (Nine.Pool.fid_count pool));
    Alcotest.test_case "flushing a completed request is stale" `Quick (fun () ->
        let _ns, _pool, conns = raw_pool 1 in
        let c = List.hd conns in
        let stale0 = counter_value "nine.flush.stale" in
        (* the stat is served synchronously; flushing its tag afterwards
           finds nothing to cancel *)
        ignore (Nine.Pool.transport c (stat_root ~tag:9));
        (match snd (Nine.decode_r (Nine.Pool.transport c (flush ~tag:10 9))) with
        | Nine.Rflush -> ()
        | _ -> Alcotest.fail "expected Rflush");
        check_int "stale counted" (stale0 + 1) (counter_value "nine.flush.stale"));
  ]

(* ------------------------------------------------------------------ *)
(* Fid isolation                                                       *)

let isolation_tests =
  [
    Alcotest.test_case "a connection cannot clunk another's fid" `Quick
      (fun () ->
        let _ns, pool, conns = raw_pool 2 in
        let a, b = (List.nth conns 0, List.nth conns 1) in
        (* A binds fid 7 *)
        (match
           snd
             (Nine.decode_r
                (Nine.Pool.transport a
                   (tmsg ~tag:3
                      (Nine.Twalk { fid = 0; newfid = 7; names = [] }))))
         with
        | Nine.Rwalk _ -> ()
        | _ -> Alcotest.fail "walk failed");
        (* B clunking 7 draws unknown fid; A's table is untouched *)
        (match
           snd
             (Nine.decode_r
                (Nine.Pool.transport b (tmsg ~tag:4 (Nine.Tclunk { fid = 7 }))))
         with
        | Nine.Rerror { ename } ->
            check_bool "unknown fid" true
              (Hstr.find ename ~sub:"unknown fid" <> None)
        | _ -> Alcotest.fail "expected Rerror");
        ignore b;
        check_int "A keeps root + 7" 2 (fids_of pool a);
        ignore (Nine.Pool.served a));
  ]

(* property: whatever fids B clunks or walks, A's fid table is unchanged *)
let isolation_property =
  QCheck.Test.make ~name:"B's clunks and walks never touch A's fids"
    ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 0 20)
       (QCheck.make QCheck.Gen.(int_range 0 50)))
    (fun fids ->
      let _ns, pool, conns = raw_pool 2 in
      let a, b = (List.nth conns 0, List.nth conns 1) in
      (* A binds fids 1..5 *)
      List.iter
        (fun newfid ->
          ignore
            (Nine.Pool.transport a
               (tmsg ~tag:(10 + newfid)
                  (Nine.Twalk { fid = 0; newfid; names = [] }))))
        [ 1; 2; 3; 4; 5 ];
      let before = fids_of pool a in
      List.iteri
        (fun i fid ->
          ignore
            (Nine.Pool.transport b (tmsg ~tag:(100 + i) (Nine.Tclunk { fid })));
          ignore
            (Nine.Pool.transport b
               (tmsg ~tag:(200 + i)
                  (Nine.Twalk { fid; newfid = fid + 1; names = [] }))))
        fids;
      fids_of pool a = before)

(* ------------------------------------------------------------------ *)
(* Fairness and determinism                                            *)

(* Collect the pool's dispatch journal through its sink; the returned
   function reads it back, oldest first. *)
let collect_journal pool =
  let entries = ref [] in
  Nine.Pool.set_journal_sink pool (Some (fun e -> entries := e :: !entries));
  fun () -> List.rev !entries

let script_runs seed =
  (* three faulted clients over one pool; returns (journal, per-conn
     transcripts, final file contents) *)
  Trace.reset ();
  let ns = Vfs.create () in
  let pool = Nine.Pool.create (Vfs.ramfs ns) in
  let journal = collect_journal pool in
  let config = { Fault.default with seed; rate = 0.1 } in
  let mk i =
    let conn = Nine.Pool.attach ~uname:(Printf.sprintf "client%d" i) pool in
    let transport = Fault.wrap config (Nine.Pool.transport conn) in
    (conn, Nine.Client.connect ~uname:(Printf.sprintf "client%d" i) transport)
  in
  let clients = List.init 3 mk in
  let scratch = Vfs.create () in
  List.iteri
    (fun i (_, cl) ->
      Vfs.mount scratch (Printf.sprintf "/c%d" i) (Nine.Client.filesystem cl))
    clients;
  (* interleaved scripts: each client writes then reads its own file *)
  let transcripts =
    List.mapi
      (fun i (_, _) ->
        let path = Printf.sprintf "/c%d/f%d" i i in
        Vfs.write_file scratch path (Printf.sprintf "hello from %d" i);
        Vfs.read_file scratch path)
      clients
  in
  (journal (), transcripts, Nine.Pool.stats pool)

(* A read-only slice of the figure session as one buffer of T-frames:
   read the index and window [w]'s body, ctl and tag, and stat the
   index — 19 requests after version and attach. *)
let read_script w =
  let read names =
    [
      Nine.Twalk { fid = 0; newfid = 1; names };
      Nine.Topen { fid = 1; mode = Nine.Oread };
      Nine.Tread { fid = 1; offset = 0; count = 8192 };
      Nine.Tclunk { fid = 1 };
    ]
  in
  read [ "index" ] @ read [ w; "body" ] @ read [ w; "ctl" ]
  @ [
      Nine.Twalk { fid = 0; newfid = 2; names = [ "index" ] };
      Nine.Tstat { fid = 2 };
      Nine.Tclunk { fid = 2 };
    ]
  @ read [ w; "tag" ]
  |> List.mapi (fun i m -> tmsg ~tag:(3 + i) m)
  |> String.concat ""

(* Every seat feeds [script] before any is served; each seat's Rread
   payloads, concatenated, and the requests it was served.  The seats
   are disconnected after. *)
let replay_seats pool seats script =
  let tickets = List.map (fun c -> (c, Nine.Pool.feed c script)) seats in
  Nine.Pool.run pool;
  List.map
    (fun (c, ts) ->
      let reads = Buffer.create 256 in
      List.iter
        (fun t ->
          match Nine.Pool.take c t with
          | Nine.Pool.Replied r -> (
              match Nine.decode_r r with
              | _, Nine.Rread { data } -> Buffer.add_string reads data
              | _ -> ())
          | _ -> ())
        ts;
      let served = Nine.Pool.served c in
      Nine.Pool.disconnect c;
      (Buffer.contents reads, served))
    tickets

let fairness_tests =
  [
    Alcotest.test_case "round-robin serves equal scripts equally" `Quick
      (fun () ->
        let _ns, pool, conns = raw_pool 4 in
        List.iter
          (fun c ->
            for tag = 20 to 29 do
              ignore (Nine.Pool.submit c (stat_root ~tag))
            done)
          conns;
        Nine.Pool.run pool;
        let spread = Nine.Pool.fairness_spread pool in
        check_bool "spread is 1.0" true (spread = 1.0);
        (* at scale on a booted session: 128 seats replaying one script
           read what a lone seat reads, served within 5% of each other *)
        let s = Session.boot () in
        let w =
          let index = Vfs.read_file s.ns "/mnt/help/index" in
          String.sub index 0 (String.index index '\t')
        in
        let script = read_script w in
        let lone =
          fst (List.hd (replay_seats s.pool (raw_seats s.pool 1) script))
        in
        let fleet = replay_seats s.pool (raw_seats s.pool 128) script in
        check_bool "every seat reads what a lone seat reads" true
          (List.for_all (fun (reads, _) -> reads = lone) fleet);
        check_bool "128 seats served within 1.05" true
          (spread_of (List.map snd fleet) <= 1.05));
    Alcotest.test_case "a chatty client cannot starve the rest" `Quick
      (fun () ->
        let _ns, pool, conns = raw_pool 2 in
        let chatty, quiet = (List.nth conns 0, List.nth conns 1) in
        for tag = 20 to 119 do
          ignore (Nine.Pool.submit chatty (stat_root ~tag))
        done;
        let tq = Nine.Pool.submit quiet (stat_root ~tag:20) in
        (* two steps serve one from each ring seat; the quiet client's
           lone request does not wait behind 100 chatty ones *)
        ignore (Nine.Pool.step pool);
        ignore (Nine.Pool.step pool);
        check_bool "quiet served within one ring turn" true
          (match Nine.Pool.take quiet tq with
          | Nine.Pool.Replied _ -> true
          | _ -> false);
        Nine.Pool.run pool);
    Alcotest.test_case "same seed, byte-identical transcripts and journal"
      `Quick (fun () ->
        let j1, t1, s1 = script_runs 42 in
        let j2, t2, s2 = script_runs 42 in
        Trace.reset ();
        check_bool "journals identical" true (j1 = j2);
        check_bool "transcripts identical" true (t1 = t2);
        check_bool "per-conn stats identical" true (s1 = s2);
        check_bool "journal non-empty" true (j1 <> []));
    Alcotest.test_case "disconnect releases a connection's fids" `Quick
      (fun () ->
        let _ns, pool, conns = raw_pool 3 in
        check_int "one root fid per seat" 3 (Nine.Pool.fid_count pool);
        Nine.Pool.disconnect (List.nth conns 1);
        check_int "two seats left" 2 (Nine.Pool.fid_count pool);
        check_int "stats agree" 2 (List.length (Nine.Pool.stats pool)));
  ]

(* ------------------------------------------------------------------ *)
(* Client flush-on-timeout                                             *)

let client_tests =
  [
    Alcotest.test_case "a timed-out request sends Tflush before retrying"
      `Quick (fun () ->
        Trace.reset ();
        let ns = Vfs.create () in
        let pool = Nine.Pool.create (Vfs.ramfs ns) in
        let conn = Nine.Pool.attach ~uname:"timeouty" pool in
        let drop_next = ref false in
        let transport packet =
          (* drop exactly one read reply: the request is swallowed
             before submission, so the later flush finds nothing *)
          let _, m = Nine.decode_t packet in
          match m with
          | Nine.Tread _ when !drop_next ->
              drop_next := false;
              raise Nine.Timeout
          | _ -> Nine.Pool.transport conn packet
        in
        let client = Nine.Client.connect transport in
        ignore ns;
        let scratch = Vfs.create () in
        Vfs.mount scratch "/m" (Nine.Client.filesystem client);
        Vfs.write_file scratch "/m/f" "payload";
        drop_next := true;
        check_str "retry recovers the read" "payload"
          (Vfs.read_file scratch "/m/f");
        check_bool "flush was sent" true (counter_value "nine.flush.sent" >= 1);
        check_bool "flush acknowledged by server" true
          (counter_value "nine.flush.received" >= 1);
        Trace.reset ());
  ]

(* ------------------------------------------------------------------ *)
(* Through a whole session                                             *)

(* Eight clients on one booted session (the E12 load): each makes a
   window, then over three rounds appends to it and reads its body,
   the index and its ctl.  Returns the session's screen, the spread
   of requests served among the clients, and the fids left above
   baseline once every client has gone. *)
let eight_seats ?fault () =
  let s = Session.boot () in
  let baseline = Nine.Pool.fid_count s.pool in
  let wrap = Option.map Fault.wrap fault in
  let seats =
    List.init 8 (fun i ->
        Session.attach_client ?wrap ~uname:(Printf.sprintf "client%d" i) s)
  in
  let scratch = Vfs.create () in
  List.iteri
    (fun i (_, fs) -> Vfs.mount scratch (Printf.sprintf "/c%d" i) fs)
    seats;
  let wins = Array.make 8 "" in
  for round = 0 to 2 do
    List.iteri
      (fun i _ ->
        let root = Printf.sprintf "/c%d" i in
        if round = 0 then
          wins.(i) <- String.trim (Vfs.read_file scratch (root ^ "/new/ctl"));
        let w = root ^ "/" ^ wins.(i) in
        Vfs.write_file scratch (w ^ "/bodyapp")
          (Printf.sprintf "client %d round %d\n" i round);
        List.iter
          (fun f -> ignore (Vfs.read_file scratch f))
          [ w ^ "/body"; root ^ "/index"; w ^ "/ctl" ])
      seats
  done;
  let spread = spread_of (List.map (fun (c, _) -> Nine.Pool.served c) seats) in
  let dump = Session.dump s in
  List.iter (fun (c, _) -> Nine.Pool.disconnect c) seats;
  (dump, spread, Nine.Pool.fid_count s.pool - baseline)

let session_tests =
  [
    Alcotest.test_case "attach_client: a second program drives help" `Quick
      (fun () ->
        let s = Session.boot () in
        let baseline = Nine.Pool.fid_count s.pool in
        let conn, fs = Session.attach_client ~uname:"probe" s in
        let scratch = Vfs.create () in
        Vfs.mount scratch "/h" fs;
        (* the client creates a window through its own connection... *)
        let id = String.trim (Vfs.read_file scratch "/h/new/ctl") in
        Vfs.write_file scratch ("/h/" ^ id ^ "/bodyapp") "from the probe\n";
        (* ...and the session sees it *)
        check_bool "window visible to session" true
          (Help.window_by_id s.help (int_of_string id) <> None);
        check_bool "text visible to session" true
          (let w = Option.get (Help.window_by_id s.help (int_of_string id)) in
           Hstr.find (Htext.string (Hwin.body w)) ~sub:"from the probe"
           <> None);
        (* stats carry the uname *)
        check_bool "uname recorded" true
          (List.exists
             (fun (_, u, _, _) -> u = "probe")
             (Nine.Pool.stats s.pool));
        (* no cross-connection fid leaks once the probe leaves *)
        Nine.Pool.disconnect conn;
        check_int "fids back to baseline" baseline
          (Nine.Pool.fid_count s.pool));
    Alcotest.test_case "eight seats converge under a 10% fault schedule"
      `Quick (fun () ->
        let clean_dump, clean_spread, clean_leaked = eight_seats () in
        let dump, spread, leaked =
          eight_seats ~fault:{ Fault.default with seed = 0xca11; rate = 0.1 } ()
        in
        check_str "screens identical under faults" clean_dump dump;
        check_int "no leaked fids" 0 clean_leaked;
        check_int "no leaked fids under faults" 0 leaked;
        check_bool "spread within 2" true (clean_spread <= 2.0);
        check_bool "spread within 2 under faults" true (spread <= 2.0);
        (* the counters were reset at the faulted boot: they describe
           the faulted run alone *)
        check_bool "faults were injected" true
          (counter_value "nine.fault.injected" > 0);
        check_int "every flush received was cancelled or stale"
          (counter_value "nine.flush.received")
          (counter_value "nine.flush.cancelled"
          + counter_value "nine.flush.stale");
        check_bool "per-connection stats on the ledger" true
          (Hstr.contains (Trace.stats_text ()) ~sub:"nine.conn.attached"));
    Alcotest.test_case "a fid's file is closed however it ends" `Quick
      (fun () ->
        (* closing a window's ctl runs an unterminated last command, so
           the tag shows whether the close ran.  Tclunk, disconnect and
           Tversion (which clunks every fid, per version(5)) must all
           run it. *)
        let s = Session.boot () in
        let baseline = Nine.Pool.fid_count s.pool in
        let ending name finish =
          let w = Help.new_window s.help () in
          let c = Nine.Pool.attach ~uname:name s.pool in
          let send m = ignore (Nine.Pool.transport c (tmsg ~tag:1 m)) in
          ignore (Nine.Pool.transport c (version ~tag:1));
          ignore (Nine.Pool.transport c (attach ~tag:2));
          send
            (Nine.Twalk
               { fid = 0; newfid = 1;
                 names = [ string_of_int (Hwin.id w); "ctl" ] });
          send (Nine.Topen { fid = 1; mode = Nine.Owrite });
          send (Nine.Twrite { fid = 1; offset = 0; data = "tag probe " ^ name });
          finish c send;
          check_str (name ^ " ran the pending command") ("probe " ^ name)
            (Hwin.tag_text w);
          Nine.Pool.disconnect c
        in
        ending "clunk" (fun _ send -> send (Nine.Tclunk { fid = 1 }));
        ending "disconnect" (fun c _ -> Nine.Pool.disconnect c);
        ending "version" (fun _ send ->
            send (Nine.Tversion { msize = 65536; version = "9P2000.help" }));
        check_int "fids back to baseline" baseline
          (Nine.Pool.fid_count s.pool));
  ]

(* ------------------------------------------------------------------ *)
(* The cooperative scheduler: bounded queues, backpressure, batching   *)

(* A hostile client floods [k] requests through its ring (128 deep,
   served 8 at a time).  Three invariants, whatever [k]:
   the hostile queue never exceeds its bound (submission blocks and
   turns the scheduler instead), a polite client's lone request is
   still served within one ring turn, and every flooded request
   eventually settles — backpressure throttles, it does not drop. *)
let backpressure_property =
  QCheck.Test.make ~count:30
    ~name:"a flooding client is bounded and cannot starve others"
    (QCheck.make QCheck.Gen.(int_range 0 400))
    (fun k ->
      let ns = Vfs.create () in
      let pool = Nine.Pool.create (Vfs.ramfs ns) in
      let hostile = Nine.Pool.attach ~uname:"hostile" pool in
      let polite = Nine.Pool.attach ~uname:"polite" pool in
      List.iter
        (fun c ->
          ignore (Nine.Pool.transport c (version ~tag:1));
          ignore (Nine.Pool.transport c (attach ~tag:2)))
        [ hostile; polite ];
      let stalls0 = counter_value "nine.backpressure.stalls" in
      let bound = ref true in
      let tickets =
        List.init k (fun i ->
            let t = Nine.Pool.submit hostile (stat_root ~tag:(20 + i)) in
            if Nine.Pool.queue_length hostile > 128 then bound := false;
            t)
      in
      let tq = Nine.Pool.submit polite (stat_root ~tag:20) in
      ignore (Nine.Pool.step pool);
      ignore (Nine.Pool.step pool);
      let polite_served =
        match Nine.Pool.take polite tq with
        | Nine.Pool.Replied _ -> true
        | _ -> false
      in
      Nine.Pool.run pool;
      let all_settled =
        List.for_all
          (fun t ->
            match Nine.Pool.poll hostile t with
            | Nine.Pool.Replied _ -> true
            | _ -> false)
          tickets
      in
      ignore ns;
      !bound && polite_served && all_settled
      && (k <= 128 || counter_value "nine.backpressure.stalls" > stalls0))

(* one deterministic mixed-batch run: two clients feed coalesced wire
   buffers whose sizes are derived from [seed]; returns everything a
   replay must reproduce *)
let batch_run seed =
  Trace.reset ();
  let ns = Vfs.create () in
  let pool = Nine.Pool.create (Vfs.ramfs ns) in
  let journal = collect_journal pool in
  let a = Nine.Pool.attach ~uname:"a" pool in
  let b = Nine.Pool.attach ~uname:"b" pool in
  List.iter
    (fun c ->
      ignore (Nine.Pool.transport c (version ~tag:1));
      ignore (Nine.Pool.transport c (attach ~tag:2)))
    [ a; b ];
  let batch lo n =
    String.concat "" (List.init n (fun i -> stat_root ~tag:(lo + i)))
  in
  (* a tiny LCG turns the seed into batch sizes, so different seeds
     exercise different coalescing boundaries *)
  let state = ref seed in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    1 + (!state mod 7)
  in
  let tickets = ref [] in
  let tag = ref 20 in
  for _ = 1 to 6 do
    let na = next () and nb = next () in
    tickets := !tickets @ List.map (fun t -> (a, t)) (Nine.Pool.feed a (batch !tag na));
    tag := !tag + na;
    tickets := !tickets @ List.map (fun t -> (b, t)) (Nine.Pool.feed b (batch !tag nb));
    tag := !tag + nb
  done;
  Nine.Pool.run pool;
  let replies =
    List.map
      (fun (c, t) ->
        match Nine.Pool.take c t with
        | Nine.Pool.Replied r -> r
        | _ -> "")
      !tickets
  in
  ignore ns;
  ( journal (),
    Trace.histogram_stats (Trace.histogram "nine.batch.size"),
    replies )

let scheduler_tests =
  [
    Alcotest.test_case
      "same seed, same batch boundaries, same journal and replies" `Quick
      (fun () ->
        let j1, h1, r1 = batch_run 0xbeef in
        let j2, h2, r2 = batch_run 0xbeef in
        let j3, _, _ = batch_run 0xfeed in
        Trace.reset ();
        check_bool "journals identical" true (j1 = j2);
        check_bool "batch histograms identical" true (h1 = h2);
        let count, _, _, largest = h1 in
        check_bool "batches recorded" true (count > 0);
        check_bool "frames coalesce into batches" true (largest >= 2);
        check_bool "replies identical" true (r1 = r2);
        check_bool "journal non-empty" true (j1 <> []);
        check_bool "a different seed batches differently" true (j1 <> j3));
    Alcotest.test_case "nine.conn.active returns to baseline after churn"
      `Quick (fun () ->
        let s = Session.boot () in
        let active0 = counter_value "nine.conn.active" in
        let fid0 = Nine.Pool.fid_count s.pool in
        let clients =
          List.init 5 (fun i ->
              fst (Session.attach_client ~uname:(Printf.sprintf "churn%d" i) s))
        in
        check_int "gauge counts the new seats" (active0 + 5)
          (counter_value "nine.conn.active");
        List.iter Nine.Pool.disconnect clients;
        (* disconnect is idempotent: doubling up must not drive the
           gauge or the fid ledger negative *)
        Nine.Pool.disconnect (List.hd clients);
        check_int "gauge back to baseline" active0
          (counter_value "nine.conn.active");
        check_int "fids back to baseline" fid0 (Nine.Pool.fid_count s.pool));
    Alcotest.test_case "the registry returns to its size after churn" `Quick
      (fun () ->
        let s = Session.boot () in
        let churn round =
          List.iter Nine.Pool.disconnect
            (List.init 5 (fun i ->
                 fst
                   (Session.attach_client
                      ~uname:(Printf.sprintf "churn%d.%d" round i)
                      s)))
        in
        (* the first round registers whatever a client's first RPCs
           register; every later seat gets a new connection id *)
        churn 0;
        let size () =
          List.length (String.split_on_char '\n' (Trace.stats_text ()))
        in
        let size0 = size () in
        for round = 1 to 4 do
          churn round
        done;
        check_int "no instrument outlives its connection" size0 (size ()));
  ]

let () =
  Alcotest.run "pool"
    [
      ("flush", flush_tests);
      ( "isolation",
        isolation_tests @ [ Seeded.to_alcotest 31 isolation_property ] );
      ("fairness", fairness_tests);
      ( "scheduler",
        scheduler_tests @ [ Seeded.to_alcotest 37 backpressure_property ]
      );
      ("client", client_tests);
      ("session", session_tests);
    ]
