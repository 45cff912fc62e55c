(* The 9P-style protocol stack: codec (from [Wire]), in-process server,
   the pool that schedules requests into it, client.

   The codec lives in [Wire] (zero-copy cursors, reusable writers) and
   is re-exported here so existing [Nine.encode_t] etc. callers are
   unchanged.  [Server] executes decoded T-messages against per-
   connection fid tables, with O(1) fid accounting so a server holding
   ten thousand seats costs the same per request as one holding two.
   [Pool] is the only way in: it owns the server and is its cooperative
   scheduler — bounded per-connection rings, round-robin batches,
   continuations, and the dispatch journal sink. *)

include Wire

let bad msg = raise (Bad_message msg)

(* ------------------------------------------------------------------ *)
(* Server                                                              *)

let iounit = 8192

let qid_of_stat (st : Vfs.stat) path =
  {
    q_type = (if st.st_dir then qtdir else 0);
    q_version = st.st_version;
    q_path = Hashtbl.hash path land 0xffffff;
  }

let stat9_of_stat (st : Vfs.stat) path =
  {
    s9_name = st.st_name;
    s9_qid = qid_of_stat st path;
    s9_length = st.st_length;
    s9_mtime = st.st_mtime;
  }

module Server = struct
  type fid_state = {
    mutable path : string list;
    mutable opened : Vfs.openfile option;
    mutable dirdata : string option;  (* rendered dir contents if a dir *)
  }

  (* One client's seat: its own fid table, negotiated msize and
     recorded uname.  Nothing a connection does can name another
     connection's fids — the tables are disjoint by construction. *)
  type conn = {
    conn_id : int;
    fids : (int, fid_state) Hashtbl.t;
    mutable c_msize : int;  (* negotiated at this connection's Tversion *)
    mutable c_uname : string;  (* recorded at Tattach, for stats *)
    mutable c_served : int;  (* requests executed on this connection *)
  }

  type t = {
    fs : Vfs.filesystem;
    counts : (string, int) Hashtbl.t;
    mutable live : int;  (* fids across all connections, kept incrementally *)
  }

  let create fs = { fs; counts = Hashtbl.create 16; live = 0 }

  let connection ~id ~uname =
    { conn_id = id; fids = Hashtbl.create 32; c_msize = 65536;
      c_uname = uname; c_served = 0 }

  (* Fid-table mutation goes through these three, so the server-wide
     live count (and with it [fid_count] and the [nine.fids.live]
     gauge) stays O(1) instead of a fold over every connection per
     request. *)
  let bind_fid srv conn fid st =
    if not (Hashtbl.mem conn.fids fid) then srv.live <- srv.live + 1;
    Hashtbl.replace conn.fids fid st

  let drop_fid srv conn fid =
    if Hashtbl.mem conn.fids fid then begin
      srv.live <- srv.live - 1;
      Hashtbl.remove conn.fids fid
    end

  (* Clunk every fid of the connection, closing whatever it left open:
     a Tversion starts a fresh session on the seat, and a client that
     vanishes must not pin files forever.  Close errors are dropped —
     the fids are gone either way. *)
  let release_fids srv conn =
    Hashtbl.iter
      (fun _ st ->
        match st.opened with
        | Some f -> ( try f.Vfs.of_close () with Vfs.Error _ -> ())
        | None -> ())
      conn.fids;
    srv.live <- srv.live - Hashtbl.length conn.fids;
    Hashtbl.reset conn.fids

  let count srv kind =
    Hashtbl.replace srv.counts kind
      (1 + Option.value ~default:0 (Hashtbl.find_opt srv.counts kind))

  let lookup conn fid =
    match Hashtbl.find_opt conn.fids fid with
    | Some st -> st
    | None -> raise (Vfs.Error (Vfs.Eio "unknown fid"))

  let render_dir srv path =
    let entries = srv.fs.fs_readdir path in
    let b = Buffer.create 256 in
    List.iter
      (fun st -> Buffer.add_string b (encode_stat (stat9_of_stat st path)))
      entries;
    Buffer.contents b

  let flush_received = Trace.counter "nine.flush.received"

  let exec srv conn msg =
    match msg with
    | Tversion { msize; version = _ } ->
        release_fids srv conn;
        conn.c_msize <- max 256 (min msize 65536);
        Rversion { msize = conn.c_msize; version = "9P2000.help" }
    | Tattach { fid; uname; _ } ->
        let st = srv.fs.fs_stat [] in
        conn.c_uname <- uname;
        bind_fid srv conn fid { path = []; opened = None; dirdata = None };
        Rattach { qid = qid_of_stat st [] }
    | Tflush _ ->
        (* By the time a flush is executed the old request has either
           been answered or cancelled out of the pool's queue (see
           [Pool.submit_msg]); all that is left is to acknowledge. *)
        Trace.incr flush_received;
        Rflush
    | Twalk { fid; newfid; names } ->
        let state = lookup conn fid in
        (* 9P partial-walk semantics: walk as far as possible and report
           the qids of the components that worked.  Only a walk of the
           whole list binds [newfid]; an error on the first component is
           an error reply. *)
        let rec go path acc = function
          | [] -> (path, List.rev acc)
          | name :: rest -> (
              let path' = path @ [ name ] in
              match srv.fs.fs_stat path' with
              | st -> go path' (qid_of_stat st path' :: acc) rest
              | exception Vfs.Error e ->
                  if acc = [] then raise (Vfs.Error e)
                  else (path, List.rev acc))
        in
        let path', qids = go state.path [] names in
        if List.length qids = List.length names then
          bind_fid srv conn newfid
            { path = path'; opened = None; dirdata = None };
        Rwalk { qids }
    | Topen { fid; mode } ->
        let state = lookup conn fid in
        let st = srv.fs.fs_stat state.path in
        if st.st_dir then begin
          state.dirdata <- Some (render_dir srv state.path);
          Ropen { qid = qid_of_stat st state.path; iounit }
        end
        else begin
          let rec base = function Otrunc m -> base m | m -> m in
          let trunc = match mode with Otrunc _ -> true | _ -> false in
          let vmode =
            match base mode with
            | Oread -> Vfs.Read
            | Owrite -> Vfs.Write
            | Ordwr | Otrunc _ -> Vfs.Rdwr
          in
          let f = srv.fs.fs_open state.path vmode ~trunc in
          state.opened <- Some f;
          Ropen { qid = qid_of_stat st state.path; iounit }
        end
    | Tcreate { fid; name; dir; mode } ->
        let state = lookup conn fid in
        let path' = state.path @ [ name ] in
        srv.fs.fs_create path' ~dir;
        state.path <- path';
        let st = srv.fs.fs_stat path' in
        if dir then begin
          state.dirdata <- Some (render_dir srv path');
          Rcreate { qid = qid_of_stat st path'; iounit }
        end
        else begin
          let trunc = match mode with Otrunc _ -> true | _ -> false in
          let f = srv.fs.fs_open path' Vfs.Rdwr ~trunc in
          state.opened <- Some f;
          Rcreate { qid = qid_of_stat st path'; iounit }
        end
    | Tread { fid; offset; count } -> (
        let state = lookup conn fid in
        (* the reply must fit the negotiated msize: size[4] type[1]
           tag[2] count[4] leaves msize - 11 bytes for data *)
        let count = max 0 (min count (conn.c_msize - 11)) in
        match (state.opened, state.dirdata) with
        | Some f, _ -> Rread { data = f.Vfs.of_read ~off:offset ~count }
        | None, Some data ->
            let len = String.length data in
            if offset >= len then Rread { data = "" }
            else
              Rread { data = String.sub data offset (min count (len - offset)) }
        | None, None -> raise (Vfs.Error (Vfs.Eio "fid not open")))
    | Twrite { fid; offset; data } -> (
        let state = lookup conn fid in
        match state.opened with
        | Some f -> Rwrite { count = f.Vfs.of_write ~off:offset data }
        | None -> raise (Vfs.Error (Vfs.Eio "fid not open")))
    | Tclunk { fid } ->
        let state = lookup conn fid in
        (* the fid is clunked even when close fails: an error reply must
           not leave it live in the table *)
        drop_fid srv conn fid;
        (match state.opened with Some f -> f.Vfs.of_close () | None -> ());
        Rclunk
    | Tremove { fid } ->
        let state = lookup conn fid in
        (* per 9P, remove is "clunk with the side effect of removing":
           the fid is gone even when the removal itself fails *)
        drop_fid srv conn fid;
        (match state.opened with
        | Some f -> ( try f.Vfs.of_close () with Vfs.Error _ -> ())
        | None -> ());
        srv.fs.fs_remove state.path;
        Rremove
    | Tstat { fid } ->
        let state = lookup conn fid in
        let st = srv.fs.fs_stat state.path in
        Rstat { stat = stat9_of_stat st state.path }

  (* Per-message-type tallies and round-trip latency on the global
     observability ledger; [counts] stays per-server (each link keeps
     its own tally on top of the aggregate). *)
  let rpc_counters =
    List.map
      (fun k -> (k, Trace.counter ("nine.rpc." ^ k)))
      [ "version"; "attach"; "walk"; "open"; "create"; "read"; "write";
        "clunk"; "remove"; "stat"; "flush" ]

  let rpc_us = Trace.histogram "nine.rpc.us"
  let live_fids = Trace.gauge "nine.fids.live"

  (* Execute one decoded request and append its framed reply to [w]:
     tallies, timing, fid-gauge upkeep.  [len] is the request's wire
     length, checked against the connection's msize.  [req] is the
     request id allocated at submit time: the request executes inside a
     [rpc.<kind>] span that tags the whole nested tree — the server's
     work, Vfs resolution, Help execution — with it. *)
  let dispatch srv conn w ~tag ~len ~req msg =
    let kind = kind_of_t msg in
    count srv kind;
    (match List.assoc_opt kind rpc_counters with
    | Some c -> Trace.incr c
    | None -> ());
    conn.c_served <- conn.c_served + 1;
    let t0 = Trace.now_us () in
    let run () =
      if len > conn.c_msize then Rerror { ename = "message too large" }
      else
        try exec srv conn msg
        with Vfs.Error e -> Rerror { ename = Vfs.error_message e }
    in
    let reply =
      Trace.with_request ~reqid:req
        ~args:
          [ ("conn", string_of_int conn.conn_id); ("req", string_of_int req) ]
        ("rpc." ^ kind) run
    in
    Trace.observe rpc_us (Trace.now_us () - t0);
    Trace.set_gauge live_fids srv.live;
    encode_r_into w ~tag reply
end

(* ------------------------------------------------------------------ *)
(* Pool: the server's cooperative scheduler                            *)

(* What the pool owns is the concurrency structure:

   - a bounded FIFO ring per connection, with explicit backpressure:
     submitting into a full ring turns the scheduler until space frees,
     counting [nine.backpressure.stalls];

   - a ready queue of connections, served round-robin, up to
     [batch_limit] requests per connection per turn ([nine.batch.size]
     histogram) — one turn of the ready queue serves at most one batch
     per connection, so a flooding client waits behind everyone else's
     next batch, never ahead of it;

   - a run-to-completion task queue for continuations ([on_settled]),
     drained between batches, so thousands of scripted clients
     interleave without threads;

   - a journal sink that receives a (clock, conn, kind) record per
     dispatched request.

   Everything is deterministic: connections are served in ready-queue
   order, which is a pure function of the submission schedule, and the
   clock is [Trace]'s logical clock — the same schedule replays to the
   same interleaving, the same journal, and byte-identical replies. *)

module Pool = struct
  type outcome = Waiting | Replied of string | Flushed

  type entry = {
    e_ticket : int;
    e_tag : int;
    e_len : int;  (* request wire length, for the server's msize check *)
    e_req : int;  (* request id, allocated at submit time *)
    e_msg : tmsg;
    mutable e_cancelled : bool;  (* tombstoned by a Tflush while queued *)
  }

  type conn = {
    pool : t;
    sconn : Server.conn;
    rpcs : Trace.counter;  (* nine.conn.<id>.rpcs *)
    writer : Writer.t;  (* reusable reply encode buffer *)
    (* bounded FIFO ring; grows geometrically up to [max_queue] *)
    mutable q : entry option array;
    mutable q_head : int;
    mutable q_len : int;
    outcomes : (int, outcome) Hashtbl.t;  (* settled, not yet taken *)
    settled : (int, outcome -> unit) Hashtbl.t;  (* continuations *)
    mutable next_ticket : int;
    mutable submitted : int;
    mutable in_ready : bool;
    mutable dead : bool;
  }

  and t = {
    srv : Server.t;
    conns : (int, conn) Hashtbl.t;  (* by conn id; ids grow in attach order *)
    mutable next_id : int;
    ready : conn Queue.t;
    tasks : (unit -> unit) Queue.t;
    mutable journal_sink : (int * int * string -> unit) option;
  }

  let stalls = Trace.counter "nine.backpressure.stalls"
  let batch_size = Trace.histogram "nine.batch.size"
  let flush_cancelled = Trace.counter "nine.flush.cancelled"
  let flush_stale = Trace.counter "nine.flush.stale"
  let conn_gauge = Trace.gauge "nine.conn.active"
  let conn_attached = Trace.counter "nine.conn.attached"

  let max_queue = 128
  let batch_limit = 8

  let create fs =
    {
      srv = Server.create fs;
      conns = Hashtbl.create 64;
      next_id = 0;
      ready = Queue.create ();
      tasks = Queue.create ();
      journal_sink = None;
    }

  let rpcs_name id = Printf.sprintf "nine.conn.%d.rpcs" id

  let attach ?(uname = "none") p =
    let id = p.next_id in
    p.next_id <- id + 1;
    let c =
      {
        pool = p;
        sconn = Server.connection ~id ~uname;
        rpcs = Trace.counter (rpcs_name id);
        writer = Writer.create 1024;
        q = Array.make 8 None;
        q_head = 0;
        q_len = 0;
        outcomes = Hashtbl.create 8;
        settled = Hashtbl.create 8;
        next_ticket = 0;
        submitted = 0;
        in_ready = false;
        dead = false;
      }
    in
    Hashtbl.replace p.conns id c;
    Trace.incr conn_attached;
    Trace.set_gauge conn_gauge (Hashtbl.length p.conns);
    c

  let conn_id c = c.sconn.conn_id
  let served c = c.sconn.c_served
  let queue_length c = c.q_len
  let fid_count p = p.srv.live

  let kind_counts p =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) p.srv.counts []
    |> List.sort compare

  (* A disconnected connection keeps nothing queued: whatever was in
     flight is dropped, so a caller waiting on one of its tickets sees
     the queue drain and reports the request vanished (exactly a client
     that hung up mid-conversation).  Idempotent — a second disconnect
     of the same seat is a no-op, so the [nine.conn.active] gauge cannot
     drift below the truth. *)
  let disconnect c =
    if not c.dead then begin
      let p = c.pool in
      c.dead <- true;
      Array.fill c.q 0 (Array.length c.q) None;
      c.q_len <- 0;
      Hashtbl.reset c.settled;
      Hashtbl.remove p.conns (conn_id c);
      (* the counter goes with its connection, or a churning fleet grows
         the registry that every window roll walks *)
      Trace.unregister (rpcs_name (conn_id c));
      Server.release_fids p.srv c.sconn;
      Trace.set_gauge conn_gauge (Hashtbl.length p.conns)
    end

  (* ---------------------------------------------------------------- *)
  (* Per-connection ring                                               *)

  let q_push c e =
    let cap = Array.length c.q in
    if c.q_len = cap && cap < max_queue then begin
      let cap' = min (2 * cap) max_queue in
      let q' = Array.make cap' None in
      for i = 0 to c.q_len - 1 do
        q'.(i) <- c.q.((c.q_head + i) mod cap)
      done;
      c.q <- q';
      c.q_head <- 0
    end;
    assert (c.q_len < Array.length c.q);
    c.q.((c.q_head + c.q_len) mod Array.length c.q) <- Some e;
    c.q_len <- c.q_len + 1

  let q_pop c =
    if c.q_len = 0 then None
    else begin
      let e = c.q.(c.q_head) in
      c.q.(c.q_head) <- None;
      c.q_head <- (c.q_head + 1) mod Array.length c.q;
      c.q_len <- c.q_len - 1;
      e
    end

  let q_iter c f =
    let cap = Array.length c.q in
    for i = 0 to c.q_len - 1 do
      match c.q.((c.q_head + i) mod cap) with
      | Some e -> f e
      | None -> assert false
    done

  (* ---------------------------------------------------------------- *)
  (* Journal                                                           *)

  let set_journal_sink p sink = p.journal_sink <- sink

  (* The stamp is the clock's current position, not a reading, so
     attaching a sink does not perturb timestamps. *)
  let journal_record p c kind =
    match p.journal_sink with
    | Some sink -> sink (Trace.logical_now (), conn_id c, kind)
    | None -> ()

  (* ---------------------------------------------------------------- *)
  (* Settling                                                          *)

  let settle c ticket o =
    match Hashtbl.find_opt c.settled ticket with
    | Some cb ->
        (* continuation-driven: the outcome is consumed by the callback,
           run-to-completion, from the task queue *)
        Hashtbl.remove c.settled ticket;
        Queue.add (fun () -> cb o) c.pool.tasks
    | None -> Hashtbl.replace c.outcomes ticket o

  let poll c ticket =
    match Hashtbl.find_opt c.outcomes ticket with
    | Some o -> o
    | None -> Waiting

  let take c ticket =
    let o = poll c ticket in
    (match o with
    | Waiting -> ()
    | Replied _ | Flushed -> Hashtbl.remove c.outcomes ticket);
    o

  let on_settled c ticket cb =
    match Hashtbl.find_opt c.outcomes ticket with
    | Some o ->
        (* already settled: deliver from the task queue all the same, so
           callbacks never run inside the submitter's stack *)
        Hashtbl.remove c.outcomes ticket;
        Queue.add (fun () -> cb o) c.pool.tasks
    | None -> Hashtbl.replace c.settled ticket cb

  (* ---------------------------------------------------------------- *)
  (* Serving                                                           *)

  let run_tasks p =
    let ran = not (Queue.is_empty p.tasks) in
    while not (Queue.is_empty p.tasks) do
      (Queue.pop p.tasks) ()
    done;
    ran

  let mark_ready c =
    if (not c.in_ready) && not c.dead then begin
      c.in_ready <- true;
      Queue.add c c.pool.ready
    end

  (* Serve one connection's batch: up to [batch_limit] queued requests
     are dispatched back-to-back into the connection's reply writer,
     and each reply is settled as it is sliced out.  Cancelled (flushed)
     entries are consumed without dispatching — they were settled at
     cancellation time and must not count against the batch. *)
  let serve_batch p c =
    Writer.clear c.writer;
    let served = ref 0 in
    let exhausted = ref false in
    while (not !exhausted) && !served < batch_limit && c.q_len > 0 do
      match q_pop c with
      | None -> exhausted := true
      | Some e when e.e_cancelled -> ()
      | Some e ->
          journal_record p c (kind_of_t e.e_msg);
          let off = Writer.length c.writer in
          Trace.incr c.rpcs;
          Server.dispatch p.srv c.sconn c.writer ~tag:e.e_tag ~len:e.e_len
            ~req:e.e_req e.e_msg;
          let len = Writer.length c.writer - off in
          settle c e.e_ticket (Replied (Writer.sub_string c.writer ~off ~len));
          incr served
    done;
    if !served > 0 then Trace.observe batch_size !served;
    if c.q_len > 0 then mark_ready c

  (* One scheduler turn: drain pending continuations, then serve the
     batch of the next ready connection (and whatever continuations it
     unblocks).  Returns [false] only when there is nothing left to
     do. *)
  let step p =
    let ran = run_tasks p in
    let rec next () =
      match Queue.take_opt p.ready with
      | None -> ran
      | Some c ->
          c.in_ready <- false;
          if c.dead then next ()  (* hung up while waiting its turn *)
          else begin
            serve_batch p c;
            ignore (run_tasks p);
            true
          end
    in
    next ()

  let run p = while step p do () done

  (* ---------------------------------------------------------------- *)
  (* Submission                                                        *)

  (* Accept one decoded request.  A [Tflush] is the cancellation point:
     if the flushed tag is still queued, the victim is tombstoned on the
     spot and its ticket settled [Flushed], so it will never execute; a
     flush arriving after its victim completed is counted stale.  The
     flush itself then queues and is answered in order.  A full ring is
     backpressure, not an error: the scheduler turns until space frees,
     counting each stall — submission order still fully determines the
     interleaving, so replay is unaffected. *)
  let submit_msg c ~tag ~len msg =
    if c.dead then invalid_arg "Pool: submit on a disconnected connection";
    let p = c.pool in
    let ticket = c.next_ticket in
    c.next_ticket <- ticket + 1;
    c.submitted <- c.submitted + 1;
    (match msg with
    | Tflush { oldtag } ->
        let hit = ref false in
        q_iter c (fun e ->
            if (not !hit) && (not e.e_cancelled) && e.e_tag = oldtag then begin
              hit := true;
              e.e_cancelled <- true;
              settle c e.e_ticket Flushed
            end);
        if !hit then Trace.incr flush_cancelled else Trace.incr flush_stale
    | _ -> ());
    while c.q_len >= max_queue do
      Trace.incr stalls;
      if not (step p) then
        (* unreachable: this connection's own full queue is schedulable *)
        invalid_arg "Pool: stalled with nothing to serve"
    done;
    q_push c { e_ticket = ticket; e_tag = tag; e_len = len;
               e_req = Trace.request_id (); e_msg = msg; e_cancelled = false };
    mark_ready c;
    ticket

  let submit c packet =
    let tag, msg = decode_t packet in
    submit_msg c ~tag ~len:(String.length packet) msg

  (* Wire-level batching: a buffer of concatenated T-frames is split and
     decoded in place — no per-frame copy — and every frame submitted.
     Returns the tickets in frame order. *)
  let feed c buf =
    let tickets = ref [] in
    iter_frames buf (fun ~off ~len ->
        let tag, msg = decode_t_at buf ~off ~len in
        tickets := submit_msg c ~tag ~len msg :: !tickets);
    List.rev !tickets

  (* The synchronous bridge a [Client] speaks: enqueue, then turn the
     scheduler until this request's reply is out.  While it waits, the
     ready queue serves other connections' batches, so all-synchronous
     clients still interleave fairly. *)
  let transport c packet =
    let ticket = submit c packet in
    let rec drive () =
      match take c ticket with
      | Replied r -> r
      | Flushed -> raise Timeout
      | Waiting ->
          if step c.pool then drive ()
          else raise (Vfs.Error (Vfs.Eio "9p pool: request vanished"))
    in
    drive ()

  let stats p =
    Hashtbl.fold
      (fun _ c acc ->
        (conn_id c, c.sconn.c_uname, served c, Hashtbl.length c.sconn.fids)
        :: acc)
      p.conns []
    |> List.sort compare

  (* Most-served over least-served connection, among those that asked
     for anything; 1.0 when balanced, [infinity] when someone starved
     outright. *)
  let fairness_spread p =
    let ss =
      Hashtbl.fold
        (fun _ c acc -> if c.submitted > 0 then served c :: acc else acc)
        p.conns []
    in
    match ss with
    | [] -> 1.0
    | s :: rest ->
        let mn = List.fold_left min s rest in
        let mx = List.fold_left max s rest in
        if mn = 0 then infinity else float_of_int mx /. float_of_int mn
end

(* ------------------------------------------------------------------ *)
(* Client                                                              *)

module Client = struct
  type t = {
    transport : string -> string;
    uname : string;  (* presented at attach; servers record it for stats *)
    mutable next_tag : int;
    mutable next_fid : int;
    mutable msize : int;  (* negotiated at version; bounds every frame *)
    mutable read_buf : Buffer.t option;  (* reusable read-assembly scratch *)
  }

  let error_of_ename ename =
    let all =
      [ Vfs.Enonexist; Vfs.Enotdir; Vfs.Eisdir; Vfs.Eexist; Vfs.Eperm;
        Vfs.Ebadname ]
    in
    match List.find_opt (fun e -> Vfs.error_message e = ename) all with
    | Some e -> e
    | None -> Vfs.Eio ename

  (* Losing a version/attach/walk/stat/read/clunk reply is recoverable:
     re-executing them converges (walk re-binds the same newfid, attach
     re-binds the root, a re-clunked fid draws a harmless error).  The
     others mutate and are surfaced to the caller instead. *)
  let retryable = function
    | Tversion _ | Tattach _ | Twalk _ | Tstat _ | Tread _ | Tclunk _
    | Tflush _ ->
        true
    | Topen _ | Tcreate _ | Twrite _ | Tremove _ -> false

  let retry_counters =
    List.map
      (fun k -> (k, Trace.counter ("nine.retry." ^ k)))
      [ "version"; "attach"; "walk"; "stat"; "read"; "clunk" ]

  let failed_rpcs = Trace.counter "nine.rpc.failed"
  let timeouts = Trace.counter "nine.rpc.timeout"
  let flush_sent = Trace.counter "nine.flush.sent"

  (* Logical microseconds: a reply later than [timeout_us] counts as
     lost, and the n-th retry waits [backoff_us lsl n].  [max_retries]
     bounds the retries of one request; it is sized for the 10-30%
     fault schedules, under which a run of four consecutive faulted
     replies is reachable in a long session. *)
  let timeout_us = 50_000
  let backoff_us = 1_000
  let max_retries = 8

  (* Tags cycle through 0..0xfffe; 0xffff is NOTAG, reserved by 9P. *)
  let fresh_tag c =
    let tag = if c.next_tag land 0xffff = 0xffff then 0 else c.next_tag land 0xffff in
    c.next_tag <- (tag + 1) land 0xffff;
    tag

  (* On timeout the tag is not silently abandoned: a best-effort
     [Tflush oldtag] tells the server to cancel the exchange if it is
     still queued.  The flush itself is advice — if it too is lost, the
     fresh-tag-per-attempt discipline already guarantees a stale reply
     can never be mistaken for a live one — so every failure here is
     swallowed. *)
  let send_flush c oldtag =
    Trace.incr flush_sent;
    let req = encode_t ~tag:(fresh_tag c) (Tflush { oldtag }) in
    try ignore (c.transport req) with _ -> ()

  let rpc c msg =
    let kind = kind_of_t msg in
    let rec attempt n =
      (* a fresh tag per attempt resynchronizes after a lost or stale
         reply: whatever arrives for an abandoned exchange can never
         match a tag we are still waiting on *)
      let tag = fresh_tag c in
      let req = encode_t ~tag msg in
      if String.length req > c.msize then
        bad (Printf.sprintf "%s request exceeds negotiated msize" kind);
      let t0 = Trace.now_us () in
      let outcome =
        match c.transport req with
        | exception Timeout ->
            Trace.incr timeouts;
            `Failed ("timeout", true)
        | reply -> (
            (* a reply slower than the timeout was already given up on;
               only idempotent requests are timed, so a slow mutation is
               never abandoned half-acknowledged *)
            if retryable msg && Trace.now_us () - t0 > timeout_us then begin
              Trace.incr timeouts;
              `Failed ("reply after timeout", true)
            end
            else
              match decode_r reply with
              | exception Bad_message m -> `Failed (m, false)
              | rtag, r ->
                  if rtag <> tag then `Failed ("tag mismatch", false)
                  else `Reply r)
      in
      match outcome with
      | `Reply (Rerror { ename }) -> raise (Vfs.Error (error_of_ename ename))
      | `Reply r -> r
      | `Failed (reason, timed_out) ->
          (* flush only on timeout-class failures: for a decode error or
             tag mismatch the exchange did complete, there is nothing
             left server-side to cancel *)
          if timed_out then send_flush c tag;
          if retryable msg && n < max_retries then begin
            (match List.assoc_opt kind retry_counters with
            | Some ctr -> Trace.incr ctr
            | None -> ());
            (* deterministic exponential backoff on the trace clock *)
            Trace.advance (backoff_us lsl n);
            attempt (n + 1)
          end
          else begin
            Trace.incr failed_rpcs;
            raise
              (Vfs.Error (Vfs.Eio (Printf.sprintf "9p %s: %s" kind reason)))
          end
    in
    attempt 0

  let fresh_fid c =
    let fid = c.next_fid in
    c.next_fid <- c.next_fid + 1;
    fid

  let root_fid = 0

  let connect ?(uname = "help") transport =
    let c =
      { transport; uname; next_tag = 1; next_fid = 1; msize = 65536;
        read_buf = Some (Buffer.create 8192) }
    in
    (match rpc c (Tversion { msize = c.msize; version = "9P2000.help" }) with
    | Rversion { msize; _ } ->
        if msize < 256 then bad "negotiated msize too small";
        c.msize <- min c.msize msize
    | _ -> bad "expected Rversion");
    (match rpc c (Tattach { fid = root_fid; uname = c.uname; aname = "" }) with
    | Rattach _ -> ()
    | _ -> bad "expected Rattach");
    c

  (* The read path reassembles chunked Rreads in a per-client scratch
     buffer instead of a fresh [Buffer.create] per call.  Taken for the
     duration of the read and handed back after, so a reentrant read (a
     nested mount reading through an outer read) falls back to a fresh
     buffer instead of corrupting the scratch. *)
  let with_read_buf c f =
    match c.read_buf with
    | Some b ->
        c.read_buf <- None;
        Fun.protect
          ~finally:(fun () ->
            Buffer.clear b;
            c.read_buf <- Some b)
          (fun () ->
            Buffer.clear b;
            f b)
    | None -> f (Buffer.create 8192)

  let walk c names =
    let fid = fresh_fid c in
    match rpc c (Twalk { fid = root_fid; newfid = fid; names }) with
    | Rwalk { qids } when List.length qids = List.length names -> fid
    | Rwalk _ ->
        (* a short walk did not bind newfid; accepting it would leave
           every subsequent operation on a dangling fid *)
        raise (Vfs.Error Vfs.Enonexist)
    | _ -> bad "expected Rwalk"

  (* A clunk error cannot be usefully handled: the fid is gone either
     way, and a retried clunk whose first reply was lost legitimately
     draws "unknown fid" from an honest server. *)
  let clunk c fid =
    try ignore (rpc c (Tclunk { fid })) with Vfs.Error _ -> ()

  let with_fid c names f =
    let fid = walk c names in
    match f fid with
    | v ->
        clunk c fid;
        v
    | exception e ->
        (try clunk c fid with _ -> ());
        raise e

  let filesystem c =
    let fs_stat path =
      with_fid c path (fun fid ->
          match rpc c (Tstat { fid }) with
          | Rstat { stat } ->
              {
                Vfs.st_name = stat.s9_name;
                st_dir = stat.s9_qid.q_type land qtdir <> 0;
                st_length = stat.s9_length;
                st_mtime = stat.s9_mtime;
                st_version = stat.s9_qid.q_version;
              }
          | _ -> bad "expected Rstat")
    in
    let open_fid fid mode trunc =
      let m =
        match mode with
        | Vfs.Read -> Oread
        | Vfs.Write -> Owrite
        | Vfs.Rdwr -> Ordwr
      in
      let m = if trunc then Otrunc m else m in
      match rpc c (Topen { fid; mode = m }) with
      | Ropen _ -> ()
      | _ -> bad "expected Ropen"
    in
    (* The negotiated msize bounds the whole frame; an Rread carries 11
       bytes of header, a Twrite 23.  [iounit] keeps chunks small even
       under a large msize. *)
    let read_unit () = min iounit (c.msize - 11) in
    let write_unit () = min iounit (c.msize - 23) in
    let openfile_of_fid fid =
      {
        Vfs.of_read =
          (fun ~off ~count ->
            with_read_buf c (fun b ->
                let rec loop off remaining =
                  if remaining > 0 then begin
                    let ask = min remaining (read_unit ()) in
                    match rpc c (Tread { fid; offset = off; count = ask }) with
                    | Rread { data } when data <> "" ->
                        Buffer.add_string b data;
                        loop (off + String.length data)
                          (remaining - String.length data)
                    | Rread _ -> ()
                    | _ -> bad "expected Rread"
                  end
                in
                loop off count;
                Buffer.contents b));
        of_write =
          (fun ~off data ->
            let total = String.length data in
            let rec loop sent =
              if sent < total then begin
                let chunk =
                  String.sub data sent (min (write_unit ()) (total - sent))
                in
                match
                  rpc c (Twrite { fid; offset = off + sent; data = chunk })
                with
                | Rwrite { count } when count > 0 -> loop (sent + count)
                | Rwrite _ -> bad "zero-length write ack"
                | _ -> bad "expected Rwrite"
              end
            in
            loop 0;
            total);
        of_close = (fun () -> clunk c fid);
      }
    in
    let fs_open path mode ~trunc =
      let fid = walk c path in
      (try open_fid fid mode trunc
       with e ->
         (try clunk c fid with _ -> ());
         raise e);
      openfile_of_fid fid
    in
    let fs_create path ~dir =
      match List.rev path with
      | [] -> raise (Vfs.Error Vfs.Eperm)
      | name :: rev_parent ->
          with_fid c (List.rev rev_parent) (fun fid ->
              match rpc c (Tcreate { fid; name; dir; mode = Oread }) with
              | Rcreate _ -> ()
              | _ -> bad "expected Rcreate")
    in
    let fs_remove path =
      let fid = walk c path in
      (* "remove is clunk with a side effect": the fid is gone whether
         or not the remove succeeded, so release it on every path *)
      match rpc c (Tremove { fid }) with
      | Rremove -> ()
      | _ ->
          clunk c fid;
          bad "expected Rremove"
      | exception e ->
          (try clunk c fid with _ -> ());
          raise e
    in
    let fs_readdir path =
      let f = fs_open path Vfs.Read ~trunc:false in
      let b = Buffer.create 512 in
      Fun.protect
        ~finally:(fun () -> try f.Vfs.of_close () with _ -> ())
        (fun () ->
          let rec loop off =
            let chunk = f.Vfs.of_read ~off ~count:iounit in
            if chunk <> "" then begin
              Buffer.add_string b chunk;
              loop (off + String.length chunk)
            end
          in
          loop 0);
      List.map
        (fun s9 ->
          {
            Vfs.st_name = s9.s9_name;
            st_dir = s9.s9_qid.q_type land qtdir <> 0;
            st_length = s9.s9_length;
            st_mtime = s9.s9_mtime;
            st_version = s9.s9_qid.q_version;
          })
        (decode_stats (Buffer.contents b))
    in
    { Vfs.fs_stat; fs_open; fs_create; fs_remove; fs_readdir }
end

let serve_mount ?wrap ?(uname = "help") ns path fs =
  let pool = Pool.create fs in
  let conn = Pool.attach ~uname pool in
  let transport =
    match wrap with
    | Some w -> w (Pool.transport conn)
    | None -> Pool.transport conn
  in
  (* connect before mounting: if version/attach cannot be completed the
     exception propagates with the namespace untouched *)
  let client = Client.connect ~uname transport in
  Vfs.mount ns path (Client.filesystem client);
  pool
