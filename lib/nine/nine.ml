(* The 9P-style protocol stack: codec (from [Wire]), in-process server,
   pooled scheduling (over [Sched]), client.

   The codec lives in [Wire] (zero-copy cursors, reusable writers) and
   is re-exported here so existing [Nine.encode_t] etc. callers are
   unchanged.  [Server] executes decoded T-messages against per-
   connection fid tables, with O(1) connection and fid accounting so a
   server holding ten thousand seats costs the same per request as one
   holding two.  [Pool] is a thin compatibility shim over the
   cooperative scheduler in [Sched]: same tickets, same outcomes, same
   journal, same deterministic replay — the batching, backpressure and
   continuation machinery all live in the scheduler. *)

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

  (* One client connection: its own fid table, negotiated msize and
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
    conns : (int, conn) Hashtbl.t;  (* by conn_id; ids grow in attach order *)
    mutable next_conn_id : int;
    mutable live : int;  (* fids across all connections, kept incrementally *)
    mutable default : conn option;  (* lazily made for the 1-client [rpc] *)
  }

  let create fs =
    { fs; counts = Hashtbl.create 16; conns = Hashtbl.create 64;
      next_conn_id = 0; live = 0; default = None }

  let conn_gauge = Trace.gauge "nine.conn.active"
  let conn_attached = Trace.counter "nine.conn.attached"

  let connection ?(uname = "none") srv =
    let conn =
      { conn_id = srv.next_conn_id; fids = Hashtbl.create 32; c_msize = 65536;
        c_uname = uname; c_served = 0 }
    in
    srv.next_conn_id <- srv.next_conn_id + 1;
    Hashtbl.replace srv.conns conn.conn_id conn;
    Trace.incr conn_attached;
    Trace.set_gauge conn_gauge (Hashtbl.length srv.conns);
    conn

  let conn_id conn = conn.conn_id
  let conn_uname conn = conn.c_uname
  let conn_served conn = conn.c_served
  let conn_fid_count conn = Hashtbl.length conn.fids

  (* Fid-table mutation goes through these two, so the server-wide live
     count (and with it [fid_count] and the [nine.fids.live] gauge)
     stays O(1) instead of a fold over every connection per request. *)
  let bind_fid srv conn fid st =
    if not (Hashtbl.mem conn.fids fid) then srv.live <- srv.live + 1;
    Hashtbl.replace conn.fids fid st

  let drop_fid srv conn fid =
    if Hashtbl.mem conn.fids fid then begin
      srv.live <- srv.live - 1;
      Hashtbl.remove conn.fids fid
    end

  (* Drop a connection: close whatever it left open and forget its
     fids.  A client that vanishes must not pin files forever.
     Idempotent — a second disconnect of the same seat is a no-op, so
     the [nine.conn.active] gauge cannot drift below the truth. *)
  let disconnect srv conn =
    if Hashtbl.mem srv.conns conn.conn_id then begin
      Hashtbl.iter
        (fun _ st ->
          match st.opened with
          | Some f -> ( try f.Vfs.of_close () with Vfs.Error _ -> ())
          | None -> ())
        conn.fids;
      srv.live <- srv.live - Hashtbl.length conn.fids;
      Hashtbl.reset conn.fids;
      Hashtbl.remove srv.conns conn.conn_id;
      if srv.default = Some conn then srv.default <- None;
      Trace.set_gauge conn_gauge (Hashtbl.length srv.conns)
    end

  let connections srv =
    Hashtbl.fold (fun _ c acc -> c :: acc) srv.conns []
    |> List.sort (fun a b -> compare a.conn_id b.conn_id)

  let fid_count srv = srv.live

  let count srv kind =
    Hashtbl.replace srv.counts kind
      (1 + Option.value ~default:0 (Hashtbl.find_opt srv.counts kind))

  let stats srv =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) srv.counts []
    |> List.sort compare

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
        srv.live <- srv.live - Hashtbl.length conn.fids;
        Hashtbl.reset conn.fids;
        conn.c_msize <- max 256 (min msize 65536);
        Rversion { msize = conn.c_msize; version = "9P2000.help" }
    | Tattach { fid; uname; _ } ->
        let st = srv.fs.fs_stat [] in
        conn.c_uname <- uname;
        bind_fid srv conn fid { path = []; opened = None; dirdata = None };
        Rattach { qid = qid_of_stat st [] }
    | Tflush _ ->
        (* By the time a flush reaches direct execution the old request
           has either been answered or cancelled out of a scheduler
           queue (see [Sched.submit]); all that is left is to
           acknowledge. *)
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
     observability ledger; [stats] stays per-server (each link keeps
     its own tally on top of the aggregate). *)
  let rpc_counters =
    List.map
      (fun k -> (k, Trace.counter ("nine.rpc." ^ k)))
      [ "version"; "attach"; "walk"; "open"; "create"; "read"; "write";
        "clunk"; "remove"; "stat"; "flush" ]

  let rpc_us = Trace.histogram "nine.rpc.us"
  let live_fids = Trace.gauge "nine.fids.live"

  (* Execute one decoded request: tallies, timing, fid-gauge upkeep.
     [len] is the request's wire length, checked against the
     connection's msize.  [req] is the trace context allocated at
     submit time: a sampled request executes inside a [rpc.<kind>] span
     that tags the whole nested tree — the server's work, Vfs
     resolution, Help execution — with the request id. *)
  let dispatch_reply srv conn ~len ~(req : Sched.request) msg =
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
      if req.Sched.req_sampled then
        Trace.with_request ~reqid:req.Sched.req_id
          ~args:
            [ ("conn", string_of_int conn.conn_id);
              ("req", string_of_int req.Sched.req_id) ]
          ("rpc." ^ kind) run
      else run ()
    in
    Trace.observe rpc_us (Trace.now_us () - t0);
    Trace.set_gauge live_fids srv.live;
    reply

  (* The scheduler's entry point: decoded message in, framed reply
     appended to the connection's reusable writer — no intermediate
     string. *)
  let conn_dispatch srv conn w ~tag ~len ~req msg =
    encode_r_into w ~tag (dispatch_reply srv conn ~len ~req msg)

  let conn_rpc srv conn packet =
    let tag, msg = decode_t packet in
    encode_r ~tag
      (dispatch_reply srv conn ~len:(String.length packet)
         ~req:(Sched.new_request ()) msg)

  (* The single-client entry point of the original server, kept for
     direct protocol conversations: all its traffic lands on one
     implicit connection. *)
  let rpc srv packet =
    let conn =
      match srv.default with
      | Some c -> c
      | None ->
          let c = connection ~uname:"direct" srv in
          srv.default <- Some c;
          c
    in
    conn_rpc srv conn packet
end

(* ------------------------------------------------------------------ *)
(* Pool: the compatibility face of the cooperative scheduler           *)

module Pool = struct
  type outcome = Sched.outcome = Waiting | Replied of string | Flushed

  type conn = { c_pool : pool; sconn : Server.conn; sc : Sched.conn }

  and pool = {
    srv : Server.t;
    sched : Sched.t;
    pconns : (int, conn) Hashtbl.t;  (* by conn_id *)
  }

  type t = pool

  let create ?max_queue ?batch_limit fs =
    { srv = Server.create fs; sched = Sched.create ?max_queue ?batch_limit ();
      pconns = Hashtbl.create 64 }

  let server p = p.srv
  let fid_count p = Server.fid_count p.srv

  let rpcs_name id = Printf.sprintf "nine.conn.%d.rpcs" id

  let attach ?uname p =
    let sconn = Server.connection ?uname p.srv in
    let id = Server.conn_id sconn in
    let rpcs = Trace.counter (rpcs_name id) in
    let dispatch w ~tag ~len ~req msg =
      Trace.incr rpcs;
      Server.conn_dispatch p.srv sconn w ~tag ~len ~req msg
    in
    let sc = Sched.attach p.sched ~id ~dispatch in
    let c = { c_pool = p; sconn; sc } in
    Hashtbl.replace p.pconns id c;
    c

  let conn_id c = Server.conn_id c.sconn
  let uname c = Server.conn_uname c.sconn
  let served c = Server.conn_served c.sconn

  let disconnect c =
    let p = c.c_pool in
    Sched.detach c.sc;
    Hashtbl.remove p.pconns (conn_id c);
    (* the counter goes with its connection, or a churning fleet grows
       the registry that every window roll walks *)
    Trace.unregister (rpcs_name (conn_id c));
    Server.disconnect p.srv c.sconn

  let submit c packet = Sched.submit c.sc packet
  let feed c buf = Sched.feed c.sc buf
  let queue_length c = Sched.queue_length c.sc
  let poll c ticket = Sched.poll c.sc ticket
  let take c ticket = Sched.take c.sc ticket
  let on_settled c ticket cb = Sched.on_settled c.sc ticket cb
  let pending p = Sched.pending p.sched
  let record_journal p on = Sched.record_journal p.sched on
  let journal p = Sched.journal p.sched
  let set_journal_sink p sink = Sched.set_journal_sink p.sched sink
  let step p = Sched.step p.sched
  let run p = Sched.run p.sched
  let transport c packet = Sched.transport c.sc packet

  let stats p =
    Hashtbl.fold
      (fun _ c acc ->
        (conn_id c, uname c, served c, Server.conn_fid_count c.sconn) :: acc)
      p.pconns []
    |> List.sort compare

  (* Most-served over least-served connection, among those that asked
     for anything; 1.0 when balanced, [infinity] when someone starved
     outright. *)
  let fairness_spread p =
    let ss =
      Hashtbl.fold
        (fun _ c acc ->
          if Sched.submitted c.sc > 0 then served c :: acc else acc)
        p.pconns []
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
    timeout_us : int;
    max_retries : int;
    backoff_us : int;
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
            if retryable msg && Trace.now_us () - t0 > c.timeout_us then begin
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
          if retryable msg && n < c.max_retries then begin
            (match List.assoc_opt kind retry_counters with
            | Some ctr -> Trace.incr ctr
            | None -> ());
            (* deterministic exponential backoff on the trace clock *)
            Trace.advance (c.backoff_us lsl n);
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

  let connect ?(timeout_us = 50_000) ?(max_retries = 3) ?(backoff_us = 1_000)
      ?(uname = "help") transport =
    let c =
      { transport; uname; next_tag = 1; next_fid = 1; msize = 65536;
        timeout_us; max_retries; backoff_us;
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

let serve_mount_pool ?wrap ?max_retries ?max_queue ?batch_limit
    ?(uname = "help") ns path fs =
  let pool = Pool.create ?max_queue ?batch_limit fs in
  let conn = Pool.attach ~uname pool in
  let transport =
    match wrap with
    | Some w -> w (Pool.transport conn)
    | None -> Pool.transport conn
  in
  (* connect before mounting: if version/attach cannot be completed the
     exception propagates with the namespace untouched *)
  let client = Client.connect ?max_retries ~uname transport in
  Vfs.mount ns path (Client.filesystem client);
  (Pool.server pool, pool)

let serve_mount ?wrap ?max_retries ?uname ns path fs =
  fst (serve_mount_pool ?wrap ?max_retries ?uname ns path fs)
