(* recover: per iteration, a WAL-logged session (checkpoint every six
   ops) runs the E15 op script; then, three times, the store is cut at
   a seeded op boundary after the boot snapshot, Session.recover
   rebuilds the session, and the rest of the script is re-driven.  The screen and
   /mnt/help/stats must come back byte-identical to an uninterrupted
   run.  lib/wal and the boot/restore path are measured nowhere else:
   logging the ops is the write side, recovery the read side.

   Each round of eighteen recoveries visits every cut once, in a
   seeded order, so every seed runs the same mix. *)

let checkpoint_every = 6

(* crashes recovered per logged run *)
let recoveries = 3

(* The E15 script: gestures, typing, namespace writes and draws. *)
let script : (Session.t -> unit) list =
  [
    (fun t -> Session.point_at t (Session.win t "help/Boot") "Exit");
    (fun t -> Session.write_file t "/tmp/notes" "draft one\n");
    (fun t -> ignore (Session.dump t));
    (fun t -> Session.type_text t "k");
    (fun t -> Session.sweep t (Session.win t "/help/edit/stf") "Pattern");
    (fun t -> Session.append_file t "/tmp/notes" "draft two\n");
    (fun t -> ignore (Session.dump t));
    (fun t -> Session.point_at t (Session.win t "/help/edit/stf") "Text");
    (fun t -> Session.mkdir t "/tmp/proj");
    (fun t -> Session.write_file t "/tmp/proj/a.txt" "alpha\n");
    (fun t -> ignore (Session.dump t));
    (fun t -> Session.sweep t (Session.win t "help/Boot") "Exit");
    (fun t -> Session.append_file t "/tmp/proj/a.txt" "beta\n");
    (fun t -> ignore (Session.dump t));
    (fun t -> Session.remove_file t "/tmp/notes");
    (fun t -> Session.write_file t "/tmp/proj/a.txt" "alpha\nbeta\ngamma\n");
    (fun t -> ignore (Session.dump t));
    (fun t -> Session.point_at t (Session.win t "help/Boot") "Exit");
  ]

let n_ops = List.length script

let boot = Prof.region "session.boot"
let logged_op = Prof.region "help.logged_op"
let checkpoint = Prof.region "wal.checkpoint"
let wal_log = Prof.region "wal.log"
let redrive = Prof.region "help.redrive"

(* Session.recover; what its probed phases leave is unattributed *)
let recover = Prof.region ~layer:"unattributed" "session.recover"
let decode = Prof.region "wal.decode"
let restore = Prof.region "wal.restore"
let warmup = Prof.region "draw.warmup"
let replay = Prof.region "wal.replay"

(* explicit sequencing: the stats are read after the final draw *)
let finish t =
  let d = Session.dump t in
  let s = Vfs.read_file t.Session.ns "/mnt/help/stats" in
  (d, s)

let wal_of t = Option.get !(t.Session.wal)

(* Set-up boots the first WAL-logged session; each iteration runs the
   script on the current session, recovers from its cut store, and then
   boots the next. *)
let setup ~seed =
  (* the compile LRU is process-global: warm it so every compared run
     sees it equally warm *)
  ignore (Session.boot ());
  let reference =
    let t = Session.boot ~wal:(Wal.create_store ()) ~checkpoint_every () in
    List.iter (fun op -> op t) script;
    finish t
  in
  let stream () =
    let ops = Workload.rng ~seed "recover.ops" in
    let round = ref [||] and k = ref 0 in
    fun () ->
      if !k = Array.length !round then begin
        round := Workload.permutation ops n_ops;
        k := 0
      end;
      incr k;
      !round.(!k - 1)
  in
  let digest =
    let next = stream () in
    Digest.to_hex
      (Digest.string (String.concat " " (List.init 1024 (fun _ -> string_of_int (next ())))))
  in
  fun () ->
    let logged_boot () =
      let store = Wal.create_store () in
      (store, Session.boot ~wal:store ~checkpoint_every ())
    in
    let next_session = ref (logged_boot ()) in
    let next = stream () in
    let fail (r : Workload.run) msg =
      r.failed <- r.failed + 1;
      prerr_endline ("recover: " ^ msg)
    in
    (* Crash after op [i]: recover from the cut store, re-drive the rest
       of the script, compare with the uninterrupted run. *)
    let recover_at ~traced (r : Workload.run) store cuts i =
      let cut = Wal.truncate_log store (List.nth cuts i) in
      r.attempted <- r.attempted + 1;
      match
        Workload.timed r.op (fun () ->
            Prof.time recover (fun () ->
                Session.recover ~checkpoint_every cut))
      with
      | exception e -> fail r ("Session.recover raised " ^ Printexc.to_string e)
      | t ->
          Prof.time redrive (fun () -> List.iteri (fun j op -> if j > i then op t) script);
          Prof.pause (fun () ->
              if finish t <> reference then
                fail r (Printf.sprintf "recovery from the cut after op %d diverged" (i + 1)));
          if traced then begin
            (* recovery's phases through their public entry points on the
               same store, carved out of Session.recover; the remainder
               stays unattributed *)
            let boot_ns, decode_ns, restore_ns, warmup_ns, replay_ns =
              Prof.pause (fun () ->
                  let sn = Option.get (Wal.latest_snapshot cut) in
                  let pb, boot_ns = Prof.elapsed (fun () -> Session.boot ()) in
                  let (ops, _), decode_ns =
                    Prof.elapsed (fun () -> Wal.ops_after cut ~pos:(Wal.sn_log_pos sn))
                  in
                  let get = Wal.chunk_get cut in
                  let (), restore_ns =
                    Prof.elapsed (fun () ->
                        Vfs.restore pb.Session.ns ~get (Wal.sn_vfs sn);
                        Help.restore pb.Session.help ~get (Wal.sn_help sn))
                  in
                  let _, warmup_ns = Prof.elapsed (fun () -> Help.draw pb.Session.help) in
                  let (), replay_ns =
                    Prof.elapsed (fun () ->
                        List.iter
                          (fun (_, op) ->
                            try Session.apply pb op
                            with Invalid_argument _ | Not_found | Vfs.Error _ -> ())
                          ops)
                  in
                  (boot_ns, decode_ns, restore_ns, warmup_ns, replay_ns))
            in
            Prof.carve ~from:recover boot boot_ns;
            Prof.carve ~from:recover decode decode_ns;
            Prof.carve ~from:recover restore restore_ns;
            Prof.carve ~from:recover warmup warmup_ns;
            Prof.carve ~from:recover replay replay_ns
          end
    in
    let iterate ~traced (r : Workload.run) =
      let store, t = !next_session in
      if traced then
        Wal.set_on_checkpoint (wal_of t) (fun () ->
            Prof.time checkpoint (fun () -> Session.checkpoint t));
      let ckpt0 = checkpoint.Prof.total in
      let cuts, logged =
        Prof.elapsed (fun () ->
            List.map
              (fun op ->
                r.attempted <- r.attempted + 1;
                Workload.timed r.aux (fun () -> Prof.time logged_op (fun () -> op t));
                Wal.log_pos store)
              script)
      in
      let logged = logged - (checkpoint.Prof.total - ckpt0) in
      Prof.pause (fun () -> if finish t <> reference then fail r "the logged run diverged");
      if traced then begin
        (* the same script on an unlogged session: the cost of logging *)
        let unlogged =
          Prof.pause (fun () ->
              let u = Session.boot () in
              snd (Prof.elapsed (fun () -> List.iter (fun op -> op u) script)))
        in
        Prof.carve ~from:logged_op wal_log (logged - unlogged);
        List.iter
          (fun sn ->
            Prof.tally ~by:(Wal.sn_new_bytes sn) "wal.new_bytes";
            Prof.tally ~by:(Wal.sn_total_bytes sn) "wal.total_bytes")
          (Wal.snapshots store)
      end;
      for _ = 1 to recoveries do
        recover_at ~traced r store cuts (next ())
      done;
      next_session := Prof.time boot logged_boot
    in
    { Workload.digest; iterate }

let workload =
  {
    Workload.name = "recover";
    op_name = "Session.recover";
    aux_name = "logged script op";
    named =
      [
        ("recover_ms_p50", `Op, 50., 1., "ms");
        ("recover_ms_p90", `Op, 90., 1., "ms");
        ("logged_op_us_p50", `Aux, 50., 1000., "us");
      ];
    setup;
  }
