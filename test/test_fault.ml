(* The 9P robustness layer: codec fuzzing, fid-leak invariants,
   deterministic fault injection, retry/timeout behaviour, and graceful
   degradation of unions, mounts and help built-ins. *)

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

(* a pool over [fs] and the transport of its one connection, spoken to
   frame by frame *)
let direct fs =
  let pool = Nine.Pool.create fs in
  (pool, Nine.Pool.transport (Nine.Pool.attach pool))

(* ------------------------------------------------------------------ *)
(* Codec fuzzing: arbitrary bytes never raise anything but Bad_message *)

let decodes_safely decode s =
  match decode s with
  | _ -> true
  | exception Nine.Bad_message _ -> true
  | exception _ -> false

let arbitrary_bytes =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(string_size (0 -- 64) ?gen:(Some (map Char.chr (0 -- 255))))

let fuzz_arbitrary =
  QCheck.Test.make ~name:"decoders reject arbitrary bytes with Bad_message"
    ~count:2000 arbitrary_bytes (fun s ->
      decodes_safely Nine.decode_t s
      && decodes_safely Nine.decode_r s
      && decodes_safely Nine.decode_stats s)

(* generators for well-formed messages *)

let gen_qid =
  QCheck.Gen.(
    map3
      (fun t v p -> { Nine.q_type = t; q_version = v; q_path = p })
      (0 -- 255) (0 -- 10_000) (0 -- 100_000))

let gen_name = QCheck.Gen.(string_size (0 -- 12) ?gen:(Some printable))

let gen_mode =
  QCheck.Gen.(
    oneof
      [
        return Nine.Oread; return Nine.Owrite; return Nine.Ordwr;
        return (Nine.Otrunc Nine.Owrite);
      ])

let gen_tmsg =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun msize version -> Nine.Tversion { msize; version })
          (0 -- 100_000) gen_name;
        map3
          (fun fid uname aname -> Nine.Tattach { fid; uname; aname })
          (0 -- 1000) gen_name gen_name;
        map3
          (fun fid newfid names -> Nine.Twalk { fid; newfid; names })
          (0 -- 1000) (0 -- 1000)
          (list_size (0 -- 5) gen_name);
        map2 (fun fid mode -> Nine.Topen { fid; mode }) (0 -- 1000) gen_mode;
        map3
          (fun fid name dir -> Nine.Tcreate { fid; name; dir; mode = Nine.Oread })
          (0 -- 1000) gen_name bool;
        map3
          (fun fid offset count -> Nine.Tread { fid; offset; count })
          (0 -- 1000) (0 -- 1_000_000) (0 -- 65536);
        map3
          (fun fid offset data -> Nine.Twrite { fid; offset; data })
          (0 -- 1000) (0 -- 1_000_000)
          (string_size (0 -- 64));
        map (fun fid -> Nine.Tclunk { fid }) (0 -- 1000);
        map (fun fid -> Nine.Tremove { fid }) (0 -- 1000);
        map (fun fid -> Nine.Tstat { fid }) (0 -- 1000);
        map (fun oldtag -> Nine.Tflush { oldtag }) (0 -- 0xffff);
      ])

let gen_stat9 =
  QCheck.Gen.(
    map3
      (fun name qid (length, mtime) ->
        { Nine.s9_name = name; s9_qid = qid; s9_length = length;
          s9_mtime = mtime })
      gen_name gen_qid
      (pair (0 -- 1_000_000) (0 -- 1_000_000)))

let gen_rmsg =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun msize version -> Nine.Rversion { msize; version })
          (0 -- 100_000) gen_name;
        map (fun qid -> Nine.Rattach { qid }) gen_qid;
        map (fun qids -> Nine.Rwalk { qids }) (list_size (0 -- 5) gen_qid);
        map2 (fun qid iounit -> Nine.Ropen { qid; iounit }) gen_qid (0 -- 65536);
        map2
          (fun qid iounit -> Nine.Rcreate { qid; iounit })
          gen_qid (0 -- 65536);
        map (fun data -> Nine.Rread { data }) (string_size (0 -- 64));
        map (fun count -> Nine.Rwrite { count }) (0 -- 65536);
        return Nine.Rclunk;
        return Nine.Rremove;
        return Nine.Rflush;
        map (fun stat -> Nine.Rstat { stat }) gen_stat9;
        map (fun ename -> Nine.Rerror { ename }) gen_name;
      ])

let fuzz_roundtrip_t =
  QCheck.Test.make ~name:"encode_t / decode_t round-trip" ~count:500
    (QCheck.make QCheck.Gen.(pair (0 -- 0xfffe) gen_tmsg))
    (fun (tag, msg) -> Nine.decode_t (Nine.encode_t ~tag msg) = (tag, msg))

let fuzz_roundtrip_r =
  QCheck.Test.make ~name:"encode_r / decode_r round-trip" ~count:500
    (QCheck.make QCheck.Gen.(pair (0 -- 0xfffe) gen_rmsg))
    (fun (tag, msg) -> Nine.decode_r (Nine.encode_r ~tag msg) = (tag, msg))

(* mutilations of valid frames: truncate anywhere, or flip any byte *)
let fuzz_mutilated =
  QCheck.Test.make
    ~name:"truncated / corrupted valid frames never escape Bad_message"
    ~count:1000
    (QCheck.make
       QCheck.Gen.(
         tup4 gen_tmsg gen_rmsg (pair (0 -- 1_000_000) (0 -- 255))
           (0 -- 1_000_000)))
    (fun (t, r, (pos, bit), cut) ->
      let mutilate s =
        let flipped =
          if s = "" then s
          else begin
            let b = Bytes.of_string s in
            let i = pos mod Bytes.length b in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor max 1 bit));
            Bytes.to_string b
          end
        in
        let truncated = String.sub s 0 (cut mod (String.length s + 1)) in
        [ flipped; truncated ]
      in
      List.for_all (decodes_safely Nine.decode_t)
        (mutilate (Nine.encode_t ~tag:7 t))
      && List.for_all (decodes_safely Nine.decode_r)
           (mutilate (Nine.encode_r ~tag:7 r)))

let fuzz_tests =
  List.map (Seeded.to_alcotest 7)
    [ fuzz_arbitrary; fuzz_roundtrip_t; fuzz_roundtrip_r; fuzz_mutilated ]

(* ------------------------------------------------------------------ *)
(* Fid-table invariants: error paths must not leak fids                *)

(* a filesystem that delegates to [base] but breaks where asked *)
let breaking base ~stat_eio ~open_eio ~read_after_first =
  {
    Vfs.fs_stat =
      (fun p -> if stat_eio then raise (Vfs.Error (Vfs.Eio "stat broken"))
        else base.Vfs.fs_stat p);
    fs_open =
      (fun p mode ~trunc ->
        if open_eio then raise (Vfs.Error (Vfs.Eio "open broken"))
        else begin
          let f = base.Vfs.fs_open p mode ~trunc in
          if not read_after_first then f
          else
            {
              f with
              Vfs.of_read =
                (fun ~off ~count ->
                  if off > 0 then raise (Vfs.Error (Vfs.Eio "read broken"))
                  else f.Vfs.of_read ~off ~count);
            }
        end);
    fs_create = base.Vfs.fs_create;
    fs_remove = base.Vfs.fs_remove;
    fs_readdir = base.Vfs.fs_readdir;
  }

let fid_tests =
  [
    Alcotest.test_case "remove error still clunks the fid" `Quick (fun () ->
        let ns = Vfs.create () in
        let pool = Nine.serve_mount ns "/m" (Vfs.ramfs ns) in
        Vfs.mkdir_p ns "/m/d";
        Vfs.write_file ns "/m/d/f" "x";
        check_int "root fid only" 1 (Nine.Pool.fid_count pool);
        (* removing a non-empty directory fails after a successful walk:
           per 9P the walked fid must be clunked anyway *)
        check_bool "remove refused" true
          (match Vfs.remove ns "/m/d" with
          | exception Vfs.Error Vfs.Eperm -> true
          | _ -> false);
        check_int "no leaked fid" 1 (Nine.Pool.fid_count pool));
    Alcotest.test_case "readdir failure mid-loop still clunks" `Quick
      (fun () ->
        (* a transport that permanently loses every continuation read:
           the client's readdir loop gets its first chunk, then dies of
           exhausted retries mid-loop — the open fid must still be
           clunked *)
        let ns = Vfs.create () in
        let pool, rpc = direct (Vfs.ramfs ns) in
        let lossy packet =
          match Nine.decode_t packet with
          | _, Nine.Tread { offset; _ } when offset > 0 -> raise Nine.Timeout
          | _ -> rpc packet
        in
        let c = Nine.Client.connect lossy in
        let outer = Vfs.create () in
        Vfs.mount outer "/m" (Nine.Client.filesystem c);
        Vfs.write_file outer "/m/f" "x";
        check_bool "readdir fails" true
          (match Vfs.readdir outer "/m" with
          | exception Vfs.Error (Vfs.Eio _) -> true
          | _ -> false);
        check_int "no leaked fid" 1 (Nine.Pool.fid_count pool));
    Alcotest.test_case "short walk binds no fid, client raises Enonexist"
      `Quick (fun () ->
        let ns = Vfs.create () in
        let fs = Vfs.ramfs ns in
        let pool, raw = direct fs in
        fs.Vfs.fs_create [ "a" ] ~dir:true;
        let rpc msg = snd (Nine.decode_r (raw (Nine.encode_t ~tag:1 msg))) in
        ignore (rpc (Nine.Tversion { msize = 8192; version = "9P2000.help" }));
        ignore (rpc (Nine.Tattach { fid = 0; uname = "u"; aname = "" }));
        (* server side: partial walk answers with fewer qids and does
           not bind newfid *)
        (match
           rpc (Nine.Twalk { fid = 0; newfid = 1; names = [ "a"; "nope" ] })
         with
        | Nine.Rwalk { qids } -> check_int "one qid" 1 (List.length qids)
        | _ -> Alcotest.fail "expected Rwalk");
        (match rpc (Nine.Tstat { fid = 1 }) with
        | Nine.Rerror _ -> ()
        | _ -> Alcotest.fail "short walk bound newfid");
        check_int "only root fid" 1 (Nine.Pool.fid_count pool);
        (* client side: a short walk is Enonexist, not a dangling fid *)
        let c = Nine.Client.connect raw in
        let outer = Vfs.create () in
        Vfs.mount outer "/m" (Nine.Client.filesystem c);
        check_bool "client rejects short walk" true
          (match Vfs.stat outer "/m/a/nope/deep" with
          | exception Vfs.Error Vfs.Enonexist -> true
          | _ -> false);
        check_int "still only root fid" 1 (Nine.Pool.fid_count pool));
    Alcotest.test_case "every client op leaves only the root fid" `Quick
      (fun () ->
        let ns = Vfs.create () in
        let pool = Nine.serve_mount ns "/m" (Vfs.ramfs ns) in
        Vfs.write_file ns "/m/f" "hello";
        ignore (Vfs.read_file ns "/m/f");
        ignore (Vfs.stat ns "/m/f");
        ignore (Vfs.readdir ns "/m");
        Vfs.append_file ns "/m/f" " world";
        Vfs.remove ns "/m/f";
        ignore
          (try Vfs.read_file ns "/m/f"
           with Vfs.Error Vfs.Enonexist -> "");
        check_int "no leaks" 1 (Nine.Pool.fid_count pool));
  ]

(* ------------------------------------------------------------------ *)
(* Tags and msize                                                      *)

let protocol_tests =
  [
    Alcotest.test_case "client tags never collide with NOTAG" `Quick
      (fun () ->
        let ns = Vfs.create () in
        let _, rpc = direct (Vfs.ramfs ns) in
        let watched packet =
          let tag, _ = Nine.decode_t packet in
          if tag = 0xffff then Alcotest.fail "client used NOTAG";
          rpc packet
        in
        let c = Nine.Client.connect watched in
        let outer = Vfs.create () in
        Vfs.mount outer "/m" (Nine.Client.filesystem c);
        Vfs.write_file outer "/m/f" "x";
        (* every stat is walk+stat+clunk: push the tag counter through
           the 16-bit wrap at least once *)
        for _ = 1 to 22_000 do
          ignore (Vfs.stat outer "/m/f")
        done;
        check_str "still sane after wrap" "x" (Vfs.read_file outer "/m/f"));
    Alcotest.test_case "negotiated msize bounds write framing" `Quick
      (fun () ->
        let ns = Vfs.create () in
        let _, rpc = direct (Vfs.ramfs ns) in
        let max_frame = ref 0 in
        let small packet =
          max_frame := max !max_frame (String.length packet);
          let reply = rpc packet in
          match Nine.decode_r reply with
          | tag, Nine.Rversion { version; _ } ->
              (* force a tiny msize on the client *)
              Nine.encode_r ~tag (Nine.Rversion { msize = 300; version })
          | _ -> reply
        in
        let c = Nine.Client.connect small in
        let outer = Vfs.create () in
        Vfs.mount outer "/m" (Nine.Client.filesystem c);
        let big = String.init 2000 (fun i -> Char.chr (32 + (i mod 90))) in
        Vfs.write_file outer "/m/big" big;
        check_str "content intact" big (Vfs.read_file outer "/m/big");
        check_bool "frames within msize" true (!max_frame <= 300));
    Alcotest.test_case "server refuses oversized packets" `Quick (fun () ->
        let ns = Vfs.create () in
        let _, raw = direct (Vfs.ramfs ns) in
        let rpc msg = snd (Nine.decode_r (raw (Nine.encode_t ~tag:1 msg))) in
        ignore (rpc (Nine.Tversion { msize = 256; version = "9P2000.help" }));
        ignore (rpc (Nine.Tattach { fid = 0; uname = "u"; aname = "" }));
        match
          rpc (Nine.Twrite { fid = 0; offset = 0; data = String.make 1000 'x' })
        with
        | Nine.Rerror { ename } ->
            check_str "reason" "message too large" ename
        | _ -> Alcotest.fail "oversized packet accepted")
  ]

(* ------------------------------------------------------------------ *)
(* Deterministic fault injection                                       *)

let fault_keys =
  [ "nine.fault.injected"; "nine.fault.drop"; "nine.fault.delay";
    "nine.fault.truncate"; "nine.fault.corrupt"; "nine.fault.duplicate";
    "nine.fault.error_reply"; "nine.rpc.failed"; "nine.rpc.timeout";
    "nine.retry.walk"; "nine.retry.stat"; "nine.retry.read";
    "nine.retry.clunk" ]

let snapshot () =
  List.map (fun k -> (k, Option.value ~default:0 (Trace.find_value k)))
    fault_keys

(* a fixed little workload over a faulty mount *)
let faulty_run config =
  Trace.reset ();
  let ns = Vfs.create () in
  let pool =
    Nine.serve_mount ~wrap:(Fault.wrap config) ns "/m" (Vfs.ramfs ns)
  in
  Vfs.write_file ns "/m/f" "the quick brown fox\n";
  Vfs.mkdir_p ns "/m/d";
  Vfs.write_file ns "/m/d/g" "jumps over\n";
  let acc = Buffer.create 256 in
  for _ = 1 to 60 do
    Buffer.add_string acc (Vfs.read_file ns "/m/f");
    Buffer.add_string acc (Vfs.read_file ns "/m/d/g");
    ignore (Vfs.stat ns "/m/d/g");
    ignore (Vfs.readdir ns "/m")
  done;
  (Buffer.contents acc, snapshot (), Nine.Pool.fid_count pool)

let injection_tests =
  [
    Alcotest.test_case "same seed, same faults, same convergent result"
      `Quick (fun () ->
        let config = { Fault.default with seed = 42; rate = 0.3 } in
        let out1, counts1, fids1 = faulty_run config in
        let out2, counts2, fids2 = faulty_run config in
        let clean, clean_counts, _ = faulty_run { config with rate = 0.0 } in
        Trace.reset ();
        check_bool "faults actually injected" true
          (List.assoc "nine.fault.injected" counts1 > 10);
        check_bool "retries actually happened" true
          (List.assoc "nine.retry.read" counts1 > 0);
        Alcotest.(check (list (pair string int)))
          "deterministic replay" counts1 counts2;
        check_str "deterministic content" out1 out2;
        check_str "converges to the fault-free run" clean out1;
        check_int "no faults when disabled" 0
          (List.assoc "nine.fault.injected" clean_counts);
        check_int "no leaked fids" 1 fids1;
        check_int "no leaked fids (replay)" 1 fids2);
    Alcotest.test_case "different seeds give different schedules" `Quick
      (fun () ->
        let _, counts1, _ =
          faulty_run { Fault.default with seed = 1; rate = 0.3 }
        in
        let _, counts2, _ =
          faulty_run { Fault.default with seed = 2; rate = 0.3 }
        in
        Trace.reset ();
        check_bool "schedules differ" true (counts1 <> counts2));
    Alcotest.test_case "a fault-free wrapper is transparent" `Quick
      (fun () ->
        Trace.reset ();
        let ns = Vfs.create () in
        ignore
          (Nine.serve_mount
             ~wrap:(Fault.wrap { Fault.default with rate = 0.0 })
             ns "/m" (Vfs.ramfs ns));
        Vfs.write_file ns "/m/f" "untouched";
        check_str "round trip" "untouched" (Vfs.read_file ns "/m/f");
        check_int "nothing injected" 0
          (Option.value ~default:0 (Trace.find_value "nine.fault.injected"));
        Trace.reset ());
  ]

(* ------------------------------------------------------------------ *)
(* Graceful degradation                                                *)

let degradation_tests =
  [
    Alcotest.test_case "union falls through a broken member" `Quick
      (fun () ->
        let ns = Vfs.create () in
        let broken =
          breaking (Vfs.ramfs ns) ~stat_eio:true ~open_eio:true
            ~read_after_first:false
        in
        let good = Vfs.ramfs ns in
        Vfs.mount ns "/u" broken;
        Vfs.bind_after ns "/u" good;
        (* write lands in the healthy member, read falls through *)
        Vfs.write_file ns "/u/f" "degraded but alive";
        check_str "read through union" "degraded but alive"
          (Vfs.read_file ns "/u/f"));
    Alcotest.test_case "a union of only broken members reports Eio" `Quick
      (fun () ->
        let ns = Vfs.create () in
        let broken =
          breaking (Vfs.ramfs ns) ~stat_eio:true ~open_eio:true
            ~read_after_first:false
        in
        Vfs.mount ns "/u" broken;
        check_bool "Eio, not Enonexist" true
          (match Vfs.read_file ns "/u/f" with
          | exception Vfs.Error (Vfs.Eio _) -> true
          | _ -> false));
    Alcotest.test_case "a built-in dying of Eio lands in the tag line"
      `Quick (fun () ->
        let ns = Vfs.create () in
        let sh = Rc.create ns in
        Coreutils.install sh;
        let help = Help.create ~w:80 ~h:24 ns sh in
        (* stat succeeds, open fails: the shape of a transport that dies
           mid-command after its retries are exhausted *)
        let flaky =
          breaking (Vfs.ramfs ns) ~stat_eio:false ~open_eio:true
            ~read_after_first:false
        in
        flaky.Vfs.fs_create [ "f" ] ~dir:false;
        Vfs.mount ns "/broken" flaky;
        let w = Help.new_window help ~body:"" () in
        Help.execute help w "Open /broken/f";
        check_bool "error note in the tag" true
          (Hstr.contains (Hwin.tag_text w) ~sub:"!");
        check_bool "reported to Errors" true
          (match Help.window_by_name help "Errors" with
          | Some errw ->
              Hstr.contains
                (Htext.string (Hwin.body errw))
                ~sub:"open broken"
          | None -> false));
    Alcotest.test_case "a mount that cannot connect leaves no residue"
      `Quick (fun () ->
        let ns = Vfs.create () in
        Vfs.mkdir_p ns "/mnt";
        let dead _ = raise Nine.Timeout in
        check_bool "serve_mount raises" true
          (match Nine.serve_mount ~wrap:(fun _ -> dead) ns "/mnt/h"
                   (Vfs.ramfs ns)
           with
          | exception Vfs.Error (Vfs.Eio _) -> true
          | _ -> false);
        (* the namespace is consistent: nothing half-mounted *)
        check_bool "no mount left behind" true
          (match Vfs.readdir ns "/mnt" with
          | entries ->
              not (List.exists (fun e -> e.Vfs.st_name = "h") entries)
          | exception Vfs.Error _ -> false);
        (* and mounting over a healthy transport there still works *)
        ignore (Nine.serve_mount ns "/mnt/h" (Vfs.ramfs ns));
        Vfs.write_file ns "/mnt/h/f" "recovered";
        check_str "second attempt works" "recovered"
          (Vfs.read_file ns "/mnt/h/f"));
  ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fault"
    [
      ("codec-fuzz", fuzz_tests);
      ("fid-invariants", fid_tests);
      ("tags-and-msize", protocol_tests);
      ("fault-injection", injection_tests);
      ("degradation", degradation_tests);
    ]
