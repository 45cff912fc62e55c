(* Nine: codec round-trips (unit + property) and a full client/server
   conversation against a RAM file system. *)

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let roundtrip_t msg =
  let tag = 7 in
  let tag', msg' = Nine.decode_t (Nine.encode_t ~tag msg) in
  Alcotest.(check int) "tag" tag tag';
  msg'

let roundtrip_r msg =
  let tag = 9 in
  let tag', msg' = Nine.decode_r (Nine.encode_r ~tag msg) in
  Alcotest.(check int) "tag" tag tag';
  msg'

(* one pooled connection to [fs], spoken to frame by frame *)
let direct fs =
  Nine.Pool.transport (Nine.Pool.attach (Nine.Pool.create fs))

let qid = { Nine.q_type = Nine.qtdir; q_version = 3; q_path = 0x1234 }

let codec_tests =
  [
    Alcotest.test_case "Tversion" `Quick (fun () ->
        match roundtrip_t (Nine.Tversion { msize = 8192; version = "9P2000.help" }) with
        | Nine.Tversion { msize; version } ->
            check_int "msize" 8192 msize;
            check_str "version" "9P2000.help" version
        | _ -> Alcotest.fail "wrong message");
    Alcotest.test_case "Twalk with names" `Quick (fun () ->
        match
          roundtrip_t (Nine.Twalk { fid = 1; newfid = 2; names = [ "a"; "b"; "c" ] })
        with
        | Nine.Twalk { fid; newfid; names } ->
            check_int "fid" 1 fid;
            check_int "newfid" 2 newfid;
            Alcotest.(check (list string)) "names" [ "a"; "b"; "c" ] names
        | _ -> Alcotest.fail "wrong message");
    Alcotest.test_case "Twrite binary-safe payload" `Quick (fun () ->
        let data = String.init 256 Char.chr in
        match roundtrip_t (Nine.Twrite { fid = 4; offset = 99; data }) with
        | Nine.Twrite { fid; offset; data = d } ->
            check_int "fid" 4 fid;
            check_int "offset" 99 offset;
            check_str "data" data d
        | _ -> Alcotest.fail "wrong message");
    Alcotest.test_case "Tread large offset (64-bit)" `Quick (fun () ->
        match
          roundtrip_t (Nine.Tread { fid = 1; offset = 0x1_0000_0000; count = 10 })
        with
        | Nine.Tread { offset; _ } -> check_int "offset" 0x1_0000_0000 offset
        | _ -> Alcotest.fail "wrong message");
    Alcotest.test_case "Ropen / Rwalk / Rerror" `Quick (fun () ->
        (match roundtrip_r (Nine.Ropen { qid; iounit = 8192 }) with
        | Nine.Ropen { qid = q; iounit } ->
            check_int "iounit" 8192 iounit;
            check_bool "dir bit" true (q.Nine.q_type land Nine.qtdir <> 0)
        | _ -> Alcotest.fail "wrong message");
        (match roundtrip_r (Nine.Rwalk { qids = [ qid; qid ] }) with
        | Nine.Rwalk { qids } -> check_int "qids" 2 (List.length qids)
        | _ -> Alcotest.fail "wrong message");
        match roundtrip_r (Nine.Rerror { ename = "file does not exist" }) with
        | Nine.Rerror { ename } -> check_str "ename" "file does not exist" ename
        | _ -> Alcotest.fail "wrong message");
    Alcotest.test_case "stat encode/decode" `Quick (fun () ->
        let st = { Nine.s9_name = "body"; s9_qid = qid; s9_length = 42; s9_mtime = 7 } in
        match Nine.decode_stats (Nine.encode_stat st ^ Nine.encode_stat st) with
        | [ a; b ] ->
            check_str "name" "body" a.Nine.s9_name;
            check_int "length" 42 b.Nine.s9_length
        | _ -> Alcotest.fail "wrong count");
    Alcotest.test_case "malformed packets raise Bad_message" `Quick (fun () ->
        check_bool "short" true
          (match Nine.decode_t "\x03\x00\x00" with
          | exception Nine.Bad_message _ -> true
          | _ -> false);
        let good = Nine.encode_t ~tag:1 (Nine.Tclunk { fid = 1 }) in
        let truncated = String.sub good 0 (String.length good - 1) in
        check_bool "size mismatch" true
          (match Nine.decode_t truncated with
          | exception Nine.Bad_message _ -> true
          | _ -> false));
  ]

(* property: arbitrary Twrite payloads and Twalk names round-trip *)
let prop_twrite =
  QCheck.Test.make ~name:"Twrite round-trips arbitrary bytes" ~count:300
    QCheck.(pair small_nat (QCheck.make QCheck.Gen.(string_size (int_range 0 200))))
    (fun (off, data) ->
      match Nine.decode_t (Nine.encode_t ~tag:3 (Nine.Twrite { fid = 1; offset = off; data })) with
      | _, Nine.Twrite { offset; data = d; _ } -> offset = off && d = data
      | _ -> false)

let prop_twalk =
  QCheck.Test.make ~name:"Twalk round-trips name lists" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 0 8)
       (QCheck.make QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 33 126)) (int_range 1 20))))
    (fun names ->
      match Nine.decode_t (Nine.encode_t ~tag:3 (Nine.Twalk { fid = 0; newfid = 1; names })) with
      | _, Nine.Twalk { names = n; _ } -> n = names
      | _ -> false)

(* end-to-end: mount a ramfs through the protocol *)
let e2e_tests =
  [
    Alcotest.test_case "read/write through the mount" `Quick (fun () ->
        let ns = Vfs.create () in
        let backing = Vfs.ramfs ns in
        let pool = Nine.serve_mount ns "/mnt/nine" backing in
        Vfs.write_file ns "/mnt/nine/f" "over the wire";
        check_str "read back" "over the wire" (Vfs.read_file ns "/mnt/nine/f");
        let stats = Nine.Pool.kind_counts pool in
        check_bool "walks happened" true (List.mem_assoc "walk" stats);
        check_bool "writes happened" true (List.mem_assoc "write" stats));
    Alcotest.test_case "directories through the mount" `Quick (fun () ->
        let ns = Vfs.create () in
        ignore (Nine.serve_mount ns "/mnt/nine" (Vfs.ramfs ns));
        Vfs.mkdir_p ns "/mnt/nine/d";
        Vfs.write_file ns "/mnt/nine/d/a" "1";
        Vfs.write_file ns "/mnt/nine/d/b" "2";
        let names =
          List.map (fun (s : Vfs.stat) -> s.st_name) (Vfs.readdir ns "/mnt/nine/d")
        in
        Alcotest.(check (list string)) "names" [ "a"; "b" ] names);
    Alcotest.test_case "errors cross the protocol as Rerror" `Quick (fun () ->
        let ns = Vfs.create () in
        ignore (Nine.serve_mount ns "/mnt/nine" (Vfs.ramfs ns));
        check_bool "Enonexist survives the wire" true
          (match Vfs.read_file ns "/mnt/nine/missing" with
          | exception Vfs.Error Vfs.Enonexist -> true
          | _ -> false));
    Alcotest.test_case "large file crosses iounit chunking" `Quick (fun () ->
        let ns = Vfs.create () in
        ignore (Nine.serve_mount ns "/mnt/nine" (Vfs.ramfs ns));
        let big = String.init 50_000 (fun i -> Char.chr (32 + (i mod 90))) in
        Vfs.write_file ns "/mnt/nine/big" big;
        check_bool "equal" true (Vfs.read_file ns "/mnt/nine/big" = big));
    Alcotest.test_case "remove through the mount" `Quick (fun () ->
        let ns = Vfs.create () in
        ignore (Nine.serve_mount ns "/mnt/nine" (Vfs.ramfs ns));
        Vfs.write_file ns "/mnt/nine/f" "x";
        Vfs.remove ns "/mnt/nine/f";
        check_bool "gone" false (Vfs.exists ns "/mnt/nine/f"));
    Alcotest.test_case "a persistently corrupted frame fails after retries"
      `Quick (fun () ->
        (* failure injection: flip a byte in every server reply; the
           client retries, then gives up with a transport error *)
        let ns = Vfs.create () in
        let rpc = direct (Vfs.ramfs ns) in
        let corrupt packet =
          let reply = Bytes.of_string (rpc packet) in
          if Bytes.length reply > 4 then
            Bytes.set reply 4
              (Char.chr (Char.code (Bytes.get reply 4) lxor 0x55));
          Bytes.to_string reply
        in
        check_bool "detected" true
          (match Nine.Client.connect corrupt with
          | exception Vfs.Error (Vfs.Eio _) -> true
          | _ -> false));
    Alcotest.test_case "a persistent tag mismatch fails after retries" `Quick
      (fun () ->
        let ns = Vfs.create () in
        let rpc = direct (Vfs.ramfs ns) in
        let retag packet =
          (* answer with the wrong tag *)
          let reply = Bytes.of_string (rpc packet) in
          Bytes.set reply 5 '\xee';
          Bytes.set reply 6 '\xbb';
          Bytes.to_string reply
        in
        check_bool "detected" true
          (match Nine.Client.connect retag with
          | exception Vfs.Error (Vfs.Eio _) -> true
          | _ -> false));
    Alcotest.test_case "a transient fault is retried transparently" `Quick
      (fun () ->
        (* drop exactly one read reply: the client times out, retries,
           and the caller never notices *)
        let ns = Vfs.create () in
        let rpc = direct (Vfs.ramfs ns) in
        let dropped = ref false in
        let flaky packet =
          let reply = rpc packet in
          match Nine.decode_t packet with
          | _, Nine.Tread _ when not !dropped ->
              dropped := true;
              raise Nine.Timeout
          | _ -> reply
        in
        let c = Nine.Client.connect flaky in
        let outer = Vfs.create () in
        Vfs.mount outer "/mnt/nine" (Nine.Client.filesystem c);
        Vfs.write_file outer "/mnt/nine/f" "survives";
        let before = Trace.find_value "nine.retry.read" in
        check_str "read through one drop" "survives"
          (Vfs.read_file outer "/mnt/nine/f");
        check_bool "dropped once" true !dropped;
        let after = Trace.find_value "nine.retry.read" in
        check_bool "retry counted" true
          (match (before, after) with
          | Some b, Some a -> a = b + 1
          | None, Some a -> a >= 1
          | _ -> false));
    Alcotest.test_case "stacked mounts: nine over nine" `Quick (fun () ->
        (* the CPU-server topology in miniature: a server exporting a
           namespace that itself resolves through another 9P mount *)
        let inner = Vfs.create () in
        ignore (Nine.serve_mount inner "/deep" (Vfs.ramfs inner));
        Vfs.write_file inner "/deep/f" "two hops";
        let outer = Vfs.create () in
        ignore (Nine.serve_mount outer "/link" (Vfs.subtree inner "/"));
        check_str "read through both" "two hops"
          (Vfs.read_file outer "/link/deep/f");
        Vfs.write_file outer "/link/deep/f" "written back";
        check_str "write through both" "written back"
          (Vfs.read_file inner "/deep/f"));
  ]

(* direct protocol conversations, message by message *)
let protocol_tests =
  [
    Alcotest.test_case "version resets the fid table" `Quick (fun () ->
        let ns = Vfs.create () in
        let fs = Vfs.ramfs ns in
        Vfs.mount ns "/m" fs;
        Vfs.write_file ns "/m/f" "x";
        let raw = direct fs in
        let rpc msg =
          let tag, r = Nine.decode_r (raw (Nine.encode_t ~tag:1 msg)) in
          check_int "tag" 1 tag;
          r
        in
        (match rpc (Nine.Tversion { msize = 8192; version = "9P2000.help" }) with
        | Nine.Rversion _ -> ()
        | _ -> Alcotest.fail "version");
        (match rpc (Nine.Tattach { fid = 0; uname = "u"; aname = "" }) with
        | Nine.Rattach _ -> ()
        | _ -> Alcotest.fail "attach");
        (* after a second Tversion the old fid is gone *)
        (match rpc (Nine.Tversion { msize = 8192; version = "9P2000.help" }) with
        | Nine.Rversion _ -> ()
        | _ -> Alcotest.fail "version2");
        match rpc (Nine.Tstat { fid = 0 }) with
        | Nine.Rerror _ -> ()
        | _ -> Alcotest.fail "stale fid accepted");
    Alcotest.test_case "walk stops at the missing component" `Quick (fun () ->
        let ns = Vfs.create () in
        let fs = Vfs.ramfs ns in
        Vfs.mount ns "/m" fs;
        Vfs.mkdir_p ns "/m/a";
        let raw = direct fs in
        let rpc msg = snd (Nine.decode_r (raw (Nine.encode_t ~tag:1 msg))) in
        ignore (rpc (Nine.Tversion { msize = 8192; version = "9P2000.help" }));
        ignore (rpc (Nine.Tattach { fid = 0; uname = "u"; aname = "" }));
        match rpc (Nine.Twalk { fid = 0; newfid = 1; names = [ "a"; "nope"; "deep" ] }) with
        | Nine.Rerror _ -> ()
        | Nine.Rwalk { qids } ->
            (* partial walks may also be reported with fewer qids *)
            check_bool "fewer qids than names" true (List.length qids < 3)
        | _ -> Alcotest.fail "unexpected reply");
    Alcotest.test_case "create over the wire" `Quick (fun () ->
        let ns = Vfs.create () in
        let backing = Vfs.ramfs ns in
        ignore (Nine.serve_mount ns "/m" backing);
        let h = Vfs.create_file ns "/m/new-file" in
        Vfs.write h "born remote";
        Vfs.close h;
        check_str "content" "born remote" (Vfs.read_file ns "/m/new-file"));
    Alcotest.test_case "qid carries the directory bit and version" `Quick
      (fun () ->
        let ns = Vfs.create () in
        let fs = Vfs.ramfs ns in
        Vfs.mount ns "/m" fs;
        Vfs.mkdir_p ns "/m/d";
        Vfs.write_file ns "/m/f" "x";
        let raw = direct fs in
        let rpc msg = snd (Nine.decode_r (raw (Nine.encode_t ~tag:1 msg))) in
        ignore (rpc (Nine.Tversion { msize = 8192; version = "9P2000.help" }));
        ignore (rpc (Nine.Tattach { fid = 0; uname = "u"; aname = "" }));
        (match rpc (Nine.Twalk { fid = 0; newfid = 1; names = [ "d" ] }) with
        | Nine.Rwalk { qids = [ q ] } ->
            check_bool "dir bit" true (q.Nine.q_type land Nine.qtdir <> 0)
        | _ -> Alcotest.fail "walk d");
        match rpc (Nine.Twalk { fid = 0; newfid = 2; names = [ "f" ] }) with
        | Nine.Rwalk { qids = [ q ] } ->
            check_bool "file has no dir bit" true (q.Nine.q_type land Nine.qtdir = 0)
        | _ -> Alcotest.fail "walk f");
  ]

let () =
  Alcotest.run "nine"
    [
      ("codec", codec_tests);
      ( "property",
        List.map (Seeded.to_alcotest 29) [ prop_twrite; prop_twalk ] );
      ("end-to-end", e2e_tests);
      ("protocol", protocol_tests);
    ]
