(* Durability: op-log round trips (the ops' text form among them),
   torn tails, journal gaps, snapshot chunk sharing, crash recovery
   that converges byte-for-byte (the paper's bug-fix session among the
   recovered scripts), /mnt/help/wal/log replayed as a script, and the
   two boot-hygiene regressions (index generation bumps, Trace.reset
   clearing window baselines) that motivated the subsystem. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* The regexp-compile LRU is process-global; warm it once so the first
   byte-compared boot does not pay misses later boots would not. *)
let warmed = lazy (ignore (Session.boot ()))
let warm () = Lazy.force warmed

(* ------------------------------------------------------------------ *)
(* Op log *)

let all_ops =
  [
    Wal.O_event (Help.Move (3, 4));
    Wal.O_event (Help.Press Help.Left);
    Wal.O_event (Help.Release Help.Middle);
    Wal.O_event (Help.Key 'q');
    Wal.O_event (Help.Type "hello\nworld");
    Wal.O_point (7, "needle", 2);
    Wal.O_sweep (1, "a b");
    Wal.O_exec_word (2, "mk");
    Wal.O_exec_sweep (3, "mk clean");
    Wal.O_exec_tag (4, "Put!");
    Wal.O_chord_cut (5, "cut me");
    Wal.O_drag (6, 1, 9);
    Wal.O_click_tab 8;
    Wal.O_ctl (9, "show 12");
    Wal.O_reveal 10;
    Wal.O_draw;
    Wal.O_write ("/tmp/f", "contents\n");
    Wal.O_append ("/tmp/f", "more");
    Wal.O_remove "/tmp/f";
    Wal.O_mkdir "/tmp/d";
  ]

let log_roundtrip () =
  Trace.reset ();
  let st = Wal.create_store () in
  let a = Wal.attach ~recording:true st in
  List.iter (Wal.log a) all_ops;
  let ops, torn = Wal.ops_after st ~pos:0 in
  check_int "no torn tail" 0 torn;
  check_bool "every op decodes to itself" true
    (List.map snd ops = all_ops);
  check_int "op_count counts" (List.length all_ops) (Wal.op_count a);
  (* clock stamps are non-decreasing *)
  let stamps = List.map fst ops in
  check_bool "stamps non-decreasing" true
    (List.for_all2 ( <= ) stamps (List.tl stamps @ [ max_int ]))

(* Printing an op and parsing the line gives the op back, for strings
   that need the literal form (newline, tab, quotes, backslash, a blank
   at either end, a leading quote, NUL, bytes >= 0x80, the empty
   string) and for zero, negative and large ints. *)
let prop_text_roundtrip =
  let open QCheck.Gen in
  let str =
    oneof
      [
        oneofl
          [ ""; " "; "\n"; "\t"; "\""; "\\"; "\"lead"; " lead"; "trail ";
            "a\000b"; "\xff\x80"; "2 sean"; "\tn = 0;\n"; "say \"hi\" 3" ];
        string_size ~gen:char (int_range 0 11);
        string_size ~gen:printable (int_range 0 11);
      ]
  and num = oneof [ oneofl [ 0; -1; 1; max_int; min_int ]; int ] in
  let button = oneofl [ Help.Left; Help.Middle; Help.Right ] in
  let event e = Wal.O_event e in
  let gen =
    oneof
      [
        map2 (fun x y -> event (Help.Move (x, y))) num num;
        map (fun b -> event (Help.Press b)) button;
        map (fun b -> event (Help.Release b)) button;
        map (fun c -> event (Help.Key c)) char;
        map (fun s -> event (Help.Type s)) str;
        map3 (fun w s o -> Wal.O_point (w, s, o)) num str (oneof [ return 0; num ]);
        map2 (fun w s -> Wal.O_sweep (w, s)) num str;
        map2 (fun w s -> Wal.O_exec_word (w, s)) num str;
        map2 (fun w s -> Wal.O_exec_sweep (w, s)) num str;
        map2 (fun w s -> Wal.O_exec_tag (w, s)) num str;
        map2 (fun w s -> Wal.O_chord_cut (w, s)) num str;
        map3 (fun w c y -> Wal.O_drag (w, c, y)) num num num;
        map (fun w -> Wal.O_click_tab w) num;
        map (fun p -> Wal.O_open p) str;
        map2 (fun w s -> Wal.O_ctl (w, s)) num str;
        map (fun w -> Wal.O_reveal w) num;
        return Wal.O_draw;
        map2 (fun p s -> Wal.O_write (p, s)) str str;
        map2 (fun p s -> Wal.O_append (p, s)) str str;
        map (fun p -> Wal.O_remove p) str;
        map (fun p -> Wal.O_mkdir p) str;
      ]
  in
  QCheck.Test.make ~name:"text form round-trips any op" ~count:3000
    (QCheck.make ~print:Wal.op_to_string gen)
    (fun op ->
      let line = Wal.op_to_string op in
      (not (String.contains line '\n')) && Wal.op_of_string line = op)

let torn_tail_tolerated () =
  Trace.reset ();
  let st = Wal.create_store () in
  let a = Wal.attach ~recording:true st in
  Wal.log a Wal.O_draw;
  let cut = Wal.log_pos st in
  Wal.log a (Wal.O_write ("/tmp/x", "data"));
  (* a crash landed mid-frame: every strictly-partial prefix of the
     final record decodes to one good op plus one torn tail *)
  for n = cut + 1 to Wal.log_pos st - 1 do
    let ops, torn = Wal.ops_after (Wal.truncate_log st n) ~pos:0 in
    check_int "good prefix survives" 1 (List.length ops);
    check_int "tail counted torn" 1 torn
  done;
  (* a clean cut is not torn *)
  let ops, torn = Wal.ops_after (Wal.truncate_log st cut) ~pos:0 in
  check_int "clean cut: one op" 1 (List.length ops);
  check_int "clean cut: no tear" 0 torn

let replay_mode_counts_without_appending () =
  Trace.reset ();
  let st = Wal.create_store () in
  let a = Wal.attach ~recording:false st in
  Wal.log a Wal.O_draw;
  Wal.log a (Wal.O_mkdir "/tmp/d");
  check_int "nothing appended" 0 (Wal.log_pos st);
  check_int "ops still counted" 2 (Wal.op_count a);
  check_bool "wal.records still accounted" true
    (Trace.find_value "wal.records" = Some 2)

let journal_gap_is_loud () =
  Trace.reset ();
  let st = Wal.create_store () in
  let a = Wal.attach ~recording:true st in
  List.iter (fun i -> Wal.journal_entry a (i, 1, "Tread")) [ 10; 11; 12 ];
  Wal.verify_journal st;
  Wal.drop_journal_entry st ~seq:2;
  check_bool "gap raises Corrupt" true
    (match Wal.verify_journal st with
    | exception Wal.Corrupt _ -> true
    | () -> false)

let chunks_shared_across_snapshots () =
  Trace.reset ();
  let st = Wal.create_store () in
  let a = Wal.attach ~recording:true st in
  let big = String.concat "" (List.init 200 (fun i -> string_of_int i)) in
  Wal.begin_snapshot a;
  let k1 = Wal.put a big in
  let _ = Wal.put a "small" in
  Wal.commit_snapshot a ~vfs:"v1" ~rc:"r" ~help:"h";
  Wal.begin_snapshot a;
  let k2 = Wal.put a big in
  let _ = Wal.put a "other" in
  Wal.commit_snapshot a ~vfs:"v2" ~rc:"r" ~help:"h";
  check_str "same content, same key" k1 k2;
  check_int "stored once" 3 (Wal.chunk_count st);
  match Wal.snapshots st with
  | [ sn2; sn1 ] ->
      check_bool "first snapshot pays for everything" true
        (Wal.sn_new_bytes sn1 = Wal.sn_total_bytes sn1);
      check_bool "second snapshot pays only the delta" true
        (Wal.sn_new_bytes sn2 < Wal.sn_total_bytes sn2);
      check_bool "shared chunk readable" true (Wal.chunk_get st k1 = big)
  | _ -> Alcotest.fail "expected two snapshots"

(* ------------------------------------------------------------------ *)
(* Crash recovery through the session *)

let script : (Session.t -> unit) list =
  [
    (fun t -> Session.point_at t (Session.win t "help/Boot") "Exit");
    (fun t -> Session.write_file t "/tmp/a" "hello, wal\n");
    (fun t -> Session.type_text t "x");
    (fun t -> ignore (Session.dump t));
    (fun t -> Session.sweep t (Session.win t "/help/edit/stf") "Pattern");
    (fun t -> Session.append_file t "/tmp/a" "more\n");
    (fun t -> ignore (Session.dump t));
  ]

(* The screen, then the stats, which count the draw the dump logs: a
   tuple would evaluate right to left and read the stats first. *)
let finish t =
  let d = Session.dump t in
  (d, Vfs.read_file t.Session.ns "/mnt/help/stats")

let reference =
  lazy
    (warm ();
     let store = Wal.create_store () in
     let t = Session.boot ~wal:store ~checkpoint_every:4 () in
     let cuts =
       List.map
         (fun op ->
           op t;
           Wal.log_pos store)
         script
     in
     let d, s = finish t in
     (store, cuts, d, s, t))

(* the value of [key] in a /mnt/help/stats text *)
let stat text key =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ k; v ] when k = key -> int_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' text)
  |> Option.value ~default:0

(* Recover from a cut at [pos]; whether the screen, the stats and the
   fid count then equal the uninterrupted run's. *)
let recover_from_cut pos =
  let store, cuts, d_ref, s_ref, t_ref = Lazy.force reference in
  let t = Session.recover ~checkpoint_every:4 (Wal.truncate_log store pos) in
  (* re-drive the ops the crash threw away: everything after the last
     op whose record fully precedes the cut *)
  let rec todo i = function
    | [] -> []
    | c :: rest -> if c <= pos then todo (i + 1) rest else List.filteri (fun j _ -> j >= i) script
  in
  List.iter (fun op -> op t) (todo 0 cuts);
  let d, s = finish t in
  let fids = Nine.Pool.fid_count in
  (d = d_ref, s = s_ref, fids t.Session.pool = fids t_ref.Session.pool)

let recovery_converges () =
  let _, cuts, _, s_ref, t_ref = Lazy.force reference in
  (* the reference run's own wal counters are well-formed *)
  check_int "wal.records is the op count"
    (Wal.op_count (Option.get !(t_ref.Session.wal)))
    (stat s_ref "wal.records");
  List.iter
    (fun key -> check_bool (key ^ " is positive") true (stat s_ref key > 0))
    [ "wal.bytes"; "wal.snapshots"; "wal.journal.entries" ];
  (* one clean boundary and one torn mid-record cut *)
  let mid = List.nth cuts 2 + 3 in
  List.iter
    (fun pos ->
      let d_ok, s_ok, f_ok = recover_from_cut pos in
      check_bool (Printf.sprintf "screen converges at cut %d" pos) true d_ok;
      check_bool (Printf.sprintf "stats converge at cut %d" pos) true s_ok;
      check_bool (Printf.sprintf "fids unchanged at cut %d" pos) true f_ok)
    [ List.nth cuts 1; mid ]

(* The last scripted cut: every scripted op survives and nothing is
   re-driven.  The log goes on past it with [finish]'s own draw, which
   the recovered session must not hold. *)
let recovery_at_last_scripted_cut () =
  let _, cuts, _, _, _ = Lazy.force reference in
  let pos = List.nth cuts (List.length cuts - 1) in
  let d_ok, s_ok, f_ok = recover_from_cut pos in
  check_bool "screen converges at the last scripted cut" true d_ok;
  check_bool "stats converge at the last scripted cut" true s_ok;
  check_bool "fids unchanged at the last scripted cut" true f_ok

let recovery_refuses_journal_gap () =
  let store, _, _, _, _ = Lazy.force reference in
  let crashed = Wal.truncate_log store (Wal.log_pos store) in
  check_bool "journal intact verifies" true
    (match Wal.verify_journal crashed with () -> true);
  Wal.drop_journal_entry crashed ~seq:2;
  check_bool "recover raises Corrupt on the gap" true
    (match Session.recover ~checkpoint_every:4 crashed with
    | exception Wal.Corrupt _ -> true
    | _ -> false)

let wal_files_in_band () =
  warm ();
  let store = Wal.create_store () in
  let t = Session.boot ~wal:store ~checkpoint_every:0 () in
  let snaps0 = List.length (Wal.snapshots store) in
  let stats = Vfs.read_file t.Session.ns "/mnt/help/wal/stats" in
  check_bool "wal/stats names the ledger" true
    (String.length stats > 0
    && String.sub stats 0 13 = "wal.log.bytes");
  Vfs.write_file t.Session.ns "/mnt/help/wal/checkpoint" "now\n";
  check_int "writing checkpoint snapshots now" (snaps0 + 1)
    (List.length (Wal.snapshots store));
  (* without an attachment the directory is absent *)
  let t2 = Session.boot () in
  check_bool "no wal, no wal/" true
    (match Vfs.read_file t2.Session.ns "/mnt/help/wal/stats" with
    | exception Vfs.Error _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Property: a crash anywhere in the log recovers and converges.  A
   cut before boot's initial checkpoint models a crash during boot:
   nothing durable exists yet, and recover must refuse with Corrupt
   rather than invent a session.  Cuts stop at the last scripted cut:
   [finish]'s draw is logged after it, and a session recovered from
   beyond that point already holds the draw the comparison repeats. *)

let prop_any_cut_recovers =
  QCheck.Test.make ~name:"recovery converges from any cut position" ~count:8
    (QCheck.make QCheck.Gen.(int_range 0 1_000_000))
    (fun r ->
      let store, cuts, _, _, _ = Lazy.force reference in
      let last_cut = List.nth cuts (List.length cuts - 1) in
      let pos = r mod (last_cut + 1) in
      let first =
        match List.rev (Wal.snapshots store) with
        | sn :: _ -> Wal.sn_log_pos sn
        | [] -> 0
      in
      if pos < first then
        match Session.recover ~checkpoint_every:4 (Wal.truncate_log store pos) with
        | exception Wal.Corrupt _ -> true
        | _ -> false
      else
        let d_ok, s_ok, f_ok = recover_from_cut pos in
        d_ok && s_ok && f_ok)

(* ------------------------------------------------------------------ *)
(* Recovery over the paper's bug-fix session (Figures 4-12).  Its
   gestures (Bugfix_script) run rc, `uses *.c', Put! and mk, so the
   recovered session must hold every file and window boot made before
   the first snapshot. *)

(* Each op is a gesture and the repaint after it; the logged repaint is
   where a due checkpoint is taken. *)
let bugfix_recovers ~remote ~checkpoint_every () =
  warm ();
  let ops =
    List.map
      (fun g t ->
        g t;
        ignore (Session.screen t))
      Bugfix_script.gestures
  in
  let store = Wal.create_store () in
  let t = Session.boot ~h:48 ~remote ~wal:store ~checkpoint_every () in
  let cuts =
    List.map
      (fun op ->
        op t;
        Wal.log_pos store)
      ops
  in
  let d_ref, s_ref = finish t in
  List.iteri
    (fun i pos ->
      let r =
        Session.recover ~h:48 ~remote ~checkpoint_every
          (Wal.truncate_log store pos)
      in
      List.iteri (fun j op -> if j > i then op r) ops;
      let d, s = finish r in
      check_bool (Printf.sprintf "screen converges after op %d" (i + 1)) true
        (d = d_ref);
      check_bool (Printf.sprintf "stats converge after op %d" (i + 1)) true
        (s = s_ref))
    cuts

(* /mnt/help/wal/log is a script: the bug-fix session runs on a logged
   boot, and its log, read through the mount, is applied line by line
   to a fresh unlogged boot through the parse-and-apply path helpsim
   uses.  The log is read after the logged run's final dump and stats,
   so the read's own 9P traffic falls after the compared point.  The
   log's first line is boot's logged draw, and its last is the final
   dump's draw, which the replay's own final dump stands in for. *)
let log_replays_as_script ~remote () =
  warm ();
  let gestures = Bugfix_script.gestures in
  let store = Wal.create_store () in
  let t = Session.boot ~h:48 ~remote ~wal:store ~checkpoint_every:6 () in
  List.iter
    (fun g ->
      g t;
      ignore (Session.screen t))
    gestures;
  let d_ref, s_ref = finish t in
  let lines =
    Vfs.read_file t.Session.ns "/mnt/help/wal/log"
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  check_int "boot's draw, 20 gestures with their draws, the dump's draw" 42
    (List.length lines);
  check_str "the last line is the final dump's draw" "draw"
    (List.nth lines 41);
  let r = Session.boot ~h:48 ~remote () in
  List.iteri
    (fun i line -> if i < 41 then Session.apply r (Wal.op_of_string line))
    lines;
  let d, s = finish r in
  let unlogged text =
    String.split_on_char '\n' text
    |> List.filter (fun l -> not (String.starts_with ~prefix:"wal." l))
  in
  check_str "screen matches the logged run's" d_ref d;
  Alcotest.(check (list string))
    "stats match the logged run's, less wal.*" (unlogged s_ref) (unlogged s)

(* ------------------------------------------------------------------ *)
(* Satellite regressions *)

(* Index staleness: every mutating path — remove, and writes arriving
   through a subtree view (the 9P server's route) — must bump the
   namespace generation, or pruned grep serves hits from deleted or
   stale text. *)
let index_fresh_after_mutations () =
  let ns = Vfs.create () in
  Vfs.mkdir_p ns "/src";
  let files = List.init 4 (fun i -> Printf.sprintf "/src/f%d.txt" i) in
  List.iteri
    (fun i p -> Vfs.write_file ns p (Printf.sprintf "alpha%d needle\n" i))
    files;
  let ix = Index.create ns in
  let re = Regexp.compile "needle" in
  let same () =
    Index.hits_text (Index.grep ix re files)
    = Index.hits_text (Index.grep_linear ix re files)
  in
  check_bool "baseline agrees" true (same ());
  Vfs.remove ns "/src/f2.txt";
  check_bool "after remove: indexed = linear" true (same ());
  check_int "removed file yields no hits" 3
    (List.length (Index.grep ix re files));
  (* a subtree view mutates: create, truncating open, plain write *)
  let sub = Vfs.subtree ns "/src" in
  sub.Vfs.fs_create [ "f9.txt" ] ~dir:false;
  let f = sub.Vfs.fs_open [ "f9.txt" ] Vfs.Write ~trunc:false in
  ignore (f.Vfs.of_write ~off:0 "subtree needle\n");
  f.Vfs.of_close ();
  let files = files @ [ "/src/f9.txt" ] in
  check_bool "after subtree write: indexed = linear" true
    (Index.hits_text (Index.grep ix re files)
    = Index.hits_text (Index.grep_linear ix re files));
  let g = Vfs.generation ns in
  let f = sub.Vfs.fs_open [ "f9.txt" ] Vfs.Write ~trunc:true in
  f.Vfs.of_close ();
  check_bool "truncating open bumps generation" true (Vfs.generation ns > g)

(* Boot hygiene: Trace.reset must clear rolling-window baselines and
   alert latches, or the second boot's /mnt/help/metrics inherits the
   first boot's deltas. *)
let fresh_boots_report_identically () =
  warm ();
  (* two further boots, beyond the warm-up, must agree byte-for-byte *)
  let m1 =
    let t = Session.boot () in
    Vfs.read_file t.Session.ns "/mnt/help/metrics"
  in
  let m2 =
    let t = Session.boot () in
    Vfs.read_file t.Session.ns "/mnt/help/metrics"
  in
  check_str "metrics byte-identical across fresh boots" m1 m2

let () =
  Alcotest.run "wal"
    [
      ( "log",
        [
          Alcotest.test_case "every op round-trips" `Quick log_roundtrip;
          Alcotest.test_case "torn tail tolerated, clean cut distinguished"
            `Quick torn_tail_tolerated;
          Alcotest.test_case "replay mode counts without appending" `Quick
            replay_mode_counts_without_appending;
          Alcotest.test_case "journal gap raises Corrupt" `Quick
            journal_gap_is_loud;
          Alcotest.test_case "snapshots share unchanged chunks" `Quick
            chunks_shared_across_snapshots;
          Seeded.to_alcotest 21 prop_text_roundtrip;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash+recover converges byte-for-byte" `Slow
            recovery_converges;
          Alcotest.test_case "crash at the last scripted cut converges" `Slow
            recovery_at_last_scripted_cut;
          Alcotest.test_case "recovery refuses a journal gap" `Slow
            recovery_refuses_journal_gap;
          Alcotest.test_case "wal/{stats,checkpoint} served in-band" `Slow
            wal_files_in_band;
        ] );
      ( "bugfix",
        List.map
          (fun (remote, checkpoint_every) ->
            Alcotest.test_case
              (Printf.sprintf "%s, checkpoint every %d"
                 (if remote then "remote" else "local")
                 checkpoint_every)
              `Slow
              (bugfix_recovers ~remote ~checkpoint_every))
          [ (false, 6); (false, 0); (true, 6); (true, 0) ]
        @ List.map
            (fun remote ->
              Alcotest.test_case
                (Printf.sprintf "wal/log replays as a script, %s"
                   (if remote then "remote" else "local"))
                `Slow
                (log_replays_as_script ~remote))
            [ false; true ] );
      ( "property",
        [ Seeded.to_alcotest 59 prop_any_cut_recovers ] );
      ( "regressions",
        [
          Alcotest.test_case "index stays fresh across mutating paths" `Quick
            index_fresh_after_mutations;
          Alcotest.test_case "fresh boots report identical metrics" `Slow
            fresh_boots_report_identically;
        ] );
    ]
