(* Write-ahead log, content-addressed snapshots, crash recovery.  See
   wal.mli for the model; DESIGN.md "Durability" for the invariants. *)

exception Corrupt of string

type op =
  | O_event of Help.event
  | O_point of int * string * int
  | O_sweep of int * string
  | O_exec_word of int * string
  | O_exec_sweep of int * string
  | O_exec_tag of int * string
  | O_chord_cut of int * string
  | O_drag of int * int * int
  | O_click_tab of int
  | O_ctl of int * string
  | O_reveal of int
  | O_draw
  | O_write of string * string
  | O_append of string * string
  | O_remove of string
  | O_mkdir of string

let m_records = Trace.counter "wal.records"
let m_bytes = Trace.counter "wal.bytes"
let m_snapshots = Trace.counter "wal.snapshots"
let m_chunks_new = Trace.counter "wal.chunks.new"
let m_chunks_shared = Trace.counter "wal.chunks.shared"
let m_journal = Trace.counter "wal.journal.entries"

(* ---- op serialization ------------------------------------------- *)

let w_button b n =
  Codec.w_int b (match n with Help.Left -> 0 | Help.Middle -> 1 | Help.Right -> 2)

let r_button d =
  match Codec.r_int d with
  | 0 -> Help.Left
  | 1 -> Help.Middle
  | 2 -> Help.Right
  | n -> raise (Corrupt (Printf.sprintf "bad button tag %d" n))

let w_op b op =
  let wn = Codec.w_int b and ws = Codec.w_str b in
  match op with
  | O_event ev -> (
      wn 0;
      match ev with
      | Help.Move (x, y) -> wn 0; wn x; wn y
      | Help.Press bt -> wn 1; w_button b bt
      | Help.Release bt -> wn 2; w_button b bt
      | Help.Key c -> wn 3; wn (Char.code c)
      | Help.Type s -> wn 4; ws s)
  | O_point (w, needle, off) -> wn 1; wn w; ws needle; wn off
  | O_sweep (w, needle) -> wn 2; wn w; ws needle
  | O_exec_word (w, needle) -> wn 3; wn w; ws needle
  | O_exec_sweep (w, needle) -> wn 4; wn w; ws needle
  | O_exec_tag (w, needle) -> wn 5; wn w; ws needle
  | O_chord_cut (w, needle) -> wn 6; wn w; ws needle
  | O_drag (w, col, y) -> wn 7; wn w; wn col; wn y
  | O_click_tab w -> wn 8; wn w
  | O_ctl (w, cmd) -> wn 9; wn w; ws cmd
  | O_reveal w -> wn 10; wn w
  | O_draw -> wn 11
  | O_write (p, s) -> wn 12; ws p; ws s
  | O_append (p, s) -> wn 13; ws p; ws s
  | O_remove p -> wn 14; ws p
  | O_mkdir p -> wn 15; ws p

let r_op d =
  let rn () = Codec.r_int d and rs () = Codec.r_str d in
  match rn () with
  | 0 ->
      O_event
        (match rn () with
        | 0 ->
            let x = rn () in
            Help.Move (x, rn ())
        | 1 -> Help.Press (r_button d)
        | 2 -> Help.Release (r_button d)
        | 3 -> Help.Key (Char.chr (rn () land 0xff))
        | 4 -> Help.Type (rs ())
        | n -> raise (Corrupt (Printf.sprintf "bad event tag %d" n)))
  | 1 ->
      let w = rn () in
      let needle = rs () in
      O_point (w, needle, rn ())
  | 2 ->
      let w = rn () in
      O_sweep (w, rs ())
  | 3 ->
      let w = rn () in
      O_exec_word (w, rs ())
  | 4 ->
      let w = rn () in
      O_exec_sweep (w, rs ())
  | 5 ->
      let w = rn () in
      O_exec_tag (w, rs ())
  | 6 ->
      let w = rn () in
      O_chord_cut (w, rs ())
  | 7 ->
      let w = rn () in
      let col = rn () in
      O_drag (w, col, rn ())
  | 8 -> O_click_tab (rn ())
  | 9 ->
      let w = rn () in
      O_ctl (w, rs ())
  | 10 -> O_reveal (rn ())
  | 11 -> O_draw
  | 12 ->
      let p = rs () in
      O_write (p, rs ())
  | 13 ->
      let p = rs () in
      O_append (p, rs ())
  | 14 -> O_remove (rs ())
  | 15 -> O_mkdir (rs ())
  | n -> raise (Corrupt (Printf.sprintf "bad op tag %d" n))

(* ---- store ------------------------------------------------------ *)

type snapshot = {
  sn_clock : int;
  sn_log_pos : int;
  sn_ops : int;
  sn_vfs : string;
  sn_rc : string;
  sn_help : string;
  sn_trace : string;
  sn_total_bytes : int;
  sn_new_bytes : int;
  sn_chunks : string list;  (* every chunk key this snapshot references *)
}

type store = {
  log : Buffer.t;
  chunks : (string, string) Hashtbl.t;
  mutable c_bytes : int;
  mutable snaps : snapshot list;  (* newest first *)
  mutable jentries : (int * int * int * string) list;  (* newest first *)
  mutable jseq : int;
}

let create_store () =
  {
    log = Buffer.create 4096;
    chunks = Hashtbl.create 64;
    c_bytes = 0;
    snaps = [];
    jentries = [];
    jseq = 0;
  }

let log_pos s = Buffer.length s.log
let chunk_count s = Hashtbl.length s.chunks

let chunk_get s key =
  match Hashtbl.find_opt s.chunks key with
  | Some c -> c
  | None -> raise (Corrupt "unknown chunk digest")

let truncate_log s n =
  let n = max 0 (min n (Buffer.length s.log)) in
  let log = Buffer.create (n + 16) in
  Buffer.add_string log (Buffer.sub s.log 0 n);
  let snaps = List.filter (fun sn -> sn.sn_log_pos <= n) s.snaps in
  (* Chunks written by snapshots past the cut would not exist after a
     real crash; keeping them would also skew the recovered run's
     new/shared accounting away from the uninterrupted run's.  Rebuild
     the table from the surviving snapshots' reference lists. *)
  let chunks = Hashtbl.create 64 in
  let c_bytes = ref 0 in
  List.iter
    (fun sn ->
      List.iter
        (fun key ->
          if not (Hashtbl.mem chunks key) then begin
            let c = Hashtbl.find s.chunks key in
            Hashtbl.add chunks key c;
            c_bytes := !c_bytes + String.length c
          end)
        sn.sn_chunks)
    snaps;
  (* The journal sidecar is kept whole: it is a separate device and may
     legitimately hold entries newer than the last surviving record. *)
  {
    log;
    chunks;
    c_bytes = !c_bytes;
    snaps;
    jentries = s.jentries;
    jseq = s.jseq;
  }

let snapshots s = s.snaps
let latest_snapshot s = match s.snaps with [] -> None | sn :: _ -> Some sn
let sn_log_pos sn = sn.sn_log_pos
let sn_vfs sn = sn.sn_vfs
let sn_rc sn = sn.sn_rc
let sn_help sn = sn.sn_help
let sn_trace sn = sn.sn_trace
let sn_total_bytes sn = sn.sn_total_bytes
let sn_new_bytes sn = sn.sn_new_bytes

(* ---- attachment ------------------------------------------------- *)

type t = {
  st : store;
  mutable recording : bool;
  mutable ops : int;
  mutable every : int;
  mutable since_snap : int;
  mutable on_checkpoint : unit -> unit;
  mutable snap_total : int;  (* per-snapshot tallies, between begin/commit *)
  mutable snap_new : int;
  mutable snap_keys : string list;
  mutable last_ops : int;
  mutable last_torn : int;
}

let attach ?(checkpoint_every = 0) ~recording st =
  {
    st;
    recording;
    ops = 0;
    every = checkpoint_every;
    since_snap = 0;
    on_checkpoint = (fun () -> ());
    snap_total = 0;
    snap_new = 0;
    snap_keys = [];
    last_ops = 0;
    last_torn = 0;
  }

let store t = t.st
let recording t = t.recording
let set_recording t v = t.recording <- v
let op_count t = t.ops
let set_on_checkpoint t f = t.on_checkpoint <- f

(* A frame is [w_str payload; w_str digest]: self-delimiting, so a
   clean end-of-log is distinguishable from a frame cut mid-write. *)
let frame op =
  let b = Buffer.create 32 in
  Codec.w_int b (Trace.logical_now ());
  w_op b op;
  let payload = Buffer.contents b in
  let f = Buffer.create (Buffer.length b + 24) in
  Codec.w_str f payload;
  Codec.w_str f (Digest.string payload);
  Buffer.contents f

let log t op =
  let fr = frame op in
  Trace.incr m_records;
  Trace.incr ~by:(String.length fr) m_bytes;
  t.ops <- t.ops + 1;
  t.since_snap <- t.since_snap + 1;
  if t.recording then Buffer.add_string t.st.log fr

let maybe_checkpoint t =
  if t.recording && t.every > 0 && t.since_snap >= t.every then
    t.on_checkpoint ()

let force_checkpoint t = if t.recording then t.on_checkpoint ()

let begin_snapshot t =
  t.snap_total <- 0;
  t.snap_new <- 0;
  t.snap_keys <- []

let put t chunk =
  let key = Digest.string chunk in
  let len = String.length chunk in
  t.snap_total <- t.snap_total + len;
  t.snap_keys <- key :: t.snap_keys;
  if Hashtbl.mem t.st.chunks key then Trace.incr m_chunks_shared
  else begin
    Hashtbl.add t.st.chunks key chunk;
    t.st.c_bytes <- t.st.c_bytes + len;
    t.snap_new <- t.snap_new + len;
    Trace.incr m_chunks_new
  end;
  key

let commit_snapshot t ~vfs ~rc ~help =
  (* Count the snapshot before capturing the registry, so the captured
     wal.snapshots already includes this one: a recovered session's
     counters then equal the reference run's post-checkpoint values. *)
  Trace.incr m_snapshots;
  let trace = Trace.save_state () in
  let comp = String.length vfs + String.length rc + String.length help in
  let sn =
    {
      sn_clock = Trace.logical_now ();
      sn_log_pos = Buffer.length t.st.log;
      sn_ops = t.ops;
      sn_vfs = vfs;
      sn_rc = rc;
      sn_help = help;
      sn_trace = trace;
      sn_total_bytes = t.snap_total + comp;
      sn_new_bytes = t.snap_new + comp;
      sn_chunks = t.snap_keys;
    }
  in
  t.st.snaps <- sn :: t.st.snaps;
  t.since_snap <- 0

(* ---- replay ----------------------------------------------------- *)

let ops_after s ~pos =
  let src = Buffer.contents s.log in
  let len = String.length src in
  let pos = max 0 (min pos len) in
  let d = Codec.reader (String.sub src pos (len - pos)) in
  let acc = ref [] in
  let torn = ref 0 in
  (try
     while not (Codec.at_end d) do
       match
         (try
            let payload = Codec.r_str d in
            let sum = Codec.r_str d in
            Some (payload, sum)
          with Codec.Truncated _ -> None)
       with
       | None ->
           (* Frame cut mid-write: tolerable only as the very tail. *)
           torn := 1;
           raise Exit
       | Some (payload, sum) ->
           if Digest.string payload <> sum then
             if Codec.at_end d then begin
               (* Trailing garbage that happens to parse as a frame but
                  fails its checksum: still a torn tail. *)
               torn := 1;
               raise Exit
             end
             else raise (Corrupt "wal record checksum mismatch");
           let pd = Codec.reader payload in
           let stamp = Codec.r_int pd in
           let op =
             try r_op pd
             with Codec.Truncated m -> raise (Corrupt ("bad wal record: " ^ m))
           in
           acc := (stamp, op) :: !acc
     done
   with Exit -> ());
  (List.rev !acc, !torn)

let prime t sn =
  t.ops <- sn.sn_ops;
  t.since_snap <- 0

let note_recovery t ~ops ~torn =
  t.last_ops <- ops;
  t.last_torn <- torn

(* ---- journal sidecar -------------------------------------------- *)

let journal_entry t (clock, conn, kind) =
  Trace.incr m_journal;
  if t.recording then begin
    t.st.jseq <- t.st.jseq + 1;
    t.st.jentries <- (t.st.jseq, clock, conn, kind) :: t.st.jentries
  end

let verify_journal s =
  let rec check expect prev_clock = function
    | [] ->
        if expect <> 0 then
          raise
            (Corrupt
               (Printf.sprintf "journal gap: entries below seq %d missing"
                  (expect + 1)))
    | (seq, clock, _, _) :: rest ->
        if seq <> expect then
          raise
            (Corrupt
               (Printf.sprintf "journal gap: expected seq %d, found %d" expect
                  seq));
        (match prev_clock with
        | Some p when clock > p ->
            raise
              (Corrupt
                 (Printf.sprintf "journal clock inversion at seq %d" seq))
        | _ -> ());
        check (expect - 1) (Some clock) rest
  in
  (* Newest first: sequences must run jseq, jseq-1, ..., 1 with
     non-increasing clocks. *)
  check s.jseq None s.jentries

let drop_journal_entry s ~seq =
  s.jentries <- List.filter (fun (q, _, _, _) -> q <> seq) s.jentries

(* ---- introspection ---------------------------------------------- *)

let stats_text t =
  let b = Buffer.create 256 in
  let line k v = Buffer.add_string b (Printf.sprintf "%-28s %d\n" k v) in
  line "wal.log.bytes" (Buffer.length t.st.log);
  line "wal.ops" t.ops;
  line "wal.snapshots" (List.length t.st.snaps);
  line "wal.chunks" (Hashtbl.length t.st.chunks);
  line "wal.chunk.bytes" t.st.c_bytes;
  line "wal.journal.seq" t.st.jseq;
  line "wal.recording" (if t.recording then 1 else 0);
  line "wal.checkpoint.every" t.every;
  line "wal.ops.since.snapshot" t.since_snap;
  (match t.st.snaps with
  | [] -> ()
  | sn :: _ ->
      line "wal.snapshot.last.clock" sn.sn_clock;
      line "wal.snapshot.last.ops" sn.sn_ops;
      line "wal.snapshot.last.bytes.total" sn.sn_total_bytes;
      line "wal.snapshot.last.bytes.new" sn.sn_new_bytes);
  line "wal.recover.last.ops" t.last_ops;
  line "wal.recover.last.torn" t.last_torn;
  Buffer.contents b
