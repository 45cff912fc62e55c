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
  | O_open of string
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

(* ---- text form ------------------------------------------------- *)

(* One op per line: a verb, then its fields, each after one space.  A
   string prints raw when it ends the line and reads back unchanged
   (printable, so the log stays legible); otherwise as an OCaml
   literal, which other fields may follow. *)

let add_int b n =
  Buffer.add_char b ' ';
  Buffer.add_string b (string_of_int n)

let add_quoted b s =
  Buffer.add_string b " \"";
  Buffer.add_string b (String.escaped s);
  Buffer.add_char b '"'

let add_last b s =
  let n = String.length s in
  if
    n > 0 && s.[0] <> '"' && s.[0] <> ' ' && s.[n - 1] <> ' '
    && String.for_all (fun c -> c >= ' ' && c <> '\127') s
  then (Buffer.add_char b ' '; Buffer.add_string b s)
  else add_quoted b s

let buttons = [ ("left", Help.Left); ("middle", Help.Middle); ("right", Help.Right) ]

let add_op b op =
  let verb = Buffer.add_string b and int = add_int b and last = add_last b in
  let button bt = last (fst (List.find (fun (_, x) -> x = bt) buttons)) in
  match op with
  | O_event (Move (x, y)) -> verb "move"; int x; int y
  | O_event (Press bt) -> verb "press"; button bt
  | O_event (Release bt) -> verb "release"; button bt
  | O_event (Key c) -> verb "key"; last (String.make 1 c)
  | O_event (Type s) -> verb "type"; last s
  | O_point (w, s, 0) -> verb "point"; int w; last s
  | O_point (w, s, off) -> verb "point"; int w; add_quoted b s; int off
  | O_sweep (w, s) -> verb "sweep"; int w; last s
  | O_exec_word (w, s) -> verb "exec"; int w; last s
  | O_exec_sweep (w, s) -> verb "execsweep"; int w; last s
  | O_exec_tag (w, s) -> verb "exectag"; int w; last s
  | O_chord_cut (w, s) -> verb "cut"; int w; last s
  | O_drag (w, col, y) -> verb "drag"; int w; int col; int y
  | O_click_tab w -> verb "tab"; int w
  | O_open p -> verb "open"; last p
  | O_ctl (w, cmd) -> verb "ctl"; int w; last cmd
  | O_reveal w -> verb "reveal"; int w
  | O_draw -> verb "draw"
  | O_write (p, s) -> verb "write"; add_quoted b p; last s
  | O_append (p, s) -> verb "append"; add_quoted b p; last s
  | O_remove p -> verb "remove"; last p
  | O_mkdir p -> verb "mkdir"; last p

let op_to_string op =
  let b = Buffer.create 32 in
  add_op b op;
  Buffer.contents b

let op_of_string ?(win = Printf.ksprintf failwith "no window named %s") line =
  let fail fmt = Printf.ksprintf failwith fmt in
  let n = String.length line and pos = ref 0 in
  let word () =
    let i = !pos in
    let j = Option.value (String.index_from_opt line i ' ') ~default:n in
    pos := min n (j + 1);
    String.sub line i (j - i)
  in
  let int () =
    let w = word () in
    match int_of_string_opt w with Some v -> v | None -> fail "expected a number, got %S" w
  in
  let window () =
    let w = word () in
    match int_of_string_opt w with
    | Some id when String.for_all (fun c -> c = '-' || (c >= '0' && c <= '9')) w -> id
    | _ -> if w = "" then fail "missing window" else win w
  in
  let quoted () =
    let rest = String.sub line !pos (n - !pos) in
    match Scanf.sscanf rest "%S%n" (fun s k -> (s, k)) with
    | s, k when k = n - !pos || rest.[k] = ' ' -> pos := min n (!pos + k + 1); s
    | _ | (exception (Scanf.Scan_failure _ | Failure _ | End_of_file)) ->
        fail "expected a string literal at %S" rest
  in
  (* a string field: a literal, or raw to the end of the line *)
  let str () =
    if !pos < n && line.[!pos] = '"' then quoted ()
    else (let s = String.sub line !pos (n - !pos) in pos := n; s)
  in
  let button () =
    let w = word () in
    match List.assoc_opt w buttons with Some bt -> bt | None -> fail "expected a button, got %S" w
  in
  let op =
    match word () with
    | "move" -> let x = int () in O_event (Move (x, int ()))
    | "press" -> O_event (Press (button ()))
    | "release" -> O_event (Release (button ()))
    | "key" -> (
        match str () with
        | s when String.length s = 1 -> O_event (Key s.[0])
        | s -> fail "key takes one character, got %S" s)
    | "type" -> O_event (Type (str ()))
    | "point" ->
        let w = window () in
        let s = str () in
        O_point (w, s, if !pos < n then int () else 0)
    | "sweep" -> let w = window () in O_sweep (w, str ())
    | "exec" -> let w = window () in O_exec_word (w, str ())
    | "execsweep" -> let w = window () in O_exec_sweep (w, str ())
    | "exectag" -> let w = window () in O_exec_tag (w, str ())
    | "cut" -> let w = window () in O_chord_cut (w, str ())
    | "drag" -> let w = window () in let col = int () in O_drag (w, col, int ())
    | "tab" -> O_click_tab (window ())
    | "open" -> O_open (str ())
    | "ctl" -> let w = window () in O_ctl (w, str ())
    | "reveal" -> O_reveal (window ())
    | "draw" -> O_draw
    | "write" -> let p = quoted () in O_write (p, str ())
    | "append" -> let p = quoted () in O_append (p, str ())
    | "remove" -> O_remove (str ())
    | "mkdir" -> O_mkdir (str ())
    | v -> fail "unknown verb %S" v
  in
  if !pos < n then fail "unexpected %S" (String.sub line !pos (n - !pos));
  op

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
  add_op b op;
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
           (* the stamp's Codec int ends at the first newline; the
              op's line is the rest *)
           let record =
             try
               let stamp = Codec.r_int (Codec.reader payload) in
               let nl = String.index payload '\n' + 1 in
               (stamp, op_of_string (String.sub payload nl (String.length payload - nl)))
             with Codec.Truncated m | Failure m ->
               raise (Corrupt ("bad wal record: " ^ m))
           in
           acc := record :: !acc
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
