(* Deterministic fault injection for the 9P transport.

   [wrap config transport] returns a transport that lets the inner one
   execute every request, then — with probability [config.rate], drawn
   from a seeded xorshift PRNG — mistreats the {e reply}: drops it
   (raising [Nine.Timeout] after a simulated wait), delays it, truncates
   or bit-corrupts its header, replays the previous reply (a stale tag),
   or substitutes an [Rerror] under a stale tag.  Because the server has
   already executed, a fault only ever loses or mangles an
   acknowledgement; retrying the idempotent kinds therefore converges to
   the same state as a fault-free run, which is exactly the property
   test_session checks on the figure replay under faults.

   Faults are restricted to the kinds in [config.kinds] (by default the
   client's retryable set minus flush), so non-idempotent writes are
   never silently re-executed and a cancellation is never itself
   cancelled.  Every injected fault is tallied in the Trace ledger as
   [nine.fault.injected] plus a per-fault [nine.fault.<name>] counter,
   making a scripted faulty session fully reproducible: same seed, same
   faults, same counters. *)

type fault =
  | Drop  (** swallow the reply; the client sees a timeout *)
  | Delay of int  (** deliver, but [n] logical microseconds late *)
  | Truncate  (** cut the reply short, inside the frame header *)
  | Corrupt  (** flip a high bit in the frame header *)
  | Duplicate  (** replay the previous reply instead (stale tag) *)
  | Error_reply  (** substitute an [Rerror] under a stale tag *)

type config = {
  seed : int;
  rate : float;  (** probability a reply to an eligible kind is faulted *)
  kinds : string list;  (** eligible {!Nine.kind_of_t} names *)
  faults : fault list;  (** the mix drawn from, uniformly *)
  drop_us : int;  (** simulated wait before a drop times out *)
}

let default =
  {
    seed = 0x9e3779b9;
    rate = 0.1;
    kinds = [ "version"; "attach"; "walk"; "stat"; "read"; "clunk" ];
    faults = [ Drop; Delay 120_000; Truncate; Corrupt; Duplicate; Error_reply ];
    drop_us = 120_000;
  }

let fault_name = function
  | Drop -> "drop"
  | Delay _ -> "delay"
  | Truncate -> "truncate"
  | Corrupt -> "corrupt"
  | Duplicate -> "duplicate"
  | Error_reply -> "error_reply"

let injected = Trace.counter "nine.fault.injected"

let fault_counter f = Trace.counter ("nine.fault." ^ fault_name f)

(* xorshift64: cheap, seedable, and good enough for a fault schedule.
   The state is kept nonzero (xorshift's fixed point) and results are
   masked positive. *)
let mix seed =
  let z = ref (if seed = 0 then 0x2545F4914F6CDD1D else seed) in
  fun () ->
    let x = !z in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    z := x;
    x land max_int

let wrap_active config transport =
  let next = mix config.seed in
  let uniform () = float_of_int (next ()) /. float_of_int max_int in
  let pick l = List.nth l (next () mod List.length l) in
  let prev_reply = ref None in
  fun req ->
    let kind =
      match Nine.decode_t req with
      | _, t -> Some (Nine.kind_of_t t)
      | exception Nine.Bad_message _ -> None
    in
    (* the server executes first: faults model a lossy reply path, not
       a lossy request path, so state on the server is never in doubt *)
    let reply = transport req in
    let eligible =
      match kind with Some k -> List.mem k config.kinds | None -> false
    in
    if not (eligible && uniform () < config.rate) then begin
      prev_reply := Some reply;
      reply
    end
    else begin
      let fault = pick config.faults in
      (* Duplicate needs a previous reply to replay; first time around,
         deliver honestly and count nothing. *)
      match (fault, !prev_reply) with
      | Duplicate, None ->
          prev_reply := Some reply;
          reply
      | _ ->
          Trace.incr injected;
          Trace.incr (fault_counter fault);
          let out =
            match fault with
            | Drop ->
                (* the client waited the whole timeout for nothing *)
                Trace.advance config.drop_us;
                raise Nine.Timeout
            | Delay n ->
                Trace.advance n;
                reply
            | Truncate ->
                (* cutting inside the 5-byte header guarantees the frame
                   size check fires — truncation is always detected *)
                String.sub reply 0 (min (String.length reply) (next () mod 5))
            | Corrupt ->
                (* flip the top bit of a header byte: either the frame
                   size stops matching or the type byte exceeds every
                   known message (max type < 128) *)
                let b = Bytes.of_string reply in
                let i = next () mod min 5 (Bytes.length b) in
                Bytes.set b i
                  (Char.chr (Char.code (Bytes.get b i) lxor 0x80));
                Bytes.to_string b
            | Duplicate -> (
                match !prev_reply with Some r -> r | None -> assert false)
            | Error_reply ->
                (* an Rerror under a stale tag: the client must notice
                   the tag mismatch and retry rather than surface a
                   fabricated error as genuine *)
                let tag, _ = Nine.decode_r reply in
                let stale = if tag = 0 then 1 else tag - 1 in
                Nine.encode_r ~tag:stale
                  (Nine.Rerror { ename = "injected fault" })
          in
          prev_reply := Some reply;
          out
    end

(* A disabled schedule is the identity: no per-request decode, no PRNG
   draw — the wrapper must cost nothing when it injects nothing. *)
let wrap config transport =
  if config.rate <= 0. then transport else wrap_active config transport
