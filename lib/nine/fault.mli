(** Deterministic fault injection for the 9P transport.

    The paper's interface {e is} the file protocol, so its robustness
    story lives at the transport: wrap the in-process server's [rpc]
    with {!wrap} and a seeded script of reply faults — drops, delays,
    truncations, header corruption, duplicated replies, fabricated
    errors under stale tags — exercises every recovery path in
    [Nine.Client] reproducibly.  The server executes each request
    before its reply is mistreated, so with faults limited to the
    idempotent kinds (the default) a scripted session converges to the
    same final state as a fault-free run.

    Every injected fault increments [nine.fault.injected] and a
    per-fault [nine.fault.<name>] counter in the [Trace] ledger (and
    thus appears in [/mnt/help/stats]); the same seed yields the same
    schedule and the same counts. *)

type fault =
  | Drop  (** swallow the reply; the client sees [Nine.Timeout] *)
  | Delay of int  (** deliver [n] logical microseconds late *)
  | Truncate  (** cut the reply inside the frame header *)
  | Corrupt  (** flip a high bit in the frame header *)
  | Duplicate  (** replay the previous reply instead (stale tag) *)
  | Error_reply  (** substitute an [Rerror] under a stale tag *)

type config = {
  seed : int;  (** PRNG seed; same seed, same fault schedule *)
  rate : float;  (** probability a reply to an eligible kind is faulted *)
  kinds : string list;  (** eligible {!Nine.kind_of_t} names *)
  faults : fault list;  (** the mix drawn from, uniformly *)
  drop_us : int;  (** simulated wait before a dropped reply times out *)
}

(** 10% fault rate over the client's retryable kinds minus flush
    (version/attach/walk/stat/read/clunk — flush is excluded so a
    cancellation is never itself cancelled), all six faults in the mix,
    120ms simulated waits. *)
val default : config

(** [wrap config transport] interposes the fault schedule on
    [transport]'s replies.  Pass as [Nine.serve_mount ?wrap].  With
    [rate <= 0.] the wrapper is the identity — a disabled schedule
    costs nothing per request. *)
val wrap : config -> (string -> string) -> string -> string
