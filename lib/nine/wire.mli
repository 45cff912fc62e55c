(** The 9P wire layer: message types, zero-copy decode, reusable encode.

    This module owns the bytes-on-the-wire half of the protocol; the
    semantics live in {!Nine.Pool}.  Two disciplines keep the hot
    path cheap at thousands of connections:

    - {b Zero-copy decode.}  Decoding reads through an (offset, limit)
      slice view into a shared read buffer, so a batch of coalesced frames is
      decoded in place without cutting per-frame strings.  Only fields
      the decoded message retains ([uname], walk names, payloads) are
      materialized.

    - {b Reusable encode.}  A {!Writer} is a growable byte buffer with
      explicit positions: the size[4] prefix of a frame is reserved and
      patched once the body length is known, and one writer is reused
      per connection across messages, eliminating the per-message
      [Buffer.create] of earlier revisions.

    [Nine] re-exports everything here, so existing [Nine.encode_t]
    etc. callers are unaffected. *)

(** {1 Message types} *)

type qid = { q_type : int; q_version : int; q_path : int }

val qtdir : int
(** [q_type] bit marking a directory. *)

type stat9 = {
  s9_name : string;
  s9_qid : qid;
  s9_length : int;
  s9_mtime : int;
}

type open_mode = Oread | Owrite | Ordwr | Otrunc of open_mode

type tmsg =
  | Tversion of { msize : int; version : string }
  | Tattach of { fid : int; uname : string; aname : string }
  | Twalk of { fid : int; newfid : int; names : string list }
  | Topen of { fid : int; mode : open_mode }
  | Tcreate of { fid : int; name : string; dir : bool; mode : open_mode }
  | Tread of { fid : int; offset : int; count : int }
  | Twrite of { fid : int; offset : int; data : string }
  | Tclunk of { fid : int }
  | Tremove of { fid : int }
  | Tstat of { fid : int }
  | Tflush of { oldtag : int }

type rmsg =
  | Rversion of { msize : int; version : string }
  | Rattach of { qid : qid }
  | Rwalk of { qids : qid list }
  | Ropen of { qid : qid; iounit : int }
  | Rcreate of { qid : qid; iounit : int }
  | Rread of { data : string }
  | Rwrite of { count : int }
  | Rclunk
  | Rremove
  | Rstat of { stat : stat9 }
  | Rflush
  | Rerror of { ename : string }

exception Bad_message of string
(** Raised by decoders on malformed input (and by encoders on
    unrepresentable values, e.g. a string longer than 16 bits). *)

exception Timeout
(** Raised by a transport to model a reply that never arrived. *)

val kind_of_t : tmsg -> string
(** Short lowercase name of a T-message ("walk", "read", ...), the key
    used for [nine.rpc.<kind>] counters and the replay journal. *)

(** {1 Writer} *)

(** A growable byte sink with explicit positions and in-place patching.
    Reuse one per connection: [clear] then encode a batch of frames,
    then flush [contents] (or slice replies out with [sub_string]). *)
module Writer : sig
  type t

  val create : int -> t
  val clear : t -> unit
  val length : t -> int
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val raw : t -> string -> unit

  val str : t -> string -> unit
  (** 9P string: u16 length prefix then bytes. *)

  val contents : t -> string
  val sub_string : t -> off:int -> len:int -> string
end

(** {1 Encode} *)

val encode_r_into : Writer.t -> tag:int -> rmsg -> unit
(** Append one framed R-message; its size[4] is patched in place. *)

val encode_t : tag:int -> tmsg -> string
val encode_r : tag:int -> rmsg -> string

val encode_stat : stat9 -> string
(** One directory entry as it appears in a directory read. *)

(** {1 Decode} *)

val decode_t : string -> int * tmsg
(** [decode_t packet] is [(tag, msg)].
    @raise Bad_message on garbage. *)

val decode_t_at : string -> off:int -> len:int -> int * tmsg
(** Decode one frame in place from a slice of a larger buffer. *)

val decode_r : string -> int * rmsg

val decode_stats : string -> stat9 list
(** Split a directory-read payload into its entries. *)

(** {1 Frame scanning} *)

val iter_frames : string -> (off:int -> len:int -> unit) -> unit
(** Walk a buffer of concatenated frames, calling [f] with each
    frame's slice — the entry point for wire-level batching. *)
