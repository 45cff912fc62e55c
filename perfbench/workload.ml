(* What every workload provides, and what one measured run collects. *)

(* A growable buffer of latency samples, in milliseconds. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }
  let of_array a = { a; n = Array.length a }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  (* Over the samples [lo, hi): linear interpolation between closest
     ranks; [nan] when empty. *)
  let percentile t ~lo ~hi p =
    let n = hi - lo in
    if n <= 0 then nan
    else begin
      let s = Array.sub t.a lo n in
      Array.sort compare s;
      let x = p /. 100. *. float_of_int (n - 1) in
      let i = int_of_float x in
      if i >= n - 1 then s.(n - 1)
      else s.(i) +. ((x -. float_of_int i) *. (s.(i + 1) -. s.(i)))
    end

  (* Samples of [lo, hi) strictly beyond the [p]th percentile's rank. *)
  let beyond ~lo ~hi p = hi - lo - 1 - int_of_float (p /. 100. *. float_of_int (hi - lo - 1))
end

type run = {
  op : Samples.t;  (* the workload's unit of work *)
  aux : Samples.t;  (* its secondary operation *)
  detail : Samples.t;  (* a finer grain of the unit of work, if any *)
  mutable attempted : int;
  mutable failed : int;
  mutable rpcs : int;  (* 9P requests the benchmark itself issued *)
}

let new_run () =
  { op = Samples.create (); aux = Samples.create (); detail = Samples.create ();
    attempted = 0; failed = 0; rpcs = 0 }

(* Time [f] in milliseconds of wall clock into [s]. *)
let timed s f =
  let t0 = Prof.now_ns () in
  let v = f () in
  Samples.add s (float_of_int (Prof.now_ns () - t0) /. 1e6);
  v

(* A set-up workload instance. *)
type instance = {
  digest : string;  (* of the generated op sequence *)
  iterate : traced:bool -> run -> unit;
      (* one closed-loop iteration; with [traced], also records regions,
         counters and probes *)
}

(* An end-to-end figure under the name the workload's users know it by:
   (name, which samples, percentile, scale from ms, unit). *)
type named = string * [ `Op | `Aux | `Detail ] * float * float * string

type t = {
  name : string;
  op_name : string;
  aux_name : string;
  named : named list;
  setup : seed:int -> unit -> instance;
      (* applied to the seed: generates the inputs and computes the
         references the checks compare against, once and untimed;
         applied to (): the program's set-up, timed as setup_s *)
}

(* The seed stream of one workload: the same seed gives the same
   inputs. *)
let rng ~seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

(* A seeded permutation of [0, n). *)
let permutation st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The timed filesystem interposed under a bench-built pool: every
   operation of the served tree is a [help_srv.op] region. *)
let help_srv_op = Prof.region "help_srv.op"

let timed_fs (fs : Vfs.filesystem) : Vfs.filesystem =
  let t f = Prof.time help_srv_op f in
  {
    Vfs.fs_stat = (fun p -> t (fun () -> fs.Vfs.fs_stat p));
    fs_open =
      (fun p m ~trunc ->
        let o = t (fun () -> fs.Vfs.fs_open p m ~trunc) in
        {
          Vfs.of_read = (fun ~off ~count -> t (fun () -> o.Vfs.of_read ~off ~count));
          of_write = (fun ~off d -> t (fun () -> o.Vfs.of_write ~off d));
          of_close = (fun () -> t o.Vfs.of_close);
        });
    fs_create = (fun p ~dir -> t (fun () -> fs.Vfs.fs_create p ~dir));
    fs_remove = (fun p -> t (fun () -> fs.Vfs.fs_remove p));
    fs_readdir = (fun p -> t (fun () -> fs.Vfs.fs_readdir p));
  }
