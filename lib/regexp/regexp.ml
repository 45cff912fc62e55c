exception Parse_error of string

type ast =
  | Empty
  | Char of char
  | Any
  | Class of bool * (char * char) list
  | Seq of ast * ast
  | Alt of ast * ast
  | Star of ast
  | Plus of ast
  | Opt of ast
  | Bol
  | Eol

(* ------------------------------------------------------------------ *)
(* Parser: alt := seq ('|' seq)* ; seq := rep* ; rep := atom [*+?]*    *)

let parse pat =
  let n = String.length pat in
  let pos = ref 0 in
  let peek () = if !pos < n then Some pat.[!pos] else None in
  let advance () = incr pos in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at %d in %S" msg !pos pat))
  in
  let parse_escape () =
    advance ();
    match peek () with
    | None -> fail "trailing backslash"
    | Some c ->
        advance ();
        (match c with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | c -> c)
  in
  let parse_class () =
    advance ();
    let negated =
      match peek () with
      | Some '^' ->
          advance ();
          true
      | _ -> false
    in
    let ranges = ref [] in
    let rec loop first =
      match peek () with
      | None -> fail "unterminated class"
      | Some ']' when not first -> advance ()
      | Some c ->
          let lo =
            if c = '\\' then parse_escape ()
            else begin
              advance ();
              c
            end
          in
          let hi =
            match peek () with
            | Some '-' when !pos + 1 < n && pat.[!pos + 1] <> ']' ->
                advance ();
                (match peek () with
                | Some '\\' -> parse_escape ()
                | Some c2 ->
                    advance ();
                    c2
                | None -> fail "unterminated range")
            | _ -> lo
          in
          if hi < lo then fail "inverted range";
          ranges := (lo, hi) :: !ranges;
          loop false
    in
    loop true;
    Class (negated, List.rev !ranges)
  in
  let rec parse_alt () =
    let a = parse_seq () in
    match peek () with
    | Some '|' ->
        advance ();
        Alt (a, parse_alt ())
    | _ -> a
  and parse_seq () =
    let rec loop acc =
      match peek () with
      | None | Some ')' | Some '|' -> acc
      | Some _ ->
          let atom = parse_rep () in
          loop (if acc = Empty then atom else Seq (acc, atom))
    in
    loop Empty
  and parse_rep () =
    let rec post a =
      match peek () with
      | Some '*' ->
          advance ();
          post (Star a)
      | Some '+' ->
          advance ();
          post (Plus a)
      | Some '?' ->
          advance ();
          post (Opt a)
      | _ -> a
    in
    post (parse_atom ())
  and parse_atom () =
    match peek () with
    | None -> fail "expected atom"
    | Some '(' ->
        advance ();
        let a = parse_alt () in
        (match peek () with
        | Some ')' -> advance ()
        | _ -> fail "unmatched (");
        a
    | Some ')' -> fail "unmatched )"
    | Some ('*' | '+' | '?') -> fail "repetition of nothing"
    | Some '[' -> parse_class ()
    | Some '.' ->
        advance ();
        Any
    | Some '^' ->
        advance ();
        Bol
    | Some '$' ->
        advance ();
        Eol
    | Some '\\' -> Char (parse_escape ())
    | Some c ->
        advance ();
        Char c
  in
  let a = parse_alt () in
  if !pos <> n then fail "unexpected character";
  a

(* ------------------------------------------------------------------ *)
(* NFA over a growable state array; T_split slots are patched after
   their body is compiled (for Star/Plus loops).                       *)

type trans =
  | T_char of char * int
  | T_any of int
  | T_class of bool * (char * char) list * int
  | T_bol of int
  | T_eol of int
  | T_split of int * int
  | T_match

(* A lazily built DFA state: the deterministic closure of a kernel of
   raw (pre-epsilon) NFA states at a boundary.  [d_cons]/[d_accept]
   hold the closure under "the next byte is ordinary"; [d_cons_eol]/
   [d_accept_eol] hold what [$] additionally unlocks when the next byte
   is '\n' (end-of-input is handled by the caller at finish).  The
   record is immutable apart from the [d_next] transition cache, so a
   cursor can keep a reference across a cache flush. *)
type dstate = {
  d_kernel : int array;  (* sorted raw NFA state ids; identity key *)
  d_bol : bool;  (* boundary-at-BOL component of the identity *)
  d_cons : int array;  (* consuming states in the closure *)
  d_cons_eol : int array;  (* extra consuming states when next is '\n' *)
  d_accept : bool;
  d_accept_eol : bool;
  d_next : int array;  (* 256 cached transitions, -1 = not computed *)
}

type dfa = {
  mutable df_states : dstate array;
  mutable df_n : int;
  df_tbl : (string, int) Hashtbl.t;  (* kernel key -> state id *)
  df_mark : int array;  (* per NFA state, generation marks for closure *)
  mutable df_gen : int;
  df_has_bol : bool;  (* pattern uses ^; otherwise bol is canonical false *)
  mutable df_flushes : int;
}

type t = {
  pattern : string;
  states : trans array;
  start : int;
  rx_prefix : string;  (* required literal prefix of every match *)
  rx_literal : string;  (* required literal substring of every match *)
  rx_lit_skip : int array;  (* Horspool table for rx_literal; [||] if short *)
  rx_has_bol : bool;
  rx_plain : bool;  (* analysis-free: no prefix, no usable literal *)
  mutable rx_dfa : dfa option;  (* built on demand, shared via the LRU *)
}

let pattern re = re.pattern

(* ------------------------------------------------------------------ *)
(* Compile-time literal analyses for the prefilters.  Soundness is the
   only requirement: [req_prefix] must be a prefix of every match and
   [req_literal] a substring of every match; both may be "".  A
   nonempty required prefix implies the pattern cannot match the empty
   string (only non-nullable atoms contribute), which the skip-ahead
   relies on.                                                          *)

let lcp a b =
  let n = min (String.length a) (String.length b) in
  let i = ref 0 in
  while !i < n && a.[!i] = b.[!i] do
    incr i
  done;
  String.sub a 0 !i

let lit_char = function
  | Char c -> Some c
  | Class (false, [ (lo, hi) ]) when lo = hi -> Some lo
  | _ -> None

(* (prefix, exact): [exact] means the subtree contributes exactly
   [prefix] and nothing after it is cut off, so a Seq may keep
   concatenating the next factor's prefix. *)
let rec req_prefix a =
  match lit_char a with
  | Some c -> (String.make 1 c, true)
  | None -> (
      match a with
      | Empty | Bol | Eol -> ("", true)
      | Char _ -> assert false (* handled by lit_char *)
      | Any | Class _ | Star _ | Opt _ -> ("", false)
      | Seq (x, y) ->
          let px, ex = req_prefix x in
          if ex then
            let py, ey = req_prefix y in
            (px ^ py, ey)
          else (px, false)
      | Alt (x, y) -> (lcp (fst (req_prefix x)) (fst (req_prefix y)), false)
      | Plus x -> (fst (req_prefix x), false))

(* Longest literal run that must appear in every match.  Walks the Seq
   spine accumulating adjacent literal atoms; anything that breaks
   adjacency flushes the run.  [Plus] of a literal [c] guarantees the
   run so far followed by one [c], and (because the last repetition is
   also a [c]) a fresh run starting with [c] adjacent to what follows. *)
let req_literal ast =
  let best = ref "" in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > String.length !best then best := Buffer.contents buf;
    Buffer.clear buf
  in
  let rec walk a =
    match lit_char a with
    | Some c -> Buffer.add_char buf c
    | None -> (
        match a with
        | Empty | Bol | Eol -> ()
        | Seq (x, y) ->
            walk x;
            walk y
        | Plus x -> (
            match lit_char x with
            | Some c ->
                Buffer.add_char buf c;
                flush ();
                Buffer.add_char buf c
            | None ->
                flush ();
                walk x;
                flush ())
        | _ -> flush ())
  in
  walk ast;
  flush ();
  !best

let compile_uncached pat =
  let ast = parse pat in
  let states = ref (Array.make 16 T_match) in
  let count = ref 0 in
  let emit tr =
    if !count = Array.length !states then begin
      let bigger = Array.make (2 * !count) T_match in
      Array.blit !states 0 bigger 0 !count;
      states := bigger
    end;
    !states.(!count) <- tr;
    incr count;
    !count - 1
  in
  let rec go a next =
    (* Compile [a] to continue at state [next]; result is the entry. *)
    match a with
    | Empty -> next
    | Char c -> emit (T_char (c, next))
    | Any -> emit (T_any next)
    | Class (neg, ranges) -> emit (T_class (neg, ranges, next))
    | Bol -> emit (T_bol next)
    | Eol -> emit (T_eol next)
    | Seq (x, y) ->
        let entry_y = go y next in
        go x entry_y
    | Alt (x, y) ->
        let ex = go x next in
        let ey = go y next in
        emit (T_split (ex, ey))
    | Opt x ->
        let ex = go x next in
        emit (T_split (ex, next))
    | Star x ->
        let split_id = emit (T_split (0, 0)) in
        let ex = go x split_id in
        !states.(split_id) <- T_split (ex, next);
        split_id
    | Plus x ->
        let split_id = emit (T_split (0, 0)) in
        let ex = go x split_id in
        !states.(split_id) <- T_split (ex, next);
        ex
  in
  let match_id = emit T_match in
  let start = go ast match_id in
  let states = Array.sub !states 0 !count in
  let prefix = fst (req_prefix ast) in
  let literal =
    let l = req_literal ast in
    if String.length l >= String.length prefix then l else prefix
  in
  (* Horspool bad-character table: when byte [c] ends a mismatching
     window, the window slides by [t.(c)].  Built once per compile so
     the existence prefilter is sublinear on haystacks where the
     literal's bytes are rare — the very case it exists for. *)
  let lit_skip =
    let m = String.length literal in
    if m < 2 then [||]
    else begin
      let t = Array.make 256 m in
      for k = 0 to m - 2 do
        t.(Char.code literal.[k]) <- m - 1 - k
      done;
      t
    end
  in
  let has_bol =
    Array.exists (function T_bol _ -> true | _ -> false) states
  in
  {
    pattern = pat;
    states;
    start;
    rx_prefix = prefix;
    rx_literal = literal;
    rx_lit_skip = lit_skip;
    rx_has_bol = has_bol;
    rx_plain = prefix = "" && String.length literal < 2;
    rx_dfa = None;
  }

(* Compilation memo.  Address evaluation and searches re-compile the
   same handful of patterns on every interaction, so a small LRU pays
   for itself; compiled programs are immutable and safely shared.
   Capacity is bounded so pathological pattern churn cannot hold memory;
   eviction scans the table, which at 64 entries is cheaper than
   maintaining a recency list.  Parse errors escape and are not
   cached. *)
let lru_capacity = 64
let lru_hit = Trace.counter "regexp.compile.hit"
let lru_miss = Trace.counter "regexp.compile.miss"
let lru_tick = ref 0
let lru : (string, t * int ref) Hashtbl.t = Hashtbl.create 64

let compile pat =
  incr lru_tick;
  match Hashtbl.find_opt lru pat with
  | Some (re, stamp) ->
      Trace.incr lru_hit;
      stamp := !lru_tick;
      re
  | None ->
      Trace.incr lru_miss;
      let re = compile_uncached pat in
      if Hashtbl.length lru >= lru_capacity then begin
        let victim =
          Hashtbl.fold
            (fun k (_, s) acc ->
              match acc with
              | Some (_, best) when best <= !s -> acc
              | _ -> Some (k, !s))
            lru None
        in
        match victim with Some (k, _) -> Hashtbl.remove lru k | None -> ()
      end;
      Hashtbl.add lru pat (re, ref !lru_tick);
      re

let in_class c neg ranges =
  let inside = List.exists (fun (lo, hi) -> c >= lo && c <= hi) ranges in
  if neg then not inside else inside

(* ------------------------------------------------------------------ *)
(* Search metrics.  Per-byte [Trace.incr] would dominate the scan, so
   hot loops accumulate into module-level ints and public entry points
   flush them on exit.                                                 *)

let c_dfa_hit = Trace.counter "regexp.dfa.cache_hit"
let c_dfa_miss = Trace.counter "regexp.dfa.cache_miss"
let c_dfa_flush = Trace.counter "regexp.dfa.cache_flush"
let g_dfa_states = Trace.gauge "regexp.dfa.states"
let c_skipped = Trace.counter "regexp.prefilter.skipped_bytes"
let c_bytes = Trace.counter "regexp.search.bytes"
let dfa_live = ref 0
let m_hit = ref 0
let m_miss = ref 0
let m_skip = ref 0
let m_scan = ref 0

let metrics_flush () =
  if !m_hit > 0 then begin
    Trace.incr ~by:!m_hit c_dfa_hit;
    m_hit := 0
  end;
  if !m_miss > 0 then begin
    Trace.incr ~by:!m_miss c_dfa_miss;
    m_miss := 0
  end;
  if !m_skip > 0 then begin
    Trace.incr ~by:!m_skip c_skipped;
    m_skip := 0
  end;
  if !m_scan > 0 then begin
    Trace.incr ~by:!m_scan c_bytes;
    m_scan := 0
  end

(* Literal search without allocation, not even of an option or a
   closure: the line walk calls it once per line.  Local to this module
   so the engine has no dependency on lib/util. *)

(* [s[j + k, j + m)] = [sub[k, m)] *)
let rec tail_eq s j sub k m =
  k >= m
  || String.unsafe_get s (j + k) = String.unsafe_get sub k
     && tail_eq s j sub (k + 1) m

let rec first_from s sub c0 m i limit =
  if i > limit then -1
  else if String.unsafe_get s i = c0 && tail_eq s i sub 1 m then i
  else first_from s sub c0 m (i + 1) limit

(* Horspool: windows slide by the bad-character shift of their last
   byte, which never passes an occurrence, so the first hit is the
   leftmost. *)
let rec horspool s sub m last skip i bound =
  if i + m > bound then -1
  else
    let c = String.unsafe_get s (i + m - 1) in
    if c = last && tail_eq s i sub 0 (m - 1) then i
    else horspool s sub m last skip (i + Array.unsafe_get skip (Char.code c)) bound

(* [find_lit_bounded s from bound sub]: start of the first occurrence
   of [sub] fully inside [from, bound), or -1. *)
let find_lit_bounded s from bound sub =
  let m = String.length sub in
  if m = 0 then from else first_from s sub (String.unsafe_get sub 0) m from (bound - m)

(* [lit_find re s from bound]: start of the leftmost occurrence of the
   required literal fully inside [from, bound), or -1; Horspool with the
   compile-time skip table when there is one. *)
let lit_find re s from bound =
  let sub = re.rx_literal in
  let skip = re.rx_lit_skip in
  if Array.length skip = 0 then find_lit_bounded s from bound sub
  else
    let m = String.length sub in
    horspool s sub m (String.unsafe_get sub (m - 1)) skip from bound

(* [lit_exists re s from bound]: does the required literal occur fully
   inside [from, bound)?  [lit_find], except that a haystack of 4KB or
   more with a skip table is searched on the literal's rarest byte. *)
let lit_exists re s from bound =
  let sub = re.rx_literal in
  let m = String.length sub in
  let skip = re.rx_lit_skip in
  if Array.length skip > 0 && bound - from >= 4096 then begin
    (* On a big haystack, let memchr do the work — but anchored on the
       literal byte that is rarest in the text, judged by sampling the
       first KB.  A literal whose anchor never occurs (the common case
       for a miss) costs one memchr pass regardless of length. *)
    let counts = Array.make 256 0 in
    for i = from to from + 1023 do
      let c = Char.code (String.unsafe_get s i) in
      counts.(c) <- counts.(c) + 1
    done;
    let anchor = ref 0 in
    for k = 1 to m - 1 do
      if counts.(Char.code sub.[k]) < counts.(Char.code sub.[!anchor]) then
        anchor := k
    done;
    let a = !anchor in
    let ca = sub.[a] in
    let rec eq i k = k >= m || (s.[i + k] = sub.[k] && eq i (k + 1)) in
    let rec go i =
      (* i = next haystack index where the anchor byte may sit *)
      i < bound
      &&
      match String.index_from_opt s i ca with
      | None -> false
      | Some j ->
          let st = j - a in
          if st + m > bound then false
          else if st >= from && eq st 0 then true
          else go (j + 1)
    in
    go (from + a)
  end
  else lit_find re s from bound >= 0

(* ------------------------------------------------------------------ *)
(* Layer 1: the one-pass Pike-VM sweep.  Threads are (state, start)
   pairs; the start state is injected at every boundary within the same
   pass, so the whole unanchored search is a single left-to-right scan
   (the old engine restarted the simulation at every byte).  All thread
   sets live in preallocated arrays; the per-step list allocation of
   the old simulator is gone.

   Leftmost-longest comes from two invariants: the raw (pre-closure)
   kernel is always sorted by nondecreasing start label (stepping
   preserves closure order, which follows raw order; the injected
   thread carries the largest label and is appended last), so the
   first-marked-wins dedup in the closure keeps the smallest start for
   every NFA state; and once a match is recorded, threads whose start
   exceeds it are dead (a more-leftmost match always wins, however the
   scan continues). *)

type sweep = {
  sw_re : t;
  sw_mark : int array;  (* per NFA state: generation last added *)
  sw_cons : int array;  (* consuming states of the current closure *)
  sw_slab : int array;  (* parallel start labels for sw_cons *)
  mutable sw_ncons : int;
  sw_raw_st : int array;  (* raw kernel awaiting closure at the boundary *)
  sw_raw_s0 : int array;
  mutable sw_nraw : int;
  mutable sw_gen : int;
  mutable sw_inject : bool;  (* keep injecting the start state? *)
  sw_short : bool;  (* existence only: stop at first accept *)
  mutable sw_best_s : int;  (* -1 = no match yet *)
  mutable sw_best_e : int;
  mutable sw_pos : int;  (* absolute offset of the current boundary *)
  mutable sw_bol : bool;  (* boundary is at beginning-of-line *)
  mutable sw_stop : bool;  (* no further input can change the result *)
}

let sweep_make re ~pos ~bol ~inject ~short =
  let nstates = Array.length re.states in
  let sw =
    {
      sw_re = re;
      sw_mark = Array.make nstates (-1);
      sw_cons = Array.make nstates 0;
      sw_slab = Array.make nstates 0;
      sw_ncons = 0;
      sw_raw_st = Array.make (nstates + 1) 0;
      sw_raw_s0 = Array.make (nstates + 1) 0;
      sw_nraw = 0;
      sw_gen = 0;
      sw_inject = inject;
      sw_short = short;
      sw_best_s = -1;
      sw_best_e = -1;
      sw_pos = pos;
      sw_bol = bol;
      sw_stop = false;
    }
  in
  sw.sw_raw_st.(0) <- re.start;
  sw.sw_raw_s0.(0) <- pos;
  sw.sw_nraw <- 1;
  sw

let rec sweep_close sw ~eol st s0 =
  if
    (sw.sw_best_s < 0 || s0 <= sw.sw_best_s)
    && sw.sw_mark.(st) <> sw.sw_gen
  then begin
    sw.sw_mark.(st) <- sw.sw_gen;
    match sw.sw_re.states.(st) with
    | T_split (a, b) ->
        sweep_close sw ~eol a s0;
        sweep_close sw ~eol b s0
    | T_bol next -> if sw.sw_bol then sweep_close sw ~eol next s0
    | T_eol next -> if eol then sweep_close sw ~eol next s0
    | T_match ->
        if
          sw.sw_best_s < 0 || s0 < sw.sw_best_s
          || (s0 = sw.sw_best_s && sw.sw_pos > sw.sw_best_e)
        then begin
          sw.sw_best_s <- s0;
          sw.sw_best_e <- sw.sw_pos;
          sw.sw_inject <- false
        end
    | T_char _ | T_any _ | T_class _ ->
        sw.sw_cons.(sw.sw_ncons) <- st;
        sw.sw_slab.(sw.sw_ncons) <- s0;
        sw.sw_ncons <- sw.sw_ncons + 1
  end

(* Close the raw kernel at the current boundary against the upcoming
   byte [c], then step the consuming states over [c] into the next raw
   kernel and advance the boundary. *)
let sweep_feed_byte sw c =
  let re = sw.sw_re in
  sw.sw_gen <- sw.sw_gen + 1;
  sw.sw_ncons <- 0;
  let eol = c = '\n' in
  for k = 0 to sw.sw_nraw - 1 do
    sweep_close sw ~eol sw.sw_raw_st.(k) sw.sw_raw_s0.(k)
  done;
  if sw.sw_short && sw.sw_best_s >= 0 then sw.sw_stop <- true
  else begin
    sw.sw_nraw <- 0;
    for k = 0 to sw.sw_ncons - 1 do
      let st = sw.sw_cons.(k) in
      let s0 = sw.sw_slab.(k) in
      if sw.sw_best_s < 0 || s0 <= sw.sw_best_s then begin
        let target =
          match re.states.(st) with
          | T_char (c', next) -> if c = c' then next else -1
          | T_any next -> next
          | T_class (neg, ranges, next) ->
              if in_class c neg ranges then next else -1
          | T_bol _ | T_eol _ | T_split _ | T_match -> -1
        in
        if target >= 0 then begin
          sw.sw_raw_st.(sw.sw_nraw) <- target;
          sw.sw_raw_s0.(sw.sw_nraw) <- s0;
          sw.sw_nraw <- sw.sw_nraw + 1
        end
      end
    done;
    sw.sw_pos <- sw.sw_pos + 1;
    sw.sw_bol <- eol;
    if sw.sw_inject then begin
      sw.sw_raw_st.(sw.sw_nraw) <- re.start;
      sw.sw_raw_s0.(sw.sw_nraw) <- sw.sw_pos;
      sw.sw_nraw <- sw.sw_nraw + 1
    end;
    if sw.sw_nraw = 0 then sw.sw_stop <- true
  end

(* Feed [s[off, off+len)].  When only the freshly injected start thread
   is live (no partial match in progress) and the pattern has a
   required prefix, jump straight to its next occurrence; a nonempty
   required prefix implies no empty match, so the skipped positions
   cannot start a match.  The jump is bounded by the chunk: if the
   prefix is absent we still re-enter at the last [plen-1] bytes so an
   occurrence straddling into the next chunk is consumed normally. *)
let sweep_feed sw s ~off ~len ~prefix =
  let stop_at = off + len in
  let plen = String.length prefix in
  let re = sw.sw_re in
  let i = ref off in
  let skipped = ref 0 in
  while (not sw.sw_stop) && !i < stop_at do
    if
      plen > 0 && sw.sw_inject && sw.sw_best_s < 0 && sw.sw_nraw = 1
      && sw.sw_raw_st.(0) = re.start
    then begin
      let j =
        match find_lit_bounded s !i stop_at prefix with
        | -1 -> max !i (stop_at - plen + 1)
        | j -> j
      in
      if j > !i then begin
        skipped := !skipped + (j - !i);
        sw.sw_pos <- sw.sw_pos + (j - !i);
        sw.sw_raw_s0.(0) <- sw.sw_pos;
        sw.sw_bol <- s.[j - 1] = '\n';
        i := j
      end
    end;
    if (not sw.sw_stop) && !i < stop_at then begin
      sweep_feed_byte sw s.[!i];
      incr i
    end
  done;
  m_skip := !m_skip + !skipped;
  m_scan := !m_scan + (!i - off - !skipped)

(* End of input: one last closure where [$] holds. *)
let sweep_finish sw =
  if not sw.sw_stop then begin
    sw.sw_gen <- sw.sw_gen + 1;
    sw.sw_ncons <- 0;
    for k = 0 to sw.sw_nraw - 1 do
      sweep_close sw ~eol:true sw.sw_raw_st.(k) sw.sw_raw_s0.(k)
    done;
    sw.sw_nraw <- 0;
    sw.sw_stop <- true
  end;
  if sw.sw_best_s >= 0 then Some (sw.sw_best_s, sw.sw_best_e) else None

(* ------------------------------------------------------------------ *)
(* Layer 2: the lazy DFA.  Deterministic states are interned by their
   raw kernel (always including the injected start state, so the scan
   is unanchored) plus the boundary's BOL flag; transitions are built
   on first use and memoized in [d_next].  The cache is bounded: when
   full it is flushed wholesale (RE2-style) and rebuilding starts from
   the two start states.  The DFA answers existence only — leftmost-
   longest extraction is unsound on a forward DFA (consider [a|bc] on
   "abc") — so [search] uses it as a fast pre-pass and the sweep for
   exact spans. *)

let dfa_capacity = ref 256
let set_dfa_capacity n = dfa_capacity := max 8 n

let dummy_dstate =
  {
    d_kernel = [||];
    d_bol = false;
    d_cons = [||];
    d_cons_eol = [||];
    d_accept = false;
    d_accept_eol = false;
    d_next = [||];
  }

let dfa_key kernel bol =
  let n = Array.length kernel in
  let b = Bytes.create (1 + (2 * n)) in
  Bytes.set b 0 (if bol then '\001' else '\000');
  for i = 0 to n - 1 do
    let v = kernel.(i) in
    Bytes.set b (1 + (2 * i)) (Char.chr (v land 0xff));
    Bytes.set b (2 + (2 * i)) (Char.chr ((v lsr 8) land 0xff))
  done;
  Bytes.unsafe_to_string b

(* Find or build the deterministic state for [kernel]/[bol].  The
   closure is two-phase: phase one assumes the next byte is ordinary
   and parks [$]-gated continuations; phase two expands them with the
   same generation marks, so [d_cons_eol]/[d_accept_eol] record only
   what '\n' (or end of input) adds. *)
let dfa_intern re df kernel bol =
  let key = dfa_key kernel bol in
  match Hashtbl.find_opt df.df_tbl key with
  | Some id -> id
  | None ->
      let cons = ref [] in
      let cons_eol = ref [] in
      let accept = ref false in
      let accept_eol = ref false in
      let pending = ref [] in
      df.df_gen <- df.df_gen + 1;
      let gen = df.df_gen in
      let rec close eol st =
        if df.df_mark.(st) <> gen then begin
          df.df_mark.(st) <- gen;
          match re.states.(st) with
          | T_split (a, b) ->
              close eol a;
              close eol b
          | T_bol next -> if bol then close eol next
          | T_eol next ->
              if eol then close eol next else pending := next :: !pending
          | T_match -> if eol then accept_eol := true else accept := true
          | T_char _ | T_any _ | T_class _ ->
              if eol then cons_eol := st :: !cons_eol else cons := st :: !cons
        end
      in
      Array.iter (fun st -> close false st) kernel;
      let pend = !pending in
      List.iter (fun st -> close true st) pend;
      let d =
        {
          d_kernel = kernel;
          d_bol = bol;
          d_cons = Array.of_list (List.rev !cons);
          d_cons_eol = Array.of_list (List.rev !cons_eol);
          d_accept = !accept;
          d_accept_eol = !accept_eol;
          d_next = Array.make 256 (-1);
        }
      in
      if df.df_n = Array.length df.df_states then begin
        let bigger = Array.make (max 8 (2 * df.df_n)) dummy_dstate in
        Array.blit df.df_states 0 bigger 0 df.df_n;
        df.df_states <- bigger
      end;
      let id = df.df_n in
      df.df_states.(id) <- d;
      df.df_n <- id + 1;
      Hashtbl.add df.df_tbl key id;
      incr dfa_live;
      Trace.set_gauge g_dfa_states !dfa_live;
      id

(* Drop every cached state and re-intern the start states, which land
   at ids 0 (bol=false) and, when the pattern uses ^, 1 (bol=true). *)
let dfa_flush re df =
  Hashtbl.reset df.df_tbl;
  dfa_live := !dfa_live - df.df_n;
  Trace.set_gauge g_dfa_states !dfa_live;
  df.df_n <- 0;
  df.df_flushes <- df.df_flushes + 1;
  Trace.incr c_dfa_flush;
  ignore (dfa_intern re df [| re.start |] false);
  if df.df_has_bol then ignore (dfa_intern re df [| re.start |] true)

let dfa_get re =
  match re.rx_dfa with
  | Some df -> Some df
  | None ->
      let nstates = Array.length re.states in
      if nstates >= 0x10000 then None (* kernel key packs ids in 2 bytes *)
      else begin
        let df =
          {
            df_states = Array.make 16 dummy_dstate;
            df_n = 0;
            df_tbl = Hashtbl.create 64;
            df_mark = Array.make nstates 0;
            df_gen = 0;
            df_has_bol = re.rx_has_bol;
            df_flushes = 0;
          }
        in
        ignore (dfa_intern re df [| re.start |] false);
        if df.df_has_bol then ignore (dfa_intern re df [| re.start |] true);
        re.rx_dfa <- Some df;
        Some df
      end

let dfa_start df ~bol = if df.df_has_bol && bol then 1 else 0

(* Take the transition from state [id] on byte [c], building (and
   caching) it on first use.  May flush the cache when full; a
   transition computed during the step that flushed must not be cached
   into the now-stale source record. *)
let dfa_step re df id c =
  let st = df.df_states.(id) in
  let acc = ref [ re.start ] in
  let step_one s =
    match re.states.(s) with
    | T_char (c', next) -> if c = c' then acc := next :: !acc
    | T_any next -> acc := next :: !acc
    | T_class (neg, ranges, next) ->
        if in_class c neg ranges then acc := next :: !acc
    | T_bol _ | T_eol _ | T_split _ | T_match -> ()
  in
  Array.iter step_one st.d_cons;
  if c = '\n' then Array.iter step_one st.d_cons_eol;
  let kernel = Array.of_list (List.sort_uniq compare !acc) in
  let bol' = df.df_has_bol && c = '\n' in
  let key = dfa_key kernel bol' in
  match Hashtbl.find_opt df.df_tbl key with
  | Some id' ->
      st.d_next.(Char.code c) <- id';
      id'
  | None ->
      let flushed = df.df_n >= !dfa_capacity in
      if flushed then dfa_flush re df;
      let id' = dfa_intern re df kernel bol' in
      if not flushed then st.d_next.(Char.code c) <- id';
      id'

let dfa_state_count re =
  match re.rx_dfa with Some df -> df.df_n | None -> 0

let dfa_flush_count re =
  match re.rx_dfa with Some df -> df.df_flushes | None -> 0

(* ------------------------------------------------------------------ *)
(* Layer 3a: streaming existence scan over the DFA (module Scan).  A
   cursor survives cache flushes triggered by other users of the same
   compiled pattern: it holds the immutable dstate record and
   re-interns its kernel when the flush count moved.  If a single feed
   thrashes the cache (more than a few flushes) the cursor degrades to
   a short-circuit NFA sweep seeded with the current kernel.           *)

type scan_cursor = {
  sc_re : t;
  sc_df : dfa option;
  mutable sc_id : int;
  mutable sc_state : dstate;
  mutable sc_flushes : int;
  mutable sc_bol : bool;
  mutable sc_matched : bool;
  mutable sc_fb : sweep option;  (* fallback sweep once DFA is abandoned *)
}

(* An existence sweep resuming from a DFA state's [kernel].  Existence
   only, so the start labels of the seeded threads are irrelevant;
   every interned kernel already contains the start state, and
   injection keeps the scan unanchored. *)
let sweep_of_kernel re kernel ~bol =
  let sw = sweep_make re ~pos:0 ~bol ~inject:true ~short:true in
  sw.sw_nraw <- 0;
  Array.iter
    (fun st ->
      sw.sw_raw_st.(sw.sw_nraw) <- st;
      sw.sw_raw_s0.(sw.sw_nraw) <- 0;
      sw.sw_nraw <- sw.sw_nraw + 1)
    kernel;
  sw

let scan_fallback sc kernel =
  sc.sc_fb <- Some (sweep_of_kernel sc.sc_re kernel ~bol:sc.sc_bol)

module Scan = struct
  type cursor = scan_cursor

  let create ?(bol = true) re =
    let df = dfa_get re in
    let sc =
      {
        sc_re = re;
        sc_df = df;
        sc_id = 0;
        sc_state = dummy_dstate;
        sc_flushes = 0;
        sc_bol = bol;
        sc_matched = false;
        sc_fb = None;
      }
    in
    (match df with
    | Some df ->
        sc.sc_id <- dfa_start df ~bol;
        sc.sc_state <- df.df_states.(sc.sc_id);
        sc.sc_flushes <- df.df_flushes
    | None -> scan_fallback sc [| re.start |]);
    sc

  let feed_fallback sc s ~pos ~len =
    match sc.sc_fb with
    | Some sw ->
        if not sw.sw_stop then
          sweep_feed sw s ~off:pos ~len ~prefix:sc.sc_re.rx_prefix;
        if sw.sw_best_s >= 0 then sc.sc_matched <- true
    | None -> ()

  let feed sc s ~pos ~len =
    if pos < 0 || len < 0 || pos + len > String.length s then
      invalid_arg "Regexp.Scan.feed";
    (if not sc.sc_matched then
       match (sc.sc_fb, sc.sc_df) with
       | Some _, _ -> feed_fallback sc s ~pos ~len
       | None, None -> assert false (* create installs one of the two *)
       | None, Some df ->
           let re = sc.sc_re in
           if df.df_flushes <> sc.sc_flushes then begin
             (* someone else flushed the cache under us; the held record
                is immutable, so re-intern its kernel *)
             sc.sc_id <- dfa_intern re df sc.sc_state.d_kernel sc.sc_state.d_bol;
             sc.sc_state <- df.df_states.(sc.sc_id);
             sc.sc_flushes <- df.df_flushes
           end;
           let budget = df.df_flushes + 3 in
           let stop_at = pos + len in
           let prefix = re.rx_prefix in
           let plen = String.length prefix in
           let i = ref pos in
           let skipped = ref 0 in
           (try
              while !i < stop_at do
                (* From a start state (no progress) jump to the next
                   possible occurrence of the required prefix; start
                   states never accept when the prefix is nonempty. *)
                if
                  plen > 0
                  && (sc.sc_id = 0 || (df.df_has_bol && sc.sc_id = 1))
                then begin
                  let j =
                    match find_lit_bounded s !i stop_at prefix with
                    | -1 -> max !i (stop_at - plen + 1)
                    | j -> j
                  in
                  if j > !i then begin
                    skipped := !skipped + (j - !i);
                    sc.sc_bol <- s.[j - 1] = '\n';
                    sc.sc_id <- dfa_start df ~bol:sc.sc_bol;
                    sc.sc_state <- df.df_states.(sc.sc_id);
                    i := j;
                    if !i >= stop_at then raise Exit
                  end
                end;
                let c = s.[!i] in
                let st = sc.sc_state in
                if st.d_accept || (st.d_accept_eol && c = '\n') then begin
                  sc.sc_matched <- true;
                  raise Exit
                end;
                let cc = Char.code c in
                let cached = st.d_next.(cc) in
                let nid =
                  if cached >= 0 then begin
                    m_hit := !m_hit + 1;
                    cached
                  end
                  else begin
                    m_miss := !m_miss + 1;
                    let id' = dfa_step re df sc.sc_id c in
                    sc.sc_flushes <- df.df_flushes;
                    id'
                  end
                in
                sc.sc_id <- nid;
                sc.sc_state <- df.df_states.(nid);
                sc.sc_bol <- df.df_has_bol && c = '\n';
                incr i;
                if df.df_flushes > budget then begin
                  (* cache thrash: finish this feed on the NFA sweep *)
                  scan_fallback sc sc.sc_state.d_kernel;
                  raise Exit
                end
              done
            with Exit -> ());
           m_skip := !m_skip + !skipped;
           m_scan := !m_scan + (!i - pos - !skipped);
           if (not sc.sc_matched) && sc.sc_fb <> None && !i < stop_at then
             feed_fallback sc s ~pos:!i ~len:(stop_at - !i));
    metrics_flush ();
    sc.sc_matched

  let finish sc =
    (if not sc.sc_matched then
       match sc.sc_fb with
       | Some sw -> if sweep_finish sw <> None then sc.sc_matched <- true
       | None ->
           let st = sc.sc_state in
           if st.d_accept || st.d_accept_eol then sc.sc_matched <- true);
    metrics_flush ();
    sc.sc_matched
end

(* ------------------------------------------------------------------ *)
(* Layer 3b: streaming exact search (module Stream) — the sweep fed one
   chunk at a time, for callers that iterate a rope without flattening
   it.  [finish] treats the current boundary as end of input, so feed
   everything before calling it (unless [definite] already holds).     *)

module Stream = struct
  type cursor = {
    cu_sw : sweep;
    cu_prefix : string;
    mutable cu_done : bool;
    mutable cu_res : (int * int) option;
  }

  let create ?(pos = 0) ?bol re =
    if pos < 0 then invalid_arg "Regexp.Stream.create";
    let bol = match bol with Some b -> b | None -> pos = 0 in
    {
      cu_sw = sweep_make re ~pos ~bol ~inject:true ~short:false;
      cu_prefix = re.rx_prefix;
      cu_done = false;
      cu_res = None;
    }

  let feed cu s ~pos ~len =
    if pos < 0 || len < 0 || pos + len > String.length s then
      invalid_arg "Regexp.Stream.feed";
    if not (cu.cu_done || cu.cu_sw.sw_stop) then begin
      sweep_feed cu.cu_sw s ~off:pos ~len ~prefix:cu.cu_prefix;
      metrics_flush ()
    end

  let matched cu =
    if cu.cu_done then cu.cu_res
    else if cu.cu_sw.sw_best_s >= 0 then
      Some (cu.cu_sw.sw_best_s, cu.cu_sw.sw_best_e)
    else None

  let definite cu = cu.cu_done || cu.cu_sw.sw_stop

  let finish cu =
    if not cu.cu_done then begin
      cu.cu_res <- sweep_finish cu.cu_sw;
      cu.cu_done <- true;
      metrics_flush ()
    end;
    cu.cu_res
end

(* ------------------------------------------------------------------ *)
(* Layer 3c: the line walk.  A line is what grep prints: the buffer is
   split on '\n', a trailing newline ends the last line, and an empty
   buffer has no lines.  Each line is decided where it lies, exactly as
   [matches] decides it on a copy: the required literal is searched
   across the whole buffer, so lines it never reaches cost only the
   scan for their '\n'; a line the literal reaches runs the DFA from
   the bol start state at its first byte and stops at its '\n'.  The
   DFA never steps over the '\n' itself: the state at a line's end is
   judged with [$] holding (d_accept || d_accept_eol), and the next
   line starts afresh, so no match and no [^] can span two lines.
   Counters accumulate in locals and module refs and are flushed once
   per call.                                                           *)

(* Offset of the '\n' ending the line that starts at [i], or [n]. *)
let rec line_end s i n =
  if i < n && String.unsafe_get s i <> '\n' then line_end s (i + 1) n else i

(* Existence of a match in the line [s[off, stop)] on the NFA sweep,
   resuming from [kernel]: Scan's fallback when the DFA thrashes. *)
let sweep_line re kernel ~bol s off stop =
  let sw = sweep_of_kernel re kernel ~bol in
  sweep_feed sw s ~off ~len:(stop - off) ~prefix:re.rx_prefix;
  sweep_finish sw <> None

(* Step along [s[j, stop)] on cached transitions from state [id], and
   stop at an accepting state, at [stop] or at a transition not built
   yet; return where, leaving the state in [walk_state].  The hot loop
   of the walk: nothing but the state and the offset changes in it. *)
let walk_state = ref 0

let rec dfa_run states s stop id j =
  let st = Array.unsafe_get states id in
  if st.d_accept || j >= stop then begin
    walk_state := id;
    j
  end
  else
    let next = Array.unsafe_get st.d_next (Char.code (String.unsafe_get s j)) in
    if next < 0 then begin
      walk_state := id;
      j
    end
    else dfa_run states s stop next (j + 1)

(* Decide the line [s[i, stop)] on the DFA.  The result's bit 0 is the
   verdict; bit 1 says the cache flushed more than [budget] times in
   all, in which case the rest of the line was decided on the sweep
   from the current kernel and the caller keeps to the sweep.  With a
   required prefix the DFA starts at the prefix's first occurrence in
   the line, as Scan.feed jumps; with none the line cannot match, since
   a nonempty prefix means no empty match.  Every byte stepped is a
   cache hit or a miss. *)
let dfa_line re df s i stop budget =
  let prefix = re.rx_prefix in
  let from = if String.length prefix = 0 then i else find_lit_bounded s i stop prefix in
  if from < 0 then begin
    m_skip := !m_skip + (stop - i);
    0
  end
  else begin
    let id = ref (dfa_start df ~bol:(from = i)) in
    let j = ref from and misses = ref 0 and result = ref (-1) in
    while !result < 0 do
      j := dfa_run df.df_states s stop !id !j;
      id := !walk_state;
      let st = df.df_states.(!id) in
      if st.d_accept || !j >= stop then
        result := if st.d_accept || st.d_accept_eol then 1 else 0
      else begin
        incr misses;
        id := dfa_step re df !id (String.unsafe_get s !j);
        incr j;
        if df.df_flushes > budget then
          result :=
            if sweep_line re df.df_states.(!id).d_kernel ~bol:false s !j stop
            then 3
            else 2
      end
    done;
    m_skip := !m_skip + (from - i);
    m_scan := !m_scan + (!j - from);
    m_miss := !m_miss + !misses;
    m_hit := !m_hit + (!j - from - !misses);
    !result
  end

let iter_lines ~invert re s f =
  let n = String.length s in
  let m = String.length re.rx_literal in
  let df = dfa_get re in
  let budget = match df with Some df -> df.df_flushes + 3 | None -> 0 in
  let on_sweep = ref (df = None) in
  let start = [| re.start |] in
  (* leftmost occurrence of the literal at or after the last line that
     needed one, or -1 when there is none *)
  let next = ref (if m > 0 then lit_find re s 0 n else 0) in
  let pos = ref 0 and line = ref 1 in
  while !pos < n do
    let i = !pos in
    if m > 0 && !next < 0 && not invert then begin
      (* the literal occurs nowhere further on: no line left matches *)
      m_skip := !m_skip + (n - i);
      pos := n
    end
    else begin
      let eol = line_end s i n in
      if m > 0 && !next >= 0 && !next < i then next := lit_find re s i n;
      let hit =
        if m > 0 && (!next < 0 || !next + m > eol) then begin
          m_skip := !m_skip + (eol - i);
          false
        end
        else
          match df with
          | Some df when not !on_sweep ->
              let r = dfa_line re df s i eol budget in
              if r >= 2 then on_sweep := true;
              r land 1 = 1
          | _ -> sweep_line re start ~bol:true s i eol
      in
      if hit <> invert then f !line i eol;
      pos := eol + 1;
      incr line
    end
  done;
  metrics_flush ()

(* ------------------------------------------------------------------ *)
(* Public entry points: literal prefilter, then DFA existence, then the
   sweep for exact spans.                                              *)

let bol_at s pos = pos = 0 || s.[pos - 1] = '\n'

let match_at re s pos =
  let n = String.length s in
  if pos < 0 || pos > n then invalid_arg "Regexp.match_at";
  let sw = sweep_make re ~pos ~bol:(bol_at s pos) ~inject:false ~short:false in
  sweep_feed sw s ~off:pos ~len:(n - pos) ~prefix:"";
  let r = sweep_finish sw in
  metrics_flush ();
  match r with Some (_, e) -> Some e | None -> None

(* Pure NFA-sweep search, no DFA and no prefilter: the triangulation
   reference for the property tests, and the exact layer underneath
   [search]. *)
let search_nfa re s pos =
  let n = String.length s in
  let pos = max 0 pos in
  if pos > n then None
  else begin
    let sw = sweep_make re ~pos ~bol:(bol_at s pos) ~inject:true ~short:false in
    sweep_feed sw s ~off:pos ~len:(n - pos) ~prefix:"";
    let r = sweep_finish sw in
    metrics_flush ();
    r
  end

let sweep_search re s pos =
  let n = String.length s in
  let sw = sweep_make re ~pos ~bol:(bol_at s pos) ~inject:true ~short:false in
  sweep_feed sw s ~off:pos ~len:(n - pos) ~prefix:re.rx_prefix;
  sweep_finish sw

let scan_string re s pos =
  let n = String.length s in
  let sc = Scan.create ~bol:(bol_at s pos) re in
  if Scan.feed sc s ~pos ~len:(n - pos) then true else Scan.finish sc

let search re s pos =
  let n = String.length s in
  let pos = max 0 pos in
  if pos > n then None
  else begin
    let r =
      if
        re.rx_literal <> "" && re.rx_literal <> re.rx_prefix
        && not (lit_exists re s pos n)
      then begin
        (* the literal must appear somewhere inside a match; it is at
           least as long as the prefix, so test it first *)
        m_skip := !m_skip + (n - pos);
        None
      end
      else if re.rx_prefix <> "" then
        (* every match starts with the prefix: jump to its first
           occurrence, or give up if there is none *)
        match find_lit_bounded s pos n re.rx_prefix with
        | -1 ->
            m_skip := !m_skip + (n - pos);
            None
        | j ->
            m_skip := !m_skip + (j - pos);
            if scan_string re s j then sweep_search re s j else None
      else if re.rx_plain then
        (* the analyses produced nothing to prune with: an existence
           pre-pass over the DFA would only rescan what the one-pass
           sweep is about to scan anyway, so go straight to the sweep *)
        sweep_search re s pos
      else if scan_string re s pos then sweep_search re s pos
      else None
    in
    metrics_flush ();
    r
  end

let matches re s =
  let n = String.length s in
  let r =
    if re.rx_literal <> "" && not (lit_exists re s 0 n) then begin
      m_skip := !m_skip + n;
      false
    end
    else scan_string re s 0
  in
  metrics_flush ();
  r

let search_all re s =
  let n = String.length s in
  let rec loop pos acc =
    if pos > n then List.rev acc
    else
      match search re s pos with
      | None -> List.rev acc
      | Some (a, b) ->
          let next = if b > a then b else a + 1 in
          loop next ((a, b) :: acc)
  in
  loop 0 []

let required_prefix re = re.rx_prefix
let required_literal re = re.rx_literal
