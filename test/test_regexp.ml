(* Regexp: unit tests of the dialect plus a qcheck comparison against a
   reference backtracking matcher over randomly generated small
   patterns. *)

let check_bool = Alcotest.(check bool)

let matches pat s = Regexp.matches (Regexp.compile pat) s

let search pat s = Regexp.search (Regexp.compile pat) s 0

let unit_tests =
  [
    Alcotest.test_case "literal" `Quick (fun () ->
        check_bool "hit" true (matches "abc" "xxabcxx");
        check_bool "miss" false (matches "abc" "ab c"));
    Alcotest.test_case "dot" `Quick (fun () ->
        check_bool "any" true (matches "a.c" "abc");
        check_bool "not newline-restricted" true (matches "a.c" "a\nc"));
    Alcotest.test_case "star" `Quick (fun () ->
        check_bool "zero" true (matches "ab*c" "ac");
        check_bool "many" true (matches "ab*c" "abbbbc"));
    Alcotest.test_case "plus" `Quick (fun () ->
        check_bool "zero fails" false (matches "^ab+c$" "ac");
        check_bool "one" true (matches "ab+c" "abc"));
    Alcotest.test_case "opt" `Quick (fun () ->
        check_bool "with" true (matches "^ab?c$" "abc");
        check_bool "without" true (matches "^ab?c$" "ac"));
    Alcotest.test_case "alternation" `Quick (fun () ->
        check_bool "left" true (matches "^(cat|dog)$" "cat");
        check_bool "right" true (matches "^(cat|dog)$" "dog");
        check_bool "neither" false (matches "^(cat|dog)$" "cow"));
    Alcotest.test_case "classes" `Quick (fun () ->
        check_bool "range" true (matches "^[a-z]+$" "abc");
        check_bool "negated" true (matches "^[^0-9]+$" "abc");
        check_bool "negated miss" false (matches "^[^0-9]+$" "ab1");
        check_bool "multi-range" true (matches "^[a-zA-Z_][a-zA-Z0-9_]*$" "Xdie2"));
    Alcotest.test_case "anchors" `Quick (fun () ->
        check_bool "bol" true (matches "^abc" "abcdef");
        check_bool "bol miss" false (matches "^bcd" "abcdef");
        check_bool "eol" true (matches "def$" "abcdef");
        check_bool "line-internal anchors" true (matches "^second$" "first\nsecond\nthird"));
    Alcotest.test_case "escapes" `Quick (fun () ->
        check_bool "dot" true (matches "a\\.c" "a.c");
        check_bool "dot literal" false (matches "a\\.c" "abc");
        check_bool "star" true (matches "a\\*" "a*");
        check_bool "tab" true (matches "a\\tb" "a\tb"));
    Alcotest.test_case "leftmost-longest search" `Quick (fun () ->
        Alcotest.(check (option (pair int int)))
          "leftmost" (Some (2, 5)) (search "ab+" "xxabbyabbb");
        Alcotest.(check (option (pair int int)))
          "longest at position" (Some (0, 4)) (search "a*" "aaaab"));
    Alcotest.test_case "search_all non-overlapping" `Quick (fun () ->
        let re = Regexp.compile "ab" in
        Alcotest.(check int) "three" 3 (List.length (Regexp.search_all re "ababxab")));
    Alcotest.test_case "empty-match progress" `Quick (fun () ->
        (* a pattern matching empty must not loop forever *)
        let re = Regexp.compile "x*" in
        check_bool "terminates" true (List.length (Regexp.search_all re "aaa") > 0));
    Alcotest.test_case "parse errors" `Quick (fun () ->
        let bad p =
          match Regexp.compile p with
          | exception Regexp.Parse_error _ -> true
          | _ -> false
        in
        check_bool "unmatched paren" true (bad "(ab");
        check_bool "stray close" true (bad "ab)");
        check_bool "leading star" true (bad "*ab");
        check_bool "unterminated class" true (bad "[ab");
        check_bool "trailing backslash" true (bad "ab\\"));
    Alcotest.test_case "paper patterns" `Quick (fun () ->
        (* the grep of the worked example *)
        check_bool "main" true (matches "main" "void\nmain(int argc, char *argv[])");
        check_bool "file:line shape" true
          (matches "^[a-z./]+\\.c:[0-9]+$" "exec.c:213"));
  ]

(* Reference matcher: naive backtracking over the same AST. *)
let rec ref_match_here ast s i k =
  match ast with
  | Regexp.Empty -> k i
  | Regexp.Char c -> i < String.length s && s.[i] = c && k (i + 1)
  | Regexp.Any -> i < String.length s && k (i + 1)
  | Regexp.Class (neg, ranges) ->
      i < String.length s
      && (let inside = List.exists (fun (lo, hi) -> s.[i] >= lo && s.[i] <= hi) ranges in
          if neg then not inside else inside)
      && k (i + 1)
  | Regexp.Seq (a, b) -> ref_match_here a s i (fun j -> ref_match_here b s j k)
  | Regexp.Alt (a, b) -> ref_match_here a s i k || ref_match_here b s i k
  | Regexp.Opt a -> ref_match_here a s i k || k i
  | Regexp.Star a ->
      let rec star i depth =
        k i
        || (depth < 50
           && ref_match_here a s i (fun j -> j > i && star j (depth + 1)))
      in
      star i 0
  | Regexp.Plus a -> ref_match_here a s i (fun j -> ref_match_here (Regexp.Star a) s j k)
  | Regexp.Bol -> (i = 0 || s.[i - 1] = '\n') && k i
  | Regexp.Eol -> (i = String.length s || s.[i] = '\n') && k i

let ref_matches pat s =
  let ast = Regexp.parse pat in
  let n = String.length s in
  let rec try_at i =
    i <= n && (ref_match_here ast s i (fun _ -> true) || try_at (i + 1))
  in
  try_at 0

(* Leftmost-longest reference search: first position with any match
   (the old engine's restart loop), longest end there (enumerated by
   making the continuation refuse, which forces full backtracking). *)
let ref_search pat s pos =
  let ast = Regexp.parse pat in
  let n = String.length s in
  let rec try_at i =
    if i > n then None
    else begin
      let best = ref (-1) in
      ignore
        (ref_match_here ast s i (fun j ->
             if j > !best then best := j;
             false));
      if !best >= 0 then Some (i, !best) else try_at (i + 1)
    end
  in
  try_at (max 0 pos)

(* small random patterns built from a safe grammar *)
let pattern_gen =
  let open QCheck.Gen in
  let atom =
    oneof
      [ map (String.make 1) (map Char.chr (int_range 97 100));
        return "."; return "[ab]"; return "[^a]"; return "a"; return "b" ]
  in
  let rep a = oneof [ return a; map (fun a -> a ^ "*") (return a);
                      map (fun a -> a ^ "?") (return a);
                      map (fun a -> a ^ "+") (return a) ] in
  let seq = list_size (int_range 1 4) (atom >>= rep) >|= String.concat "" in
  oneof [ seq; map2 (fun a b -> "(" ^ a ^ "|" ^ b ^ ")") seq seq ]

let input_gen = QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 97 100)) (int_range 0 12))

let prop_vs_reference =
  QCheck.Test.make ~name:"NFA agrees with backtracking reference" ~count:1000
    (QCheck.make ~print:(fun (p, s) -> Printf.sprintf "pat=%S input=%S" p s)
       (QCheck.Gen.pair pattern_gen input_gen))
    (fun (pat, s) ->
      match Regexp.compile pat with
      | exception Regexp.Parse_error _ -> QCheck.assume_fail ()
      | re -> Regexp.matches re s = ref_matches pat s)

let prop_search_bounds =
  QCheck.Test.make ~name:"search returns in-bounds leftmost ranges" ~count:500
    (QCheck.make ~print:(fun (p, s) -> Printf.sprintf "pat=%S input=%S" p s)
       (QCheck.Gen.pair pattern_gen input_gen))
    (fun (pat, s) ->
      match Regexp.compile pat with
      | exception Regexp.Parse_error _ -> QCheck.assume_fail ()
      | re -> (
          match Regexp.search re s 0 with
          | None -> true
          | Some (a, b) -> 0 <= a && a <= b && b <= String.length s))

(* Wider generators for the cross-engine properties: optional anchors
   and newline-bearing haystacks, so ^/$ and the DFA's bol/eol handling
   are exercised. *)
let pattern_gen2 =
  QCheck.Gen.map3
    (fun bol core eol ->
      (if bol then "^" else "") ^ core ^ if eol then "$" else "")
    QCheck.Gen.bool pattern_gen QCheck.Gen.bool

let input_gen2 =
  QCheck.Gen.(
    string_size
      ~gen:(frequency [ (5, map Char.chr (int_range 97 100)); (1, return '\n') ])
      (int_range 0 14))

let cross_arb =
  QCheck.make
    ~print:(fun (p, s) -> Printf.sprintf "pat=%S input=%S" p s)
    (QCheck.Gen.pair pattern_gen2 input_gen2)

let show_r = function None -> "None" | Some (a, b) -> Printf.sprintf "(%d,%d)" a b

(* Every engine's span for [re] on [s] from [pos]: the full pipeline
   (prefilter + DFA + sweep), the plain NFA sweep, the rope-streaming
   path and, from 0, a byte-at-a-time Stream. *)
let engine_spans re s pos =
  [
    ("search", Regexp.search re s pos);
    ("search_nfa", Regexp.search_nfa re s pos);
    ("rope", Hsearch.search_rope re (Rope.of_string s) pos);
  ]
  @
  if pos > 0 then []
  else
    let cu = Regexp.Stream.create re in
    for i = 0 to String.length s - 1 do
      Regexp.Stream.feed cu s ~pos:i ~len:1
    done;
    [ ("stream", Regexp.Stream.finish cu) ]

(* The acceptance property: every engine returns the reference
   matcher's exact (start, stop). *)
let prop_engines_agree =
  QCheck.Test.make ~name:"pipeline, NFA sweep, streaming = reference spans"
    ~count:1000 cross_arb (fun (pat, s) ->
      match Regexp.compile_uncached pat with
      | exception Regexp.Parse_error _ -> QCheck.assume_fail ()
      | re ->
          let expected = ref_search pat s 0 in
          let spans = engine_spans re s 0 in
          List.for_all (fun (_, r) -> r = expected) spans
          || QCheck.Test.fail_reportf "expected %s: %s" (show_r expected)
               (String.concat " "
                  (List.map (fun (e, r) -> e ^ "=" ^ show_r r) spans)))

(* The same agreement on a fixed battery: anchors, newlines, an empty
   haystack and cur[a-z]+, from every start up to 3. *)
let battery_agrees () =
  List.iter
    (fun pat ->
      let re = Regexp.compile_uncached pat in
      List.iter
        (fun s ->
          for pos = 0 to min 3 (String.length s) do
            let expected = ref_search pat s pos in
            List.iter
              (fun (engine, r) ->
                Alcotest.(check (option (pair int int)))
                  (Printf.sprintf "%s /%s/ %S @%d" engine pat s pos)
                  expected r)
              (engine_spans re s pos)
          done;
          check_bool
            (Printf.sprintf "matches /%s/ %S" pat s)
            (ref_matches pat s) (Regexp.matches re s))
        [
          ""; "a"; "abc"; "xxabbbcyy"; "aab\nabc"; "line 1 under edit\nline 2";
          "curtext curpage"; "xyx xyzx xx"; "babab"; "ab\n\nab"; "aaaaabbbbb";
        ])
    [
      "abc"; "ab+c"; "a*"; "(a|b)*c"; "^ab"; "ab$"; "^$"; "a.c"; "[a-c]+";
      "er+ s"; "x[yz]*x"; "(ab|a)b"; "a(b|)c"; "[^b]a"; "cur[a-z]+"; ".";
    ]

let prop_matches_agree =
  QCheck.Test.make ~name:"matches/Scan agree with reference existence"
    ~count:1000 cross_arb (fun (pat, s) ->
      match Regexp.compile_uncached pat with
      | exception Regexp.Parse_error _ -> QCheck.assume_fail ()
      | re ->
          let expected = ref_matches pat s in
          let scan =
            let sc = Regexp.Scan.create re in
            let hit = ref false in
            for i = 0 to String.length s - 1 do
              if Regexp.Scan.feed sc s ~pos:i ~len:1 then hit := true
            done;
            !hit || Regexp.Scan.finish sc
          in
          Regexp.matches re s = expected && scan = expected)

(* Same agreement with the DFA cache squeezed to its floor, so flushes
   happen constantly mid-scan. *)
let prop_tiny_dfa_cache =
  QCheck.Test.make ~name:"results survive constant DFA cache flushes"
    ~count:300 cross_arb (fun (pat, s) ->
      match Regexp.compile_uncached pat with
      | exception Regexp.Parse_error _ -> QCheck.assume_fail ()
      | re ->
          Regexp.set_dfa_capacity 8;
          let r =
            Regexp.search re s 0 = ref_search pat s 0
            && Regexp.matches re s = ref_matches pat s
          in
          Regexp.set_dfa_capacity 256;
          r)

let prop_search_pos =
  QCheck.Test.make ~name:"search at nonzero pos agrees with reference"
    ~count:500
    (QCheck.make
       ~print:(fun ((p, s), pos) -> Printf.sprintf "pat=%S input=%S pos=%d" p s pos)
       (QCheck.Gen.pair (QCheck.Gen.pair pattern_gen2 input_gen2)
          (QCheck.Gen.int_range 0 15)))
    (fun ((pat, s), pos) ->
      match Regexp.compile_uncached pat with
      | exception Regexp.Parse_error _ -> QCheck.assume_fail ()
      | re ->
          QCheck.assume (pos <= String.length s);
          let expected = ref_search pat s pos in
          List.for_all (fun (_, r) -> r = expected) (engine_spans re s pos))

(* The lines grep prints, copied out: split on '\n', a trailing newline
   ends the last line, and "" has none.  Each comes with its offsets. *)
let grep_lines s =
  let n = String.length s in
  let rec go acc line i =
    if i >= n then List.rev acc
    else
      let e = match String.index_from_opt s i '\n' with Some e -> e | None -> n in
      go ((line, i, e, String.sub s i (e - i)) :: acc) (line + 1) (e + 1)
  in
  go [] 1 0

(* Both halves of a walk, merged back into line order. *)
let walk re s =
  let got = ref [] in
  List.iter
    (fun invert ->
      Regexp.iter_lines ~invert re s (fun line start stop ->
          got := (line, start, stop, not invert) :: !got))
    [ false; true ];
  List.sort compare !got

let show_walk l =
  String.concat " "
    (List.map (fun (l, a, b, h) -> Printf.sprintf "%d:%d-%d:%b" l a b h) l)

(* The line walk decides each line where it lies exactly as [matches]
   and the backtracking reference decide that line copied out, with
   the DFA at its usual bound and squeezed to 8 states (so it flushes
   and falls back to the sweep).  Longer haystacks than the other
   properties', so one walk crosses many lines. *)
let prop_line_walk =
  let open QCheck.Gen in
  let text ~chars ~max =
    string_size ~gen:(frequency [ (8, chars); (1, return '\n') ]) (int_range 0 max)
  in
  QCheck.Test.make ~name:"line walk = matches = reference, line by line"
    ~count:1000
    (QCheck.make
       ~print:(fun (p, s) -> Printf.sprintf "pat=%S input=%S" p s)
       (oneof
          [
            pair pattern_gen2 (text ~chars:(map Char.chr (int_range 97 100)) ~max:60);
            pair
              (map (fun p -> p ^ "\\n" ^ p) pattern_gen)
              (text ~chars:(map Char.chr (int_range 97 100)) ~max:30);
            (* a[ab]^k after any prefix needs 2^(k+1) DFA states, so at
               8 the cache thrashes on long a/b lines and the walk falls
               back to the sweep *)
            pair
              (map2
                 (fun k tail ->
                   "[ab]*a" ^ String.concat "" (List.init k (fun _ -> "[ab]")) ^ tail)
                 (int_range 2 4)
                 (oneofl [ ""; "$"; "b$"; "c" ]))
              (text ~chars:(oneofl [ 'a'; 'b' ]) ~max:120);
          ]))
    (fun (pat, s) ->
      match Regexp.compile_uncached pat with
      | exception Regexp.Parse_error _ -> QCheck.assume_fail ()
      | re ->
          let expected =
            List.map
              (fun (l, a, b, line) ->
                let hit = ref_matches pat line in
                if Regexp.matches re line <> hit then
                  QCheck.Test.fail_reportf "matches disagrees on %S" line;
                (l, a, b, hit))
              (grep_lines s)
          in
          let at cap =
            Regexp.set_dfa_capacity cap;
            let w = walk (Regexp.compile_uncached pat) s in
            Regexp.set_dfa_capacity 256;
            w
          in
          List.for_all
            (fun cap ->
              let got = at cap in
              got = expected
              || QCheck.Test.fail_reportf "capacity %d: expected %s, walked %s" cap
                   (show_walk expected) (show_walk got))
            [ 256; 8 ])

(* ------------------------------------------------------------------ *)
(* Streaming / rope regressions with real chunk boundaries.  A string
   longer than the rope's max leaf (512) built via [Rope.of_string]
   splits at predictable offsets (1200 bytes -> leaves at 300, 600,
   900), so needles planted around 600 straddle a boundary.            *)

let big_rope_tests =
  let mk fill = String.make 1200 fill in
  [
    Alcotest.test_case "literal straddling a leaf boundary" `Quick (fun () ->
        let s = Bytes.of_string (mk 'x') in
        Bytes.blit_string "needle" 0 s 597 6;
        let s = Bytes.to_string s in
        let rope = Rope.of_string s in
        Alcotest.(check (option (pair int int)))
          "found across chunks" (Some (597, 603))
          (Hsearch.find_rope (Hsearch.Literal "needle") rope);
        Alcotest.(check (option (pair int int)))
          "pattern too" (Some (597, 603))
          (Hsearch.search_rope (Regexp.compile_uncached "needle") rope 0));
    Alcotest.test_case "match straddling a leaf boundary" `Quick (fun () ->
        let s = Bytes.of_string (mk 'x') in
        Bytes.blit_string "aabbb" 0 s 598 5;
        let s = Bytes.to_string s in
        let re = Regexp.compile_uncached "aab+" in
        let rope = Rope.of_string s in
        Alcotest.(check (option (pair int int)))
          "rope = string" (Regexp.search re s 0)
          (Hsearch.search_rope re rope 0);
        Alcotest.(check (option (pair int int)))
          "expected span" (Some (598, 603))
          (Hsearch.search_rope re rope 0));
    Alcotest.test_case "zero-width search_all over the rope" `Quick (fun () ->
        (* terminates and agrees with the string path, boundaries
           included *)
        let s = mk 'a' in
        let re = Regexp.compile_uncached "a*" in
        let rope = Rope.of_string s in
        let via_string = Regexp.search_all re s in
        let via_rope = Hsearch.search_all_rope re rope in
        Alcotest.(check (list (pair int int))) "agree" via_string via_rope;
        let s2 = "ab" ^ mk 'b' in
        let rope2 = Rope.of_string s2 in
        let re2 = Regexp.compile_uncached "a*" in
        Alcotest.(check (list (pair int int)))
          "zero-width at boundaries" (Regexp.search_all re2 s2)
          (Hsearch.search_all_rope re2 rope2));
    Alcotest.test_case "anchors across chunked lines" `Quick (fun () ->
        let line = String.make 299 'y' ^ "\n" in
        let s = line ^ line ^ "target\n" ^ line in
        let re = Regexp.compile_uncached "^target$" in
        let rope = Rope.of_string s in
        Alcotest.(check (option (pair int int)))
          "rope = string" (Regexp.search re s 0)
          (Hsearch.search_rope re rope 0));
  ]

let dfa_tests =
  [
    Alcotest.test_case "bounded cache flushes and stays bounded" `Quick
      (fun () ->
        Regexp.set_dfa_capacity 8;
        (* tracking four trailing [ab] positions needs more than 8
           deterministic states, and the absent 'c' makes the DFA scan
           the whole haystack *)
        let re = Regexp.compile_uncached "a[ab][ab][ab][ab]c" in
        let hay = String.concat "" (List.init 40 (fun i ->
            if i mod 3 = 0 then "ab" else "ba")) in
        check_bool "no match" true (Regexp.search re hay 0 = None);
        check_bool "flushed at least once" true (Regexp.dfa_flush_count re > 0);
        check_bool "bounded" true (Regexp.dfa_state_count re <= 9);
        let pat2 = "a[ab][ab][ab][ab]" in
        let re2 = Regexp.compile_uncached pat2 in
        Alcotest.(check (option (pair int int)))
          "still exact under the tiny cache" (ref_search pat2 hay 0)
          (Regexp.search re2 hay 0);
        Regexp.set_dfa_capacity 256);
    Alcotest.test_case "prefilter analyses" `Quick (fun () ->
        let pre p = Regexp.required_prefix (Regexp.compile_uncached p) in
        let lit p = Regexp.required_literal (Regexp.compile_uncached p) in
        Alcotest.(check string) "literal prefix" "abc" (pre "abc");
        Alcotest.(check string) "anchor is zero-width" "ab" (pre "^ab");
        Alcotest.(check string) "plus keeps one copy" "er" (pre "er+ s");
        Alcotest.(check string) "star cuts" "a" (pre "ab*c");
        Alcotest.(check string) "alt takes common prefix" "ab" (pre "(abc|abd)");
        Alcotest.(check string) "nullable has no prefix" "" (pre "x*");
        Alcotest.(check string) "inner literal beats prefix" "r s" (lit "er+ s");
        Alcotest.(check string) "literal run" "abc" (lit "x*abcy*"));
    Alcotest.test_case "stream across many chunks" `Quick (fun () ->
        let re = Regexp.compile_uncached "ab+c" in
        let s = "zzzabbbczz" in
        let cu = Regexp.Stream.create re in
        Regexp.Stream.feed cu s ~pos:0 ~len:4;
        Regexp.Stream.feed cu s ~pos:4 ~len:3;
        Regexp.Stream.feed cu s ~pos:7 ~len:3;
        Alcotest.(check (option (pair int int)))
          "chunked feed" (Some (3, 8)) (Regexp.Stream.finish cu);
        Alcotest.(check (option (pair int int)))
          "idempotent finish" (Some (3, 8)) (Regexp.Stream.finish cu));
  ]

let () =
  Alcotest.run "regexp"
    [
      ("unit", unit_tests);
      ("rope", big_rope_tests);
      ("dfa", dfa_tests);
      ( "property",
        Alcotest.test_case "engines agree on a fixed battery" `Quick
          battery_agrees
        :: List.map (Seeded.to_alcotest 41)
             [
               prop_vs_reference;
               prop_search_bounds;
               prop_engines_agree;
               prop_matches_agree;
               prop_tiny_dfa_cache;
               prop_search_pos;
               prop_line_walk;
             ] );
    ]
