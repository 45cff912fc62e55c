(* Properties draw from a fixed seed, so every run of the suite checks
   the same cases; each test file passes its own.  A failure under a
   seed is a counterexample to keep as a named test, not a reason to
   pick another seed. *)
let to_alcotest seed t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t
