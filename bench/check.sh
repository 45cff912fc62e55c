#!/bin/sh
# Check gate: build, run the test suites (which hold every behaviour
# check), run the two checks against a wall-clock or allocation
# baseline (search-smoke, gc-smoke), run the experiment sections (quick
# mode skips E10 + microbenches), then run each workload of the
# repository benchmark (perfbench/) briefly and require its own output
# checks to pass.
set -e
cd "$(dirname "$0")/.."
dune build
dune runtest
dune exec bench/main.exe -- search-smoke
dune exec bench/main.exe -- gc-smoke
dune exec bench/main.exe -- quick
for w in bugfix fanin corpus recover; do
  last=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 2 --trace 0 | tail -n 1)
  case "$last" in
    *'"correct": true'*) echo "perfbench $w: correct" ;;
    *) echo "perfbench $w FAIL: $last"; exit 1 ;;
  esac
done
