#!/bin/sh
# Smoke gate for the bench harness: build, run the test suites, check
# the observability pipeline, run the experiment sections (quick mode
# skips E10 + microbenches), then run each workload of the repository
# benchmark (perfbench/) briefly and require its own output checks to
# pass.
set -e
cd "$(dirname "$0")/.."
dune build
dune runtest
dune exec bench/main.exe -- trace-smoke
dune exec bench/main.exe -- search-smoke
dune exec bench/main.exe -- index-smoke
dune exec bench/main.exe -- fault-smoke
dune exec bench/main.exe -- wal-smoke
dune exec bench/main.exe -- pool-smoke
dune exec bench/main.exe -- e13-smoke
dune exec bench/main.exe -- gc-smoke
dune exec bench/main.exe -- guide-smoke
dune exec bench/main.exe -- doc-lint
dune exec bench/main.exe -- quick
for w in bugfix fanin corpus recover; do
  last=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 2 --trace 0 | tail -n 1)
  case "$last" in
    *'"correct": true'*) echo "perfbench $w: correct" ;;
    *) echo "perfbench $w FAIL: $last"; exit 1 ;;
  esac
done
