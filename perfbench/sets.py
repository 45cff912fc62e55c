#!/usr/bin/env python3
"""Result sets of the repository benchmark: record, spread, compare.

    python3 perfbench/sets.py record SET [--workloads a,b] [--seeds 1-10]
                                     [--trace 0|1]
    python3 perfbench/sets.py spread SET
    python3 perfbench/sets.py compare OLD NEW

A set is a JSON-lines file with one run per line: its workload, seed,
trace flag and result object.  `record' appends runs of
perfbench/run.py, one per workload and seed, each of BENCHMARK.json's
run_seconds.  `spread' prints, per
(workload, metric), the median and quartiles over the set's runs and
the quartile distance as a share of the median, against the metric's
bound in BENCHMARK.json.  `compare' prints both sides' median and
quartiles per (workload, metric) and a verdict against the bound:
better or worse when the medians differ by more than the bound and
each side's spread is within it (or when every run of one side beats
every run of the other), unresolved otherwise.  Run from the root of a
checkout.
"""

import json
import statistics
import subprocess
import sys

BENCH = "BENCHMARK.json"


def spec():
    with open(BENCH) as f:
        b = json.load(f)
    metrics = {m["name"]: m for m in b["end_to_end"] + b["per_layer"]}
    return b, metrics


def load(path):
    runs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def record(argv):
    b, _ = spec()
    out, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    if set(opts) - {"--workloads", "--seeds", "--trace"}:
        sys.exit(__doc__)
    workloads = opts.get("--workloads", ",".join(w["name"] for w in b["workloads"]))
    trace = opts.get("--trace", "0")
    for seed in seeds_of(opts.get("--seeds", "1-10")):
        for w in workloads.split(","):
            p = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(b["run_seconds"]), "--trace", trace],
                stdout=subprocess.PIPE, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.exit("sets: %s seed %d exited %d" % (w, seed, p.returncode))
            result = json.loads(lines[-1])
            with open(out, "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed, "trace": int(trace),
                                    "result": result}) + "\n")
            print("%-8s seed %-4d correct=%s failed=%d/%d" % (
                w, seed, result["correct"], result["failed"], result["attempted"]))


def table(runs):
    """(workload, metric) -> values, in run order."""
    t = {}
    for r in runs:
        for name, m in r["result"]["metrics"].items():
            t.setdefault((r["workload"], name), []).append(m["value"])
    return t


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    share = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, share


def spread(argv):
    _, metrics = spec()
    runs = load(argv[0])
    print("%-8s %-26s %4s %14s %14s %14s %8s %6s" % (
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"))
    for (w, name), values in sorted(table(runs).items()):
        med, q1, q3, share = summary(values)
        bound = metrics.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            flag = "ok" if share < bound / 3 else ("within" if share <= bound else "WIDE")
        print("%-8s %-26s %4d %14.6g %14.6g %14.6g %8.4f %6s %s" % (
            w, name, len(values), med, q1, q3, share,
            "" if bound is None else "%.2f" % bound, flag))


def verdict(old, new, m):
    """better / worse / unresolved, with the reason."""
    bound = m.get("bound")
    if bound is None:
        return "-"
    lower = m["better"] == "lower"
    om, _, _, os_ = summary(old)
    nm, _, _, ns = summary(new)
    change = (nm - om) / abs(om) if om else 0.0
    worse_by = change if lower else -change
    beats = (max(new) < min(old)) if lower else (min(new) > max(old))
    loses = (min(new) > max(old)) if lower else (max(new) < min(old))
    if max(os_, ns) > bound:
        if beats:
            return "better (every run)"
        if loses:
            return "worse (every run)"
        return "unresolved (spread %.3f > bound %.2f)" % (max(os_, ns), bound)
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unresolved (within bound %.2f)" % bound


def compare(argv):
    _, metrics = spec()
    old, new = table(load(argv[0])), table(load(argv[1]))
    print("%-8s %-26s %32s %32s %8s  %s" % (
        "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "change",
        "verdict"))
    for key in sorted(set(old) & set(new)):
        w, name = key
        om, oq1, oq3, _ = summary(old[key])
        nm, nq1, nq3, _ = summary(new[key])
        change = (nm - om) / abs(om) if om else 0.0
        print("%-8s %-26s %12.6g [%8.4g, %8.4g] %12.6g [%8.4g, %8.4g] %+7.1f%%  %s" % (
            w, name, om, oq1, oq3, nm, nq1, nq3, 100 * change,
            verdict(old[key], new[key], metrics.get(name, {}))))


def main():
    if len(sys.argv) < 3 or sys.argv[1] not in ("record", "spread", "compare"):
        sys.exit(__doc__)
    {"record": record, "spread": spread, "compare": compare}[sys.argv[1]](sys.argv[2:])


if __name__ == "__main__":
    main()
