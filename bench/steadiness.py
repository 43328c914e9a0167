#!/usr/bin/env python3
"""Run two sets of benchmark runs of the same code and compare them.

    python3 bench/steadiness.py

Runs the command in BENCHMARK.json from the repository root, ten times per
set and workload, each run with its own seed (set A: 100, 101, ...; set B:
200, 201, ...). Workloads are interleaved and the two sets alternate which
runs first, so a slow spell on the host lands on both sets. For each
workload and end-to-end metric it prints each set's median and quartiles,
the spread (quartile distance over median) and the gap between the set
medians in the metric's worse direction, against the metric's bound. The
sets are steady when every spread and the size of every gap, in either
direction, are within the bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = {"A": 100, "B": 200}
RUNS = 10  # per set and workload


def run_once(spec, workload, seed, seconds):
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed its checks:\n{done.stderr}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    results = {(n, s): [] for n in names for s in SEEDS}
    for i in range(RUNS):
        for name in names:
            for s in (("A", "B") if i % 2 == 0 else ("B", "A")):
                r = run_once(spec, name, SEEDS[s] + i, spec["run_seconds"])
                results[name, s].append(r)
                values = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
                print(f"run {i} {name} set {s}: {values}", flush=True)

    ok = True
    print()
    print(f"{'workload':18} {'metric':12} {'set':3} {'median':>11} {'q1':>11} {'q3':>11}"
          f" {'spread':>7} {'worse-by':>8} {'bound':>6}")
    for name in names:
        shares = {s: {r["failed"] / r["attempted"] for r in results[name, s]} for s in SEEDS}
        if len(shares["A"] | shares["B"]) != 1:
            ok = False
            print(f"{name}: failed shares differ between runs: {shares}")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            medians = {}
            for s in SEEDS:
                values = [r["metrics"][key]["value"] for r in results[name, s]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians[s] = med
                spread = (q3 - q1) / med
                worse = ""
                if s == "B":
                    gap = (medians["B"] - medians["A"]) / medians["A"]
                    gap = gap if metric["better"] == "lower" else -gap
                    worse = f"{gap:+.4f}"
                    ok &= abs(gap) <= bound
                ok &= spread <= bound
                print(f"{name:18} {key:12} {s:3} {med:11.5g} {q1:11.5g} {q3:11.5g}"
                      f" {spread:7.4f} {worse:>8} {bound:6.3f}")
    print("\nsteady within bounds" if ok else "\nNOT steady within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
