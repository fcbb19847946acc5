#!/usr/bin/env python3
"""Run the benchmark several times per workload and report run-to-run spread.

    python3 tgbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME]
                              [--out FILE] [--compare FILE]

Run from the repository root. For every workload in BENCHMARK.json it runs
the benchmark command `--runs` times with consecutive seeds (`--trace 0`)
and prints, per end-to-end metric, the median, the quartiles and the
spread: (q3 - q1) / median, with quartiles as `statistics.quantiles(values,
n=4)` gives them. A spread at or above a third of the metric's bound is
flagged. `--out` saves the raw values as JSON; `--compare` reads such a
file and flags every metric whose median got worse than the saved median by
more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect run:\n{out}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload")
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    before = {}
    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)
    values = {}
    flagged = 0
    for w in bench["workloads"]:
        name = w["name"]
        if args.workload and name != args.workload:
            continue
        runs = [run_once(bench, name, args.first_seed + i) for i in range(args.runs)]
        values[name] = {m: [r[m] for r in runs] for m in metrics}
        print(f"== {name} ({args.runs} runs)")
        for m, spec in metrics.items():
            med, q1, q3, spread = summarize(values[name][m])
            notes = []
            if m != "setup_s" and spread >= spec["bound"] / 3:
                notes.append(f"SPREAD >= bound/3 ({spec['bound'] / 3:.4f})")
            if name in before:
                old = statistics.median(before[name][m])
                worse = (med - old) / old if spec["better"] == "lower" else (old - med) / old
                notes.append(f"vs saved median {old:.6g}: {worse:+.2%} worse")
                if worse > spec["bound"]:
                    notes.append("REGRESSION beyond bound")
            flagged += any("SPREAD" in n or "REGRESSION" in n for n in notes)
            print(f"  {m:16} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {spec['bound']}  {'; '.join(notes)}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
