#!/usr/bin/env python3
"""Calibrate the benchmark: run the BENCHMARK.json command once per
(workload, seed), exactly as a runner of the benchmark does, and report
each end-to-end metric's median and quartile spread against its bound.

Run from the repository root:

    python3 cni-bench/calibrate.py --seeds 1-10 --out set1.json
    python3 cni-bench/calibrate.py --seeds 11-20 --out set2.json --against set1.json

The spread is (q3 - q1) / median of the per-seed values, with quartiles
from statistics.quantiles(values, n=4). With --against, each metric's
median is also compared with the earlier set's.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out", help="write every run's metrics here (JSON)")
    ap.add_argument("--against", help="an earlier --out file to compare medians with")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    earlier = json.load(open(args.against)) if args.against else {}
    runs = {}
    ok = True
    for w in workloads:
        values, elapsed = {}, []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", args.trace]
            t = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            elapsed.append(time.time() - t)
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}")
            result = json.loads(p.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{w} seed {seed}: incorrect\n{p.stdout}", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        runs[w] = values
        print(f"== {w}: {len(args.seeds)} runs, {sum(elapsed):.0f} s "
              f"(max {max(elapsed):.1f} s per run)")
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            line = f"  {name:<32} median {med:<14.6g} spread {spread * 100:6.2f}%"
            b = bounds.get(name)
            if b:
                line += f"  bound {b['bound'] * 100:5.1f}%"
                if name != "setup_s" and spread > b["bound"]:
                    ok = False
                    line += "  SPREAD OVER BOUND"
                before = earlier.get(w, {}).get(name)
                if before:
                    m0 = statistics.median(before)
                    change = (med - m0) / m0 * (1 if b["better"] == "lower" else -1)
                    line += f"  vs earlier {change * 100:+6.2f}%"
                    if change > b["bound"]:
                        ok = False
                        line += "  WORSE THAN BOUND"
            print(line)
    if args.out:
        json.dump(runs, open(args.out, "w"), indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
