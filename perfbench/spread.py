#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --workloads paper-grid,corpus --seeds 1-10

For each workload it runs perfbench/run.py once per seed (untraced), then
prints, per end-to-end metric of BENCHMARK.json, the median over the runs and
the distance between the first and third quartiles as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound and a third
of it. Raw results are appended to <build dir>/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    os.makedirs(build, exist_ok=True)
    log = open(os.path.join(build, "spread.jsonl"), "a")
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            t0 = time.time()
            out = subprocess.run(bench["command"] + ["--workload", wl, "--seed", str(seed),
                                                     "--seconds", str(seconds), "--trace", "0"],
                                 capture_output=True, text=True)
            took = time.time() - t0
            if out.returncode != 0:
                print(f"{wl} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                return 1
            lines = out.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            notes = [l for l in lines if l.startswith("#")]
            log.write(json.dumps({"workload": wl, "seed": seed, "took_s": took, "notes": notes, "result": res}) + "\n")
            log.flush()
            print(f"{wl} seed {seed}: {took:.1f}s correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                  file=sys.stderr)
            runs.append(res)
        print(f"\n{wl}: {len(runs)} runs")
        print(f"{'metric':20} {'median':>12} {'spread':>8} {'bound':>6} {'bound/3':>8}")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = "" if spread < m["bound"] / 3 else "  <-- wide"
            print(f"{m['name']:20} {med:12.6g} {spread:8.4f} {m['bound']:6.3f} {m['bound'] / 3:8.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
