#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's spread: the interquartile range of its values across the runs
(Python's statistics.quantiles, n=4) as a share of their median, next to
the metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --workload serve_scan --seeds 1-10
    python3 perfbench/spread.py --workload show_gallery --seeds 1-5 --save a.json
    python3 perfbench/spread.py --workload show_gallery --seeds 1-5 --compare a.json

--save writes the per-run values; --compare reads such a file and checks
that each metric's median has not worsened by more than its bound.
--bin runs a prebuilt perfbench binary instead of BENCHMARK.json's
command. Runs are sequential: concurrent runs would disturb each other.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {lines[-1][:400]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--bin")
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = [args.bin] if args.bin else bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    previous = {}
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)

    saved = {}
    ok = True
    for workload in args.workload:
        runs = [run_once(command, workload, s, seconds, args.trace) for s in seeds_of(args.seeds)]
        saved[workload] = runs
        print(f"{workload}: {len(runs)} runs of {seconds}s")
        for m in metrics:
            values = [r[m["name"]] for r in runs]
            med = statistics.median(values)
            line = f"  {m['name']:<28} median {med:<12.6g}"
            if args.trace == 0:
                s = spread(values)
                bound = m["bound"]
                verdict = "ok" if s < bound / 3 else ("WIDE" if s < bound else "OVER")
                if m["name"] == "setup_s":
                    verdict = "(not gated)"
                elif s >= bound:
                    ok = False
                line += f" spread {s:.4f} bound {bound} ({verdict})"
                if workload in previous:
                    before = statistics.median(r[m["name"]] for r in previous[workload])
                    worse = (med - before) / before if m["better"] == "lower" else (before - med) / before
                    line += f" vs saved {before:.6g}: {worse:+.4f}"
                    if worse > bound:
                        ok = False
                        line += " WORSE"
            else:
                line += f" min {min(values):.6g} max {max(values):.6g}"
            print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
