#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric across the runs.

Run from the repository root:

    python3 perfbench/repeat.py --workload train_off --seeds 1-10
    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/trajectory/BENCH_1.json

Runs are sequential, one process at a time. For every metric it prints the
median, the quartiles (`statistics.quantiles(values, n=4)`) and the spread,
the quartile distance as a share of the median, and flags an end-to-end
spread above a third of the metric's bound in BENCHMARK.json. With --out it
writes every run's values, digests and environment as one JSON file: a point
of the performance trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])["info"]
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="repeat for several; default: every workload")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    unsteady = 0
    for workload in workloads:
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            if name in bounds:
                stats["bound"] = bounds[name]
            metrics[name] = stats
        summary["env"] = runs[0]["info"]["env"]
        summary["workloads"][workload] = {
            "why": runs[0]["info"]["why"],
            "correct": all(r["correct"] for r in runs),
            "failed_ops": [[r["failed"], r["attempted"]] for r in runs],
            "outputs_digest": [r["info"]["outputs_digest"] for r in runs],
            "metrics": metrics,
        }
        print(f"{workload}: {'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name, s in metrics.items():
            flag = ""
            spread = s["spread"]
            if name != "setup_s" and "bound" in s and spread is not None and spread > s["bound"] / 3:
                flag = f"  above bound/3 ({s['bound']})"
                unsteady += 1
            shown = "n/a" if spread is None else f"{spread:.4f}"
            print(f"{workload}: {name:<44} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {shown:>8}{flag}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
