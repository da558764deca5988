#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload bam_cold --seeds 1-10 \
        [--seconds 15] [--out perfbench/results/bam_cold.json]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints
for every end-to-end metric its median, quartiles and the quartile
spread ``(Q3 - Q1) / median`` (``statistics.quantiles(values, n=4)``)
next to the metric's bound from ``BENCHMARK.json``.  A later change can
compare its own runs with these figures to tell "unchanged" from
"unresolved": a difference smaller than the spread is not resolved.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import common

RUN = os.path.join(common.BENCH_DIR, "run.py")
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        cwd=common.ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(line[len("REPORT "):]) for line in lines
                  if line.startswith("REPORT "))
    return json.loads(lines[-1]), report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to BENCHMARK.json run_seconds")
    parser.add_argument("--out", help="write the figures as JSON here")
    args = parser.parse_args()
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in parse_seeds(args.seeds):
        result, report = one_run(args.workload, seed, seconds)
        runs.append({"seed": seed, "result": result, "report": report})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.5g}"
                  for k, v in result["metrics"].items()), flush=True)
    summary = {}
    print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        mid = statistics.median(values)
        spread = (q3 - q1) / mid if mid else None
        summary[name] = {"median": mid, "q1": q1, "q3": q3,
                         "spread": spread, "bound": metric["bound"],
                         "unit": metric["unit"], "values": values}
        print(f"{name:<18}{mid:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{spread:>9.3f}{metric['bound']:>8.2f}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)),
                    exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "environment": runs[0]["report"]["environment"],
                       "input": runs[0]["report"]["input"],
                       "seeds": [r["seed"] for r in runs],
                       "failed": sum(r["result"]["failed"] for r in runs),
                       "attempted": sum(r["result"]["attempted"]
                                        for r in runs),
                       "metrics": summary}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
