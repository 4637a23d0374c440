"""Run one workload over several seeds and summarise its end-to-end metrics.

    python3 perfbench/repeat.py --workload W --seeds 101-110 [--seconds 20]
        [--trace 0|1] [--record FILE --set NAME]

For each metric it prints the median of the runs, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, which is
the quartile distance as a share of the median.  With --record the
summary and the raw values go into FILE under ["sets"][NAME][W]; the file's
other entries are kept.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 101-110")
    parser.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None)
    parser.add_argument("--set", default="runs")
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]

    runs = []
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        result["seed"] = seed
        result["wall_s"] = time.monotonic() - t0
        runs.append(result)
        print("seed %d (%.0f s): attempted %d failed %d  %s" % (
            seed, result["wall_s"], result["attempted"], result["failed"],
            "  ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)

    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        metrics[name] = dict(summary(values), unit=first["unit"], values=values)
        print("%-22s median %-12.5g q1 %-12.5g q3 %-12.5g spread %.3f"
              % (name, metrics[name]["median"], metrics[name]["q1"], metrics[name]["q3"],
                 metrics[name]["spread"]))
    if args.record:
        record = {}
        if os.path.exists(args.record):
            with open(args.record, encoding="utf-8") as fh:
                record = json.load(fh)
        record.setdefault("sets", {}).setdefault(args.set, {})[args.workload] = {
            "seconds": args.seconds,
            "trace": args.trace,
            "seeds": [r["seed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [r["wall_s"] for r in runs],
            "metrics": metrics,
        }
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
