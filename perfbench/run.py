"""qwalk benchmark: one workload per invocation, metrics as JSON on the last line.

    python3 perfbench/run.py --workload {cli,ensemble,dynamics,crossings}
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src.  With
--trace 0 the workload's end-to-end metrics are measured untraced.
Set-up time is the median of SETUP_RUNS fresh interpreters, each timed
from process start to the moment it would issue its first timed
operation and scaled to a fixed host speed (calib.py); the last of them
goes on to run the workload.  With --trace 1 one process runs a fixed
number of rounds untraced and then traced, and reports the per-layer
metrics (spans are written to perfbench/out/).  Load comes from one
process with one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 4
DEADLINE_S = 170.0


def _worker(args, extra, env, deadline):
    """Run worker.py; return (scaled seconds from spawn to READY, stdout lines)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    start = time.monotonic()
    # its own session, so that a timeout also ends the cli children
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("benchmark: worker passed the %.0f s deadline" % DEADLINE_S)
    if proc.returncode != 0:
        raise SystemExit("benchmark: worker exited with code %d" % proc.returncode)
    lines = out.splitlines()
    ready = [[float(x) for x in line.split()[1:]] for line in lines if line.startswith("READY ")]
    if not ready:
        raise SystemExit("benchmark: worker never became ready")
    clock, before, after = ready[0]
    # the kernels' own time is taken out, and their speed scales the rest
    setup = (clock - start - before - after) * calib.PYTHON_REF_S / (0.5 * (before + after))
    return setup, [line for line in lines if not line.startswith("READY ")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli", "ensemble", "dynamics", "crossings"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, one set-up (self-test)")
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qwalk", "__init__.py")):
        print("benchmark: no qwalk sources under %s" % src, file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    extra = ["--tiny"] if args.tiny else []

    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))
        _, lines = _worker(args, extra + ["--spans", spans], env, deadline)
        print("\n".join(lines))
        return 0

    setups = []
    for _ in range(0 if args.tiny else SETUP_RUNS - 1):
        setups.append(_worker(args, extra + ["--setup-only"], env, deadline)[0])
    ready, lines = _worker(args, extra, env, deadline)
    setups.append(ready)
    result = json.loads(lines[-1])
    result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print("\n".join(lines[:-1]))
    print("setup_s samples: " + ", ".join("%.4f" % s for s in setups))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
