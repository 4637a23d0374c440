"""One benchmark process: set up a workload, run it, print its metrics.

run.py starts this script in a fresh interpreter.  It prints
``READY <monotonic clock> <kernel> <kernel>`` just before the first timed
operation, which is how run.py measures set-up time from interpreter
start (the two python-kernel times, taken first thing and last thing in
set-up, scale it; see calib.py), then prints report lines and, last, one
JSON object with the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
import traceback

import calib

KERNEL_AT_START = calib.python_kernel()  # before the heavy imports

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TAIL_PERCENTILE = 75
CLI_SUBCOMMANDS = ("analyze", "decompose", "realizable", "intertwine", "simulate")


class Tally:
    """Outcomes and timings of the operations of one pass.

    `times` are scaled to the reference host speed (calib.py): an
    in-process operation by the numpy kernel measured just before and
    just after it, an operation in a child process by the child's own
    python-kernel runs.  `raw` keeps the wall times.
    """

    def __init__(self):
        self.times = []
        self.raw = []
        self.labels = []
        self.ok = []
        self.refused = []
        self.failures = []
        self._kernel = None

    @property
    def attempted(self) -> int:
        return len(self.times)

    def _scaled(self, op, out, wall) -> tuple:
        """(wall time, time scaled to the reference host speed) of one operation."""
        if op.child_calibration is None:
            before, self._kernel = self._kernel, calib.numpy_kernel()
            return wall, wall * calib.NUMPY_REF_S / (0.5 * (before + self._kernel))
        self._kernel = None
        if out is None:  # the child never reported; the operation failed anyway
            return wall, wall
        spent, kernel = op.child_calibration(out)
        return wall - spent, (wall - spent) * calib.PYTHON_REF_S / kernel

    def run(self, op) -> None:
        if op.child_calibration is None and self._kernel is None:
            self._kernel = calib.numpy_kernel()
        out, t0 = None, time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:
            self._append(op, *self._scaled(op, None, time.perf_counter() - t0))
            self.failures.append("%s: %s: %s" % (op.label, type(exc).__name__, exc))
            traceback.print_exc(file=sys.stderr)
            return
        self._append(op, *self._scaled(op, out, time.perf_counter() - t0))
        try:
            if not op.check(out):
                self.refused.append(op.label)
                return
        except Exception as exc:  # a failed check, or output it cannot parse
            self.failures.append("%s: %s: %s" % (op.label, type(exc).__name__, exc))
            return
        self.ok[-1] = True

    def _append(self, op, raw, scaled) -> None:
        self.labels.append(op.label)
        self.raw.append(raw)
        self.times.append(scaled)
        self.ok.append(False)


def run_rounds(workload, tracer=None, seconds=None, rounds=None) -> Tally:
    """Whole rounds until `seconds` have passed, or exactly `rounds` of them."""
    tally, r, t0 = Tally(), 0, time.perf_counter()
    while True:
        for op in workload.round(r):
            if tracer is not None:
                tracer.op = "%d:%s" % (tally.attempted, op.label)
            tally.run(op)
        r += 1
        if rounds is not None and r >= rounds:
            return tally
        if seconds is not None and time.perf_counter() - t0 >= seconds:
            return tally


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        # one child runs at a time, so the tree's peak is at most this sum
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS (numpy's, scipy's) reports."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    out = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out or {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def machine() -> dict:
    """Hardware and library record printed with every result."""
    info = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            found = re.search(r"^model name\s*:\s*(.*)$", fh.read(), re.M)
        info["cpu"] = found.group(1) if found else platform.processor()
    except OSError:
        info["cpu"] = platform.processor()
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(os.path.join(base, entry, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            info["l%s" % level] = size
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info.update(
        python=platform.python_version(),
        numpy=np.__version__,
        scipy=scipy.__version__,
        blas="%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        blas_threads=blas_threads(),
    )
    return info


def _median_by_subcommand(tally, names):
    per = {}
    for label, t in zip(tally.labels, tally.times):
        per.setdefault(label.split()[0], []).append(t)
    return {name: statistics.median(per[name]) if name in per else 0.0 for name in names}


def untraced(workload, seconds) -> tuple:
    tally = run_rounds(workload, seconds=seconds)
    times = tally.times
    print("wall times, unscaled: op_p50_ms %.2f, ops_per_s %.4f"
          % (1000.0 * statistics.median(tally.raw), len(times) / sum(tally.raw)))
    kinds = {}
    for label, t, raw in zip(tally.labels, times, tally.raw):
        kinds.setdefault(label, []).append((t, raw))
    medians = []
    for label, samples in kinds.items():
        medians.append(statistics.median(t for t, _ in samples))
        print("  %-44s x%d  median %9.2f ms scaled, %9.2f ms wall" % (
            label, len(samples), 1000 * medians[-1], 1000 * statistics.median(r for _, r in samples)))
    if workload.name == "cli":
        for sub, t in _median_by_subcommand(tally, CLI_SUBCOMMANDS).items():
            print("%s_s = %.4f s (median of the subcommand)" % (sub, t))
    # every kind runs equally often, so these are the rate, median and p75
    # of the operations, with each kind's repeats replaced by their median:
    # a slow spell of the host then moves one repeat, not the percentile
    tail_s = float(np.percentile(medians, TAIL_PERCENTILE))
    print("op_p50_ms and op_tail_ms (p%d) are over the medians of %d operation kinds, %d rounds"
          % (TAIL_PERCENTILE, len(medians), len(times) // len(medians)))
    metrics = {
        "ops_per_s": (len(medians) / sum(medians), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(medians), "ms"),
        "op_tail_ms": (1000.0 * tail_s, "ms"),
        "ok_ratio": (sum(tally.ok) / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(workload.name == "cli"), "MB"),
    }
    return [tally], metrics


def traced(workload, tracer, spans_path) -> tuple:
    """Untraced then traced passes over the same fixed rounds."""
    rounds = workload.trace_rounds
    tallies, metrics = [], {}
    if workload.name == "cli":
        sub = run_rounds(workload, rounds=rounds)
        tallies.append(sub)
        for name, t in _median_by_subcommand(sub, CLI_SUBCOMMANDS).items():
            metrics["cli.%s_s" % name] = (t, "s")
        workload.inprocess = True  # the same argv, now through cli.main
    plain = run_rounds(workload, rounds=rounds)
    tracer.install()
    tracer.recording = True
    try:
        with_spans = run_rounds(workload, tracer=tracer, rounds=rounds)
    finally:
        tracer.recording = False
        tracer.uninstall()
    tallies += [plain, with_spans]
    tracer.dump(spans_path)

    units = {"calls": "count", "self_ms": "ms", "fibers": "count", "unique_ratio": "ratio",
             "unresolved": "count", "refine_points": "count", "site_steps": "count",
             "site_steps_per_s": "1/s"}
    # each span is scaled by its operation's factor (see calib.py)
    scale = {
        "%d:%s" % (i, label): t / raw
        for i, (label, t, raw) in enumerate(zip(with_spans.labels, with_spans.times, with_spans.raw))
    }
    for name, value in tracer.layer_metrics(scale).items():
        metrics[name] = (value, units[name.rsplit(".", 1)[1]])
    metrics["trace.overhead_ratio"] = (sum(with_spans.times) / sum(plain.times), "ratio")
    bad = len(with_spans.refused) + len(with_spans.failures)
    metrics["fail_ratio"] = (bad / with_spans.attempted, "ratio")
    startup = 0.0
    if workload.name == "cli":
        startup = 1000.0 * statistics.median(
            s - p for s, p in zip(tallies[0].times, plain.times)
        )
        for op, (calls, pairs) in sorted(tracer.per_op("spectral.sample_bands").items()):
            print("sample_bands in %s: %d calls for %d (spec, grid) pairs" % (op, calls, pairs))
    else:
        for sub in CLI_SUBCOMMANDS:
            metrics["cli.%s_s" % sub] = (0.0, "s")
    metrics["cli.startup_ms"] = (startup, "ms")
    return tallies, metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    tracer = Tracer()
    if args.trace:
        tracer.install()  # counts the input builders' calls during set-up
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    workload.prepare()
    tracer.uninstall()
    kernel_at_end = calib.python_kernel()
    print("READY %r %r %r" % (time.monotonic(), KERNEL_AT_START, kernel_at_end), flush=True)
    if args.setup_only:
        return 0

    print("machine " + json.dumps(machine(), sort_keys=True))
    if args.trace:
        tallies, metrics = traced(workload, tracer, args.spans)
    else:
        tallies, metrics = untraced(workload, args.seconds)
    refused = sorted({label for t in tallies for label in t.refused})
    failures = [f for t in tallies for f in t.failures]
    for label in refused:
        print("refused (UnresolvedCrossing): %s" % label)
    for failure in failures:
        print("FAILED: %s" % failure)
    result = {
        "correct": not failures,
        "attempted": sum(t.attempted for t in tallies),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
