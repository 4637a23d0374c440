"""Build pool.json, the seeded walks that the workloads draw from.

    python3 perfbench/screen.py      # from the repository root, ~5 min

The workloads must not contain an operation that fails, so each seeded
walk is first run through the very operation and checks its workload
uses, on the base walk and on VARIANTS_TRIED seeded variants (a variant
has always had the outcome of its base walk).  A walk joins the pool
only if every grid answers and every check passes; a refused walk
(UnresolvedCrossing) is left out too, so that the share of answered
operations does not depend on the seed.  Every walk left out goes into
pool.json's "rejected" list with its outcome: the failures there are
defects of the program, to be put back when it answers them.

Candidates are random_walk(seed) with the seeds of walks_of_dimensions
under a fixed rng, so the pool is the same on every host that computes
the same outcomes.  Ensemble walks (|shift| <= 3) are screened at grids
256, 1024 and 2048, because dynamics decomposes them at 1024; crossing
walks (U^2 and U^3 of |shift| <= 2 walks, U (+) U_alpha of |shift| <= 3
walks with a fixed alpha per entry) at 256 and 2048.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import inputs  # noqa: E402
import workloads  # noqa: E402

SCREEN_SEED = 2026
VARIANTS_TRIED = 2
PER_DIMENSION = {"ensemble": 12, "power2": 8, "power3": 8, "sum": 8}
DIMENSIONS = {"ensemble": (1, 2, 3, 4), "power2": (2, 3, 4), "power3": (2, 3, 4), "sum": (2, 3, 4)}
MAX_CANDIDATES = 40  # per kind and dimension


class EnsembleProbe(workloads.Ensemble):
    """The ensemble operation on one given walk, at the screening grids."""

    def __init__(self):  # no pool to draw from yet
        self.grids = (256, 1024, 2048)

    def ops(self, seed, rng):
        spec = inputs.random_walk(seed)
        out = []
        for i in range(1 + VARIANTS_TRIED):
            var, phase = inputs.variant(spec, rng) if i else (spec, 1.0)
            out.append(self._op("walk(%d)" % seed, var, phase, inputs.spec_json(var), None, [seed, i]))
        return out


class CrossingsProbe(workloads.Crossings):
    """The crossings operation on one given walk, at the workload's grids."""

    def __init__(self):
        self.grids = (256, 2048)

    def ops(self, kind, entry, rng):
        if kind == "sum":
            seed, alpha = entry
            label, base, build = self._sum("", inputs.random_walk(seed), alpha)
        else:
            label, base, build = self._power("", inputs.random_walk(entry, shift_max=2), int(kind[-1]))
        return [
            self._op(str(entry), *build(*(inputs.variant(base, rng) if i else (base, 1.0))))
            for i in range(1 + VARIANTS_TRIED)
        ]


def outcome(ops) -> str:
    """'ok' if every operation is answered and checked, else the first other outcome."""
    for op in ops:
        try:
            if not op.check(op.call()):
                return "refused"
        except Exception as exc:  # a failed check, or the program raised
            return "failed: %s: %s" % (type(exc).__name__, exc)
    return "ok"


def main() -> int:
    pool = {"screen_seed": SCREEN_SEED, "variants_tried": VARIANTS_TRIED, "rejected": []}
    ens, cross = EnsembleProbe(), CrossingsProbe()
    for kind, dims in DIMENSIONS.items():
        pool[kind] = {}
        for n in dims:
            rng = np.random.default_rng([SCREEN_SEED, list(DIMENSIONS).index(kind), n])
            kept = pool[kind][str(n)] = []
            for _ in range(MAX_CANDIDATES):
                if len(kept) == PER_DIMENSION[kind]:
                    break
                ((seed, _),) = inputs.walks_of_dimensions(rng, [n], shift_max=2 if "power" in kind else 3)
                if kind == "ensemble":
                    entry, ops = seed, ens.ops(seed, rng)
                else:
                    entry = [seed, round(float(rng.uniform(0.1, 2 * np.pi - 0.1)), 3)] if kind == "sum" else seed
                    ops = cross.ops(kind, entry, rng)
                result = outcome(ops)
                print("%-8s n=%d %-24s %s" % (kind, n, entry, result), flush=True)
                if result == "ok":
                    kept.append(entry)
                else:
                    pool["rejected"].append({"kind": kind, "n": n, "entry": entry, "outcome": result})
            if len(kept) < PER_DIMENSION[kind]:
                print("only %d %s walks of n=%d pass" % (len(kept), kind, n), file=sys.stderr)
                return 1
    with open(inputs.POOL_FILE, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
