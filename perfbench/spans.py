"""Spans around the program's public functions, recorded from outside.

install() replaces every binding of a traced function inside the qwalk
package (``qwalk.decompose.sample_bands``, ``qwalk.realize.sample_bands``,
``qwalk.cli.decompose``, ...) with a wrapper, so a call is seen under
whatever name its caller looks it up by.  Spans stay in memory as
(name, start, end, parent, op, info, error) and are only derived into
metrics, or written out, after the traced pass.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import Counter

# module -> public functions timed as layers
TRACED = {
    "walkspec": ("parse_walk_spec", "symbol_on_grid", "commutator_norm"),
    "spectral": ("sample_bands", "det_winding"),
    "decompose": ("decompose",),
    "realize": ("is_ct_realizable",),
    "intertwine": ("intertwiner_space", "commutant_report", "find_translation"),
    "dynamics": ("evolve", "position_distribution", "limit_law", "kolmogorov_distance"),
    "cli": ("main",),
}
# input builders: microseconds each, so counted and never timed
COUNTED = {"fixtures": ("build_fixture", "shift_coin_walk")}

LAYERS = [f"{m}.{f}" for m, fns in TRACED.items() for f in fns]
COUNTS = [f"{m}.{f}" for m, fns in COUNTED.items() for f in fns]


def spec_key(spec) -> str:
    """Content digest of a walk, computed here so tracing calls no program code."""
    h = hashlib.sha256(str(spec.n).encode())
    for j in sorted(spec.terms):
        h.update(str(j).encode())
        h.update(spec.terms[j].tobytes())
    return h.hexdigest()[:16]


def _info(name, bound):
    """Per-call inputs the derived metrics need, read before the span starts."""
    a = bound.arguments
    if name == "spectral.sample_bands":
        return {"spec": spec_key(a["spec"]), "grid": int(a["grid_size"])}
    if name == "dynamics.evolve":
        steps, n = int(a["steps"]), a["spec"].n
        if steps < 0:
            return {"site_steps": 0}  # delegates to evolve on the adjoint walk
        w0, b = a["state"].amplitudes.shape[0], a["spec"].bandwidth
        # the window entering step i has w0 + 2 b i sites of n components
        return {"site_steps": n * (steps * w0 + b * steps * (steps - 1))}
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.recording = False
        self.op = None
        self._patched = []

    def _timed(self, name, fn):
        sig = inspect.signature(fn)
        needs_info = name in ("spectral.sample_bands", "dynamics.evolve")

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            info = None
            if needs_info:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                info = _info(name, bound)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, info, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every binding of the listed functions in the qwalk package."""
        wrappers = {}
        for table, make in ((TRACED, self._timed), (COUNTED, self._counted)):
            for mod, fns in table.items():
                module = importlib.import_module("qwalk." + mod)
                for fn_name in fns:
                    fn = getattr(module, fn_name)
                    wrappers[id(fn)] = (fn, make(f"{mod}.{fn_name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qwalk" and not mod_name.startswith("qwalk."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, info, err) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "info": info, "error": err,
                }) + "\n")

    def layer_metrics(self, scale=None) -> dict:
        """Calls and self time per layer, plus the derived counts.

        scale maps an operation id to the factor its times are multiplied by.
        """
        scale = scale or {}
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, self_s = Counter(), Counter()
        for i, (name, start, end, _, op, *_) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start - child_time[i]) * scale.get(op, 1.0)
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = calls[layer]
            out[layer + ".self_ms"] = 1000.0 * self_s[layer]
        for name in COUNTS:
            out[name + ".calls"] = self.counts[name]

        bands = [s for s in spans if s[0] == "spectral.sample_bands"]
        out["spectral.sample_bands.fibers"] = sum(s[5]["grid"] for s in bands)
        pairs = {(s[5]["spec"], s[5]["grid"]) for s in bands}
        out["spectral.sample_bands.unique_ratio"] = len(pairs) / len(bands) if bands else 0.0
        out["spectral.sample_bands.unresolved"] = sum(
            s[6] == "UnresolvedCrossing" for s in bands
        )
        # symbol_on_grid calls under a sample_bands span, beyond its first
        # one, are the single-point eigensolves of local refinement
        grids_under = Counter()
        for name, _, _, parent, *_ in spans:
            if name != "walkspec.symbol_on_grid":
                continue
            while parent >= 0 and spans[parent][0] != "spectral.sample_bands":
                parent = spans[parent][3]
            if parent >= 0:
                grids_under[parent] += 1
        out["spectral.refine_points"] = sum(max(c - 1, 0) for c in grids_under.values())
        steps = sum(s[5]["site_steps"] for s in spans if s[0] == "dynamics.evolve")
        out["dynamics.evolve.site_steps"] = steps
        evolve_s = self_s["dynamics.evolve"]
        out["dynamics.evolve.site_steps_per_s"] = steps / evolve_s if evolve_s > 0 else 0.0
        return out

    def per_op(self, name: str) -> dict:
        """Calls of one layer and its distinct (spec, grid) pairs, per op."""
        calls, pairs = Counter(), {}
        for s in self.spans:
            if s[0] == name:
                calls[s[4]] += 1
                if s[5] is not None:
                    pairs.setdefault(s[4], set()).add(tuple(sorted(s[5].items())))
        return {op: (calls[op], len(pairs.get(op, ()))) for op in calls}
