"""Self-tests of the benchmark: metrics present, checks able to fail, counts exact.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import qwalk  # noqa: E402
import workloads  # noqa: E402
from worker import Tally  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (".calls", ".fibers", ".refine_points", ".site_steps", ".unresolved")


def bench(workload, trace, seed=3):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    result = bench(workload, trace)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


def test_counts_repeat_exactly_for_one_seed():
    for workload in ("crossings", "dynamics"):
        runs = [bench(workload, 1, seed=11)["metrics"] for _ in range(2)]
        counts = [{k: v["value"] for k, v in r.items() if k.endswith(COUNT_SUFFIXES)} for r in runs]
        assert counts[0] == counts[1], workload
        assert any(counts[0].values()), workload


def test_missing_program_exits_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (tmp_path / "perfbench" / name).write_text(open(os.path.join(BENCH, name)).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _corrupt_band_set(band_set):
    bands = list(band_set.bands)
    b = bands[-1]
    turn = np.exp(0.01j)  # every value of the band off by a small phase
    bands[-1] = dataclasses.replace(b, samples=b.samples * turn, fourier=b.fourier * turn)
    return dataclasses.replace(band_set, bands=tuple(bands))


def test_corrupted_bands_count_as_failures():
    ens = workloads.Ensemble(seed=5, tiny=True)
    op = ens.round(0)[1]
    out = op.call()
    tally = Tally()
    tally.run(op)
    assert tally.failures == [] and tally.attempted == 1

    def corrupted():
        return {
            g: (dataclasses.replace(dec, band_set=_corrupt_band_set(dec.band_set)), verdict, rep)
            for g, (dec, verdict, rep) in out.items()
        }

    tally.run(workloads.Op(op.label, corrupted, op.check))
    assert len(tally.failures) == 1 and tally.attempted == 2


def test_corrupted_dynamics_and_cli_outputs_count_as_failures():
    dyn = workloads.Dynamics(seed=5, tiny=True)
    dyn.prepare()
    op = dyn.round(0)[0]
    states, snaps, back, law, ks = op.call()
    drifted = dataclasses.replace(states[-1], amplitudes=states[-1].amplitudes * (1 + 1e-6))
    bad = (states[:-1] + [drifted], snaps, back, law, ks)
    tally = Tally()
    tally.run(workloads.Op(op.label, lambda: bad, op.check))

    cli = workloads.Cli(seed=5, tiny=True)
    op = cli.round(0)[0]  # analyze grover4
    doc = {"monodromy": [2, 1, 1], "bands": [], "realizable": False, "det_winding": 0}
    tally.run(workloads.Op(op.label, lambda: (0, json.dumps(doc)), op.check))
    tally.run(workloads.Op(op.label, lambda: (2, ""), op.check))
    tally.run(workloads.Op(op.label, lambda: (3, ""), op.check))
    assert len(tally.failures) == 3
    assert tally.refused == [op.label]  # exit code 3 is the documented refusal


def test_variants_are_fresh_inputs_with_the_same_bands_turned():
    base = inputs.random_walk(7)
    var, phase = inputs.variant(base, np.random.default_rng(1))
    assert any(not np.allclose(var.terms[j], base.terms[j]) for j in base.terms)
    ks = np.linspace(0.0, 2.0 * np.pi, 5)
    for got, want in zip(inputs.fiber_eigvals(var, ks), phase * inputs.fiber_eigvals(base, ks)):
        assert inputs.multiset_error(got, want) < 1e-12
    parsed = qwalk.parse_walk_spec(inputs.spec_json(var))
    assert parsed.n == var.n and sorted(parsed.terms) == sorted(var.terms)
    assert all(np.array_equal(parsed.terms[j], var.terms[j]) for j in var.terms)


def test_pool_walks_are_distinct_and_none_was_rejected():
    pool = inputs.load_pool()
    rejected = {(r["kind"], json.dumps(r["entry"])) for r in pool["rejected"]}
    for kind in ("ensemble", "power2", "power3", "sum"):
        for n, entries in pool[kind].items():
            keys = [json.dumps(e) for e in entries]
            assert len(set(keys)) == len(keys) >= 5, (kind, n)
            assert not rejected & {(kind, k) for k in keys}, (kind, n)
            seeds = [e[0] if kind == "sum" else e for e in entries]
            shift_max = 2 if kind.startswith("power") else 3
            assert all(inputs.random_walk(s, shift_max=shift_max).n == int(n) for s in seeds)
