"""The four workloads: seeded inputs, one operation each, and its checks.

Every workload is a closed loop with one client: the next operation
starts when the previous one has returned.  A workload has a fixed list
of operation kinds and hands the harness rounds of operations, one per
kind; repeats of a kind let the harness take each kind's best time.  In
ensemble and crossings round r runs each kind on a fresh seeded variant
of its walk; dynamics and cli repeat one fixed schedule.  An operation's
`call` makes only program calls (that is what gets timed); its `check`
compares the result against oracles from inputs.py and returns False
when the program refused with UnresolvedCrossing.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import qwalk
import qwalk.cli
from qwalk import fixtures

import inputs
from inputs import require

HERE = os.path.dirname(os.path.abspath(__file__))
TWO_PI = 2.0 * np.pi
VARIANTS = 8  # inputs made per operation kind; round r uses variant r mod VARIANTS


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    # for an operation run in a child process: output -> (seconds the
    # child spent in calibration kernels, their mean time); see calib.py
    child_calibration: Callable[[object], tuple] | None = None


def _pooled(rng, kind: str, dims) -> list:
    """Distinct seeded entries of pool.json[kind], one per coin dimension in dims."""
    pool = inputs.load_pool()[kind]
    drawn = {}
    for n in sorted(set(dims)):
        entries = pool[str(n)]
        drawn[n] = [entries[i] for i in rng.choice(len(entries), size=list(dims).count(n), replace=False)]
    return [drawn[n].pop() for n in dims]


def _answers(out: dict) -> dict:
    """Per-grid results that are answers, not UnresolvedCrossing refusals."""
    return {g: r for g, r in out.items() if not isinstance(r, qwalk.UnresolvedCrossing)}


def _same_signature(answered: dict) -> None:
    sigs = {g: inputs.signature(r[0].band_set) for g, r in answered.items()}
    require(len({repr(s) for s in sigs.values()}) <= 1, "invariants change with the grid: %r" % sigs)


class Ensemble:
    """parse_walk_spec + decompose + is_ct_realizable + commutant_report.

    The operation kinds are grover4, whose bands have a closed form, and
    ten seeded walks from pool.json of coin dimensions 1, 2, 2, 3, 3, 3,
    3, 3, 4, 4:
    cost grows with n, so the median operation is the middle one of five
    n = 3 walks, which keeps the seed from moving op_p50_ms.  One
    operation is one walk at both grids, so that the integer invariants
    can be compared under grid refinement; it starts from the walk's
    JSON text, as a caller with a spec file does.  Round r runs every
    kind on its r-th variant (inputs.variant): a repeat costs the same
    but is a fresh input.
    """

    name = "ensemble"
    trace_rounds = 2

    def __init__(self, seed: int, tiny: bool):
        self.grids = (64, 128) if tiny else (256, 2048)
        rng = np.random.default_rng(seed)
        dims = (1, 2) if tiny else (1, 2, 2, 3, 3, 3, 3, 3, 4, 4)
        walks = [("grover4", fixtures.build_fixture("grover4"), inputs.check_grover4)]
        walks += [("walk(%d)" % s, inputs.random_walk(s), None) for s in _pooled(rng, "ensemble", dims)]
        self.kinds = []
        for label, spec, closed_form in walks:
            variants = [inputs.variant(spec, rng) for _ in range(VARIANTS)]
            texts = [inputs.spec_json(v) for v, _ in variants]
            self.kinds.append((label, variants, texts, closed_form))

    def prepare(self) -> None:
        self._analyze(fixtures.build_fixture("coined(0.5)"), (self.grids[0],))

    def _analyze(self, spec, grids) -> dict:
        out = {}
        for g in grids:
            try:
                dec = qwalk.decompose(spec, g)
                out[g] = (dec, qwalk.is_ct_realizable(spec, g), qwalk.commutant_report(dec))
            except qwalk.UnresolvedCrossing as exc:
                out[g] = exc
        return out

    def _op(self, label, spec, phase, text, closed_form, check_seed) -> Op:
        def check(out) -> bool:
            answered = _answers(out)
            rng = np.random.default_rng(check_seed)
            det_w = inputs.det_winding(spec)
            for dec, verdict, report in answered.values():
                bs = dec.band_set
                inputs.check_fibers(bs, lambda ks: inputs.fiber_eigvals(spec, ks), rng)
                inputs.check_winding_sum(bs, verdict.det_winding)
                require(verdict.det_winding == det_w, "det winding %d, oracle %d" % (verdict.det_winding, det_w))
                require(
                    verdict.realizable == all(b.winding == 0 for b in bs.bands),
                    "realizability verdict contradicts the band windings",
                )
                require(
                    sum(c.size for c in report.constant_classes) == sum(c.multiplicity for c in dec.constants)
                    and sum(p.size for p in report.prime_classes) == sum(p.multiplicity for p in dec.primes),
                    "commutant classes do not partition the summands",
                )
                if closed_form is not None:
                    closed_form(bs, phase)
            _same_signature(answered)
            return len(answered) == len(out)

        return Op(label, lambda: self._analyze(qwalk.parse_walk_spec(text), self.grids), check)

    def round(self, r: int) -> list:
        v = r % VARIANTS
        return [
            self._op(label, *variants[v], texts[v], closed_form, [r, i])
            for i, (label, variants, texts, closed_form) in enumerate(self.kinds)
        ]


class Crossings:
    """decompose at both grids on walks with genuine band crossings.

    The operation kinds are the four walks the project knows to be
    unresolved, coined(r) with r = 1 - 10^-m at fixed m, and for each coin
    dimension 2 to 4 a seeded U^2 and U^3 (|shift| <= 2) and a seeded
    U (+) U_alpha, drawn from pool.json.  Round r runs every kind on the
    r-th variant of its base walk (inputs.variant).
    """

    name = "crossings"
    trace_rounds = 1
    # m where decompose answers at both grids; from m ~ 4.15 (grid 256)
    # and ~ 5.95 (grid 2048) to ~ 8 it returns wrong invariants without
    # raising, so no operation of the benchmark may use those r
    COINED_M = (2.5, 3.5)

    def __init__(self, seed: int, tiny: bool):
        self.grids = (64, 128) if tiny else (256, 2048)
        rng = np.random.default_rng(seed)
        kinds = [
            self._power("U^3 of walk(3, shift<=2)", inputs.random_walk(3, shift_max=2), 3),
            self._power("U^2 of walk(29, shift<=2)", inputs.random_walk(29, shift_max=2), 2),
            self._sum("U+U_0.5 of walk(4)", inputs.random_walk(4), 0.5),
            self._coined(1.0 - 1e-9),
        ]
        kinds += [self._coined(1.0 - 10.0**-m) for m in self.COINED_M[: 1 if tiny else None]]
        for n in (2,) if tiny else (2, 3, 4):
            (s2,), (s3,), ((s4, alpha),) = (_pooled(rng, kind, (n,)) for kind in ("power2", "power3", "sum"))
            kinds += [
                self._power("U^2 of walk(%d, shift<=2)" % s2, inputs.random_walk(s2, shift_max=2), 2),
                self._power("U^3 of walk(%d, shift<=2)" % s3, inputs.random_walk(s3, shift_max=2), 3),
                self._sum("U+U_%.3f of walk(%d)" % (alpha, s4), inputs.random_walk(s4), alpha),
            ]
        # kind -> its VARIANTS operations, built here so that no input
        # construction is timed
        self.kinds = [
            [self._op(label, *build(*inputs.variant(base, rng))) for _ in range(VARIANTS)]
            for label, base, build in kinds
        ]

    def prepare(self) -> None:
        qwalk.decompose(fixtures.build_fixture("coined(0.5)"), self.grids[0])

    @staticmethod
    def _power(label, base, p):
        det_w = p * inputs.det_winding(base)

        def build(u, phase):
            want = lambda ks: inputs.fiber_eigvals(u, ks) ** p
            return inputs.power(u, p), want, det_w, None

        return label, base, build

    @staticmethod
    def _sum(label, base, alpha):
        det_w = 2 * inputs.det_winding(base)

        def build(u, phase):
            want = lambda ks: np.concatenate(
                [inputs.fiber_eigvals(u, ks), inputs.fiber_eigvals(u, ks + alpha)], axis=1
            )
            return inputs.direct_sum(u, inputs.modulate(u, alpha)), want, det_w, None

        return label, base, build

    @staticmethod
    def _coined(r):
        def build(u, phase):
            # for r < 1 the two closed-form bands never touch: two degree-1
            # bands of winding 0 and minimal period 1
            want = lambda ks: inputs.coined_values(r, ks, phase)
            return u, want, 0, [(1, 0, 1, 1), (1, 0, 1, 1)]

        return "coined(%r)" % r, fixtures.build_fixture("coined(%r)" % r), build

    def _op(self, label, spec, want_at, det_w, signature) -> Op:
        def call() -> dict:
            out = {}
            for g in self.grids:
                try:
                    out[g] = (qwalk.decompose(spec, g),)
                except qwalk.UnresolvedCrossing as exc:
                    out[g] = exc
            return out

        def check(out) -> bool:
            answered = _answers(out)
            rng = np.random.default_rng(zlib.crc32(label.encode()))
            for g, (dec,) in answered.items():
                inputs.check_fibers(dec.band_set, want_at, rng)
                inputs.check_winding_sum(dec.band_set, det_w)
                got = inputs.signature(dec.band_set)
                require(signature in (None, got), "grid %d gives invariants %r" % (g, got))
            _same_signature(answered)
            return len(answered) == len(out)

        return Op(label, call, check)

    def round(self, r: int) -> list:
        return [ops[r % VARIANTS] for ops in self.kinds]


@dataclass
class Trajectory:
    label: str
    spec: object
    state: object
    horizon: int
    fixture: bool = False
    dec: object = None


class Dynamics:
    """evolve to t/4, t/2, t, then position_distribution, limit_law, KS.

    Horizons reach 4000 steps; at 2500 steps grover4's window (15 001
    sites x 4 x 16 B, 0.96 MB per array, three arrays live) outgrows a
    2 MB L2.  The negative horizon runs the adjoint path and returns to
    t = 0 to close a round trip.  Decompositions (grid 1024) are set-up
    work, done once per walk.
    """

    name = "dynamics"
    trace_rounds = 1

    def __init__(self, seed: int, tiny: bool):
        scale = 4 if tiny else 1
        self.grid = 256 if tiny else 1024
        build = fixtures.build_fixture
        g4, g3, c = build("grover4"), build("grover3"), build("coined(0.5)")
        u = qwalk.uniform_coin_state
        e = qwalk.basis_state
        self.plan = [
            Trajectory("grover4 uniform", g4, u(4), 2500 // scale, fixture=True),
            Trajectory("grover4 e0", g4, e(4, 0), 1000 // scale, fixture=True),
            Trajectory("grover3 uniform", g3, u(3), 4000 // scale, fixture=True),
            Trajectory("grover3 e1", g3, e(3, 1), 2000 // scale, fixture=True),
            Trajectory("coined(0.5) uniform", c, u(2), 4000 // scale, fixture=True),
            Trajectory("coined(0.5) e0", c, e(2, 0), -1500 // scale, fixture=True),
        ]
        rng = np.random.default_rng(seed)
        # short enough that all five cost less than any fixture trajectory
        walks = _pooled(rng, "ensemble", (4, 3, 2, 4, 3))
        for horizon, s in zip((200, 300, 400, 500, 600), walks):
            spec = inputs.random_walk(s)
            comp = int(rng.integers(0, spec.n + 1))
            state = u(spec.n) if comp == spec.n else e(spec.n, comp)
            name = "uniform" if comp == spec.n else "e%d" % comp
            self.plan.append(Trajectory("walk(%d) %s" % (s, name), spec, state, horizon // scale))

    def prepare(self) -> None:
        """Set-up: decompose each walk once (its adjoint for a negative horizon)."""
        done = {}
        for tr in self.plan:
            key = (id(tr.spec), tr.horizon < 0)
            if key not in done:
                walk = inputs.adjoint(tr.spec) if tr.horizon < 0 else tr.spec
                try:
                    done[key] = qwalk.decompose(walk, self.grid)
                except qwalk.UnresolvedCrossing as exc:
                    done[key] = exc
            tr.dec = done[key]
        qwalk.evolve(self.plan[0].spec, self.plan[0].state, 8)

    def _op(self, tr: Trajectory) -> Op:
        sign = 1 if tr.horizon > 0 else -1
        T = abs(tr.horizon)
        checkpoints = sorted({max(T // 4, 1), max(T // 2, 1), T})

        def call():
            cur, done, states, snaps = tr.state, 0, [], []
            for t in checkpoints:
                cur = qwalk.evolve(tr.spec, cur, sign * (t - done))
                done = t
                states.append(cur)
                snaps.append(qwalk.position_distribution(cur, t))
            back = qwalk.evolve(tr.spec, cur, T) if sign < 0 else None
            if isinstance(tr.dec, qwalk.UnresolvedCrossing):
                return states, snaps, back, None, None
            law = qwalk.limit_law(tr.dec, tr.state)
            return states, snaps, back, law, qwalk.kolmogorov_distance(law, snaps[-1])

        def check(out) -> bool:
            states, snaps, back, law, ks = out
            amps0 = tr.state.amplitudes
            norm0 = float(np.vdot(amps0, amps0).real)
            for t, st, snap in zip(checkpoints, states, snaps):
                nrm = float(np.vdot(st.amplitudes, st.amplitudes).real)
                require(abs(nrm - norm0) <= 1e-10, "norm drift %.2e at t=%d" % (nrm - norm0, t))
                require(abs(snap.masses.sum() - norm0) <= 1e-10, "distribution mass off at t=%d" % t)
            if back is not None:
                lo = tr.state.x_min - back.x_min
                diff = back.amplitudes.copy()
                diff[lo : lo + amps0.shape[0]] -= amps0
                err = float(np.max(np.abs(diff)))
                require(err <= 1e-10, "t then -t round trip is off by %.2e" % err)
            if law is None:
                return False
            require(abs(law.total_mass() - norm0) <= 1e-9, "limit law mass %.12f" % law.total_mass())
            require(0.0 <= ks <= 1.0, "Kolmogorov distance %r outside [0, 1]" % ks)
            # the fixtures' laws are reached fast: measured KS <= 0.035 from t = 1000
            if tr.fixture and T >= 1000:
                require(ks <= 0.05, "Kolmogorov distance %.4f at t=%d" % (ks, T))
            return True

        return Op("%s t=%d" % (tr.label, tr.horizon), call, check)

    def round(self, r: int) -> list:
        return [self._op(tr) for tr in self.plan]


def _csv_rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


class Cli:
    """Each subcommand as a fresh `python -m qwalk` process, one at a time.

    Interpreter start and import are part of every call; `analyze`
    extracts the bands twice.  In the traced pass the same argv goes to
    cli.main in-process.
    """

    name = "cli"
    trace_rounds = 1

    def __init__(self, seed: int, tiny: bool):
        extra = ["--grid", "256"] if tiny else []
        self.grid = 256 if tiny else 2048
        self.rng_seed = seed
        self.commands = [
            (["analyze", "grover4"] + extra, self._check_analyze_grover4),
            (["analyze", "grover3", "--format", "csv"] + extra, self._check_band_csv),
            (["decompose", "cube_root"] + extra, self._check_cube_root),
            (["realizable", "grover3", "--format", "csv"] + extra, self._check_witness_csv),
            (["intertwine", "grover4", "grover4_subwalk"] + extra, self._check_intertwine),
            (["simulate", "coined(0.5)", "--steps", "400", "--limit-law"] + extra, self._check_simulate),
        ]
        self.grover3 = fixtures.build_fixture("grover3")
        self.inprocess = False

    @staticmethod
    def subprocess_argv(argv) -> list:
        """`python -m qwalk ARGV`, run through climain.py's calibration kernels."""
        return [sys.executable, os.path.join(HERE, "climain.py")] + list(argv)

    @staticmethod
    def _child_calibration(out) -> tuple:
        before, after = out[2]
        return before + after, 0.5 * (before + after)

    def prepare(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            qwalk.cli.main(["decompose", "cube_root", "--grid", "64"])

    def _call(self, argv):
        if not self.inprocess:
            proc = subprocess.run(self.subprocess_argv(argv), capture_output=True, text=True, timeout=120)
            last = proc.stderr.splitlines()[-1].split()
            require(last[0] == "CALIBRATION", "the child printed no calibration line")
            return proc.returncode, proc.stdout, (float(last[1]), float(last[2]))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qwalk.cli.main(argv)
        return code, out.getvalue()

    def round(self, r: int) -> list:
        ops = []
        for i, (argv, checker) in enumerate(self.commands):
            def check(out, checker=checker, salt=i):
                code, text = out[:2]
                if code == 3:
                    return False  # documented exit code of an unresolved crossing
                require(code == 0, "exit code %d" % code)
                checker(text, np.random.default_rng([self.rng_seed, r, salt]))
                return True

            ops.append(Op(" ".join(argv), lambda argv=argv: self._call(argv), check,
                          None if self.inprocess else self._child_calibration))
        return ops

    def _check_analyze_grover4(self, text, rng):
        doc = json.loads(text)
        windings = sorted(w for b in doc["bands"] for w in [b["winding"]] * b["multiplicity"])
        require(doc["monodromy"] == [1, 1, 1, 1], "monodromy %r" % doc["monodromy"])
        require(windings == [-1, 0, 0, 1], "windings %r" % windings)
        require(doc["realizable"] is False and doc["det_winding"] == 0, "grover4 verdict")

    def _check_band_csv(self, text, rng):
        rows = _csv_rows(text)
        require(len(rows) == self.grid + 1, "%d csv rows" % len(rows))
        require(len(rows[0]) == 1 + 2 * 3, "grover3 band csv needs 3 sheets")
        for row in (rows[1 + i] for i in rng.integers(0, self.grid, 8)):
            vals = np.array(row[1::2], dtype=float) + 1j * np.array(row[2::2], dtype=float)
            want = inputs.fiber_eigvals(self.grover3, [float(row[0])])[0]
            err = inputs.multiset_error(vals, want)
            require(err < 1e-8, "band csv off by %.2e at k=%s" % (err, row[0]))

    def _check_cube_root(self, text, rng):
        doc = json.loads(text)
        require(doc["constants"] == [], "cube_root has no constant summand")
        require(
            all(Fraction(p["rate"]["num"], p["rate"]["den"]) == Fraction(2, 3) for p in doc["primes"])
            and sum(p["mult"] for p in doc["primes"]) == 2,
            "cube_root is the rate 2/3 prime with multiplicity 2",
        )

    def _check_witness_csv(self, text, rng):
        rows = _csv_rows(text)
        require(rows[0] == ["band", "k", "h"], "witness csv header %r" % rows[0])
        require(len(rows) == 1 + 3 * self.grid, "%d witness rows" % len(rows))
        for row in (rows[1 + i] for i in rng.integers(0, 3 * self.grid, 8)):
            k, h = float(row[1]), float(row[2])
            want = inputs.fiber_eigvals(self.grover3, [k % TWO_PI])[0]
            err = float(np.min(np.abs(want - np.exp(1j * h))))
            require(err < 1e-8, "exp(ih) is %.2e from the fiber at k=%.6f" % (err, k))

    def _check_intertwine(self, text, rng):
        kinds = [p["kind"] for p in json.loads(text)["pairs"]]
        require(kinds.count("model_translation") == 2, "kinds %r" % kinds)
        require(set(kinds) <= {"model_translation", "zero"}, "kinds %r" % kinds)

    def _check_simulate(self, text, rng):
        doc = json.loads(text)
        law = doc["limit_law"]
        require(abs(doc["total_mass"] - 1.0) <= 1e-10, "total mass %r" % doc["total_mass"])
        mass = sum(law["bin_masses"]) + sum(m for _, m in law["atoms"])
        require(abs(mass - 1.0) <= 1e-8, "limit law mass %r" % mass)
        require(doc["kolmogorov_distance"] <= 0.1, "KS %r" % doc["kolmogorov_distance"])
        for m, v in doc["moments"].items():
            require(abs(v - law["moments"][m]) <= 0.05, "moment %s: %r vs %r" % (m, v, law["moments"][m]))


WORKLOADS = {w.name: w for w in (Cli, Ensemble, Dynamics, Crossings)}
