"""Seeded walk generators and the oracles that check the program's answers.

Everything here is the benchmark's own code.  The program only ever sees
the WalkSpec objects built here; the oracles recompute the symbol from
the coefficient matrices with plain numpy, so a check never trusts the
code it is checking.
"""

from __future__ import annotations

import json
import os

import numpy as np
from scipy.linalg import qr
from scipy.optimize import linear_sum_assignment

import qwalk
from qwalk import fixtures

POOL_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pool.json")
N_MAX = 5  # random walks have coin dimension 1 <= n < N_MAX
FIBERS_CHECKED = 4  # seeded fibers compared per band set
FIBER_TOL = 1e-7


def random_walk(seed: int, shift_max: int = 3):
    """Seeded shift-block x coin walk: n < N_MAX, |shift| <= shift_max.

    Same formula as the property suites' generator: a Haar-random coin
    (QR of a complex Gaussian with the phases of R's diagonal folded into
    Q) and one random shift exponent per row.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, N_MAX))
    shifts = rng.integers(-shift_max, shift_max + 1, n)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = qr(z)
    coin = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return fixtures.shift_coin_walk(tuple(int(s) for s in shifts), coin)


def walks_of_dimensions(rng, dims, shift_max: int = 3) -> list:
    """(seed, random_walk(seed)) with coin dimension dims[i] for the i-th walk.

    Seeds are drawn from rng and kept only when the formula gives the
    wanted n.  n is uniform in the formula, so this is a stratified sample
    of the same walks: every run holds the same mix of dimensions, which
    keeps run-to-run timing spread down.
    """
    out = []
    for n in dims:
        seed = int(rng.integers(0, 2**31))
        while int(np.random.default_rng(seed).integers(1, N_MAX)) != n:
            seed = int(rng.integers(0, 2**31))
        out.append((seed, random_walk(seed, shift_max=shift_max)))
    return out


def load_pool() -> dict:
    """pool.json: the seeded walks the workloads draw from (see screen.py)."""
    with open(POOL_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def product(a, b):
    """The walk U_a U_b: coefficient j is sum over c + d = j of A_c B_d."""
    terms: dict[int, np.ndarray] = {}
    for c, ac in a.terms.items():
        for d, bd in b.terms.items():
            terms[c + d] = terms.get(c + d, 0) + ac @ bd
    return qwalk.WalkSpec(n=a.n, terms=terms)


def power(spec, p: int):
    """U^p by repeated products."""
    out = spec
    for _ in range(p - 1):
        out = product(out, spec)
    return out


def modulate(spec, alpha: float):
    """U_alpha with coefficients e^{i alpha j} A_j; its symbol is U_hat(k + alpha)."""
    return qwalk.WalkSpec(
        n=spec.n,
        terms={j: np.exp(1j * alpha * j) * a for j, a in spec.terms.items()},
    )


def direct_sum(a, b):
    """Block-diagonal U_a (+) U_b."""
    n = a.n + b.n
    terms = {}
    for j in set(a.terms) | set(b.terms):
        mat = np.zeros((n, n), dtype=complex)
        if j in a.terms:
            mat[: a.n, : a.n] = a.terms[j]
        if j in b.terms:
            mat[a.n :, a.n :] = b.terms[j]
        terms[j] = mat
    return qwalk.WalkSpec(n=n, terms=terms)


def adjoint(spec):
    """U^* = sum_j S^{-j} (x) A_j^*."""
    return qwalk.WalkSpec(n=spec.n, terms={-j: a.conj().T for j, a in spec.terms.items()})


def variant(spec, rng):
    """(e^{i phi} D U D^*, e^{i phi}) for a seeded diagonal unitary D and phase phi.

    The variant has the same bands turned by e^{i phi}, the same integer
    invariants and the same cost, but other coefficients: a repeat of an
    operation on a variant is a fresh input, so no result can be reused.
    """
    d = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, spec.n))
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    terms = {j: phase * d[:, None] * a * d.conj()[None, :] for j, a in spec.terms.items()}
    return qwalk.WalkSpec(n=spec.n, terms=terms), phase


def spec_json(spec) -> str:
    """The walk-spec wire format: {"n", "terms": [{"shift", "matrix": [[[re, im]]]}]}."""
    terms = [
        {"shift": int(j), "matrix": [[[z.real, z.imag] for z in row] for row in a.tolist()]}
        for j, a in sorted(spec.terms.items())
    ]
    return json.dumps({"n": spec.n, "terms": terms})


# ---------------------------------------------------------------- oracles


class CheckFailed(AssertionError):
    """An output of the program disagrees with its oracle."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def symbol(spec, ks) -> np.ndarray:
    """U_hat(k) = sum_j e^{ijk} A_j, shape (len(ks), n, n)."""
    ks = np.asarray(ks, dtype=float)
    out = np.zeros((ks.size, spec.n, spec.n), dtype=complex)
    for j, a in spec.terms.items():
        out += np.exp(1j * j * ks)[:, None, None] * a
    return out


def fiber_eigvals(spec, ks) -> np.ndarray:
    """Eigenvalues of the symbol at each k, shape (len(ks), n)."""
    return np.linalg.eigvals(symbol(spec, ks))


def multiset_error(got, want) -> float:
    """Largest distance after optimally pairing two equal-size multisets."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return np.inf
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def det_winding(spec, grid: int = 4096) -> int:
    """Winding of det U_hat around the base torus, from the coefficients."""
    while True:
        ks = 2.0 * np.pi * np.arange(grid) / grid
        dets = np.linalg.det(symbol(spec, ks))
        turns = float(np.angle(np.roll(dets, -1) / dets).sum() / (2.0 * np.pi))
        if abs(turns - round(turns)) < 1e-6 or grid >= 1 << 16:
            return int(round(turns))
        grid *= 2


def signature(band_set) -> list:
    """Integer invariants per band: degree, winding, minimal period, multiplicity."""
    return sorted(
        (b.degree, b.winding, 0 if b.is_constant else b.min_period, b.multiplicity)
        for b in band_set.bands
    )


def check_fibers(band_set, want_at, rng) -> None:
    """Band values over seeded grid fibers equal the oracle's eigenvalues.

    want_at(ks) returns the expected multiset per k, shape (len(ks), n).
    """
    G = band_set.grid_size
    ks = 2.0 * np.pi * rng.integers(0, G, FIBERS_CHECKED) / G
    want = want_at(ks)
    for k, w in zip(ks, want):
        err = multiset_error(band_set.sheet_values_at(k), w)
        require(err < FIBER_TOL, "fiber at k=%.6f is off by %.2e" % (k, err))


def check_winding_sum(band_set, det_w: int) -> None:
    total = sum(b.winding * b.multiplicity for b in band_set.bands)
    require(total == det_w, "band windings sum to %d, det winding is %d" % (total, det_w))


def coined_values(r: float, ks, phase: complex = 1.0) -> np.ndarray:
    """Closed form of coined(r): r cos k +- i sqrt(1 - r^2 cos^2 k), turned by phase."""
    c = r * np.cos(np.asarray(ks))
    root = 1j * np.sqrt(1.0 - c * c)
    return phase * np.stack([c + root, c - root], axis=1)


def check_grover4(band_set, phase: complex = 1.0) -> None:
    """grover4 (turned by phase) against its closed form: constants +-1, two winding bands."""
    consts = sorted(float((b.samples[0] / phase).real) for b in band_set.bands if b.is_constant)
    require(
        len(consts) == 2 and abs(consts[0] + 1) < 1e-10 and abs(consts[1] - 1) < 1e-10,
        "grover4 constant bands are %r, expected -1 and 1" % (consts,),
    )
    for b in band_set.bands:
        if b.is_constant:
            continue
        k = b.kgrid
        want = -(np.cos(k) + np.cos(3 * k)) / 2 - b.winding * 1j * np.sin(k) * np.sqrt(
            1 + 4 * np.cos(k) ** 4
        )
        err = float(np.max(np.abs(b.samples / phase - want)))
        require(err < 1e-8, "grover4 band of winding %d is off by %.2e" % (b.winding, err))
