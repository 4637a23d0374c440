"""End-to-end checks of every shipped capability at pinned tolerances.

Each test fixes its numeric contract inline: closed-form band values,
exact integer invariants, distribution distances, and wall-clock guards
on the heavy paths.  These are the tests that must stay green for a
release.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from qwalk import (
    WalkSpec,
    basis_state,
    build_intertwiner,
    decompose,
    det_winding,
    evolve,
    find_translation,
    intertwiner_residual,
    intertwiner_space,
    is_ct_realizable,
    kolmogorov_distance,
    limit_law,
    model_walk_matrix,
    position_distribution,
    empirical_moment,
    sample_bands,
    symbol_at,
    uniform_coin_state,
    witness_step,
)
from qwalk.fixtures import (
    coined,
    cube_root,
    det_winding_walk,
    grover3,
    grover3_subwalk,
    grover4,
    grover4_subwalk,
)

from conftest import random_walk


def deck_matched_error(band, oracle_values, grid_size):
    """Max deviation minimized over deck transformations of the cover."""
    best = np.inf
    for r in range(band.degree):
        rolled = np.roll(band.samples, r * grid_size)
        best = min(best, np.max(np.abs(rolled - oracle_values)))
    return best


def modulate(spec, alpha):
    return WalkSpec(
        n=spec.n,
        terms={j: np.exp(1j * alpha * j) * a for j, a in spec.terms.items()},
    )


def test_grover4_bands_windings_and_verdict():
    t0 = time.monotonic()
    spec = grover4()
    dec = decompose(spec, 2048)
    verdict = is_ct_realizable(spec, 2048)
    elapsed = time.monotonic() - t0

    bands = dec.band_set.bands
    consts = sorted(b.samples[0].real for b in bands if b.is_constant)
    assert consts == pytest.approx([-1.0, 1.0], abs=1e-10)

    windings = []
    for b in bands:
        windings.extend([b.winding] * b.multiplicity)
    assert sorted(windings) == [-1, 0, 0, 1]

    for b in bands:
        if b.is_constant:
            continue
        k = b.kgrid
        oracle = -(np.cos(k) + np.cos(3 * k)) / 2 - b.winding * 1j * np.sin(
            k
        ) * np.sqrt(1 + 4 * np.cos(k) ** 4)
        assert np.max(np.abs(b.samples - oracle)) < 1e-8

    assert verdict.realizable is False
    assert verdict.det_winding == 0
    assert elapsed < 5.0


def test_grover3_monodromy_cover_band_and_witness():
    spec = grover3()
    band_set = sample_bands(spec, 2048)
    lengths = []
    for b in band_set.bands:
        lengths.extend([b.degree] * b.multiplicity)
    assert sorted(lengths) == [1, 2]

    (deg2,) = [b for b in band_set.bands if b.degree == 2]
    kt = deg2.kgrid
    oracle = -(2 + np.cos(kt)) / 3 - (1j / 3) * np.sin(kt / 2) * np.sqrt(
        10 + 2 * np.cos(kt)
    )
    assert deck_matched_error(deg2, oracle, 2048) < 1e-8
    assert deg2.winding == 0

    verdict = is_ct_realizable(spec, 2048)
    assert verdict.realizable is True
    for t, s in [(0.3, 1.1), (0.7, -2.5), (np.pi, 0.25)]:
        w_t = witness_step(verdict, t)
        w_s = witness_step(verdict, s)
        w_ts = witness_step(verdict, t + s)
        for a, b, c in zip(w_t, w_s, w_ts):
            assert np.max(np.abs(a * b - c)) < 1e-9


def test_cube_root_prime_refinement_bookkeeping():
    t0 = time.monotonic()
    dec = decompose(cube_root(), 2048)
    elapsed = time.monotonic() - t0

    lengths = []
    for b in dec.band_set.bands:
        lengths.extend([b.degree] * b.multiplicity)
    assert lengths == [3]

    assert dec.constants == ()
    assert sum(p.multiplicity for p in dec.primes) == 2
    assert all(p.rate == Fraction(2, 3) for p in dec.primes)

    total = Fraction(0)
    for p in dec.primes:
        total += p.multiplicity / p.rate
    assert total == Fraction(3)
    assert elapsed < 5.0


def test_det_winding_walk_obstruction():
    spec = det_winding_walk(0.6, 0.8)
    assert det_winding(spec) == 1
    verdict = is_ct_realizable(spec, 512)
    assert verdict.realizable is False


def test_coined_walk_moments_and_support():
    t0 = time.monotonic()
    spec = coined(0.5)
    dec = decompose(spec, 512)
    assert all(b.winding == 0 for b in dec.band_set.bands)
    assert is_ct_realizable(spec, 512).realizable is True

    st = uniform_coin_state(2)
    law = limit_law(dec, st)
    snap = position_distribution(evolve(spec, st, 400), 400)
    for order in range(1, 5):
        assert empirical_moment(snap, order) == pytest.approx(
            law.moment(order), abs=0.05
        )

    outside = np.abs(snap.sites / snap.t) > 0.55
    assert float(snap.masses[outside].sum()) < 1e-3
    assert time.monotonic() - t0 < 60.0


def test_grover4_limit_law_kolmogorov(grover4_dec):
    st = uniform_coin_state(4)
    law = limit_law(grover4_dec, st)
    snap = position_distribution(evolve(grover4(), st, 400), 400)
    assert kolmogorov_distance(law, snap) <= 0.03


def test_grover3_localization_mass(grover3_dec):
    st = basis_state(3, 1)
    law = limit_law(grover3_dec, st)
    atom_mass = sum(m for v, m in law.atoms if v == 0.0)
    snap = position_distribution(evolve(grover3(), st, 400), 400)
    central = np.abs(snap.sites / snap.t) < 0.02
    sim_mass = float(snap.masses[central].sum())
    assert sim_mass > 0.0
    assert sim_mass == pytest.approx(atom_mass, abs=0.03)


def all_pair_kinds(dec1, dec2):
    kinds = []
    for s1 in list(dec1.constants) + list(dec1.primes):
        for s2 in list(dec2.constants) + list(dec2.primes):
            kinds.append(intertwiner_space(s1, s2).kind)
    return kinds


def test_intertwiner_classification_and_construction():
    dec_g4 = decompose(grover4(), 512)
    dec_sub = decompose(grover4_subwalk(), 512)
    kinds = all_pair_kinds(dec_g4, dec_sub)
    assert kinds.count("model_translation") == 2
    assert set(kinds) <= {"model_translation", "zero"}

    kinds = all_pair_kinds(decompose(grover3_subwalk(), 512), dec_sub)
    assert set(kinds) == {"zero"}

    kinds = all_pair_kinds(decompose(coined(0.3), 512), decompose(coined(0.7), 512))
    assert set(kinds) == {"zero"}

    # explicit window matrix from a translated pair of prime bands
    alpha = 1.3
    base = decompose(coined(0.5), 512)
    shifted = decompose(modulate(coined(0.5), alpha), 512)
    p1 = base.primes[0]
    hits = [
        (p1, p2, find_translation(p1.band, p2.band))
        for p2 in shifted.primes
    ]
    hits = [h for h in hits if h[2] is not None]
    assert len(hits) == 1
    p1, p2, match = hits[0]
    assert match.alpha == pytest.approx(alpha, abs=1e-9)

    v = build_intertwiner(match, p1.rate, 256)
    u1 = model_walk_matrix(p1.band, 256)
    u2 = model_walk_matrix(p2.band, 256)
    assert intertwiner_residual(u1, u2, v, margin=16) < 1e-6

    # mass of column y concentrates at row/column ratio 1
    wide = build_intertwiner(match, p1.rate, 512)
    y = 200
    col = np.abs(wide[:, y + 256]) ** 2
    ratios = (np.arange(512) - 256) / y
    near = (ratios > 0.9) & (ratios < 1.1)
    assert float(col[near].sum()) >= 0.95 * float(col.sum()) > 0.0


def test_random_walk_ensemble_invariants():
    t0 = time.monotonic()
    for seed in range(200):
        spec = random_walk(seed)
        bs1 = sample_bands(spec, 128)
        bs2 = sample_bands(spec, 256)

        rng = np.random.default_rng(1000 + seed)
        for g in rng.integers(0, 256, 16):
            k = 2.0 * np.pi * g / 256
            got = np.sort_complex(bs2.sheet_values_at(k))
            want = np.sort_complex(np.linalg.eigvals(symbol_at(spec, k)))
            assert np.max(np.abs(got - want)) < 1e-7, seed

        assert all(isinstance(b.winding, int) for b in bs2.bands), seed
        total = sum(b.winding * b.multiplicity for b in bs2.bands)
        assert total == det_winding(spec), seed

        sig1 = sorted(
            (b.degree, b.winding, 0 if b.is_constant else b.min_period, b.multiplicity)
            for b in bs1.bands
        )
        sig2 = sorted(
            (b.degree, b.winding, 0 if b.is_constant else b.min_period, b.multiplicity)
            for b in bs2.bands
        )
        assert sig1 == sig2, seed

        for b1 in bs1.bands:
            cands = []
            for b2 in bs2.bands:
                if b2.degree != b1.degree:
                    continue
                for r in range(b2.degree):
                    rolled = np.roll(b2.samples, r * 256)[::2]
                    cands.append(np.max(np.abs(rolled - b1.samples)))
            assert cands and min(cands) < 1e-8, seed

        st = evolve(spec, basis_state(spec.n, 0), 100)
        assert abs(st.norm() - 1.0) < 1e-10, seed
    assert time.monotonic() - t0 < 600.0
