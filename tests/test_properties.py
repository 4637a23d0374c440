"""Randomized invariants over seeded walk ensembles plus limit-law checks.

The walk generator lives in conftest; every suite draws from the same
family so a failing seed reproduces everywhere.
"""

import numpy as np
import pytest

from qwalk import (
    WalkSpec,
    basis_state,
    commutator_norm,
    decompose,
    det_winding,
    evolve,
    intertwiner_space,
    kolmogorov_distance,
    limit_law,
    position_distribution,
    empirical_moment,
    sample_bands,
    symbol_at,
    uniform_coin_state,
)
from qwalk.fixtures import coined, free, grover3, grover4

from conftest import random_walk


def modulate(spec, alpha):
    return WalkSpec(
        n=spec.n,
        terms={j: np.exp(1j * alpha * j) * a for j, a in spec.terms.items()},
    )


def band_signature(band_set):
    return sorted(
        (b.degree, b.winding, 0 if b.is_constant else b.min_period, b.multiplicity)
        for b in band_set.bands
    )


def test_random_symbols_are_unitary():
    rng = np.random.default_rng(2024)
    for seed in range(50):
        spec = random_walk(seed)
        for k in rng.uniform(0.0, 2.0 * np.pi, 8):
            u = symbol_at(spec, k)
            assert np.linalg.norm(u @ u.conj().T - np.eye(spec.n)) < 1e-12


def test_fiber_values_match_symbol_eigenvalues():
    for seed in range(25):
        spec = random_walk(seed)
        band_set = sample_bands(spec, 256)
        rng = np.random.default_rng(1000 + seed)
        for g in rng.integers(0, 256, 32):
            k = 2.0 * np.pi * g / 256
            got = np.sort_complex(band_set.sheet_values_at(k))
            want = np.sort_complex(np.linalg.eigvals(symbol_at(spec, k)))
            assert np.max(np.abs(got - want)) < 1e-7, seed


def test_winding_additivity_matches_det_winding():
    for seed in range(25):
        spec = random_walk(seed)
        band_set = sample_bands(spec, 256)
        total = sum(b.winding * b.multiplicity for b in band_set.bands)
        assert total == det_winding(spec), seed


def test_grid_doubling_is_stable():
    for seed in range(25):
        spec = random_walk(seed)
        bs1 = sample_bands(spec, 128)
        bs2 = sample_bands(spec, 256)
        assert band_signature(bs1) == band_signature(bs2), seed
        for b1 in bs1.bands:
            cands = []
            for b2 in bs2.bands:
                if b2.degree != b1.degree:
                    continue
                for r in range(b2.degree):
                    rolled = np.roll(b2.samples, r * 256)[::2]
                    cands.append(np.max(np.abs(rolled - b1.samples)))
            assert cands and min(cands) < 1e-8, seed


def test_group_velocities_respect_commutator_bound():
    for seed in range(20):
        spec = random_walk(seed)
        dec = decompose(spec, 256)
        bound = commutator_norm(spec)
        assert dec.commutator_bound == pytest.approx(bound, abs=1e-9)
        law = limit_law(dec, uniform_coin_state(spec.n))
        speeds = [abs(v) for v, _ in law.atoms]
        if law.velocities.size:
            speeds.append(float(np.abs(law.velocities).max()))
        assert max(speeds, default=0.0) <= bound + 1e-6, seed


def test_norm_drift_stays_tiny():
    st = evolve(grover4(), uniform_coin_state(4), 400)
    assert abs(st.norm() - 1.0) < 1e-10


@pytest.mark.parametrize(
    "make_spec,state_maker",
    [
        (lambda: coined(0.5), lambda: uniform_coin_state(2)),
        (free, lambda: basis_state(1, 0)),
    ],
)
def test_empirical_moments_approach_limit_law(make_spec, state_maker):
    spec = make_spec()
    dec = decompose(spec, 512)
    st = state_maker()
    law = limit_law(dec, st)
    snap = position_distribution(evolve(spec, st, 400), 400)
    for order in range(1, 5):
        assert empirical_moment(snap, order) == pytest.approx(
            law.moment(order), abs=0.05
        )


def test_moments_approach_law_grover3(grover3_dec):
    st = uniform_coin_state(3)
    law = limit_law(grover3_dec, st)
    snap = position_distribution(evolve(grover3(), st, 400), 400)
    for order in range(1, 5):
        assert empirical_moment(snap, order) == pytest.approx(
            law.moment(order), abs=0.05
        )


def test_moments_approach_law_grover4(grover4_dec):
    st = uniform_coin_state(4)
    law = limit_law(grover4_dec, st)
    snap = position_distribution(evolve(grover4(), st, 400), 400)
    for order in range(1, 5):
        assert empirical_moment(snap, order) == pytest.approx(
            law.moment(order), abs=0.05
        )


def test_kolmogorov_distance_extrapolates_to_zero():
    spec = coined(0.5)
    st = uniform_coin_state(2)
    law = limit_law(decompose(spec, 512), st)
    times = [100, 200, 400]
    ks = []
    cur, cur_t = st, 0
    for t in times:
        cur = evolve(spec, cur, t - cur_t)
        cur_t = t
        ks.append(kolmogorov_distance(law, position_distribution(cur, t)))
    assert ks[-1] < ks[0]
    # KS(t) ~ a + b / sqrt(t); the limit a should vanish
    slope, intercept = np.polyfit(1.0 / np.sqrt(times), ks, 1)
    assert intercept < 0.02
    assert slope > 0.0


def test_long_horizon_approaches_limit_law():
    # t = 10^4 is the weak-limit regime
    spec = coined(0.5)
    st = uniform_coin_state(2)
    law = limit_law(decompose(spec, 512), st)
    ks = {}
    for t in (400, 10_000):
        cur = evolve(spec, st, t)
        assert abs(cur.norm() - 1.0) <= 1e-10
        ks[t] = kolmogorov_distance(law, position_distribution(cur, t))
    assert ks[10_000] < ks[400]


def test_atoms_kept_out_of_histogram(grover3_dec):
    law = limit_law(grover3_dec, uniform_coin_state(3))
    assert [v for v, _ in law.atoms] == [0.0]
    atom_mass = sum(m for _, m in law.atoms)
    assert atom_mass > 0.1
    cont = float(law.weights.sum())
    assert cont + atom_mass == pytest.approx(1.0, abs=1e-8)
    assert float(law.bin_masses.sum()) == pytest.approx(cont, abs=1e-12)


def test_translations_recovered_for_random_shifts():
    base = decompose(coined(0.5), 512)
    rng = np.random.default_rng(77)
    for alpha in rng.uniform(0.1, 2.0 * np.pi - 0.1, 5):
        other = decompose(modulate(coined(0.5), alpha), 512)
        hits = []
        for p1 in base.primes:
            for p2 in other.primes:
                space = intertwiner_space(p1, p2)
                if space.match is not None:
                    hits.append(space.match.alpha)
        assert len(hits) == 2
        for got in hits:
            assert abs(np.exp(1j * got) - np.exp(1j * alpha)) < 1e-9
