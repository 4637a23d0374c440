import json
import pickle

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qwalk import (
    UnitarityError,
    WalkSpec,
    WalkSpecError,
    amplify,
    commutator_norm,
    derivative_symbol_on_grid,
    direct_sum,
    parse_walk_spec,
    serialize_walk_spec,
    spec_digest,
    symbol_at,
    symbol_on_grid,
)
from qwalk import walkspec
from qwalk.fixtures import FIXTURES, build_fixture, coined, free, grover4, shift_coin_walk

from qwalk.walkspec import NORM_GRID, _speed_bound

from conftest import BAD_WALK_DOCUMENTS, random_walk


def test_parse_serialize_round_trip():
    spec = grover4()
    text = serialize_walk_spec(spec)
    back = parse_walk_spec(text)
    assert back.n == spec.n
    assert sorted(back.terms) == sorted(spec.terms)
    for j in spec.terms:
        np.testing.assert_allclose(back.terms[j], spec.terms[j], atol=1e-15)


def test_digest_stable_and_distinguishing():
    spec = grover4()
    again = parse_walk_spec(serialize_walk_spec(spec))
    assert spec_digest(spec) == spec_digest(again)
    assert spec_digest(spec) != spec_digest(free())


def test_non_unitary_coefficients_rejected():
    # halving one coefficient breaks sum_j A_{j+m} A_j^* = delta_m
    bad = {j: a.copy() for j, a in grover4().terms.items()}
    bad[1] = 0.5 * bad[1]
    with pytest.raises(UnitarityError) as err:
        WalkSpec(n=4, terms=bad)
    assert "residual" in str(err.value)


def test_parse_rejects_malformed_documents():
    with pytest.raises(WalkSpecError):
        parse_walk_spec("{}")
    with pytest.raises(WalkSpecError):
        parse_walk_spec(json.dumps({"n": 2, "terms": {"0": [[1, 0]]}}))
    with pytest.raises(WalkSpecError):
        parse_walk_spec("not json at all")
    for text in BAD_WALK_DOCUMENTS.values():
        with pytest.raises(WalkSpecError):
            parse_walk_spec(text)
    with pytest.raises(WalkSpecError, match="non-finite"):
        WalkSpec(n=2, terms={0: np.full((2, 2), np.nan)})


def test_symbol_is_unitary_pointwise():
    spec = grover4()
    rng = np.random.default_rng(7)
    for k in rng.uniform(0.0, 2.0 * np.pi, 16):
        u = symbol_at(spec, k)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_symbol_grid_matches_single_evaluations():
    spec = coined(0.3)
    ks = np.linspace(0.0, 2.0 * np.pi, 9)
    grid = symbol_on_grid(spec, ks)
    for i, k in enumerate(ks):
        np.testing.assert_allclose(grid[i], symbol_at(spec, k), atol=1e-14)


def test_commutator_norm_known_values():
    # free walk: d/dk e^{ik} has modulus one everywhere
    assert commutator_norm(free()) == pytest.approx(1.0, abs=1e-9)
    assert commutator_norm(FIXTURES["constant"](2)) == pytest.approx(0.0, abs=1e-12)


def reference_commutator_norm(spec):
    """Grid argmax on 2048, 4096, ... points polished by bounded Brent
    search, accepted once doubling the grid moves it by at most 1e-8."""
    if all(j == 0 for j in spec.terms):
        return 0.0

    def sigma_max(k):
        mat = np.zeros((spec.n, spec.n), dtype=np.complex128)
        for j, aj in spec.terms.items():
            if j != 0:
                mat += j * np.exp(1j * j * k) * aj
        return float(np.linalg.norm(mat, 2))

    prev = None
    g = 2048
    while g <= 2**15:
        ks = 2 * np.pi * np.arange(g) / g
        sig = np.linalg.svd(derivative_symbol_on_grid(spec, ks), compute_uv=False)
        best = int(np.argmax(sig[:, 0]))
        h = 2 * np.pi / g
        res = minimize_scalar(
            lambda k: -sigma_max(k),
            bounds=(ks[best] - h, ks[best] + h),
            method="bounded",
            options={"xatol": 1e-12},
        )
        cur = max(float(sig[:, 0].max()), -float(res.fun))
        if prev is not None and abs(cur - prev) <= 1e-8:
            return max(cur, prev)
        prev = cur
        g *= 2
    return prev


NORM_ORACLE_WALKS = (
    [(name, lambda name=name: build_fixture(name)) for name in sorted(FIXTURES)]
    + [("coined(0.3)", lambda: coined(0.3)), ("grover4 x I2", lambda: amplify(grover4(), 2))]
    + [
        ("walk(%d, %d)" % (seed, m), lambda seed=seed, m=m: random_walk(seed, shift_max=m))
        for m in (1, 2, 3)
        for seed in range(40)
    ]
)


@pytest.mark.parametrize("name,make_spec", NORM_ORACLE_WALKS, ids=[w[0] for w in NORM_ORACLE_WALKS])
def test_commutator_norm_matches_brent_polish(name, make_spec):
    assert abs(commutator_norm(make_spec()) - reference_commutator_norm(make_spec())) <= 1e-15


def test_commutator_norm_solves_one_grid(monkeypatch):
    sizes = []

    def counted(spec, ks):
        sizes.append(np.size(ks))
        return derivative_symbol_on_grid(spec, ks)

    monkeypatch.setattr(walkspec, "derivative_symbol_on_grid", counted)
    for spec in (grover4(), coined(0.3), random_walk(5, shift_max=3)):
        sizes.clear()
        commutator_norm(spec)
        assert [s for s in sizes if s > 2] == [NORM_GRID] == [2048]


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("name,make_spec", NORM_ORACLE_WALKS, ids=[w[0] for w in NORM_ORACLE_WALKS])
def test_weighted_symbol_matches_the_per_term_sum(name, make_spec, p):
    spec = make_spec()
    ks = np.concatenate([2 * np.pi * np.arange(2048) / 2048, [-1.0, 0.1, 7.5]])
    want = np.zeros((ks.size, spec.n, spec.n), dtype=complex)
    for j, a in spec.terms.items():
        want += (j**p * np.exp(1j * j * ks))[:, None, None] * a
    scale = sum(np.linalg.norm(a, 2) for a in spec.terms.values())
    assert np.max(np.abs(walkspec._weighted_symbol(spec, ks, p) - want)) <= 1e-15 * scale


def test_commutator_norm_polish_is_batched(monkeypatch):
    # one SVD for the grid and one per zoom level
    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    for _, make_spec in NORM_ORACLE_WALKS:
        calls.clear()
        commutator_norm(make_spec())
        assert len(calls) <= 12


def top_sigma(spec, g):
    ks = 2 * np.pi * np.arange(g) / g
    return np.linalg.svd(derivative_symbol_on_grid(spec, ks), compute_uv=False)[:, 0]


@pytest.mark.parametrize("name,make_spec", NORM_ORACLE_WALKS, ids=[w[0] for w in NORM_ORACLE_WALKS])
def test_grid_slack_bounds_the_supremum(name, make_spec):
    # sigma is Lipschitz with constant sum_j j^2 ||A_j||, so the unpolished
    # grid maximum plus half a grid step's worth of it bounds the supremum
    spec = make_spec()
    slack = sum(j * j * np.linalg.norm(a, 2) for j, a in spec.terms.items())
    fine = top_sigma(spec, 16384).max()
    assert top_sigma(spec, 2048).max() + np.pi / 2048 * slack >= fine
    assert _speed_bound(spec) >= fine


def test_direct_sum_and_amplify_block_structure():
    a, b = free(), coined(0.5)
    s = direct_sum(a, b)
    assert s.n == a.n + b.n
    k = 0.7
    u = symbol_at(s, k)
    np.testing.assert_allclose(u[:1, :1], symbol_at(a, k), atol=1e-14)
    np.testing.assert_allclose(u[1:, 1:], symbol_at(b, k), atol=1e-14)
    np.testing.assert_allclose(u[:1, 1:], 0, atol=1e-14)

    m = amplify(b, 3)
    assert m.n == 3 * b.n
    um = symbol_at(m, k)
    for c in range(3):  # copies are interleaved, kron(A_j, I)
        np.testing.assert_allclose(um[c::3, c::3], symbol_at(b, k), atol=1e-14)


def test_shifts_lists_occupied_terms():
    spec = shift_coin_walk((1, -1), np.eye(2))
    assert spec.shifts() == [-1, 1]


def test_spec_equality_compares_coefficients():
    spec = grover4()
    clone = pickle.loads(pickle.dumps(spec))
    assert spec == clone and hash(spec) == hash(clone)
    assert spec == grover4() and hash(spec) == hash(grover4())
    assert len({spec, clone, grover4()}) == 1
    # same n and shifts, different coefficients
    assert coined(0.5) != coined(0.3)
    assert coined(0.5).shifts() == coined(0.3).shifts()
    assert spec != coined(0.5) and spec != free() and spec != "grover4"
    # -0.0 and 0.0 are equal entries, so the specs are equal and hash alike
    neg = WalkSpec(n=1, terms={1: np.array([[complex(1.0, -0.0)]])})
    pos = WalkSpec(n=1, terms={1: np.array([[complex(1.0, 0.0)]])})
    assert neg == pos and hash(neg) == hash(pos)
