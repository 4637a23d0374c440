import json
import pickle
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qwalk import (
    UnitarityError,
    WalkSpec,
    WalkSpecError,
    amplify,
    commutator_norm,
    cover_walk,
    decompose,
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


def split_step(a, b):
    """U_a U_b: coefficient m is the sum of A_j B_l over j + l = m."""
    terms = {}
    for j, aj in a.terms.items():
        for l, bl in b.terms.items():
            terms[j + l] = terms.get(j + l, 0) + aj @ bl
    return WalkSpec(n=a.n, terms=terms)


def power(spec, p):
    out = spec
    for _ in range(p - 1):
        out = split_step(out, spec)
    return out


def gram_coefficients(spec):
    """{m: B_m} with W(k) W(k)^* = sum_m e^{imk} B_m, W(k) = sum_j j e^{ijk} A_j,
    so B_m = sum_j j (j - m) A_j A_{j-m}^*, formed one m at a time."""
    terms = spec.terms
    return {
        m: sum((j * terms[j]) @ ((j - m) * terms[j - m]).conj().T for j in terms if j - m in terms)
        for m in {j - l for j in terms for l in terms}
    }


def gram_varies(spec):
    """True when W(k) W(k)^* is not constant in k: some B_m with m != 0 is not rounding."""
    return any(m != 0 and np.abs(b).max() > 1e-9 for m, b in gram_coefficients(spec).items())


def split_step_walks():
    """U_a U_b for neighbouring conftest walks of one coin dimension n >= 2.

    Products where one factor moves every row by the same shift, or both
    move rows by +-a, keep a constant Gram symbol; they are left out.
    """
    out = []
    for m in (1, 2, 3):
        by_n = {}
        for seed in range(40):
            by_n.setdefault(random_walk(seed, shift_max=m).n, []).append(seed)
        for seeds in (by_n[n] for n in sorted(by_n) if n > 1):
            for a, b in zip(seeds, seeds[1:]):
                make = lambda a=a, b=b, m=m: split_step(
                    random_walk(a, shift_max=m), random_walk(b, shift_max=m)
                )
                if gram_varies(make()):
                    out.append(("walk(%d, %d) walk(%d, %d)" % (a, m, b, m), make))
    return out


SPLIT_STEP_WALKS = split_step_walks()
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
# walks whose Gram symbol W(k) W(k)^* depends on k: commutator_norm samples a
# grid; the Hadamard walk with shifts (400, 0) times coined(0.3) has B_m of
# rounding size but at m = 0 and +-400, so its Gram symbol takes one value
# at any 16 equally spaced k
GRID_NORM_WALKS = (
    [("grover4_subwalk", FIXTURES["grover4_subwalk"])]
    + [("(400, 0) hadamard coined(0.3)", lambda: split_step(shift_coin_walk((400, 0), HADAMARD), coined(0.3)))]
    + SPLIT_STEP_WALKS
)
# constant Gram symbol: the shift-coin walks and grover3_subwalk, every fixture but grover4_subwalk
CONSTANT_GRAM_WALKS = [w for w in NORM_ORACLE_WALKS if w[0] != "grover4_subwalk"]


def closed_form_norm(name, spec):
    """||[D, U]|| from the walk's structure, or None where there is none.

    For a shift-coin walk diag(S^{a_i}) C, W(k) = diag(a_i e^{i a_i k}) C,
    so the norm is max |a_i|.  grover3_subwalk has B_0 = I / 3.
    """
    if name == "grover3_subwalk":
        return 1.0 / np.sqrt(3.0)
    row_shifts = [[j for j, a in spec.terms.items() if np.any(a[i])] for i in range(spec.n)]
    if all(len(js) == 1 for js in row_shifts):
        return max(abs(js[0]) for js in row_shifts)
    return None


def test_norm_walk_classes():
    assert len(SPLIT_STEP_WALKS) >= 40
    for name, make in GRID_NORM_WALKS:
        assert gram_varies(make()) and closed_form_norm(name, make()) is None
    for name, make in CONSTANT_GRAM_WALKS:
        assert not gram_varies(make()) and closed_form_norm(name, make()) is not None


@pytest.mark.parametrize(
    "name,make_spec",
    NORM_ORACLE_WALKS + SPLIT_STEP_WALKS,
    ids=[w[0] for w in NORM_ORACLE_WALKS + SPLIT_STEP_WALKS],
)
def test_commutator_norm_matches_brent_polish(name, make_spec):
    # Split by walk class.  A constant Gram symbol has a closed form, which
    # the Brent reference, a grid maximum, overshoots by up to 3.6e-15 of
    # rounding.  On every other walk the norm is a bound: at least the
    # Brent reference and at most the Bernstein factor above it, D the span
    spec = make_spec()
    expected = closed_form_norm(name, spec)
    if expected is not None:
        assert abs(commutator_norm(spec) - expected) <= 1e-15
        return
    expected = reference_commutator_norm(spec)
    span = max(spec.terms) - min(spec.terms)
    factor = np.sqrt(1 - (np.pi * span / NORM_GRID) ** 2 / 2)
    assert expected <= commutator_norm(spec) <= expected / factor + 1e-15


def test_commutator_norm_solves_one_grid(monkeypatch):
    # no derivative grid where the Gram symbol is constant, else one of NORM_GRID points
    sizes = []

    def counted(spec, ks):
        sizes.append(np.size(ks))
        return derivative_symbol_on_grid(spec, ks)

    monkeypatch.setattr(walkspec, "derivative_symbol_on_grid", counted)
    for walks, want in ((CONSTANT_GRAM_WALKS, []), (GRID_NORM_WALKS, [NORM_GRID])):
        for _, make_spec in walks:
            sizes.clear()
            commutator_norm(make_spec())
            assert sizes == want
    assert NORM_GRID == 2048


def gram_degree(spec):
    """Largest |m| with B_m != 0 (gram_coefficients)."""
    return max(abs(m) for m, b in gram_coefficients(spec).items() if np.any(b))


def bernstein_grid_norm(spec):
    """The grid path on its own: the NORM_GRID-point maximum of sigma over
    sqrt(1 - pi^2 D^2 / (2 NORM_GRID^2)), D the Gram symbol's degree."""
    ks = 2 * np.pi * np.arange(NORM_GRID) / NORM_GRID
    sig = np.linalg.svd(derivative_symbol_on_grid(spec, ks), compute_uv=False)[:, 0]
    ratio = np.pi * gram_degree(spec) / NORM_GRID
    return float(sig.max()) / np.sqrt(1 - ratio**2 / 2)


@pytest.mark.parametrize("name,make_spec", GRID_NORM_WALKS, ids=[w[0] for w in GRID_NORM_WALKS])
def test_grid_path_is_unchanged_by_the_gram_test(name, make_spec):
    assert commutator_norm(make_spec()) == bernstein_grid_norm(make_spec())


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


def test_commutator_norm_takes_one_svd_on_the_grid_path(monkeypatch):
    # no SVD where the Gram symbol is constant, one batched SVD of the grid otherwise
    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    for walks, want in ((CONSTANT_GRAM_WALKS, 0), (GRID_NORM_WALKS, 1)):
        for _, make_spec in walks:
            calls.clear()
            commutator_norm(make_spec())
            assert len(calls) == want


def top_sigma(spec, g):
    """Top singular value of W(k) on the g-point grid, via eigvalsh of W W^*."""
    ks = 2 * np.pi * np.arange(g) / g
    w = derivative_symbol_on_grid(spec, ks)
    return np.sqrt(np.linalg.eigvalsh(w @ w.conj().transpose(0, 2, 1))[:, -1])


# every oracle walk, every fifth split-step product, and U^2, U^3 of conftest
# walks 0-2 at shift_max 1-3 (about 16 s): the full set of split steps and
# of powers of walks 0-39 passes too, but takes about 40 s more
SPEED_BOUND_WALKS = (
    NORM_ORACLE_WALKS
    + SPLIT_STEP_WALKS[::5]
    + [
        (
            "U^%d walk(%d, %d)" % (p, seed, m),
            lambda p=p, seed=seed, m=m: power(random_walk(seed, shift_max=m), p),
        )
        for p in (2, 3)
        for m in (1, 2, 3)
        for seed in range(3)
    ]
)


@pytest.mark.parametrize("name,make_spec", SPEED_BOUND_WALKS, ids=[w[0] for w in SPEED_BOUND_WALKS])
def test_grid_slack_bounds_the_supremum(name, make_spec):
    # the speed bound is at least sigma everywhere on a 2^16-point grid, 32
    # times finer than the one commutator_norm samples, with no tolerance
    spec = make_spec()
    assert _speed_bound(spec) >= top_sigma(spec, 2**16).max()


def test_wide_varying_gram_walk_takes_the_triangle_bound(monkeypatch):
    # (U_a U_b)^2, U_a a Hadamard walk with shifts +-400 and U_b = coined(0.3):
    # the Gram symbol varies with degree D >= 802, so pi D >= NORM_GRID and
    # no grid is built
    wide = shift_coin_walk((400, -400), np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    spec = power(split_step(wide, coined(0.3)), 2)
    assert gram_varies(spec) and np.pi * gram_degree(spec) >= NORM_GRID
    fine = top_sigma(spec, 2**16).max()
    triangle = sum(abs(j) * np.linalg.norm(a, 2) for j, a in spec.terms.items())
    grids = []
    monkeypatch.setattr(walkspec, "derivative_symbol_on_grid", lambda *args: grids.append(args))
    assert commutator_norm(spec) == triangle
    assert grids == []
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


def per_m_unitarity(n, terms):
    """The coefficient identities checked one m at a time over the whole span.

    Returns the worst identity as (m, residual); the first m wins a tie.
    """
    worst_m, worst_res = 0, 0.0
    shifts = sorted(terms)
    lo, hi = shifts[0], shifts[-1]
    for m in range(lo - hi, hi - lo + 1):
        acc = np.zeros((n, n), dtype=np.complex128)
        for j, aj in terms.items():
            ajm = terms.get(j + m)
            if ajm is not None:
                acc += ajm @ aj.conj().T
        if m == 0:
            acc -= np.eye(n)
        res = float(np.max(np.abs(acc)))
        if res > worst_res:
            worst_m, worst_res = m, res
    return worst_m, worst_res


def unitarity_survey():
    walks = [build_fixture(name) for name in sorted(FIXTURES)]
    walks += [random_walk(seed, shift_max=m) for m in (1, 2, 3) for seed in range(40)]
    walks += [power(random_walk(seed, shift_max=2), p) for p in (2, 3) for seed in range(20)]
    for name in ("grover3", "cube_root", "coined", "det_winding"):
        walks += [cover_walk(p.band) for p in decompose(build_fixture(name), 2048).primes]
    return walks


UNITARITY_SURVEY = unitarity_survey()


@pytest.mark.parametrize("eps", [0.0, 1e-13, 9e-13, 1.1e-12, 1e-9])
def test_unitarity_check_matches_the_per_m_rule(eps):
    rng = np.random.default_rng(15)
    verdicts = set()
    for spec in UNITARITY_SURVEY:
        terms = {j: a.copy() for j, a in spec.terms.items()}
        j0 = spec.shifts()[len(terms) // 2]
        kick = rng.standard_normal((spec.n, spec.n)) + 1j * rng.standard_normal((spec.n, spec.n))
        terms[j0] += eps * kick / np.abs(kick).max()
        m, res = per_m_unitarity(spec.n, terms)
        try:
            WalkSpec(n=spec.n, terms=terms)
        except UnitarityError as err:
            assert res > walkspec.UNITARITY_TOL
            # C_{-m} = C_m^*, so m and -m tie and rounding picks either
            assert abs(err.m) == abs(m) and abs(err.residual - res) <= 1e-15
            verdicts.add(False)
        else:
            assert res <= walkspec.UNITARITY_TOL
            verdicts.add(True)
    # kicks well below the tolerance all pass and kicks well above it all fail
    if eps <= 1e-13:
        assert verdicts == {True}
    elif eps >= 1e-9:
        assert verdicts == {False}


def test_wide_shifts_cost_nothing_per_span_step():
    # a dense span-indexed table for shifts +-10^7 would be 4e7 (2, 2) blocks, 2.6 GB
    a = 10**7
    tracemalloc.start()
    try:
        spec = shift_coin_walk((a, -a), np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
        norm = commutator_norm(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert norm == pytest.approx(a, rel=1e-15)
    assert peak < 2**20
