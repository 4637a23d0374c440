import dataclasses
import gc
import io
import math
import pickle
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.linalg import schur
from scipy.optimize import linear_sum_assignment

import qwalk.spectral
import qwalk.walkspec
from qwalk import (
    UnresolvedCrossing,
    WalkSpec,
    amplify,
    commutator_norm,
    decompose,
    det_winding,
    direct_sum,
    is_ct_realizable,
    monodromy,
    parse_walk_spec,
    sample_bands,
    serialize_walk_spec,
    symbol_on_grid,
    write_band_csv,
)
from qwalk.cli import main
from qwalk.fixtures import (
    FIXTURES,
    coined,
    constant,
    cube_root,
    fixture_names,
    free,
    grover3,
    grover4,
    shift_coin_walk,
)
from qwalk.spectral import (
    MERGE_TOL,
    _align_frame,
    _best_start,
    _chain_match,
    _clusters,
    _eig_grid,
    _pair_gaps,
)
from qwalk.walkspec import _invariant_blocks, _is_real

from conftest import random_walk, real_random_walk
from ledger import extract as extract_or_refusal, modulated, walk_power


def grover4_moving(k, sign):
    """Independently derived non-constant eigenvalue pair of grover4."""
    return -(np.cos(k) + np.cos(3 * k)) / 2 + sign * 1j * np.sin(k) * np.sqrt(
        1 + 4 * np.cos(k) ** 4
    )


def grover3_cover(kt):
    """The degree-2 band of grover3 on its double cover [0, 4 pi)."""
    return -(2 + np.cos(kt)) / 3 - (1j / 3) * np.sin(kt / 2) * np.sqrt(
        10 + 2 * np.cos(kt)
    )


def match_up_to_deck(samples, oracle_values, grid_size):
    """Max deviation minimized over the deck transformations of the cover."""
    degree = samples.size // grid_size
    best = np.inf
    for r in range(degree):
        best = min(best, np.max(np.abs(np.roll(samples, r * grid_size) - oracle_values)))
    return best


def test_grover4_band_table():
    bs = sample_bands(grover4(), 256)
    const = [b for b in bs.bands if b.is_constant]
    moving = [b for b in bs.bands if not b.is_constant]
    assert sorted(b.samples[0].real for b in const) == pytest.approx([-1.0, 1.0])
    assert sorted(b.winding for b in moving) == [-1, 1]
    for b in moving:
        oracle = grover4_moving(b.kgrid, -b.winding)
        assert np.max(np.abs(b.samples - oracle)) < 1e-10


def test_grover3_cover_band():
    bs = sample_bands(grover3(), 256)
    (deg2,) = [b for b in bs.bands if b.degree == 2]
    oracle = grover3_cover(deg2.kgrid)
    assert match_up_to_deck(deg2.samples, oracle, 256) < 1e-10
    assert deg2.winding == 0


def test_cube_root_band():
    bs = sample_bands(cube_root(), 256)
    (band,) = bs.bands
    assert band.degree == 3
    assert band.winding == 2
    assert band.min_period == 2
    oracle = np.exp(2j * band.kgrid / 3)
    assert match_up_to_deck(band.samples, oracle, 256) < 1e-10


def test_monodromy_cycle_types():
    assert monodromy(grover3(), 256) == (1, 2)
    assert monodromy(grover4(), 256) == (1, 1, 1, 1)
    assert monodromy(cube_root(), 256) == (3,)
    assert monodromy(free(), 128) == (1,)


def test_minimal_period_and_constant_band():
    bs = sample_bands(free(), 128)
    assert bs.bands[0].min_period == 1
    assert bs.bands[0].winding == 1
    cbs = sample_bands(FIXTURES["constant"](1, 0.4), 128)
    assert cbs.bands[0].is_constant and cbs.bands[0].min_period is None
    assert cbs.bands[0].samples[0] == pytest.approx(np.exp(0.4j))


def test_det_winding_additive_under_direct_sum():
    a, b = free(), FIXTURES["det_winding"]()
    assert det_winding(a) == 1
    assert det_winding(b) == 1
    assert det_winding(direct_sum(a, b)) == 2


def det_grid_winding(spec):
    """Reference det winding, summed from principal argument increments.

    det U_hat(k) is a trigonometric polynomial of degree at most
    n * bandwidth.  It is sampled on the first power of two (at least 64)
    above 2 n bandwidth, and on the grid twice as fine when the increments
    there are not within 1e-6 of a whole number of turns.
    """
    grid = 64
    while grid <= 2 * spec.n * spec.bandwidth:
        grid *= 2
    for g in (grid, 2 * grid):
        dets = np.linalg.det(symbol_on_grid(spec, 2 * np.pi * np.arange(g) / g))
        turns = np.angle(np.roll(dets, -1) / dets).sum() / (2 * np.pi)
        if abs(turns - round(turns)) <= 1e-6:
            return round(turns)
    raise AssertionError("det grid of %d points does not close" % (2 * grid))


DET_ORACLE_WALKS = (
    [(name, FIXTURES[name]) for name in fixture_names()]
    + [("walk(%d)" % seed, lambda seed=seed: random_walk(seed)) for seed in range(20)]
    + [
        ("walk(%d)^%d" % (seed, p), lambda seed=seed, p=p: walk_power(random_walk(seed), p))
        for seed in (1, 5, 6) for p in (2, 3)
    ]
    + [
        ("walk(5)+walk(7)", lambda: direct_sum(random_walk(5), random_walk(7))),
        ("grover4+cube_root", lambda: direct_sum(grover4(), cube_root())),
        ("walk(7)+alpha", lambda: direct_sum(random_walk(7), modulated(random_walk(7), 0.7))),
    ]
)


@pytest.mark.parametrize(
    "name,make_spec", DET_ORACLE_WALKS, ids=[w[0] for w in DET_ORACLE_WALKS]
)
def test_det_winding_closed_form_matches_det_grid(name, make_spec):
    spec = make_spec()
    want = det_grid_winding(spec)
    assert det_winding(spec) == want
    # sample_bands has checked its windings against the closed form
    bands = sample_bands(spec, 256).bands
    assert sum(b.multiplicity * b.winding for b in bands) == want


# the CI workflow's $wide document: a coined walk with shifts +-10^7
WIDE_WALK = (
    '{"n": 2, "terms": [{"shift": 10000000, "matrix": [[[0.7071067811865476, 0.0],'
    ' [0.7071067811865476, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}, {"shift": -10000000,'
    ' "matrix": [[[0.0, 0.0], [0.0, 0.0]], [[0.7071067811865476, 0.0],'
    ' [-0.7071067811865476, 0.0]]]}]}'
)


def test_det_winding_needs_no_grid(monkeypatch):
    # the closed form reads the coefficients alone, also for the +-10^7
    # walk, whose first valid grid is 2^40
    def no_grid(*args):
        raise AssertionError("det_winding built a symbol grid")

    monkeypatch.setattr(qwalk.spectral, "symbol_on_grid", no_grid)
    assert det_winding(WalkSpec(n=1, terms={200: np.eye(1)})) == 200
    assert det_winding(parse_walk_spec(WIDE_WALK)) == 0


def test_every_extraction_is_checked_against_the_det_winding(monkeypatch):
    # decompose alone never calls det_winding, yet its bands are checked,
    # and a band set that fails the check is not memoized
    real = qwalk.spectral._assemble_bands
    calls = []

    def one_winding_off(*args):
        calls.append(1)
        bands = real(*args)
        return [dataclasses.replace(bands[0], winding=bands[0].winding + 1)] + bands[1:]

    monkeypatch.setattr(qwalk.spectral, "_assemble_bands", one_winding_off)
    spec = grover3()
    w = det_winding(spec)
    for _ in range(2):
        with pytest.raises(RuntimeError) as info:
            decompose(spec, 256)
        assert str(info.value) == (
            "internal error: det winding %d != sum of band windings %d" % (w, w + 1)
        )
    assert len(calls) == 2


ALIASING_WALKS = [
    (lambda: WalkSpec(n=1, terms={200: np.eye(1)}), 512, 200),
    (lambda: shift_coin_walk((40, -1), np.array([[1, 1], [1, -1]]) / np.sqrt(2)), 128, 39),
]
ALIASING_IDS = ["S^200", "hadamard(40,-1)"]


@pytest.mark.parametrize("make_spec,first,winding", ALIASING_WALKS, ids=ALIASING_IDS)
def test_grid_that_can_alias_a_winding_is_refused(make_spec, first, winding):
    # below 2L one step may move a band by half a turn: S^200 read winding
    # -56 at grid 256, and the Hadamard walk failed the det cross-check at 64
    spec = make_spec()
    bound = qwalk.walkspec._speed_bound(spec)
    assert first // 2 <= 2 * bound < first
    grid = 64
    while grid < first:
        with pytest.raises(ValueError) as info:
            sample_bands(spec, grid)
        text = str(info.value)
        assert "grid %d" % grid in text and "%.3e" % bound in text
        assert text.endswith("first valid grid %d" % first)
        grid *= 2
    bands = sample_bands(spec, first)
    assert det_winding(spec) == winding
    assert sum(b.multiplicity * b.winding for b in bands.bands) == winding


@pytest.mark.parametrize("make_spec,first,winding", ALIASING_WALKS, ids=ALIASING_IDS)
def test_aliasing_refusal_and_next_grid_share_one_rule(make_spec, first, winding):
    # G > 2L is the rule 4 pi L / G < gap of next_grid at gap 2pi
    spec = make_spec()
    bound = qwalk.walkspec._speed_bound(spec)
    with pytest.raises(ValueError, match="first valid grid %d$" % first):
        sample_bands(spec, 64)
    assert UnresolvedCrossing(0.0, 1.0, 2 * np.pi, bound).next_grid == first


def test_a_speed_bound_of_half_the_grid_refuses_it(monkeypatch):
    # at L = G / 2 exactly one step may move a band by half a turn
    monkeypatch.setattr(qwalk.spectral, "_speed_bound", lambda spec: 128.0)
    with pytest.raises(ValueError, match="^grid 256 .* first valid grid 512$"):
        sample_bands(grover3(), 256)
    assert UnresolvedCrossing(0.0, 1.0, 2 * np.pi, 128.0).next_grid == 512
    assert UnresolvedCrossing(0.0, 1.0, 2 * np.pi, np.nextafter(128.0, 0.0)).next_grid == 256


def test_amplified_walk_doubles_multiplicity():
    base = sample_bands(grover3(), 128)
    doubled = sample_bands(amplify(grover3(), 2), 128)
    assert sorted(b.degree for b in doubled.bands) == sorted(b.degree for b in base.bands)
    for b2, b1 in zip(doubled.bands, base.bands):
        assert b2.multiplicity == 2 * b1.multiplicity


def test_sections_solve_the_eigenproblem():
    spec = grover4()
    bs = sample_bands(spec, 256)
    ks = 2.0 * np.pi * np.arange(256) / 256
    mats = symbol_on_grid(spec, ks)
    for band in bs.bands:
        for s in range(band.degree):
            seg = slice(s * 256, (s + 1) * 256)
            vals = band.samples[seg]
            for copy in band.eigvec_samples:
                vecs = copy[seg]
                resid = np.einsum("gij,gj->gi", mats, vecs) - vals[:, None] * vecs
                assert np.max(np.abs(resid)) < 1e-8
                norms = np.linalg.norm(vecs, axis=1)
                np.testing.assert_allclose(norms, 1.0, atol=1e-8)


def test_sections_orthonormal_across_copies():
    spec = amplify(grover3(), 2)
    bs = sample_bands(spec, 128)
    for band in bs.bands:
        if band.multiplicity < 2:
            continue
        stack = np.asarray(band.eigvec_samples)  # (copies, dG, n)
        gram = np.einsum("agi,bgi->gab", stack.conj(), stack)
        eye = np.eye(band.multiplicity)
        assert np.max(np.abs(gram - eye)) < 1e-8


def test_section_gauge_ignores_rounding_in_tied_components():
    # coined at k = 0 has both components of modulus 1/sqrt(2); two
    # sections equal up to a constant phase, in which rounding made a
    # different component the larger, must get one gauge
    G = 64
    base = np.exp(2j * np.pi * np.random.default_rng(2).random((G, 2))) / np.sqrt(2)
    section, turned = base.copy(), base * np.exp(0.7j)
    section[:, 0] *= 1 + 4 * np.finfo(float).eps
    turned[:, 1] *= 1 + 4 * np.finfo(float).eps
    a, b = (qwalk.spectral._gauge([s]) for s in (section, turned))
    assert np.max(np.abs(a - b)) <= 1e-12


def test_value_interpolation():
    bs = sample_bands(free(), 128)
    band = bs.bands[0]
    pts = np.array([0.1, 1.7, 5.5])
    np.testing.assert_allclose(band.value_at(pts), np.exp(1j * pts), atol=1e-12)


def fourier_decay(band):
    """Fit |c_ell| <= C rho^|ell| witnessing analyticity; returns (C, rho).

    The fit is a least-squares line through log|c_ell| over the supported
    frequencies, with C inflated so the bound holds at every coefficient.
    """
    coefs = np.abs(band.fourier)
    ells = np.abs(band.fourier_freqs)
    mask = coefs > 1e-13
    if mask.sum() <= 2:
        rho = 0.5
    else:
        slope, _ = np.polyfit(ells[mask], np.log(coefs[mask]), 1)
        rho = float(np.exp(min(slope, -1e-12)))
    c = float(np.max(coefs / np.maximum(rho ** ells.astype(float), 1e-300)))
    return c, rho


def test_fourier_decay_bound_holds():
    for spec, grid in ((coined(0.5), 256), (grover4(), 256)):
        for band in sample_bands(spec, grid).bands:
            c, rho = fourier_decay(band)
            assert 0 < rho <= 1
            ell = np.abs(band.fourier_freqs)
            assert np.all(np.abs(band.fourier) <= c * rho ** ell + 1e-12)


def test_grid_size_must_be_power_of_two():
    with pytest.raises(ValueError):
        sample_bands(free(), 100)
    with pytest.raises(ValueError):
        sample_bands(free(), 32)


def test_band_csv_round_trip():
    bs = sample_bands(grover3(), 128)
    buf = io.StringIO()
    write_band_csv(bs, buf)
    lines = buf.getvalue().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "k"
    assert len(lines) == 1 + 128  # one row per base grid point
    # one re/im column pair per sheet copy: 1 + 2 sheets for (1)(2)
    assert sum(name.endswith("_re") for name in header) == 3
    data = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",")
    assert data.shape == (128, len(header))
    np.testing.assert_allclose(data[:, 0], 2 * np.pi * np.arange(128) / 128, atol=1e-12)


def test_band_values_stable_under_grid_doubling():
    for seed in range(8):
        spec = random_walk(seed)
        b1 = sample_bands(spec, 128)
        b2 = sample_bands(spec, 256)
        for band1 in b1.bands:
            cands = []
            for band2 in b2.bands:
                if band2.degree != band1.degree:
                    continue
                for r in range(band2.degree):
                    rolled = np.roll(band2.samples, r * 256)[::2]
                    cands.append(np.max(np.abs(rolled - band1.samples)))
            assert cands and min(cands) < 1e-8


def schur_grid(spec, ks):
    """Reference eigensolve: one complex Schur decomposition per fiber,
    in _eig_grid's form (values, and a function giving values and vectors)."""
    mats = symbol_on_grid(spec, ks)
    vals = np.empty((ks.size, spec.n), dtype=complex)
    vecs = np.empty((ks.size, spec.n, spec.n), dtype=complex)
    for g in range(ks.size):
        t, z = schur(mats[g], output="complex")
        vals[g] = np.diagonal(t)
        vecs[g] = z
    return vals, lambda: (vals, vecs)


EIG_ORACLE_WALKS = (
    [(name, FIXTURES[name]) for name in fixture_names()]
    + [("walk(%d)" % seed, lambda seed=seed: random_walk(seed)) for seed in range(20)]
    + [
        ("walk(5)^2", lambda: walk_power(random_walk(5), 2)),
        ("walk(7)+alpha", lambda: direct_sum(random_walk(7), modulated(random_walk(7), 0.7))),
    ]
)


def band_projectors(band):
    v = np.asarray(band.eigvec_samples)
    return np.einsum("cgi,cgj->gij", v, v.conj())


@pytest.mark.parametrize("grid", [256, 2048])
@pytest.mark.parametrize(
    "name,make_spec", EIG_ORACLE_WALKS, ids=[w[0] for w in EIG_ORACLE_WALKS]
)
def test_batched_eigensolve_matches_schur_loop(monkeypatch, name, make_spec, grid):
    try:
        got = sample_bands(make_spec(), grid)
    except UnresolvedCrossing:
        got = None
    monkeypatch.setattr(qwalk.spectral, "_eig_grid", schur_grid)
    try:
        want = sample_bands(make_spec(), grid)
    except UnresolvedCrossing:
        want = None
    assert (got is None) == (want is None)
    if want is None:
        return
    key = lambda b: (b.degree, b.multiplicity, b.winding, b.min_period, b.is_constant)
    assert [key(b) for b in got.bands] == [key(b) for b in want.bands]
    for bg, bw in zip(got.bands, want.bands):
        assert np.max(np.abs(bg.samples - bw.samples)) <= 1e-12
        assert np.max(np.abs(band_projectors(bg) - band_projectors(bw))) <= 1e-10


@pytest.fixture
def tracks(monkeypatch):
    """The spec of every _track call made while the test runs."""
    calls = []
    real = qwalk.spectral._track

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(qwalk.spectral, "_track", counting)
    return calls


def test_bands_are_extracted_once_per_spec_and_grid(tracks):
    spec = grover4()
    dec = decompose(spec, 256)
    assert is_ct_realizable(spec, 256).band_set is dec.band_set
    assert det_winding(spec) == 0
    assert monodromy(spec, 256) == (1, 1, 1, 1)
    assert len(tracks) == 1
    # an equal spec is another object and gets its own extraction, and so
    # do copies, which start with an empty memo
    assert sample_bands(grover4(), 256) is not dec.band_set
    clone = pickle.loads(pickle.dumps(spec))
    assert serialize_walk_spec(clone) == serialize_walk_spec(spec)
    assert sample_bands(clone, 256) is not dec.band_set
    # the memo holds the BandSet weakly
    ref = weakref.ref(dec.band_set)
    del dec
    gc.collect()
    assert ref() is None


@pytest.fixture
def certificates(monkeypatch):
    """The result of every _certify call made while the test runs."""
    results = []
    real = qwalk.spectral._certify
    monkeypatch.setattr(
        qwalk.spectral, "_certify", lambda *args: results.append(real(*args)) or results[-1]
    )
    return results


def force_tracker(patch):
    """Make every block fail its certificate, so each one is tracked."""
    patch.setattr(qwalk.spectral, "_certify", lambda vals, shifts: False)


def test_unresolved_crossing_is_not_memoized(tracks):
    # P has real zeros here, so every attempt reaches the tracker
    spec = walk_power(random_walk(3, shift_max=2), 3)
    for attempt in (1, 2):
        with pytest.raises(UnresolvedCrossing):
            sample_bands(spec, 256)
        assert len(tracks) == attempt


def assert_orthonormal_eigenbasis(spec, ks):
    values, vectors = qwalk.spectral._eig_grid(spec, ks)
    vals, vecs = vectors()
    # eigvalsh and eigh of one Cayley matrix differ by rounding
    assert np.max(np.abs(values - vals)) <= 1e-13
    mats = symbol_on_grid(spec, ks)
    assert np.max(np.abs(mats @ vecs - vecs * vals[:, None, :])) <= 1e-13
    gram = np.conj(np.swapaxes(vecs, 1, 2)) @ vecs
    assert np.max(np.abs(gram - np.eye(spec.n))) <= 1e-13


FRAME_WALKS = EIG_ORACLE_WALKS + [
    ("amplify(grover4,2)", lambda: amplify(grover4(), 2)),
    ("constant(3)", lambda: constant(3)),
]


@pytest.mark.parametrize("name,make_spec", FRAME_WALKS, ids=[w[0] for w in FRAME_WALKS])
def test_fiber_frames_are_orthonormal_eigenbases(name, make_spec):
    # degenerate clusters included: amplified and constant walks have them
    # on every fiber, and many walks touch at k = 0
    spec = make_spec()
    for grid in (256, 2048):
        assert_orthonormal_eigenbasis(spec, 2.0 * np.pi * np.arange(grid) / grid)
    for k in (0.0, np.pi / 2, np.pi, 1.0, 2.0 * np.pi - 1e-9):
        assert_orthonormal_eigenbasis(spec, np.array([k]))


@pytest.mark.parametrize("grid", [256, 2048])
@pytest.mark.parametrize(
    "name,make_spec", EIG_ORACLE_WALKS, ids=[w[0] for w in EIG_ORACLE_WALKS]
)
def test_bands_do_not_depend_on_solver_column_order(monkeypatch, name, make_spec, grid):
    # grover3_subwalk has two sheets at -1 at k = 0, ordered where they part
    want = extract_or_refusal(make_spec(), grid)
    solve = qwalk.spectral._eig_grid

    def reversed_columns(spec, ks):
        vals, vectors = solve(spec, ks)
        return vals[:, ::-1], lambda: tuple(a[..., ::-1] for a in vectors())

    monkeypatch.setattr(qwalk.spectral, "_eig_grid", reversed_columns)
    got = extract_or_refusal(make_spec(), grid)
    if isinstance(want, UnresolvedCrossing):
        assert isinstance(got, UnresolvedCrossing)
        return
    assert len(got.bands) == len(want.bands)
    for bg, bw in zip(got.bands, want.bands):
        assert (bg.degree, bg.multiplicity) == (bw.degree, bw.multiplicity)
        assert np.array_equal(bg.samples, bw.samples)
        assert np.max(np.abs(band_projectors(bg) - band_projectors(bw))) <= 1e-10


@pytest.mark.parametrize("n", [1, 3])
def test_exact_poles_of_the_cayley_transform_are_skipped(n):
    # constant(n, 0) makes I - U exactly singular at the first trial phase
    for r in range(n + 1):
        phase = 2.0 * np.pi * r / (n + 1)
        spec = constant(n, phase)
        assert_orthonormal_eigenbasis(spec, np.zeros(1))
        (band,) = sample_bands(spec, 64).bands
        assert band.multiplicity == n
        assert np.max(np.abs(band.samples - np.exp(1j * phase))) <= 1e-15


def test_free_walk_passes_through_a_pole(capsys):
    # e^{ik} is exactly 1 at k = 0, the pole of the first trial phase
    assert main(["analyze", "free", "--grid", "128"]) == 0
    assert capsys.readouterr().err == ""
    assert_orthonormal_eigenbasis(free(), 2.0 * np.pi * np.arange(128) / 128)


@pytest.fixture
def eigh_rows(monkeypatch):
    """Running total of the matrices passed to np.linalg.eigvalsh, the
    solve of each trial phase."""
    rows = [0]
    real = np.linalg.eigvalsh

    def counting(a):
        rows[0] += a.shape[0] if a.ndim == 3 else 1
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return rows


SOLVED_ONCE_WALKS = [
    ("grover4", grover4),
    ("grover3", grover3),
    ("constant(3)", lambda: constant(3)),
    ("free", free),
    ("cube_root", cube_root),
] + [("walk(%d)" % seed, lambda seed=seed: random_walk(seed)) for seed in range(20)]


@pytest.mark.parametrize("grid", [256, 2048])
@pytest.mark.parametrize(
    "name,make_spec", SOLVED_ONCE_WALKS, ids=[w[0] for w in SOLVED_ONCE_WALKS]
)
def test_each_fiber_is_solved_about_once(eigh_rows, name, make_spec, grid):
    # the predicted trial phase passes on almost every fiber, including
    # those with an eigenvalue at a fixed phase such as grover4's band at 1;
    # a reducible walk solves each fiber once per invariant block, and a
    # block with real coefficients solves only the fibers 0 ... G / 2
    spec = make_spec()
    sample_bands(spec, grid)
    blocks = [block for block, _ in _invariant_blocks(spec)] or [spec]
    assert (len(blocks) > 1) == (name in ("constant(3)", "walk(6)", "walk(9)"))
    real = [_is_real(block) for block in blocks]
    assert all(real) == (name in ("grover4", "grover3", "constant(3)", "free", "cube_root"))
    fibers = sum(grid // 2 + 1 if r else grid for r in real)
    assert eigh_rows[0] <= 1.1 * fibers


def test_eig_grid_skips_empty_trials_and_pole_free_dets(monkeypatch):
    # once every fiber is solved no trial runs, and only a trial whose
    # batched solve meets an exact pole looks for it with det
    calls = []
    for fn in ("eigvalsh", "det"):
        real = getattr(np.linalg, fn)
        record = lambda a, fn=fn, real=real: calls.append((fn, len(a))) or real(a)
        monkeypatch.setattr(np.linalg, fn, record)
    ks = 2.0 * np.pi * np.arange(256) / 256
    for _, make_spec in SOLVED_ONCE_WALKS:
        calls.clear()
        _eig_grid(make_spec(), ks)
        assert calls and all(fn == "eigvalsh" and rows > 0 for fn, rows in calls)
    # a negated estimate makes free try its exact pole at k = 0 first
    real = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: -real(a))
    calls.clear()
    _eig_grid(free(), np.zeros(1))
    assert calls == [("det", 1), ("eigvalsh", 1), ("eigvalsh", 1)]


def forced_pole_cases():
    for n in (1, 3):
        for r in range(n + 1):
            phase = 2.0 * np.pi * r / (n + 1)
            yield "constant(%d, 2pi %d/%d)" % (n, r, n + 1), lambda n=n, p=phase: constant(n, p)
    yield "free", free


@pytest.mark.parametrize("name,make_spec", list(forced_pole_cases()))
def test_a_predicted_pole_falls_back_to_the_next_phase(monkeypatch, eigh_rows, name, make_spec):
    # the estimate only orders the trials: negated, it predicts the phase
    # nearest the spectrum, which for these walks at k = 0 is an exact pole
    want = sample_bands(make_spec(), 64)
    real = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: -real(a))
    eigh_rows[0] = 0
    assert_orthonormal_eigenbasis(make_spec(), np.zeros(1))
    assert eigh_rows[0] == 2
    got = sample_bands(make_spec(), 64)
    key = lambda b: (b.degree, b.multiplicity, b.winding, b.min_period, b.is_constant)
    assert [key(b) for b in got.bands] == [key(b) for b in want.bands]
    for bg, bw in zip(got.bands, want.bands):
        assert np.max(np.abs(bg.samples - bw.samples)) <= 1e-14
        assert np.max(np.abs(band_projectors(bg) - band_projectors(bw))) <= 1e-12


def reference_eig_grid(spec, ks):
    """_eig_grid as one loop over the trials: each gathers every unsolved
    fiber, takes e^{i phi} fiber by fiber and scatters its passes.  Returns
    eigvalsh's values, then eigh's values and vectors of the kept H."""
    mats = symbol_on_grid(spec, ks)
    n = spec.n
    eye = np.eye(n)
    vals = np.empty(mats.shape[:2], dtype=complex)
    kept = np.empty_like(mats)
    phis = np.empty(ks.size)
    trial = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    est = np.linalg.eigvals(mats[::16])
    far = np.abs(est[:, :, None] - trial).min(axis=1).argmax(axis=1)
    first = far[np.minimum((np.arange(ks.size) + 8) // 16, far.size - 1)]
    todo = np.arange(ks.size)
    for t in range(n + 1):
        if not todo.size:
            break
        phi = 2.0 * np.pi * ((first[todo] + t) % (n + 1)) / (n + 1)
        zu = np.exp(-1j * phi)[:, None, None] * mats[todo]
        a = eye - zu
        singular = np.zeros(todo.size, dtype=bool)
        try:
            cay = np.linalg.solve(a, eye + zu)
        except np.linalg.LinAlgError:
            singular = np.linalg.det(a) == 0
            a[singular] = eye
            cay = np.linalg.solve(a, eye + zu)
        h = 1j * cay
        mu = np.linalg.eigvalsh(h)
        cap = 1.0 / np.tan(np.pi / (4 * n + 4))
        ok = ~singular & (np.abs(mu).max(axis=1) <= cap) & (np.abs(h).max(axis=(1, 2)) <= cap)
        vals[todo[ok]] = np.exp(1j * phi[ok])[:, None] * (mu[ok] - 1j) / (mu[ok] + 1j)
        kept[todo[ok]] = h[ok]
        phis[todo[ok]] = phi[ok]
        todo = todo[~ok]
    mu, vecs = np.linalg.eigh(kept)
    return vals, np.exp(1j * phis)[:, None] * (mu - 1j) / (mu + 1j), vecs


BIT_ORACLE_WALKS = {
    "fixtures": [FIXTURES[name] for name in fixture_names()],
    **{
        "walk(0-39, %d)" % m: [lambda seed=seed, m=m: random_walk(seed, shift_max=m) for seed in range(40)]
        for m in (1, 2, 3)
    },
    "forced poles": [make_spec for _, make_spec in forced_pole_cases()],
    # n = 5: the predictor's e^{2 pi i r / 6} and e^{i phi} differ in the last bit at r = 5
    "n = 5": [lambda seed=seed: random_walk(seed, n_max=8) for seed in (5, 12)],
}


def assert_eig_grid_matches_the_trial_loop(spec, grid):
    # the whole grid, then the 3, 7, 15 and 31 points _chain_match solves across two steps
    ks = 2.0 * np.pi * np.arange(grid) / grid
    for pts in [ks] + [np.linspace(ks[5], ks[7], steps + 1)[1:-1] for steps in (4, 8, 16, 32)]:
        vals, vectors = _eig_grid(spec, pts)
        for got, want in zip((vals, *vectors()), reference_eig_grid(spec, pts)):
            assert np.array_equal(got, want)
            # the signs of zeros too
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid", [256, 2048])
@pytest.mark.parametrize("family", list(BIT_ORACLE_WALKS))
def test_eig_grid_matches_the_trial_loop_bit_for_bit(family, grid):
    for make_spec in BIT_ORACLE_WALKS[family]:
        assert_eig_grid_matches_the_trial_loop(make_spec(), grid)


@pytest.mark.parametrize("grid", [256, 2048])
def test_eig_grid_matches_the_trial_loop_after_a_predicted_pole(monkeypatch, eigh_rows, grid):
    # the negated estimate sends fiber 0 of each walk to its exact pole first
    real = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: -real(a))
    for name, make_spec in forced_pole_cases():
        eigh_rows[0] = 0
        _eig_grid(make_spec(), 2.0 * np.pi * np.arange(grid) / grid)
        assert eigh_rows[0] > grid, name
        assert_eig_grid_matches_the_trial_loop(make_spec(), grid)


def test_extraction_peak_memory():
    # traced peak of one extraction at grid 2048 on two complex 4 x 4 walks,
    # one tracked (grover4 conjugated by a diagonal unitary) and one
    # certified, in units of one (G, n, n) complex array: 8.6 on both when
    # the eigensolve gathered and scattered every fiber and the mirror,
    # section and stacking steps copied, 6.0 with each such array written
    # once, 4.1 on both since the trials solve values only (symbol grid,
    # zU, I - zU and H) and a certified block's sections wait for their
    # first read (test_first_section_read_peak_memory)
    d = np.exp(1j * np.array([0.3, 1.1, 2.0, 4.2]))
    turned = WalkSpec(n=4, terms={j: d[:, None] * a * d.conj() for j, a in grover4().terms.items()})
    unit = 2048 * 4 * 4 * 16
    for spec, bound in ((turned, 4.1), (random_walk(0), 4.1)):
        assert spec.n == 4 and not _is_real(spec)
        qwalk.spectral._extract_bands(spec, 2048)
        tracemalloc.start()
        try:
            qwalk.spectral._extract_bands(spec, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * unit


def test_first_section_read_peak_memory():
    # traced peak of the first section read of random_walk(0), certified,
    # at grid 2048, in units of one (G, n, n) complex array: 4.06 when the
    # read solved the block again, 2.95 since it runs eigh on the Cayley
    # matrices the extraction kept
    unit = 2048 * 4 * 4 * 16
    for _ in range(2):
        band_set = sample_bands(random_walk(0), 2048)
        tracemalloc.start()
        try:
            band_set.bands[0].eigvec_samples
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 3.0 * unit


def test_commutator_norm_computed_once_per_spec(monkeypatch):
    calls = []
    real = qwalk.walkspec._max_derivative_sigma

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(qwalk.walkspec, "_max_derivative_sigma", counting)
    spec = coined(0.5)
    first = commutator_norm(spec)
    assert len(calls) == 1
    assert commutator_norm(spec) == first
    assert len(calls) == 1
    assert commutator_norm(coined(0.5)) == first
    assert len(calls) == 2


def test_a_pole_within_rounding_of_the_trial_phase_is_refused(monkeypatch):
    # at the trial phase 0 the 1 x 1 Cayley matrix is about 9e15 i, and eigh
    # reads only its real part: mu = 0 would give -1 for a band at 1
    c = 1 - 2.0**-52
    spec = WalkSpec(n=1, terms={0: np.array([[c]])})
    real = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: -real(a))
    vals, _ = _eig_grid(spec, np.zeros(1))
    assert abs(vals[0, 0] - c) <= 1e-15
    (band,) = sample_bands(spec, 64).bands
    assert np.max(np.abs(band.samples - c)) <= 1e-15


def presplit_bands(spec, grid):
    """The extraction before the split: the whole walk tracked as one block."""
    ks = 2.0 * np.pi * np.arange(grid) / grid
    vals, vecs = _eig_grid(spec, ks)[1]()
    tv, tw, sigma = qwalk.spectral._track(spec, ks, vals, vecs, qwalk.walkspec._speed_bound(spec))
    return qwalk.spectral._assemble_bands(tv, [(None, tw)], sigma, grid)


def signature(band_set):
    return [(b.degree, b.winding, b.min_period, b.multiplicity) for b in band_set.bands]


def assert_bands_are_fiber_eigenvalues(band_set, spec, tol):
    # the multiset of band values over a fiber against numpy's eigvals there
    G = band_set.grid_size
    for g in np.random.default_rng(0).choice(G, 8, replace=False):
        got = np.concatenate([np.repeat(b.samples[g::G], b.multiplicity) for b in band_set.bands])
        want = np.linalg.eigvals(symbol_on_grid(spec, np.array([2.0 * np.pi * g / G]))[0])
        dist = np.abs(got[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert dist[rows, cols].max() <= tol


def sum_with_modulated(seed, alpha):
    return direct_sum(random_walk(seed), modulated(random_walk(seed), alpha))


def test_split_tolerances_are_pinned():
    # null space of the stacked commutator, grouping of the commutant
    # element's eigenvalues, and the invariance of a block at rounding level
    assert qwalk.walkspec.COMMUTANT_TOL == 1e-9
    assert qwalk.walkspec.BLOCK_TOL == 1e-6
    assert qwalk.walkspec.COUPLING_TOL == 1e-12


REDUCIBLE_WALKS = [
    ("walk(4)+U_0.5", lambda: sum_with_modulated(4, 0.5), [3, 3]),
    ("walk(7)+U_0.7", lambda: sum_with_modulated(7, 0.7), [4, 4]),
    ("amplify(grover4,2)", lambda: amplify(grover4(), 2), [4, 4]),
    ("grover4+cube_root", lambda: direct_sum(grover4(), cube_root()), [3, 4]),
    ("constant(3)", lambda: constant(3), [1, 1, 1]),
    ("walk(6)", lambda: random_walk(6), [1, 1]),
    ("walk(9)", lambda: random_walk(9), [1, 1]),
]


@pytest.mark.parametrize(
    "name,make_spec,sizes", REDUCIBLE_WALKS, ids=[w[0] for w in REDUCIBLE_WALKS]
)
def test_blocks_are_walks_and_sections_orthonormal_in_the_original_basis(name, make_spec, sizes):
    spec = make_spec()
    blocks = _invariant_blocks(spec)
    assert sorted(block.n for block, _ in blocks) == sizes
    bases = np.hstack([basis for _, basis in blocks])
    assert np.max(np.abs(bases.conj().T @ bases - np.eye(spec.n))) <= 1e-13
    for block, basis in blocks:
        # WalkSpec validated the block's unitarity identities
        assert isinstance(block, WalkSpec) and block.shifts() == spec.shifts()
        for j, a in spec.terms.items():
            assert np.max(np.abs(basis.conj().T @ a @ basis - block.terms[j])) <= 1e-15
            assert np.max(np.abs(a @ basis - basis @ block.terms[j])) <= 1e-12
    grid = 256
    band_set = sample_bands(spec, grid)
    mats = symbol_on_grid(spec, 2.0 * np.pi * np.arange(grid) / grid)
    vals = np.concatenate(
        [np.tile(b.samples.reshape(b.degree, grid), (b.multiplicity, 1)) for b in band_set.bands]
    )
    vecs = np.concatenate(
        [c.reshape(b.degree, grid, spec.n) for b in band_set.bands for c in b.eigvec_samples]
    )
    gram = np.einsum("sgi,tgi->gst", vecs.conj(), vecs)
    assert np.max(np.abs(gram - np.eye(spec.n))) <= 1e-12
    resid = np.einsum("gij,sgj->sgi", mats, vecs) - vals[:, :, None] * vecs
    assert np.max(np.abs(resid)) <= 1e-12


def test_commutant_is_computed_once_per_spec(monkeypatch):
    calls = []
    real = qwalk.walkspec._commutant_blocks
    monkeypatch.setattr(
        qwalk.walkspec, "_commutant_blocks", lambda spec: calls.append(spec) or real(spec)
    )
    for spec in (grover4(), amplify(grover4(), 2)):
        calls.clear()
        decompose(spec, 256)
        is_ct_realizable(spec, 2048)
        sample_bands(spec, 256)
        assert calls == [spec]


def test_sum_with_a_modulated_copy_is_answered_at_both_grids(monkeypatch, tracks):
    # each summand is labelled, or with the certificate off tracked, alone,
    # so the crossings between them never reach either; the whole walk
    # tracked as one is refused at 256
    for certify in (True, False):
        with monkeypatch.context() as patch:
            if not certify:
                force_tracker(patch)
            tracks.clear()
            spec = sum_with_modulated(4, 0.5)
            coarse, fine = sample_bands(spec, 256), sample_bands(spec, 2048)
            assert len(tracks) == (0 if certify else 4)
            assert signature(coarse) == signature(fine) == [(1, 2, 1, 1)] * 6
            for band_set in (coarse, fine):
                assert_bands_are_fiber_eigenvalues(band_set, spec, 1e-12)
    monkeypatch.setattr(qwalk.spectral, "_invariant_blocks", lambda spec: ())
    with pytest.raises(UnresolvedCrossing):
        sample_bands(sum_with_modulated(4, 0.5), 256)


@pytest.mark.parametrize(
    "name,make_base", [("walk(3)", lambda: random_walk(3)), ("grover3", grover3)]
)
def test_a_sum_of_equal_walks_still_merges(monkeypatch, name, make_base):
    # bands that coincide across blocks merge into one of multiplicity 2,
    # as they did when the sum was tracked whole
    spec = direct_sum(make_base(), make_base())
    assert len(_invariant_blocks(spec)) == 2
    got = sample_bands(spec, 256)
    half = signature(sample_bands(make_base(), 256))
    assert signature(got) == [(d, w, p, 2 * m) for d, w, p, m in half]
    monkeypatch.setattr(qwalk.spectral, "_invariant_blocks", lambda spec: ())
    want = sample_bands(direct_sum(make_base(), make_base()), 256)
    assert signature(got) == signature(want)
    for bg, bw in zip(got.bands, want.bands):
        assert np.max(np.abs(bg.samples - bw.samples)) <= 1e-12
        assert np.max(np.abs(band_projectors(bg) - band_projectors(bw))) <= 1e-10


def test_weakly_coupled_blocks_are_not_split(monkeypatch, tracks):
    # a coin turn by 1e-6 between the summands leaves a trivial commutant;
    # with the null-space tolerance widened past it the near-commutant
    # gets in, and the invariance test refuses the split
    summed = sum_with_modulated(4, 0.5)
    eps = 1e-6
    turn = np.eye(6)
    turn[[0, 3], [0, 3]] = np.cos(eps)
    turn[0, 3], turn[3, 0] = -np.sin(eps), np.sin(eps)
    spec = WalkSpec(n=6, terms={j: a @ turn for j, a in summed.terms.items()})
    assert len(_invariant_blocks(summed)) == 2
    assert _invariant_blocks(spec) == ()
    extract_or_refusal(spec, 2048)
    assert len(tracks) == 1
    monkeypatch.setattr(qwalk.walkspec, "COMMUTANT_TOL", 1e-3)
    assert qwalk.walkspec._commutant_blocks(spec) == ()


# the fixtures with real coefficients that have one invariant block
REAL_FIXTURES = (
    "coined", "constant", "cube_root", "det_winding", "free", "grover3", "grover4", "grover4_subwalk",
)
# fixtures and conftest walks 0-39 whose constant commutant is the scalars
IRREDUCIBLE_WALKS = [
    (name, make_spec)
    for name, make_spec in [(name, FIXTURES[name]) for name in fixture_names()]
    + [("walk(%d)" % seed, lambda seed=seed: random_walk(seed)) for seed in range(40)]
    if not _invariant_blocks(make_spec())
]


@pytest.mark.parametrize("grid", [256, 2048])
@pytest.mark.parametrize(
    "name,make_spec", IRREDUCIBLE_WALKS, ids=[w[0] for w in IRREDUCIBLE_WALKS]
)
def test_irreducible_walks_keep_their_band_sets_bit_for_bit(certificates, name, make_spec, grid):
    # presplit_bands solves every fiber; sample_bands solves half of a real
    # walk's fibers and conjugates the rest, which differ from solved ones
    # by rounding.  A certified walk's values are eigvalsh's, which differ
    # from the tracker's eigh values by rounding; its sections are eigh's
    got = extract_or_refusal(make_spec(), grid)
    certified = any(certificates)
    try:
        want = presplit_bands(make_spec(), grid)
    except UnresolvedCrossing as exc:
        assert isinstance(got, UnresolvedCrossing) and str(got) == str(exc)
        return
    real = _is_real(make_spec())
    assert real == (name in REAL_FIXTURES)
    assert len(got.bands) == len(want)
    for bg, bw in zip(got.bands, want):
        for field in ("samples", "eigvec_samples", "fourier"):
            if real:
                assert np.max(np.abs(getattr(bg, field) - getattr(bw, field))) <= 1e-13
            elif certified and field != "eigvec_samples":
                assert np.max(np.abs(getattr(bg, field) - getattr(bw, field))) <= 2e-14
            else:
                assert np.array_equal(getattr(bg, field), getattr(bw, field))
        for field in ("degree", "multiplicity", "winding", "min_period", "is_constant"):
            assert getattr(bg, field) == getattr(bw, field)


def scalar_track(spec, ks, vals, vecs, bound):
    """Reference tracker: one _match_step per fiber, swept both ways from the start.

    The forward sweep runs on through fiber 0 again at k = 2pi, and the
    seam permutation maps each forward sheet to the backward sheet whose
    section at k = 0 overlaps its own the most.
    """
    G, n = vals.shape
    ks = np.append(ks, 2 * np.pi)
    vals = np.concatenate([vals, vals[:1]])
    vecs = np.concatenate([vecs, vecs[:1]])
    tv = np.empty_like(vals)
    tw = np.empty_like(vecs)
    g0 = _best_start(vals[:G])
    tv[g0] = vals[g0]
    tw[g0] = vecs[g0]

    def sweep(seq):
        last2, last = None, g0
        for g in seq:
            pred = tv[last] if last2 is None else 2 * tv[last] - tv[last2]
            perm = qwalk.spectral._match_step(pred, vals[g])
            if perm is None:
                anchor = last2 if last2 is not None else last
                slope = None
                if last2 is not None:
                    slope = (tv[last] - tv[last2]) / (ks[last] - ks[last2])
                perm = _chain_match(spec, ks[anchor], ks[g], tv[anchor], vals[g], slope=slope)
                if perm is None:
                    lo, hi = sorted((ks[last], ks[g]))
                    raise UnresolvedCrossing(lo, hi)
            tv[g] = vals[g][perm]
            tw[g] = _align_frame(tw[last], vecs[g][:, perm], tv[g])
            last2, last = last, g

    sweep(range(g0 + 1, G + 1))
    sweep(range(g0 - 1, -1, -1))
    for idx in _clusters(tv[g0], MERGE_TOL):
        if len(idx) > 1 and G > 1:
            nb = g0 + 1 if g0 + 1 < G else g0 - 1
            b, a = tw[g0][:, idx], tw[nb][:, idx]
            u, _, vh = np.linalg.svd(b.conj().T @ a)
            tw[g0][:, idx] = b @ (u @ vh)
    sigma = np.abs(tw[G].conj().T @ tw[0]).argmax(axis=1)
    if len(set(sigma)) < n:
        raise UnresolvedCrossing(ks[G - 1], ks[G])
    return tv[:G], tw[:G], sigma


TRACK_ORACLE_WALKS = EIG_ORACLE_WALKS + [
    ("walk(3)^3", lambda: walk_power(random_walk(3, shift_max=2), 3)),
    ("coined(1-1e-9)", lambda: coined(1 - 1e-9)),
    # two predictions share a nearest eigenvalue on one fiber at each grid
    ("walk(10)^2", lambda: walk_power(random_walk(10), 2)),
    # irreducible, so its n = 8 steps reach the matcher; walk(7)+alpha splits
    ("walk(15, n<=8)", lambda: random_walk(15, n_max=9)),
]


def assert_tracks_like_scalar(monkeypatch, make_spec, grid):
    got = extract_or_refusal(make_spec(), grid)
    with monkeypatch.context() as patch:
        patch.setattr(qwalk.spectral, "_track", scalar_track)
        want = extract_or_refusal(make_spec(), grid)
    if isinstance(want, UnresolvedCrossing):
        assert isinstance(got, UnresolvedCrossing)
        assert (got.k_lo, got.k_hi) == (want.k_lo, want.k_hi)
        return
    assert isinstance(got, qwalk.spectral.BandSet)
    key = lambda b: (b.degree, b.multiplicity, b.winding, b.min_period, b.is_constant)
    assert [key(b) for b in got.bands] == [key(b) for b in want.bands]
    for bg, bw in zip(got.bands, want.bands):
        assert np.array_equal(bg.samples, bw.samples)
        for cg, cw in zip(bg.eigvec_samples, bw.eigvec_samples):
            assert np.max(np.abs(cg - cw)) <= 1e-12
            norms = np.linalg.norm(cg, axis=1) - np.linalg.norm(cw, axis=1)
            assert np.max(np.abs(norms)) <= 8 * np.finfo(float).eps
        assert np.max(np.abs(band_projectors(bg) - band_projectors(bw))) <= 1e-10


@pytest.mark.parametrize("grid", [256, 2048])
@pytest.mark.parametrize(
    "name,make_spec", TRACK_ORACLE_WALKS, ids=[w[0] for w in TRACK_ORACLE_WALKS]
)
def test_batched_tracking_matches_scalar_tracker(monkeypatch, name, make_spec, grid):
    assert_tracks_like_scalar(monkeypatch, make_spec, grid)


def test_vanishing_overlap_is_tracked_by_value_and_keeps_its_phase(monkeypatch):
    # synthetic fibers with fixed, separated values; the columns swap their
    # vectors on fibers 20 to 23, so consecutive sections there are
    # orthogonal.  Nothing refines, so no walk is needed, and the speed
    # bound is passed in
    rng = np.random.default_rng(1)
    G = 64
    ks = 2.0 * np.pi * np.arange(G) / G
    vals = np.tile(np.exp(2j * np.pi * np.arange(3) / 3), (G, 1))
    vecs = np.eye(3) * np.exp(2j * np.pi * rng.random((G, 1, 3)))
    vecs[20:24] = vecs[20:24][:, :, [1, 2, 0]]
    calls = []
    real = qwalk.spectral._match_step
    monkeypatch.setattr(
        qwalk.spectral, "_match_step", lambda *args: calls.append(1) or real(*args)
    )
    # bound 0 proves every step, and a section's overlap plays no part in it
    tv, tw, sigma = qwalk.spectral._track(None, ks, vals, vecs, 0.0)
    assert not calls
    monkeypatch.undo()
    want = scalar_track(None, ks, vals, vecs, 0.0)
    assert np.array_equal(tv, want[0])
    assert np.array_equal(tw, want[1])
    assert np.array_equal(sigma, want[2])
    for band in qwalk.spectral._assemble_bands(tv, [(None, tw)], sigma, G):
        (s,) = np.flatnonzero(tv[0] == band.samples[0])
        (out,) = band.eigvec_samples
        turn = np.einsum("ti,ti->t", tw[:, :, s].conj(), out)
        # the steps into and out of the swap are orthogonal and turn nothing
        assert abs(turn[20] - turn[19]) <= 1e-15
        assert abs(turn[24] - turn[23]) <= 1e-15
        z = np.einsum("ti,ti->t", out[:-1].conj(), out[1:])
        z = np.delete(z, [19, 23])
        assert np.abs(np.angle(z)).max() <= 1e-12 and np.abs(np.abs(z) - 1).max() <= 1e-15


PHASE_WALKS = EIG_ORACLE_WALKS + [("grover3 x2", lambda: amplify(grover3(), 2))]


@pytest.mark.parametrize("grid", [256, 2048])
@pytest.mark.parametrize("name,make_spec", PHASE_WALKS, ids=[w[0] for w in PHASE_WALKS])
def test_sections_are_phase_continuous_on_the_cover(name, make_spec, grid):
    # consecutive samples of every copy overlap with a real positive vdot,
    # wherever the overlap does not vanish
    got = extract_or_refusal(make_spec(), grid)
    if isinstance(got, UnresolvedCrossing):
        return
    for band in got.bands:
        for copy in band.eigvec_samples:
            z = np.einsum("ti,ti->t", copy[:-1].conj(), copy[1:])
            assert np.abs(np.angle(z[np.abs(z) > 1e-12])).max(initial=0.0) <= 1e-12


def test_separated_fibers_skip_the_scalar_matcher(monkeypatch):
    calls = []
    real = qwalk.spectral._match_step

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(qwalk.spectral, "_match_step", counting)
    for spec, most in ((coined(0.5), 0), (random_walk(3), 0), (grover4(), 16)):
        calls.clear()
        sample_bands(spec, 2048)
        assert len(calls) <= most


def fiber_min_gap(spec, *ks):
    vals = np.array([np.linalg.eigvals(symbol_on_grid(spec, np.array([k]))[0]) for k in ks])
    gaps = _pair_gaps(vals)
    return gaps[gaps > MERGE_TOL].min()


def assert_refusal_advice(exc, spec):
    want = fiber_min_gap(spec, exc.k_lo, exc.k_hi)
    assert exc.min_gap == pytest.approx(want, rel=1e-6)
    # the speed bound covers every group velocity
    assert exc.bound >= commutator_norm(spec)
    # next_grid is the first grid whose step 4 pi L / G the gap proves
    g = exc.next_grid
    assert g >= 64 and g & (g - 1) == 0
    assert 4 * np.pi * exc.bound / g < exc.min_gap
    assert g == 64 or 4 * np.pi * exc.bound / (g // 2) >= exc.min_gap
    text = str(exc)
    assert text.startswith("band assignment ambiguous on k in [")
    # no refinement runs before a seam refusal, so none is claimed
    assert "refinement" not in text
    assert "%.3e" % exc.min_gap in text and "%.3e" % exc.bound in text and str(g) in text
    clone = pickle.loads(pickle.dumps(exc))
    assert (clone.k_lo, clone.k_hi, clone.min_gap, clone.bound, clone.next_grid) == (
        exc.k_lo, exc.k_hi, exc.min_gap, exc.bound, exc.next_grid,
    )
    assert str(clone) == text


def test_unresolved_crossing_reports_gap_and_next_grid(monkeypatch):
    # the certificate answers this walk; the tracker alone refuses it
    force_tracker(monkeypatch)
    spec = coined(1 - 1e-9)
    with pytest.raises(UnresolvedCrossing) as info:
        sample_bands(spec, 256)
    assert info.value.k_hi - info.value.k_lo == pytest.approx(2 * np.pi / 256)
    assert_refusal_advice(info.value, spec)
    # the two-argument form still works and still pickles
    bare = pickle.loads(pickle.dumps(UnresolvedCrossing(0.1, 0.2)))
    assert (bare.k_lo, bare.k_hi, bare.min_gap, bare.bound, bare.next_grid) == (
        0.1, 0.2, None, None, None,
    )


def test_kept_refusal_holds_no_tracking_arrays():
    # a caller may keep the exception, and with it every frame of its
    # traceback; none of them may still hold the grid-sized arrays
    try:
        sample_bands(walk_power(random_walk(3, shift_max=2), 3), 2048)
    except UnresolvedCrossing as exc:
        kept = exc
    tb, big = kept.__traceback__, []
    while tb is not None:
        big += [
            name for name, value in tb.tb_frame.f_locals.items()
            if isinstance(value, np.ndarray) and value.size >= 2048
        ]
        tb = tb.tb_next
    assert big == []


def test_seam_refusal_reports_gap_and_next_grid(monkeypatch):
    # the seam is the forward sweep's last step, onto fiber 0 at k = 2pi.
    # Tracked, coined(1 - 1e-10) at 128 has a seam step that is unproven
    # and fails the scalar match, so it reaches the refined chain; make
    # that chain fail to reach the refusal
    real = qwalk.spectral._chain_match

    def seam_fails(spec, k_start, k_end, *args, **kwargs):
        if k_end == 2 * np.pi:
            return None
        return real(spec, k_start, k_end, *args, **kwargs)

    monkeypatch.setattr(qwalk.spectral, "_chain_match", seam_fails)
    force_tracker(monkeypatch)
    spec = coined(1 - 1e-10)
    with pytest.raises(UnresolvedCrossing) as info:
        sample_bands(spec, 128)
    assert info.value.k_hi == 2 * np.pi
    assert info.value.k_lo == 2 * np.pi * 127 / 128
    assert_refusal_advice(info.value, spec)


def test_seam_refusal_when_two_sheets_share_a_section(monkeypatch):
    # sigma[s] is the backward sheet best overlapping forward sheet s at
    # k = 2pi; give two forward sheets one section there, so both pick the
    # same backward sheet and the seam step is refused
    real = qwalk.spectral._scalar_step

    def one_section(spec, ks, vals, vecs, tv, tw, t, bound):
        perm = real(spec, ks, vals, vecs, tv, tw, t, bound)
        if ks[t] == 2 * np.pi:
            tw[t][:, 1] = tw[t][:, 0]
        return perm

    monkeypatch.setattr(qwalk.spectral, "_scalar_step", one_section)
    # two sheets meet at -1 at k = 0, so the seam step is a scalar one
    spec = FIXTURES["grover3_subwalk"]()
    with pytest.raises(UnresolvedCrossing) as info:
        sample_bands(spec, 256)
    assert info.value.k_hi == 2 * np.pi
    assert info.value.k_lo == 2 * np.pi * 255 / 256
    assert_refusal_advice(info.value, spec)


def test_match_step_is_the_checked_least_distance_assignment(monkeypatch):
    # oracle: on a step with no candidate pair within MERGE_TOL, the nearest
    # values are returned exactly when scipy's least-distance assignment
    # passes the pair rule, and then they are that assignment
    recorded = []
    real = qwalk.spectral._match_step

    def recording(pred, w):
        perm = real(pred, w)
        recorded.append((pred.copy(), w.copy(), perm))
        return perm

    monkeypatch.setattr(qwalk.spectral, "_match_step", recording)
    for _, make_spec in TRACK_ORACLE_WALKS:
        for grid in (256, 2048):
            extract_or_refusal(make_spec(), grid)
    plain = [c for c in recorded if _pair_gaps(c[1]).min(initial=np.inf) >= MERGE_TOL]
    assert len(plain) > 100
    # an n = 1 step is always proven, so it never reaches _match_step
    assert {len(w) for _, w, _ in plain} >= {2, 3, 4, 8}
    assert any(perm is None for _, _, perm in plain)
    for pred, w, perm in plain:
        dist = np.abs(pred[:, None] - w[None, :])
        want = linear_sum_assignment(dist)[1]
        if qwalk.spectral._pair_check(dist[np.arange(len(w)), want], w[want]):
            assert perm is None
        else:
            assert np.array_equal(perm, want)


@pytest.mark.parametrize("theta", [0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8])
def test_seam_does_not_depend_on_the_solver_basis(monkeypatch, theta):
    # at k = 0 every walk below has a cluster of sheets within MERGE_TOL;
    # turning the solver's basis of it must not move the seam
    solve = qwalk.spectral._eig_grid
    c, s = np.cos(theta), np.sin(theta)

    def rotated(spec, ks):
        values, vectors = solve(spec, ks)

        def turned():
            vals, vecs = vectors()
            for g in np.flatnonzero(ks == 0):
                for idx in _clusters(vals[g], MERGE_TOL):
                    if len(idx) > 1:
                        a, b = vecs[g][:, idx[0]].copy(), vecs[g][:, idx[1]].copy()
                        vecs[g][:, idx[0]] = c * a - s * b
                        vecs[g][:, idx[1]] = s * a + c * b
            return vals, vecs

        return values, turned

    monkeypatch.setattr(qwalk.spectral, "_eig_grid", rotated)
    assert monodromy(grover3(), 256) == (1, 2)
    assert monodromy(FIXTURES["grover3_subwalk"](), 256) == (2,)
    assert monodromy(grover4(), 256) == (1, 1, 1, 1)


UNCERTIFIED = (
    "uncertified step at the avoided crossing takes the heuristic; "
    "needs certified subdivision"
)
COINED_SWEEP_M = [2 + 0.25 * i for i in range(56)]
# the smallest P = 4 (1 - r^2) is about 8 10^-m, and the certificate's
# rounding allowance for the coined walk is about 1.4 10^-12 at both grids:
# up to m = 12.75 P is proven above it and the bands are labelled in closed
# form.  From m = 13 the block is tracked, and the gap 2 sqrt(1 - r^2) at
# k = 0 and pi is too small for a refined step to prove; at grid 256 the
# scalar step still joins the two bands into one for seven m, with exit 0
# (tests/ledger.json lists the same entries)
COINED_SWEEP_REFUSED = {
    (m, 256) for m in COINED_SWEEP_M if m == 13 or 14 <= m <= 14.75
} | {(m, 2048) for m in COINED_SWEEP_M if m >= 13}
COINED_SWEEP_WRONG = {(m, 256) for m in (13.25, 13.5, 13.75, 15, 15.25, 15.5, 15.75)}


def coined_sweep_case(m, grid):
    marks = ()
    if (m, grid) in COINED_SWEEP_WRONG:
        marks = pytest.mark.xfail(strict=True, reason=UNCERTIFIED)
    return pytest.param(m, grid, marks=marks, id="m=%g-%d" % (m, grid))


@pytest.mark.parametrize(
    "m,grid", [coined_sweep_case(m, g) for m in COINED_SWEEP_M for g in (256, 2048)]
)
def test_coined_sweep_gives_closed_form_or_refuses(m, grid):
    r = 1 - 10.0**-m
    got = extract_or_refusal(coined(r), grid)
    if (m, grid) in COINED_SWEEP_REFUSED:
        assert isinstance(got, UnresolvedCrossing)
        return
    assert isinstance(got, qwalk.spectral.BandSet)
    # two gapped degree-1 bands of winding 0: r cos k +- i sqrt(1 - r^2 cos^2 k)
    assert [(b.degree, b.winding, b.multiplicity) for b in got.bands] == [(1, 0, 1)] * 2
    ks = 2 * np.pi * np.arange(grid) / grid
    c = r * np.cos(ks)
    root = 1j * np.sqrt(1 - c * c)
    for band in got.bands:
        assert min(np.max(np.abs(band.samples - (c + s * root))) for s in (1, -1)) < 1e-10


# the two random walks certify at both grids; P of the power has real
# zeros, so it is tracked, and an unproven step goes wrong at one grid
GRID_DEPENDENT_WALKS = [
    ("walk(2054020785)", lambda: random_walk(2054020785)),
    ("walk(1514645085)", lambda: random_walk(1514645085)),
    pytest.param(
        "walk(959707297, shift<=2)^2",
        lambda: walk_power(random_walk(959707297, shift_max=2), 2),
        marks=pytest.mark.xfail(strict=True, reason=UNCERTIFIED),
    ),
]


@pytest.mark.parametrize(
    "name,make_spec", GRID_DEPENDENT_WALKS,
    ids=["walk(2054020785)", "walk(1514645085)", "walk(959707297, shift<=2)^2"],
)
def test_invariants_agree_at_256_and_2048(name, make_spec):
    spec = make_spec()
    key = lambda b: (b.degree, b.winding, b.min_period, b.multiplicity)
    coarse, fine = (sorted(map(key, sample_bands(spec, g).bands)) for g in (256, 2048))
    assert coarse == fine


# walk families whose every block certifies at grids 256 and 2048
# (n <= 4 and |shift| <= 3, so D <= 36 and G > 2D)
CERT_FAMILIES = {
    "walk(shift<=%d)" % shift_max: [
        lambda seed=seed, shift_max=shift_max: random_walk(seed, shift_max=shift_max)
        for seed in range(40)
    ]
    for shift_max in (1, 2, 3)
}
CERT_FAMILIES["real_walk"] = [lambda seed=seed: real_random_walk(seed) for seed in range(20)]


@pytest.mark.parametrize("grid", [256, 2048])
@pytest.mark.parametrize("family", list(CERT_FAMILIES))
def test_certified_blocks_follow_the_gcd_rule(certificates, family, grid):
    # sheet i meets sheet i + w at the seam, w the det winding: gcd(n, w)
    # cycles of n / gcd(n, w) sheets, and each band winds w / gcd(n, w) times
    for make_spec in CERT_FAMILIES[family]:
        spec = make_spec()
        for block in [block for block, _ in _invariant_blocks(spec)] or [spec]:
            certificates.clear()
            band_set = sample_bands(block, grid)
            assert certificates == [True]
            n, w = block.n, det_winding(block)
            g = math.gcd(n, w)
            assert [(b.degree, b.winding, b.multiplicity) for b in band_set.bands] == [
                (n // g, w // g, 1)
            ] * g


@pytest.mark.parametrize("grid", [256, 2048])
@pytest.mark.parametrize("family", list(CERT_FAMILIES))
def test_certified_labels_match_the_tracker(monkeypatch, certificates, family, grid):
    # oracle: the tracker, forced on every block, gives the same integers
    # and the same sections, bit for bit; the labelled samples are
    # eigvalsh's values and the tracker's eigh's, equal up to rounding
    for make_spec in CERT_FAMILIES[family]:
        certificates.clear()
        got = sample_bands(make_spec(), grid)
        assert certificates and all(certificates)
        with monkeypatch.context() as patch:
            force_tracker(patch)
            want = sample_bands(make_spec(), grid)
        key = lambda b: (b.degree, b.multiplicity, b.winding, b.min_period, b.is_constant)
        assert [key(b) for b in got.bands] == [key(b) for b in want.bands]
        for bg, bw in zip(got.bands, want.bands):
            assert np.max(np.abs(bg.samples - bw.samples)) <= 2e-14
            assert np.array_equal(bg.eigvec_samples, bw.eigvec_samples)


# P has a real zero on each: touching bands, or crossings of the power
TOUCHING_WALKS = [
    ("grover3", grover3),
    ("grover4", grover4),
    ("grover4_subwalk", FIXTURES["grover4_subwalk"]),
    ("walk(959707297, shift<=2)^2", lambda: walk_power(random_walk(959707297, shift_max=2), 2)),
]


@pytest.mark.parametrize("grid", [256, 2048])
@pytest.mark.parametrize("name,make_spec", TOUCHING_WALKS, ids=[w[0] for w in TOUCHING_WALKS])
def test_walks_whose_bands_meet_are_tracked(tracks, certificates, name, make_spec, grid):
    extract_or_refusal(make_spec(), grid)
    assert certificates and not any(certificates)
    assert len(tracks) == len(certificates)


def test_certificate_fails_closed():
    G = 256
    ks = 2.0 * np.pi * np.arange(G) / G
    vals = qwalk.spectral._solve_grid(coined(0.5), ks)[0]
    # shifts +-1: D = 2; taken as one shift, D = 0, and the coefficients
    # past 0 are far above the allowance
    assert qwalk.spectral._certify(vals, (-1, 1))
    assert not qwalk.spectral._certify(vals, (1,))
    spread = np.tile(np.exp(2j * np.pi * np.arange(3) / 3), (G, 1))
    assert qwalk.spectral._certify(spread, (0, 42))
    # D = 3 * 2 * 43 / 2 = 129: the grid cannot sample P
    assert not qwalk.spectral._certify(spread, (0, 43))
    repeated = spread.copy()
    repeated[:, 1] = repeated[:, 0]
    assert not qwalk.spectral._certify(repeated, (0, 1))
    # a pair within MERGE_TOL is refused even where P clears the allowance
    close = np.tile(np.exp(2j * np.pi * np.arange(10) / 10), (G, 1))
    close[:, 1] = close[:, 0] * np.exp(5e-10j)
    gaps = _pair_gaps(close)
    p = np.prod(gaps**2, axis=1)
    assert p.min() > qwalk.spectral._allowance(p, gaps, 10, (0, 1), 45)
    assert not qwalk.spectral._certify(close, (0, 1))
    for bad in (np.nan, np.inf):
        broken = spread.copy()
        broken[17, 2] = bad
        assert not qwalk.spectral._certify(broken, (0, 1))


@pytest.mark.parametrize("grid", [256, 2048])
@pytest.mark.parametrize("m", [0.3, 4, 9, 12.75, 15])
def test_allowance_bounds_the_low_series_error(m, grid):
    # oracle: the coined walk's P = 4 (1 - r^2 cos^2 k) in closed form,
    # against the series the certificate builds from the solved samples,
    # at four points per grid cell
    r = 1 - 10.0**-m
    ks = 2.0 * np.pi * np.arange(grid) / grid
    gaps = _pair_gaps(qwalk.spectral._solve_grid(coined(r), ks)[0])
    p = np.prod(gaps**2, axis=1)
    coef = np.fft.fft(p) / grid
    freqs = np.rint(np.fft.fftfreq(grid) * grid)
    low = np.abs(freqs) <= 2
    fine = 2.0 * np.pi * np.arange(4 * grid) / (4 * grid)
    series = (np.exp(1j * np.multiply.outer(fine, freqs[low])) @ coef[low]).real
    error = np.abs(series - 4 * (1 - (r * np.cos(fine)) ** 2)).max()
    assert error <= qwalk.spectral._allowance(p, gaps, 2, (-1, 1), 2)


def test_labels_need_the_det_phase_to_round_cleanly():
    # fixed, separated values, their arguments ascending: winding 0 labels
    # every fiber alike, and winding 1 puts the rounding residue at 1/2 at
    # k = pi
    G = 64
    vals = np.tile(np.exp(1j * np.array([-2.0, 0.5, 2.0])), (G, 1))
    cols, sigma = qwalk.spectral._label(vals, 0)
    assert np.array_equal(cols, np.tile(np.arange(3), (G, 1)))
    assert np.array_equal(sigma, np.arange(3))
    assert qwalk.spectral._label(vals, 1) is None


def test_speed_bound_is_taken_only_for_tracked_blocks(monkeypatch):
    # the grid rule needs the whole walk's bound; a certified block needs none
    calls = []
    real = qwalk.spectral._speed_bound
    monkeypatch.setattr(
        qwalk.spectral, "_speed_bound", lambda spec: calls.append(spec) or real(spec)
    )
    spec = sum_with_modulated(4, 0.5)
    sample_bands(spec, 256)
    assert calls == [spec]
    force_tracker(monkeypatch)
    calls.clear()
    spec = sum_with_modulated(4, 0.5)
    sample_bands(spec, 256)
    assert calls[0] is spec and len(calls) == 3


def test_mirrored_fibers_are_the_symbols_eigenvalues():
    # a real walk solves fibers 0 ... G / 2 and conjugates fiber m into
    # fiber G - m; each mirrored fiber's values and sections against the
    # symbol evaluated there
    for name in REAL_FIXTURES:
        spec = FIXTURES[name]()
        for grid in (256, 2048):
            ks = 2.0 * np.pi * np.arange(grid) / grid
            vals, vecs = qwalk.spectral._solve_grid(spec, ks)[1]()
            mirrored = np.arange(grid // 2 + 1, grid)
            mats = symbol_on_grid(spec, ks[mirrored])
            want = np.linalg.eigvals(mats)
            for got_g, want_g in zip(vals[mirrored], want):
                dist = np.abs(got_g[:, None] - want_g[None, :])
                rows, cols = linear_sum_assignment(dist)
                assert dist[rows, cols].max() <= 1e-13, (name, grid)
            resid = mats @ vecs[mirrored] - vecs[mirrored] * vals[mirrored][:, None, :]
            assert np.abs(resid).max() <= 1e-13, (name, grid)


def full_solve_bands(spec, grid, monkeypatch):
    """sample_bands with every fiber solved, as for a complex walk."""
    with monkeypatch.context() as patch:
        patch.setattr(qwalk.spectral, "_is_real", lambda spec: False)
        return extract_or_refusal(spec, grid)


HALF_SOLVE_WALKS = (
    [(name, FIXTURES[name]) for name in fixture_names()]
    + [("coined(1 - 10^-%g)" % m, lambda m=m: coined(1 - 10.0**-m)) for m in COINED_SWEEP_M]
    + [("real_walk(%d)" % seed, lambda seed=seed: real_random_walk(seed)) for seed in range(20)]
)


@pytest.mark.parametrize("grid", [256, 2048])
@pytest.mark.parametrize(
    "name,make_spec", HALF_SOLVE_WALKS, ids=[w[0] for w in HALF_SOLVE_WALKS]
)
def test_half_solved_grids_keep_signatures_and_refusals(monkeypatch, name, make_spec, grid):
    spec = make_spec()
    assert _is_real(spec) == (name != "grover3_subwalk")
    got = extract_or_refusal(spec, grid)
    want = full_solve_bands(make_spec(), grid, monkeypatch)
    if isinstance(want, UnresolvedCrossing):
        # the start fiber is the best-separated one; on a mirrored grid its
        # mirror ties with it exactly, where on the all-fiber path rounding
        # picks one, so coined(1 - 10^-8) and coined(1 - 10^-10.75) at 256
        # meet their crossing at pi before the one at 2 pi: the same gap,
        # so the same next grid
        assert isinstance(got, UnresolvedCrossing)
        if (got.k_lo, got.k_hi) != (want.k_lo, want.k_hi):
            assert name in ("coined(1 - 10^-8)", "coined(1 - 10^-10.75)") and grid == 256
            assert (got.k_hi, want.k_hi) == (np.pi, 2 * np.pi)
        assert got.min_gap == pytest.approx(want.min_gap, rel=1e-9)
        assert (got.bound, got.next_grid) == (want.bound, want.next_grid)
        return
    assert isinstance(got, qwalk.spectral.BandSet)
    key = lambda b: (b.degree, b.multiplicity, b.winding, b.min_period, b.is_constant)
    assert [key(b) for b in got.bands] == [key(b) for b in want.bands]


def test_speed_bound_computed_once_per_spec(monkeypatch):
    # the bound is not memoized, but the commutator norm under it is
    calls = []
    real = qwalk.walkspec._max_derivative_sigma

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(qwalk.walkspec, "_max_derivative_sigma", counting)
    spec = grover4()
    first = qwalk.walkspec._speed_bound(spec)
    sample_bands(spec, 256)
    sample_bands(spec, 2048)
    assert qwalk.walkspec._speed_bound(spec) == first
    assert len(calls) == 1
    assert qwalk.walkspec._speed_bound(grover4()) == first
    assert len(calls) == 2


def row_loop_band_csv(band_set):
    """write_band_csv as one formatted row per grid point."""
    G = band_set.grid_size
    ks = 2.0 * np.pi * np.arange(G) / G
    headers, columns = ["k"], []
    for bi, band in enumerate(band_set.bands):
        for c in range(band.multiplicity):
            for s in range(band.degree):
                headers += ["band%d_copy%d_sheet%d_%s" % (bi, c, s, part) for part in ("re", "im")]
                columns.append(band.samples[s * G : (s + 1) * G])
    lines = [",".join(headers)]
    for g in range(G):
        row = ["%.17g" % ks[g]]
        for col in columns:
            row += ["%.17g" % col[g].real, "%.17g" % col[g].imag]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("grid", [256, 2048])
@pytest.mark.parametrize("name", fixture_names())
def test_band_csv_matches_the_row_loop(name, grid):
    band_set = sample_bands(FIXTURES[name](), grid)
    buf = io.StringIO()
    write_band_csv(band_set, buf)
    assert buf.getvalue() == row_loop_band_csv(band_set)


@pytest.fixture
def batched_eighs(monkeypatch):
    """Running count of the batched (3-D) np.linalg.eigh calls: only the
    extraction's eigenvector solves make them."""
    calls = [0]
    real = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls[0] += np.ndim(a) == 3
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


@pytest.mark.parametrize("grid", [256, 2048])
@pytest.mark.parametrize(
    "name,make_spec", [("walk(0)", lambda: random_walk(0)), ("coined", lambda: coined(0.5))]
)
def test_certified_walks_solve_eigenvectors_only_when_a_section_is_read(
    monkeypatch, batched_eighs, certificates, name, make_spec, grid
):
    # the invariants read values alone; the first read of any section
    # runs eigh once on the Cayley matrices each certified block's values
    # came from, for every band, and keeps the result: no second symbol
    # grid, prediction or Cayley solve
    spec = make_spec()
    dec = decompose(spec, grid)
    is_ct_realizable(spec, grid)
    qwalk.intertwine.commutant_report(dec)
    assert certificates == [True]
    assert batched_eighs[0] == 0
    solves = []
    for module, fn in ((np.linalg, "solve"), (np.linalg, "eigvals"), (qwalk.spectral, "symbol_on_grid")):
        real = getattr(module, fn)
        monkeypatch.setattr(
            module, fn, lambda *args, fn=fn, real=real: solves.append(fn) or real(*args)
        )
    # a band set pickles with its sections unbuilt, and builds its own
    clone = pickle.loads(pickle.dumps(dec.band_set))
    first = dec.band_set.bands[0].eigvec_samples
    assert batched_eighs[0] == 1
    assert np.array_equal(clone.bands[0].eigvec_samples, first)
    assert batched_eighs[0] == 2
    for band in dec.band_set.bands:
        band.eigvec_samples
    assert dec.band_set.bands[0].eigvec_samples is first
    assert batched_eighs[0] == 2 and solves == []


def resolved_bands(spec, grid):
    """The extraction with each certified block's sections from a second
    solve: the block solved again, and each labelled value taking the
    column of eigh whose value is nearest it."""
    ks = 2.0 * np.pi * np.arange(grid) / grid
    tv, sigma, parts = [], [], []
    for block, basis in _invariant_blocks(spec) or [(spec, None)]:
        values, seam, secs = qwalk.spectral._solve_block(block, ks)
        if callable(secs):
            vals, vecs = qwalk.spectral._solve_grid(block, ks)[1]()
            cols = np.abs(values[:, :, None] - vals[:, None, :]).argmin(axis=2)
            assert (np.sort(cols, axis=1) == np.arange(block.n)).all()
            secs = np.take_along_axis(vecs, cols[:, None, :], axis=2)
        tv.append(values)
        sigma.append(seam + sum(map(len, sigma)))
        parts.append((basis, secs))
    return qwalk.spectral._assemble_bands(
        np.concatenate(tv, axis=1), parts, np.concatenate(sigma), grid
    )


def test_tracked_walks_take_their_sections_from_the_one_solve(monkeypatch, batched_eighs, tracks):
    # grover4 is tracked: its eigenvectors come from eigh of the Cayley
    # matrices its values were solved from, and a read solves nothing
    spec = grover4()
    band_set = sample_bands(spec, 256)
    assert len(tracks) == 1 and batched_eighs[0] == 1
    solves = []
    real = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or real(*args))
    for band in band_set.bands:
        band.eigvec_samples
    assert solves == [] and batched_eighs[0] == 1


SECTION_WALKS = [(name, FIXTURES[name]) for name in fixture_names()] + [
    ("coined+grover4", lambda: direct_sum(coined(0.5), grover4())),
    ("walk(4)+U_0.5", lambda: sum_with_modulated(4, 0.5)),
    ("real_walk(0)", lambda: real_random_walk(0)),
]


@pytest.mark.parametrize("grid", [256, 2048])
@pytest.mark.parametrize("name,make_spec", SECTION_WALKS, ids=[w[0] for w in SECTION_WALKS])
def test_sections_match_a_second_solve_bit_for_bit(name, make_spec, grid):
    got = extract_or_refusal(make_spec(), grid)
    if isinstance(got, UnresolvedCrossing):
        return
    want = resolved_bands(make_spec(), grid)
    assert len(got.bands) == len(want)
    for bg, bw in zip(got.bands, want):
        assert np.array_equal(bg.samples, bw.samples)
        assert np.array_equal(bg.eigvec_samples, bw.eigvec_samples)


def test_first_section_reads_from_several_threads_agree():
    # every thread finds the sections unbuilt; none may see another's
    # cleared inputs
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(5):
            band_set = sample_bands(random_walk(seed), 2048)
            barrier = threading.Barrier(4)
            got, errors = [], []

            def read():
                barrier.wait()
                try:
                    got.append(band_set.bands[0].eigvec_samples)
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert errors == [] and len(got) == 4, seed
            assert all(np.array_equal(secs, got[0]) for secs in got)
    finally:
        sys.setswitchinterval(interval)


PICKLE_WALKS = [
    ("walk(0)", lambda: random_walk(0)),
    ("grover4", grover4),
    ("coined+grover4", lambda: direct_sum(coined(0.5), grover4())),
]


@pytest.mark.parametrize("name,make_spec", PICKLE_WALKS, ids=[w[0] for w in PICKLE_WALKS])
def test_a_pickled_band_set_stays_read_only(name, make_spec):
    band_set = sample_bands(make_spec(), 256)
    unbuilt = pickle.loads(pickle.dumps(band_set))
    for band in band_set.bands:
        band.eigvec_samples
    built = pickle.loads(pickle.dumps(band_set))
    for clone in (unbuilt, built):
        for band, want in zip(clone.bands, band_set.bands, strict=True):
            for field in ("samples", "fourier", "support", "eigvec_samples"):
                arr = getattr(band, field)
                assert not arr.flags.writeable, field
                assert np.array_equal(arr, getattr(want, field))


def limit_law_or_refusal(dec, state):
    try:
        return qwalk.dynamics.limit_law(dec, state)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("grid", [256, 2048])
@pytest.mark.parametrize("name,make_spec", SECTION_WALKS, ids=[w[0] for w in SECTION_WALKS])
def test_sections_built_on_first_read_are_gauged_eigenbases(
    monkeypatch, certificates, name, make_spec, grid
):
    spec = make_spec()
    got = extract_or_refusal(spec, grid)
    if isinstance(got, UnresolvedCrossing):
        return
    if name == "coined+grover4":
        # the coined block certifies, the grover4 block is tracked
        assert sorted(certificates) == [False, True]
    if name == "real_walk(0)":
        assert _is_real(spec) and certificates == [True]
    mats = symbol_on_grid(spec, 2.0 * np.pi * np.arange(grid) / grid)
    vals, vecs = [], []
    for band in got.bands:
        stack = band.eigvec_samples
        assert stack.shape == (band.multiplicity, band.samples.size, spec.n)
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 0
        for copy in stack:
            # eigen-equation fiber by fiber on the cover
            lam = band.samples.reshape(band.degree, grid)
            v = copy.reshape(band.degree, grid, spec.n)
            resid = np.einsum("gij,sgj->sgi", mats, v) - lam[:, :, None] * v
            assert np.linalg.norm(resid, axis=2).max() <= 1e-10
            vals.append(lam)
            vecs.append(v)
            # consecutive overlaps real and positive wherever they do not vanish
            z = np.einsum("ti,ti->t", copy[:-1].conj(), copy[1:])
            assert np.abs(np.angle(z[np.abs(z) > 1e-12])).max(initial=0.0) <= 1e-12
            # gauge: at ktilde = 0 the largest component is real positive
            v0 = copy[0]
            lead = v0[int(np.argmax(np.abs(v0) >= np.abs(v0).max() - 1e-12))]
            assert lead.real > 0 and abs(lead.imag) <= 1e-15
    # the n sheets' sections over each fiber are orthonormal
    frame = np.concatenate(vecs)
    gram = np.einsum("sgi,tgi->gst", frame.conj(), frame)
    assert np.max(np.abs(gram - np.eye(spec.n))) <= 1e-10
    # limit law and generator against the tracker forced on every block
    state = qwalk.dynamics.uniform_coin_state(spec.n)
    law = limit_law_or_refusal(decompose(spec, grid), state)
    verdict = is_ct_realizable(spec, grid)
    with monkeypatch.context() as patch:
        force_tracker(patch)
        want = extract_or_refusal(make_spec(), grid)
        if isinstance(want, UnresolvedCrossing):
            return
        want_law = limit_law_or_refusal(decompose(want_spec := make_spec(), grid), state)
        want_verdict = is_ct_realizable(want_spec, grid)
    if isinstance(want_law, str):
        assert law == want_law
    else:
        assert law.total_mass() == pytest.approx(1.0, abs=1e-10)
        assert law.total_mass() == pytest.approx(want_law.total_mass(), abs=1e-12)
        # sections are the same, values differ by rounding, which the FFT
        # derivative of the velocities scales by up to the grid's frequencies
        for field, tol in (("weights", 1e-12), ("bin_masses", 1e-12), ("velocities", 1e-10)):
            moved = np.abs(getattr(law, field) - getattr(want_law, field))
            assert np.max(moved, initial=0.0) <= tol
    assert verdict.realizable == want_verdict.realizable
    if verdict.realizable:
        coefs = qwalk.realize.generator_coefficients(verdict, 3)
        want_coefs = qwalk.realize.generator_coefficients(want_verdict, 3)
        for j, h in coefs.items():
            assert np.max(np.abs(h - want_coefs[j])) <= 1e-12
