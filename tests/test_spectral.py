import gc
import io
import pickle
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
)
from qwalk.spectral import (
    MERGE_TOL,
    _align_frame,
    _best_start,
    _chain_match,
    _clusters,
    _pair_gaps,
    _upsample2,
)

from conftest import random_walk


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
    assert det_winding(a, 128) == 1
    assert det_winding(b, 256) == 1
    assert det_winding(direct_sum(a, b), 256) == 2


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
    samples = np.exp(2j * np.pi * np.arange(G) / G)
    base = np.exp(2j * np.pi * np.random.default_rng(2).random((G, 2))) / np.sqrt(2)
    section, turned = base.copy(), base * np.exp(0.7j)
    section[:, 0] *= 1 + 4 * np.finfo(float).eps
    turned[:, 1] *= 1 + 4 * np.finfo(float).eps
    a, b = (
        qwalk.spectral._finalize_band(samples, [s], 1, G).eigvec_samples
        for s in (section, turned)
    )
    assert np.max(np.abs(a - b)) <= 1e-12


def test_value_and_derivative_interpolation():
    bs = sample_bands(free(), 128)
    band = bs.bands[0]
    pts = np.array([0.1, 1.7, 5.5])
    np.testing.assert_allclose(band.value_at(pts), np.exp(1j * pts), atol=1e-12)
    np.testing.assert_allclose(band.derivative_at(pts), 1j * np.exp(1j * pts), atol=1e-10)


def test_upsample_matches_band_fourier_series():
    # the winding retry upsamples by zero-padding the spectrum; band samples
    # are a trigonometric polynomial, so the new midpoints are its values
    for spec in (coined(0.5), grover3(), grover4(), cube_root()):
        for band in sample_bands(spec, 256).bands:
            up = _upsample2(band.samples)
            np.testing.assert_allclose(up[::2], band.samples, rtol=0, atol=1e-12)
            kg = band.kgrid
            mid = kg + 0.5 * (kg[1] - kg[0])
            np.testing.assert_allclose(up[1::2], band.value_at(mid), rtol=0, atol=1e-12)


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


def walk_power(spec, p):
    """U^p: coefficient m is the sum of A_j1 ... A_jp over j1 + ... + jp = m."""
    terms = {0: np.eye(spec.n, dtype=complex)}
    for _ in range(p):
        nxt = {}
        for i, a in terms.items():
            for j, b in spec.terms.items():
                nxt[i + j] = nxt.get(i + j, 0) + a @ b
        terms = nxt
    return WalkSpec(n=spec.n, terms=terms)


def modulated(spec, alpha):
    """U_alpha with symbol U_hat(k + alpha)."""
    return WalkSpec(
        n=spec.n, terms={j: np.exp(1j * j * alpha) * a for j, a in spec.terms.items()}
    )


def schur_grid(spec, ks):
    """Reference eigensolve: one complex Schur decomposition per fiber."""
    mats = symbol_on_grid(spec, ks)
    vals = np.empty((ks.size, spec.n), dtype=complex)
    vecs = np.empty((ks.size, spec.n, spec.n), dtype=complex)
    for g in range(ks.size):
        t, z = schur(mats[g], output="complex")
        vals[g] = np.diagonal(t)
        vecs[g] = z
    return vals, vecs


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
    assert det_winding(spec, 256) == 0
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


def test_unresolved_crossing_is_not_memoized(tracks):
    spec = coined(1 - 1e-9)
    for attempt in (1, 2):
        with pytest.raises(UnresolvedCrossing):
            sample_bands(spec, 256)
        assert len(tracks) == attempt


def assert_orthonormal_eigenbasis(spec, ks):
    vals, vecs = qwalk.spectral._eig_grid(spec, ks)
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
        vals, vecs = solve(spec, ks)
        return vals[:, ::-1], vecs[:, :, ::-1]

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


def test_commutator_norm_computed_once_per_spec(monkeypatch):
    calls = []
    real = qwalk.walkspec.derivative_symbol_on_grid

    def counting(spec, ks):
        calls.append(spec)
        return real(spec, ks)

    monkeypatch.setattr(qwalk.walkspec, "derivative_symbol_on_grid", counting)
    spec = coined(0.5)
    first = commutator_norm(spec)
    count = len(calls)
    assert count > 0
    assert commutator_norm(spec) == first
    assert len(calls) == count
    assert commutator_norm(coined(0.5)) == first
    assert len(calls) == 2 * count


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
]


def extract_or_refusal(spec, grid):
    try:
        return sample_bands(spec, grid)
    except UnresolvedCrossing as exc:
        return exc


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


def test_vanishing_overlap_takes_the_scalar_step():
    # synthetic fibers with fixed, separated values; the columns swap their
    # vectors on fibers 20 to 23, so consecutive sections there are
    # orthogonal and _align_frame leaves them unphased.  Nothing refines,
    # so no walk is needed, and the speed bound is passed in
    rng = np.random.default_rng(1)
    G = 64
    ks = 2.0 * np.pi * np.arange(G) / G
    vals = np.tile(np.exp(2j * np.pi * np.arange(3) / 3), (G, 1))
    vecs = np.eye(3) * np.exp(2j * np.pi * rng.random((G, 1, 3)))
    vecs[20:24] = vecs[20:24][:, :, [1, 2, 0]]
    # bound 0 proves every other step
    got = qwalk.spectral._track(None, ks, vals, vecs, 0.0)
    want = scalar_track(None, ks, vals, vecs, 0.0)
    assert np.array_equal(got[0], want[0])
    assert np.max(np.abs(got[1] - want[1])) <= 1e-12
    assert np.array_equal(got[2], want[2])


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
    assert "%.3e" % exc.min_gap in text and "%.3e" % exc.bound in text and str(g) in text
    clone = pickle.loads(pickle.dumps(exc))
    assert (clone.k_lo, clone.k_hi, clone.min_gap, clone.bound, clone.next_grid) == (
        exc.k_lo, exc.k_hi, exc.min_gap, exc.bound, exc.next_grid,
    )
    assert str(clone) == text


def test_unresolved_crossing_reports_gap_and_next_grid():
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
        sample_bands(coined(1 - 1e-9), 2048)
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
    # coined(1 - 1e-6) at 256 is the one walk found whose seam step is
    # unproven and fails the scalar match, so it reaches the refined chain;
    # make that chain fail to reach the refusal
    real = qwalk.spectral._chain_match

    def seam_fails(spec, k_start, k_end, *args, **kwargs):
        if k_end == 2 * np.pi:
            return None
        return real(spec, k_start, k_end, *args, **kwargs)

    monkeypatch.setattr(qwalk.spectral, "_chain_match", seam_fails)
    spec = coined(1 - 1e-6)
    with pytest.raises(UnresolvedCrossing) as info:
        sample_bands(spec, 256)
    assert info.value.k_hi == 2 * np.pi
    assert info.value.k_lo == 2 * np.pi * 255 / 256
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
        vals, vecs = solve(spec, ks)
        for g in np.flatnonzero(ks == 0):
            for idx in _clusters(vals[g], MERGE_TOL):
                if len(idx) > 1:
                    a, b = vecs[g][:, idx[0]].copy(), vecs[g][:, idx[1]].copy()
                    vecs[g][:, idx[0]] = c * a - s * b
                    vecs[g][:, idx[1]] = s * a + c * b
        return vals, vecs

    monkeypatch.setattr(qwalk.spectral, "_eig_grid", rotated)
    assert monodromy(grover3(), 256) == (1, 2)
    assert monodromy(FIXTURES["grover3_subwalk"](), 256) == (2,)
    assert monodromy(grover4(), 256) == (1, 1, 1, 1)


UNCERTIFIED = (
    "uncertified step at the avoided crossing takes the heuristic; "
    "needs certified subdivision"
)
COINED_SWEEP_M = [4 + 0.25 * i for i in range(17)]
# the gap 2 sqrt(1 - r^2) at k = 0 and pi is too small for a refined step
# to prove, and too small for the scalar step to separate
COINED_SWEEP_REFUSED = {(m, 256) for m in COINED_SWEEP_M if m >= 6.25} | {(8.0, 2048)}
COINED_SWEEP_WRONG = {(5.75, 256), (6.0, 256), (7.75, 2048)}


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


GRID_DEPENDENT_WALKS = [
    ("walk(2054020785)", lambda: random_walk(2054020785)),
    ("walk(1514645085)", lambda: random_walk(1514645085)),
    ("walk(959707297, shift<=2)^2", lambda: walk_power(random_walk(959707297, shift_max=2), 2)),
]


@pytest.mark.xfail(strict=True, reason=UNCERTIFIED)
@pytest.mark.parametrize(
    "name,make_spec", GRID_DEPENDENT_WALKS, ids=[w[0] for w in GRID_DEPENDENT_WALKS]
)
def test_invariants_agree_at_256_and_2048(name, make_spec):
    spec = make_spec()
    key = lambda b: (b.degree, b.winding, b.min_period, b.multiplicity)
    coarse, fine = (sorted(map(key, sample_bands(spec, g).bands)) for g in (256, 2048))
    assert coarse == fine
