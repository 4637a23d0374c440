import dataclasses
import io
import json
import re
import tracemalloc

import numpy as np
import pytest

from qwalk import (
    DistributionSnapshot,
    MemoryCapExceeded,
    State,
    UnresolvedCrossing,
    WalkSpec,
    adjoint_walk,
    basis_state,
    commutator_norm,
    decompose,
    empirical_moment,
    evolve,
    kolmogorov_distance,
    limit_law,
    parse_state,
    position_distribution,
    uniform_coin_state,
    write_distribution_csv,
)
from qwalk import dynamics, walkspec
from qwalk.dynamics import (
    MEM_CAP_ENV,
    _cosets,
    _min_plus_power,
    _propagate,
    _propagator_bytes,
    _reachable,
    _to_band_coordinates,
)
from qwalk.fixtures import (
    FIXTURES,
    constant,
    coined,
    cube_root,
    fixture_names,
    free,
    grover3,
    grover4,
    shift_coin_walk,
)
from qwalk.spectral import _noise_floor
from qwalk.walkspec import symbol_on_grid

from conftest import BAD_STATE_DOCUMENTS, random_walk


def serialize_state(state: State) -> str:
    """The state-file format that parse_state reads, occupied sites only."""
    entries = []
    for i, x in enumerate(state.sites):
        row = state.amplitudes[i]
        if np.all(row == 0):
            continue
        entries.append({"site": int(x), "vector": [[z.real, z.imag] for z in row]})
    return json.dumps({"entries": entries}, indent=2)


def ballistic_bound_check(spec, state, speed, t_max):
    """Mass outside the cone |x - x0| <= speed * t + width0 at t_max/4, t_max/2, t_max.

    The cone is valid only when speed exceeds commutator_norm, the bound
    on every group velocity; a valid cone passes when the final outside
    mass is below 1e-3.
    """
    valid = speed > commutator_norm(spec)
    width0 = 0.5 * (state.amplitudes.shape[0] - 1) + 1.0
    center = state.x_min + 0.5 * (state.amplitudes.shape[0] - 1)
    checkpoints = sorted({max(t_max // 4, 1), max(t_max // 2, 1), t_max})
    cur, cur_t, outside = state, 0, []
    for t in checkpoints:
        cur, cur_t = evolve(spec, cur, t - cur_t), t
        snap = position_distribution(cur, t)
        mask = np.abs(snap.sites - center) > speed * t + width0
        outside.append(float(snap.masses[mask].sum()))
    return {
        "valid": valid,
        "checkpoints": tuple(checkpoints),
        "outside_mass": tuple(outside),
        "passed": bool(valid and outside[-1] < 1e-3),
    }


def _step(spec: WalkSpec, state: State, steps: int) -> State:
    """U^steps applied one step at a time in position space (steps >= 0)."""
    b = spec.bandwidth
    amps = np.asarray(state.amplitudes)
    x_min = state.x_min
    for _ in range(steps):
        sites = amps.shape[0]
        out = np.zeros((sites + 2 * b, spec.n), dtype=complex)
        for j, mat in spec.terms.items():
            lo = b + j
            out[lo : lo + sites] += amps @ mat.T
        amps = out
        x_min -= b
    return State(x_min=x_min, amplitudes=amps)


def propagate(spec, state, steps):
    """_propagate on the cosets that evolve scans for the state."""
    return _propagate(spec, state, steps, _cosets(spec, state.amplitudes, steps))


def occupied(state, tol=1e-12):
    """Site -> vector dict over rows carrying mass, window independent."""
    out = {}
    for i, x in enumerate(state.sites):
        row = state.amplitudes[i]
        if np.abs(row).max() > tol:
            out[int(x)] = row
    return out


def test_parse_state_rejects_malformed():
    bad = [
        "not json",
        "{}",
        '{"entries": []}',
        '{"entries": [{"site": 0.5, "vector": [[1, 0]]}]}',
        '{"entries": [{"site": 0, "vector": [[1]]}]}',
        '{"entries": [{"site": 0, "vector": [[1, 0]]},'
        ' {"site": 1, "vector": [[1, 0], [0, 0]]}]}',
        '{"entries": [{"site": 0, "vector": [[1, 0]]},'
        ' {"site": 0, "vector": [[0, 1]]}]}',
    ] + list(BAD_STATE_DOCUMENTS.values())
    for text in bad:
        with pytest.raises(ValueError):
            parse_state(text)


def test_state_constructors():
    st = basis_state(4, 2, site=-3)
    assert st.n == 4
    assert st.norm() == pytest.approx(1.0)
    assert occupied(st).keys() == {-3}
    np.testing.assert_allclose(occupied(st)[-3], np.eye(4)[2])

    u = uniform_coin_state(3)
    assert u.norm() == pytest.approx(1.0)
    assert np.allclose(u.amplitudes, 1.0 / np.sqrt(3))

    with pytest.raises(ValueError):
        State(x_min=0, amplitudes=np.zeros((0, 2)))
    with pytest.raises(ValueError):
        State(x_min=0, amplitudes=np.zeros(3))


def test_serialize_parse_round_trip():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    amps[2] = 0.0  # interior gap must survive the trip
    st = State(x_min=-1, amplitudes=amps)
    st2 = parse_state(serialize_state(st))
    assert st2.x_min == st.x_min
    np.testing.assert_allclose(st2.amplitudes, st.amplitudes, atol=1e-15)


def test_free_walk_is_ballistic():
    st = evolve(free(), basis_state(1, 0), 10)
    assert occupied(st).keys() == {10}
    snap = position_distribution(st, 10)
    assert snap.total_mass() == pytest.approx(1.0)
    assert empirical_moment(snap, 1) == pytest.approx(1.0)
    assert empirical_moment(snap, 4) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        empirical_moment(position_distribution(st, 0), 1)


def test_constant_walk_stays_put():
    spec = constant(2, 0.3)
    st0 = uniform_coin_state(2)
    st = evolve(spec, st0, 50)
    assert occupied(st).keys() == {0}
    np.testing.assert_allclose(
        st.amplitudes, np.exp(15j) * st0.amplitudes, atol=1e-12
    )


def test_adjoint_round_trip():
    rng = np.random.default_rng(11)
    amps = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    amps /= np.linalg.norm(amps)
    st = State(x_min=-1, amplitudes=amps)
    back = evolve(grover4(), evolve(grover4(), st, 5), -5)
    got = occupied(back)
    assert got.keys() == {-1, 0, 1}
    for x, row in occupied(st).items():
        np.testing.assert_allclose(got[x], row, atol=1e-12)


def test_adjoint_walk_skips_the_unitarity_check(monkeypatch):
    spec = grover4()

    def refuse(_spec):
        raise AssertionError("unitarity checked again")

    monkeypatch.setattr(walkspec, "_check_unitarity", refuse)
    adj = adjoint_walk(spec)
    assert adj.shifts() == [-j for j in reversed(spec.shifts())]
    for j, a in spec.terms.items():
        np.testing.assert_array_equal(adj.terms[-j], a.conj().T)
        assert not adj.terms[-j].flags.writeable
    with pytest.raises(AssertionError, match="checked again"):
        WalkSpec(n=spec.n, terms=adj.terms)


def test_norm_preserved_under_evolution():
    st = evolve(grover3(), uniform_coin_state(3), 200)
    assert abs(st.norm() - 1.0) < 1e-10


@pytest.mark.parametrize(
    "make_spec", [grover3, grover4, lambda: coined(0.5)], ids=["grover3", "grover4", "coined"]
)
def test_evolve_has_one_path(monkeypatch, make_spec):
    """Every nonzero step count runs the propagator once; zero steps run nothing."""
    calls = []

    def counting(*args):
        calls.append(args[2])
        return _propagate(*args)

    monkeypatch.setattr(dynamics, "_propagate", counting)
    spec = make_spec()
    st = uniform_coin_state(spec.n)
    for steps in (1, 2, 37, -5):
        calls.clear()
        got = evolve(spec, st, steps)
        assert calls == [abs(steps)], steps
        assert got.amplitudes.shape[0] == 1 + 2 * spec.bandwidth * abs(steps)
    calls.clear()
    same = evolve(spec, st, 0)
    assert calls == []
    assert same.x_min == st.x_min
    assert same.amplitudes.tobytes() == st.amplitudes.tobytes()


def test_memory_cap_param_and_env(monkeypatch):
    st = basis_state(4, 0)
    monkeypatch.setenv(MEM_CAP_ENV, "1")
    with pytest.raises(MemoryCapExceeded):
        evolve(grover4(), st, 5000)
    # the environment is the one setting, read on every call
    with pytest.raises(TypeError):
        evolve(grover4(), st, 3, mem_cap_mb=4096)
    monkeypatch.setenv(MEM_CAP_ENV, "4096")
    evolve(grover4(), st, 3)


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-5", ""])
def test_memory_cap_env_must_be_a_positive_integer(monkeypatch, value):
    monkeypatch.setenv(MEM_CAP_ENV, value)
    # read before the zero-step return, so every step count validates it
    for steps in (0, 3):
        with pytest.raises(ValueError, match="QWALK_MEM_CAP_MB") as info:
            evolve(grover4(), basis_state(4, 0), steps)
        assert repr(value) in str(info.value)


def test_memory_cap_counts_propagator_grids(monkeypatch):
    # at 20000 steps on grover3 the output window alone, 1.8 MB, fits under
    # the cap; with the FFT grids and fiber stacks the propagator needs 8.5 MB
    spec = grover3()
    assert 16 * (1 + 2 * 20000) * 3 < 7 * 1024 * 1024
    monkeypatch.setenv(MEM_CAP_ENV, "7")
    with pytest.raises(MemoryCapExceeded, match=r"cap is 7 MB") as info:
        evolve(spec, basis_state(3, 0), 20000)
    need = int(re.search(r"needs about (\d+) MB", str(info.value)).group(1))
    assert need > 7


@pytest.mark.parametrize(
    "make_spec",
    [grover4, lambda: coined(0.5), lambda: random_walk(3), lambda: random_walk(5)],
    ids=["grover4", "coined", "walk(3)", "walk(5)"],
)
def test_propagator_projection_covers_its_peak(make_spec):
    # one coset's grids and fiber stacks, then _reachable's bool mask, each
    # beside the output window
    spec = make_spec()
    rng = np.random.default_rng(3)
    wide = rng.normal(size=(200, spec.n)) + 1j * rng.normal(size=(200, spec.n))
    for state in (uniform_coin_state(spec.n), State(x_min=0, amplitudes=wide)):
        for steps in (1, 37, 100, 1000, 5000):
            tracemalloc.start()
            try:
                propagate(spec, state, steps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            cosets = _cosets(spec, state.amplitudes, steps)
            assert _propagator_bytes(spec, state.amplitudes, steps, cosets) >= peak, (steps, peak)


def rotation(theta):
    return [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]


def gcd_of_shifts(spec):
    return max(int(np.gcd.reduce(np.diff(spec.shifts()))), 1)


ORACLE_WALKS = [(name, FIXTURES[name]()) for name in fixture_names()] + [
    ("walk(%d)" % seed, random_walk(seed)) for seed in range(20)
]
# real coefficients, g = 5 and least shift -3, so the mirror fibers of a coset
# grid carry the factor e^{2 pi i s0 / g}, which is not +-1
REAL_G5 = ("shift_coin((-3, 2))", shift_coin_walk((-3, 2), rotation(0.7)))
ORACLE_STEPS = (1, 2, 37, 400, 1000)


@pytest.mark.parametrize(
    "name,spec", ORACLE_WALKS + [REAL_G5], ids=[w[0] for w in ORACLE_WALKS + [REAL_G5]]
)
def test_propagator_matches_stepper(name, spec):
    """The propagator against the stepper on three states.

    The third state fills g consecutive rows, g the gcd of the shift
    differences, so it occupies every shift coset mod g: g = 2 for coined,
    grover4, grover4_subwalk and walks 1, 7 and 16, 3 for walk 4, 4 for
    walk 19 and 5 for walks 5 and 12, whose least shift is not a multiple
    of 5.  The propagator evolves each coset on its own grid.  On these
    walks the sumset of the shifts has no holes and the random state no
    exact cancellations, so while no edge amplitude underflows (t <= 400)
    both paths have the same exact zeros.
    """
    rng = np.random.default_rng(7)
    amps = rng.normal(size=(3, spec.n)) + 1j * rng.normal(size=(3, spec.n))
    amps[1] = 0.0
    amps /= np.linalg.norm(amps)
    g = gcd_of_shifts(spec)
    dense = rng.normal(size=(g, spec.n)) + 1j * rng.normal(size=(g, spec.n))
    dense /= np.linalg.norm(dense)
    states = [
        (uniform_coin_state(spec.n), False),
        (State(x_min=-1, amplitudes=amps), False),
        (State(x_min=-1, amplitudes=dense), g > 1),
    ]
    for steps in ORACLE_STEPS + tuple(-t for t in ORACLE_STEPS):
        walk = spec if steps > 0 else adjoint_walk(spec)
        for st, same_zeros in states:
            ref = _step(walk, st, abs(steps))
            got = propagate(walk, st, abs(steps))
            assert got.x_min == ref.x_min, (name, steps)
            assert got.amplitudes.shape == ref.amplitudes.shape, (name, steps)
            err = np.max(np.abs(got.amplitudes - ref.amplitudes))
            assert err <= 1e-12, (name, steps, err)
            if same_zeros and abs(steps) <= 400:
                np.testing.assert_array_equal(got.amplitudes != 0, ref.amplitudes != 0)


def test_real_oracle_walks_meet_odd_and_even_grids():
    # a real walk raises fibers 0 ... grid // 2 and mirrors the rest; an odd
    # grid has no self-mirrored fiber grid / 2, an even one has
    cases = [grover3(), coined(0.5), grover4(), REAL_G5[1]]
    assert [gcd_of_shifts(spec) for spec in cases] == [1, 2, 2, 5]
    for spec in cases:
        assert walkspec._is_real(spec)
        start = uniform_coin_state(spec.n).amplitudes
        grids = {grid for t in ORACLE_STEPS for _, _, grid in _cosets(spec, start, t)[1]}
        assert {grid % 2 for grid in grids} == {0, 1}, grids


def test_real_walks_raise_half_the_fibers(monkeypatch):
    """grid // 2 + 1 fibers per coset on a real walk, every fiber on a complex one.

    A walk whose one imaginary part is 1e-300 is complex: the test is exact.
    """
    fibers = []

    def counting(spec, ks):
        fibers.append(len(ks))
        return symbol_on_grid(spec, ks)

    monkeypatch.setattr(dynamics, "symbol_on_grid", counting)
    base = coined(0.5)
    tiny = {j: a.copy() for j, a in base.terms.items()}
    tiny[-1][0, 0] += 1e-300j
    tiny = WalkSpec(n=2, terms=tiny)
    rng = np.random.default_rng(5)
    for spec, real in [(grover4(), True), (base, True), (random_walk(5), False), (tiny, False)]:
        assert walkspec._is_real(spec) is real
        g = gcd_of_shifts(spec)
        dense = rng.normal(size=(g, spec.n)) + 1j * rng.normal(size=(g, spec.n))
        st = State(x_min=0, amplitudes=dense)
        for steps in (37, 1000):
            fibers.clear()
            cosets = _cosets(spec, dense, steps)
            got = _propagate(spec, st, steps, cosets)
            grids = [grid for _, _, grid in cosets[1]]
            assert len(grids) == g
            assert sum(fibers) == sum(grid // 2 + 1 if real else grid for grid in grids)
            ref = _step(spec, st, steps)
            assert np.max(np.abs(got.amplitudes - ref.amplitudes)) <= 1e-12


def whole_span_reachable(spec, amps, steps):
    """The reachability mask built over the whole span, the oracle of _reachable.

    Every occupied entry (i, c) opens the interval [i - lo + least[r, c],
    i - lo + most[r, c]] of component r on every row, whatever its coset.
    """
    n, shifts = spec.n, spec.shifts()
    lo = shifts[0] * steps
    span = amps.shape[0] + (shifts[-1] - shifts[0]) * steps
    least = np.full((n, n), np.inf)
    most = np.full((n, n), np.inf)
    for j, a in spec.terms.items():
        least[a != 0] = np.minimum(least[a != 0], j)
        most[a != 0] = np.minimum(most[a != 0], -j)
    least, most = _min_plus_power(least, steps), -_min_plus_power(most, steps)
    opened = np.zeros((span + 1, n), dtype=int)
    for c in range(n):
        rows = np.flatnonzero(amps[:, c] != 0) - lo
        for r in np.flatnonzero(np.isfinite(least[:, c])):
            opened[:, r] += np.bincount(rows + int(least[r, c]), minlength=span + 1)
            opened[:, r] -= np.bincount(rows + int(most[r, c]) + 1, minlength=span + 1)
    return np.cumsum(opened, axis=0)[:span] > 0


@pytest.mark.parametrize("name,spec", ORACLE_WALKS, ids=[w[0] for w in ORACLE_WALKS])
def test_reachable_equals_the_whole_span_mask_on_one_coset(name, spec):
    """On a state in one coset mod g the masks agree on that coset's rows.

    The rows of the other cosets are False (_propagate never writes them).
    The two-leg state is the one-coset state propagated 37 steps.
    """
    g = gcd_of_shifts(spec)
    rng = np.random.default_rng(17)
    amps = np.zeros((2 * g + 1, spec.n), dtype=complex)
    amps[::g] = rng.normal(size=(3, spec.n)) + 1j * rng.normal(size=(3, spec.n))
    amps[g] = 0.0
    amps[0, 0] = 0.0
    one_coset = State(x_min=0, amplitudes=amps)
    states = [uniform_coin_state(spec.n), one_coset, propagate(spec, one_coset, 37)]
    for steps in (1, 37, 400, 1000):
        for st in states:
            got = _reachable(spec, st.amplitudes, steps, g)
            ref = whole_span_reachable(spec, st.amplitudes, steps)
            assert got.shape == ref.shape
            rows = np.zeros(got.shape[0], dtype=bool)
            for c in range(g):
                rows[c::g] = np.any(st.amplitudes[c::g] != 0)
            np.testing.assert_array_equal(got[rows], ref[rows])
            assert not got[~rows].any()


SEVERAL_COSET_WALKS = [w for w in ORACLE_WALKS + [REAL_G5] if gcd_of_shifts(w[1]) > 1]


@pytest.mark.parametrize(
    "name,spec", SEVERAL_COSET_WALKS, ids=[w[0] for w in SEVERAL_COSET_WALKS]
)
def test_reachable_on_several_cosets_clears_only_stepper_zeros(name, spec):
    """On a state in several cosets the mask is no looser than the whole-span one.

    Each entry it clears beyond that mask was covered only through another
    coset's interval; the stepper leaves it an exact zero, and so does the
    propagator, whose coset grids write rounding there.
    """
    g = gcd_of_shifts(spec)
    s0, b = spec.shifts()[0], spec.bandwidth
    rng = np.random.default_rng(19)
    dense = rng.normal(size=(g, spec.n)) + 1j * rng.normal(size=(g, spec.n))
    apart = np.zeros((2 * g + 2, spec.n), dtype=complex)
    apart[[0, 2 * g + 1]] = rng.normal(size=(2, spec.n))
    cleared = 0
    for amps in (dense, apart):
        st = State(x_min=0, amplitudes=amps)
        for steps in (1, 37, 400, 1000):
            got = _reachable(spec, amps, steps, g)
            ref = whole_span_reachable(spec, amps, steps)
            assert not (got & ~ref).any()
            off = (s0 + b) * steps
            for path in (_step, propagate):
                window = path(spec, st, steps).amplitudes[off : off + got.shape[0]]
                assert np.all(window[ref & ~got] == 0), path
            cleared += int((ref & ~got).sum())
    assert cleared > 0


def test_reachable_peak_is_its_bool_mask():
    # walk 5 has shifts {-3, 2}, g = 5: a 25 200-row span with 5040 rows per coset
    spec = random_walk(5)
    rng = np.random.default_rng(3)
    wide = rng.normal(size=(200, spec.n)) + 1j * rng.normal(size=(200, spec.n))
    tracemalloc.start()
    try:
        keep = _reachable(spec, wide, 5000, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keep.dtype == bool and keep.shape == (200 + 5 * 5000, spec.n)
    assert peak <= keep.nbytes + 64 * 1024, peak


@pytest.mark.parametrize("t", [400, 1000])
@pytest.mark.parametrize(
    "make_spec", [lambda: coined(0.5), grover4, cube_root], ids=["coined", "grover4", "cube_root"]
)
def test_propagator_keeps_structural_zeros(make_spec, t):
    """Entries no path reaches stay exact zeros on the propagator.

    coined(0.5) and grover4 leave every other row empty by parity, and one
    component of each edge row.  cube_root, whose U^3 is a pure shift,
    occupies two rows; it is propagated in two legs, so the zeros of a
    propagated input state are checked too.
    From about 540 steps on, the edge amplitudes of coined and grover4
    (0.5^t) fall below 1.5e-162, so the stepper's masses there underflow
    to 0.0.  The propagator's absolute rounding (~1e-17) cannot follow, so
    at t = 1000 the paths share the entries of nonzero amplitude but not
    the rows of nonzero mass.
    """
    spec = make_spec()
    st = uniform_coin_state(spec.n)
    ref, got = _step(spec, st, t), propagate(spec, st, t)
    if make_spec is cube_root:
        got = propagate(spec, propagate(spec, st, t // 2), t - t // 2)
    np.testing.assert_array_equal(got.amplitudes != 0, ref.amplitudes != 0)
    ref_rows = np.any(ref.amplitudes != 0, axis=1)
    assert ref_rows.mean() < 0.6
    ref_mass = position_distribution(ref, t).masses
    got_mass = position_distribution(got, t).masses
    underflow = ref_rows & (ref_mass == 0.0)
    np.testing.assert_array_equal(got_mass > 0.0, ref_rows)
    np.testing.assert_array_equal(ref_mass > 0.0, ref_rows & ~underflow)
    if t == 400 or make_spec is cube_root:
        assert not underflow.any()
    assert np.max(np.abs(ref.amplitudes[underflow]), initial=0.0) < 1.5e-162
    assert np.max(got_mass[underflow], initial=0.0) < 1e-28


def test_limit_law_rejects_wide_state():
    dec = decompose(grover3(), 256)
    amps = np.zeros((300, 3), dtype=complex)
    amps[0, 0] = 1.0
    with pytest.raises(ValueError, match="support"):
        limit_law(dec, State(x_min=0, amplitudes=amps))


def test_free_walk_law_is_atom_at_one():
    law = limit_law(decompose(free(), 128), basis_state(1, 0))
    assert law.atoms == ((1.0, pytest.approx(1.0)),)
    assert law.weights.size == 0
    assert law.bin_masses.sum() == pytest.approx(0.0)
    assert law.moment(1) == pytest.approx(1.0)
    assert law.moment(2) == pytest.approx(1.0)


def test_constant_walk_law_is_atom_at_zero():
    law = limit_law(decompose(constant(2, 0.7), 128), uniform_coin_state(2))
    assert law.atoms == ((0.0, pytest.approx(1.0)),)
    assert law.total_mass() == pytest.approx(1.0)


def test_law_mass_matches_state_norm(grover4_dec):
    st = uniform_coin_state(4)
    assert limit_law(grover4_dec, st).total_mass() == pytest.approx(1.0)
    half = State(x_min=0, amplitudes=0.5 * st.amplitudes)
    assert limit_law(grover4_dec, half).total_mass() == pytest.approx(0.25)


def test_band_coordinates_are_complete(grover3_dec):
    st = basis_state(3, 1)
    coords = _to_band_coordinates(grover3_dec.band_set, st)
    g = grover3_dec.band_set.grid_size
    total = sum(float((np.abs(co) ** 2).sum()) / g for co in coords)
    assert total == pytest.approx(st.norm() ** 2, abs=1e-10)


def test_kolmogorov_collapses_atom_mass():
    dec = decompose(constant(1), 128)
    st = basis_state(1, 0)
    law = limit_law(dec, st)
    snap = position_distribution(evolve(constant(1), st, 10), 10)
    assert kolmogorov_distance(law, snap) == pytest.approx(0.0)
    shifted = DistributionSnapshot(
        t=10, sites=np.array([1]), masses=np.array([1.0])
    )
    assert kolmogorov_distance(law, shifted) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        kolmogorov_distance(law, position_distribution(st, 0))


def _sample_and_derivative_law(dec, state):
    """Atoms and cloud of limit_law by two reference rules that read the samples.

    A band is constant when its samples spread by less than 1e-9, and an
    atom when it is constant or its FFT-derivative velocity spreads by less
    than 1e-9.  Returns None when a velocity passes the commutator bound.
    """
    coords = _to_band_coordinates(dec.band_set, state)
    atoms, vel_parts, w_parts = {}, [], []
    for band, co in zip(dec.band_set.bands, coords):
        w = (np.abs(co) ** 2).sum(axis=0) / dec.band_set.grid_size
        vel = np.zeros(1)
        if np.max(np.abs(band.samples - band.samples[0])) >= 1e-9:
            freqs = band.fourier_freqs
            dsamples = np.fft.ifft(band.fourier * (1j * freqs / band.degree) * freqs.size)
            vel = (dsamples / (1j * band.samples)).real
            if np.max(np.abs(vel)) > dec.commutator_bound + 1e-6:
                return None
        if np.max(np.abs(vel - vel.mean())) >= 1e-9:
            vel_parts.append(vel)
            w_parts.append(w)
        elif w.sum() > 0:
            key = round(float(vel.mean()), 12)
            atoms[key] = atoms.get(key, 0.0) + float(w.sum())
    flat = lambda parts: np.concatenate(parts) if parts else np.empty(0)  # noqa: E731
    return tuple(sorted(atoms.items())), flat(vel_parts), flat(w_parts)


def _translation_period(band):
    """Minimal period by translating the samples: the largest divisor p of
    the support's gcd with lambda(k + 2 pi degree / p) = lambda(k) on every
    sample, within max(1e-8, 5 x the noise floor); None for a constant band."""
    freqs, coefs, samples = band.fourier_freqs, band.fourier, band.samples
    thresh = _noise_floor(coefs, freqs)
    support = freqs[np.abs(coefs) > thresh]
    if not support.any():
        return None
    m = int(np.gcd.reduce(np.abs(support)))
    for cand in range(m, 1, -1):
        if m % cand == 0:
            shifted = np.fft.ifft(np.exp(2j * np.pi * freqs / cand) * coefs * freqs.size)
            if np.max(np.abs(shifted - samples)) <= max(1e-8, 5.0 * thresh):
                return cand
    return 1


@pytest.mark.parametrize("grid", [256, 2048])
def test_fourier_support_agrees_with_the_sample_and_derivative_rules(grid):
    # constancy, minimal periods and atoms are read off the Fourier support
    # above the noise floor; on these walks that gives what the sample and
    # translation rules give, bit for bit
    makers = [FIXTURES[name] for name in fixture_names()] + [
        lambda seed=seed, s=s: random_walk(seed, shift_max=s)
        for s in (1, 2, 3)
        for seed in range(40)
    ]
    for make in makers:
        spec = make()
        try:
            dec = decompose(spec, grid)
        except UnresolvedCrossing:
            continue
        for band in dec.band_set.bands:
            assert band.is_constant == bool(np.max(np.abs(band.samples - band.samples[0])) < 1e-9)
            assert band.min_period == _translation_period(band)
        states = [uniform_coin_state(spec.n)] + [basis_state(spec.n, c) for c in range(spec.n)]
        for st in states:
            want = _sample_and_derivative_law(dec, st)
            if want is None:
                with pytest.raises(ValueError, match="is not resolved"):
                    limit_law(dec, st)
                continue
            law = limit_law(dec, st)
            assert law.atoms == want[0]
            assert np.array_equal(law.velocities, want[1])
            assert np.array_equal(law.weights, want[2])


@pytest.mark.parametrize(
    "r, refused",
    [(1 - 10**-3.5, (256,)), (1 - 10**-4, (256, 512))],
    ids=["coined_1-1e-3.5", "coined_1-1e-4"],
)
def test_unresolved_band_is_refused_with_a_finer_grid(r, refused):
    # near the avoided crossing of coined(r -> 1) the band's FFT derivative
    # passes the commutator bound 1; the refusal names twice its grid, which
    # may refuse in turn, and the first grid past the refused ones answers
    spec = coined(r)
    st = uniform_coin_state(2)
    for grid in refused:
        with pytest.raises(ValueError) as err:
            limit_law(decompose(spec, grid), st)
        msg = str(err.value)
        assert msg.startswith("band sampled on grid %d is not resolved: its velocity reaches 1.0" % grid)
        assert "past the commutator bound 1;" in msg
        assert msg.endswith("such as %d" % (2 * grid))
    answered = 2 * refused[-1]
    assert limit_law(decompose(spec, answered), st).total_mass() == pytest.approx(1.0)


@pytest.mark.parametrize("grid", [256, 2048])
def test_kolmogorov_ties_do_not_depend_on_rounding(grid):
    # two of grover3's cloud velocities are 0 up to rounding (1e-14 to 1e-13),
    # at the site x = 0 that holds the atom; the tie rule counts them there
    spec = grover3()
    st = uniform_coin_state(3)
    law = limit_law(decompose(spec, grid), st)
    snap = position_distribution(evolve(spec, st, 200), 200)
    tied = np.abs(law.velocities) < 1e-12
    assert tied.sum() == 2 and law.velocities[tied].all()
    distance = kolmogorov_distance(law, snap)
    exact = np.where(tied, 0.0, law.velocities)
    for velocities in (exact, law.velocities + 1e-13, law.velocities - 1e-13):
        moved = dataclasses.replace(law, velocities=velocities)
        assert kolmogorov_distance(moved, snap) == distance


def test_ballistic_cone_free_walk():
    st = basis_state(1, 0)
    rep = ballistic_bound_check(free(), st, 1.5, 40)
    assert rep["valid"] and rep["passed"]
    assert rep["checkpoints"] == (10, 20, 40)
    assert max(rep["outside_mass"]) < 1e-12

    slow = ballistic_bound_check(free(), st, 0.5, 40)
    assert not slow["valid"] and not slow["passed"]


def test_coined_walk_spreads_inside_cone():
    # the operator-norm bound for a +-1 shift walk is 1 whatever the coin
    spec = coined(0.5)
    rep = ballistic_bound_check(spec, uniform_coin_state(2), 1.2, 100)
    assert rep["valid"] and rep["passed"]
    assert rep["outside_mass"][-1] < 1e-3


def test_distribution_csv_skips_zero_rows():
    st = evolve(free(), basis_state(1, 0), 10)
    buf = io.StringIO()
    write_distribution_csv(position_distribution(st, 10), buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,x,x_over_t,mass"
    assert lines[1:] == ["10,10,1,1"]
