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
from qwalk.dynamics import (
    MEM_CAP_ENV,
    _propagate,
    _propagator_bytes,
    _step,
    _stepper_bytes,
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
)

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


def test_norm_preserved_under_evolution():
    st = evolve(grover3(), uniform_coin_state(3), 200)
    assert abs(st.norm() - 1.0) < 1e-10


def test_memory_cap_param_and_env(monkeypatch):
    st = basis_state(4, 0)
    with pytest.raises(MemoryCapExceeded):
        evolve(grover4(), st, 5000, mem_cap_mb=1)
    monkeypatch.setenv(MEM_CAP_ENV, "1")
    with pytest.raises(MemoryCapExceeded):
        evolve(grover4(), st, 5000)
    # explicit argument wins over the environment
    with pytest.raises(MemoryCapExceeded):
        evolve(grover4(), st, 5000, mem_cap_mb=1)
    monkeypatch.setenv(MEM_CAP_ENV, "4096")
    evolve(grover4(), st, 3)


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-5", ""])
def test_memory_cap_env_must_be_a_positive_integer(monkeypatch, value):
    monkeypatch.setenv(MEM_CAP_ENV, value)
    with pytest.raises(ValueError, match="QWALK_MEM_CAP_MB") as info:
        evolve(grover4(), basis_state(4, 0), 3)
    assert repr(value) in str(info.value)


@pytest.mark.parametrize("value", [0, -5, 1.5, "abc", True])
def test_memory_cap_param_must_be_a_positive_integer(value):
    with pytest.raises(ValueError, match="QWALK_MEM_CAP_MB") as info:
        evolve(grover4(), basis_state(4, 0), 3, mem_cap_mb=value)
    assert repr(value) in str(info.value)


def test_memory_cap_counts_propagator_grids():
    # at 20000 steps evolve takes the propagator on grover3: the stepper's
    # three windows would need 5.5 MB, the propagator's output window, FFT
    # grids and fiber stacks 8.5 MB
    spec = grover3()
    assert _stepper_bytes(spec, 1, 20000) < 7 * 1024 * 1024
    with pytest.raises(MemoryCapExceeded, match=r"cap is 7 MB") as info:
        evolve(spec, basis_state(3, 0), 20000, mem_cap_mb=7)
    need = int(re.search(r"needs about (\d+) MB", str(info.value)).group(1))
    assert need > 7


@pytest.mark.parametrize(
    "make_spec", [grover4, lambda: coined(0.5), lambda: random_walk(3)],
    ids=["grover4", "coined", "walk(3)"],
)
def test_stepper_projection_covers_its_peak(make_spec):
    # amps, out and the amps @ A_j^T product are live together in _step
    spec = make_spec()
    state = uniform_coin_state(spec.n)
    for steps in (10, 400):
        tracemalloc.start()
        try:
            _step(spec, state, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _stepper_bytes(spec, 1, steps) >= peak, (steps, peak)


@pytest.mark.parametrize(
    "make_spec",
    [grover4, lambda: coined(0.5), lambda: random_walk(3), lambda: random_walk(5)],
    ids=["grover4", "coined", "walk(3)", "walk(5)"],
)
def test_propagator_projection_covers_its_peak(make_spec):
    # one coset's grids and fiber stacks, then _reachable's int arrays, each
    # beside the output window
    spec = make_spec()
    rng = np.random.default_rng(3)
    wide = rng.normal(size=(200, spec.n)) + 1j * rng.normal(size=(200, spec.n))
    for state in (uniform_coin_state(spec.n), State(x_min=0, amplitudes=wide)):
        for steps in (100, 1000, 5000):
            tracemalloc.start()
            try:
                _propagate(spec, state, steps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert _propagator_bytes(spec, state.amplitudes, steps) >= peak, (steps, peak)


ORACLE_WALKS = [(name, FIXTURES[name]()) for name in fixture_names()] + [
    ("walk(%d)" % seed, random_walk(seed)) for seed in range(20)
]


@pytest.mark.parametrize("name,spec", ORACLE_WALKS, ids=[w[0] for w in ORACLE_WALKS])
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
    g = max(int(np.gcd.reduce(np.diff(spec.shifts()))), 1)
    dense = rng.normal(size=(g, spec.n)) + 1j * rng.normal(size=(g, spec.n))
    dense /= np.linalg.norm(dense)
    states = [
        (uniform_coin_state(spec.n), False),
        (State(x_min=-1, amplitudes=amps), False),
        (State(x_min=-1, amplitudes=dense), g > 1),
    ]
    for steps in (1, -1, 37, -37, 400, -400, 1000, -1000):
        walk = spec if steps > 0 else adjoint_walk(spec)
        for st, same_zeros in states:
            ref = _step(walk, st, abs(steps))
            got = _propagate(walk, st, abs(steps))
            assert got.x_min == ref.x_min, (name, steps)
            assert got.amplitudes.shape == ref.amplitudes.shape, (name, steps)
            err = np.max(np.abs(got.amplitudes - ref.amplitudes))
            assert err <= 1e-12, (name, steps, err)
            if same_zeros and abs(steps) <= 400:
                np.testing.assert_array_equal(got.amplitudes != 0, ref.amplitudes != 0)


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
    ref, got = _step(spec, st, t), _propagate(spec, st, t)
    if make_spec is cube_root:
        got = _propagate(spec, _propagate(spec, st, t // 2), t - t // 2)
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
    assert kolmogorov_distance(law, shifted, atom_window=0.2) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        kolmogorov_distance(law, position_distribution(st, 0))


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
