"""Time evolution and the ballistic weak limit.

evolve computes U^t psi without truncation on the window the support can
reach, which grows by the bandwidth per step.  A walk is multiplication
by its symbol in momentum space, so evolve multiplies the state's Fourier
transform by the symbol to the power t, one shift coset at a time: every
shift lies in s0 + gZ, g the gcd of the shift differences, so U maps the
sites c + gZ onto c + s0 + gZ and acts there as the walk with shifts
(j - s0) / g.  Each occupied coset's transform is multiplied by that
walk's symbol raised by repeated squaring, on an FFT grid of about 1/g
of the span, wide enough that nothing wraps around; the cost grows like
t log t.  When every coefficient is real (the Grover and coined walks),
the symbol at -k is the conjugate of the symbol at k, so only half of
each grid's fibers are raised and each power also serves its mirror
fiber.  The rows of the cosets the state leaves empty, such as the rows
of the wrong parity for coined and Grover walks, are never written, and
on each coset's rows the entries outside the least and largest path
displacements from that coset's own occupied rows are cleared, so both
are exact zeros.  U^t psi has more exact zeros, at holes in the sumset
of the shifts next to the light-cone edge, and a step-by-step product in
position space (the tests' oracle) also has them where edge amplitudes
underflow; there the propagator leaves rounding-level mass (below 1e-28).

The rescaled position x/t converges weakly; limit_law computes the limit
measure from the band data: each band contributes its group velocity
Re(lambda' / (i lambda)) distributed according to the overlap of the
initial state with the band's eigenvector section.  A band of one Fourier
frequency (a flat band or a pure drift) contributes an atom.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

from .decompose import Decomposition
from .spectral import BandSet, _unresolved
from .walkspec import WalkSpec, _check_memory, _complex_cell, _is_real, _mem_cap_bytes
from .walkspec import _write_table, symbol_on_grid

__all__ = [
    "State",
    "DistributionSnapshot",
    "LimitLaw",
    "basis_state",
    "uniform_coin_state",
    "parse_state",
    "adjoint_walk",
    "evolve",
    "position_distribution",
    "empirical_moment",
    "limit_law",
    "kolmogorov_distance",
    "write_distribution_csv",
]

ATOM_VELOCITY_TOL = 1e-9
HISTOGRAM_BINS = 401
# fibers per block of the propagator's k-grid: the real (block, 8, 8) stack of
# an n = 4 walk is 0.5 MB, so the squarings stay in a 2 MB L2
PROPAGATOR_BLOCK = 1024


@dataclass(frozen=True)
class State:
    """Finitely supported vector in ell_2(Z) tensor C^n.

    amplitudes[i] is the internal vector at site x_min + i.
    """

    x_min: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 2 or amps.shape[0] == 0:
            raise ValueError("amplitudes must be a non-empty (sites, n) array")
        if amps.flags.writeable and (amps is self.amplitudes or amps.base is not None):
            # the caller's own array, or a view of it: freeze a copy, not it
            amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def sites(self) -> np.ndarray:
        return self.x_min + np.arange(self.amplitudes.shape[0])

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class DistributionSnapshot:
    """Position distribution after t steps; masses sum to the state norm."""

    t: int
    sites: np.ndarray
    masses: np.ndarray

    def total_mass(self) -> float:
        return float(self.masses.sum())


def basis_state(n: int, component: int, site: int = 0) -> State:
    vec = np.zeros((1, n), dtype=complex)
    vec[0, component] = 1.0
    return State(x_min=site, amplitudes=vec)


def uniform_coin_state(n: int, site: int = 0) -> State:
    vec = np.full((1, n), 1.0 / np.sqrt(n), dtype=complex)
    return State(x_min=site, amplitudes=vec)


def parse_state(text: str) -> State:
    """Read {"entries": [{"site": x, "vector": [[re, im], ...]}, ...]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError("state is not valid JSON: %s" % exc) from exc
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ValueError("state document needs an 'entries' list")
    entries = doc["entries"]
    if not isinstance(entries, list) or not entries:
        raise ValueError("state needs at least one entry")
    parsed = []
    n = None
    for ent in entries:
        if not isinstance(ent, dict) or "site" not in ent or "vector" not in ent:
            raise ValueError("each entry needs 'site' and 'vector'")
        site = ent["site"]
        if not isinstance(site, int) or isinstance(site, bool):
            raise ValueError("entry site must be an integer")
        vec = ent["vector"]
        if not isinstance(vec, list) or not vec:
            raise ValueError("entry vector must be a non-empty list")
        row = [_complex_cell(cell) for cell in vec]
        if None in row:
            raise ValueError("vector components must be [re, im] pairs of finite numbers")
        if n is None:
            n = len(row)
        elif len(row) != n:
            raise ValueError("entry vectors must share one length")
        parsed.append((site, row))
    sites = [s for s, _ in parsed]
    if len(set(sites)) != len(sites):
        raise ValueError("duplicate site in state entries")
    parsed.sort()
    x_min, x_max = parsed[0][0], parsed[-1][0]
    amps = np.zeros((x_max - x_min + 1, n), dtype=complex)
    for site, row in parsed:
        amps[site - x_min] = row
    return State(x_min=x_min, amplitudes=amps)


def _check_components(state: State, n: int) -> None:
    if state.n != n:
        raise ValueError("state has %d components per site, walk needs %d" % (state.n, n))


def adjoint_walk(spec: WalkSpec) -> WalkSpec:
    """The inverse walk U^*; term at shift j becomes A_{-j}^* at -j.

    U^* is unitary when U is, so its coefficients are not checked again.
    """
    return WalkSpec(n=spec.n, terms={-j: a.conj().T for j, a in spec.terms.items()}, _valid=True)


def evolve(spec: WalkSpec, state: State, steps: int) -> State:
    """Apply the walk for the given number of steps, without truncation.

    Negative steps use the adjoint, and zero steps return the state
    itself.  The spectral propagator (see the module docstring) computes
    the window x_min - bandwidth * |steps| to x_max + bandwidth * |steps|,
    where the rows of unoccupied shift cosets and the entries that
    _reachable rules out are exact zeros.  Its projected peak allocation
    is checked up front against QWALK_MEM_CAP_MB, the one cap setting,
    which is read and validated at every step count.
    """
    _check_components(state, spec.n)
    steps = operator.index(steps)
    if steps < 0:
        return evolve(adjoint_walk(spec), state, -steps)
    if steps == 0:
        _mem_cap_bytes()  # the setting is validated at every step count
        return state
    cosets = _cosets(spec, state.amplitudes, steps)
    _check_memory(_propagator_bytes(spec, state.amplitudes, steps, cosets), "evolution window")
    return _propagate(spec, state, steps, cosets)


def _fft_size(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m, a length numpy's FFT handles fast."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            size = p35
            while size < m:
                size *= 2
            best = min(best, size)
            p35 *= 3
        p5 *= 5
    return best


def _cosets(spec: WalkSpec, amps: np.ndarray, steps: int):
    """The shift cosets that _propagate evolves, each on its own grid.

    Every shift lies in shifts[0] + gZ, g the gcd of the shift differences
    (1 when there is a single shift).  Returns g and, for each residue c
    mod g whose rows amps[c::g] hold a nonzero entry, the triple (c, span,
    grid): span = len(amps[c::g]) + (max shift - min shift) / g * steps rows
    of stride g can be reached, and grid = _fft_size(span) FFT points hold
    them without wrapping around.
    """
    shifts = spec.shifts()
    g = max(int(np.gcd.reduce(np.diff(shifts))), 1)
    reach = (shifts[-1] - shifts[0]) // g * steps
    nonzero = np.any(amps != 0, axis=1)
    out = []
    for c in range(min(g, nonzero.size)):
        if nonzero[c::g].any():
            span = nonzero[c::g].size + reach
            out.append((c, span, _fft_size(span)))
    return g, out


def _propagator_bytes(spec: WalkSpec, amps: np.ndarray, steps: int, cosets) -> int:
    """Peak allocation of _propagate, 16 KiB more.

    The output window (width + 2 b steps, n) stays live throughout.  Beside
    it comes either one coset of the _cosets result at a time, or
    _reachable at the end, with its (span, n) bool mask, the negation
    _propagate clears by and, for each run of occupied rows (at most
    (width + g) n / 2 of them), its endpoints and its n intervals, at most
    8 + 6n int64 values in all.  A coset holds its (grid, n) complex
    transform and beside it either an FFT's output and working copy, or
    the block's real (block, 2n, 2n) power and its square (the complex
    symbol it is built from is freed before the squarings) with at most
    twelve real n-vectors per fiber (two columns on a real walk, whose
    blocks hold half the fibers: the gathers and their real form, or a
    product and the phased output).  The 16 KiB cover array headers and
    the coefficient patterns, up to 9 KB in all on the fixture and
    conftest walks.
    """
    n = spec.n
    width = amps.shape[0]
    shifts = spec.shifts()
    window = 16 * (width + 2 * spec.bandwidth * steps) * n
    grid = max((grid for _, _, grid in cosets[1]), default=0)
    block = min(grid // 2 + 1 if _is_real(spec) else grid, PROPAGATOR_BLOCK)
    coset = 16 * grid * n + max(16 * 2 * grid * n, 8 * block * (2 * 4 * n * n + 12 * n))
    span = width + (shifts[-1] - shifts[0]) * steps
    runs = (width + cosets[0]) * n // 2 + 1
    return window + max(coset, 2 * span * n + 8 * runs * (8 + 6 * n)) + 16384


def _propagate(spec: WalkSpec, state: State, steps: int, cosets) -> State:
    """U^steps applied in momentum space (steps > 0); evolve's window.

    cosets is _cosets(spec, state.amplitudes, steps): the rows amps[c::g]
    of each listed coset are evolved by the walk with shifts
    (j - shifts[0]) / g (see the module docstring) and written back with
    stride g.  Rows of the other cosets are never written, and _reachable
    clears the entries that no path reaches.
    """
    amps = state.amplitudes
    width, n = amps.shape
    b, s0 = spec.bandwidth, spec.shifts()[0]
    g, occupied = cosets
    out = np.zeros((width + 2 * b * steps, n), dtype=complex)
    off = (s0 + b) * steps  # the row of site x_min + s0 * steps
    for c, span, grid in occupied:
        out[off + c :: g][:span] = _power_on_grid(spec, amps[c::g], g, grid, steps)[:span]
    keep = _reachable(spec, amps, steps, g)
    out[off : off + keep.shape[0]][~keep] = 0.0
    out.setflags(write=False)  # fresh, so State keeps it without a copy
    return State(x_min=state.x_min - b * steps, amplitudes=out)


def _power_on_grid(spec: WalkSpec, rows: np.ndarray, g: int, grid: int, steps: int) -> np.ndarray:
    """V^steps of rows placed at sites 0, 1, ... of a periodic grid, shape (grid, n).

    V is the walk with shifts (j - s0) / g on one coset, s0 the least shift,
    so V_hat(k) = e^{-i s0 k / g} U_hat(k / g).  When the grid is at least
    the span the support can reach, the circular convolution the FFT
    computes equals the walk's.  Each fiber's U_hat(k / g)^steps comes from
    repeated squaring, whose rounding error, like that of any power of the
    rounded symbol, grows about linearly in steps (at most 5e-14 at 1000
    steps on the fixture and conftest walks); the origin phase
    e^{-i k s0 steps / g} is applied once at the end.  When every
    coefficient is real (an exact test, no tolerance), V's coefficients are
    too, so V_hat(-k) = conj V_hat(k): only the fibers m = 0 ... grid // 2
    are raised, and each squaring chain carries a second column, conj
    psi_hat at the mirror fiber grid - m, whose image conj(V_hat^steps conj
    psi_hat) is that fiber's result (the self-mirrored fibers 0 and grid / 2
    drop it).  A complex walk raises every fiber with one column.  The
    fibers are processed in blocks of PROPAGATOR_BLOCK, so besides the
    (grid, n) arrays only one small stack of fiber matrices is live.
    """
    n, s0 = spec.n, spec.shifts()[0]
    paired = _is_real(spec)
    # grid index m holds site m (mod grid); psi_hat(k) = sum_m e^{ikm} psi_m
    buf = np.zeros((grid, n), dtype=complex)
    buf[: rows.shape[0]] = rows
    psi_hat = np.fft.ifft(buf, axis=0)
    del buf
    cycle = g * grid
    fibers = grid // 2 + 1 if paired else grid
    for start in range(0, fibers, PROPAGATOR_BLOCK):
        m = np.arange(start, min(start + PROPAGATOR_BLOCK, fibers))
        # the real form [[Re, -Im], [Im, Re]] of each fiber: numpy's batched
        # matmul runs several times faster on small real matrices
        sym = symbol_on_grid(spec, 2.0 * np.pi * m / cycle)
        power = np.empty((m.size, 2 * n, 2 * n))
        power[:, :n, :n] = power[:, n:, n:] = sym.real
        power[:, n:, :n] = sym.imag
        power[:, :n, n:] = -sym.imag
        del sym
        cols = np.stack([psi_hat[m], psi_hat[-m].conj()] if paired else [psi_hat[m]], axis=2)
        vec = np.concatenate([cols.real, cols.imag], axis=1)
        del cols
        e = steps
        while True:
            if e & 1:
                # a matmul costs as much as a squaring with one column and
                # about half as much with two; einsum is the fast one-column form
                vec = power @ vec if paired else np.einsum("bij,bjk->bik", power, vec)
            e >>= 1
            if not e:
                break
            power = power @ power
        del power
        # the origin phase at k = 2 pi m / grid is e^{-2 pi i m s0 steps / cycle};
        # m s0 steps is reduced mod cycle in integers, since a float product
        # would lose ~1e-12 of the phase at 1000 steps
        turns = m * (s0 * steps % cycle) % cycle
        vec = (vec[:, :n] + 1j * vec[:, n:]) * np.exp(-2j * np.pi / cycle * turns)[:, None, None]
        psi_hat[m] = vec[:, :, 0]
        if paired:
            mirrored = (m > 0) & (2 * m < grid)
            psi_hat[grid - m[mirrored]] = vec[mirrored, :, 1].conj()
        del vec  # freed before the next block's fiber stacks are built
    return np.fft.fft(psi_hat, axis=0)


def _reachable(spec: WalkSpec, amps: np.ndarray, steps: int, g: int) -> np.ndarray:
    """Entries of _propagate's span that a path of nonzero coefficients reaches.

    Every other entry of U^steps is an exact zero, which the propagator's
    rounding would fill.  Row m holds site x_min + lo + m,
    lo = shifts[0] * steps.  Every path displacement lies in lo + gZ, so
    the source rows of row m lie in its own coset mod g, and the mask is
    built per coset on its stride-g rows.  Its component r can be reached
    from an occupied entry (i, c) of the initial state only if the
    displacement m + lo - i lies between the least and the largest
    displacement of a steps-long path of nonzero coefficients from c to r,
    read off the (min, +) and (max, +) powers of the coefficient pattern.
    So a run [a, b] of occupied stride rows of component c reaches
    [a + (least - lo) / g, b + (most - lo) / g] of component r; the
    intervals are merged per (coset, component) and written as slices.
    (Rows of unoccupied cosets stay False: _propagate never writes them.)
    With this cube_root, whose U^3 is a pure shift, keeps its few entries even
    when evolved in several legs.  Returns a (span, n) bool mask.
    """
    n, shifts = spec.n, spec.shifts()
    lo = shifts[0] * steps
    span = amps.shape[0] + (shifts[-1] - shifts[0]) * steps
    # the least and the negated largest displacement, both (min, +)
    bounds = np.full((2, n, n), np.inf)
    for j, a in spec.terms.items():
        bounds[0][a != 0] = np.minimum(bounds[0][a != 0], j)
        bounds[1][a != 0] = np.minimum(bounds[1][a != 0], -j)
    least, neg_most = _min_plus_power(bounds, steps)
    finite = np.isfinite(least)
    # in stride-g rows a source row p of component c reaches rows
    # p + first[r, c] ... p + last[r, c] of component r
    first = (np.where(finite, least, lo) - lo).astype(int) // g
    last = (-np.where(finite, neg_most, -lo) - lo).astype(int) // g
    # occupied[c, col, 1 + p] is row c + g p of the state, False-padded at both ends
    rows = -(-amps.shape[0] // g)
    occupied = np.zeros((rows + 2, g, n), dtype=bool)
    occupied.reshape(-1, n)[g : g + amps.shape[0]] = amps != 0
    occupied = occupied.transpose(1, 2, 0)
    edge = np.diff(occupied.view(np.int8), axis=2)
    coset, comp, head = np.nonzero(edge == 1)  # the runs [head, tail] of stride rows
    tail = np.nonzero(edge == -1)[2] - 1
    # each run's interval on each target component, offset by key * stride
    # so that intervals of two (coset, target) pairs never merge
    stride = -(-span // g) + 2
    key = (coset[:, None] * n + np.arange(n)) * stride
    reach = finite[:, comp].T
    starts = (key + head[:, None] + first[:, comp].T)[reach]
    ends = (key + tail[:, None] + last[:, comp].T)[reach]
    keep = np.zeros((span, n), dtype=bool)
    if not starts.size:
        return keep
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], np.maximum.accumulate(ends[order])
    cut = np.flatnonzero(starts[1:] > ends[:-1] + 1)
    for start, end in zip(starts[np.r_[0, cut + 1]].tolist(), ends[np.r_[cut, ends.size - 1]].tolist()):
        k, q = divmod(start, stride)
        keep[k // n :: g][q : end - k * stride + 1, k % n] = True
    return keep


def _min_plus_power(mat: np.ndarray, e: int) -> np.ndarray:
    """mat^e in the (min, +) semiring, by repeated squaring, over the last two axes."""
    out = np.where(np.eye(mat.shape[-1], dtype=bool), 0.0, np.inf)
    while e:
        if e & 1:
            out = np.min(out[..., :, :, None] + mat[..., None, :, :], axis=-2)
        e >>= 1
        if e:
            mat = np.min(mat[..., :, :, None] + mat[..., None, :, :], axis=-2)
    return out


def position_distribution(state: State, t: int = 0) -> DistributionSnapshot:
    masses = np.einsum("ij,ij->i", state.amplitudes, state.amplitudes.conj()).real
    return DistributionSnapshot(t=t, sites=state.sites, masses=masses)


def empirical_moment(snapshot: DistributionSnapshot, order: int) -> float:
    """Moment of the rescaled position x/t under the snapshot."""
    if snapshot.t <= 0:
        raise ValueError("snapshot needs a positive time for rescaled moments")
    v = snapshot.sites / snapshot.t
    return float((snapshot.masses * v**order).sum())


def _state_fourier(state: State, ks: np.ndarray) -> np.ndarray:
    """psi_hat(k) = sum_x e^{ikx} psi(x) on the given grid, shape (G, n)."""
    phases = np.exp(1j * np.outer(ks, state.sites))
    return phases @ state.amplitudes


def _to_band_coordinates(band_set: BandSet, state: State) -> list:
    """Overlaps of the state with every band section on the cover grid.

    Returns one (multiplicity, degree * G) array per band; entry
    [c, s G + g] is <v_c(k_g + 2 pi s), psi_hat(k_g)>.  The squared
    magnitudes divided by G sum to the squared state norm across all
    bands (the sections form a complete frame over each fiber).
    """
    G = band_set.grid_size
    ks = 2.0 * np.pi * np.arange(G) / G
    psi_hat = _state_fourier(state, ks)
    out = []
    for band in band_set.bands:
        # sheet s of a band's cover is the base grid again
        vec = band.eigvec_samples.reshape(band.multiplicity, band.degree, G, band_set.n)
        coords = np.einsum("csgi,gi->csg", vec.conj(), psi_hat)
        out.append(coords.reshape(band.multiplicity, band.degree * G))
    return out


@dataclass(frozen=True)
class LimitLaw:
    """Weak limit of x/t: atoms plus a weighted velocity sample cloud.

    The cloud (velocities, weights) is the quadrature discretization of
    the continuous part; bin_edges/bin_masses is its fixed 401-bin
    histogram over [-vmax, vmax].
    """

    atoms: tuple
    velocities: np.ndarray
    weights: np.ndarray
    bin_edges: np.ndarray
    bin_masses: np.ndarray
    vmax: float

    def total_mass(self) -> float:
        return float(self.weights.sum() + sum(m for _, m in self.atoms))

    def moment(self, order: int) -> float:
        cont = float((self.weights * self.velocities**order).sum())
        return cont + sum(m * v**order for v, m in self.atoms)


def limit_law(dec: Decomposition, state: State) -> LimitLaw:
    """Limit distribution of x/t for the walk started in the given state.

    A band whose Band.support is one frequency ell is an atom at ell / degree;
    every other band adds its FFT-derivative velocities, within the commutator
    bound L; a velocity past L + 1e-6 refuses the band (spectral._unresolved).
    The refusal names 2G, twice the band's grid, which may refuse in turn:
    coined(1 - 1e-4) is refused at 256 and at 512 and answers at 1024.
    """
    band_set = dec.band_set
    _check_components(state, band_set.n)
    G = band_set.grid_size
    if state.amplitudes.shape[0] > G:
        raise ValueError(
            "state support (%d sites) exceeds the sampling grid (%d); "
            "the grid Fourier transform would alias" % (state.amplitudes.shape[0], G)
        )
    norm2 = state.norm() ** 2
    coords = _to_band_coordinates(band_set, state)
    atoms = []
    vel_parts = []
    w_parts = []
    vmax = dec.commutator_bound + 0.05
    for band, co in zip(band_set.bands, coords):
        w = (np.abs(co) ** 2).sum(axis=0) / G
        mass = float(w.sum())
        if band.support.size == 1:
            # lambda = c e^{i ell k / degree}: a flat band or a pure drift
            if mass > 0:
                atoms.append((int(band.support[0]) / band.degree, mass))
            continue
        freqs = band.fourier_freqs
        dsamples = np.fft.ifft(band.fourier * (1j * freqs / band.degree) * freqs.size)
        vel = (dsamples / (1j * band.samples)).real
        peak = np.max(np.abs(vel))
        if peak > dec.commutator_bound + 1e-6:
            reason = "its velocity reaches %.9g, past the commutator bound %.9g"
            raise _unresolved(band, reason % (peak, dec.commutator_bound))
        vel_parts.append(vel)
        w_parts.append(w)
    velocities = np.concatenate(vel_parts) if vel_parts else np.empty(0)
    weights = np.concatenate(w_parts) if w_parts else np.empty(0)
    total = float(weights.sum() + sum(m for _, m in atoms))
    if abs(total - norm2) > 1e-8:
        raise RuntimeError(
            "internal error: limit law mass %.12f, state norm^2 %.12f"
            % (total, norm2)
        )
    # merge coincident atoms (several constant bands share velocity 0)
    merged: dict[float, float] = {}
    for v, m in atoms:
        key = round(v, 12)
        merged[key] = merged.get(key, 0.0) + m
    atom_tuple = tuple(sorted(merged.items()))
    bin_masses, bin_edges = np.histogram(
        velocities, bins=HISTOGRAM_BINS, range=(-vmax, vmax), weights=weights
    )
    return LimitLaw(
        atoms=atom_tuple,
        velocities=velocities,
        weights=weights,
        bin_edges=bin_edges,
        bin_masses=bin_masses,
        vmax=vmax,
    )


def kolmogorov_distance(law: LimitLaw, snapshot: DistributionSnapshot) -> float:
    """sup_x |F_law(x) - F_snapshot(x)| over rescaled positions x/t.

    An atom of the law is a jump the snapshot can only approximate by mass
    spread over nearby sites (the localized component keeps a fixed
    physical width, which shrinks like 1/t in x/t but never to a point).
    Snapshot mass within one histogram bin of an atom, the law's own
    resolution, is therefore attributed to the atom and the jumps compared
    cumulatively.

    Tie rule: a cloud velocity within ATOM_VELOCITY_TOL of a rescaled
    site x/t (x an integer) counts at that site.  The snapshot jumps
    there, and without the rule a velocity that is x/t up to rounding
    (grover3 has velocities of 0 that come out as +-1e-14) would count
    before or after the site's mass by the sign of its rounding error.
    """
    if snapshot.t <= 0:
        raise ValueError("snapshot needs a positive time")
    t = snapshot.t
    site = np.rint(law.velocities * t) / t
    velocities = np.where(np.abs(law.velocities - site) <= ATOM_VELOCITY_TOL, site, law.velocities)
    xs1 = np.concatenate([velocities, [v for v, _ in law.atoms]])
    ws1 = np.concatenate([law.weights, [m for _, m in law.atoms]])
    o1 = np.argsort(xs1, kind="stable")
    xs1, cum1 = xs1[o1], np.cumsum(ws1[o1])
    xs2 = np.asarray(snapshot.sites / t, dtype=float)
    ws2 = np.array(snapshot.masses, dtype=float)
    for v, _ in law.atoms:
        near = np.abs(xs2 - v) <= law.bin_edges[1] - law.bin_edges[0]
        moved = float(ws2[near].sum())
        if moved > 0.0:
            ws2 = np.concatenate([ws2[~near], [moved]])
            xs2 = np.concatenate([xs2[~near], [v]])
    o2 = np.argsort(xs2, kind="stable")
    xs2, cum2 = xs2[o2], np.cumsum(ws2[o2])
    # searchsorted needs neither sorted nor distinct queries, and np.union1d
    # would import numpy.ma (about 10 ms) on its first call
    grid = np.concatenate([xs1, xs2])
    idx1 = np.searchsorted(xs1, grid, side="right")
    idx2 = np.searchsorted(xs2, grid, side="right")
    f1 = np.where(idx1 > 0, cum1[np.maximum(idx1 - 1, 0)], 0.0)
    f2 = np.where(idx2 > 0, cum2[np.maximum(idx2 - 1, 0)], 0.0)
    return float(np.max(np.abs(f1 - f2)))


def write_distribution_csv(snapshot: DistributionSnapshot, fileobj) -> None:
    """Rows t,x,x_over_t,mass for every occupied site; zero rows are skipped."""
    t = snapshot.t
    kept = snapshot.masses != 0.0
    x = snapshot.sites[kept]
    ratio = x / t if t > 0 else np.zeros(x.size)
    _write_table(fileobj, "t,x,x_over_t,mass", "%d,%d,%.17g,%.17g",
                 [np.full(x.size, t), x, ratio, snapshot.masses[kept]])
