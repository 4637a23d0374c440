"""Band structure of the walk symbol on the torus.

Eigenvalues of U_hat(k) are followed around k in [0, 2pi) into continuous
sheets.  The permutation the sheets undergo at the seam k = 2pi groups them
into cycles; each cycle of length d joins its sheets' values into a
function on the covering torus T_{2pi d}.  Its Fourier coefficients above
the noise floor are its support, and that support is the one periodicity
rule: when every supported frequency is a multiple of g, g = gcd(d,
gcd(support)), the cycle weaves g copies of one analytic band of degree
d / g and is folded into them (an empty support folds nothing).  Bands
that coincide pointwise are then merged into one band with a
multiplicity.  So no band repeats on its cover: a non-constant band has
gcd(min_period, degree) = 1.

Extraction has a values pass and a sections pass.  The values pass
solves the symbol grid by one batched eigvalsh of the Cayley transform
of U_hat(k).  Each fiber first tries the Cayley phase farthest from the
spectrum that one batched eigvals of every 16th fiber predicts for it,
so almost every fiber is solved once.  That first trial covers the whole
grid and its arrays are kept as the result; only the fibers it fails are
gathered for the next phases and written back.  The accepted Cayley
matrices are kept as well, and every eigenvector comes from one batched
eigh of them, degenerate clusters included, with no second symbol grid,
prediction or solve.  When every coefficient of a walk (or of a block,
below) is real, an exact test, U_hat(-k) is the conjugate of U_hat(k):
only the fibers 0 ... G/2 are solved, and fiber G - m takes the
conjugates of fiber m's values and sections.  Sheet labels do not
depend on the solver's column order: each cycle starts at a canonical
sheet, least argument in [0, 2pi) at k = 0, ties within MERGE_TOL
ordered where the sheets separate.  Band samples, order and values at
k = 0 then depend on the walk alone.

Each block (below) is first offered to the certificate, _certify, which
needs only the solved eigenvalues.  P(k) = prod_{i<j} |lambda_i -
lambda_j|^2 is a real trigonometric polynomial of degree at most D =
n (n - 1) (max shift - min shift) / 2; when G > 2D its coefficients come
from one FFT of the grid's samples.  The samples are rounded, so the
certificate carries an allowance A >= |P - (its series up to D)|,
derived from the block's n, D, shifts and samples by bounding the
eigensolver's error, its effect on each factor of P and the FFT's
rounding (_certify).  Newton's method from the samples' local minima
refuses quickly where P has a zero; otherwise a Taylor bound on every
grid cell, refined on the cells where it fails, proves the series above
A on the whole torus.  Then no two eigenvalues ever meet, so their
cyclic order is fixed and their lifted arguments sum to arg det U_hat(k)
= arg det U_hat(0) + w k, w = det_winding: each fiber's sorted arguments
are labelled by the one rotation that gives that sum, and the seam
permutation is i -> i + w (mod n) (_label).  A block that does not
certify (a pair within MERGE_TOL, a coefficient past D above A, G <= 2D,
or the series at most A somewhere), or whose rotation does not round
cleanly, is tracked as follows.

Tracking starts at the grid point with the best-separated spectrum and
sweeps both ways.  Each branch moves at most hL over a grid step h, where
L, the speed bound, is commutator_norm (exact up to rounding when the
Gram symbol of [D, U] does not depend on k, otherwise a NORM_GRID-point
grid maximum widened by Bernstein's inequality) with a rounding
allowance added in quadrature: by Hellmann-Feynman
|dlambda/dk| = |<v, dU_hat/dk v>| <= ||dU_hat/dk||.  So when the
smallest pairwise distance on one end fiber of a step exceeds 2hL, the
hL-discs around its values are disjoint, and the nearest value across
the step is the branch's continuation: the step is proven.  Proven
steps between fibers without a pair within MERGE_TOL are matched by that
history-free nearest choice and composed by a prefix scan.  Every other
step takes the scalar step: the same
nearest-value rule on linearly extrapolated values, sheets nearest a
MERGE_TOL cluster taking its columns in index order, then the
AMBIG_FACTOR rule on the residual of each pair against its gap; an
ambiguous step is re-tracked on a locally refined grid (up to MAX_HALVINGS
halvings, quadratic extrapolation), and if every level stays ambiguous an
UnresolvedCrossing is raised with the offending k-interval, the smallest
gap on its end fibers, the speed bound, and the first grid size whose step
that gap proves.  The seam is one more forward step, onto fiber 0 again at
k = 2pi; the permutation there maps each forward sheet to the backward
sheet whose section at k = 0 overlaps its own the most.  Eigenprojections
continue analytically through a touching point, so the sections, unlike
the solver's basis of a degenerate cluster, carry the walk's permutation;
a map that is not a permutation refuses the seam step.  Scalar steps are
not proven, so a tracked walk whose avoided crossing is narrower than
the grid can still be answered wrongly there.

Every invariant is read from the values: a certified block is labelled
from eigvalsh's values and holds its Cayley matrices, no eigenvector,
until the sections pass, which runs once, on the first read of any
band's eigvec_samples (_Sections).  A tracked block's sections are the
tracker's, eigh's columns permuted (and a degenerate cluster rotated
onto its predecessor as a block).  A certified block's are eigh's
columns at _label's: eigh orders mu as eigvalsh does, and no two of its
values are within MERGE_TOL, far above the two solvers' difference (at
most 5.6e-15 over the ledger corpus, none at n <= 2).  So a certified
band's samples are eigvalsh's and its sections eigh's.  No invariant
depends on a section's phase, so phases are set once, in the sections
pass, for both paths: each cycle's joined section is turned sample by
sample so that consecutive overlaps are real and positive, before the
cycle's copies are split off, rolled onto the band they merged into,
and gauged at k = 0.

A walk whose constant commutant (the X with X A_j = A_j X for every j)
holds more than the scalars is a direct sum of smaller walks, and each
is solved, then labelled or tracked, alone, a tracked one with its own
speed bound.  The eigenspaces of a generic Hermitian X in the commutant
(null space at COMMUTANT_TOL = 1e-9, eigenvalues grouped at BLOCK_TOL =
1e-6) give orthonormal bases V_b, and the block walk has coefficients
V_b^* A_j V_b; the split is made only when every block is invariant to
COUPLING_TOL = 1e-12 and passes WalkSpec validation
(walkspec._invariant_blocks).  A fiber then costs sum_b n_b^3 instead of
n^3, and crossings between blocks never reach the certificate or the
tracker.  The blocks' sheet values, their sections mapped back by V_b
and their seam permutations are assembled together, so bands that
coincide across blocks still merge.  An irreducible walk is one block
in the identity basis.

A band's winding is the sum of the principal arguments of the ratios of
consecutive samples, a whole number of turns up to rounding.  Those are
the true increments when every step moves the band by an arc below pi,
which the speed bound guarantees when G > 2L, since hL = 2 pi L / G.  A
grid with G <= 2L would alias the winding and is refused with a
ValueError, before any fiber is solved, that names the first grid size
that passes; L is the whole walk's, also when it splits into blocks.
The det winding needs no grid: it is sum_j j ||A_j||_F^2 (det_winding),
and sample_bands checks the band windings of every extraction against it.

sample_bands memoizes its result on the spec object, per grid size, for
as long as some caller holds the BandSet: decompose and is_ct_realizable
on one spec and grid then share a single extraction.  The memo holds the
BandSet weakly, never serves another spec object, even an equal one, and
never stores a failure, so a refused walk is tracked (and refused) again
on every call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .walkspec import WalkSpec, _invariant_blocks, _is_real, _speed_bound, _write_table, symbol_on_grid

__all__ = [
    "Band",
    "BandSet",
    "UnresolvedCrossing",
    "sample_bands",
    "monodromy",
    "det_winding",
    "write_band_csv",
]

MERGE_TOL = 1e-9       # values closer than this are numerically one point
COEF_TOL = 1e-9        # least noise floor of Band.support
AMBIG_FACTOR = 0.2     # prediction residual vs gap ratio that triggers refinement
MAX_HALVINGS = 4


def _first_grid(bound: float, gap: float = 2.0 * np.pi) -> int:
    """The first power of two G >= 64 with 4 pi L / G < gap, L = bound.

    On that grid a step between fibers with that gap is proven (2hL < gap);
    the default gap 2pi gives the grid rule G > 2L.
    """
    grid = 64
    while 4.0 * np.pi * bound / grid >= gap:
        grid *= 2
    return grid


class UnresolvedCrossing(RuntimeError):
    """Two bands could not be disambiguated at a near-degeneracy.

    min_gap is the smallest distance above MERGE_TOL between two
    eigenvalues on the fibers at k_lo and k_hi, and bound the speed bound L
    the step was held to.  next_grid is the first valid grid size whose
    step is proven at that gap (_first_grid); it is None unless a positive
    gap and a bound are given.
    """

    def __init__(self, k_lo: float, k_hi: float, min_gap: float | None = None,
                 bound: float | None = None):
        self.k_lo = float(k_lo)
        self.k_hi = float(k_hi)
        self.min_gap = None if min_gap is None else float(min_gap)
        self.bound = None if bound is None else float(bound)
        self.next_grid = None
        message = "band assignment ambiguous on k in [%.9f, %.9f]" % (k_lo, k_hi)
        if self.min_gap is not None and self.min_gap > 0 and self.bound is not None:
            self.next_grid = _first_grid(self.bound, self.min_gap)
            message += (
                "; smallest gap on its end fibers %.3e, speed bound %.3e,"
                " first grid that proves such a step %d"
                % (self.min_gap, self.bound, self.next_grid)
            )
        super().__init__(message)

    def __reduce__(self):
        return (UnresolvedCrossing, (self.k_lo, self.k_hi, self.min_gap, self.bound))


def _unresolved(band: Band, reason: str) -> ValueError:
    """The refusal of a band its grid has not resolved (decompose, cover_walk, limit_law).

    It names 2G, twice the band's grid; that grid may refuse in turn (a
    band near a narrow avoided crossing can need several doublings), so
    the advice may need repeating.
    """
    G = band.grid_size
    msg = "band sampled on grid %d is not resolved: %s; decompose on a finer grid, such as %d"
    return ValueError(msg % (G, reason, 2 * G))


@dataclass(frozen=True)
class Band:
    """One analytic eigenvalue branch on its covering torus T_{2pi degree}.

    samples holds lambda on the uniform covering grid (length
    degree * grid_size); eigvec_samples holds one orthonormal section per
    coincident copy, shape (multiplicity, len(samples), n), phase-continuous
    along the cover: consecutive samples have a real positive overlap
    wherever it does not vanish.  Sections are built on the first read of
    any band's eigvec_samples, for every band of the extraction at once,
    and kept (_Sections); until then a certified block holds its Cayley
    matrices in their place.  fourier are the coefficients of lambda in
    the basis e^{i ell k / degree}, numpy FFT ordering; support, the
    frequencies whose coefficient clears _noise_floor, decides the fold of
    its cycle (_assemble_bands), constancy, the minimal period (the gcd of
    |support|, coprime to degree), limit_law's atoms and intertwine's
    normalized coefficients.  Both are read once, on the cycle, and a
    folded band keeps every g-th coefficient: an empty support means the
    grid resolved no coefficient, and decompose refuses the band.
    """

    degree: int
    samples: np.ndarray
    fourier: np.ndarray
    support: np.ndarray
    multiplicity: int
    winding: int
    min_period: int | None
    grid_size: int
    _sections: Callable = field(repr=False, compare=False)

    def __post_init__(self):
        for name in ("samples", "fourier", "support"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __setstate__(self, state):
        # unpickling skips __post_init__, and its arrays are writeable
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def eigvec_samples(self) -> np.ndarray:
        """Section copies (multiplicity, len(samples), n), read-only."""
        return self._sections()

    @property
    def is_constant(self) -> bool:
        """No nonzero frequency clears the noise floor."""
        return not self.support.any()

    @property
    def kgrid(self) -> np.ndarray:
        """Covering-torus sample points in [0, 2pi*degree)."""
        length = self.samples.size
        return 2.0 * np.pi * self.degree * np.arange(length) / length

    @property
    def fourier_freqs(self) -> np.ndarray:
        """Integer frequency index ell per fourier entry (FFT order)."""
        length = self.fourier.size
        return np.rint(np.fft.fftfreq(length) * length).astype(int)

    def value_at(self, ktilde) -> np.ndarray:
        """Evaluate lambda anywhere on the cover via its Fourier series."""
        ktilde = np.asarray(ktilde, dtype=float)
        phases = np.exp(
            1j * np.multiply.outer(ktilde, self.fourier_freqs) / self.degree
        )
        return phases @ self.fourier


@dataclass(frozen=True)
class BandSet:
    """All bands of one walk, canonically ordered; sheet count equals n."""

    bands: tuple
    n: int
    grid_size: int

    def __post_init__(self):
        total = sum(b.degree * b.multiplicity for b in self.bands)
        if total != self.n:
            raise RuntimeError(
                "internal error: sheet bookkeeping %d does not match n=%d"
                % (total, self.n)
            )

    def sheet_values_at(self, k: float) -> np.ndarray:
        """Multiset (length n) of all band values over the fiber at base k."""
        out = []
        for band in self.bands:
            for s in range(band.degree):
                val = band.value_at(k + 2.0 * np.pi * s)
                out.extend([val] * band.multiplicity)
        return np.asarray(out, dtype=complex)


def _validate_grid(grid_size: int) -> None:
    if grid_size < 64 or grid_size & (grid_size - 1) != 0:
        raise ValueError("grid_size must be a power of two and at least 64")


def _trial_cap(n: int) -> float:
    """cot(pi / (4 (n + 1))): the largest |mu| and |H| entry _eig_grid accepts."""
    return 1.0 / np.tan(np.pi / (4 * n + 4))


def _eig_grid(spec: WalkSpec, ks: np.ndarray):
    """Eigenvalues (G, n) of U_hat(k), and a function that gives the fibers'
    eigenvalues and orthonormal eigenvector columns (G, n, n) by eigh.

    With z = e^{-i phi}, H = i (I + z U)(I - z U)^{-1} is Hermitian with
    U's eigenvectors and eigenvalues mu = -cot((theta - phi) / 2), so
    lambda = e^{i phi} (mu - i) / (mu + i).  A fiber keeps the first of
    n + 1 equally spaced phases with max|mu| <= cot(pi / (4 (n + 1))): the
    empty one of the n + 1 arcs around them is pi / (n + 1) from every
    eigenvalue, twice what the bound asks.  The phases are tried in cyclic
    order from a predicted one: the phase farthest from the eigenvalues of
    the nearest of every 16th fiber, estimated by one batched eigvals, so
    that almost every fiber is solved once.  Each trial takes mu from a
    batched eigvalsh.  The first trial runs on the whole grid, and its
    arrays are the result; only the fibers it fails are gathered for the
    next phase, and only their passes are written back.  The returned
    function keeps the accepted H and solves them by eigh (_cayley_eigh),
    whose values differ from eigvalsh's by rounding.
    A phase where I - z U is exactly singular is skipped for that fiber;
    only a trial whose batched solve fails looks for such fibers, by their
    determinant.  H is not symmetrized, and eigvalsh and eigh read only its
    lower triangle and the real part of its diagonal, so near a pole mu can
    miss the blow-up: a 1 x 1 symbol within rounding of the trial phase
    gives a huge imaginary H and mu = 0.  So a fiber is also refused when
    an entry of H exceeds the bound, which no entry of a Hermitian H with
    max|mu| within it does.
    """
    mats = symbol_on_grid(spec, ks)
    n = spec.n
    eye = np.eye(n)
    trial = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    est = np.linalg.eigvals(mats[::16])
    far = np.abs(est[:, :, None] - trial).min(axis=1).argmax(axis=1)
    first = far[np.minimum((np.arange(ks.size) + 8) // 16, far.size - 1)]
    # e^{i phi} per trial, phi = 2 pi r / (n + 1); at n = 5, 8, 10 and
    # others some entries of trial round otherwise
    ephi = np.exp(1j * (2.0 * np.pi * np.arange(n + 1) / (n + 1)))
    cap = _trial_cap(n)

    def attempt(m, r):
        """Values, Cayley matrices and pass mask of the fibers m at the trials r."""
        zu = ephi[r].conj()[:, None, None] * m
        a = eye - zu
        zu += eye
        singular = np.zeros(r.size, dtype=bool)
        try:
            h = np.linalg.solve(a, zu)
        except np.linalg.LinAlgError:
            singular = np.linalg.det(a) == 0
            a[singular] = eye
            h = np.linalg.solve(a, zu)
        del a, zu
        h *= 1j
        mu = np.linalg.eigvalsh(h)
        ok = ~singular & (np.abs(mu).max(axis=1) <= cap) & (np.abs(h).max(axis=(1, 2)) <= cap)
        return ephi[r][:, None] * (mu - 1j) / (mu + 1j), h, ok

    vals, cayley, ok = attempt(mats, first)
    todo = np.flatnonzero(~ok)
    for t in range(1, n + 1):
        if not todo.size:
            break
        r = (first[todo] + t) % (n + 1)
        w, h, ok = attempt(mats[todo], r)
        vals[todo[ok]] = w[ok]
        cayley[todo[ok]] = h[ok]
        first[todo[ok]] = r[ok]
        todo = todo[~ok]

    return vals, functools.partial(_cayley_eigh, cayley, ephi[first])


def _cayley_eigh(cayley: np.ndarray, ephi: np.ndarray):
    """Eigenvalues and vectors of the fibers with Cayley matrices cayley at phases ephi."""
    mu, v = np.linalg.eigh(cayley)
    return ephi[:, None] * (mu - 1j) / (mu + 1j), v


def _clusters(vals: np.ndarray, tol: float):
    """Indices grouped by chained closeness on the unit circle."""
    order = np.argsort(np.angle(vals), kind="stable")
    groups = [[int(order[0])]]
    for i in order[1:]:
        if abs(vals[i] - vals[groups[-1][-1]]) < tol:
            groups[-1].append(int(i))
        else:
            groups.append([int(i)])
    if len(groups) > 1 and abs(vals[groups[0][0]] - vals[groups[-1][-1]]) < tol:
        groups[0] = groups.pop() + groups[0]
    return groups


def _pair_check(resid, vals):
    """The matching rule: True per fiber where the assignment is ambiguous.

    Works over any leading fiber axes.  vals[..., s] is the eigenvalue
    assigned to sheet s and resid[..., s] its distance from the sheet's
    prediction.  A pair closer than MERGE_TOL is numerically one point and
    any assignment of it works; any other pair is ambiguous when either
    residual exceeds AMBIG_FACTOR times the pair's gap.
    """
    i, j = _pairs(vals.shape[-1])
    gap = _pair_gaps(vals)
    resid = np.maximum(resid[..., i], resid[..., j])
    return ((gap > MERGE_TOL) & (resid > AMBIG_FACTOR * gap)).any(axis=-1)


def _match_step(pred, w):
    """Column of w continuing each predicted sheet; None when ambiguous.

    Each sheet takes the candidate nearest its prediction; sheets nearest
    one MERGE_TOL cluster take its columns in index order (_align_frame
    then rotates that block onto the previous frame).  The step is
    ambiguous when the sheets do not fill each cluster exactly, or when
    _pair_check rejects the result.  No other assignment could pass that
    check: it holds each residual to AMBIG_FACTOR = 0.2 of every gap above
    MERGE_TOL, so every other value is at least 0.8 of that gap away.
    """
    near = np.abs(pred[:, None] - w[None, :]).argmin(axis=1)
    label = np.arange(len(w))
    if (_pair_gaps(w) < MERGE_TOL).any():
        for idx in _clusters(w, MERGE_TOL):
            label[idx] = idx[0]
    # sheets and columns each in cluster order, ties in index order
    sheets = np.argsort(label[near], kind="stable")
    cols = np.argsort(label, kind="stable")
    if not np.array_equal(label[near[sheets]], label[cols]):
        return None
    perm = np.empty_like(near)
    perm[sheets] = cols
    if _pair_check(np.abs(pred - w[perm]), w[perm]):
        return None
    return perm


def _align_frame(prev, cur, vals):
    """Rotate each degenerate cluster of cur, in place, by the unitary that
    brings it closest to prev's columns (orthogonal Procrustes).

    Phases are set once, in _assemble_bands.
    """
    if (_pair_gaps(vals) < MERGE_TOL).any():
        for idx in _clusters(vals, MERGE_TOL):
            if len(idx) > 1:
                u, _, vh = np.linalg.svd(cur[:, idx].conj().T @ prev[:, idx])
                cur[:, idx] = cur[:, idx] @ (u @ vh)
    return cur


def _chain_match(spec, k_start, k_end, start_vals, end_vals, slope=None):
    """Re-track [k_start, k_end] on refined subgrids.

    `slope` is an incoming dlambda/dk estimate per sheet; seeding the chain
    with it avoids a zeroth-order first step, which cannot separate sheets
    whose drift over one substep exceeds their gap.  Returns the
    sheet -> column permutation of end_vals, or None if every refinement
    level stays ambiguous.
    """
    for level in range(1, MAX_HALVINGS + 1):
        steps = 2 ** (level + 1)
        sub = np.linspace(k_start, k_end, steps + 1)
        # eigh's values, as on the tracked grid
        vals = np.append(_eig_grid(spec, sub[1:-1] % (2.0 * np.pi))[1]()[0], [end_vals], axis=0)
        hist = [start_vals]
        if slope is not None:
            hist.insert(0, start_vals - slope * (sub[1] - sub[0]))
        for w in vals:
            if len(hist) >= 3:
                pred = 3 * hist[-1] - 3 * hist[-2] + hist[-3]
            elif len(hist) == 2:
                pred = 2 * hist[-1] - hist[-2]
            else:
                pred = hist[-1]
            perm = _match_step(pred, w)
            if perm is None:
                break
            hist.append(w[perm])
        else:
            return perm
    return None


def _neighborhood_min(score: np.ndarray) -> np.ndarray:
    return np.minimum(score, np.minimum(np.roll(score, 1), np.roll(score, -1)))


def _pair_gaps(vals: np.ndarray) -> np.ndarray:
    """|vals[..., i] - vals[..., j]| for every pair i < j, over any leading axes."""
    i, j = _pairs(vals.shape[-1])
    return np.abs(vals[..., i] - vals[..., j])


@functools.lru_cache(maxsize=None)
def _pairs(n: int):
    """Indices (i, j) of every pair i < j of n values; shared, so read-only."""
    pairs = np.triu_indices(n, k=1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _best_start(vals: np.ndarray) -> int:
    """Grid point whose spectrum is best separated.

    Starting inside a degeneracy leaves the sheet labels there to chance, so
    prefer a fiber where every pair is far apart.  Walks with exact copies
    (amplified blocks) are degenerate everywhere; for those, score with the
    copies masked out.  Scores are smoothed by a neighborhood minimum: a
    band touch makes the masked gap tiny next to the touch even though the
    touching pair itself falls under the mask at the touch fiber.
    """
    if vals.shape[1] == 1:
        return 0
    gaps = _pair_gaps(vals)
    score = _neighborhood_min(gaps.min(axis=1))
    best = int(np.argmax(score))
    if score[best] > 100.0 * MERGE_TOL:
        return best
    masked = np.where(gaps > MERGE_TOL, gaps, np.inf)
    score = _neighborhood_min(masked.min(axis=1))
    if np.all(np.isinf(score)):
        return 0
    return int(np.argmax(np.where(np.isinf(score), -1.0, score)))


def _min_gap(*fibers):
    """Smallest distance above MERGE_TOL between two values of one given fiber."""
    gaps = _pair_gaps(np.array(fibers))
    return float(gaps[gaps > MERGE_TOL].min(initial=np.inf))


def _compose_prefix(q):
    """out[t] = q[t] o q[t-1] o ... o q[0] for a stack of permutations.

    A Hillis-Steele scan: after the pass with stride d, out[t] composes
    the last 2d factors up to t.
    """
    out = q.copy()
    d = 1
    while d < len(out):
        out[d:] = np.take_along_axis(out[d:], out[:-d], axis=1)
        d *= 2
    return out


def _scalar_step(spec, ks, vals, vecs, tv, tw, t, bound):
    """Track position t of a sweep alone; returns its sheet -> column map."""
    last, last2 = t - 1, (t - 2 if t >= 2 else None)
    pred = tv[last] if last2 is None else 2 * tv[last] - tv[last2]
    perm = _match_step(pred, vals[t])
    if perm is None:
        anchor = last2 if last2 is not None else last
        slope = None
        if last2 is not None:
            slope = (tv[last] - tv[last2]) / (ks[last] - ks[last2])
        perm = _chain_match(spec, ks[anchor], ks[t], tv[anchor], vals[t], slope=slope)
        if perm is None:
            lo, hi = sorted((ks[last], ks[t]))
            raise UnresolvedCrossing(lo, hi, _min_gap(vals[last], vals[t]), bound)
    tv[t] = vals[t][perm]
    tw[t] = _align_frame(tw[last], vecs[t][:, perm], tv[t])
    return perm


def _sweep(spec, ks, vals, vecs, tv, tw, gap, bound, start=1):
    """Track positions start.. of one sweep.

    Every argument is a view in sweep order.  The positions before start
    are tracked, tv and tw set, and hold their columns in sheet order (the
    start fiber, or tracked fibers passed as vals and vecs); gap[t] is the
    smallest distance between two values of fiber t.  A
    step is proven when either end's gap exceeds 2 h bound and neither end
    holds a pair within MERGE_TOL (module docstring); runs of proven steps
    are matched by nearest value and composed by _compose_prefix.  Every
    other step takes the scalar step with the real tracked history, in
    order.  Neither sets phases; _assemble_bands does.
    """
    L, n = vals.shape
    if L < 2:
        return
    reach = 2.0 * abs(ks[1] - ks[0]) * bound
    proven = np.zeros(L, dtype=bool)
    proven[1:] = (np.maximum(gap[:-1], gap[1:]) > reach) & (
        np.minimum(gap[:-1], gap[1:]) >= MERGE_TOL
    )
    # q[t - 1] maps each column of fiber t - 1 to its nearest value on fiber t
    q = np.abs(vals[:-1, :, None] - vals[1:, None, :]).argmin(axis=2)
    perm = np.arange(n)  # sheet -> column of the last tracked fiber
    t = start
    while t < L:
        f = t + int(np.argmax(np.append(~proven[t:], True)))
        if f > t:
            perms = _compose_prefix(q[t - 1 : f - 1])[:, perm]
            tv[t:f] = np.take_along_axis(vals[t:f], perms, axis=1)
            tw[t:f] = np.take_along_axis(vecs[t:f], perms[:, None, :], axis=2)
            perm = perms[-1]
            t = f
        if t < L:
            perm = _scalar_step(spec, ks, vals, vecs, tv, tw, t, bound)
            t += 1


def _track(spec: WalkSpec, ks: np.ndarray, vals: np.ndarray, vecs: np.ndarray,
           bound: float):
    """Tracked values (G, n), sections (G, n, n) and the seam permutation.

    The forward sweep takes one step past the last fiber, onto fiber 0
    again at k = 2pi, on a window of the last tracked fibers and fiber 0;
    sigma[s] is the backward sheet whose section at k = 0 overlaps forward
    sheet s's section there the most.
    """
    G, n = vals.shape
    gap = _pair_gaps(vals).min(axis=1, initial=np.inf)
    tv = np.empty_like(vals)
    tw = np.empty_like(vecs)
    g0 = _best_start(vals)
    tv[g0] = vals[g0]
    tw[g0] = vecs[g0]
    _sweep(spec, ks[g0:], vals[g0:], vecs[g0:], tv[g0:], tw[g0:], gap[g0:], bound)
    # the seam step: the window holds the history a step at G would read
    last = slice(max(g0, G - 2), G)
    wk = np.append(ks[last], 2.0 * np.pi)
    wv = np.concatenate([tv[last], vals[:1]])
    ww = np.concatenate([tw[last], vecs[:1]])
    wgap = np.append(gap[last], gap[0])
    _sweep(spec, wk, wv, ww, wv, ww, wgap, bound, start=wk.size - 1)
    _sweep(
        spec, ks[g0::-1], vals[g0::-1], vecs[g0::-1], tv[g0::-1], tw[g0::-1],
        gap[g0::-1], bound,
    )
    # the start frame of a degenerate cluster is an arbitrary basis; rotate
    # it toward its neighbour so the section is continuous there too
    _align_frame(tw[g0 + 1 if g0 + 1 < G else g0 - 1], tw[g0], tv[g0])
    sigma = np.abs(ww[-1].conj().T @ tw[0]).argmax(axis=1)
    if np.bincount(sigma, minlength=n).max() > 1:
        raise UnresolvedCrossing(ks[G - 1], 2.0 * np.pi, _min_gap(vals[G - 1], vals[0]), bound)
    return tv, tw, sigma


def _certify(vals: np.ndarray, shifts) -> bool:
    """True when P(k) = prod_{i<j} |lambda_i - lambda_j|^2 is proven positive on the torus.

    vals are a block's eigenvalues on the base grid and shifts its J shift
    exponents j.  P = +-Delta / det U_hat^{n-1}, Delta the discriminant, is
    a real trigonometric polynomial of degree at most D = n (n - 1) span /
    2, span = max j - min j, so G > 2D samples give its coefficients p_m
    by one FFT.  The samples are rounded, so what is proven is that the
    low series P_low (the p_m with |m| <= D) exceeds an allowance A >=
    |P - P_low| everywhere.  A is a rounding bound, derived to first order
    with unit constants (the convention of LAPACK's error bounds) from n,
    D, G, the shifts, eps = 2^-52 and the samples:

    - eigenvalues.  k = 2 pi g / G rounds to eps relative and jk by eps / 2
      more, so each e^{ijk} is off by eps (1 + 3 pi |j|), and each entry
      of U_hat sums J terms; as sum_j ||A_j||_F^2 = n, the formed symbol
      is off by s = eps (1 + J + 3 pi max|j|) sqrt(J n).  _eig_grid keeps
      a trial only when every |mu| <= c = cot(pi / (4 (n + 1))), so
      ||(I - zU)^{-1}|| <= sqrt(1 + c^2) / 2.  That carries s to H as
      2i z (I - zU)^{-1} dU (I - zU)^{-1}, at most (1 + c^2) s / 2
      (eigvalsh reads H's lower triangle, so mu moves by that much
      whether or not dU kept U unitary); the solve gives H within
      eps (1 + c)^2, and eigvalsh, backward-stable like eigh, adds
      eps ||H|| <= eps c.  lambda = e^{i phi} (mu - i) / (mu + i)
      moves by 2 / (1 + mu^2) <= 2 times mu's error, so each eigenvalue is
      within eta = (1 + c^2) s + 2 eps ((1 + c)^2 + c), 423 eps for the
      coined walk.  Against 40-digit eigenvalues at 6 fibers of each of
      the 463 blocks of the ledger corpus (tests/ledger.py), grid 256, the
      largest error measured is 11 eps.
    - the factors.  Each distance d = |lambda_i - lambda_j| is then within
      2 eta, so d^2 within 4 eta d, and P within 4 eta P / d per factor;
      the 2N - 1 products and squares of N pairs round by 2N eps P <=
      4 eps sum P / d, since d <= 2.  So sample g is within e_g = 4 (eta +
      eps) sum_{i<j} P_g / d_ij.
    - the FFT.  A radix-2 FFT is within 7 log2(G) eps of the exact DFT in
      the 2-norm (Higham, Accuracy and Stability of Numerical Algorithms,
      ch. 24), so by Parseval the computed p_m are off by at most rms(e) +
      7 log2(G) eps rms(P) in the 2-norm, and by Cauchy-Schwarz
      |P - P_low| <= sum_{|m|<=D} |dp_m| is at most sqrt(2D + 1) times
      that, which is at most (2D + 1) times the largest error of one
      sample.  Evaluating P_low, by inverse FFT or from its 2D + 1 phases,
      rounds by at most (7 log2(G) + 9D + 2) eps sum |p_m|, and sum |p_m|
      <= sqrt(2D + 1) rms(P).

    So A = sqrt(2D + 1) (rms(e) + (14 log2(G) + 9D + 2) eps rms(P)).  A p_m
    past D, zero in exact arithmetic, above A refuses the certificate.  On
    a cell of half-width w around a point x, P_low >= P_low(x) -
    |P_low'(x)| w - sum_m m^2 |p_m| w^2 / 2.  When that bound fails on a
    grid cell, Newton's method on P', from each such cell that holds a
    local minimum of the samples, looks for a point where P_low is at
    most A: a crossing is a double zero of P, and finding it disproves the
    certificate at once.  Otherwise cells whose bound fails are halved and
    evaluated from the coefficients, with no eigensolve; the certificate
    fails once P_low itself is at most A at a point, once more cells fail
    than the grid has, or once a cell reaches rounding width.  It fails
    closed: a pair within MERGE_TOL, a NaN or an inf in vals, or G <= 2D,
    gives False.  A 1 x 1 block has nothing to collide.
    """
    G, n = vals.shape
    if n == 1:
        return True
    degree = n * (n - 1) * (max(shifts) - min(shifts)) // 2
    if G <= 2 * degree:
        return False
    gaps = _pair_gaps(vals)
    if not (np.isfinite(gaps).all() and gaps.min() > MERGE_TOL):
        return False
    p = np.prod(gaps * gaps, axis=1)
    allowance = _allowance(p, gaps, n, shifts, degree)
    coef = np.fft.fft(p) / G
    freqs = np.rint(np.fft.fftfreq(G) * G)
    low = np.abs(freqs) <= degree
    if not np.abs(coef[~low]).max(initial=0.0) <= allowance:
        return False
    coef[~low] = 0.0
    curvature = float(np.sum(freqs * freqs * np.abs(coef)))
    centers = 2.0 * np.pi * np.arange(G) / G
    values, slopes = (np.fft.ifft([coef, 1j * freqs * coef]) * G).real
    coef, freqs = coef[low], freqs[low]
    derivs = coef * (1j * freqs) ** np.arange(3)[:, None]
    # rows of the (points, 2D + 1) phase matrix evaluated at once: 1 MB
    rows = max(1, 2**16 // freqs.size)

    def evaluate(ks, order):
        """P_low and its first order - 1 derivatives at ks, from the coefficients."""
        out = np.empty((order, ks.size))
        for s in range(0, ks.size, rows):
            phases = np.exp(1j * np.multiply.outer(ks[s : s + rows], freqs))
            out[:, s : s + rows] = (phases @ derivs[:order].T).real.T
        return out

    width, searched = np.pi / G, False
    while True:
        fails = ~(values - np.abs(slopes) * width - curvature * width * width / 2 > allowance)
        if not fails.any():
            return True
        if not (values[fails] > allowance).all() or fails.sum() > G or width < 1e-15:
            return False
        if not searched:
            ks = centers[fails & (p <= np.roll(p, 1)) & (p <= np.roll(p, -1))]
            for _ in range(8):
                _, slope, bend = evaluate(ks, 3)
                ks = ks - np.where(bend > 0, slope / np.where(bend > 0, bend, 1.0), 0.0)
            if not (evaluate(ks, 1)[0] > allowance).all():
                return False
            searched = True
        width /= 2
        centers = np.concatenate([centers[fails] - width, centers[fails] + width])
        values, slopes = evaluate(centers, 2)


def _allowance(p, gaps, n, shifts, degree) -> float:
    """_certify's bound A >= |P - P_low|, from P's samples p and their pair gaps."""
    G = p.size
    eps, c, J = np.finfo(float).eps, _trial_cap(n), len(shifts)
    s = eps * (1 + J + 3.0 * np.pi * max(abs(j) for j in shifts)) * np.sqrt(J * n)
    eta = (1 + c * c) * s + 2.0 * eps * ((1 + c) ** 2 + c)
    err = 4.0 * (eta + eps) * (p[:, None] / gaps).sum(axis=1)
    rounding = (14.0 * np.log2(G) + 9.0 * degree + 2.0) * eps * p
    return float(np.sqrt((2 * degree + 1) / G) * (np.linalg.norm(err) + np.linalg.norm(rounding)))


def _label(vals: np.ndarray, winding: int):
    """Column order (G, n) and seam permutation of a certified block, or None.

    With no collision the eigenphases keep their cyclic order, and their
    lifted sum is arg det U_hat(k) = arg det U_hat(0) + winding k.  Each
    fiber's arguments phi, in (-pi, pi] and sorted, are that order turned
    by R(k) = round((sum phi(0) + winding k - sum phi(k)) / 2pi) places,
    so sheet i takes sorted column (i + R(k)) mod n, and at k = 2pi sheet
    i meets sheet (i + winding) mod n.  None when a residue of that
    rounding reaches 1/4, where rounding could have picked the wrong turn.
    """
    G, n = vals.shape
    phi = np.angle(vals)
    order = np.argsort(phi, axis=1, kind="stable")
    total = phi.sum(axis=1)
    turns = (total[0] + winding * 2.0 * np.pi * np.arange(G) / G - total) / (2.0 * np.pi)
    rot = np.rint(turns)
    if not np.abs(turns - rot).max() < 0.25:
        return None
    cols = np.take_along_axis(order, (np.arange(n) + rot.astype(int)[:, None]) % n, axis=1)
    return cols, (np.arange(n) + winding) % n


def _noise_floor(fourier: np.ndarray, freqs: np.ndarray) -> float:
    """Noise floor of a band's Fourier coefficients: max(COEF_TOL, 20 x the top bins).

    A finite grid aliases the high-frequency part of an analytic band into
    every bin; read off the top bins, that floor cannot poison Band.support.
    """
    length = fourier.size
    cut = length // 2 - max(4, length // 8)
    return max(COEF_TOL, 20.0 * float(np.abs(fourier[np.abs(freqs) >= cut]).max()))


def _finalize_band(degree, samples, fourier, support, multiplicity, sections, grid_size) -> Band:
    # every step moves the band by an arc below pi (_extract_bands refuses
    # coarser grids), so the principal increments are the true ones
    winding = round(float(np.angle(np.roll(samples, -1) / samples).sum()) / (2.0 * np.pi))
    # lambda(k + 2 pi degree / m) = lambda(k) exactly when every supported
    # frequency is a multiple of m
    min_period = int(np.gcd.reduce(np.abs(support))) if support.any() else None
    return Band(
        degree=degree,
        samples=samples,
        fourier=fourier,
        support=support,
        multiplicity=multiplicity,
        winding=winding,
        min_period=min_period,
        grid_size=grid_size,
        _sections=sections,
    )


def _gauge(copies) -> np.ndarray:
    """A band's section copies stacked, each turned so that at ktilde = 0
    its largest component (first of ties) is real positive."""
    secs = copies[0][None] if len(copies) == 1 else np.array(copies)
    for c in range(secs.shape[0]):
        v0 = secs[c, 0]
        comp = int(np.argmax(np.abs(v0) >= np.abs(v0).max() - 1e-12))
        ph = v0[comp]
        if abs(ph) > 1e-12:
            secs[c] *= np.conj(ph) / abs(ph)
    return secs


class _Sections:
    """The sections of one extraction's bands, built on the first read of any.

    parts holds per block its basis (None for the identity) and the
    tracker's sheet sections, or a certified block's function that makes
    them; cycles holds each cycle's sheets and fold, and bands, per band,
    the (cycle, copy, deck roll) of each of its copies.  The first read
    runs the sections half of _assemble_bands for every band at once,
    keeps the result and drops the rest.
    """

    def __init__(self, parts, cycles, bands):
        self._pending = (parts, cycles, bands)
        self._built = None

    def read(self, index: int) -> np.ndarray:
        built = self._built
        if built is None:
            # one load of the inputs, dropped only after the result is stored
            pending = self._pending
            built = self._built if pending is None else self._build(*pending)
            self._built, self._pending = built, None
        # here, not when built: unpickled arrays are writeable
        built[index].setflags(write=False)
        return built[index]

    @staticmethod
    def _build(parts, cycles, bands) -> list:
        tw = []
        for basis, secs in parts:
            secs = secs() if callable(secs) else secs
            tw.append(secs if basis is None else basis @ secs)
        tw = tw[0] if len(tw) == 1 else np.concatenate(tw, axis=2)
        G, n = tw.shape[:2]
        copies = []
        for sheets, fold in cycles:
            d = len(sheets)
            section = np.moveaxis(tw, 2, 0)[sheets].reshape(d * G, n)
            # the one phase rule: turn each sample so that its overlap with
            # the previous one is real and positive; a step with |vdot| <=
            # 1e-12 keeps its phase, and the running product is held to
            # modulus 1
            z = np.einsum("ti,ti->t", section[:-1].conj(), section[1:])
            mag = np.abs(z)
            keep = mag <= 1e-12
            turn = np.cumprod(np.where(keep, 1.0, z.conj() / np.where(keep, 1.0, mag)))
            section[1:] *= (turn / np.abs(turn))[:, None]
            length = d // fold * G
            copies.append([section[c * length : (c + 1) * length] for c in range(fold)])
        return [
            _gauge([
                copies[i][c] if r == 0 else np.roll(copies[i][c], r * G, axis=0)
                for i, c, r in band
            ])
            for band in bands
        ]


def _assemble_bands(tv, parts, sigma, grid_size):
    """Bands of the sheet values tv (G, n) under the seam permutation sigma.

    This is the values half: cycles, support, fold, merge and order.  The
    sections half makes the sheet sections from each block's parts on the
    first read of a band's eigvec_samples (_Sections).
    """
    G, n = tv.shape
    # canonical order: argument at k = 0, or at the first fiber where two
    # sheets tied there separate; arguments run from MERGE_TOL below 1, so
    # that rounding cannot put a value at 1 last
    args = (np.angle(tv) + MERGE_TOL) % (2.0 * np.pi)

    def compare(s, t):
        g = np.argmax(np.abs(tv[:, s] - tv[:, t]) >= MERGE_TOL)
        return np.sign(args[g, s] - args[g, t])

    seen = set()
    cycles = []  # (sheets, fold)
    raw = []  # (degree, samples, fourier, support, [(cycle, copy, deck roll)])
    for s0 in sorted(range(n), key=functools.cmp_to_key(compare)):
        if s0 in seen:
            continue
        cycle = [s0]
        seen.add(s0)
        nxt = int(sigma[s0])
        while nxt != s0:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = int(sigma[nxt])
        samples = np.concatenate([tv[:, s] for s in cycle])
        d = len(cycle)
        fourier = np.fft.fft(samples) / samples.size
        freqs = np.rint(np.fft.fftfreq(samples.size) * samples.size).astype(int)
        support = freqs[np.abs(fourier) > _noise_floor(fourier, freqs)]
        # fold: a cycle whose support lies on multiples of g | d weaves g
        # copies of a band of degree d / g; an empty support folds nothing
        g = int(np.gcd(d, np.gcd.reduce(support))) if support.size else 1
        length = d // g * G
        raw.append([d // g, samples[:length], fourier[::g], support // g,
                    [(len(cycles), c, 0) for c in range(g)]])
        cycles.append((cycle, g))
    # merge bands that coincide pointwise (up to a deck shift of the cover)
    merged = []
    for d, samples, fourier, support, copies in raw:
        placed = False
        for entry in merged:
            if entry[0] != d:
                continue
            for r in range(d):
                rolled = np.roll(samples, r * G)
                if np.max(np.abs(entry[1] - rolled)) < MERGE_TOL:
                    entry[4].extend((i, c, r) for i, c, _ in copies)
                    placed = True
                    break
            if placed:
                break
        if not placed:
            merged.append([d, samples, fourier, support, copies])
    sections = _Sections(parts, cycles, [entry[4] for entry in merged])
    return sorted(
        (
            _finalize_band(d, samples, fourier, support, len(copies),
                           functools.partial(sections.read, index), grid_size)
            for index, (d, samples, fourier, support, copies) in enumerate(merged)
        ),
        key=_band_sort_key,
    )


def _band_sort_key(band: Band):
    length = band.samples.size
    mid = band.samples[length // 2]
    return (
        not band.is_constant,
        band.degree,
        band.multiplicity,
        round(band.samples[0].real, 6),
        round(band.samples[0].imag, 6),
        band.winding,
        round(mid.real, 6),
        round(mid.imag, 6),
    )


def _solve_grid(spec: WalkSpec, ks: np.ndarray):
    """_eig_grid on the base grid ks = 2 pi g / G, solving half of it on a real walk.

    When every coefficient is real (an exact test, no tolerance), U_hat(-k)
    is the conjugate of U_hat(k), and k_{G - m} = 2 pi - k_m, so only the
    fibers 0 ... G / 2 are solved and fiber G - m takes the conjugates of
    fiber m's values, and of its sections when the returned function
    solves them, each array written once at full size.
    """
    if not _is_real(spec):
        return _eig_grid(spec, ks)
    vals, vectors = _eig_grid(spec, ks[: ks.size // 2 + 1])
    return _mirror(vals, ks.size, values=True), functools.partial(_mirrored, vectors, ks.size)


def _mirrored(vectors, size: int):
    """vectors() of the fibers 0 ... size / 2, mirrored onto all size fibers."""
    vals, vecs = vectors()
    return _mirror(vals, size, values=True), _mirror(vecs, size)


def _mirror(solved: np.ndarray, size: int, values: bool = False) -> np.ndarray:
    """The fibers 0 ... size / 2 of solved, and the conjugate of fiber m at size - m."""
    half = size // 2
    full = np.empty((size,) + solved.shape[1:], dtype=complex)
    full[: half + 1] = solved
    np.conj(solved[half - 1 : 0 : -1], out=full[half + 1 :])
    if values:
        # + 0.0 turns the -0.0 that conj gives a real value back into 0.0
        full[half + 1 :] += 0.0
    return full


def _solve_block(block: WalkSpec, ks: np.ndarray):
    """Sheet values (G, n_b), seam permutation and sections of one block.

    The values are solved alone.  A block that certifies is labelled from
    them, and its sections are a function that makes them from the kept
    Cayley matrices when read (_labelled_sections).  Any other block is
    solved by eigh of those matrices and tracked, held to the block's own
    speed bound (memoized, so an unsplit walk's is _extract_bands' value).
    """
    vals, vectors = _solve_grid(block, ks)
    labels = None
    if _certify(vals, tuple(block.terms)):
        labels = _label(vals, det_winding(block))
    if labels is not None:
        cols, seam = labels
        sections = functools.partial(_labelled_sections, vectors, vals, cols)
        return np.take_along_axis(vals, cols, axis=1), seam, sections
    vals, vecs = vectors()
    del vectors  # the Cayley matrices go before tracking
    values, sections, seam = _track(block, ks, vals, vecs, _speed_bound(block))
    return values, seam, sections


def _labelled_sections(vectors, vals: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sections (G, n_b, n_b) of a certified block: the columns cols of
    vectors(), eigh of the Cayley matrices eigvalsh gave vals from."""
    values, vecs = vectors()
    if not np.abs(values - vals).max() <= MERGE_TOL / 2:
        raise RuntimeError(
            "internal error: a certified block's eigh values do not match its eigvalsh values"
        )
    return np.take_along_axis(vecs, cols[:, None, :], axis=2)


def _extract_bands(spec: WalkSpec, grid_size: int) -> list:
    bound = _speed_bound(spec)
    first = _first_grid(bound)
    if grid_size < first:
        raise ValueError(
            "grid %d does not exceed twice the speed bound L = %.3e, so one"
            " step may move a band by half a turn and alias its winding;"
            " first valid grid %d" % (grid_size, bound, first)
        )
    ks = 2.0 * np.pi * np.arange(grid_size) / grid_size
    # an irreducible walk is one block in the identity basis
    tv, sigma, parts = [], [], []
    for block, basis in _invariant_blocks(spec) or [(spec, None)]:
        values, seam, sections = _solve_block(block, ks)
        tv.append(values)
        sigma.append(seam + sum(map(len, sigma)))
        parts.append((basis, sections))
    # a lone block goes on as it is, with no concatenating copy
    tv, sigma = (
        items[0] if len(items) == 1 else np.concatenate(items, axis=axis)
        for items, axis in ((tv, 1), (sigma, 0))
    )
    return _assemble_bands(tv, parts, sigma, grid_size)


def sample_bands(spec: WalkSpec, grid_size: int = 2048) -> BandSet:
    """Extract all analytic eigenvalue bands of the walk symbol.

    Parameters
    ----------
    spec : WalkSpec
    grid_size : int
        Samples per 2pi of the base torus; power of two, at least 64.

    Returns
    -------
    BandSet
        Bands with covering degrees, multiplicities, windings, minimal
        periods and continuously matched orthonormal eigenvector sections,
        built on the first read of one (see the module docstring).
        While a caller holds it, later calls with this spec object and
        grid size return the same BandSet (see the module docstring).

    Raises
    ------
    ValueError
        If grid_size is not a power of two of at least 64, or does not
        exceed twice the speed bound (see the module docstring); the
        message names the first grid size that does.
    UnresolvedCrossing
        If two bands stay indistinguishable at a near-degeneracy after the
        maximum local refinement.  The frames of its traceback below this
        call are cleared, so a kept exception holds no tracking arrays.
    RuntimeError
        If the band windings weighted by multiplicity do not sum to
        det_winding(spec); checked once per extraction, before the memo.
    """
    _validate_grid(grid_size)
    band_set = spec._band_memo.get(grid_size)
    if band_set is not None:
        return band_set
    try:
        bands = _extract_bands(spec, grid_size)
    except UnresolvedCrossing as exc:
        # a caller that keeps the exception keeps its traceback; clear the
        # finished frames in it so they do not keep the (G, n, n) arrays
        import traceback

        traceback.clear_frames(exc.__traceback__)
        raise
    band_set = BandSet(bands=tuple(bands), n=spec.n, grid_size=grid_size)
    w = det_winding(spec)
    sheet_sum = sum(b.multiplicity * b.winding for b in bands)
    if sheet_sum != w:
        raise RuntimeError(
            "internal error: det winding %d != sum of band windings %d"
            % (w, sheet_sum)
        )
    spec._band_memo[grid_size] = band_set
    return band_set


def monodromy(spec: WalkSpec, grid_size: int = 2048) -> tuple:
    """Cycle type of the sheet permutation at k: 0 -> 2pi, ascending.

    Cycle lengths are the covering degrees; a band of multiplicity mu
    contributes mu cycles of its degree.
    """
    bs = sample_bands(spec, grid_size)
    lengths = []
    for band in bs.bands:
        lengths.extend([band.degree] * band.multiplicity)
    return tuple(sorted(lengths))


def det_winding(spec: WalkSpec) -> int:
    """Winding number of k -> det U_hat(k) on the base torus.

    d/dk log det U_hat(k) = tr(U_hat(k)^* dU_hat/dk), and the terms
    e^{i(j-l)k} with j != l average to zero over the torus, so its mean is
    i sum_j j ||A_j||_F^2: the winding is sum_j j ||A_j||_F^2, read off the
    coefficients with no grid and no bands.  This is the index of Gross,
    Nesme, Vogts and Werner (CMP 2012) of a translation-invariant walk.
    sample_bands checks every band set it extracts against it.
    """
    return round(sum(j * float(np.vdot(a, a).real) for j, a in spec.terms.items()))


def write_band_csv(band_set: BandSet, fileobj) -> None:
    """Dump k, Re lambda, Im lambda per sheet as CSV (base-torus rows)."""
    G = band_set.grid_size
    ks = 2.0 * np.pi * np.arange(G) / G
    headers = ["k"]
    columns = []
    for bi, band in enumerate(band_set.bands):
        for c in range(band.multiplicity):
            for s in range(band.degree):
                headers.append("band%d_copy%d_sheet%d_re" % (bi, c, s))
                headers.append("band%d_copy%d_sheet%d_im" % (bi, c, s))
                columns.append(band.samples[s * G : (s + 1) * G])
    parts = [ks, *(part for col in columns for part in (col.real, col.imag))]
    _write_table(fileobj, ",".join(headers), ",".join(["%.17g"] * len(parts)), parts)
