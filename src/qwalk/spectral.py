"""Band structure of the walk symbol on the torus.

Eigenvalues of U_hat(k) are tracked around k in [0, 2pi) into continuous
sheets.  The permutation the sheets undergo at the seam k = 2pi groups them
into cycles; each cycle is one analytic band living on the covering torus
T_{2pi d}, d the cycle length.  Cycles whose concatenated values are
2pi d'-periodic for a divisor d' < d are folded (they weave numerically
identical copies), and bands that coincide pointwise are merged into one
band with a multiplicity.

The symbol grid is solved by one batched eigh of the Cayley transform of
U_hat(k), which gives orthonormal frames, degenerate clusters included.
Sheet labels follow the solver's column order, so each cycle starts at a
canonical sheet: least argument in [0, 2pi) at k = 0, ties within
MERGE_TOL ordered where the sheets separate.  Band samples, order and
values at k = 0 then depend on the walk alone.

Tracking starts at the grid point with the best-separated spectrum and
sweeps both ways.  Each branch moves at most hL over a grid step h, where
L, the speed bound, is commutator_norm plus its sampling error: by
Hellmann-Feynman |dlambda/dk| = |<v, dU_hat/dk v>| <= ||dU_hat/dk||.  So
when the smallest pairwise distance on one end fiber of a step exceeds
2hL, the hL-discs around its values are disjoint, and the nearest value
across the step is the branch's continuation: the step is proven.  Proven
steps between fibers without a pair within MERGE_TOL are matched by that
history-free nearest choice, composed by a prefix scan and phase-aligned
in one batch.  Every other step, and a proven one where a section's
overlap with its predecessor vanishes, takes the scalar step: the same
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
not proven, so a walk whose avoided crossing is narrower than the grid
can still be answered wrongly there.

sample_bands memoizes its result on the spec object, per grid size, for
as long as some caller holds the BandSet: decompose and is_ct_realizable
on one spec and grid then share a single extraction.  The memo holds the
BandSet weakly, never serves another spec object, even an equal one, and
never stores a failure, so a refused walk is tracked (and refused) again
on every call.
"""

from __future__ import annotations

import functools
import traceback
from dataclasses import dataclass

import numpy as np

from .walkspec import WalkSpec, _speed_bound, symbol_on_grid

__all__ = [
    "Band",
    "BandSet",
    "UnresolvedCrossing",
    "NonIntegerWinding",
    "sample_bands",
    "monodromy",
    "det_winding",
    "write_band_csv",
]

MERGE_TOL = 1e-9       # values closer than this are numerically one point
CONST_TOL = 1e-9       # constant-band detection threshold
COEF_TOL = 1e-9        # Fourier support floor for period detection
WINDING_TOL = 1e-6     # |raw winding - integer| must stay below this
AMBIG_FACTOR = 0.2     # prediction residual vs gap ratio that triggers refinement
MAX_HALVINGS = 4


class UnresolvedCrossing(RuntimeError):
    """Two bands could not be disambiguated at a near-degeneracy.

    min_gap is the smallest distance above MERGE_TOL between two
    eigenvalues on the fibers at k_lo and k_hi, and bound the speed bound L
    the step was held to.  next_grid is the smallest valid grid size (a
    power of two, at least 64) whose step 2pi/G is proven at that gap,
    4 pi L / G < min_gap; it is None unless a positive gap and a bound are
    given.
    """

    def __init__(self, k_lo: float, k_hi: float, min_gap: float | None = None,
                 bound: float | None = None):
        self.k_lo = float(k_lo)
        self.k_hi = float(k_hi)
        self.min_gap = None if min_gap is None else float(min_gap)
        self.bound = None if bound is None else float(bound)
        self.next_grid = None
        message = "band assignment ambiguous on k in [%.9f, %.9f] after %d refinements" % (
            k_lo, k_hi, MAX_HALVINGS
        )
        if self.min_gap is not None and self.min_gap > 0 and self.bound is not None:
            self.next_grid = 64
            while 4.0 * np.pi * self.bound / self.next_grid >= self.min_gap:
                self.next_grid *= 2
            message += (
                "; smallest gap on its end fibers %.3e, speed bound %.3e,"
                " first grid that proves such a step %d"
                % (self.min_gap, self.bound, self.next_grid)
            )
        super().__init__(message)

    def __reduce__(self):
        return (UnresolvedCrossing, (self.k_lo, self.k_hi, self.min_gap, self.bound))


class NonIntegerWinding(RuntimeError):
    """Argument unwrapping did not close to an integer number of turns."""


@dataclass(frozen=True)
class Band:
    """One analytic eigenvalue branch on its covering torus T_{2pi degree}.

    samples holds lambda on the uniform covering grid (length
    degree * grid_size); eigvec_samples holds one orthonormal section per
    coincident copy, shape (multiplicity, len(samples), n).  fourier are
    the coefficients of lambda in the basis e^{i ell k / degree}, numpy FFT
    ordering.
    """

    degree: int
    samples: np.ndarray
    eigvec_samples: np.ndarray
    fourier: np.ndarray
    multiplicity: int
    winding: int
    min_period: int | None
    is_constant: bool
    grid_size: int

    def __post_init__(self):
        for name in ("samples", "eigvec_samples", "fourier"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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

    def derivative_at(self, ktilde) -> np.ndarray:
        """d lambda / d ktilde from the Fourier series (spectral accuracy)."""
        ktilde = np.asarray(ktilde, dtype=float)
        freqs = self.fourier_freqs
        phases = np.exp(1j * np.multiply.outer(ktilde, freqs) / self.degree)
        return phases @ (1j * freqs / self.degree * self.fourier)


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


def _eig_grid(spec: WalkSpec, ks: np.ndarray):
    """Eigenvalues (G, n) and orthonormal eigenvector columns (G, n, n) of U_hat(k).

    With z = e^{-i phi}, H = i (I + z U)(I - z U)^{-1} is Hermitian with
    U's eigenvectors and eigenvalues mu = -cot((theta - phi) / 2), so
    lambda = e^{i phi} (mu - i) / (mu + i).  A fiber keeps the first of
    n + 1 equally spaced phases with max|mu| <= cot(pi / (4 (n + 1))): the
    empty one of the n + 1 arcs around them is pi / (n + 1) from every
    eigenvalue, twice what the bound asks.  A phase where I - z U is exactly
    singular is skipped for that fiber.  H is not symmetrized: near a pole
    its large non-Hermitian rounding must reach the bound.
    """
    mats = symbol_on_grid(spec, ks)
    n = spec.n
    eye = np.eye(n)
    vals = np.empty(mats.shape[:2], dtype=complex)
    vecs = np.empty_like(mats)
    todo = np.arange(ks.size)
    for r in range(n + 1):
        phi = 2.0 * np.pi * r / (n + 1)
        zu = np.exp(-1j * phi) * mats[todo]
        a = eye - zu
        singular = np.linalg.det(a) == 0
        a[singular] = eye
        mu, v = np.linalg.eigh(1j * np.linalg.solve(a, eye + zu))
        ok = ~singular & (np.abs(mu).max(axis=1) <= 1.0 / np.tan(np.pi / (4 * n + 4)))
        vals[todo[ok]] = np.exp(1j * phi) * (mu[ok] - 1j) / (mu[ok] + 1j)
        vecs[todo[ok]] = v[ok]
        todo = todo[~ok]
    return vals, vecs


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
    """Phase-fix sections, rotating degenerate clusters as a block."""
    z = np.einsum("is,is->s", prev.conj(), cur)
    mag = np.abs(z)
    # a section with |vdot| <= 1e-12 keeps its phase
    keep = mag <= 1e-12
    cur = cur * np.where(keep, 1.0, z.conj() / np.where(keep, 1.0, mag))
    if (_pair_gaps(vals) < MERGE_TOL).any():
        for idx in _clusters(vals, MERGE_TOL):
            if len(idx) > 1:
                cur[:, idx] = _rotate_onto(cur[:, idx], prev[:, idx])
    return cur


def _rotate_onto(b, a):
    """b times the unitary that brings it closest to a (orthogonal Procrustes)."""
    u, _, vh = np.linalg.svd(b.conj().T @ a)
    return b @ (u @ vh)


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
        vals = np.append(_eig_grid(spec, sub[1:-1] % (2.0 * np.pi))[0], [end_vals], axis=0)
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


def _sweep(spec, ks, vals, vecs, tv, tw, gap, bound):
    """Track positions 1.. of one sweep; position 0 is the start fiber.

    Every argument is a view in sweep order, tv[0] and tw[0] already set,
    and gap[t] is the smallest distance between two values of fiber t.  A
    step is proven when either end's gap exceeds 2 h bound and neither end
    holds a pair within MERGE_TOL (module docstring); runs of proven steps
    are matched by nearest value, composed by _compose_prefix and
    phase-aligned by one batched vdot and a cumulative product.  Every
    other step takes the scalar step with the real tracked history, in
    order.
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
    t = 1
    while t < L:
        f = t + int(np.argmax(np.append(~proven[t:], True)))
        if f > t:
            perms = _compose_prefix(q[t - 1 : f - 1])[:, perm]
            tv[t:f] = np.take_along_axis(vals[t:f], perms, axis=1)
            tw[t:f] = np.take_along_axis(vecs[t:f], perms[:, None, :], axis=2)
            z = np.einsum("tis,tis->ts", tw[t - 1 : f - 1].conj(), tw[t:f])
            mag = np.abs(z)
            # _align_frame leaves a section with |vdot| <= 1e-12 as it is;
            # the margin keeps rounding from deciding that, and the scalar
            # step takes that fiber
            weak = np.flatnonzero((mag <= 2e-12).any(axis=1))
            if weak.size:
                f = t + int(weak[0])
            phase = np.cumprod(z[: f - t].conj() / mag[: f - t], axis=0)
            # rounding drifts the product's modulus, and the section
            # norms would drift with it
            tw[t:f] *= (phase / np.abs(phase))[:, None, :]
            if f > t:
                perm = perms[f - t - 1]
            t = f
        if t < L:
            perm = _scalar_step(spec, ks, vals, vecs, tv, tw, t, bound)
            t += 1


def _track(spec: WalkSpec, ks: np.ndarray, vals: np.ndarray, vecs: np.ndarray,
           bound: float):
    """Tracked values (G, n), sections (G, n, n) and the seam permutation.

    The forward sweep runs one step past the last fiber, onto fiber 0 again
    at k = 2pi; sigma[s] is the backward sheet whose section at k = 0
    overlaps forward sheet s's section there the most.
    """
    G, n = vals.shape
    gap = _pair_gaps(vals).min(axis=1, initial=np.inf)
    ks, vals, vecs, gap = (
        np.concatenate([a, a[:1]]) for a in (ks, vals, vecs, gap)
    )
    ks[G] = 2.0 * np.pi
    tv = np.empty_like(vals)
    tw = np.empty_like(vecs)
    g0 = _best_start(vals[:G])
    tv[g0] = vals[g0]
    tw[g0] = vecs[g0]
    _sweep(spec, ks[g0:], vals[g0:], vecs[g0:], tv[g0:], tw[g0:], gap[g0:], bound)
    _sweep(
        spec, ks[g0::-1], vals[g0::-1], vecs[g0::-1], tv[g0::-1], tw[g0::-1],
        gap[g0::-1], bound,
    )
    # the start frame of a degenerate cluster is an arbitrary basis; rotate
    # it toward its neighbour so the section is continuous there too
    for idx in _clusters(tv[g0], MERGE_TOL):
        if len(idx) > 1 and G > 1:
            nb = g0 + 1 if g0 + 1 < G else g0 - 1
            tw[g0][:, idx] = _rotate_onto(tw[g0][:, idx], tw[nb][:, idx])
    sigma = np.abs(tw[G].conj().T @ tw[0]).argmax(axis=1)
    if np.unique(sigma).size < n:
        raise UnresolvedCrossing(ks[G - 1], ks[G], _min_gap(vals[G - 1], vals[G]), bound)
    return tv[:G], tw[:G], sigma


def _divisors(d: int):
    return [k for k in range(1, d + 1) if d % k == 0]


def _upsample2(samples: np.ndarray) -> np.ndarray:
    """Trigonometric interpolant of periodic samples on a grid twice as fine.

    The spectrum is zero-padded, which is exact for a trigonometric
    polynomial of degree below half the sample count; the unpaired Nyquist
    bin of an even count is split evenly between +m/2 and -m/2.  Entry 2i
    is samples[i], entry 2i + 1 the value midway to the next sample.
    """
    m = samples.size
    coef = np.fft.fft(samples)
    padded = np.zeros(2 * m, dtype=complex)
    half = m // 2 + 1
    padded[:half] = coef[:half]
    padded[m + half :] = coef[half:]
    if m % 2 == 0:
        padded[m // 2] /= 2
        padded[2 * m - m // 2] = padded[m // 2]
    return 2.0 * np.fft.ifft(padded)


def _winding_from_samples(samples: np.ndarray, retry: bool = True) -> int:
    inc = np.angle(np.roll(samples, -1) / samples)
    total = float(inc.sum() / (2.0 * np.pi))
    w = round(total)
    if abs(total - w) <= WINDING_TOL:
        return int(w)
    if retry:
        # one spectral upsampling pass before giving up; the samples define
        # a trigonometric polynomial, so resampling is faithful
        return _winding_from_samples(_upsample2(samples), retry=False)
    raise NonIntegerWinding(
        "argument sum %.3e turns is not an integer within %.0e" % (total, WINDING_TOL)
    )


def _finalize_band(samples, sections, degree, grid_size) -> Band:
    length = samples.size
    fourier = np.fft.fft(samples) / length
    is_constant = bool(np.max(np.abs(samples - samples[0])) < CONST_TOL)
    winding = 0 if is_constant else _winding_from_samples(samples)
    min_period = None
    if not is_constant:
        freqs = np.rint(np.fft.fftfreq(length) * length).astype(int)
        mags = np.abs(fourier)
        # a finite grid aliases the high-frequency part of an analytic band
        # into every bin; read that floor off the top bins so leakage there
        # cannot poison the support gcd or the periodicity check
        cut = length // 2 - max(4, length // 8)
        alias_floor = float(mags[np.abs(freqs) >= cut].max())
        thresh = max(COEF_TOL, 20.0 * alias_floor)
        support = freqs[(mags > thresh) & (freqs != 0)]
        m = int(np.gcd.reduce(np.abs(support))) if support.size else 1
        tol = max(1e-8, 100.0 * alias_floor)
        for cand in sorted(_divisors(m), reverse=True):
            shifted = (np.exp(2j * np.pi * freqs / cand) * fourier * length)
            shifted = np.fft.ifft(shifted)
            if np.max(np.abs(shifted - samples)) <= tol:
                min_period = cand
                break
        if min_period is None:
            min_period = 1
    secs = np.array(sections)
    # gauge: at ktilde = 0, the largest component (first of ties) real positive
    for c in range(secs.shape[0]):
        v0 = secs[c, 0]
        comp = int(np.argmax(np.abs(v0) >= np.abs(v0).max() - 1e-12))
        ph = v0[comp]
        if abs(ph) > 1e-12:
            secs[c] *= np.conj(ph) / abs(ph)
    return Band(
        degree=degree,
        samples=samples,
        eigvec_samples=secs,
        fourier=fourier,
        multiplicity=secs.shape[0],
        winding=winding,
        min_period=min_period,
        is_constant=is_constant,
        grid_size=grid_size,
    )


def _assemble_bands(tv, tw, sigma, grid_size):
    G, n = tv.shape
    # canonical order: argument at k = 0, or at the first fiber where two
    # sheets tied there separate; arguments run from MERGE_TOL below 1, so
    # that rounding cannot put a value at 1 last
    args = (np.angle(tv) + MERGE_TOL) % (2.0 * np.pi)

    def compare(s, t):
        g = np.argmax(np.abs(tv[:, s] - tv[:, t]) >= MERGE_TOL)
        return np.sign(args[g, s] - args[g, t])

    seen = set()
    raw = []  # (degree, samples, [section copies])
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
        secs = [tw[:, :, s].copy() for s in cycle]
        # phase-align each sheet's section to the end of the previous one
        for i in range(1, len(secs)):
            z = np.vdot(secs[i - 1][-1], secs[i][0])
            if abs(z) > 1e-6:
                secs[i] *= np.conj(z) / abs(z)
        section = np.concatenate(secs, axis=0)
        d = len(cycle)
        # fold: a cycle weaving identical copies is 2pi d'-periodic
        for dp in _divisors(d):
            if dp == d or np.max(
                np.abs(samples - np.roll(samples, dp * G))
            ) < MERGE_TOL:
                copies = [
                    section[c * dp * G : (c + 1) * dp * G] for c in range(d // dp)
                ]
                raw.append([dp, samples[: dp * G], copies])
                break
    # merge bands that coincide pointwise (up to a deck shift of the cover)
    merged = []
    for d, samples, copies in raw:
        placed = False
        for entry in merged:
            if entry[0] != d:
                continue
            for r in range(d):
                rolled = np.roll(samples, r * G)
                if np.max(np.abs(entry[1] - rolled)) < MERGE_TOL:
                    entry[2].extend(np.roll(c, r * G, axis=0) for c in copies)
                    placed = True
                    break
            if placed:
                break
        if not placed:
            merged.append([d, samples, list(copies)])
    bands = [
        _finalize_band(samples, copies, d, grid_size) for d, samples, copies in merged
    ]
    return sorted(bands, key=_band_sort_key)


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


def _extract_bands(spec: WalkSpec, grid_size: int) -> list:
    ks = 2.0 * np.pi * np.arange(grid_size) / grid_size
    vals, vecs = _eig_grid(spec, ks)
    tv, tw, sigma = _track(spec, ks, vals, vecs, _speed_bound(spec))
    return _assemble_bands(tv, tw, sigma, grid_size)


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
        periods and continuously matched orthonormal eigenvector sections.
        While a caller holds it, later calls with this spec object and
        grid size return the same BandSet (see the module docstring).

    Raises
    ------
    UnresolvedCrossing
        If two bands stay indistinguishable at a near-degeneracy after the
        maximum local refinement.  The frames of its traceback below this
        call are cleared, so a kept exception holds no tracking arrays.
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
        traceback.clear_frames(exc.__traceback__)
        raise
    band_set = BandSet(bands=tuple(bands), n=spec.n, grid_size=grid_size)
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


def det_winding(spec: WalkSpec, grid_size: int = 2048) -> int:
    """Winding number of k -> det U_hat(k) on the base torus.

    Cross-checked against the sum of band windings weighted by
    multiplicity, which it must equal exactly.  The bands come from
    sample_bands, so a caller holding this spec's BandSet shares it.
    """
    band_set = sample_bands(spec, grid_size)
    ks = 2.0 * np.pi * np.arange(grid_size) / grid_size
    dets = np.linalg.det(symbol_on_grid(spec, ks))
    try:
        w = _winding_from_samples(dets)
    except NonIntegerWinding:
        ks2 = 2.0 * np.pi * np.arange(2 * grid_size) / (2 * grid_size)
        w = _winding_from_samples(np.linalg.det(symbol_on_grid(spec, ks2)))
    sheet_sum = sum(b.multiplicity * b.winding for b in band_set.bands)
    if sheet_sum != w:
        raise RuntimeError(
            "internal error: det winding %d != sum of band windings %d"
            % (w, sheet_sum)
        )
    return w


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
    fileobj.write(",".join(headers) + "\n")
    for g in range(G):
        row = ["%.17g" % ks[g]]
        for col in columns:
            row.append("%.17g" % col[g].real)
            row.append("%.17g" % col[g].imag)
        fileobj.write(",".join(row) + "\n")
