"""Homogeneous 1-D quantum walk specifications.

A walk is a banded unitary U = sum_j S^j (x) A_j on l2(Z) (x) C^n, where S
is the right shift and the A_j are complex n x n coefficient matrices with
finite support.  Unitarity of U is equivalent to the coefficient identities

    sum_j A_{j+m} A_j^*  =  delta_{m,0} I   for every integer m,

which are checked entrywise on construction.  Only the differences m of
two supported shifts can give a nonzero sum, so the check forms the
|terms|^2 products A_j A_l^* once and adds them up by j - l, at a cost
independent of the span of the shifts.  The Fourier symbol is the
matrix trigonometric polynomial U_hat(k) = sum_j e^{ijk} A_j, unitary for
every quasi-momentum k; everything downstream (bands, windings,
decomposition, dynamics) works through this symbol.

The position observable is always D: delta_x -> x delta_x tensored with the
identity on the coin space.  This module also holds the memory cap
(QWALK_MEM_CAP_MB) and the table writer under every write_*_csv.
"""

from __future__ import annotations

import json
import math
import os
import weakref
from dataclasses import InitVar, dataclass, field

import numpy as np

__all__ = [
    "WalkSpec",
    "WalkSpecError",
    "UnitarityError",
    "MemoryCapExceeded",
    "parse_walk_spec",
    "serialize_walk_spec",
    "spec_digest",
    "symbol_at",
    "symbol_on_grid",
    "derivative_symbol_on_grid",
    "commutator_norm",
    "direct_sum",
    "amplify",
]

# entrywise tolerance for the coefficient unitarity identities
UNITARITY_TOL = 1e-12
# grid points on which commutator_norm samples the top singular value
NORM_GRID = 2048
# singular values of X -> (A_j X - X A_j)_j at or below this span the
# constant commutant
COMMUTANT_TOL = 1e-9
# eigenvalues of the commutant element within this (chained) share a block
BLOCK_TOL = 1e-6
# largest entry of A_j V_b - V_b (V_b^* A_j V_b) for which a block is invariant
COUPLING_TOL = 1e-12
MEM_CAP_ENV = "QWALK_MEM_CAP_MB"
DEFAULT_MEM_CAP_MB = 2048


class WalkSpecError(ValueError):
    """Malformed or invalid walk specification."""


class UnitarityError(WalkSpecError):
    """Coefficient unitarity identities violated.

    Carries the worst offending identity index m and its residual norm.
    """

    def __init__(self, m: int, residual: float):
        self.m = m
        self.residual = residual
        super().__init__(
            "coefficient unitarity violated: identity m=%d has entrywise "
            "residual %.3e (tolerance %.1e)" % (m, residual, UNITARITY_TOL)
        )


class MemoryCapExceeded(ValueError):
    """A request whose projected peak passes the memory cap, QWALK_MEM_CAP_MB: refused input."""


def _mem_cap_bytes() -> int:
    """The cap in bytes: QWALK_MEM_CAP_MB, else the default.

    The cap must be a positive whole number of MB; anything else raises a
    ValueError naming QWALK_MEM_CAP_MB and the bad value.
    """
    raw = os.environ.get(MEM_CAP_ENV, str(DEFAULT_MEM_CAP_MB))
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError("%s must be a positive integer number of MB, got %r" % (MEM_CAP_ENV, raw))
    return cap * 1024 * 1024


def _check_memory(need: int, what: str) -> None:
    """Refuse what, whose projected peak is need bytes, when it passes the cap."""
    cap = _mem_cap_bytes()
    if need > cap:
        msg = "%s needs about %d MB, cap is %d MB"
        raise MemoryCapExceeded(msg % (what, need // 2**20 + 1, cap // 2**20))


def _write_table(fileobj, header: str, fmt: str, columns) -> None:
    """The header line, then fmt of each row of the stacked float columns, in one % expression.

    Integer columns are exact as floats below 2**53, and %d prints them alike."""
    table = np.column_stack(columns)
    fileobj.write(header + "\n" + (fmt + "\n") * len(table) % tuple(table.ravel().tolist()))


@dataclass(frozen=True, eq=False)
class WalkSpec:
    """A validated homogeneous walk U = sum_j S^j (x) A_j.

    Parameters
    ----------
    n : int
        Coin space dimension.
    terms : dict[int, numpy.ndarray]
        Map shift exponent j -> coefficient matrix A_j.  Exactly-zero
        matrices are dropped; at least one term must survive.

    Instances are immutable (arrays are marked read-only) and safe to share
    across threads; every operation on them is pure.  A spec also carries a
    memo of results derived from it: the BandSet of each grid size that
    some caller still holds (weakly referenced, so the memo keeps nothing
    alive), the commutator norm and the split into invariant blocks.
    Concurrent callers may compute the same result twice, but a result is
    stored only once complete, so none sees a partial one.  Copies and
    unpickled specs start with an empty memo.  Two specs are equal when
    they have the same n, the same shifts and equal coefficient matrices;
    the memo takes no part in equality.
    """

    n: int
    terms: dict
    bandwidth: int = field(init=False)
    _band_memo: weakref.WeakValueDictionary = field(
        init=False, repr=False, default_factory=weakref.WeakValueDictionary
    )
    _commutator_norm: float | None = field(init=False, repr=False, default=None)
    _blocks: tuple | None = field(init=False, repr=False, default=None)
    # True only for the exact image of a validated walk (dynamics.adjoint_walk),
    # which satisfies the unitarity identities without a second check
    _valid: InitVar[bool] = False

    def __post_init__(self, _valid):
        if not _is_int(self.n) or self.n < 1:
            raise WalkSpecError("coin dimension n must be a positive integer")
        cleaned = {}
        for j, mat in self.terms.items():
            if not (_is_int(j) or isinstance(j, np.integer)):
                raise WalkSpecError("shift exponents must be integers, got %r" % (j,))
            arr = np.asarray(mat, dtype=np.complex128)
            if arr.shape != (self.n, self.n):
                raise WalkSpecError(
                    "coefficient matrix for shift %d has shape %s, expected (%d, %d)"
                    % (j, arr.shape, self.n, self.n)
                )
            if not np.all(np.isfinite(arr)):
                # NaN would pass every tolerance comparison of the unitarity check
                raise WalkSpecError("coefficient matrix for shift %d has a non-finite entry" % j)
            if np.any(arr != 0):
                arr = arr.copy()
                arr.setflags(write=False)
                cleaned[int(j)] = arr
        if not cleaned:
            raise WalkSpecError("walk has no nonzero coefficient matrix")
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "bandwidth", max(abs(j) for j in cleaned))
        if not _valid:
            _check_unitarity(self)

    def __eq__(self, other):
        if not isinstance(other, WalkSpec):
            return NotImplemented
        return (
            self.n == other.n
            and self.terms.keys() == other.terms.keys()
            and all(np.array_equal(a, other.terms[j]) for j, a in self.terms.items())
        )

    def __hash__(self):
        # equal specs share n and shifts; coefficients only refine equality
        return hash((self.n, tuple(self.shifts())))

    def __reduce__(self):
        # the weak memo cannot be pickled; a copy gets a fresh one
        return (WalkSpec, (self.n, self.terms))

    def shifts(self) -> list:
        """Supported shift exponents, ascending."""
        return sorted(self.terms)


def _is_int(value) -> bool:
    """True for a Python int that is not a bool (JSON true loads as one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _complex_cell(cell) -> complex | None:
    """A JSON [re, im] pair of finite numbers as a complex; None otherwise.

    Booleans are not numbers here, and NaN, infinities and integers too
    large for a double are refused.
    """
    if not isinstance(cell, list) or len(cell) != 2:
        return None
    if not all(_is_int(v) or isinstance(v, float) for v in cell):
        return None
    try:
        z = complex(cell[0], cell[1])
    except OverflowError:
        return None
    return z if math.isfinite(z.real) and math.isfinite(z.imag) else None


def _check_unitarity(spec: WalkSpec) -> None:
    # sum_j A_{j+m} A_j^* must vanish for m != 0 and give I for m = 0
    ms, sums = _pair_sums(spec, 1)
    sums[ms == 0] -= np.eye(spec.n)
    res = np.abs(sums).max(axis=(1, 2))
    worst = int(np.argmax(res))
    if res[worst] > UNITARITY_TOL:
        raise UnitarityError(int(ms[worst]), float(res[worst]))


def _pair_sums(spec: WalkSpec, weights) -> tuple:
    """The shift differences m that occur and C_m = sum_{j - l = m} (w_j A_j)(w_l A_l)^*.

    weights is 1 or an array over spec.shifts().  Returns the ascending
    differences and the sums, shape (len(ms), n, n): |terms|^2 products
    however wide the span.
    """
    js = np.array(spec.shifts())
    w = np.reshape(weights, (-1, 1, 1)) * np.stack([spec.terms[j] for j in js])
    ms, slot = np.unique(np.subtract.outer(js, js).ravel(), return_inverse=True)
    sums = np.zeros((ms.size, spec.n, spec.n), dtype=complex)
    pairs = np.einsum("jab,lcb->jlac", w, w.conj()).reshape(-1, spec.n, spec.n)
    np.add.at(sums, slot, pairs)
    return ms, sums


def parse_walk_spec(text: str) -> WalkSpec:
    """Parse a walk-spec JSON document into a validated WalkSpec.

    The wire format is ``{"n": int, "terms": [{"shift": int, "matrix":
    [[[re, im], ...], ...]}, ...]}`` with row-major matrices and complex
    entries as [re, im] pairs.  Duplicate shifts are rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WalkSpecError("walk spec is not valid JSON: %s" % exc) from exc
    if not isinstance(doc, dict) or "n" not in doc or "terms" not in doc:
        raise WalkSpecError('walk spec must be an object with "n" and "terms"')
    n = doc["n"]
    if not _is_int(n) or n < 1:
        raise WalkSpecError('"n" must be a positive integer')
    if not isinstance(doc["terms"], list) or not doc["terms"]:
        raise WalkSpecError('"terms" must be a non-empty list')
    terms = {}
    for entry in doc["terms"]:
        if not isinstance(entry, dict) or "shift" not in entry or "matrix" not in entry:
            raise WalkSpecError('each term needs "shift" and "matrix"')
        j = entry["shift"]
        if not _is_int(j):
            raise WalkSpecError("shift must be an integer, got %r" % (j,))
        if j in terms:
            raise WalkSpecError("duplicate shift %d" % j)
        terms[j] = _parse_matrix(entry["matrix"], n, j)
    return WalkSpec(n=n, terms=terms)


def _parse_matrix(rows, n: int, j: int) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != n:
        raise WalkSpecError("matrix for shift %d must have %d rows" % (j, n))
    out = np.zeros((n, n), dtype=np.complex128)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise WalkSpecError("matrix for shift %d is not %d x %d" % (j, n, n))
        for c, cell in enumerate(row):
            z = _complex_cell(cell)
            if z is None:
                raise WalkSpecError(
                    "entry (%d, %d) of shift %d must be [re, im] of finite numbers"
                    % (r, c, j)
                )
            out[r, c] = z
    return out


def serialize_walk_spec(spec: WalkSpec) -> str:
    """Serialize to the JSON wire format; round-trips bit-exactly."""
    terms = []
    for j in spec.shifts():
        mat = spec.terms[j]
        rows = [[[z.real, z.imag] for z in row] for row in mat]
        terms.append({"shift": j, "matrix": rows})
    return json.dumps({"n": spec.n, "terms": terms})


def spec_digest(spec: WalkSpec) -> str:
    """Stable content digest of a spec, used in reports."""
    import hashlib

    return "sha256:" + hashlib.sha256(serialize_walk_spec(spec).encode()).hexdigest()


def symbol_at(spec: WalkSpec, k: float) -> np.ndarray:
    """The symbol U_hat(k) at one quasi-momentum k, shape (n, n).

    Unitary for every k because the coefficient identities hold.
    """
    acc = np.zeros((spec.n, spec.n), dtype=np.complex128)
    for j, aj in spec.terms.items():
        acc += np.exp(1j * j * k) * aj
    return acc


def symbol_on_grid(spec: WalkSpec, ks: np.ndarray) -> np.ndarray:
    """Symbol values on a grid of momenta, shape (len(ks), n, n)."""
    return _weighted_symbol(spec, ks, 0)


def derivative_symbol_on_grid(spec: WalkSpec, ks: np.ndarray) -> np.ndarray:
    """Values of sum_j j e^{ijk} A_j, the symbol of the commutator [D, U].

    Equals -i d/dk U_hat(k); its largest singular value over the torus
    bounds every group velocity.
    """
    return _weighted_symbol(spec, ks, 1)


def _weighted_symbol(spec: WalkSpec, ks: np.ndarray, p: int) -> np.ndarray:
    """Values of sum_j j^p e^{ijk} A_j on a grid of momenta, shape (len(ks), n, n).

    p = 0 is the symbol itself and p = 1 the symbol of [D, U].  One
    (len(ks), |terms|) phase matrix times the stacked coefficients, so no
    per-term (len(ks), n, n) temporary is built.
    """
    ks = np.asarray(ks, dtype=float)
    js = np.array(list(spec.terms))
    coef = np.stack(list(spec.terms.values())).reshape(js.size, -1)
    phases = js**p * np.exp(1j * np.multiply.outer(ks, js))
    return (phases @ coef).reshape(ks.size, spec.n, spec.n)


def commutator_norm(spec: WalkSpec) -> float:
    """Operator norm of [D (x) id, U], or an upper bound on it (below).

    [D, S^j] = j S^j, so the commutator is the banded operator with symbol
    W(k) = sum_j j e^{ijk} A_j and its norm is the maximum largest singular
    value sigma(k) of W over the torus.  First the Gram symbol W(k) W(k)^* =
    sum_m e^{imk} B_m is formed from its Fourier coefficients B_m = sum_j
    j (j - m) A_j A_{j-m}^*, taken over the shift differences m that occur:
    |terms|^2 products whatever the span.  When sum_{m != 0} ||B_m||_F is
    within _rounding_allowance of those products, the Gram symbol is
    constant (every shift-coin walk diag(S^{a_i}) C, whose W(k) W(k)^* =
    diag(a_i^2)), and by Weyl's inequality sigma(k)^2 is within that
    allowance of the top eigenvalue of B_0 at every k: its square root is
    the norm, and no grid is built.

    Otherwise the result is the maximum of sigma on the M = NORM_GRID-point
    grid over sqrt(1 - pi^2 D^2 / (2 M^2)), D the largest |m| with B_m != 0
    (at most max shift - min shift).  Proof: let S = sigma(k*)^2 be the
    supremum and v a unit top left singular vector of W(k*).  q(k) =
    v^* W(k) W(k)^* v is a real trigonometric polynomial of degree <= D,
    0 <= q <= sigma^2 <= S = q(k*), so q'(k*) = 0 and, by Bernstein's
    inequality twice, |q''| <= D^2 S; at the grid point within pi / M of
    k*, sigma^2 >= q >= S (1 - pi^2 D^2 / (2 M^2)).  When pi D >= M the
    triangle bound sum_j |j| ||A_j||_2 is returned, with no grid.  The
    result is computed once per spec object and memoized on it.
    """
    if spec._commutator_norm is None:
        object.__setattr__(spec, "_commutator_norm", _max_derivative_sigma(spec))
    return spec._commutator_norm


def _rounding_allowance(spec: WalkSpec) -> float:
    """4 n eps (sum_j |j| ||A_j||_F)^2: the rounding in forming the Gram coefficients B_m."""
    scale = sum(abs(j) * np.linalg.norm(a) for j, a in spec.terms.items())
    return 4 * spec.n * np.finfo(float).eps * scale**2


def _max_derivative_sigma(spec: WalkSpec) -> float:
    # B_m gathers the products (j A_j)(l A_l)^* with j - l = m
    ms, gram = _pair_sums(spec, spec.shifts())
    drift = np.linalg.norm(gram[ms != 0], axis=(1, 2)).sum()
    if drift <= _rounding_allowance(spec):
        return math.sqrt(np.linalg.eigvalsh(gram[ms == 0][0])[-1])
    degree = np.abs(ms[np.abs(gram).max(axis=(1, 2)) > 0]).max()
    ratio = np.pi * degree / NORM_GRID
    if ratio >= 1:
        return float(sum(abs(j) * np.linalg.norm(a, 2) for j, a in spec.terms.items()))
    ks = 2 * np.pi * np.arange(NORM_GRID) / NORM_GRID
    sig = np.linalg.svd(derivative_symbol_on_grid(spec, ks), compute_uv=False)[:, 0]
    return float(sig.max()) / math.sqrt(1 - ratio**2 / 2)


def _speed_bound(spec: WalkSpec) -> float:
    """Upper bound on |dlambda/dk| for every band: sup_k ||d/dk U_hat(k)||.

    sqrt(commutator_norm^2 + _rounding_allowance): the allowance covers the
    rounding of either path (commutator_norm(coined(0.5)) is one ulp under 1).
    """
    return math.sqrt(commutator_norm(spec) ** 2 + _rounding_allowance(spec))


def _is_real(spec: WalkSpec) -> bool:
    """True when no coefficient has a nonzero imaginary part (exactly, no tolerance).

    Then U_hat(-k) is the conjugate of U_hat(k), so the symbol on the
    mirror half of a grid is read off the other half.
    """
    return not any(a.imag.any() for a in spec.terms.values())


def _invariant_blocks(spec: WalkSpec) -> tuple:
    """The walk's invariant blocks, as (block walk, basis) pairs; () when it has one.

    The constant commutant, the matrices X with X A_j = A_j X for every j,
    is the null space of the stacked (|terms| n^2) x n^2 matrix of
    A_j (x) I - I (x) A_j^T: its right singular vectors with singular value
    at most COMMUTANT_TOL.  It is closed under adjoints, since U_hat(k)^* =
    U_hat(k)^{-1}, so for a fixed-seed combination X of them, scaled to
    Frobenius norm 1, X + X^* is a generic Hermitian element.  Its
    eigenvalues grouped at BLOCK_TOL give orthonormal bases V_b of
    subspaces that every U_hat(k) maps to themselves, and the block walk
    has coefficients V_b^* A_j V_b.  The walk is split only when every
    block passes the invariance test (COUPLING_TOL, rounding level) and
    WalkSpec validation.  Computed once per spec object and memoized on it.
    """
    if spec._blocks is None:
        object.__setattr__(spec, "_blocks", _commutant_blocks(spec))
    return spec._blocks


def _commutant_blocks(spec: WalkSpec) -> tuple:
    n = spec.n
    if n == 1:
        return ()
    a = np.stack(list(spec.terms.values()))
    eye = np.eye(n)
    # row (j, r, c), column (s, t): the (r, c) entry of A_j X - X A_j per X_st
    stacked = np.einsum("jrs,ct->jrcst", a, eye) - np.einsum("rs,jtc->jrcst", eye, a)
    _, sv, vh = np.linalg.svd(stacked.reshape(-1, n * n), full_matrices=False)
    null = vh[sv <= COMMUTANT_TOL].conj()
    if len(null) == 1:
        return ()
    rng = np.random.default_rng(0)
    c = rng.standard_normal(len(null)) + 1j * rng.standard_normal(len(null))
    x = (c / np.linalg.norm(c) @ null).reshape(n, n)
    vals, vecs = np.linalg.eigh(x + x.conj().T)
    cuts = np.flatnonzero(np.diff(vals) > BLOCK_TOL) + 1
    if not cuts.size:
        return ()
    blocks = []
    for basis in np.split(vecs, cuts, axis=1):
        image = a @ basis
        inner = basis.conj().T @ image
        if np.abs(image - basis @ inner).max() > COUPLING_TOL:
            return ()
        try:
            block = WalkSpec(n=basis.shape[1], terms=dict(zip(spec.terms, inner)))
        except WalkSpecError:
            return ()
        basis.setflags(write=False)
        blocks.append((block, basis))
    return tuple(blocks)


def direct_sum(a: WalkSpec, b: WalkSpec) -> WalkSpec:
    """Block-diagonal direct sum of two walks on the same lattice."""
    n = a.n + b.n
    terms = {}
    for j in set(a.terms) | set(b.terms):
        mat = np.zeros((n, n), dtype=np.complex128)
        if j in a.terms:
            mat[: a.n, : a.n] = a.terms[j]
        if j in b.terms:
            mat[a.n :, a.n :] = b.terms[j]
        terms[j] = mat
    return WalkSpec(n=n, terms=terms)


def amplify(spec: WalkSpec, m: int) -> WalkSpec:
    """Amplification U (x) id_m: every coefficient becomes A_j (x) I_m."""
    if m < 1:
        raise WalkSpecError("amplification factor must be >= 1")
    terms = {j: np.kron(aj, np.eye(m)) for j, aj in spec.terms.items()}
    return WalkSpec(n=spec.n * m, terms=terms)
