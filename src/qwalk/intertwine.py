"""Intertwiners between summands and the commutant of a walk.

Two prime model walks of the same rate intertwine iff their bands differ
by a torus translation: lambda_2(x) = lambda_1(x + c) on T_2pi in
normalized coordinates.  On Fourier coefficients that reads
c2[l] = c1[l] exp(i l c), which is how the translation is found: each
band's normalized coefficients, its Band.support divided by the minimal
period p, form one dense vector over l = -F ... F with F = max|support| / p,
zero off the support; a phase correlation locates c, a bounded polish
sharpens it, and the coefficient residual decides, each as one array
expression over those vectors.  Because a prime band's normalized support has gcd 1,
the translation is unique mod 2 pi and the intertwiner space is singly
generated over the torus function algebra.

Between constant summands the only question is whether the constants
agree; then every matrix on the multiplicity space intertwines
(band_algebra).  Across kinds, or on any mismatch, the space is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .decompose import ConstantSummand, Decomposition, PrimeModelWalk
from .spectral import MERGE_TOL, Band
from .walkspec import _check_memory, _write_table

__all__ = [
    "TranslationMatch",
    "IntertwinerSpace",
    "CommutantReport",
    "find_translation",
    "intertwiner_space",
    "build_intertwiner",
    "model_walk_matrix",
    "intertwiner_residual",
    "commutant_report",
    "write_intertwiner_csv",
]

RESIDUAL_TOL = 1e-7    # max coefficient mismatch for an accepted translation
CSV_ZERO_TOL = 1e-12   # window entries at or below this magnitude are not dumped


@dataclass(frozen=True)
class TranslationMatch:
    """Torus translation intertwining two prime bands.

    alpha is the physical translation in [0, 2 pi / rate); residual is the
    worst normalized-coefficient mismatch it leaves.
    """

    alpha: float
    residual: float


@dataclass(frozen=True)
class IntertwinerSpace:
    """Classification of Hom(summand1, summand2).

    kind "zero": only the zero operator.
    kind "model_translation": generated by one modulated translation
    (generator_count counts the copy-pair blocks, each carrying one).
    kind "band_algebra": equal constants; every multiplicity-space matrix,
    generator_count = mult1 * mult2.
    """

    kind: str
    generator_count: int
    match: TranslationMatch | None = None


def _normalized_coefficients(band: Band, half: int) -> np.ndarray:
    """Fourier coefficients of the band in normalized coordinates.

    The band's support lies on multiples of its minimal period p (their
    gcd); dividing them by p gives the coefficients of lambda as a function
    on T_2pi with coprime support.  Entry half + ell holds the coefficient
    at ell, for half >= F = max|support| / p.
    """
    out = np.zeros(2 * half + 1, dtype=complex)
    out[band.support // band.min_period + half] = band.fourier[band.support]
    return out


def find_translation(band1: Band, band2: Band) -> TranslationMatch | None:
    """Find c with lambda_2(x) = lambda_1(x + c), reported physically.

    Returns None when no translation aligns the bands within
    RESIDUAL_TOL.  The physical translation is c over the bands' rate
    min_period / degree.  Both bands' normalized coefficients are dense
    vectors over the same frequencies, -F ... F with F the larger
    max|support| / p.  The search correlates the phases
    at the frequencies both bands carry and polishes the best candidate,
    so the answer is accurate to rounding when it exists.
    """
    if band1.degree != band2.degree or band1.min_period != band2.min_period:
        return None
    top = max(np.abs(band1.support).max(), np.abs(band2.support).max())
    half = int(top) // band1.min_period
    c1 = _normalized_coefficients(band1, half)
    c2 = _normalized_coefficients(band2, half)
    mod1, mod2 = np.hypot(c1.real, c1.imag), np.hypot(c2.real, c2.imag)
    if np.max(np.abs(mod1 - mod2)) > RESIDUAL_TOL:
        return None  # moduli are translation invariants
    both = np.flatnonzero((mod1 > 0.0) & (mod2 > 0.0))
    if both.size == 0:
        return None
    # the weight c2 conj(c1) in polar form: its phase is taken in real
    # arithmetic, so a self-pair has phase 0 exactly and stays at c = 0
    ell = both - half
    weight = mod1[both] * mod2[both]
    phase = np.angle(c2[both]) - np.angle(c1[both])

    span = max(int(np.max(np.abs(ell))), 1)
    pad = 1 << max(10, (span * 8).bit_length())
    buf = np.zeros(pad, dtype=complex)
    buf[ell % pad] = weight * np.exp(1j * phase)
    corr = np.fft.fft(buf).real
    c = int(np.argmax(corr)) * 2.0 * np.pi / pad
    # Newton polish by weighted phase regression; the correlation value
    # itself is too flat near its maximum to locate c beyond sqrt(eps).
    # The bin is within pi / (4 max|ell|) of the optimum, so no phase wraps.
    den = np.sum(weight * ell * ell)
    if den != 0.0:
        for _ in range(3):
            miss = np.pi - np.remainder(np.pi - (phase - ell * c), 2.0 * np.pi)
            c += np.sum(weight * ell * miss) / den
    c %= 2.0 * np.pi
    if 2.0 * np.pi - c < 1e-12:
        c = 0.0  # rounding wrapped an identity translation to a full turn
    shift = np.exp(1j * np.arange(-half, half + 1) * c)
    residual = np.max(np.abs(c2 - c1 * shift))
    if residual > RESIDUAL_TOL:
        return None
    rate = Fraction(band1.min_period, band1.degree)
    return TranslationMatch(alpha=float(c) / float(rate), residual=float(residual))


def intertwiner_space(a, b) -> IntertwinerSpace:
    """Classify the intertwiners from summand a to summand b."""
    if isinstance(a, ConstantSummand) and isinstance(b, ConstantSummand):
        if abs(a.alpha - b.alpha) <= MERGE_TOL:
            return IntertwinerSpace(
                kind="band_algebra",
                generator_count=a.multiplicity * b.multiplicity,
            )
        return IntertwinerSpace(kind="zero", generator_count=0)
    if isinstance(a, ConstantSummand) or isinstance(b, ConstantSummand):
        return IntertwinerSpace(kind="zero", generator_count=0)
    if a.rate != b.rate:
        return IntertwinerSpace(kind="zero", generator_count=0)
    match = find_translation(a.band, b.band)
    if match is None:
        return IntertwinerSpace(kind="zero", generator_count=0)
    p = a.rate.numerator
    blocks = (a.multiplicity // p) * (b.multiplicity // p)
    return IntertwinerSpace(
        kind="model_translation", generator_count=blocks, match=match
    )


def build_intertwiner(match: TranslationMatch, rate: Fraction, window: int) -> np.ndarray:
    """Dense window of the modulated translation intertwiner.

    Positions run over j - window//2.  The generator is the diagonal
    modulation exp(i c j), c = alpha * rate.  A window whose 16 bytes per
    entry, and the 9 that write_intertwiner_csv adds, pass the memory cap
    is refused before anything is allocated.
    """
    _check_memory(25 * window * window, "intertwiner window %d" % window)
    c = match.alpha * float(rate)
    positions = np.arange(window) - window // 2
    return np.diag(np.exp(1j * c * positions))


def model_walk_matrix(band: Band, window: int) -> np.ndarray:
    """Dense window of the prime model walk in normalized coordinates.

    The walk is multiplication by the band on the torus; its position
    matrix is the Toeplitz array whose entry (i, j) is the normalized
    Fourier coefficient at i - j.  A window whose 32 bytes per entry (the
    matrix and two offset arrays) pass the memory cap is refused first.
    """
    _check_memory(32 * window * window, "intertwiner window %d" % window)
    half = max(int(np.abs(band.support).max()) // band.min_period, window)
    offsets = np.subtract.outer(np.arange(window), np.arange(window))
    return _normalized_coefficients(band, half)[offsets + half]


def intertwiner_residual(u1, u2, v, margin: int) -> float:
    """Spectral norm of V U1 - U2 V away from the window edges."""
    r = v @ u1 - u2 @ v
    if margin > 0:
        r = r[margin:-margin, margin:-margin]
    if r.size == 0:
        return 0.0
    return float(np.linalg.norm(r, 2))


@dataclass(frozen=True)
class ConstantClass:
    alpha: complex
    size: int


@dataclass(frozen=True)
class PrimeClass:
    """Equivalence class of prime summands under translation.

    alphas holds each member's translation relative to the first member.
    size is the total multiplicity; the commutant factor is the torus
    function algebra tensor the (size / numerator)-dimensional matrices.
    """

    rate: Fraction
    size: int
    alphas: tuple


@dataclass(frozen=True)
class CommutantReport:
    constant_classes: tuple
    prime_classes: tuple

    @property
    def factor_count(self) -> int:
        return len(self.constant_classes) + len(self.prime_classes)

    def to_dict(self) -> dict:
        """The equivalence classes and the factor count as JSON types."""
        return {
            "constants": [
                {"alpha": [c.alpha.real, c.alpha.imag], "size": c.size}
                for c in self.constant_classes
            ],
            "primes": [
                {
                    "rate": {"num": p.rate.numerator, "den": p.rate.denominator},
                    "size": p.size,
                    "alphas": list(p.alphas),
                }
                for p in self.prime_classes
            ],
            "factor_count": self.factor_count,
        }


def commutant_report(dec: Decomposition) -> CommutantReport:
    """Group summands into equivalence classes; classes index the factors
    of the commutant of the walk (joint with all its intertwiners).

    Each summand joins the first class whose first member it intertwines
    with, or opens a class of its own.
    """
    classes = []  # [first member, size, alphas]
    for s in dec.constants + dec.primes:
        for cls in classes:
            space = intertwiner_space(cls[0], s)
            if space.kind != "zero":
                cls[1] += s.multiplicity
                if space.match is not None:
                    cls[2].append(space.match.alpha)
                break
        else:
            classes.append([s, s.multiplicity, [0.0]])
    return CommutantReport(
        constant_classes=tuple(
            ConstantClass(alpha=first.alpha, size=size)
            for first, size, _ in classes
            if isinstance(first, ConstantSummand)
        ),
        prime_classes=tuple(
            PrimeClass(rate=first.rate, size=size, alphas=tuple(alphas))
            for first, size, alphas in classes
            if isinstance(first, PrimeModelWalk)
        ),
    )


def write_intertwiner_csv(v: np.ndarray, fileobj) -> None:
    """Sparse triplet dump row,col,re,im of the window matrix."""
    rows, cols = np.nonzero(np.abs(v) > CSV_ZERO_TOL)
    entries = v[rows, cols]
    _write_table(fileobj, "row,col,re,im", "%d,%d,%.17g,%.17g", [rows, cols, entries.real, entries.imag])
