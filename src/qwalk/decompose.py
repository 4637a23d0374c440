"""Decomposition of a walk into constants and prime model walks.

Every band contributes one summand.  A constant band with value alpha and
multiplicity nu contributes alpha * identity on nu internal levels.  A
non-constant band of covering degree d, minimal period 2 pi d / m and
multiplicity mu contributes the prime model walk of rate m/d (reduced to
p/q) with multiplicity mu * m: the q-dimensional walk whose single band is
the same analytic function on T_{2 pi q}.  Rates, multiplicities and
windings classify the walk up to the natural equivalence, and assemble()
renders the canonical representative back as a banded walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .spectral import Band, BandSet, sample_bands
from .walkspec import (
    UnitarityError,
    WalkSpec,
    amplify,
    commutator_norm,
    direct_sum,
)

__all__ = [
    "ConstantSummand",
    "PrimeModelWalk",
    "Decomposition",
    "decompose",
    "cover_walk",
    "assemble",
]

COEF_KEEP = 1e-14  # smallest Fourier coefficient rendered into a walk term


@dataclass(frozen=True)
class ConstantSummand:
    """alpha times the identity on ell_2(Z) tensor C^multiplicity."""

    alpha: complex
    multiplicity: int


@dataclass(frozen=True)
class PrimeModelWalk:
    """One prime summand: rate p/q, counted with multiplicity.

    band is the prime's own band on T_{2 pi q} (degree q, minimal period
    2 pi q / p, multiplicity 1) carrying the canonical eigenvector section.
    """

    rate: Fraction
    multiplicity: int
    winding: int
    band: Band


@dataclass(frozen=True)
class Decomposition:
    constants: tuple
    primes: tuple
    band_set: BandSet
    commutator_bound: float
    homogeneity_broken: bool

    @property
    def n(self) -> int:
        return self.band_set.n

    def to_dict(self) -> dict:
        """The classification data as JSON types (bands are omitted)."""
        return {
            "n": self.n,
            "constants": [
                {"alpha": [c.alpha.real, c.alpha.imag], "mult": c.multiplicity}
                for c in self.constants
            ],
            "primes": [
                {
                    "rate": {"num": p.rate.numerator, "den": p.rate.denominator},
                    "mult": p.multiplicity,
                    "winding": p.winding,
                }
                for p in self.primes
            ],
            "homogeneity_broken": self.homogeneity_broken,
            "commutator_bound": self.commutator_bound,
        }


def _prime_band(band: Band, q: int) -> Band:
    """Restrict a band to one fundamental loop of its prime's cover.

    The band repeats g = degree / q times on its cover.  The prime keeps its
    first q * grid_size samples and every g-th Fourier coefficient (FFT order
    carries over, support included), divides winding and minimal period by
    g, and takes the synthetic section, already in the gauge of _finalize_band.
    """
    G = band.grid_size
    g = band.degree // q
    length = q * G
    theta = 2.0 * np.pi * q * np.arange(length) / length
    section = np.exp(-1j * np.outer(theta, np.arange(q)) / q) / math.sqrt(q)
    return replace(band, degree=q, samples=band.samples[:length], multiplicity=1,
                   fourier=band.fourier[::g], eigvec_samples=section[None],
                   support=band.support[band.support % g == 0] // g,
                   winding=band.winding // g, min_period=band.min_period // g)


def decompose(spec: WalkSpec, grid_size: int = 2048) -> Decomposition:
    """Split the walk into constant and prime model summands.

    Raises UnresolvedCrossing if the band structure cannot be resolved at
    this grid size.
    """
    band_set = sample_bands(spec, grid_size)
    constants = []
    primes = []
    broken = False
    for band in band_set.bands:
        if band.is_constant:
            constants.append(
                ConstantSummand(
                    alpha=complex(band.samples.mean()),
                    multiplicity=band.multiplicity,
                )
            )
            continue
        m = band.min_period
        if m > 1:
            broken = True
        g = math.gcd(m, band.degree)
        if band.winding % g:
            raise RuntimeError(
                "internal error: band of rate %d/%d repeats %d times on its "
                "cover but has winding %d" % (m, band.degree, g, band.winding)
            )
        prime = _prime_band(band, band.degree // g)
        primes.append(
            PrimeModelWalk(
                rate=Fraction(m, band.degree),
                multiplicity=band.multiplicity * m,
                winding=prime.winding,
                band=prime,
            )
        )
    total = sum(Fraction(c.multiplicity) for c in constants) + sum(
        Fraction(p.multiplicity) / p.rate for p in primes
    )
    if total != spec.n:
        raise RuntimeError(
            "internal error: summand dimensions %s do not add up to n=%d"
            % (total, spec.n)
        )
    return Decomposition(
        constants=tuple(constants),
        primes=tuple(primes),
        band_set=band_set,
        commutator_bound=commutator_norm(spec),
        homogeneity_broken=broken,
    )


def cover_walk(band: Band) -> WalkSpec:
    """Render the d-dimensional walk whose only band is the given one.

    The walk acts on ell_2(Z) tensor C^d; entry (s', s) of coefficient A_j
    is the band's Fourier coefficient at frequency d j + s' - s, kept when
    its modulus exceeds COEF_KEEP.  A band whose coefficients the grid has
    not resolved renders a non-unitary walk; that raises the ValueError of
    _unresolved, naming the grid, the worst identity and its residual.
    """
    d = band.degree
    terms: dict[int, np.ndarray] = {}
    for ell, c in zip(band.fourier_freqs, band.fourier):
        if abs(c) > COEF_KEEP:
            for sp in range(d):
                s = (sp - ell) % d
                j = (int(ell) - sp + s) // d
                terms.setdefault(j, np.zeros((d, d), dtype=complex))[sp, s] = c
    try:
        return WalkSpec(n=d, terms=terms)
    except UnitarityError as exc:
        reason = "its cover walk violates unitarity identity m=%d by %.3e"
        raise _unresolved(band, reason % (exc.m, exc.residual)) from exc


def _unresolved(band: Band, reason: str) -> ValueError:
    """The refusal of a band its grid has not resolved (cover_walk, limit_law)."""
    G = band.grid_size
    msg = "band sampled on grid %d is not resolved: %s; decompose on a finer grid, such as %d"
    return ValueError(msg % (G, reason, 2 * G))


def assemble(dec: Decomposition) -> WalkSpec:
    """Canonical banded walk realizing the decomposition.

    Constants become alpha * I blocks; a prime of rate p/q and multiplicity
    M becomes M/p copies of the q-dimensional cover walk of its band (one
    such walk already carries prime multiplicity p).
    """
    blocks = []
    for cs in dec.constants:
        blocks.append(
            WalkSpec(
                n=cs.multiplicity,
                terms={0: cs.alpha * np.eye(cs.multiplicity)},
            )
        )
    for pm in dec.primes:
        copies, rem = divmod(pm.multiplicity, pm.rate.numerator)
        if rem:
            raise ValueError(
                "prime multiplicity %d is not a multiple of the rate numerator %d"
                % (pm.multiplicity, pm.rate.numerator)
            )
        blocks.append(amplify(cover_walk(pm.band), copies))
    if not blocks:
        raise ValueError("empty decomposition")
    out = blocks[0]
    for blk in blocks[1:]:
        out = direct_sum(out, blk)
    return out
