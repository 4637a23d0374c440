"""Continuous-time realizability: can the walk be exp(i H) with H banded?

The obstruction is topological.  The walk embeds in a norm-continuous
one-parameter group iff every band winding vanishes; the det winding is
the coarser invariant (its non-vanishing already rules realizability out,
but the converse needs all per-band windings).  When realizable, a
self-adjoint generator is produced bandwise: a continuous real h with
exp(i h) = lambda on the covering torus, unique up to 2 pi Z per band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import BandSet, det_winding, sample_bands
from .walkspec import WalkSpec, _write_table

__all__ = [
    "RealizabilityVerdict",
    "is_ct_realizable",
    "witness_step",
    "generator_coefficients",
    "write_witness_csv",
]


@dataclass(frozen=True)
class RealizabilityVerdict:
    """Outcome of the winding test plus the witness phases when they exist.

    witnesses holds one real array per band (cover grid, exp(i h) equal to
    the band samples to rounding); None when not realizable.
    """

    realizable: bool
    det_winding: int
    band_set: BandSet
    witnesses: tuple | None

    def to_dict(self) -> dict:
        """The verdict and each band's degree and winding as JSON types."""
        return {
            "realizable": self.realizable,
            "det_winding": self.det_winding,
            "bands": [
                {"degree": b.degree, "winding": b.winding}
                for b in self.band_set.bands
            ],
        }


def is_ct_realizable(spec: WalkSpec, grid_size: int = 2048) -> RealizabilityVerdict:
    """Decide realizability from the band windings.

    Every band winding zero: realizable, and each band value curve lifts
    to a closed real phase curve h.  Any nonzero winding blocks a
    continuous logarithm no matter the choice of branch.
    """
    band_set = sample_bands(spec, grid_size)
    realizable = all(b.winding == 0 for b in band_set.bands)
    witnesses = None
    if realizable:
        lifts = []
        for band in band_set.bands:
            h = np.unwrap(np.angle(band.samples))
            h.setflags(write=False)
            lifts.append(h)
        witnesses = tuple(lifts)
    return RealizabilityVerdict(
        realizable=realizable,
        det_winding=det_winding(spec),
        band_set=band_set,
        witnesses=witnesses,
    )


def _witnesses(verdict: RealizabilityVerdict) -> tuple:
    """The verdict's witness phases; a ValueError when the walk is not realizable."""
    if not verdict.realizable:
        raise ValueError("walk is not realizable; no witness generator exists")
    return verdict.witnesses


def witness_step(verdict: RealizabilityVerdict, t: float) -> tuple:
    """Band-diagonal evolution exp(i t h) sampled on each band's cover.

    At t = 1 this reproduces the band values; in t it satisfies the group
    law exactly up to rounding, which is what makes h a generator witness.
    """
    return tuple(np.exp(1j * t * h) for h in _witnesses(verdict))


def generator_coefficients(verdict: RealizabilityVerdict, max_shift: int) -> dict:
    """Position-space coefficients H_j of the generator, |j| <= max_shift.

    H_j is the Fourier average of H_hat(k) = sum_bands h(k) P_band(k); the
    returned dict satisfies H_{-j} = H_j^* up to rounding.  For an analytic
    band structure the coefficients decay geometrically in |j|, so a
    modest max_shift captures the generator to high accuracy.
    """
    witnesses = _witnesses(verdict)
    bs = verdict.band_set
    G, n = bs.grid_size, bs.n
    # sheet s of a band's cover is the base grid again, so H_hat(k_g) sums
    # h v v^* over the band's copies c and sheets s at each g
    hhat = 0.0
    for band, h in zip(bs.bands, witnesses):
        vec = band.eigvec_samples.reshape(band.multiplicity, band.degree, G, n)
        hsg = h.reshape(band.degree, G)
        hhat = hhat + np.einsum("sg,csgi,csgj->gij", hsg, vec, vec.conj())
    # e^{-i j k_g} is G-periodic in j, so H_j is entry j mod G of one FFT
    js = range(-max_shift, max_shift + 1)
    return dict(zip(js, np.fft.fft(hhat, axis=0)[np.mod(js, G)] / G))


def write_witness_csv(verdict: RealizabilityVerdict, fileobj) -> None:
    """Long-format dump: band index, cover point k, witness phase h."""
    witnesses = _witnesses(verdict)
    _write_table(fileobj, "band,k,h", "%d,%.17g,%.17g", [
        np.concatenate([np.full(h.size, bi) for bi, h in enumerate(witnesses)]),
        np.concatenate([band.kgrid for band in verdict.band_set.bands]),
        np.concatenate(witnesses),
    ])
