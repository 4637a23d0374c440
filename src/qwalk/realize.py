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
from .walkspec import WalkSpec

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


def witness_step(verdict: RealizabilityVerdict, t: float) -> tuple:
    """Band-diagonal evolution exp(i t h) sampled on each band's cover.

    At t = 1 this reproduces the band values; in t it satisfies the group
    law exactly up to rounding, which is what makes h a generator witness.
    """
    if not verdict.realizable:
        raise ValueError("walk is not realizable; no witness generator exists")
    return tuple(np.exp(1j * t * h) for h in verdict.witnesses)


def generator_coefficients(verdict: RealizabilityVerdict, max_shift: int) -> dict:
    """Position-space coefficients H_j of the generator, |j| <= max_shift.

    H_j is the Fourier average of H_hat(k) = sum_bands h(k) P_band(k); the
    returned dict satisfies H_{-j} = H_j^* up to rounding.  For an analytic
    band structure the coefficients decay geometrically in |j|, so a
    modest max_shift captures the generator to high accuracy.
    """
    if not verdict.realizable:
        raise ValueError("walk is not realizable; no witness generator exists")
    bs = verdict.band_set
    G, n = bs.grid_size, bs.n
    hhat = np.zeros((G, n, n), dtype=complex)
    for band, h in zip(bs.bands, verdict.witnesses):
        for s in range(band.degree):
            seg = slice(s * G, (s + 1) * G)
            hseg = h[seg]
            for c in range(band.multiplicity):
                vec = band.eigvec_samples[c][seg]
                hhat += hseg[:, None, None] * (
                    vec[:, :, None] * vec[:, None, :].conj()
                )
    ks = 2.0 * np.pi * np.arange(G) / G
    return {
        j: (np.exp(-1j * j * ks)[:, None, None] * hhat).mean(axis=0)
        for j in range(-max_shift, max_shift + 1)
    }


def write_witness_csv(verdict: RealizabilityVerdict, fileobj) -> None:
    """Long-format dump: band index, cover point k, witness phase h."""
    if not verdict.realizable:
        raise ValueError("walk is not realizable; no witness generator exists")
    # one float table, band indices included (exact, and %d prints them alike)
    table = np.concatenate([
        np.column_stack([np.full(h.size, bi), band.kgrid, h])
        for bi, (band, h) in enumerate(zip(verdict.band_set.bands, verdict.witnesses))
    ])
    fileobj.write("band,k,h\n" + "%d,%.17g,%.17g\n" * len(table) % tuple(table.ravel().tolist()))
