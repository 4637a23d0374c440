import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qwalk import (
    amplify,
    assemble,
    cover_walk,
    decompose,
    sample_bands,
)
from qwalk.decompose import _prime_band
from qwalk.fixtures import FIXTURES, cube_root, grover3, grover4
from qwalk.spectral import _finalize_band

from conftest import random_walk


def dec_signature(dec):
    consts = sorted(
        (round(c.alpha.real, 8), round(c.alpha.imag, 8), c.multiplicity)
        for c in dec.constants
    )
    primes = sorted((p.rate, p.multiplicity, p.winding) for p in dec.primes)
    return consts, primes


def bookkeeping_total(dec):
    total = Fraction(0)
    for c in dec.constants:
        total += c.multiplicity
    for p in dec.primes:
        total += p.multiplicity / p.rate
    return total


def test_grover4_summands(grover4_dec):
    dec = grover4_dec
    assert sorted(c.alpha.real for c in dec.constants) == pytest.approx([-1.0, 1.0])
    assert all(abs(c.alpha.imag) < 1e-12 for c in dec.constants)
    assert all(c.multiplicity == 1 for c in dec.constants)
    assert sorted(p.winding for p in dec.primes) == [-1, 1]
    assert all(p.rate == 1 for p in dec.primes)
    assert not dec.homogeneity_broken
    assert bookkeeping_total(dec) == dec.n == 4


def test_grover3_summands(grover3_dec):
    dec = grover3_dec
    assert len(dec.constants) == 1 and dec.constants[0].alpha == pytest.approx(1.0)
    (prime,) = dec.primes
    assert prime.rate == Fraction(1, 2)
    assert prime.winding == 0
    assert prime.multiplicity == 1
    assert bookkeeping_total(dec) == 3


def test_cube_root_summands():
    dec = decompose(cube_root(), 256)
    assert not dec.constants
    (prime,) = dec.primes
    assert prime.rate == Fraction(2, 3)
    assert prime.multiplicity == 2
    assert prime.winding == 2
    assert dec.homogeneity_broken
    # degrees of freedom: mult / rate sheets of the cover per unit cell
    assert bookkeeping_total(dec) == 3


def test_prime_band_shape():
    dec = decompose(grover3(), 256)
    band = dec.primes[0].band
    assert band.degree == dec.primes[0].rate.denominator
    assert band.min_period == dec.primes[0].rate.numerator
    assert band.samples.shape == (band.degree * 256,)


def finalized_prime_band(band, q):
    """The prime band rebuilt from its first q * grid_size samples, the
    oracle of _prime_band."""
    G = band.grid_size
    length = q * G
    theta = 2.0 * np.pi * q * np.arange(length) / length
    section = np.exp(-1j * np.outer(theta, np.arange(q)) / q) / math.sqrt(q)
    return _finalize_band(np.array(band.samples[:length]), [section], q, G)


def test_prime_band_of_a_band_that_repeats_on_its_cover():
    # a degree-2 band that is 2 pi-periodic: lambda(k) = exp(i (k + 0.3 sin k))
    # on T_4pi, winding twice and with minimal period 2, so g = 2 and q = 1
    G = 256
    k = 4.0 * np.pi * np.arange(2 * G) / (2 * G)
    section = np.stack([np.cos(k / 2), np.sin(k / 2)], axis=1)
    band = _finalize_band(np.exp(1j * (k + 0.3 * np.sin(k))), [section], 2, G)
    assert (band.degree, band.winding, band.min_period) == (2, 2, 2)
    got, want = _prime_band(band, 1), finalized_prime_band(band, 1)
    assert (got.degree, got.winding, got.min_period) == (want.degree, want.winding, want.min_period) == (1, 1, 1)
    assert np.array_equal(got.samples, want.samples)
    assert np.array_equal(got.eigvec_samples, want.eigvec_samples)
    assert (got.multiplicity, got.is_constant, got.grid_size) == (1, False, G)
    assert np.max(np.abs(got.fourier - want.fourier)) <= 1e-15


def test_cover_walk_reproduces_prime_band():
    dec = decompose(grover3(), 256)
    prime = dec.primes[0]
    cw = cover_walk(prime.band)
    assert cw.n == prime.rate.denominator
    (band,) = sample_bands(cw, 256).bands
    assert band.degree == prime.band.degree
    assert band.winding == prime.band.winding
    deltas = [
        np.max(np.abs(np.roll(band.samples, r * 256) - prime.band.samples))
        for r in range(band.degree)
    ]
    assert min(deltas) < 1e-9


def test_assemble_round_trip_fixtures():
    for name in ("grover3", "grover4", "cube_root", "free", "det_winding"):
        dec = decompose(FIXTURES[name]())
        back = decompose(assemble(dec))
        assert dec_signature(back) == dec_signature(dec)


def test_assemble_round_trip_random_walks():
    for seed in (3, 11, 21):
        dec = decompose(random_walk(seed))
        back = decompose(assemble(dec))
        assert dec_signature(back) == dec_signature(dec)


def test_amplified_multiplicities():
    dec = decompose(amplify(grover3(), 2), 256)
    assert dec.constants[0].multiplicity == 2
    assert dec.primes[0].multiplicity == 2
    assert bookkeeping_total(dec) == 6


def test_bookkeeping_exact_on_random_walks():
    for seed in range(12):
        spec = random_walk(seed)
        dec = decompose(spec, 256)
        assert bookkeeping_total(dec) == spec.n


def test_json_document():
    doc = json.loads(json.dumps(decompose(cube_root(), 256).to_dict()))
    assert doc["n"] == 3
    assert doc["constants"] == []
    (p,) = doc["primes"]
    assert p["rate"] == {"num": 2, "den": 3}
    assert p["mult"] == 2
    assert p["winding"] == 2
    assert doc["homogeneity_broken"] is True
    assert doc["commutator_bound"] > 0


def test_empty_decomposition_rejected():
    dec = decompose(grover3(), 256)
    hollow = type(dec)(
        constants=(),
        primes=(),
        band_set=dec.band_set,
        commutator_bound=dec.commutator_bound,
        homogeneity_broken=False,
    )
    with pytest.raises(ValueError):
        assemble(hollow)


def test_unresolved_band_names_a_finer_grid():
    # at grid 256 this walk's prime bands leave coefficients the cover walk
    # needs below the sampling resolution; the rendering is not retried
    spec = random_walk(21, shift_max=2)
    with pytest.raises(ValueError, match=r"grid 256 is not resolved") as err:
        assemble(decompose(spec, 256))
    msg = str(err.value)
    assert "identity m=" in msg and "decompose on a finer grid, such as 512" in msg
    dec = decompose(spec, 2048)
    assert dec_signature(decompose(assemble(dec), 2048)) == dec_signature(dec)
