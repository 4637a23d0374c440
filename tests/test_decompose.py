import json
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import qr

from qwalk import (
    amplify,
    assemble,
    cover_walk,
    decompose,
    sample_bands,
)
import qwalk.spectral
from qwalk.dynamics import adjoint_walk
from qwalk.fixtures import FIXTURES, coined, cube_root, grover3, grover4, shift_coin_walk
from qwalk.walkspec import _invariant_blocks

from conftest import random_walk
from test_spectral import signature
from test_walkspec import split_step


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


WALKS = {name: FIXTURES[name] for name in sorted(FIXTURES)}
WALKS["amplify(coined(0.5), 2)"] = lambda: amplify(coined(0.5), 2)


@pytest.mark.parametrize("grid", [256, 2048])
@pytest.mark.parametrize("name", list(WALKS))
def test_a_prime_summand_is_its_band(name, grid):
    # a prime keeps the band set's own band: its multiplicity counts the
    # band's copies, and the prime's is that count times the rate numerator
    dec = decompose(WALKS[name](), grid)
    for p in dec.primes:
        assert any(p.band is b for b in dec.band_set.bands)
        assert p.multiplicity == p.band.multiplicity * p.band.min_period
        assert p.rate == Fraction(p.band.min_period, p.band.degree)
        assert p.winding == p.band.winding
    if name == "amplify(coined(0.5), 2)":
        assert [p.band.multiplicity for p in dec.primes] == [2, 2]
    if name == "cube_root":
        assert [p.band.min_period for p in dec.primes] == [2]


def scrambled_double(v, rng):
    """U = W (V (x) I_2) W^*, W a shift-coin walk with a seeded unitary coin
    and shifts in {-1, 0, 1}: the bands of V twice over, with no constant
    commutant to split them apart."""
    n = 2 * v.n
    shifts = tuple(int(s) for s in rng.integers(-1, 2, n))
    q, r = qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    w = shift_coin_walk(shifts, q * (np.diagonal(r) / np.abs(np.diagonal(r))))
    return split_step(split_step(w, amplify(v, 2)), adjoint_walk(w))


@pytest.mark.parametrize("grid", [256, 2048])
@pytest.mark.parametrize("make_v", [lambda: coined(0.5), grover3], ids=["coined", "grover3"])
def test_a_cycle_that_weaves_copies_is_folded(make_v, grid, monkeypatch):
    # the seam joins the two copies of a band of V into one cycle, which
    # sample_bands folds by its Fourier support into two copies again
    v = make_v()
    spec = scrambled_double(v, np.random.default_rng(0))
    assert _invariant_blocks(spec) == ()
    seams = []
    real = qwalk.spectral._track

    def tracked(*args):
        out = real(*args)
        seams.append(out[2])
        return out

    monkeypatch.setattr(qwalk.spectral, "_track", tracked)
    bands = sample_bands(spec, grid)
    (sigma,) = seams
    cycles, seen = 0, set()
    for s in range(spec.n):
        if s not in seen:
            cycles += 1
            while s not in seen:
                seen.add(s)
                s = int(sigma[s])
    # the cycle lengths and the bands' degree x multiplicity both add up to
    # n, so more band copies than cycles means some cycle is longer than its
    # band's degree
    assert sum(b.multiplicity for b in bands.bands) > cycles
    want = sample_bands(amplify(v, 2), grid)
    assert signature(bands) == signature(want)
    assert decompose(spec, grid).to_dict()["primes"] == decompose(amplify(v, 2), grid).to_dict()["primes"]
    for band in bands.bands:
        # a folded band keeps every g-th coefficient of its cycle: those of its own samples
        assert np.max(np.abs(band.fourier - np.fft.fft(band.samples) / band.samples.size)) < 1e-12
        stack = np.asarray(band.eigvec_samples)  # (copies, dG, n)
        gram = np.einsum("agi,bgi->gab", stack.conj(), stack)
        assert np.max(np.abs(gram - np.eye(band.multiplicity))) < 1e-8


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
