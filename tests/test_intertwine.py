import io
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_walk

from qwalk import (
    ConstantSummand,
    MemoryCapExceeded,
    WalkSpec,
    amplify,
    build_intertwiner,
    commutant_report,
    decompose,
    direct_sum,
    find_translation,
    intertwiner_residual,
    intertwiner_space,
    model_walk_matrix,
    write_intertwiner_csv,
)
from qwalk import intertwine
from qwalk.fixtures import FIXTURES, coined, grover3, grover4
from qwalk.intertwine import (
    RESIDUAL_TOL,
    CommutantReport,
    ConstantClass,
    PrimeClass,
)
from qwalk.spectral import MERGE_TOL, _noise_floor


def modulate(spec, alpha):
    """Gauge twist A_j -> e^{i alpha j} A_j; bands become k -> lambda(k + alpha)."""
    return WalkSpec(
        n=spec.n,
        terms={j: np.exp(1j * alpha * j) * a for j, a in spec.terms.items()},
    )


def test_translation_recovered_from_modulated_walk():
    alpha = 0.7
    d1 = decompose(coined(0.5), 512)
    d2 = decompose(modulate(coined(0.5), alpha), 512)
    for p2 in d2.primes:
        matches = [
            find_translation(p1.band, p2.band) for p1 in d1.primes
        ]
        hits = [m for m in matches if m is not None]
        assert len(hits) == 1
        assert hits[0].alpha == pytest.approx(alpha, abs=1e-9)
        assert hits[0].residual < 1e-9


def test_self_translation_is_zero():
    dec = decompose(grover4(), 256)
    for p in dec.primes:
        m = find_translation(p.band, p.band)
        assert m is not None
        assert min(m.alpha, 2 * np.pi / float(p.rate) - m.alpha) == pytest.approx(
            0.0, abs=1e-9
        )


def test_constant_summand_classification():
    a = ConstantSummand(alpha=1.0 + 0j, multiplicity=2)
    b = ConstantSummand(alpha=1.0 + 0j, multiplicity=3)
    c = ConstantSummand(alpha=-1.0 + 0j, multiplicity=1)
    assert intertwiner_space(a, b).kind == "band_algebra"
    assert intertwiner_space(a, b).generator_count == 6
    assert intertwiner_space(a, c).kind == "zero"


def test_constant_prime_pairs_are_zero(grover4_dec):
    dec = grover4_dec
    space = intertwiner_space(dec.constants[0], dec.primes[0])
    assert space.kind == "zero"
    assert space.generator_count == 0


def test_different_rates_are_zero(grover3_dec, grover4_dec):
    # rate 1/2 against rate 1: no uniform intertwiner can relate them
    space = intertwiner_space(grover3_dec.primes[0], grover4_dec.primes[0])
    assert space.kind == "zero"


def test_different_windings_are_zero(grover4_dec):
    p1, p2 = grover4_dec.primes
    assert p1.winding != p2.winding
    assert intertwiner_space(p1, p2).kind == "zero"


def test_built_intertwiner_relates_model_walks():
    alpha = 1.3
    d1 = decompose(coined(0.5), 512)
    d2 = decompose(modulate(coined(0.5), alpha), 512)
    pairs = [
        (p1, p2, intertwiner_space(p1, p2))
        for p1 in d1.primes
        for p2 in d2.primes
    ]
    matched = [(p1, p2, s) for p1, p2, s in pairs if s.kind == "model_translation"]
    assert matched
    p1, p2, space = matched[0]
    window = 96
    v = build_intertwiner(space.match, p1.rate, window)
    u1 = model_walk_matrix(p1.band, window)
    u2 = model_walk_matrix(p2.band, window)
    assert intertwiner_residual(u1, u2, v, margin=16) < 1e-6


def test_model_walk_matrix_of_free_band():
    dec = decompose(FIXTURES["free"](), 128)
    u = model_walk_matrix(dec.primes[0].band, 8)
    np.testing.assert_allclose(u, np.eye(8, k=-1), atol=1e-12)


def test_commutant_report_grover4(grover4_dec):
    rep = commutant_report(grover4_dec)
    assert len(rep.constant_classes) == 2
    assert all(c.size == 1 for c in rep.constant_classes)
    assert len(rep.prime_classes) == 2
    assert all(p.size == 1 for p in rep.prime_classes)
    assert rep.factor_count == 4

    doc = json.loads(json.dumps(rep.to_dict()))
    assert doc["factor_count"] == 4
    assert len(doc["constants"]) == 2
    assert len(doc["primes"]) == 2


def test_commutant_groups_translates():
    spec = coined(0.5)
    dec = decompose(spec, 256)
    rep = commutant_report(dec)
    # both bands of the coined walk are their own class: different shapes
    assert all(p.size == 1 for p in rep.prime_classes)


def test_intertwiner_csv():
    v = np.array([[0, 1.5], [2j, 0]])
    buf = io.StringIO()
    write_intertwiner_csv(v, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 3  # zeros are skipped


def row_loop_intertwiner_csv(v):
    """write_intertwiner_csv as one formatted row per kept entry."""
    out = io.StringIO()
    out.write("row,col,re,im\n")
    rows, cols = np.nonzero(np.abs(v) > intertwine.CSV_ZERO_TOL)
    for i, j in zip(rows, cols):
        out.write("%d,%d,%.17g,%.17g\n" % (i, j, v[i, j].real, v[i, j].imag))
    return out.getvalue()


@pytest.mark.parametrize("grid", [256, 2048])
def test_intertwiner_csv_matches_the_row_loop(grid):
    # every prime of every fixture: its self-intertwiner window and its
    # Toeplitz model walk, whose entries below CSV_ZERO_TOL are skipped
    windows = [np.zeros((5, 5), dtype=complex)]  # a header-only dump
    for name in sorted(FIXTURES):
        for prime in decompose(FIXTURES[name](), grid).primes:
            match = intertwiner_space(prime, prime).match
            windows.append(build_intertwiner(match, prime.rate, 40))
            windows.append(model_walk_matrix(prime.band, 40))
    assert len(windows) > 10
    for v in windows:
        buf = io.StringIO()
        write_intertwiner_csv(v, buf)
        assert buf.getvalue() == row_loop_intertwiner_csv(v)
    assert row_loop_intertwiner_csv(windows[0]) == "row,col,re,im\n"


@pytest.mark.parametrize("build", ["intertwiner", "model_walk"])
def test_a_huge_window_is_refused_before_allocating(monkeypatch, build):
    monkeypatch.delenv("QWALK_MEM_CAP_MB", raising=False)
    prime = decompose(coined(0.5), 256).primes[0]
    match = intertwiner_space(prime, prime).match
    tracemalloc.start()
    try:
        with pytest.raises(MemoryCapExceeded) as info:
            if build == "intertwiner":
                build_intertwiner(match, prime.rate, 10**6)
            else:
                model_walk_matrix(prime.band, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a refusal is invalid input, and the window's 8 MB of positions are never built
    assert isinstance(info.value, ValueError)
    assert peak < 1024 * 1024
    per_entry = 25 if build == "intertwiner" else 32
    need = per_entry * 10**12 // 2**20 + 1
    assert str(info.value) == (
        "intertwiner window 1000000 needs about %d MB, cap is 2048 MB" % need
    )


def test_the_largest_window_under_the_default_cap(monkeypatch):
    # 25 bytes per entry: 9268 x 9268 fits under 2048 MB, 9269 x 9269 does not
    monkeypatch.delenv("QWALK_MEM_CAP_MB", raising=False)
    assert 25 * 9268**2 <= 2048 * 2**20 < 25 * 9269**2
    prime = decompose(coined(0.5), 256).primes[0]
    match = intertwiner_space(prime, prime).match
    with pytest.raises(MemoryCapExceeded, match="window 9269 needs about 2049 MB, cap is 2048 MB"):
        build_intertwiner(match, prime.rate, 9269)


def pairwise_commutant_report(dec):
    """Classes grouped pair by pair: each unclaimed summand claims every
    later unclaimed one that matches it."""
    cclasses = []
    taken = [False] * len(dec.constants)
    for i, ci in enumerate(dec.constants):
        if taken[i]:
            continue
        size = ci.multiplicity
        for j in range(i + 1, len(dec.constants)):
            if not taken[j] and abs(ci.alpha - dec.constants[j].alpha) <= MERGE_TOL:
                size += dec.constants[j].multiplicity
                taken[j] = True
        cclasses.append(ConstantClass(alpha=ci.alpha, size=size))
    pclasses = []
    taken = [False] * len(dec.primes)
    for i, pi in enumerate(dec.primes):
        if taken[i]:
            continue
        size = pi.multiplicity
        alphas = [0.0]
        for j in range(i + 1, len(dec.primes)):
            pj = dec.primes[j]
            if taken[j] or pi.rate != pj.rate:
                continue
            match = intertwine.find_translation(pi.band, pj.band)
            if match is not None:
                size += pj.multiplicity
                alphas.append(match.alpha)
                taken[j] = True
        pclasses.append(PrimeClass(rate=pi.rate, size=size, alphas=tuple(alphas)))
    return CommutantReport(constant_classes=tuple(cclasses), prime_classes=tuple(pclasses))


COMMUTANT_WALKS = [(name, lambda name=name: FIXTURES[name]()) for name in sorted(FIXTURES)] + [
    ("grover3 x I2", lambda: amplify(grover3(), 2)),
    ("grover4 + grover4", lambda: direct_sum(grover4(), grover4())),
    ("coined + coined_0.7", lambda: direct_sum(coined(0.5), modulate(coined(0.5), 0.7))),
]


@pytest.mark.parametrize("grid", [256, 2048])
@pytest.mark.parametrize("name,make_spec", COMMUTANT_WALKS, ids=[w[0] for w in COMMUTANT_WALKS])
def test_commutant_report_matches_pairwise_grouping(monkeypatch, name, make_spec, grid):
    dec = decompose(make_spec(), grid)
    calls = []
    real = intertwine.find_translation

    def counted(band1, band2):
        calls.append(1)
        return real(band1, band2)

    monkeypatch.setattr(intertwine, "find_translation", counted)
    want = pairwise_commutant_report(dec).to_dict()
    want_calls = len(calls)
    calls.clear()
    assert commutant_report(dec).to_dict() == want
    assert len(calls) == want_calls


def dict_coefficients(band):
    """Normalized Fourier coefficients as a dict {ell: coefficient}."""
    p = band.min_period
    freqs, coefs = band.fourier_freqs, band.fourier
    keep = (np.abs(coefs) > _noise_floor(coefs, freqs)) & (freqs % p == 0)
    return dict(zip((freqs[keep] // p).tolist(), coefs[keep].tolist()))


def dict_find_translation(band1, band2):
    """find_translation coefficient by coefficient over dicts: the oracle
    the dense search is compared against."""
    if band1.degree != band2.degree or band1.min_period != band2.min_period:
        return None
    c1 = dict_coefficients(band1)
    c2 = dict_coefficients(band2)
    support = sorted(set(c1) | set(c2))
    if not support:
        return None
    for ell in support:
        if abs(abs(c1.get(ell, 0.0)) - abs(c2.get(ell, 0.0))) > RESIDUAL_TOL:
            return None
    weights = {
        ell: c2[ell] * np.conj(c1[ell])
        for ell in support
        if ell in c1 and ell in c2
    }
    if not weights:
        return None
    span = max(max(abs(ell) for ell in weights), 1)
    pad = 1 << max(10, (span * 8).bit_length())
    buf = np.zeros(pad, dtype=complex)
    for ell, w in weights.items():
        buf[ell % pad] += w
    corr = np.fft.fft(buf).real
    c = int(np.argmax(corr)) * 2.0 * np.pi / pad
    for _ in range(3):
        num = den = 0.0
        for ell, w in weights.items():
            if ell == 0:
                continue
            num += abs(w) * ell * np.angle(w * np.exp(-1j * ell * c))
            den += abs(w) * ell * ell
        if den == 0.0:
            break
        c += num / den
    c %= 2.0 * np.pi
    if 2.0 * np.pi - c < 1e-12:
        c = 0.0
    residual = max(
        abs(c2.get(ell, 0.0) - c1.get(ell, 0.0) * np.exp(1j * ell * c))
        for ell in support
    )
    if residual > RESIDUAL_TOL:
        return None
    rate = Fraction(band1.min_period, band1.degree)
    return intertwine.TranslationMatch(alpha=c / float(rate), residual=float(residual))


def eye_sum_model_walk_matrix(band, window):
    """The Toeplitz window as a sum of shifted identities."""
    out = np.zeros((window, window), dtype=complex)
    for off, coef in dict_coefficients(band).items():
        if abs(off) < window:
            out += coef * np.eye(window, k=-int(off))
    return out


ORACLE_WALKS = [FIXTURES[name]() for name in sorted(FIXTURES)] + [
    random_walk(seed) for seed in range(10)
]


@pytest.mark.parametrize("grid", [256, 2048])
def test_dense_translation_search_matches_dict_oracle(grid):
    # every ordered prime pair of each walk U and of U + U_0.7
    translated = 0
    for spec in ORACLE_WALKS:
        for walk in (spec, direct_sum(spec, modulate(spec, 0.7))):
            primes = decompose(walk, grid).primes
            for i, p1 in enumerate(primes):
                for j, p2 in enumerate(primes):
                    got = find_translation(p1.band, p2.band)
                    want = dict_find_translation(p1.band, p2.band)
                    where = (walk, i, j, got, want)
                    assert (got is None) == (want is None), where
                    if i == j:
                        assert (got.alpha, got.residual) == (0.0, 0.0), where
                    elif got is not None:
                        translated += 1
                        assert abs(got.alpha - want.alpha) <= 1e-14, where
                        assert abs(got.residual - want.residual) <= 1e-14, where
                for window in (8, 64):
                    assert np.array_equal(
                        model_walk_matrix(p1.band, window),
                        eye_sum_model_walk_matrix(p1.band, window),
                    ), (walk, i, window)
    # 106 pairs on either grid: each prime meets its 0.7-translate in U + U_0.7
    assert translated > 100


@pytest.mark.parametrize("grid", [256, 2048])
def test_aliasing_does_not_split_a_translate_class(grid):
    # random_walk(5) + its 0.7-modulation: at grid 256 the top bins of its
    # degree-3 bands alias at 2e-6, so the noise floor is 4.3e-5.  Kept
    # down to 1e-13, those bins left a residual above RESIDUAL_TOL, and the
    # two primes fell into two classes there but one at grid 2048
    u = random_walk(5)
    report = commutant_report(decompose(direct_sum(u, modulate(u, 0.7)), grid))
    (cls,) = report.prime_classes
    assert (cls.rate, cls.size) == (Fraction(1, 3), 2)
    assert cls.alphas[0] == 0.0
    # 0.7 plus two turns of the base torus; at rate 1/3, alpha is read modulo 6 pi
    assert cls.alphas[1] == pytest.approx(4 * np.pi + 0.7, abs=1e-12)
