import io
import json

import numpy as np
import pytest

from qwalk import (
    ConstantSummand,
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
from qwalk.intertwine import CONST_MATCH_TOL, CommutantReport, ConstantClass, PrimeClass


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
            if not taken[j] and abs(ci.alpha - dec.constants[j].alpha) <= CONST_MATCH_TOL:
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
