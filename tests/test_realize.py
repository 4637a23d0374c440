import io
import json

import numpy as np
import pytest

from qwalk import (
    generator_coefficients,
    is_ct_realizable,
    witness_step,
    write_witness_csv,
)
from qwalk.fixtures import FIXTURES, coined, free, grover3, grover4


def test_grover3_is_realizable():
    v = is_ct_realizable(grover3(), 256)
    assert v.realizable
    assert v.det_winding == 0
    assert v.witnesses is not None
    assert len(v.witnesses) == len(v.band_set.bands)


def test_witness_reproduces_band_at_unit_time():
    v = is_ct_realizable(grover3(), 256)
    for w, band in zip(witness_step(v, 1.0), v.band_set.bands):
        np.testing.assert_allclose(w, band.samples, atol=1e-12)


def test_witness_group_law():
    v = is_ct_realizable(coined(0.5), 256)
    for t, s in ((0.25, 0.5), (1.0, -1.0), (2.0, 3.5)):
        left = witness_step(v, t)
        right = witness_step(v, s)
        both = witness_step(v, t + s)
        for a, b, c in zip(left, right, both):
            assert np.max(np.abs(a * b - c)) < 1e-12


def test_nonzero_winding_blocks_realizability():
    for spec in (grover4(), free(), FIXTURES["det_winding"]()):
        v = is_ct_realizable(spec, 256)
        assert not v.realizable
        assert v.witnesses is None
        with pytest.raises(ValueError):
            witness_step(v, 1.0)
        with pytest.raises(ValueError):
            generator_coefficients(v, 2)


def test_generator_coefficients_hermitian_pairing():
    v = is_ct_realizable(grover3(), 256)
    h = generator_coefficients(v, 4)
    assert set(h) == set(range(-4, 5))
    for j in range(5):
        np.testing.assert_allclose(h[-j], h[j].conj().T, atol=1e-10)


def test_generator_of_constant_walk():
    v = is_ct_realizable(FIXTURES["constant"](2, 0.3), 64)
    h = generator_coefficients(v, 1)
    np.testing.assert_allclose(h[0], 0.3 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(h[1], 0, atol=1e-12)


def test_verdict_json_and_csv():
    v = is_ct_realizable(grover3(), 128)
    doc = json.loads(json.dumps(v.to_dict()))
    assert doc["realizable"] is True
    assert doc["det_winding"] == 0
    assert {b["winding"] for b in doc["bands"]} == {0}

    buf = io.StringIO()
    write_witness_csv(v, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "band,k,h"
    assert len(lines) == 1 + 128 + 2 * 128  # one row per cover point per band

    bad = is_ct_realizable(grover4(), 128)
    with pytest.raises(ValueError):
        write_witness_csv(bad, io.StringIO())


def row_loop_witness_csv(verdict):
    """write_witness_csv as one formatted row per cover point."""
    lines = ["band,k,h"]
    for bi, (band, h) in enumerate(zip(verdict.band_set.bands, verdict.witnesses)):
        lines += ["%d,%.17g,%.17g" % (bi, k, val) for k, val in zip(band.kgrid, h)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("grid", [256, 2048])
def test_witness_csv_matches_the_row_loop(grid):
    realizable = []
    for name in sorted(FIXTURES):
        verdict = is_ct_realizable(FIXTURES[name](), grid)
        if not verdict.realizable:
            continue
        realizable.append(name)
        buf = io.StringIO()
        write_witness_csv(verdict, buf)
        assert buf.getvalue() == row_loop_witness_csv(verdict), name
    assert "grover3" in realizable and "coined" in realizable


def per_shift_generator_coefficients(verdict, max_shift):
    """generator_coefficients as one weighted mean over the grid per shift j."""
    bs = verdict.band_set
    G, n = bs.grid_size, bs.n
    hhat = np.zeros((G, n, n), dtype=complex)
    for band, h in zip(bs.bands, verdict.witnesses):
        for s in range(band.degree):
            seg = slice(s * G, (s + 1) * G)
            for c in range(band.multiplicity):
                vec = band.eigvec_samples[c][seg]
                hhat += h[seg][:, None, None] * (vec[:, :, None] * vec[:, None, :].conj())
    ks = 2.0 * np.pi * np.arange(G) / G
    return {
        j: (np.exp(-1j * j * ks)[:, None, None] * hhat).mean(axis=0)
        for j in range(-max_shift, max_shift + 1)
    }


@pytest.mark.parametrize(
    "spec, grid, max_shift",
    [
        (grover3(), 256, 4),  # a degree-2 band
        (coined(0.5), 256, 6),
        (FIXTURES["constant"](2, 0.3), 64, 40),  # multiplicity 2; |j| up to past G/2
    ],
)
def test_generator_coefficients_match_the_per_shift_mean(spec, grid, max_shift):
    v = is_ct_realizable(spec, grid)
    got = generator_coefficients(v, max_shift)
    want = per_shift_generator_coefficients(v, max_shift)
    assert list(got) == list(want)
    for j in want:
        np.testing.assert_allclose(got[j], want[j], rtol=0, atol=1e-13, err_msg=str(j))
