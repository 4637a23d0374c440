import json
import math

import ledger


def test_ledger_matches_the_committed_answers():
    # every answer of the corpus, recomputed; regenerate with
    # python tests/ledger.py --write, and list each changed entry
    text = ledger.diff(ledger.read(), ledger.lines(ledger.compute()))
    assert not text, "answers differ from tests/ledger.json:\n" + text


def test_strict_xfails_pin_the_ledgers_wrong_answers():
    import test_spectral

    entries = json.loads("\n".join(ledger.read()))
    sweep = {ledger.coined_name(m): m for m in test_spectral.COINED_SWEEP_M}
    coined = {
        (sweep[e["walk"]], e["grid"]): e["status"] for e in entries if e["walk"] in sweep
    }
    assert len(coined) == 2 * len(sweep)
    assert {key for key, status in coined.items() if status == "wrong"} == (
        test_spectral.COINED_SWEEP_WRONG
    )
    assert {key for key, status in coined.items() if status == "refused"} == (
        test_spectral.COINED_SWEEP_REFUSED
    )
    # the other wrong answers, by walk, against the strict xfails of the
    # grid-agreement test
    wrong = {e["walk"] for e in entries if e["status"] == "wrong" and e["walk"] not in sweep}
    pinned = {
        param.values[0] for param in test_spectral.GRID_DEPENDENT_WALKS
        if any(mark.kwargs.get("strict") for mark in getattr(param, "marks", ()))
    }
    assert wrong == pinned


def test_every_prime_rate_of_the_ledger_is_reduced():
    # sample_bands folds each cycle by its Fourier support, so a
    # non-constant band never repeats on its cover: min_period / degree is
    # the prime's rate in lowest terms
    entries = json.loads("\n".join(ledger.read()))
    bands = [band for e in entries for band in e.get("bands", ())]
    primes = [(degree, period) for degree, _, period, _, constant in bands if not constant]
    assert primes and all(math.gcd(period, degree) == 1 for degree, period in primes)
