"""The answer ledger: what sample_bands answers on a fixed corpus, and whether an oracle agrees.

The corpus is 412 walks, each at grids 256 and 2048:

- the 9 fixtures;
- conftest random_walk 0-39 at |shift| <= 1, 2 and 3, and real_random_walk 0-19;
- U^2 and U^3 of random_walk 0-29 at |shift| <= 2;
- U (+) U_0.7 of random_walk 0-19;
- every walk of perfbench/pool.json, its rejected ones included;
- coined(1 - 10^-m) for m = 2 ... 16 in steps of 0.25;
- three walks whose answers once depended on the grid.

An entry holds integers and refusal data only, since sample digests depend
on the BLAS library and the CPU: per band its degree, winding, min_period,
multiplicity and constancy, and the det winding; or, for an
UnresolvedCrossing, its k-interval rounded to 1e-6 and next_grid.  Each
entry also carries the status an oracle gives it, with no outside data:

- closed form: the coined walk's two bands r cos k +- i sqrt(1 - r^2 cos^2 k),
  and the integers of the fixtures whose bands are known in closed form;
- p-th powers: the bands of U^p are the p-th powers of U's bands at the same
  grid, folded where a power repeats and merged where two coincide;
- translates: U (+) U_alpha has U's bands and their alpha-translates, with
  the same integers, and a constant band merges with its translate;
- grid agreement: the same integers at both grids.

The status is right, wrong, refused (this entry raised) or unverified (the
oracle had nothing to compare against: its base walk or the other grid was
refused).  When two grids disagree, both entries are wrong.

    python tests/ledger.py           # print the differences from ledger.json
    python tests/ledger.py --write   # regenerate ledger.json

tests/test_ledger.py recomputes the ledger in tier-1 and fails on any
difference.
"""

from __future__ import annotations

import difflib
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))

from conftest import random_walk, real_random_walk  # noqa: E402

from qwalk import UnresolvedCrossing, WalkSpec, det_winding, direct_sum, sample_bands  # noqa: E402
from qwalk.fixtures import FIXTURES, coined, fixture_names  # noqa: E402

LEDGER_FILE = os.path.join(HERE, "ledger.json")
POOL_FILE = os.path.join(ROOT, "perfbench", "pool.json")
GRIDS = (256, 2048)
COINED_M = [2 + 0.25 * i for i in range(57)]
VALUE_TOL = 1e-8  # band samples against an oracle's values

# (degree, winding, min_period, multiplicity, constant) of each fixture band
# known in closed form: grover3 and grover4 (Grover coins), their moving
# subwalks, cube_root's e^{2ik/3}, the free shift e^{ik}, the constant 1 and
# coined(0.5), checked by value below; det_winding has none
CLOSED_FORM = {
    "coined": [(1, 0, 1, 1, False)] * 2,
    "constant": [(1, 0, None, 1, True)],
    "cube_root": [(3, 2, 2, 1, False)],
    "free": [(1, 1, 1, 1, False)],
    "grover3": [(1, 0, None, 1, True), (2, 0, 1, 1, False)],
    "grover3_subwalk": [(2, 0, 1, 1, False)],
    "grover4": [
        (1, -1, 1, 1, False), (1, 0, None, 1, True), (1, 0, None, 1, True), (1, 1, 1, 1, False)
    ],
    "grover4_subwalk": [(1, -1, 1, 1, False), (1, 1, 1, 1, False)],
}


def coined_name(m: float) -> str:
    return "coined(1 - 10^-%g)" % m


def walk_power(spec, p):
    """U^p: coefficient m is the sum of A_j1 ... A_jp over j1 + ... + jp = m."""
    terms = {0: np.eye(spec.n, dtype=complex)}
    for _ in range(p):
        nxt = {}
        for i, a in terms.items():
            for j, b in spec.terms.items():
                nxt[i + j] = nxt.get(i + j, 0) + a @ b
        terms = nxt
    return WalkSpec(n=spec.n, terms=terms)


def modulated(spec, alpha):
    """U_alpha with symbol U_hat(k + alpha)."""
    return WalkSpec(n=spec.n, terms={j: np.exp(1j * j * alpha) * a for j, a in spec.terms.items()})


def corpus():
    """(name, make_spec, oracle) per walk; oracle is ("closed", fixture or r),
    ("power", make_base, p), ("sum", make_base) or ("grids",)."""
    out = []
    for name in fixture_names():
        oracle = ("grids",)
        if name in CLOSED_FORM:
            oracle = ("closed", 0.5 if name == "coined" else name)
        out.append((name, FIXTURES[name], oracle))

    def walk(seed, shift_max=3):
        name = "walk(%d, shift<=%d)" % (seed, shift_max)
        return name, lambda: random_walk(seed, shift_max=shift_max)

    def power(seed, p):
        name, base = walk(seed, 2)
        return name + "^%d" % p, lambda: walk_power(base(), p), ("power", base, p)

    def translate(seed, alpha):
        name, base = walk(seed)
        return (
            "%s+U_%g" % (name, alpha),
            lambda: direct_sum(base(), modulated(base(), alpha)),
            ("sum", base),
        )

    out += [walk(seed, s) + (("grids",),) for s in (1, 2, 3) for seed in range(40)]
    out += [
        ("real_walk(%d)" % seed, lambda seed=seed: real_random_walk(seed), ("grids",))
        for seed in range(20)
    ]
    out += [power(seed, p) for p in (2, 3) for seed in range(30)]
    out += [translate(seed, 0.7) for seed in range(20)]
    with open(POOL_FILE, encoding="utf-8") as fh:
        pool = json.load(fh)
    entries = [
        (kind, entry)
        for kind in ("ensemble", "power2", "power3", "sum")
        for _, seeds in sorted(pool[kind].items())
        for entry in seeds
    ]
    entries += [(rej["kind"], rej["entry"]) for rej in pool["rejected"]]
    for kind, entry in entries:
        if kind == "ensemble":
            out.append(walk(entry) + (("grids",),))
        elif kind == "sum":
            out.append(translate(*entry))
        else:
            out.append(power(entry, int(kind[-1])))
    out += [
        (coined_name(m), lambda m=m: coined(1 - 10.0**-m), ("closed", 1 - 10.0**-m))
        for m in COINED_M
    ]
    out += [
        walk(2054020785) + (("grids",),),
        walk(1514645085) + (("grids",),),
        power(959707297, 2),
    ]
    return out


def extract(spec, grid):
    try:
        return sample_bands(spec, grid)
    except UnresolvedCrossing as exc:
        return exc


def signature(band_set):
    return sorted(
        (b.degree, b.winding, b.min_period, b.multiplicity, b.is_constant) for b in band_set.bands
    )


def matches_up_to_deck(samples, want, grid):
    return any(
        np.max(np.abs(np.roll(samples, r * grid) - want)) < VALUE_TOL
        for r in range(samples.size // grid)
    )


def closed_form_right(band_set, oracle):
    """A fixture's closed-form integers, or for coined(r) its two bands by value."""
    if isinstance(oracle, str):
        return signature(band_set) == CLOSED_FORM[oracle]
    r = oracle
    if signature(band_set) != CLOSED_FORM["coined"]:
        return False
    ks = 2 * np.pi * np.arange(band_set.grid_size) / band_set.grid_size
    c = r * np.cos(ks)
    root = 1j * np.sqrt(1 - c * c)
    return all(
        min(np.max(np.abs(b.samples - (c + s * root))) for s in (1, -1)) < 1e-10
        for b in band_set.bands
    )


def power_right(band_set, base, p):
    """Each band of U^p is a folded, merged p-th power of a band of U."""
    grid = band_set.grid_size
    want = []  # [degree, samples, multiplicity, winding]
    for b in base.bands:
        q = b.samples**p
        fold = next(
            d for d in range(1, b.degree + 1)
            if b.degree % d == 0
            and (d == b.degree or np.max(np.abs(q - np.roll(q, d * grid))) < VALUE_TOL)
        )
        copies = b.degree // fold
        entry = [fold, q[: fold * grid], b.multiplicity * copies, p * b.winding // copies]
        for other in want:
            if other[0] == fold and matches_up_to_deck(other[1], entry[1], grid):
                other[2] += entry[2]
                break
        else:
            want.append(entry)
    if len(want) != len(band_set.bands):
        return False
    for b in band_set.bands:
        hit = [
            i for i, w in enumerate(want)
            if (w[0], w[2], w[3]) == (b.degree, b.multiplicity, b.winding)
            and matches_up_to_deck(b.samples, w[1], grid)
        ]
        if not hit:
            return False
        del want[hit[0]]
    return True


def translates_right(band_set, base):
    """U (+) U_alpha: U's integers twice; a constant band merges with its translate."""
    want = []
    for b in base.bands:
        sig = (b.degree, b.winding, b.min_period, b.multiplicity, b.is_constant)
        if b.is_constant:
            want.append(sig[:3] + (2 * b.multiplicity, True))
        else:
            want += [sig, sig]
    return signature(band_set) == sorted(want)


def entry_of(name, grid, oracle, spec, got, base):
    """One ledger entry; a grid-agreement status is left None for compute to set."""
    entry = {"walk": name, "grid": grid, "oracle": oracle[0]}
    if isinstance(got, UnresolvedCrossing):
        entry["status"] = "refused"
        entry["refused"] = {
            "k": [round(got.k_lo, 6), round(got.k_hi, 6)], "next_grid": got.next_grid
        }
        return entry
    if oracle[0] == "grids":
        status = None  # set once both grids are in
    elif isinstance(base, UnresolvedCrossing):
        status = "unverified"
    elif oracle[0] == "closed":
        status = "right" if closed_form_right(got, oracle[1]) else "wrong"
    elif oracle[0] == "power":
        status = "right" if power_right(got, base, oracle[2]) else "wrong"
    else:
        status = "right" if translates_right(got, base) else "wrong"
    entry["status"] = status
    entry["det_winding"] = det_winding(spec)
    entry["bands"] = [list(sig) for sig in signature(got)]
    return entry


def compute():
    """Every ledger entry, in corpus order, each grid in turn."""
    entries = []
    for name, make_spec, oracle in corpus():
        spec = make_spec()
        base = oracle[1]() if oracle[0] in ("power", "sum") else None
        pair = [
            entry_of(name, grid, oracle, spec, extract(spec, grid), base and extract(base, grid))
            for grid in GRIDS
        ]
        if oracle[0] == "grids":
            answered = [e for e in pair if "bands" in e]
            status = "unverified"
            if len(answered) == 2:
                status = "right" if answered[0]["bands"] == answered[1]["bands"] else "wrong"
            for e in answered:
                e["status"] = status
        entries += pair
    return entries


def lines(entries):
    """ledger.json's lines: one entry per line, so a changed answer is one diff line."""
    rows = [json.dumps(e) for e in entries]
    return ["["] + [row + "," for row in rows[:-1]] + rows[-1:] + ["]"]


def read():
    with open(LEDGER_FILE, encoding="utf-8") as fh:
        return fh.read().splitlines()


def diff(want_lines, got_lines):
    return "\n".join(
        difflib.unified_diff(want_lines, got_lines, "ledger.json", "recomputed", lineterm="", n=0)
    )


def main(argv):
    got = lines(compute())
    if "--write" in argv:
        with open(LEDGER_FILE, "w", encoding="utf-8") as fh:
            fh.write("\n".join(got) + "\n")
        return 0
    text = diff(read(), got)
    print(text or "ledger.json is up to date")
    return 1 if text else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
