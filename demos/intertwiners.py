"""Classify the uniform operators intertwining two walks.

X intertwines U1 and U2 when X U1 = U2 X.  Between prime model walks a
nonzero uniform intertwiner exists only at equal rate and only when one
band is a translate of the other, lambda2(k) = lambda1(k + alpha); the
space is then spanned by modulated translations.  Constant summands
contribute full matrix algebras at equal phase.
"""

import numpy as np

from qwalk import (
    WalkSpec,
    build_intertwiner,
    commutant_report,
    decompose,
    find_translation,
    intertwiner_residual,
    intertwiner_space,
    model_walk_matrix,
)
from qwalk.fixtures import coined, grover3_subwalk, grover4, grover4_subwalk


def classify(name1, dec1, name2, dec2):
    print("%s  vs  %s" % (name1, name2))
    summands1 = [("c%d" % i, c) for i, c in enumerate(dec1.constants)]
    summands1 += [("p%d" % i, p) for i, p in enumerate(dec1.primes)]
    summands2 = [("c%d" % i, c) for i, c in enumerate(dec2.constants)]
    summands2 += [("p%d" % i, p) for i, p in enumerate(dec2.primes)]
    for l1, s1 in summands1:
        for l2, s2 in summands2:
            space = intertwiner_space(s1, s2)
            if space.kind == "zero":
                continue
            extra = ""
            if space.match is not None:
                extra = "  alpha %.6f  residual %.1e" % (
                    space.match.alpha,
                    space.match.residual,
                )
            print("  %s -> %s : %s (%d generators)%s" % (l1, l2, space.kind, space.generator_count, extra))
    print()


g4 = decompose(grover4(), 512)
sub = decompose(grover4_subwalk(), 512)
classify("grover4", g4, "grover4_subwalk", sub)
classify("grover3_subwalk", decompose(grover3_subwalk(), 512), "grover4_subwalk", sub)
classify("coined(0.3)", decompose(coined(0.3), 512), "coined(0.7)", decompose(coined(0.7), 512))

# build the window matrix of an actual intertwiner for a shifted pair
alpha = 1.3
base = coined(0.5)
shifted = WalkSpec(
    n=2, terms={j: np.exp(1j * alpha * j) * a for j, a in base.terms.items()}
)
d1, d2 = decompose(base, 512), decompose(shifted, 512)
for p1 in d1.primes:
    for p2 in d2.primes:
        match = find_translation(p1.band, p2.band)
        if match is None:
            continue
        v = build_intertwiner(match, p1.rate, 128)
        u1 = model_walk_matrix(p1.band, 128)
        u2 = model_walk_matrix(p2.band, 128)
        res = intertwiner_residual(u1, u2, v, margin=16)
        print(
            "shifted coined pair: recovered alpha %.9f (true %.1f), interior |V U1 - U2 V| = %.1e"
            % (match.alpha, alpha, res)
        )

# the commutant factors count the independent symmetries of one walk
rep = commutant_report(g4)
print("\ngrover4 commutant: %d factors" % rep.factor_count)
