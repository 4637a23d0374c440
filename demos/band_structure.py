"""Extract and print the band structure of the built-in walks.

Every walk here is a banded unitary U = sum_j S^j A_j.  Its spectrum
organizes into analytic eigenvalue curves ("bands") that may only close
up after several trips around the Brillouin torus; the monodromy cycle
type records how the sheets permute.
"""

import io

import numpy as np

from qwalk import sample_bands, write_band_csv
from qwalk.fixtures import FIXTURES

GRID = 256

for name in ("free", "coined(0.5)", "grover3", "grover4", "cube_root"):
    base = name.split("(")[0]
    spec = FIXTURES[base]() if "(" not in name else FIXTURES[base](0.5)
    band_set = sample_bands(spec, GRID)
    print("== %s  (n = %d) ==" % (name, spec.n))
    for band in band_set.bands:
        v0 = band.samples[0]
        kind = "constant" if band.is_constant else "degree %d" % band.degree
        print(
            "  %-9s  mult %d  winding %+d  min period %s  lambda(0) = %.4f%+.4fi"
            % (
                kind,
                band.multiplicity,
                band.winding,
                band.min_period,
                v0.real,
                v0.imag,
            )
        )
    cycle = sorted(
        d for b in band_set.bands for d in [b.degree] * b.multiplicity
    )
    print("  monodromy cycle lengths:", cycle)
    print()

# the CSV dump is what `qwalk analyze --format csv` prints
buf = io.StringIO()
write_band_csv(sample_bands(FIXTURES["grover3"](), GRID), buf)
head = buf.getvalue().split("\n")[:4]
print("band CSV preview (grover3):")
for line in head:
    print("  " + line)

# sanity: every fiber of the band set reproduces the symbol spectrum
from qwalk import symbol_at

spec = FIXTURES["grover4"]()
band_set = sample_bands(spec, GRID)
k = 2 * np.pi * 37 / GRID
got = np.sort_complex(band_set.sheet_values_at(k))
want = np.sort_complex(np.linalg.eigvals(symbol_at(spec, k)))
print("\nfiber check at k = %.4f: max error %.2e" % (k, np.max(np.abs(got - want))))
