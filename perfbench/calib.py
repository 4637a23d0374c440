"""Calibration kernels: how fast the host runs at this moment.

On a host whose cores are shared with other tenants the same operation
can take 1.75x as long from one second to the next, and the level drifts
over minutes; CPU time swings as much as wall time.  So every timed
interval is scaled to a fixed host speed: multiplied by REF / k, where k
is the time a fixed kernel takes around that interval and REF is the
kernel's time at the reference host's full speed.  A change to the
program scales the result as it scales the wall time; the host's moods
cancel out.

python_kernel is pure Python, for intervals spent mostly in the
interpreter (process start, imports) and for child processes, which must
not import numpy before the program does.  numpy_kernel runs LAPACK on
small matrices, like the program's eigensolves.
"""

from __future__ import annotations

import time

# kernel times at full speed on an Intel Xeon with a 2 MB L2 (2 vCPUs),
# the lowest seen over many runs
PYTHON_REF_S = 0.0180
NUMPY_REF_S = 0.0060

_batch = None


def python_kernel() -> float:
    """Seconds for a fixed pure-Python integer loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(200_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def numpy_kernel() -> float:
    """Seconds for the eigenvalues of a fixed batch of 256 complex 4 x 4 matrices, twice."""
    global _batch
    import numpy as np

    if _batch is None:
        rng = np.random.default_rng(0)
        _batch = rng.standard_normal((256, 4, 4)) + 1j * rng.standard_normal((256, 4, 4))
    t0 = time.perf_counter()
    np.linalg.eigvals(_batch)
    np.linalg.eigvals(_batch)
    return time.perf_counter() - t0
