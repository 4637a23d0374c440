import numpy as np
import pytest
from scipy.linalg import qr

from qwalk import decompose
from qwalk.fixtures import FIXTURES, shift_coin_walk

# documents that must be refused: JSON true is an int to Python and NaN
# passes every tolerance comparison, so each would otherwise load
BAD_WALK_DOCUMENTS = {
    "n_true": '{"n": true, "terms": [{"shift": 1, "matrix": [[[1.0, 0.0]]]}]}',
    "shift_true": '{"n": 1, "terms": [{"shift": true, "matrix": [[[1.0, 0.0]]]}]}',
    "entry_bool": '{"n": 1, "terms": [{"shift": 1, "matrix": [[[true, false]]]}]}',
    "entry_nan": '{"n": 1, "terms": [{"shift": 1, "matrix": [[[NaN, 0.0]]]}]}',
    "entry_inf": '{"n": 1, "terms": [{"shift": 1, "matrix": [[[1e400, 0.0]]]}]}',
}
BAD_STATE_DOCUMENTS = {
    "component_nan": '{"entries": [{"site": 0, "vector": [[NaN, 0]]}]}',
    "component_bool": '{"entries": [{"site": 0, "vector": [[true, false]]}]}',
}


def random_walk(seed, n_max=5, shift_max=3):
    """Seeded shift-block x coin walk used by all property suites."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max))
    shifts = rng.integers(-shift_max, shift_max + 1, n)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = qr(z)
    coin = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return shift_coin_walk(tuple(int(s) for s in shifts), coin)


def real_random_walk(seed, n_max=5, shift_max=3):
    """random_walk's shift blocks with a seeded real orthogonal coin."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max))
    shifts = rng.integers(-shift_max, shift_max + 1, n)
    q, r = qr(rng.standard_normal((n, n)))
    return shift_coin_walk(tuple(int(s) for s in shifts), q * np.sign(np.diagonal(r)))


@pytest.fixture(scope="session")
def grover3_dec():
    return decompose(FIXTURES["grover3"]())


@pytest.fixture(scope="session")
def grover4_dec():
    return decompose(FIXTURES["grover4"]())


@pytest.fixture(scope="session")
def coined_dec():
    return decompose(FIXTURES["coined"](0.5))
