"""Built-in example walks, addressable by name from the CLI and tests.

Shift-coin constructions write U = diag(S^{a_i}) C, so coefficient A_j
holds the rows of the coin whose shift exponent is j.  Expressions like
"coined(0.5)" or "det_winding(r=0.6, b=0.8)" are parsed with int or
float literal arguments only, bound to the fixture's signature; a bad
expression raises ValueError naming it.
"""

from __future__ import annotations

import ast
import inspect
import math

import numpy as np

from .walkspec import WalkSpec

__all__ = ["FIXTURES", "fixture_names", "build_fixture", "shift_coin_walk"]


def shift_coin_walk(shifts, coin) -> WalkSpec:
    """U = diag(S^{a_i}) C for integer shifts a and a unitary coin C."""
    coin = np.asarray(coin, dtype=complex)
    n = coin.shape[0]
    if coin.shape != (n, n) or len(shifts) != n:
        raise ValueError("coin must be square with one shift per row")
    terms: dict[int, np.ndarray] = {}
    for i, a in enumerate(shifts):
        terms.setdefault(int(a), np.zeros((n, n), dtype=complex))[i, :] = coin[i, :]
    return WalkSpec(n=n, terms=terms)


def _grover_coin(n: int) -> np.ndarray:
    return 2.0 / n * np.ones((n, n)) - np.eye(n)


def grover3() -> WalkSpec:
    return shift_coin_walk((-1, 0, 1), _grover_coin(3))


def grover4() -> WalkSpec:
    return shift_coin_walk((-3, -1, 1, 3), _grover_coin(4))


def grover4_subwalk() -> WalkSpec:
    """Restriction of grover4 to the two-dimensional moving subspace.

    Carries exactly the two winding bands of grover4, which makes the
    pair the standard positive intertwiner example.
    """
    half = 0.5
    terms = {
        3: [[-half, 0.0], [0.0, 0.0]],
        1: [[-half, half], [half, 0.0]],
        -1: [[0.0, -half], [-half, -half]],
        -3: [[0.0, 0.0], [0.0, -half]],
    }
    return WalkSpec(n=2, terms=terms)


def grover3_subwalk() -> WalkSpec:
    """Restriction of grover3 to the complement of its flat band."""
    w = math.sqrt(2.0) * 1j
    third = 1.0 / 3.0
    terms = {
        0: np.array([[-2.0, -w], [-w, -2.0]]) * third,
        1: np.array([[-1.0, 0.0], [w, 0.0]]) * third,
        -1: np.array([[0.0, w], [0.0, -1.0]]) * third,
    }
    return WalkSpec(n=2, terms=terms)


def cube_root() -> WalkSpec:
    """Three-level walk whose single band is the cube root e^{2ik/3}."""
    a1 = np.zeros((3, 3))
    a1[0, 1] = 1.0
    a1[1, 2] = 1.0
    a0 = np.zeros((3, 3))
    a0[2, 0] = 1.0
    return WalkSpec(n=3, terms={1: a1, 0: a0})


def coined(r: float = 0.5) -> WalkSpec:
    """Standard coined walk with transmission r, 0 < r < 1."""
    if not 0.0 < r < 1.0:
        raise ValueError("coined walk needs 0 < r < 1")
    s = math.sqrt(1.0 - r * r)
    return WalkSpec(
        n=2,
        terms={
            -1: [[r, -s], [0.0, 0.0]],
            1: [[0.0, 0.0], [s, r]],
        },
    )


def det_winding_walk(r: float = 0.6, b: float = 0.8) -> WalkSpec:
    """Two-level walk with det winding 1 (hence never realizable)."""
    if abs(r * r + b * b - 1.0) > 1e-12:
        raise ValueError("det_winding walk needs r^2 + b^2 = 1")
    return WalkSpec(
        n=2,
        terms={
            1: [[r, -b], [0.0, 0.0]],
            0: [[0.0, 0.0], [b, r]],
        },
    )


def free() -> WalkSpec:
    """The plain shift S; one band e^{ik}."""
    return WalkSpec(n=1, terms={1: [[1.0]]})


def constant(n: int = 1, phase: float = 0.0) -> WalkSpec:
    """e^{i phase} times the identity on n internal levels."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("constant walk needs an integer n >= 1")
    return WalkSpec(n=int(n), terms={0: np.exp(1j * phase) * np.eye(int(n))})


FIXTURES = {
    "grover3": grover3,
    "grover4": grover4,
    "grover4_subwalk": grover4_subwalk,
    "grover3_subwalk": grover3_subwalk,
    "cube_root": cube_root,
    "coined": coined,
    "det_winding": det_winding_walk,
    "free": free,
    "constant": constant,
}


def fixture_names() -> list:
    return sorted(FIXTURES)


def build_fixture(expr: str) -> WalkSpec:
    """Instantiate a fixture from 'name' or 'name(arg, key=val)' syntax."""
    try:
        node = ast.parse(expr.strip(), mode="eval").body
    except SyntaxError as exc:
        raise ValueError("cannot parse fixture expression %r" % expr) from exc
    if isinstance(node, ast.Name):
        name, args, kwargs = node.id, [], {}
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name = node.func.id
        try:
            args = [ast.literal_eval(a) for a in node.args]
            kwargs = {kw.arg: ast.literal_eval(kw.value) for kw in node.keywords}
        except ValueError as exc:
            raise ValueError(
                "fixture arguments must be literals: %r" % expr
            ) from exc
    else:
        raise ValueError("cannot parse fixture expression %r" % expr)
    if name not in FIXTURES:
        raise ValueError(
            "unknown fixture %r; available: %s" % (name, ", ".join(fixture_names()))
        )
    try:
        bound = inspect.signature(FIXTURES[name]).bind(*args, **kwargs)
    except TypeError as exc:
        raise ValueError("%s in fixture expression %r" % (exc, expr)) from exc
    for value in bound.arguments.values():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError("fixture arguments must be numbers: %r" % expr)
    try:
        return FIXTURES[name](*bound.args, **bound.kwargs)
    except ValueError as exc:
        raise ValueError("%s: %r" % (exc, expr)) from exc
