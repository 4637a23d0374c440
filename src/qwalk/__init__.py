"""Spectral analysis of one-dimensional banded unitary walks.

A walk is U = sum_j S^j (x) A_j on ell_2(Z) (x) C^n with finitely many
matrix coefficients A_j.  The package extracts its analytic eigenvalue
bands, classifies it up to equivalence into constant and prime model
summands, decides continuous-time realizability by winding numbers,
classifies intertwiners, and verifies the ballistic weak limit of the
dynamics against the band data.

The package exports every name in the __all__ of its modules, and the
modules themselves.  Those of decompose, fixtures, spectral and walkspec
are bound on import; realize, intertwine and dynamics, and their names,
are loaded on first access (PEP 562), so that a command line run imports
only what its subcommand uses; a public name that none of them exports
loads all three before it is refused.  decompose is bound eagerly: it
names both a submodule and the public function, and the function must
win.
"""

from .decompose import *
from .fixtures import *
from .spectral import *
from .walkspec import *

__version__ = "0.1.0"

# loaded on first access, and searched for a name in this order: the
# cheapest import first
_LAZY = ("realize", "intertwine", "dynamics")


def _module(name):
    import importlib

    return importlib.import_module("." + name, __name__)


def __getattr__(name):
    if name in _LAZY:
        return _module(name)
    if name == "__all__":
        modules = ("decompose", "fixtures", "spectral", "walkspec") + _LAZY
        value = sorted(set(modules).union(*(_module(m).__all__ for m in modules)))
    else:
        import importlib.util

        # a private name or a submodule is no exported name: probing one
        # (as from qwalk import cli does) loads nothing
        owner = None
        if not name.startswith("_") and importlib.util.find_spec("." + name, __name__) is None:
            owner = next((m for m in _LAZY if name in _module(m).__all__), None)
        if owner is None:
            raise AttributeError("module %r has no attribute %r" % (__name__, name))
        value = getattr(_module(owner), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
