"""Spectral analysis of one-dimensional banded unitary walks.

A walk is U = sum_j S^j (x) A_j on ell_2(Z) (x) C^n with finitely many
matrix coefficients A_j.  The package extracts its analytic eigenvalue
bands, classifies it up to equivalence into constant and prime model
summands, decides continuous-time realizability by winding numbers,
classifies intertwiners, and verifies the ballistic weak limit of the
dynamics against the band data.

The names of the dynamics, intertwine and realize modules, and those
modules themselves, are loaded on first access (PEP 562), so that a
command line run imports only what its subcommand uses.  decompose is
bound eagerly: it names both a submodule and the public function, and
the function must win.
"""

from .decompose import (
    ConstantSummand,
    Decomposition,
    PrimeModelWalk,
    assemble,
    cover_walk,
    decompose,
)
from .fixtures import FIXTURES, build_fixture, fixture_names, shift_coin_walk
from .spectral import (
    Band,
    BandSet,
    UnresolvedCrossing,
    det_winding,
    monodromy,
    sample_bands,
    write_band_csv,
)
from .walkspec import (
    UnitarityError,
    WalkSpec,
    WalkSpecError,
    amplify,
    commutator_norm,
    derivative_symbol_on_grid,
    direct_sum,
    parse_walk_spec,
    serialize_walk_spec,
    spec_digest,
    symbol_at,
    symbol_on_grid,
)

__version__ = "0.1.0"

# submodule -> the names it exports here, imported on first access
_LAZY = {
    "dynamics": (
        "DistributionSnapshot",
        "LimitLaw",
        "MemoryCapExceeded",
        "State",
        "adjoint_walk",
        "basis_state",
        "empirical_moment",
        "evolve",
        "kolmogorov_distance",
        "limit_law",
        "parse_state",
        "position_distribution",
        "uniform_coin_state",
        "write_distribution_csv",
    ),
    "intertwine": (
        "CommutantReport",
        "IntertwinerSpace",
        "TranslationMatch",
        "build_intertwiner",
        "commutant_report",
        "find_translation",
        "intertwiner_residual",
        "intertwiner_space",
        "model_walk_matrix",
        "write_intertwiner_csv",
    ),
    "realize": (
        "RealizabilityVerdict",
        "generator_coefficients",
        "is_ct_realizable",
        "witness_step",
        "write_witness_csv",
    ),
}
_ORIGIN = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | set(_LAZY) | set(_ORIGIN)
)


def __getattr__(name):
    import importlib

    if name in _LAZY:
        return importlib.import_module("." + name, __name__)
    if name not in _ORIGIN:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _ORIGIN[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
