"""Spectral analysis of one-dimensional banded unitary walks.

A walk is U = sum_j S^j (x) A_j on ell_2(Z) (x) C^n with finitely many
matrix coefficients A_j.  The package extracts its analytic eigenvalue
bands, classifies it up to equivalence into constant and prime model
summands, decides continuous-time realizability by winding numbers,
classifies intertwiners, and verifies the ballistic weak limit of the
dynamics against the band data.
"""

from .decompose import (
    ConstantSummand,
    Decomposition,
    PrimeModelWalk,
    assemble,
    cover_walk,
    decompose,
)
from .dynamics import (
    DistributionSnapshot,
    LimitLaw,
    MemoryCapExceeded,
    State,
    adjoint_walk,
    basis_state,
    empirical_moment,
    evolve,
    kolmogorov_distance,
    limit_law,
    parse_state,
    position_distribution,
    uniform_coin_state,
    write_distribution_csv,
)
from .fixtures import FIXTURES, build_fixture, fixture_names, shift_coin_walk
from .intertwine import (
    CommutantReport,
    IntertwinerSpace,
    TranslationMatch,
    build_intertwiner,
    commutant_report,
    find_translation,
    intertwiner_residual,
    intertwiner_space,
    model_walk_matrix,
    write_intertwiner_csv,
)
from .realize import (
    RealizabilityVerdict,
    generator_coefficients,
    is_ct_realizable,
    witness_step,
    write_witness_csv,
)
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
