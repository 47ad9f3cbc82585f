"""PCA-based coarse-graining of pure quantum states.

Fit an orthonormal component basis to a set of M unit vectors in a
D-dimensional Hilbert space (mean vector first, then singular directions
of the mean-subtracted coefficient matrix), truncate to the d most
important components, and study what the truncation does to operators,
Hamiltonian dynamics, and single-qubit entanglement entropy.
"""

from .decimation import (
    CoarseGrainMap,
    CoarseState,
    build_map,
    coarse_grain_operator,
    decimate_state,
    expectation,
    retained_power,
    select_dimension,
)
from .entanglement import (
    LN2,
    EntropyCurve,
    QubitFactorization,
    entropy_vs_dimension_curve,
    reduced_density_matrix,
    saturation_dimension,
    von_neumann_entropy,
)
from .errors import (
    AllZeroDeviations,
    BadDimension,
    BadQubitIndex,
    DimMismatch,
    DomainError,
    NoConvergence,
    NonFinite,
    NonRealExpectation,
    NotDensityMatrix,
    NotHermitian,
    NotNormalized,
    NotPowerOfTwo,
    RegimeViolation,
    ZeroNorm,
)
from .evolution import (
    IsingChain,
    coarse_grain_hamiltonian,
    coarse_grained_trajectory,
    evolve_sequence,
    ising_chain,
    random_hamiltonian,
)
from .numerics import DEFAULT_TOL, Tolerances
from .pca import PcaModel, fit_pca, importances
from .stateset import (
    NormPolicy,
    StateSet,
    column_means,
    random_state_set,
    random_state_vector,
    validate_state_set,
)

__version__ = "0.1.0"

__all__ = [
    "AllZeroDeviations",
    "BadDimension",
    "BadQubitIndex",
    "CoarseGrainMap",
    "CoarseState",
    "DEFAULT_TOL",
    "DimMismatch",
    "DomainError",
    "EntropyCurve",
    "IsingChain",
    "LN2",
    "NoConvergence",
    "NonFinite",
    "NonRealExpectation",
    "NormPolicy",
    "NotDensityMatrix",
    "NotHermitian",
    "NotNormalized",
    "NotPowerOfTwo",
    "PcaModel",
    "QubitFactorization",
    "RegimeViolation",
    "StateSet",
    "Tolerances",
    "ZeroNorm",
    "build_map",
    "coarse_grain_hamiltonian",
    "coarse_grain_operator",
    "coarse_grained_trajectory",
    "column_means",
    "decimate_state",
    "entropy_vs_dimension_curve",
    "evolve_sequence",
    "expectation",
    "fit_pca",
    "importances",
    "ising_chain",
    "random_hamiltonian",
    "random_state_set",
    "random_state_vector",
    "reduced_density_matrix",
    "retained_power",
    "saturation_dimension",
    "select_dimension",
    "validate_state_set",
    "von_neumann_entropy",
]
