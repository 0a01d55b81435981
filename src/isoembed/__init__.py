"""isoembed: data-adaptive orthogonal linear embeddings that minimize the
maximum squared-length distortion over a set of unit vectors.

The high-level entry point is :func:`run_projected_ascent`; see the CLI
(``embed``) for file-based runs and the demos/ scripts for walkthroughs.
"""

from .ascent import (
    AscentConfig,
    EmbeddingResult,
    IterationRecord,
    WorstDistortion,
    default_step_size,
    dual_gradient,
    dual_objective,
    entropic_step_size,
    primal_distortion,
    run_projected_ascent,
)
from .baselines import pca_basis, random_orthonormal_basis
from .bounds import (
    BoundReport,
    approximation_bound,
    duality_sandwich_check,
    singular_spectrum,
)
from .errors import (
    CoincidentPairError,
    ContractError,
    DegenerateVectorError,
    EmbeddingError,
    LoadError,
    ShapeError,
)
from .ingest import load_points, normalize_rows, pairwise_unit_differences
from .pairs import PairDifferenceSet
from .simplex import is_on_simplex, project_to_simplex
from .spectral import (
    SpectralState,
    top_k_eigenpairs,
    uniform_moment_matrix,
    weighted_moment_matrix,
)
from .types import (
    DirectionSet,
    OrthonormalBasis,
    PointSet,
    SimplexWeights,
    UnitVectorSet,
    matrix_fingerprint,
)

__version__ = "0.1.0"

__all__ = [
    "AscentConfig",
    "BoundReport",
    "CoincidentPairError",
    "ContractError",
    "DegenerateVectorError",
    "DirectionSet",
    "EmbeddingError",
    "EmbeddingResult",
    "IterationRecord",
    "LoadError",
    "OrthonormalBasis",
    "PairDifferenceSet",
    "PointSet",
    "ShapeError",
    "SimplexWeights",
    "SpectralState",
    "UnitVectorSet",
    "WorstDistortion",
    "approximation_bound",
    "default_step_size",
    "dual_gradient",
    "dual_objective",
    "duality_sandwich_check",
    "entropic_step_size",
    "is_on_simplex",
    "load_points",
    "matrix_fingerprint",
    "normalize_rows",
    "pairwise_unit_differences",
    "pca_basis",
    "primal_distortion",
    "project_to_simplex",
    "random_orthonormal_basis",
    "run_projected_ascent",
    "singular_spectrum",
    "top_k_eigenpairs",
    "uniform_moment_matrix",
    "weighted_moment_matrix",
]
