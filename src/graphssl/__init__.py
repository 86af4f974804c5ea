"""Graph-based semi-supervised learning with sparse spectral regularization.

Classification propagates a handful of labels over a k-NN affinity graph.
Two regularizers are provided: the classical quadratic Laplacian penalty,
solved in closed form, and a weighted-L1 penalty over the coefficients of
the smallest Laplacian eigenvectors, solved exactly by a per-coefficient
soft threshold because the eigenvectors are orthonormal. The L1 route is
robust to mislabeled points and also powers a co-refinement pipeline for
paired bag-of-words matrices.
"""

from .errors import ComputationError, ConvergenceError, IsolatedVertexError
from .linalg import check_symmetric, smallest_eigenpairs
from .graph import (
    GraphConfig,
    gaussian_knn_graph,
    linear_knn_graph,
    normalized_laplacian,
)
from .spectral import (
    SmoothnessReport,
    SpectralBasis,
    apply_b,
    build_basis,
    l1_smoothness,
    l2_smoothness,
    smoothness_report,
)
from .solver import (
    kkt_residual,
    l1_coefficients,
    objective,
    soft_threshold,
)
from .ssl import (
    Solution,
    encode_labels,
    evaluate,
    inject_label_noise,
    l1_ssl_fit,
    l2_ssl_fit,
    select_labeled,
    two_moons,
)
from .bow import (
    TABLE2_TEXTUAL,
    TABLE2_VISUAL,
    RefineConfig,
    apply_error_sparsity,
    co_refine,
    refine,
)

__version__ = "0.1.0"

__all__ = [
    "ComputationError",
    "ConvergenceError",
    "IsolatedVertexError",
    "check_symmetric",
    "smallest_eigenpairs",
    "GraphConfig",
    "gaussian_knn_graph",
    "linear_knn_graph",
    "normalized_laplacian",
    "SmoothnessReport",
    "SpectralBasis",
    "apply_b",
    "build_basis",
    "l1_smoothness",
    "l2_smoothness",
    "smoothness_report",
    "kkt_residual",
    "l1_coefficients",
    "objective",
    "soft_threshold",
    "Solution",
    "encode_labels",
    "evaluate",
    "inject_label_noise",
    "l1_ssl_fit",
    "l2_ssl_fit",
    "select_labeled",
    "two_moons",
    "TABLE2_TEXTUAL",
    "TABLE2_VISUAL",
    "RefineConfig",
    "apply_error_sparsity",
    "co_refine",
    "refine",
]
