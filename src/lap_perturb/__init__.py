"""Laplacian eigenvalues from degree-perturbation series with Euler acceleration.

Compute Taylor coefficients of the eigenvalue of diag(degrees) + zeta*A
branching from a unique node degree, accelerate the series with the Euler
t-transform, and verify everything against a built-in dense eigensolver —
in exact rational arithmetic whenever the inputs allow it.
"""

from .almost_regular import (
    AlmostRegularGraph,
    ChcTable,
    ContourError,
    ContourResult,
    almost_regular,
    almost_regular_series,
    chc_bound,
    chc_bound_half,
    chc_build,
    cm_closed_form,
    complete_graph_chc,
    contour_eigenvalue,
)
from .domain import NumberDomain, exact_domain, float_domain
from .eigen import (
    Spectrum,
    SpectralBoundsReport,
    accuracy_alpha,
    spectral_bounds,
    symmetric_eigen,
)
from .euler import (
    ConvergenceReport,
    EulerParams,
    convergence_classify,
    euler_k4_estimate,
    euler_series,
    taylor_partial_sums,
)
from .examples_data import example_graph
from .graph import (
    DegreeProfile,
    Graph,
    WalkCounts,
    antiregular,
    build_graph,
    closed_walk_counts,
    complete_graph,
    degree_profile,
    erdos_renyi,
    format_edge_list,
    graph_from_json,
    graph_to_json,
    laplacian,
    parse_edge_list,
    perturbed_matrix,
    ring_with_core,
)
from .perturb import (
    CoefficientTable,
    NonUniqueDegreeError,
    SeriesEvaluation,
    beta_rows,
    coefficient_bounds_ok,
    coefficients,
    reconstruct_eigenvector,
)
from .sweep import ExperimentConfig, run_sweep

__version__ = "0.1.0"
