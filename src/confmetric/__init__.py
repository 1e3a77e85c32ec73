"""Discretely conformal metrics with prescribed angle sums.

Newton iteration on per-vertex log scale factors, interleaved with
intrinsic Delaunay retriangulation by Ptolemy flips; surfaces with
boundary are handled through a reflection-symmetric double cover.
"""

from .cover import DoubleCover, build_double_cover, restrict_to_single_cover
from .halfedge import (
    CombinatorialMesh,
    FlipError,
    MeshError,
    asymmetric_flip,
    build_from_face_edge_lists,
    build_from_face_lists,
    validate,
)
from .metric import (
    FlipBudgetError,
    FlipLog,
    MetricError,
    PennerMetric,
    corner_angle,
    delaunay_value,
    gradient,
    hessian,
    is_delaunay,
    make_delaunay,
    scaled_length,
    vertex_angle_sums,
)
from .solver import (
    LineSearchError,
    NewtonStep,
    SolverConfig,
    SolverError,
    SolverReport,
    find_conformal_metric,
    line_search,
    newton_direction,
    scale_conformally,
    solve_problem,
)
from .symmetry import (
    FlipRecord,
    FlipType,
    ReflectionMap,
    SymmetryError,
    apply_symmetric_flip,
    classify_flip,
    validate_symmetry,
)

__all__ = [
    "CombinatorialMesh",
    "DoubleCover",
    "FlipBudgetError",
    "FlipError",
    "FlipLog",
    "FlipRecord",
    "FlipType",
    "LineSearchError",
    "MeshError",
    "MetricError",
    "NewtonStep",
    "PennerMetric",
    "ReflectionMap",
    "SolverConfig",
    "SolverError",
    "SolverReport",
    "SymmetryError",
    "apply_symmetric_flip",
    "asymmetric_flip",
    "build_double_cover",
    "build_from_face_edge_lists",
    "build_from_face_lists",
    "classify_flip",
    "corner_angle",
    "delaunay_value",
    "find_conformal_metric",
    "gradient",
    "hessian",
    "is_delaunay",
    "line_search",
    "make_delaunay",
    "newton_direction",
    "restrict_to_single_cover",
    "scale_conformally",
    "scaled_length",
    "solve_problem",
    "validate",
    "validate_symmetry",
    "vertex_angle_sums",
]

__version__ = "0.1.0"
