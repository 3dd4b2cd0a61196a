"""Nonconforming finite elements for planar strain-gradient elasticity.

The package solves the clamped strain-gradient boundary value problem on
the unit square with three triangular element families (a tensor-product
NTW element, a tensor-product Specht triangle, and a modified Morley
triangle) and ships a verification and convergence harness around them.
"""

from .analysis import (
    KORN_BOUND,
    ConvergenceReport,
    ConvergenceRow,
    KornSearch,
    coercivity_check,
    convergence_study,
    edge_mean_jumps,
    energy_error,
    jump_check,
    korn_ratio,
    korn_ratio_min,
    mesh_diameter,
    rates_from_errors,
)
from .assembly import (
    DofMap,
    MaterialParams,
    SparseSystem,
    assemble,
    build_dofmap,
    element_load,
    element_stiffness,
    element_stiffness_morley,
)
from .elements import (
    ElementKind,
    LocalBasis,
    build_basis,
    duality_residual,
    interpolate,
    pi1_map,
    specht_constraint_residual,
    verify_affine_identity,
)
from .manufactured import ManufacturedField, example_field, example_layer, example_smooth, source
from .mesh import (
    ElementGeometry,
    Mesh,
    element_geometry,
    load_mesh,
    make_structured,
    refine,
    triangle_geometry,
)
from .quadrature import EdgeRule, TriangleRule, edge_rule, triangle_rule
from .solver import SolveReport, SolverError, solve

__all__ = [
    "KORN_BOUND",
    "ConvergenceReport",
    "ConvergenceRow",
    "DofMap",
    "EdgeRule",
    "ElementGeometry",
    "ElementKind",
    "KornSearch",
    "LocalBasis",
    "ManufacturedField",
    "MaterialParams",
    "Mesh",
    "SolveReport",
    "SolverError",
    "SparseSystem",
    "TriangleRule",
    "assemble",
    "build_basis",
    "build_dofmap",
    "coercivity_check",
    "convergence_study",
    "duality_residual",
    "edge_mean_jumps",
    "edge_rule",
    "element_geometry",
    "element_load",
    "element_stiffness",
    "element_stiffness_morley",
    "energy_error",
    "example_field",
    "example_layer",
    "example_smooth",
    "interpolate",
    "jump_check",
    "korn_ratio",
    "korn_ratio_min",
    "load_mesh",
    "make_structured",
    "mesh_diameter",
    "pi1_map",
    "rates_from_errors",
    "refine",
    "solve",
    "source",
    "specht_constraint_residual",
    "triangle_geometry",
    "triangle_rule",
    "verify_affine_identity",
]
