"""Energy-norm errors, convergence rates, and inequality verifications.

The error norm is the broken quantity ``|||v||| = ||grad v|| + iota ||grad^2 v||``
with elementwise derivatives of the full discrete function, for every
family: ``||grad v||`` is the L2 norm of the broken gradient, and
``||grad^2 v||`` the L2 norm of the pointwise full Frobenius norm of the
broken Hessian, both mixed entries counted.  The morley norm also uses the full
broken gradient, not the gradient of the linear vertex interpolant that
its membrane form uses.  The relative error divides by the same norm of
the exact field computed with the same quadrature; an exact field of norm
0 has no relative error and raises.  The exact derivatives come from one
:meth:`~sgfem.manufactured.ManufacturedField.derivative_rows` read per
error, and the discrete ones are subtracted from those rows in place.
The coercivity check and the Korn ratio use the distinct-entry Hessian
norm instead, which counts the mixed entry once.

Every mesh-level function takes a :class:`~sgfem.assembly.DofMap`, which
carries the geometry and shape coefficients of one family on one mesh per
class of triangles, and keeps the matrix pattern, the two ``iota``-free
forms and the first solve's elimination order once they are built, so a
study computes them once per mesh and shares them across every ``iota``,
the solve and the energy error.  The coercivity check reuses the same
forms, and its Gram matrices are assembled on the same pattern.

The inequality checks certify, numerically and with independently
assembled right-hand sides, the three structural facts the convergence
theory rests on: the pointwise bound ``|grad eps(v)|^2 >= (1 - 1/sqrt(2))
|grad^2 v|^2`` (second derivative norm counting each distinct entry once),
the coercivity of the assembled forms, and the vanishing mean of
normal-derivative jumps across interior edges.
"""

from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from .assembly import DofMap, MaterialParams, assemble, build_dofmap
from .assembly import stiffness_matrix
from .elements import MORLEY_PI1, ElementKind, MonoTables, edge_normal_moments, evaluate
from .elements import build_basis  # noqa: F401  (bound for the benchmark tracer, which wraps it)
from .manufactured import ManufacturedField, example_field, source
from .mesh import ElementGeometry, Mesh, refine
from .mesh import element_geometry  # noqa: F401  (bound for the benchmark tracer, which wraps it)
from .quadrature import triangle_rule
from .solver import SolverError, solve

__all__ = [
    "ConvergenceRow",
    "ConvergenceReport",
    "KornSearch",
    "energy_error",
    "rates_from_errors",
    "convergence_study",
    "korn_ratio",
    "korn_ratio_min",
    "coercivity_check",
    "jump_check",
    "edge_mean_jumps",
    "gram_blocks",
    "mesh_diameter",
    "local_coefficients",
]

KORN_BOUND = 1.0 - 1.0 / np.sqrt(2.0)

_GRAM_RULE = triangle_rule(8)
_GRAM_TABLES = MonoTables(_GRAM_RULE.points)
# Weights of the distinct-entry Hessian norm: (1, 2) and (2, 1) count once.
_DISTINCT = np.array([[1.0, 1.0], [0.0, 1.0]])
# Counts of the Hessian rows d_xx, d_xy, d_yy in the full Frobenius norm.
_FULL_HESSIAN = np.array([1.0, 2.0, 1.0])


def mesh_diameter(mesh: Mesh) -> float:
    """Length of the longest edge."""
    vec = mesh.vertices[mesh.edge_vertices[:, 1]] - mesh.vertices[mesh.edge_vertices[:, 0]]
    return float(np.hypot(vec[:, 0], vec[:, 1]).max())


def local_coefficients(dofmap, full_dofs: np.ndarray) -> np.ndarray:
    """Per-element (nloc, 2) coefficient blocks copied out of the full
    vector, whose entry ``2 s + c`` is component ``c`` of scalar dof ``s``."""
    return full_dofs.reshape(-1, 2)[dofmap.scatter]


def _squares(rows, weights):
    """Weighted sums of squares of (2, 5, n) derivative rows in the order of
    :meth:`~sgfem.manufactured.ManufacturedField.derivative_rows`: the
    squared gradient norm and the squared full Frobenius Hessian norm, which
    counts the mixed row twice."""
    sums = ((rows * rows) @ weights).sum(axis=0)
    return sums[:2].sum(), sums[2:] @ _FULL_HESSIAN


def energy_error(dofmap: DofMap, full_dofs: np.ndarray, field: ManufacturedField):
    """Absolute and relative energy error of a discrete solution.

    The norm is ``||grad v|| + iota ||grad^2 v||``: the broken L2 norm of
    the gradient plus ``iota`` times the broken L2 norm of the full
    Frobenius Hessian, whose two mixed entries both count.  ``full_dofs``
    is the full coefficient vector (boundary entries included, normally
    zero).  The exact derivatives come from one
    ``field.derivative_rows`` read over the dof map's quadrature
    :attr:`~sgfem.assembly.DofMap.points`, the load's, in block order.  The
    discrete ones come from the class
    :attr:`~sgfem.assembly.DofMap.derivative_tables`, one matrix product
    per class block (:attr:`~sgfem.assembly.DofMap.blocks`), and are
    subtracted from the exact rows in place.  Returns
    ``(absolute, relative)``; raises ``ValueError`` if the exact field's
    norm is 0 or not finite.
    """
    full_dofs = np.asarray(full_dofs, dtype=float)
    if full_dofs.shape != (dofmap.n_vector,):
        raise ValueError(
            f"dof vector has shape {full_dofs.shape}, expected ({dofmap.n_vector},)"
        )
    points = dofmap.points
    w = points.weights.ravel()
    rows = field.derivative_rows(points)
    iota = field.mat.iota
    nrm_g, nrm_h = _squares(rows, w)
    norm = np.sqrt(nrm_g) + iota * np.sqrt(nrm_h)
    if not (np.isfinite(norm) and norm > 0.0):
        raise ValueError(f"the exact field has energy norm {norm}, so no relative error")
    local = local_coefficients(dofmap, full_dofs)[dofmap.order]
    by_point = rows.reshape(2, 5, *points.weights.shape)
    tables = dofmap.derivative_tables
    for tris, cls, k, m in dofmap.blocks:
        # Row 2 i + c of class j: component c on the class's triangle i.
        discrete = local[tris].swapaxes(1, 2).reshape(k, 2 * m, -1) @ tables[cls]
        by_point[:, :, tris] -= discrete.reshape(k * m, 2, 5, -1).transpose(1, 2, 0, 3)
    err_g, err_h = _squares(rows, w)
    absolute = np.sqrt(err_g) + iota * np.sqrt(err_h)
    return float(absolute), float(absolute / norm)


def rates_from_errors(errors):
    """log2 ratios of consecutive errors; None for the first level."""
    rates = [None]
    for prev, cur in zip(errors[:-1], errors[1:]):
        rates.append(float(np.log2(prev / cur)))
    return rates


@dataclass
class ConvergenceRow:
    level: int
    h: float
    dofs: int
    energy_err: float
    rel_energy_err: float
    rate: float | None


@dataclass
class ConvergenceReport:
    kind: str
    example: str
    iota: float
    lam: float
    mu: float
    rows: list = dataclass_field(default_factory=list)


def convergence_study(
    kind,
    example: str,
    iotas,
    levels: int,
    base_mesh: Mesh,
    lam: float = 10.0,
    mu: float = 1.0,
):
    """Refine, solve and measure for each iota; one report per iota.

    Levels are the outer loop: each mesh gets one :class:`DofMap`, shared
    by every iota's assembly and energy error, and is released once the
    level's rows are recorded, so only one level's dof map is alive at a
    time.  The first iota's solve on a mesh computes the elimination order
    and the later ones reuse it (:mod:`sgfem.solver`).
    """
    kind = ElementKind(kind)
    if levels < 1:
        raise ValueError("levels must be at least 1")
    mats = [MaterialParams(lam=lam, mu=mu, iota=float(iota)) for iota in iotas]
    fields = [example_field(example, mat) for mat in mats]
    sources = [source(field) for field in fields]
    reports = [
        ConvergenceReport(kind=kind.value, example=example, iota=float(iota), lam=lam, mu=mu)
        for iota in iotas
    ]
    mesh = base_mesh
    for level in range(levels):
        if level:
            mesh = refine(mesh)
        dofmap = build_dofmap(mesh, kind)
        h = mesh_diameter(mesh)
        for report, mat, field, f in zip(reports, mats, fields, sources):
            system = assemble(dofmap, mat, f)
            try:
                result = solve(system)
            except SolverError as exc:
                raise SolverError(f"iota={report.iota} level={level}: {exc}") from exc
            abs_err, rel_err = energy_error(dofmap, system.expand(result.solution), field)
            report.rows.append(
                ConvergenceRow(
                    level=level,
                    h=h,
                    dofs=int(system.retained.size),
                    energy_err=abs_err,
                    rel_energy_err=rel_err,
                    rate=None,
                )
            )
        # Release the level before the next one is refined and built.
        dofmap = system = result = None
    for report in reports:
        rates = rates_from_errors([row.rel_energy_err for row in report.rows])
        for row, rate in zip(report.rows, rates):
            row.rate = rate
    return reports


def korn_ratio(D: np.ndarray):
    """Ratio |grad eps|^2 / |grad^2 v|^2 for third-derivative arrays.

    ``D[..., i, j, k]`` holds d_j d_k v_i and must be symmetric in its last
    two axes.  The denominator counts each distinct entry (j <= k) once.
    """
    D = np.asarray(D, dtype=float)
    sym = 0.5 * (D + np.swapaxes(D, -3, -2))
    num = np.einsum("...ijk,...ijk->...", sym, sym)
    den = np.einsum("...ijk,...ijk,jk->...", D, D, _DISTINCT)
    return num / den


def _from_six(params):
    """Third-derivative arrays from the 6 distinct entries (D111, D112,
    D122, D211, D212, D222)."""
    a = np.asarray(params, dtype=float)
    D = np.empty(a.shape[:-1] + (2, 2, 2))
    for i in (0, 1):
        D[..., i, 0, 0] = a[..., 3 * i]
        D[..., i, 0, 1] = D[..., i, 1, 0] = a[..., 3 * i + 1]
        D[..., i, 1, 1] = a[..., 3 * i + 2]
    return D


@dataclass
class KornSearch:
    min_sampled: float
    min_directed: float


def korn_ratio_min(n_samples: int, seed: int = 0) -> KornSearch:
    """Minimum of the algebraic ratio over random samples, and its exact
    minimum over all directions.

    In the 6 distinct entries the ratio is a quotient of quadratic forms
    whose denominator is the squared Euclidean norm, so the minimum over
    all directions is the smallest eigenvalue of the numerator's matrix.
    The sampled ratios are the two forms evaluated at each sample, with no
    third-derivative array built; they agree with :func:`korn_ratio` to
    rounding.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    params = rng.normal(size=(n_samples, 6))
    # Row p: the symmetrized gradient of unit entry p, flattened.
    D = _from_six(np.eye(6))
    sym = (0.5 * (D + np.swapaxes(D, -3, -2))).reshape(6, -1)
    # |grad eps|^2 = |params @ sym|^2; the denominator counts each of the
    # six distinct entries once.
    ratios = np.square(params @ sym).sum(axis=1) / np.square(params).sum(axis=1)
    return KornSearch(
        min_sampled=float(ratios.min()),
        min_directed=float(np.linalg.eigvalsh(sym @ sym.T)[0]),
    )


def gram_blocks(coeffs, geom: ElementGeometry, morley: bool):
    """(T, n, n) element Gram blocks of the broken gradient and of the
    distinct-entry Hessian inner products; with ``morley`` the gradient is
    that of the linear vertex interpolant."""
    G, H = evaluate(coeffs, geom.grad_lambda, _GRAM_TABLES)
    w = geom.area[:, None] * _GRAM_RULE.weights
    if morley:
        lin_grad = MORLEY_PI1.T @ geom.grad_lambda
        g_sc = geom.area[:, None, None] * (lin_grad @ lin_grad.swapaxes(1, 2))
    else:
        g_sc = np.einsum("taqk,tbqk,tq->tab", G, G, w, optimize=True)
    h_sc = np.einsum("taqjk,tbqjk,jk,tq->tab", H, H, _DISTINCT, w, optimize=True)
    return g_sc, h_sc


def _gram_matrices(dofmap: DofMap):
    """Reduced Gram matrices of the broken gradient and distinct-entry
    Hessian inner products, assembled on the stiffness pattern with a
    quadrature rule and a contraction independent of the stiffness
    kernels; the blocks are computed once per class of triangles."""
    pattern = dofmap.pattern
    morley = dofmap.kind is ElementKind.MORLEY
    blocks = gram_blocks(dofmap.class_coeffs, dofmap.class_geom, morley)
    # The same scalar block acts on each displacement component.
    return tuple(pattern.matrix(pattern.scatter(np.kron(block, np.eye(2)))) for block in blocks)


def coercivity_check(dofmap: DofMap, materials, n_trials: int, seed: int = 0) -> np.ndarray:
    """Minimum of a_h(v,v) over the coercivity bound for random fields, one
    per material of ``materials``.

    The bound is ``(2 - sqrt(2)) mu (||grad v||^2 + iota^2 ||grad^2 v||^2)``
    with the distinct-entry Hessian norm; the morley family uses the
    constant ``mu/2`` and the vertex-interpolant gradient.  Values at or
    above 1 confirm the inequality.  Every material sees the same
    ``n_trials`` fields, and the Gram matrices are built once.  Raises
    ``ValueError`` if ``n_trials < 1``.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    n = len(dofmap.pattern.retained)
    if n == 0:
        return np.full(len(materials), np.inf)
    Gm, Hm = _gram_matrices(dofmap)
    constant = 0.5 if dofmap.kind is ElementKind.MORLEY else 2.0 - np.sqrt(2.0)
    V = np.random.default_rng(seed).normal(size=(n_trials, n))

    def quadratic(M):
        return np.einsum("ij,ji->i", V, M @ V.T)

    grad_sq, hess_sq = quadratic(Gm), quadratic(Hm)
    ratios = []
    for mat in materials:
        num = quadratic(stiffness_matrix(dofmap, mat)[0])
        den = constant * mat.mu * (grad_sq + mat.iota**2 * hess_sq)
        ratios.append((num / den).min())
    return np.array(ratios)


class _JumpLayout(NamedTuple):
    """What :func:`edge_mean_jumps` reads of a dof map besides the
    coefficients: ``moments[c, a, i]`` is the mean derivative of shape
    ``a`` of class ``c`` along the global normal of local edge ``i``, and
    ``slots[3 t + i]`` the row of that edge's side of triangle ``t`` in the
    (2 n_interior + 1, 2) side table: ``2 k + s`` for side ``s`` of interior
    edge ``k``, the spare last row for a boundary edge."""

    moments: np.ndarray
    slots: np.ndarray
    n_interior: int


def _jump_layout(dofmap: DofMap) -> _JumpLayout:
    mesh, geom = dofmap.mesh, dofmap.class_geom
    # The outward normal times the edge sign is the global normal; the
    # signs are equal across a class.
    signs = np.empty((len(dofmap.class_coeffs), 3))
    signs[dofmap.classes] = mesh.tri_edge_signs
    moments = edge_normal_moments(dofmap.class_coeffs, geom, geom.normals) * signs[:, None, :]
    interior = ~mesh.edge_is_boundary
    n_interior = int(np.count_nonzero(interior))
    row = np.where(interior, 2 * (np.cumsum(interior) - 1), 2 * n_interior)
    # Side 0 of an edge is edge_tris[e, 0], side 1 the other triangle.
    own = np.arange(mesh.num_triangles)[:, None]
    side = mesh.edge_tris[mesh.tri_edges, 1] == own
    slots = row[mesh.tri_edges] + side
    return _JumpLayout(moments, slots.ravel(), n_interior)


def edge_mean_jumps(dofmap: DofMap, local_coeffs: np.ndarray, layout: _JumpLayout | None = None):
    """Mean normal-derivative jumps across interior edges.

    ``local_coeffs`` has shape (ntri, nloc, 2); the normal is the fixed
    global edge normal, used on both sides, so a conforming field gives
    zeros.  The shapes' edge moments are taken once per class, along the
    outward normal, which the edge sign turns into the global one.
    ``layout`` is those moments and the edge sides of the dof map
    (:func:`_jump_layout`), built here when not given.  Returns
    ``(jumps, scale)`` where jumps has one row per interior edge and two
    columns (one per displacement component), and scale is the largest
    one-sided mean magnitude.
    """
    if layout is None:
        layout = _jump_layout(dofmap)
    # (T, 3, 2): component c's mean derivative on local edge i of triangle t.
    means = layout.moments[dofmap.classes].swapaxes(1, 2) @ local_coeffs
    sides = np.empty((2 * layout.n_interior + 1, 2))
    sides[layout.slots] = means.reshape(-1, 2)
    interior = sides[:-1].reshape(-1, 2, 2)
    scale = float(np.abs(interior).max(initial=0.0))
    return interior[:, 0] - interior[:, 1], scale


def jump_check(dofmap: DofMap, n_trials: int, seed: int = 0, corrupt: bool = False):
    """Largest normalized mean jump over random conforming fields.

    With ``corrupt=True`` one element's coefficients are perturbed
    directly, bypassing the shared degrees of freedom; the result must
    then be far from zero (negative control for the detector).  A mesh
    with no interior edge has no jump and gives 0.  The class edge moments
    and the edge sides are built once and read by every trial's
    :func:`edge_mean_jumps`.  Raises ``ValueError`` if ``n_trials < 1``.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    layout = _jump_layout(dofmap)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        full = rng.normal(size=dofmap.n_vector)
        coeffs = local_coefficients(dofmap, full)
        if corrupt:
            t = int(rng.integers(dofmap.mesh.num_triangles))
            coeffs[t] += rng.normal(size=coeffs[t].shape)
        jumps, scale = edge_mean_jumps(dofmap, coeffs, layout)
        worst = max(worst, np.abs(jumps).max(initial=0.0) / max(scale, 1.0))
    return float(worst)
