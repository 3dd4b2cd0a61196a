"""Scalar shape functions for the three triangle families.

All shapes are polynomials of degree at most four, stored as coefficient
vectors over the barycentric monomials ``l1^a l2^b l3^c`` with
``a + b + c <= 4``.  Gradients and Hessians follow from the formal
derivatives with respect to the barycentric coordinates chained with the
constant gradients ``grad(lambda_i)``, so no finite differencing is involved
anywhere.

Shapes are built for a batch of ``T`` triangles at once:
:func:`basis_coefficients` returns a (T, n, 35) coefficient array and
:func:`evaluate` turns it into gradients and Hessians at the points of a
:class:`MonoTables`, whose monomial values ``M`` give the shape values.
The per-element :class:`LocalBasis` of every family comes from
:func:`build_basis`, a batch of one of the same code.

Degrees of freedom read a function at 24 fixed barycentric points,
:data:`DOF_TABLES`: the three vertices, the three edge midpoints and the
six-point Gauss rule on each edge.  :func:`apply_dofs` applies a family's
functionals to values and gradients sampled there, on a batch of
triangles: vertex values, vertex gradient components and midpoint values
are slices, and the edge moments are one contraction.  It is the one
implementation of the functionals: the specht and morley dual solves take
it of their generators sampled at the same points (specht adds its
Legendre edge moments there), and :func:`edge_normal_moments` reads the
same edge points and weights.  The verification checks run on a whole
batch of triangles: :func:`duality_residual` applies each functional to
the shapes as its :class:`DofDescriptor` states it, independently of
:func:`apply_dofs`, so that a wrong functional shows instead of being
inverted by the dual solve;
:func:`specht_constraint_residual` takes the specht shapes' Legendre edge
moments on a three-point edge rule of its own, so that a wrong constraint
in the dual solve shows, and :func:`verify_affine_identity`
interpolates one sampled function per triangle in ntw and its affine
relative.

Families
--------
ntw
    Nine degrees of freedom: vertex values, edge midpoint values, and mean
    normal derivatives over the edges.  The local space is P2 plus the cubic
    bubble times P1.  The coefficients are closed-form in ``grad(lambda)``.
specht
    Nine degrees of freedom: values and both gradient components at the
    vertices.  The local space is the Zienkiewicz space plus bubble times P1,
    constrained so that the quadratic Legendre moment of the normal
    derivative vanishes on every edge.  Shapes come from one batched 12 by
    12 dual solve: nine functionals and three edge constraints.
morley
    Six degrees of freedom: vertex values and mean normal derivatives.  The
    local space is P2; shapes come from one batched 6 by 6 dual solve.

Edge-normal degrees of freedom are taken along the mesh-global edge normal;
the per-element ``signs`` argument (from ``Mesh.tri_edge_signs``) restores
the outward orientation so that the two elements sharing an edge agree on
the functional.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .mesh import ElementGeometry
from .quadrature import edge_rule

__all__ = [
    "ElementKind",
    "DofDescriptor",
    "LocalBasis",
    "MonoTables",
    "MORLEY_PI1",
    "evaluate",
    "edge_normal_moments",
    "basis_coefficients",
    "build_basis",
    "DOF_TABLES",
    "dof_points",
    "apply_dofs",
    "dof_matrices",
    "duality_residual",
    "specht_constraint_residual",
    "verify_affine_identity",
]

_MAX_DEGREE = 4
_EXPONENTS = np.array(
    [
        (a, b, d - a - b)
        for d in range(_MAX_DEGREE + 1)
        for a in range(d + 1)
        for b in range(d + 1 - a)
    ],
    dtype=np.int64,
)
_NMONO = len(_EXPONENTS)
_INDEX = {tuple(e): i for i, e in enumerate(_EXPONENTS)}

# Local edge i runs between local vertices i+1 and i+2 (mod 3).
_EDGE_VERTS = ((1, 2), (2, 0), (0, 1))


def _deriv_matrix(var):
    mat = np.zeros((_NMONO, _NMONO))
    for i, e in enumerate(_EXPONENTS):
        if e[var] == 0:
            continue
        target = list(e)
        target[var] -= 1
        mat[_INDEX[tuple(target)], i] = e[var]
    return mat


# Transposed formal derivatives: _DERIV_T[v] @ M differentiates in lambda_v.
_DERIV_T = np.stack([_deriv_matrix(v).T for v in range(3)])

_EDGE6 = edge_rule(6)


def _mono_values(bary):
    """Values of all monomials at barycentric points; shape (nmono, npts)."""
    bary = np.atleast_2d(np.asarray(bary, dtype=float))
    rng = np.arange(_MAX_DEGREE + 1)[:, None]
    pw = [bary[:, v][None, :] ** rng for v in range(3)]
    return pw[0][_EXPONENTS[:, 0]] * pw[1][_EXPONENTS[:, 1]] * pw[2][_EXPONENTS[:, 2]]


class MonoTables:
    """Monomial values and formal-derivative values at fixed points.

    ``M`` is (nmono, q); ``D1`` is (nmono, q, 3) with the derivative in
    ``lambda_v`` last, and ``D2`` is (nmono, q, 3, 3).  Built once per point
    set and shared by every triangle of a batch.
    """

    def __init__(self, bary):
        self.bary = np.atleast_2d(np.asarray(bary, dtype=float))
        self.M = _mono_values(self.bary)
        first = _DERIV_T @ self.M
        self.D1 = np.ascontiguousarray(first.transpose(1, 2, 0))
        self.D2 = np.ascontiguousarray((_DERIV_T[:, None] @ first[None]).transpose(2, 3, 0, 1))


def _gradients(coeffs, grad_lambda, tables: MonoTables):
    """:func:`evaluate` without the Hessians."""
    coeffs = np.asarray(coeffs, dtype=float)
    batch, n = coeffs.shape[:2]
    npts = tables.M.shape[1]
    # Chain rule: d/dx_i = sum_v d/dlambda_v grad_lambda[v, i].
    d1 = (coeffs.reshape(-1, _NMONO) @ tables.D1.reshape(_NMONO, -1)).reshape(batch, n * npts, 3)
    return (d1 @ grad_lambda).reshape(-1, n, npts, 2)


def evaluate(coeffs, grad_lambda, tables: MonoTables):
    """Gradients and Hessians of polynomials on a batch of triangles.

    ``coeffs`` is (T, n, nmono), or (1, n, nmono) for polynomials shared by
    every triangle; ``grad_lambda`` is (T, 3, 2).  Returns gradients
    (T, n, q, 2) and Hessians (T, n, q, 2, 2); the values are
    ``coeffs @ tables.M``.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    batch, n = coeffs.shape[:2]
    npts = tables.M.shape[1]
    grads = _gradients(coeffs, grad_lambda, tables)
    # The Hessian contracts the second derivatives with grad_lambda (x) grad_lambda.
    d2 = (coeffs.reshape(-1, _NMONO) @ tables.D2.reshape(_NMONO, -1)).reshape(batch, n * npts, 9)
    outer = grad_lambda[:, :, None, :, None] * grad_lambda[:, None, :, None, :]
    hess = (d2 @ outer.reshape(-1, 9, 4)).reshape(-1, n, npts, 2, 2)
    return grads, hess


def _edge_bary(i, t):
    """Barycentric points along edge ``i`` at parameters ``t`` in [0, 1]."""
    t = np.asarray(t, dtype=float)
    bary = np.zeros((len(t), 3))
    j, k = _EDGE_VERTS[i]
    bary[:, j] = 1.0 - t
    bary[:, k] = t
    return bary


# The points every degree-of-freedom functional reads: the three vertices,
# the three edge midpoints, then the six-point Gauss rule on local edges
# 0, 1, 2, edge-major (24 points).
DOF_TABLES = MonoTables(
    np.vstack(
        [np.eye(3)]
        + [_edge_bary(i, [0.5]) for i in range(3)]
        + [_edge_bary(i, _EDGE6.points) for i in range(3)]
    )
)


def _edge_moments(edge_grads, directions, weights):
    """Weighted edge sums of directional derivatives, shape (T, n, 3).

    ``edge_grads`` (T, n, 3 p, 2) holds gradients at ``p`` points per local
    edge, edge-major; entry ``[t, a, i]`` is ``sum_p weights[p] *
    edge_grads[t, a, i, p] . directions[t, i]``.
    """
    batch, n = edge_grads.shape[:2]
    npts = len(weights)
    # Edge-major, (T, 3, n p, 2): one matrix-vector product per edge and
    # triangle, not one per function and edge.
    grads = edge_grads.reshape(batch, n, 3, npts, 2).swapaxes(1, 2).reshape(batch, 3, -1, 2)
    dn = (grads @ directions[..., None])[..., 0]
    return (dn.reshape(dn.shape[:2] + (n, npts)) @ weights).swapaxes(1, 2)


def _sample(coeffs, geom: ElementGeometry):
    """Values (T, m, 24) and gradients (T, m, 24, 2) of polynomials at the
    points of :data:`DOF_TABLES`, where the functionals read them."""
    grads = _gradients(coeffs, geom.grad_lambda, DOF_TABLES)
    return np.broadcast_to(coeffs @ DOF_TABLES.M, grads.shape[:-1]), grads


def edge_normal_moments(coeffs, geom: ElementGeometry, normals):
    """Mean normal derivatives on the local edges, shape (T, n, 3).

    Entry ``[t, a, i]`` is the mean of ``grad(p_a) . normals[t, i]`` over
    local edge ``i``, read at the edge points of :data:`DOF_TABLES` with
    the weights of the edge functionals.
    """
    grads = _gradients(coeffs, geom.grad_lambda, DOF_TABLES)
    return _edge_moments(grads[..., 6:, :], normals, _EDGE6.weights)


class ElementKind(str, Enum):
    NTW = "ntw"
    SPECHT = "specht"
    MORLEY = "morley"


@dataclass(frozen=True)
class DofDescriptor:
    """One local degree of freedom.

    ``kind`` is one of ``value``, ``grad_x``, ``grad_y``, ``normal_moment``,
    ``median_moment``; ``entity`` is ``vertex``, ``midpoint`` or ``edge``
    with local index ``index``.  For ``normal_moment`` the ``sign`` times
    the outward normal gives the direction the functional uses.  The
    functionals are applied by :func:`apply_dofs`, and one descriptor at a
    time by the :func:`dof_matrices` check.
    """

    kind: str
    entity: str
    index: int
    sign: float = 1.0


@dataclass(frozen=True)
class LocalBasis:
    """Shapes on one element, dual to the listed degrees of freedom;
    ``signs`` are the edge normal signs of its edge functionals."""

    family: str
    geom: ElementGeometry
    coeffs: np.ndarray
    dofs: tuple
    signs: np.ndarray

    @property
    def nloc(self) -> int:
        return len(self.coeffs)


def _vec(poly: dict) -> np.ndarray:
    out = np.zeros(_NMONO)
    for e, c in poly.items():
        out[_INDEX[e]] += c
    return out


def _shift(e, i, k=1):
    out = list(e)
    out[i] += k
    return tuple(out)


_B = (1, 1, 1)


def _unit(i, k=1):
    return _shift((0, 0, 0), i, k)


# b_K (2 lam_i - 1) for i = 0, 1, 2.
_RAMPS = np.array([_vec({_shift(_B, i): 2.0, _B: -1.0}) for i in range(3)])
# The ntw vertex shapes without their grad_lambda-dependent correction.
_NTW_VERTEX = np.array(
    [_vec({_unit(i, 2): 2.0, _unit(i): -1.0, _shift(_B, i): -12.0, _B: 6.0}) for i in range(3)]
)
_NTW_MIDPOINT = np.array(
    [
        _vec({_shift(_unit(j), k): 4.0, _B: 12.0, _shift(_B, i): -48.0})
        for i, (j, k) in enumerate(_EDGE_VERTS)
    ]
)


def _ntw_coeffs(geom: ElementGeometry, signs) -> np.ndarray:
    gl = geom.grad_lambda
    dots = gl @ gl.swapaxes(1, 2)
    # c_ij = grad lam_i . grad lam_j / |grad lam_j|^2 for j != i.
    ratio = dots / np.diagonal(dots, axis1=1, axis2=2)[:, None, :]
    ratio[:, [0, 1, 2], [0, 1, 2]] = 0.0
    coeffs = np.empty((len(gl), 9, _NMONO))
    coeffs[:, :3] = _NTW_VERTEX + (6.0 * ratio) @ _RAMPS
    coeffs[:, 3:6] = _NTW_MIDPOINT
    # 6 b_K (2 lam_i - 1) / |grad lam_i|, oriented by the normal sign.
    coeffs[:, 6:] = (6.0 * (signs * geom.altitudes))[:, :, None] * _RAMPS
    return coeffs


def _dofs(family, signs):
    """Degree-of-freedom descriptors in the local order of ``family``, an
    :class:`ElementKind` or ``"ntw_affine"``."""
    if family == ElementKind.SPECHT:
        names = ("value", "grad_x", "grad_y")
        return tuple(DofDescriptor(name, "vertex", v) for v in range(3) for name in names)
    dofs = [DofDescriptor("value", "vertex", i) for i in range(3)]
    if family != ElementKind.MORLEY:
        dofs += [DofDescriptor("value", "midpoint", i) for i in range(3)]
    if family == "ntw_affine":
        dofs += [DofDescriptor("median_moment", "edge", i) for i in range(3)]
    else:
        dofs += [DofDescriptor("normal_moment", "edge", i, float(signs[i])) for i in range(3)]
    return tuple(dofs)


# The shapes of ntw's affine relative, "ntw_affine": the same local space
# and value degrees of freedom, but edge moments of the derivative along
# the median from the opposite vertex to the edge midpoint.  The two
# interpolants coincide (see verify_affine_identity).  The shapes do not
# depend on the triangle.
_NTW_AFFINE = np.vstack(
    [
        [_vec({_unit(i, 2): 2.0, _unit(i): -1.0, _B: 6.0, _shift(_B, i): -6.0}) for i in range(3)],
        _NTW_MIDPOINT,
        6.0 * _RAMPS,
    ]
)


def _specht_generators():
    gens = []
    for i in range(3):
        gens.append({_unit(i, 2): 1.0})
    for i, j in ((0, 1), (1, 2), (2, 0)):
        gens.append({_shift(_unit(i), j): 1.0})
    for i, j in ((0, 1), (1, 2), (2, 0)):
        gens.append({_shift(_unit(i, 2), j): 1.0, _shift(_unit(j, 2), i): -1.0})
    for i in range(3):
        gens.append({_shift(_B, i): 1.0})
    return np.array([_vec(g) for g in gens])


_SPECHT_GENS = _specht_generators()
_MORLEY_GENS = np.array(
    [_vec({_unit(i, 2): 1.0}) for i in range(3)]
    + [_vec({_shift(_unit(i), j): 1.0}) for i, j in ((0, 1), (1, 2), (2, 0))]
)
# The quadratic Legendre polynomial P2(2t - 1) times the edge weights.
_LEGENDRE_WEIGHTS = 0.5 * (3.0 * (2.0 * _EDGE6.points - 1.0) ** 2 - 1.0) * _EDGE6.weights

# Sends morley local coefficients to vertex values (the vertex-value shapes
# come first).  Composed with the barycentric coordinates it gives the linear
# interpolant that the morley scheme uses in its membrane term and load.
MORLEY_PI1 = np.hstack([np.eye(3), np.zeros((3, 3))])


def _dual_solve(rows, rhs, gens, family):
    """Shapes dual to the functional values ``rows`` (T, m, m) of the
    ``m`` generators: entry ``[t, g, d]`` is functional ``d`` of ``gens[g]``."""
    try:
        sol = np.linalg.solve(rows.swapaxes(1, 2), rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{family} element system is singular for this triangle") from exc
    return sol.swapaxes(1, 2) @ gens


def _specht_coeffs(geom: ElementGeometry) -> np.ndarray:
    """Dual to the nine degrees of freedom and zero on the three edge
    constraints: one 12 by 12 system per triangle."""
    vals, grads = _sample(_SPECHT_GENS[None], geom)
    dofs = apply_dofs(ElementKind.SPECHT, vals, grads, geom, None)
    # The constraints: edge moments int_0^1 P2(2t - 1) dn(p) dt.
    legendre = _edge_moments(grads[..., 6:, :], geom.normals, _LEGENDRE_WEIGHTS)
    rows = np.concatenate([dofs, legendre], axis=-1)
    return _dual_solve(rows, np.eye(12, 9), _SPECHT_GENS, "specht")


def _morley_coeffs(geom: ElementGeometry, signs) -> np.ndarray:
    rows = apply_dofs(ElementKind.MORLEY, *_sample(_MORLEY_GENS[None], geom), geom, signs)
    return _dual_solve(rows, np.eye(6), _MORLEY_GENS, "morley")


def basis_coefficients(kind, geom: ElementGeometry, signs) -> np.ndarray:
    """(T, n, nmono) shape coefficients of ``kind`` on a batch of triangles.

    ``geom`` is a batch (see :class:`~sgfem.mesh.ElementGeometry`) and
    ``signs`` the (T, 3) edge normal signs; specht ignores them.
    """
    kind = ElementKind(kind)
    if kind is ElementKind.NTW:
        return _ntw_coeffs(geom, signs)
    if kind is ElementKind.SPECHT:
        return _specht_coeffs(geom)
    return _morley_coeffs(geom, signs)


def build_basis(kind: ElementKind, geom: ElementGeometry, signs=None) -> LocalBasis:
    """Shapes of ``kind`` on one triangle: a batch of one of
    :func:`basis_coefficients`."""
    kind = ElementKind(kind)
    signs = np.ones(3) if signs is None else np.asarray(signs)
    coeffs = basis_coefficients(kind, geom.batch_of_one(), signs[None])[0]
    return LocalBasis(kind.value, geom, coeffs, _dofs(kind, signs), signs)


def dof_points(geom: ElementGeometry) -> np.ndarray:
    """Physical coordinates of the points of :data:`DOF_TABLES`: (24, 2)
    for one triangle, (T, 24, 2) for a batch."""
    return DOF_TABLES.bary @ geom.vertices


def apply_dofs(family, values, grads, geom: ElementGeometry, signs) -> np.ndarray:
    """The degree-of-freedom functionals of ``family`` applied to sampled
    functions, on a batch of ``T`` triangles.

    ``values`` (T, m, 24) and ``grads`` (T, m, 24, 2) sample ``m``
    functions per triangle at the points of :data:`DOF_TABLES`; ``signs``
    are the (T, 3) edge normal signs.  ``family`` is an
    :class:`ElementKind` or ``"ntw_affine"``.  Returns (T, m, n) in the
    local degree-of-freedom order of ``family``: the coefficients of the
    interpolants of the ``m`` functions.
    """
    vertex = values[..., :3]
    if family == ElementKind.SPECHT:
        # Value, grad_x and grad_y at each vertex in turn.
        parts = np.stack([vertex, grads[..., :3, 0], grads[..., :3, 1]], axis=-1)
        return parts.reshape(parts.shape[:-2] + (9,))
    if family == "ntw_affine":
        # From the opposite vertex to the edge midpoint.
        directions = geom.midpoints - geom.vertices
    else:
        directions = signs[..., None] * geom.normals
    moments = _edge_moments(grads[..., 6:, :], directions, _EDGE6.weights)
    if family == ElementKind.MORLEY:
        return np.concatenate([vertex, moments], axis=-1)
    return np.concatenate([vertex, values[..., 3:6], moments], axis=-1)


def dof_matrices(family, geom: ElementGeometry, signs=None) -> np.ndarray:
    """(T, n, n) functionals applied to shapes on a batch of triangles.

    Entry ``[t, d, a]`` is degree of freedom ``d`` of shape ``a`` on
    triangle ``t``; unisolvence makes every matrix the identity.
    ``family`` is an :class:`ElementKind` or ``"ntw_affine"``.  Each
    functional is applied as its :class:`DofDescriptor` states it, apart
    from :func:`apply_dofs`, which the specht and morley shapes invert: a
    wrong functional there shows here instead of cancelling.
    """
    if signs is None:
        signs = np.ones((len(geom.vertices), 3))
    if family == "ntw_affine":
        coeffs = _NTW_AFFINE[None]
    else:
        coeffs = basis_coefficients(family, geom, signs)
    vals, grads = _sample(coeffs, geom)
    rows = []
    # The descriptors give the structure; ``signs`` holds each triangle's own
    # normal signs.
    for dof in _dofs(family, np.ones(3)):
        i = dof.index
        if dof.entity == "vertex" and dof.kind == "value":
            rows.append(vals[..., i])
        elif dof.entity == "vertex":
            rows.append(grads[..., i, ("grad_x", "grad_y").index(dof.kind)])
        elif dof.entity == "midpoint":
            rows.append(vals[..., 3 + i])
        else:
            if dof.kind == "normal_moment":
                direction = signs[:, i, None] * geom.normals[:, i]
            else:  # median_moment: from the opposite vertex to the edge midpoint
                direction = geom.midpoints[:, i] - geom.vertices[:, i]
            edge = grads[..., 6 + 6 * i : 12 + 6 * i, :]
            rows.append((edge @ direction[:, None, :, None])[..., 0] @ _EDGE6.weights)
    return np.stack(rows, axis=1)


def duality_residual(family, geom: ElementGeometry, signs=None) -> np.ndarray:
    """Per triangle of a batch, the max deviation of the dof/shape pairing
    from the identity matrix; shape (T,)."""
    mats = dof_matrices(family, geom, signs)
    return np.abs(mats - np.eye(mats.shape[-1])).max(axis=(1, 2))


# The three-point Gauss rule on each local edge, edge-major, and the
# quadratic Legendre weights on it, apart from the six-point moments that
# the specht dual solve inverts.
_GAUSS3 = edge_rule(3)
_GAUSS3_TABLES = MonoTables(np.vstack([_edge_bary(i, _GAUSS3.points) for i in range(3)]))
_P2_GAUSS3 = 0.5 * (3.0 * (2.0 * _GAUSS3.points - 1.0) ** 2 - 1.0) * _GAUSS3.weights


def specht_constraint_residual(geom: ElementGeometry) -> np.ndarray:
    """Per triangle of a batch, the largest edge moment of a specht shape's
    normal derivative against the quadratic Legendre polynomial, normalized
    by the gradient scale on the edges (at least 1); shape (T,)."""
    coeffs = basis_coefficients(ElementKind.SPECHT, geom, None)
    grads = _gradients(coeffs, geom.grad_lambda, _GAUSS3_TABLES)
    moments = _edge_moments(grads, geom.normals, _P2_GAUSS3)
    gscale = np.abs(grads).max(axis=(1, 2, 3))
    return np.abs(moments).max(axis=(1, 2)) / np.maximum(gscale, 1.0)


# Monomial values at the barycentric sample points of
# verify_affine_identity: a lattice of seven points per side.
_SIDE = np.linspace(0.0, 1.0, 7)
_LATTICE = _mono_values(
    [(a, b, 1.0 - a - b) for a in _SIDE for b in _SIDE if a + b <= 1.0 + 1e-12]
)


def verify_affine_identity(geom: ElementGeometry, values, grads) -> np.ndarray:
    """Per triangle of a batch, the max deviation between the ntw
    interpolant and its affine relative; shape (T,).

    ``values`` (T, 24) and ``grads`` (T, 24, 2) sample one smooth function
    per triangle at its :func:`dof_points`.  Both interpolants are
    evaluated on a barycentric lattice; the two agree identically because
    the median-derivative moments are linear combinations of the normal
    moments and the vertex values.
    """
    values, grads = values[:, None], grads[:, None]
    signs = np.ones((len(values), 3))
    normal = basis_coefficients(ElementKind.NTW, geom, signs)
    c_normal = apply_dofs(ElementKind.NTW, values, grads, geom, signs) @ normal
    c_affine = apply_dofs("ntw_affine", values, grads, geom, signs) @ _NTW_AFFINE
    return np.abs((c_normal - c_affine) @ _LATTICE).max(axis=(1, 2))
