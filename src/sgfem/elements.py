"""Scalar shape functions for the three triangle families.

All shapes are polynomials of degree at most four, stored as coefficient
vectors over the barycentric monomials ``l1^a l2^b l3^c`` with
``a + b + c <= 4``.  Gradients and Hessians follow from the formal
derivatives with respect to the barycentric coordinates chained with the
constant gradients ``grad(lambda_i)``, so no finite differencing is involved
anywhere.

Shapes are built for a batch of ``T`` triangles at once:
:func:`basis_coefficients` returns a (T, n, 35) coefficient array and
:func:`evaluate` turns it into values, gradients and Hessians at the points
of a :class:`MonoTables`.  The per-element :class:`LocalBasis`, used by the
verification checks, is a batch of one of the same code.

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
    12 dual solve.
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
    "EDGE_TABLES",
    "evaluate",
    "edge_normal_moments",
    "basis_coefficients",
    "ntw_basis",
    "ntw_affine_basis",
    "specht_basis",
    "morley_basis",
    "build_basis",
    "pi1_map",
    "apply_dof",
    "interpolate",
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

_EDGE3 = edge_rule(3)
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


def evaluate(coeffs, grad_lambda, tables: MonoTables):
    """Values, gradients and Hessians of polynomials on a batch of triangles.

    ``coeffs`` is (T, n, nmono), or (1, n, nmono) for polynomials shared by
    every triangle; ``grad_lambda`` is (T, 3, 2).  Returns values (T, n, q),
    gradients (T, n, q, 2) and Hessians (T, n, q, 2, 2).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    batch, n = coeffs.shape[:2]
    npts = tables.M.shape[1]
    flat = coeffs.reshape(-1, _NMONO)
    # Chain rule: d/dx_i = sum_v d/dlambda_v grad_lambda[v, i], and the
    # Hessian contracts the second derivatives with grad_lambda (x) grad_lambda.
    d1 = (flat @ tables.D1.reshape(_NMONO, -1)).reshape(batch, n * npts, 3)
    d2 = (flat @ tables.D2.reshape(_NMONO, -1)).reshape(batch, n * npts, 9)
    outer = grad_lambda[:, :, None, :, None] * grad_lambda[:, None, :, None, :]
    grads = (d1 @ grad_lambda).reshape(-1, n, npts, 2)
    hess = (d2 @ outer.reshape(-1, 9, 4)).reshape(-1, n, npts, 2, 2)
    return coeffs @ tables.M, grads, hess


def _edge_bary(i, t):
    """Barycentric points along edge ``i`` at parameters ``t`` in [0, 1]."""
    t = np.asarray(t, dtype=float)
    bary = np.zeros((len(t), 3))
    j, k = _EDGE_VERTS[i]
    bary[:, j] = 1.0 - t
    bary[:, k] = t
    return bary


_VERTEX_TABLES = MonoTables(np.eye(3))
# The three-point Gauss rule on local edges 0, 1, 2, edge-major.
EDGE_TABLES = MonoTables(np.vstack([_edge_bary(i, _EDGE3.points) for i in range(3)]))


def edge_normal_moments(coeffs, geom: ElementGeometry, normals, weights):
    """Weighted edge sums of normal derivatives, shape (T, n, 3).

    Entry ``[t, a, i]`` is ``sum_p weights[p] * grad(p_a)(x_p) . normals[t, i]``
    over the three Gauss points ``x_p`` of local edge ``i``.
    """
    _, grads, _ = evaluate(coeffs, geom.grad_lambda, EDGE_TABLES)
    grads = grads.reshape(grads.shape[:2] + (3, _EDGE3.npoints, 2))
    dn = (grads @ normals[:, None, :, :, None])[..., 0]
    return dn @ weights


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
    the outward normal gives the direction the functional uses.
    """

    kind: str
    entity: str
    index: int
    sign: float = 1.0


@dataclass(frozen=True)
class LocalBasis:
    """Shapes on one element, dual to the listed degrees of freedom."""

    family: str
    geom: ElementGeometry
    coeffs: np.ndarray
    dofs: tuple

    @property
    def nloc(self) -> int:
        return len(self.coeffs)

    def eval_all(self, bary, tables: MonoTables | None = None):
        """Values (n, q), gradients (n, q, 2), Hessians (n, q, 2, 2)."""
        if tables is None:
            tables = MonoTables(bary)
        vals, grads, hess = evaluate(self.coeffs[None], self.geom.grad_lambda[None], tables)
        return vals[0], grads[0], hess[0]

    def values(self, bary):
        return self.coeffs @ _mono_values(bary)

    def gradients(self, bary):
        return self.eval_all(bary)[1]

    def hessians(self, bary):
        return self.eval_all(bary)[2]


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


def _dofs(kind, signs):
    """Degree-of-freedom descriptors in the local order of ``kind``."""
    if kind is ElementKind.SPECHT:
        names = ("value", "grad_x", "grad_y")
        return tuple(DofDescriptor(name, "vertex", v) for v in range(3) for name in names)
    dofs = [DofDescriptor("value", "vertex", i) for i in range(3)]
    if kind is ElementKind.NTW:
        dofs += [DofDescriptor("value", "midpoint", i) for i in range(3)]
    dofs += [DofDescriptor("normal_moment", "edge", i, sign=float(signs[i])) for i in range(3)]
    return tuple(dofs)


def ntw_basis(geom: ElementGeometry, signs=None) -> LocalBasis:
    """Nine shapes: vertex values, midpoint values, edge normal moments."""
    return build_basis(ElementKind.NTW, geom, signs)


def ntw_affine_basis(geom: ElementGeometry) -> LocalBasis:
    """Affine relative of the ntw family.

    Same local space and value degrees of freedom, but the edge moments
    average the derivative along the median vector from the opposite vertex
    to the edge midpoint instead of the normal derivative.  The two
    interpolants coincide (see :func:`verify_affine_identity`), which is
    what makes the family amenable to scaling arguments.
    """
    vertex = [{_unit(i, 2): 2.0, _unit(i): -1.0, _B: 6.0, _shift(_B, i): -6.0} for i in range(3)]
    coeffs = np.vstack([[_vec(p) for p in vertex], _NTW_MIDPOINT, 6.0 * _RAMPS])
    dofs = _dofs(ElementKind.NTW, np.ones(3))[:6]
    dofs += tuple(DofDescriptor("median_moment", "edge", i) for i in range(3))
    return LocalBasis("ntw_affine", geom, coeffs, dofs)


def _legendre2(t):
    xi = 2.0 * np.asarray(t) - 1.0
    return 0.5 * (3.0 * xi**2 - 1.0)


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
_LEGENDRE_WEIGHTS = _legendre2(_EDGE3.points) * _EDGE3.weights

# pi1_map of every morley basis: the vertex-value shapes come first.
MORLEY_PI1 = np.hstack([np.eye(3), np.zeros((3, 3))])


def _dual_solve(system, rhs, gens, family):
    try:
        sol = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{family} element system is singular for this triangle") from exc
    return sol.swapaxes(1, 2) @ gens


def _specht_coeffs(geom: ElementGeometry) -> np.ndarray:
    """Solve the 12 by 12 systems that couple the nine degrees of freedom
    with the three edge constraints ``int_0^1 P2(2t - 1) dn(p) dt = 0``."""
    ntri = len(geom.grad_lambda)
    vals, grads, _ = evaluate(_SPECHT_GENS[None], geom.grad_lambda, _VERTEX_TABLES)
    system = np.empty((ntri, 12, 12))
    # Rows 3 v, 3 v + 1, 3 v + 2: value, grad_x, grad_y at vertex v.
    system[:, 0:9:3] = vals[0].T
    system[:, 1:9:3] = grads[..., 0].swapaxes(1, 2)
    system[:, 2:9:3] = grads[..., 1].swapaxes(1, 2)
    moments = edge_normal_moments(_SPECHT_GENS[None], geom, geom.normals, _LEGENDRE_WEIGHTS)
    system[:, 9:] = moments.swapaxes(1, 2)
    # Dual to the nine dofs, zero on the three edge constraints.
    return _dual_solve(system, np.eye(12, 9), _SPECHT_GENS, "specht")


def _morley_coeffs(geom: ElementGeometry, signs) -> np.ndarray:
    ntri = len(geom.grad_lambda)
    vals = _MORLEY_GENS @ _VERTEX_TABLES.M
    system = np.empty((ntri, 6, 6))
    system[:, :3] = vals.T
    moments = edge_normal_moments(_MORLEY_GENS[None], geom, geom.normals, _EDGE3.weights)
    system[:, 3:] = signs[:, :, None] * moments.swapaxes(1, 2)
    return _dual_solve(system, np.eye(6), _MORLEY_GENS, "morley")


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


def specht_basis(geom: ElementGeometry) -> LocalBasis:
    """Nine shapes dual to vertex values and vertex gradient components."""
    return build_basis(ElementKind.SPECHT, geom)


def morley_basis(geom: ElementGeometry, signs=None) -> LocalBasis:
    """Six quadratic shapes: vertex values and edge normal moments."""
    return build_basis(ElementKind.MORLEY, geom, signs)


def build_basis(kind: ElementKind, geom: ElementGeometry, signs=None) -> LocalBasis:
    """Shapes of ``kind`` on one triangle: a batch of one of
    :func:`basis_coefficients`."""
    kind = ElementKind(kind)
    signs = np.ones(3) if signs is None else np.asarray(signs)
    coeffs = basis_coefficients(kind, geom.batch_of_one(), signs[None])[0]
    return LocalBasis(kind.value, geom, coeffs, _dofs(kind, signs))


def pi1_map(basis: LocalBasis) -> np.ndarray:
    """Matrix (3, nloc) sending local coefficients to vertex values.

    Composing with the barycentric coordinates gives the linear interpolant
    of the local function, which the morley scheme uses in its membrane
    term and load functional.
    """
    out = np.zeros((3, basis.nloc))
    for a, dof in enumerate(basis.dofs):
        if dof.kind == "value" and dof.entity == "vertex":
            out[dof.index, a] = 1.0
    return out


def apply_dof(dof: DofDescriptor, geom: ElementGeometry, value_fn, grad_fn):
    """Apply a degree-of-freedom functional to a smooth scalar function.

    ``value_fn(xy)`` and ``grad_fn(xy)`` take points of shape (n, 2) and
    return values (n,) and gradients (n, 2).  Edge moments use the
    six-point Gauss rule.
    """
    if dof.entity == "vertex":
        xy = geom.vertices[dof.index][None, :]
        if dof.kind == "value":
            return float(np.asarray(value_fn(xy)).ravel()[0])
        if dof.kind == "grad_x":
            return float(np.asarray(grad_fn(xy)).reshape(-1, 2)[0, 0])
        if dof.kind == "grad_y":
            return float(np.asarray(grad_fn(xy)).reshape(-1, 2)[0, 1])
    if dof.entity == "midpoint":
        xy = geom.midpoints[dof.index][None, :]
        return float(np.asarray(value_fn(xy)).ravel()[0])
    if dof.entity == "edge":
        i = dof.index
        bary = _edge_bary(i, _EDGE6.points)
        grads = np.asarray(grad_fn(bary @ geom.vertices)).reshape(-1, 2)
        if dof.kind == "normal_moment":
            direction = dof.sign * geom.normals[i]
        else:  # median_moment: from the opposite vertex to the edge midpoint
            direction = geom.midpoints[i] - geom.vertices[i]
        return float((grads @ direction) @ _EDGE6.weights)
    raise ValueError(f"unhandled dof {dof!r}")


def interpolate(basis: LocalBasis, value_fn, grad_fn) -> np.ndarray:
    """Local coefficient vector of the interpolant of a smooth function."""
    return np.array([apply_dof(d, basis.geom, value_fn, grad_fn) for d in basis.dofs])


def duality_residual(basis: LocalBasis) -> float:
    """Max deviation of the dof/shape pairing from the identity matrix."""
    geom = basis.geom
    n = basis.nloc
    M = np.empty((n, n))
    for a in range(n):
        value_fn = lambda xy, a=a: basis.values(geom.to_bary(np.atleast_2d(xy)))[a]
        grad_fn = lambda xy, a=a: basis.gradients(geom.to_bary(np.atleast_2d(xy)))[a]
        for d, dof in enumerate(basis.dofs):
            M[d, a] = apply_dof(dof, geom, value_fn, grad_fn)
    return float(np.abs(M - np.eye(n)).max())


def specht_constraint_residual(basis: LocalBasis) -> float:
    """Largest edge moment of the normal derivative against the quadratic
    Legendre weight, normalized by the gradient scale on the edges."""
    geom = basis.geom
    leg = _legendre2(_EDGE6.points)
    residual = 0.0
    gscale = 0.0
    for i in range(3):
        bary = _edge_bary(i, _EDGE6.points)
        grads = basis.gradients(bary)
        gscale = max(gscale, np.abs(grads).max())
        dn = grads @ geom.normals[i]
        residual = max(residual, np.abs((dn * leg) @ _EDGE6.weights).max())
    return residual / max(gscale, 1.0)


# Barycentric sample points of verify_affine_identity: seven per side.
_SIDE = np.linspace(0.0, 1.0, 7)
_LATTICE = np.array([(a, b, 1.0 - a - b) for a in _SIDE for b in _SIDE if a + b <= 1.0 + 1e-12])


def verify_affine_identity(geom: ElementGeometry, value_fn, grad_fn) -> float:
    """Max deviation between the ntw interpolant and its affine relative.

    Both interpolants of the same smooth function are evaluated on a
    barycentric lattice; the two agree identically because the
    median-derivative moments are linear combinations of the normal moments
    and the vertex values.
    """
    normal = ntw_basis(geom)
    affine = ntw_affine_basis(geom)
    c_normal = interpolate(normal, value_fn, grad_fn)
    c_affine = interpolate(affine, value_fn, grad_fn)
    diff = c_normal @ normal.values(_LATTICE) - c_affine @ affine.values(_LATTICE)
    return float(np.abs(diff).max())
