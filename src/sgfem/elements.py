"""Scalar shape functions for the three triangle families.

All shapes are polynomials of degree at most four, stored as coefficient
vectors over the barycentric monomials ``l1^a l2^b l3^c`` with
``a + b + c <= 4``.  Gradients and Hessians follow from the formal
derivatives with respect to the barycentric coordinates chained with the
constant gradients ``grad(lambda_i)``, so no finite differencing is involved
anywhere.

Families
--------
ntw
    Nine degrees of freedom: vertex values, edge midpoint values, and mean
    normal derivatives over the edges.  The local space is P2 plus the cubic
    bubble times P1.
specht
    Nine degrees of freedom: values and both gradient components at the
    vertices.  The local space is the Zienkiewicz space plus bubble times P1,
    constrained so that the quadratic Legendre moment of the normal
    derivative vanishes on every edge.  Shapes are built per element by a
    12 by 12 dual solve.
morley
    Six degrees of freedom: vertex values and mean normal derivatives.  The
    local space is P2.

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


_DERIV = [_deriv_matrix(v) for v in range(3)]

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

    Precompute once per quadrature rule and pass to
    :meth:`LocalBasis.eval_all` to avoid repeating the point-independent
    work for every element.
    """

    def __init__(self, bary):
        self.bary = np.atleast_2d(np.asarray(bary, dtype=float))
        self.M = _mono_values(self.bary)
        self.MD = [_DERIV[v].T @ self.M for v in range(3)]
        self.MDD = [[_DERIV[v].T @ self.MD[w] for w in range(3)] for v in range(3)]


def _eval_coeffs(coeffs, grad_lambda, tables):
    """Values, gradients, Hessians of polynomial rows of ``coeffs``."""
    vals = coeffs @ tables.M
    nloc, npts = vals.shape
    grads = np.zeros((nloc, npts, 2))
    hess = np.zeros((nloc, npts, 2, 2))
    for v in range(3):
        grads += (coeffs @ tables.MD[v])[:, :, None] * grad_lambda[v]
    for v in range(3):
        for w in range(3):
            outer = np.outer(grad_lambda[v], grad_lambda[w])
            hess += (coeffs @ tables.MDD[v][w])[:, :, None, None] * outer
    return vals, grads, hess


def _edge_bary(i, t):
    """Barycentric points along edge ``i`` at parameters ``t`` in [0, 1]."""
    t = np.asarray(t, dtype=float)
    bary = np.zeros((len(t), 3))
    j, k = _EDGE_VERTS[i]
    bary[:, j] = 1.0 - t
    bary[:, k] = t
    return bary


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
        return _eval_coeffs(self.coeffs, self.geom.grad_lambda, tables)

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


def _bubble_times_ramp(i, scale):
    """Coefficients of ``scale * b_K * (2 lam_i - 1)``."""
    return {_shift(_B, i): 2.0 * scale, _B: -scale}


def _ntw_vertex_poly(i, grad_lambda):
    poly = {_unit(i, 2): 2.0, _unit(i): -1.0}
    for e, c in _bubble_times_ramp(i, -6.0).items():
        poly[e] = poly.get(e, 0.0) + c
    for j in range(3):
        if j == i:
            continue
        cij = grad_lambda[i] @ grad_lambda[j] / (grad_lambda[j] @ grad_lambda[j])
        for e, c in _bubble_times_ramp(j, 6.0 * cij).items():
            poly[e] = poly.get(e, 0.0) + c
    return poly


def _ntw_midpoint_poly(i):
    j, k = _EDGE_VERTS[i]
    return {
        _shift(_unit(j), k): 4.0,
        _B: 12.0,
        _shift(_B, i): -48.0,
    }


def ntw_basis(geom: ElementGeometry, signs=None) -> LocalBasis:
    """Nine shapes: vertex values, midpoint values, edge normal moments."""
    if signs is None:
        signs = np.ones(3)
    coeffs = np.empty((9, _NMONO))
    dofs = []
    for i in range(3):
        coeffs[i] = _vec(_ntw_vertex_poly(i, geom.grad_lambda))
        dofs.append(DofDescriptor("value", "vertex", i))
    for i in range(3):
        coeffs[3 + i] = _vec(_ntw_midpoint_poly(i))
        dofs.append(DofDescriptor("value", "midpoint", i))
    for i in range(3):
        # 6 b_K (2 lam_i - 1) / |grad lam_i|, oriented by the normal sign.
        scale = signs[i] * geom.altitudes[i]
        coeffs[6 + i] = _vec(_bubble_times_ramp(i, 6.0 * scale))
        dofs.append(DofDescriptor("normal_moment", "edge", i, sign=float(signs[i])))
    return LocalBasis("ntw", geom, coeffs, tuple(dofs))


def ntw_affine_basis(geom: ElementGeometry) -> LocalBasis:
    """Affine relative of the ntw family.

    Same local space and value degrees of freedom, but the edge moments
    average the derivative along the median vector from the opposite vertex
    to the edge midpoint instead of the normal derivative.  The two
    interpolants coincide (see :func:`verify_affine_identity`), which is
    what makes the family amenable to scaling arguments.
    """
    coeffs = np.empty((9, _NMONO))
    dofs = []
    for i in range(3):
        poly = {_unit(i, 2): 2.0, _unit(i): -1.0, _B: 6.0, _shift(_B, i): -6.0}
        coeffs[i] = _vec(poly)
        dofs.append(DofDescriptor("value", "vertex", i))
    for i in range(3):
        coeffs[3 + i] = _vec(_ntw_midpoint_poly(i))
        dofs.append(DofDescriptor("value", "midpoint", i))
    for i in range(3):
        coeffs[6 + i] = _vec(_bubble_times_ramp(i, 6.0))
        dofs.append(DofDescriptor("median_moment", "edge", i))
    return LocalBasis("ntw_affine", geom, coeffs, tuple(dofs))


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

_VERTEX_BARY = np.eye(3)


def specht_basis(geom: ElementGeometry) -> LocalBasis:
    """Nine shapes dual to vertex values and vertex gradient components.

    Built per element by solving the 12 by 12 system that couples the nine
    degrees of freedom with the three edge constraints
    ``int_0^1 P2(2t - 1) dn(p) dt = 0``.
    """
    tables = MonoTables(_VERTEX_BARY)
    vals, grads, _ = _eval_coeffs(_SPECHT_GENS, geom.grad_lambda, tables)
    system = np.empty((12, 12))
    for v in range(3):
        system[3 * v] = vals[:, v]
        system[3 * v + 1] = grads[:, v, 0]
        system[3 * v + 2] = grads[:, v, 1]
    leg_w = _legendre2(_EDGE3.points) * _EDGE3.weights
    for i in range(3):
        etab = MonoTables(_edge_bary(i, _EDGE3.points))
        _, egrads, _ = _eval_coeffs(_SPECHT_GENS, geom.grad_lambda, etab)
        dn = egrads @ geom.normals[i]
        system[9 + i] = dn @ leg_w
    rhs = np.zeros((12, 9))
    rhs[:9, :9] = np.eye(9)
    try:
        sol = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("specht element system is singular for this triangle") from exc
    coeffs = sol.T @ _SPECHT_GENS
    dofs = []
    for v in range(3):
        dofs.append(DofDescriptor("value", "vertex", v))
        dofs.append(DofDescriptor("grad_x", "vertex", v))
        dofs.append(DofDescriptor("grad_y", "vertex", v))
    return LocalBasis("specht", geom, coeffs, tuple(dofs))


def morley_basis(geom: ElementGeometry, signs=None) -> LocalBasis:
    """Six quadratic shapes: vertex values and edge normal moments."""
    if signs is None:
        signs = np.ones(3)
    tables = MonoTables(_VERTEX_BARY)
    vals, _, _ = _eval_coeffs(_MORLEY_GENS, geom.grad_lambda, tables)
    system = np.empty((6, 6))
    system[:3] = vals.T
    for i in range(3):
        etab = MonoTables(_edge_bary(i, _EDGE3.points))
        _, egrads, _ = _eval_coeffs(_MORLEY_GENS, geom.grad_lambda, etab)
        dn = egrads @ geom.normals[i]
        system[3 + i] = signs[i] * (dn @ _EDGE3.weights)
    try:
        sol = np.linalg.solve(system, np.eye(6))
    except np.linalg.LinAlgError as exc:
        raise ValueError("morley element system is singular for this triangle") from exc
    coeffs = sol.T @ _MORLEY_GENS
    dofs = [DofDescriptor("value", "vertex", v) for v in range(3)]
    dofs += [
        DofDescriptor("normal_moment", "edge", i, sign=float(signs[i])) for i in range(3)
    ]
    return LocalBasis("morley", geom, coeffs, tuple(dofs))


def build_basis(kind: ElementKind, geom: ElementGeometry, signs=None) -> LocalBasis:
    kind = ElementKind(kind)
    if kind is ElementKind.NTW:
        return ntw_basis(geom, signs)
    if kind is ElementKind.SPECHT:
        return specht_basis(geom)
    return morley_basis(geom, signs)


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
