"""Global assembly of the strain gradient elasticity forms.

The bilinear form couples the membrane energy with the strain gradient
term scaled by ``iota**2``:

    a(u, v) = lam (div u, div v) + 2 mu (eps(u), eps(v))
            + iota^2 [lam (grad div u, grad div v) + 2 mu (grad eps(u), grad eps(v))]

Displacements are vector valued; both components share the scalar basis of
the chosen family, and the vector degree of freedom ``2 s + c`` holds
component ``c`` of scalar degree of freedom ``s``.  Clamped boundary
conditions are imposed by dropping every degree of freedom whose entity
lies on the boundary.

The morley family uses the modified form in which the membrane part acts
on the elementwise linear interpolant of the arguments and the load pairs
``f`` with that interpolant.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .elements import ElementKind, LocalBasis, MonoTables, build_basis, pi1_map
from .mesh import Mesh, element_geometry
from .quadrature import TriangleRule, triangle_rule

__all__ = [
    "MaterialParams",
    "DofMap",
    "SparseSystem",
    "build_dofmap",
    "element_stiffness",
    "element_stiffness_morley",
    "element_load",
    "assemble",
]


@dataclass(frozen=True)
class MaterialParams:
    """Lame constants and the microscopic length scale.

    ``lam >= 0``, ``mu > 0`` and ``0 < iota <= 1``.
    """

    lam: float = 10.0
    mu: float = 1.0
    iota: float = 1.0

    def __post_init__(self):
        if not self.lam >= 0.0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if not self.mu > 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not 0.0 < self.iota <= 1.0:
            raise ValueError(f"iota must be in (0, 1], got {self.iota}")


@dataclass(frozen=True)
class DofMap:
    """Scalar degree-of-freedom layout for one family on one mesh.

    ``scatter[t]`` lists the global scalar ids of element ``t`` in the
    local order of the family basis; ``boundary`` flags the scalar ids
    whose entity lies on the domain boundary; ``signs`` are the per-element
    edge normal signs that orient moment degrees of freedom.
    """

    kind: ElementKind
    n_scalar: int
    scatter: np.ndarray
    boundary: np.ndarray
    signs: np.ndarray

    @property
    def nloc(self) -> int:
        return self.scatter.shape[1]

    @property
    def n_vector(self) -> int:
        return 2 * self.n_scalar


def build_dofmap(mesh: Mesh, kind) -> DofMap:
    kind = ElementKind(kind)
    tris = mesh.triangles
    nv, ne = mesh.num_vertices, mesh.num_edges
    if kind is ElementKind.NTW:
        n_scalar = nv + 2 * ne
        scatter = np.hstack([tris, nv + mesh.tri_edges, nv + ne + mesh.tri_edges])
        boundary = np.concatenate(
            [mesh.vertex_is_boundary, mesh.edge_is_boundary, mesh.edge_is_boundary]
        )
    elif kind is ElementKind.SPECHT:
        n_scalar = 3 * nv
        scatter = 3 * tris[:, [0, 0, 0, 1, 1, 1, 2, 2, 2]] + np.tile([0, 1, 2], 3)
        boundary = np.repeat(mesh.vertex_is_boundary, 3)
    else:
        n_scalar = nv + ne
        scatter = np.hstack([tris, nv + mesh.tri_edges])
        boundary = np.concatenate([mesh.vertex_is_boundary, mesh.edge_is_boundary])
    return DofMap(
        kind=kind,
        n_scalar=n_scalar,
        scatter=scatter.astype(np.int64),
        boundary=boundary,
        signs=mesh.tri_edge_signs,
    )


@dataclass
class SparseSystem:
    """Reduced linear system after boundary elimination.

    ``retained[r]`` is the global vector degree of freedom behind row ``r``.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    retained: np.ndarray
    n_total: int
    dofmap: DofMap
    assembly_seconds: float = field(default=0.0, compare=False)

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        """Embed a reduced solution into the full vector of coefficients."""
        full = np.zeros(self.n_total)
        full[self.retained] = reduced
        return full


def _vector_pairs(lam, mu, i2, G, H, w):
    """Contract gradients/Hessians of scalar shapes into the vector form.

    ``G`` is (n, q, 2), ``H`` is (n, q, 2, 2) and ``w`` the area-scaled
    weights.  Returns the (2n, 2n) element matrix for vector degree of
    freedom order ``2 a + component``.
    """
    n = G.shape[0]
    grad_outer = np.einsum("aqi,bqj,q->aibj", G, G, w)
    grad_dot = np.einsum("aqk,bqk,q->ab", G, G, w)
    hess_rows = np.einsum("aqik,bqjk,q->aibj", H, H, w)
    hess_dot = np.einsum("aqkl,bqkl,q->ab", H, H, w)
    K = lam * (grad_outer + i2 * hess_rows)
    K += mu * (grad_outer + i2 * hess_rows).transpose(0, 3, 2, 1)
    diag = mu * (grad_dot + i2 * hess_dot)
    K[:, 0, :, 0] += diag
    K[:, 1, :, 1] += diag
    return K.reshape(2 * n, 2 * n)


def element_stiffness(
    basis: LocalBasis, mat: MaterialParams, rule: TriangleRule | None = None, tables=None
) -> np.ndarray:
    """Element matrix of the full bilinear form (ntw and specht)."""
    rule = rule or triangle_rule(6)
    _, G, H = basis.eval_all(rule.points, tables)
    w = basis.geom.area * rule.weights
    return _vector_pairs(mat.lam, mat.mu, mat.iota**2, G, H, w)


def element_stiffness_morley(
    basis: LocalBasis, mat: MaterialParams, rule: TriangleRule | None = None, tables=None
) -> np.ndarray:
    """Element matrix of the modified form: membrane term through the
    linear vertex interpolant, strain gradient term unchanged."""
    rule = rule or triangle_rule(6)
    _, _, H = basis.eval_all(rule.points, tables)
    w = basis.geom.area * rule.weights
    i2 = mat.iota**2
    n = basis.nloc

    # Membrane part on the linear interpolant: constant gradients.
    lin_grad = pi1_map(basis).T @ basis.geom.grad_lambda  # (n, 2)
    area = basis.geom.area
    grad_outer = area * np.einsum("ai,bj->aibj", lin_grad, lin_grad)
    grad_dot = area * lin_grad @ lin_grad.T
    K = mat.lam * grad_outer + mat.mu * grad_outer.transpose(0, 3, 2, 1)
    K[:, 0, :, 0] += mat.mu * grad_dot
    K[:, 1, :, 1] += mat.mu * grad_dot

    hess_rows = np.einsum("aqik,bqjk,q->aibj", H, H, w)
    hess_dot = np.einsum("aqkl,bqkl,q->ab", H, H, w)
    K += i2 * (mat.lam * hess_rows + mat.mu * hess_rows.transpose(0, 3, 2, 1))
    diag = mat.mu * i2 * hess_dot
    K[:, 0, :, 0] += diag
    K[:, 1, :, 1] += diag
    return K.reshape(2 * n, 2 * n)


def element_load(basis: LocalBasis, f, rule: TriangleRule | None = None, tables=None) -> np.ndarray:
    """Element load vector ``(f, v)`` (or ``(f, pi1 v)`` for morley)."""
    rule = rule or triangle_rule(10)
    if basis.family == "morley":
        vals = (rule.points @ pi1_map(basis)).T
    else:
        vals = basis.coeffs @ (tables.M if tables is not None else MonoTables(rule.points).M)
    xy = rule.points @ basis.geom.vertices
    F = np.asarray(f(xy))
    w = basis.geom.area * rule.weights
    return np.einsum("aq,q,qi->ai", vals, w, F).reshape(-1)


def assemble(
    mesh: Mesh,
    kind,
    mat: MaterialParams,
    f,
    clamp: bool = True,
) -> SparseSystem:
    """Assemble the reduced system for one family on one mesh.

    ``f(xy)`` maps points of shape (q, 2) to load values of shape (q, 2).
    With ``clamp=False`` no boundary condition is imposed and every degree
    of freedom is retained (useful for energy diagnostics).
    """
    t0 = time.perf_counter()
    kind = ElementKind(kind)
    dofmap = build_dofmap(mesh, kind)
    srule = triangle_rule(6)
    lrule = triangle_rule(10)
    stab = MonoTables(srule.points)
    ltab = MonoTables(lrule.points)

    ntri = mesh.num_triangles
    nloc = dofmap.nloc
    nvec = 2 * nloc
    K_all = np.empty((ntri, nvec, nvec))
    b_all = np.empty((ntri, nvec))
    morley = kind is ElementKind.MORLEY
    for t in range(ntri):
        geom = element_geometry(mesh, t)
        basis = build_basis(kind, geom, dofmap.signs[t])
        if morley:
            K_all[t] = element_stiffness_morley(basis, mat, srule, stab)
        else:
            K_all[t] = element_stiffness(basis, mat, srule, stab)
        b_all[t] = element_load(basis, f, lrule, ltab)

    vscatter = np.repeat(2 * dofmap.scatter, 2, axis=1) + np.tile([0, 1], nloc)
    n_total = dofmap.n_vector
    rows = np.repeat(vscatter, nvec, axis=1).ravel()
    cols = np.tile(vscatter, (1, nvec)).ravel()
    A = sp.coo_matrix((K_all.ravel(), (rows, cols)), shape=(n_total, n_total)).tocsr()
    rhs = np.zeros(n_total)
    np.add.at(rhs, vscatter.ravel(), b_all.ravel())

    if clamp:
        retained = np.flatnonzero(~np.repeat(dofmap.boundary, 2))
    else:
        retained = np.arange(n_total)
    reduced = A[retained][:, retained]
    reduced = (0.5 * (reduced + reduced.T)).tocsr()
    return SparseSystem(
        matrix=reduced,
        rhs=rhs[retained],
        retained=retained,
        n_total=n_total,
        dofmap=dofmap,
        assembly_seconds=time.perf_counter() - t0,
    )
