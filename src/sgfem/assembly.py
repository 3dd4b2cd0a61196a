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

A :class:`DofMap` is one family on one mesh: besides the degree-of-freedom
layout it carries the mesh's geometry and the family's shape coefficients,
computed once by :func:`build_dofmap` and shared by assembly, the energy
error, the Gram matrices, the edge jumps and the probes.  Assembly is one
batch over all triangles: element matrices and loads are arrays with a
leading triangle axis, ``f`` is evaluated once on all quadrature points,
and one COO to CSR conversion sums the blocks.  The per-element functions
are batches of one of the same kernels.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .elements import MORLEY_PI1, ElementKind, LocalBasis, MonoTables, basis_coefficients, evaluate
from .elements import build_basis  # noqa: F401  (bound for the benchmark tracer, which wraps it)
from .mesh import ElementGeometry, Mesh, mesh_geometry
from .mesh import element_geometry  # noqa: F401  (bound for the benchmark tracer, which wraps it)
from .quadrature import triangle_rule

__all__ = [
    "MAX_ASYMMETRY",
    "MaterialParams",
    "DofMap",
    "SparseSystem",
    "build_dofmap",
    "element_matrices",
    "element_loads",
    "element_stiffness",
    "element_stiffness_morley",
    "element_load",
    "sum_blocks",
    "assemble",
]

# Largest accepted max|A - A^T| / max|A| of an assembled matrix before it
# is symmetrized.  Every family measures at most 1.1e-16 at iota = 1 and
# 1e-6, on structured:8 and on its third refinement.
MAX_ASYMMETRY = 1e-12

_STIFFNESS_RULE = triangle_rule(6)
_LOAD_RULE = triangle_rule(10)
_STIFFNESS_TABLES = MonoTables(_STIFFNESS_RULE.points)
_LOAD_TABLES = MonoTables(_LOAD_RULE.points)


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
    """One family on one mesh: degree-of-freedom layout, geometry and shapes.

    ``scatter[t]`` lists the global scalar ids of element ``t`` in the
    local order of the family basis; ``boundary`` flags the scalar ids
    whose entity lies on the domain boundary; ``signs`` are the per-element
    edge normal signs that orient moment degrees of freedom.  ``geom`` is
    the batched geometry of every triangle of ``mesh`` and ``coeffs`` the
    (T, nloc, nmono) shape coefficients on it; both are built once, by
    :func:`build_dofmap`, and every mesh-level computation reads them.
    """

    kind: ElementKind
    n_scalar: int
    scatter: np.ndarray
    boundary: np.ndarray
    signs: np.ndarray
    mesh: Mesh
    geom: ElementGeometry
    coeffs: np.ndarray

    @property
    def nloc(self) -> int:
        return self.scatter.shape[1]

    @property
    def n_vector(self) -> int:
        return 2 * self.n_scalar


def build_dofmap(mesh: Mesh, kind) -> DofMap:
    """The degree-of-freedom layout, geometry and shapes of ``kind`` on ``mesh``."""
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
    geom = mesh_geometry(mesh)
    return DofMap(
        kind=kind,
        n_scalar=n_scalar,
        scatter=scatter.astype(np.int64),
        boundary=boundary,
        signs=mesh.tri_edge_signs,
        mesh=mesh,
        geom=geom,
        coeffs=basis_coefficients(kind, geom, mesh.tri_edge_signs),
    )


@dataclass
class SparseSystem:
    """Reduced linear system after boundary elimination.

    ``retained[r]`` is the global vector degree of freedom behind row ``r``;
    ``asymmetry`` is ``max|A - A^T| / max|A|`` of the reduced matrix before
    it was symmetrized.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    retained: np.ndarray
    n_total: int
    dofmap: DofMap
    asymmetry: float = field(default=0.0, compare=False)

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        """Embed a reduced solution into the full vector of coefficients."""
        full = np.zeros(self.n_total)
        full[self.retained] = reduced
        return full


def element_matrices(coeffs, geom: ElementGeometry, mat: MaterialParams, morley: bool):
    """(T, 2n, 2n) element matrices of a batch of triangles, for vector
    degree of freedom order ``2 a + component``.

    ``coeffs`` are the (T, n, nmono) shape coefficients on the batch
    ``geom``.  With ``morley`` the membrane part acts on the linear vertex
    interpolant (the modified form); the strain gradient part is unchanged.
    """
    _, G, H = evaluate(coeffs, geom.grad_lambda, _STIFFNESS_TABLES)
    w = geom.area[:, None] * _STIFFNESS_RULE.weights
    wg = w
    if morley:
        # Membrane part on the linear interpolant: one constant gradient per shape.
        G = (MORLEY_PI1.T @ geom.grad_lambda)[:, :, None]
        wg = geom.area[:, None]
    ntri, n = G.shape[:2]
    rows = G.swapaxes(2, 3).reshape(ntri, 2 * n, -1)
    grad_outer = (rows * wg[:, None]) @ rows.swapaxes(1, 2)
    rows = H.swapaxes(2, 3).reshape(ntri, 2 * n, -1)
    hess_rows = (rows * np.repeat(w, 2, axis=1)[:, None]) @ rows.swapaxes(1, 2)
    # S[t, a, i, b, j] = sum_q w_q (d_i phi_a d_j phi_b + iota^2 d_ik phi_a d_jk phi_b)
    S = (grad_outer + mat.iota**2 * hess_rows).reshape(ntri, n, 2, n, 2)
    K = mat.lam * S + mat.mu * S.transpose(0, 1, 4, 3, 2)
    diag = mat.mu * (S[:, :, 0, :, 0] + S[:, :, 1, :, 1])
    K[:, :, 0, :, 0] += diag
    K[:, :, 1, :, 1] += diag
    return K.reshape(ntri, 2 * n, 2 * n)


def element_loads(coeffs, geom: ElementGeometry, f, morley: bool):
    """(T, 2n) element load vectors ``(f, v)``, or ``(f, pi1 v)`` with ``morley``.

    ``f`` is called once, on all (T * q, 2) quadrature points of the batch.
    """
    ntri = len(geom.area)
    if morley:
        vals = (_LOAD_RULE.points @ MORLEY_PI1).T[None]
    else:
        vals = coeffs @ _LOAD_TABLES.M
    xy = _LOAD_RULE.points @ geom.vertices
    F = np.asarray(f(xy.reshape(-1, 2))).reshape(xy.shape)
    w = geom.area[:, None] * _LOAD_RULE.weights
    return ((vals * w[:, None]) @ F).reshape(ntri, -1)


def element_stiffness(basis: LocalBasis, mat: MaterialParams) -> np.ndarray:
    """Element matrix of the full bilinear form (ntw and specht)."""
    return element_matrices(basis.coeffs[None], basis.geom.batch_of_one(), mat, False)[0]


def element_stiffness_morley(basis: LocalBasis, mat: MaterialParams) -> np.ndarray:
    """Element matrix of the modified form: membrane term through the
    linear vertex interpolant, strain gradient term unchanged."""
    return element_matrices(basis.coeffs[None], basis.geom.batch_of_one(), mat, True)[0]


def element_load(basis: LocalBasis, f) -> np.ndarray:
    """Element load vector ``(f, v)`` (or ``(f, pi1 v)`` for morley)."""
    morley = basis.family == ElementKind.MORLEY.value
    return element_loads(basis.coeffs[None], basis.geom.batch_of_one(), f, morley)[0]


def _vector_ids(dofmap: DofMap) -> np.ndarray:
    """(T, 2n) global vector degree of freedom ids of every element."""
    return np.repeat(2 * dofmap.scatter, 2, axis=1) + np.tile([0, 1], dofmap.nloc)


def sum_blocks(dofmap: DofMap, blocks: np.ndarray) -> sp.csr_matrix:
    """Sum (T, 2n, 2n) element blocks into the global CSR matrix."""
    vids = _vector_ids(dofmap)
    nvec = vids.shape[1]
    rows = np.repeat(vids, nvec, axis=1).ravel()
    cols = np.tile(vids, (1, nvec)).ravel()
    n = dofmap.n_vector
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assemble(dofmap: DofMap, mat: MaterialParams, f) -> SparseSystem:
    """Assemble the reduced system for one family on one mesh.

    ``f(xy)`` maps points of shape (q, 2) to load values of shape (q, 2).
    Raises ``ValueError`` if the element matrices are not symmetric to
    ``MAX_ASYMMETRY``.
    """
    morley = dofmap.kind is ElementKind.MORLEY
    A = sum_blocks(dofmap, element_matrices(dofmap.coeffs, dofmap.geom, mat, morley))
    rhs = np.zeros(dofmap.n_vector)
    loads = element_loads(dofmap.coeffs, dofmap.geom, f, morley)
    np.add.at(rhs, _vector_ids(dofmap).ravel(), loads.ravel())

    retained = np.flatnonzero(~np.repeat(dofmap.boundary, 2))
    reduced = A[retained][:, retained]
    asymmetry = float(abs(reduced - reduced.T).max() / abs(reduced).max()) if reduced.nnz else 0.0
    if not asymmetry <= MAX_ASYMMETRY:
        raise ValueError(
            f"assembled matrix asymmetry {asymmetry:.2e} exceeds {MAX_ASYMMETRY:.0e}"
        )
    reduced = (0.5 * (reduced + reduced.T)).tocsr()
    return SparseSystem(
        matrix=reduced,
        rhs=rhs[retained],
        retained=retained,
        n_total=dofmap.n_vector,
        dofmap=dofmap,
        asymmetry=asymmetry,
    )
