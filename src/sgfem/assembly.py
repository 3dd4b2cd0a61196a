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
error, the Gram matrices, the edge jumps and the probes.  Element matrices
and loads are batches of triangles, with a leading triangle axis.

Shapes and element forms depend on a triangle only through its edge
vectors and its edge normal signs, so :func:`build_dofmap` groups the
triangles into classes that are equal up to translation
(:func:`~sgfem.mesh.translation_classes`).  The shapes, the two element
forms and the Gram blocks are computed once per class, on its first
triangle, and summed into matrix data without an expansion to the
triangles.  A red-refined uniform mesh has a few dozen classes at every
level; a perturbed mesh has one class per triangle and pays only for the
grouping.  The per-element shape coefficients stay on the dof map for the
loads, the energy error, the jumps and the probes.

The load and the energy error integrate with one rule, :data:`FIELD_RULE`.
A dof map keeps its points on every triangle as one
:class:`~sgfem.quadrature.PointSet` (:attr:`DofMap.points`), with their
weights and their distinct axis coordinates, so a separable manufactured
field is evaluated once per distinct coordinate, not once per point, by
every load and error on the mesh.  The load's test values are computed
once per class, gathered to the triangles and kept, times the weights,
with the load's scatter index.

The form is affine in ``iota**2``: ``A = A_m + iota**2 A_g``.  A dof map
builds, on first use, the fixed pattern of the reduced matrix and, per
Lame pair, the data of ``A_m`` and ``A_g`` on it.  The pattern is the
scalar CSR of every coupling of two retained scalar degrees of freedom
inside one element, explicit zeros kept.  Both components share the
scalar basis, so each coupling is a dense 2 x 2 block of the vector
matrix, and the data are stored block-major: entry ``(2 i + a, 2 j + b)``
of coupling ``k`` sits at ``4 k + 2 a + b``.  One product of the class
blocks with the pattern's 0/1 class-to-coupling operator sums them into
these data (:class:`FormPattern`).  :func:`assemble` then only adds the
two data arrays for its ``iota``, checks and removes their asymmetry
through the pattern's transpose permutation, and assembles the load.  The
matrix structure is the same for every ``iota`` and every rounding of the
entries, and every system is numbered as the pattern is.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .elements import MORLEY_PI1, ElementKind, LocalBasis, MonoTables, basis_coefficients, evaluate
from .elements import build_basis  # noqa: F401  (bound for the benchmark tracer, which wraps it)
from .mesh import ElementGeometry, Mesh, mesh_geometry, translation_classes, triangle_geometry
from .mesh import element_geometry  # noqa: F401  (bound for the benchmark tracer, which wraps it)
from .quadrature import PointSet, triangle_rule

__all__ = [
    "MAX_ASYMMETRY",
    "FIELD_RULE",
    "FIELD_TABLES",
    "AssemblyError",
    "MaterialParams",
    "DofMap",
    "FormPattern",
    "SparseSystem",
    "build_dofmap",
    "element_forms",
    "element_matrices",
    "element_loads",
    "quadrature_points",
    "element_stiffness",
    "element_stiffness_morley",
    "element_load",
    "stiffness_matrix",
    "assemble",
]

# Largest accepted max|A - A^T| / max|A| of an assembled matrix before it
# is symmetrized.  Every family measures at most 1.1e-16 at iota = 1 and
# 1e-6, on structured:8 and on its third refinement.
MAX_ASYMMETRY = 1e-12

_STIFFNESS_RULE = triangle_rule(6)
_STIFFNESS_TABLES = MonoTables(_STIFFNESS_RULE.points)
# The rule of the load and of the energy error, the two integrals of a
# manufactured field, and the monomials at its points.
FIELD_RULE = triangle_rule(10)
FIELD_TABLES = MonoTables(FIELD_RULE.points)


class AssemblyError(ValueError):
    """An assembled matrix with non-finite entries or with an asymmetry
    above ``MAX_ASYMMETRY``."""


@dataclass(frozen=True)
class MaterialParams:
    """Lame constants and the microscopic length scale.

    ``lam >= 0`` and ``mu > 0``, both finite, and ``0 < iota <= 1``.
    """

    lam: float = 10.0
    mu: float = 1.0
    iota: float = 1.0

    def __post_init__(self):
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise ValueError(f"mu must be finite and positive, got {self.mu}")
        if not 0.0 < self.iota <= 1.0:
            raise ValueError(f"iota must be in (0, 1], got {self.iota}")


@dataclass(frozen=True)
class FormPattern:
    """The fixed structure of a reduced matrix of one dof map, in 2 x 2 blocks.

    ``indptr`` and ``indices`` are the scalar CSR of every coupling of two
    retained scalar degrees of freedom of one element, with sorted column
    indices.  The data are stored block-major on it: entry
    ``(2 i + a, 2 j + b)`` of the vector matrix, for scalar coupling ``k``
    of ``(i, j)``, sits at ``4 k + 2 a + b``.  ``data[transpose]`` is the
    data of the transposed matrix.  ``operator`` has a 1 in row ``k`` and
    column ``c n**2 + i n + j`` for each triangle of class ``c`` that puts
    its local pair ``(i, j)`` on coupling ``k``, in mesh order.  Every
    array is read-only, as are the operator's and the index arrays of the
    CSR matrices that :meth:`matrix` returns: one pattern is shared by
    every ``iota``, the forms and the Gram matrices.
    """

    indptr: np.ndarray
    indices: np.ndarray
    transpose: np.ndarray
    operator: sp.csr_matrix
    retained: np.ndarray

    @property
    def nnz(self) -> int:
        """The number of stored vector entries."""
        return 4 * len(self.indices)

    def scatter(self, blocks: np.ndarray) -> np.ndarray:
        """Sum (C, 2n, 2n) class blocks into data on the pattern."""
        ncls, m, _ = blocks.shape
        # Row c n^2 + i n + j is the 2 x 2 block of local pair (i, j) of class c.
        by_pair = blocks.reshape(ncls, m // 2, 2, m // 2, 2).swapaxes(2, 3).reshape(-1, 4)
        return (self.operator @ by_pair).ravel()

    @cached_property
    def order(self) -> sp.csr_matrix:
        """The reduced CSR structure, holding for each stored entry its
        position in ``data``: one BSR to CSR conversion per pattern."""
        n = len(self.retained)
        positions = np.arange(self.nnz).reshape(-1, 2, 2)
        order = sp.bsr_matrix((positions, self.indices, self.indptr), shape=(n, n))
        return _read_only(order.tocsr())

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The reduced CSR matrix with ``data`` on the pattern."""
        order = self.order
        return sp.csr_matrix((data[order.data], order.indices, order.indptr), shape=order.shape)


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of nonnegative integer ``keys``,
    by a least-significant-digit radix sort: one stable sort of uint16
    digits, which numpy radix-sorts, per 16 bits of the largest key and at
    least one."""
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    top = int(keys.max()) if len(keys) else 0
    shift = 16
    while top >> shift:
        digit = (keys >> shift).astype(np.uint16)[order]
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _read_only(a):
    for array in (a.data, a.indices, a.indptr) if sp.issparse(a) else (a,):
        array.flags.writeable = False
    return a


@dataclass(frozen=True)
class DofMap:
    """One family on one mesh: degree-of-freedom layout, geometry and shapes.

    ``scatter[t]`` lists the global scalar ids of element ``t`` in the
    local order of the family basis; ``boundary`` flags the scalar ids
    whose entity lies on the domain boundary.  ``geom`` is the batched
    geometry of every triangle of ``mesh`` and ``coeffs`` the (T, nloc,
    nmono) shape coefficients on it; both are built once, by
    :func:`build_dofmap`, and every mesh-level computation reads them.

    ``classes[t]`` is the class of triangle ``t``: triangles equal up to
    translation with equal signs share one.  ``class_geom`` and
    ``class_coeffs`` are the geometry and shapes of one triangle per
    class; ``coeffs`` is ``class_coeffs[classes]``.  The element forms and
    the Gram blocks are computed on the classes and summed by the pattern.

    The reduced matrix pattern, the ``iota``-free forms on it, the
    quadrature points of :data:`FIELD_RULE` and the load's test values
    and scatter index are built on first use (:attr:`pattern`,
    :meth:`forms`, :attr:`points`) and kept.
    """

    kind: ElementKind
    n_scalar: int
    scatter: np.ndarray
    boundary: np.ndarray
    mesh: Mesh
    geom: ElementGeometry
    coeffs: np.ndarray
    classes: np.ndarray
    class_geom: ElementGeometry
    class_coeffs: np.ndarray
    _forms: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # Read and written by sgfem.solver.solve alone: the elimination order
    # of the first solve on the dof map.
    _solver: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def nloc(self) -> int:
        return self.scatter.shape[1]

    @property
    def n_vector(self) -> int:
        return 2 * self.n_scalar

    @cached_property
    def pattern(self) -> FormPattern:
        """The reduced matrix structure, built from scalar element pairs:
        each coupling of two scalar degrees of freedom is one 2 x 2 block
        of vector entries (see :class:`FormPattern`).  A stable radix sort
        of the coupling keys (:func:`_stable_order`, linear time) keeps each
        coupling's triangles in mesh order; a stable sort of the columns
        gives the transpose permutation."""
        keep = ~self.boundary
        n_red = int(keep.sum())
        reduced = np.full(self.n_scalar, -1, dtype=np.int64)
        reduced[keep] = np.arange(n_red)
        loc = reduced[self.scatter]
        n = loc.shape[1]
        pairs = (loc[:, :, None] >= 0) & (loc[:, None, :] >= 0)
        keys = (loc[:, :, None] * n_red + loc[:, None, :])[pairs]
        order = _stable_order(keys)
        keys = keys[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        rows, cols = np.divmod(keys[starts], n_red)
        # scipy keeps int32 index arrays as given; int64 ones it scans and copies.
        width = len(self.class_coeffs) * n * n
        index = np.int32 if max(len(keys), width) <= np.iinfo(np.int32).max else np.int64
        local = np.arange(n * n, dtype=index).reshape(n, n)
        entries = (n * n * self.classes.astype(index)[:, None, None] + local)[pairs]
        operator = sp.csr_matrix(
            (np.ones(len(keys)), entries[order], np.append(starts, len(keys)).astype(index)),
            shape=(len(starts), width),
        )
        indptr = np.append(0, np.cumsum(np.bincount(rows, minlength=n_red)))
        # The pattern is symmetric: a stable sort of the columns lists the
        # couplings (i, j) in the CSR order of the transposed couplings
        # (j, i), and entry (a, b) of a block maps to (b, a).
        quad = 4 * _stable_order(cols)
        transpose = np.empty((len(quad), 4), dtype=quad.dtype)
        for b, a in enumerate((0, 2, 1, 3)):
            np.add(quad, a, out=transpose[:, b])
        return FormPattern(
            indptr=_read_only(indptr),
            indices=_read_only(cols),
            transpose=_read_only(transpose.ravel()),
            operator=_read_only(operator),
            retained=_read_only(np.flatnonzero(np.repeat(keep, 2))),
        )

    @cached_property
    def points(self) -> PointSet:
        """The :func:`quadrature_points` of every triangle, shared by the
        loads and the energy errors on this dof map."""
        return quadrature_points(self.geom)

    @cached_property
    def _load_tests(self) -> np.ndarray:
        """(T, n, q) test values of the load at :attr:`points` times their
        weights, computed once per class and gathered to the triangles."""
        morley = self.kind is ElementKind.MORLEY
        vals = _load_values(self.class_coeffs, morley)
        return (vals if morley else vals[self.classes]) * self.points.weights[:, None]

    @cached_property
    def _load_index(self) -> np.ndarray:
        """The global vector degree of freedom of each entry of the
        (T, 2n) element loads, flattened."""
        vids = np.repeat(2 * self.scatter, 2, axis=1) + np.tile([0, 1], self.nloc)
        return vids.ravel()

    def forms(self, lam: float, mu: float):
        """Data of ``A_m`` and ``A_g`` on :attr:`pattern` for one Lame pair,
        built on first use and kept: the reduced matrix for ``iota`` has
        data ``A_m + iota**2 A_g``, before symmetrization."""
        key = (float(lam), float(mu))
        if key not in self._forms:
            morley = self.kind is ElementKind.MORLEY
            # Overflow is reported by stiffness_matrix, not warned about here.
            with np.errstate(over="ignore", invalid="ignore"):
                blocks = element_forms(self.class_coeffs, self.class_geom, lam, mu, morley)
                self._forms[key] = tuple(self.pattern.scatter(K) for K in blocks)
        return self._forms[key]


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
    first, classes = translation_classes(mesh)
    class_geom = triangle_geometry(geom.vertices[first])
    class_coeffs = basis_coefficients(kind, class_geom, mesh.tri_edge_signs[first])
    return DofMap(
        kind=kind,
        n_scalar=n_scalar,
        scatter=scatter.astype(np.int64),
        boundary=boundary,
        mesh=mesh,
        geom=geom,
        coeffs=class_coeffs[classes],
        classes=classes,
        class_geom=class_geom,
        class_coeffs=class_coeffs,
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


def _lame(S: np.ndarray, lam: float, mu: float) -> np.ndarray:
    """Element matrices of a Lame pair from (T, 2n, 2n) blocks
    ``S[t, 2a + i, 2b + j] = sum_q w_q d_i phi_a d_j phi_b`` (or the same
    with Hessian rows ``d_ik``, ``d_jk`` summed over ``k``)."""
    ntri, m = S.shape[:2]
    S = S.reshape(ntri, m // 2, 2, m // 2, 2)
    s00, s01, s10, s11 = S[:, :, 0, :, 0], S[:, :, 0, :, 1], S[:, :, 1, :, 0], S[:, :, 1, :, 1]
    # lam div u div v + 2 mu eps(u) : eps(v), on each 2 x 2 component block.
    K = np.empty_like(S)
    K[:, :, 0, :, 0] = (lam + 2.0 * mu) * s00 + mu * s11
    K[:, :, 1, :, 1] = (lam + 2.0 * mu) * s11 + mu * s00
    K[:, :, 0, :, 1] = lam * s01 + mu * s10
    K[:, :, 1, :, 0] = lam * s10 + mu * s01
    return K.reshape(ntri, m, m)


def element_forms(coeffs, geom: ElementGeometry, lam: float, mu: float, morley: bool):
    """(K_m, K_g): (T, 2n, 2n) element matrices of the membrane and the
    strain gradient parts of a batch of triangles, for vector degree of
    freedom order ``2 a + component``; the element matrix at ``iota`` is
    ``K_m + iota**2 K_g``.

    ``coeffs`` are the (T, n, nmono) shape coefficients on the batch
    ``geom``.  With ``morley`` the membrane part acts on the linear vertex
    interpolant (the modified form).
    """
    G, H = evaluate(coeffs, geom.grad_lambda, _STIFFNESS_TABLES)
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
    return _lame(grad_outer, lam, mu), _lame(hess_rows, lam, mu)


def element_matrices(coeffs, geom: ElementGeometry, mat: MaterialParams, morley: bool):
    """(T, 2n, 2n) element matrices ``K_m + iota**2 K_g`` of a batch of
    triangles (:func:`element_forms`)."""
    K_m, K_g = element_forms(coeffs, geom, mat.lam, mat.mu, morley)
    return K_m + mat.iota**2 * K_g


def quadrature_points(geom: ElementGeometry) -> PointSet:
    """The (T * q, 2) points of :data:`FIELD_RULE` on the batch ``geom``,
    triangle by triangle, with (T, q) weights ``area * w_q``."""
    xy = FIELD_RULE.points @ geom.vertices
    return PointSet(xy.reshape(-1, 2), geom.area[:, None] * FIELD_RULE.weights)


def _load_values(coeffs, morley: bool):
    """(T, n, q) shape values at the points of :data:`FIELD_RULE`, or with
    ``morley`` the (1, n, q) values of the linear vertex interpolants."""
    if morley:
        return (FIELD_RULE.points @ MORLEY_PI1).T[None]
    return coeffs @ FIELD_TABLES.M


def _loads(tests, points: PointSet, f):
    """(T, 2n) load vectors of the (T, n, q) test values times weights
    ``tests`` against ``f``, which is called once, on the whole point set."""
    ntri = len(points.weights)
    F = np.asarray(f(points)).reshape(ntri, -1, 2)
    return (tests @ F).reshape(ntri, -1)


def element_loads(coeffs, geom: ElementGeometry, f, morley: bool):
    """(T, 2n) element load vectors ``(f, v)``, or ``(f, pi1 v)`` with ``morley``.

    ``f`` is called once, on the :func:`quadrature_points` of the batch.
    """
    points = quadrature_points(geom)
    return _loads(_load_values(coeffs, morley) * points.weights[:, None], points, f)


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


def stiffness_matrix(dofmap: DofMap, mat: MaterialParams):
    """The symmetrized reduced matrix for ``mat``, in the numbering of the
    dof map's :attr:`~DofMap.pattern`, and its asymmetry
    ``max|A - A^T| / max|A|`` before symmetrization.

    Raises :class:`AssemblyError` if an entry is not finite (Lame
    constants large enough to overflow) or the asymmetry exceeds
    ``MAX_ASYMMETRY``.
    """
    A_m, A_g = dofmap.forms(mat.lam, mat.mu)
    with np.errstate(over="ignore", invalid="ignore"):
        data = A_m + mat.iota**2 * A_g
        data_t = data[dofmap.pattern.transpose]
        asymmetry = float(np.abs(data - data_t).max() / np.abs(data).max()) if data.size else 0.0
    if not asymmetry <= MAX_ASYMMETRY:
        # A non-finite entry makes the asymmetry nan, which fails the gate.
        if not np.isfinite(data).all():
            raise AssemblyError(
                f"assembled matrix has non-finite entries for lam={mat.lam:g}, mu={mat.mu:g}"
            )
        raise AssemblyError(
            f"assembled matrix asymmetry {asymmetry:.2e} exceeds {MAX_ASYMMETRY:.0e}"
        )
    # In place, with the bits of 0.5 * (data + data_t).
    data += data_t
    data *= 0.5
    return dofmap.pattern.matrix(data), asymmetry


def assemble(dofmap: DofMap, mat: MaterialParams, f) -> SparseSystem:
    """Assemble the reduced system for one family on one mesh: the
    :func:`stiffness_matrix` and the load, numbered as the dof map's
    :attr:`~DofMap.pattern`.

    ``f(xy)`` maps points of shape (q, 2) to load values of shape (q, 2);
    it is called once, on the dof map's :attr:`~DofMap.points`.  Raises
    :class:`AssemblyError` if the matrix is not finite or not symmetric to
    ``MAX_ASYMMETRY``.
    """
    matrix, asymmetry = stiffness_matrix(dofmap, mat)
    retained = dofmap.pattern.retained
    loads = _loads(dofmap._load_tests, dofmap.points, f)
    rhs = np.bincount(dofmap._load_index, loads.ravel(), dofmap.n_vector)
    return SparseSystem(
        matrix=matrix,
        rhs=rhs[retained],
        retained=retained,
        n_total=dofmap.n_vector,
        dofmap=dofmap,
        asymmetry=asymmetry,
    )
