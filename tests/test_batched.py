"""The batched element pipeline against its batch-of-one form.

Assembly, the energy error, the Gram matrices and the edge jumps evaluate
every element quantity for all triangles at once, on the per-class
geometry and shape coefficients a ``DofMap`` carries; the per-element API
(``build_basis``, ``element_stiffness``, ``element_load``) runs the same
kernels on one triangle.  Both must agree triangle by triangle, and the
edge jumps edge by edge, also on nearly degenerate triangles.

The reduced matrix, combined per ``iota`` from the two forms on the dof
map's fixed pattern, is checked against the unsplit assembly it replaced.

Shapes, forms and Gram blocks are computed once per translation class of
triangles, and the pattern's operator sums the class blocks; they are
checked against the same kernels run on every triangle.
"""

import dataclasses

import hypothesis
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sgfem.analysis import (
    _gram_matrices,
    coercivity_check,
    edge_mean_jumps,
    energy_error,
    gram_blocks,
    jump_check,
    local_coefficients,
)
from sgfem import assembly
from sgfem.assembly import (
    FIELD_TABLES,
    MaterialParams,
    assemble,
    build_dofmap,
    element_load,
    element_forms,
    element_loads,
    element_matrices,
    element_stiffness,
    element_stiffness_morley,
)
from sgfem.elements import (
    DOF_TABLES,
    ElementKind,
    basis_coefficients,
    build_basis,
    edge_normal_moments,
    evaluate,
)
from sgfem.manufactured import example_field, source
from sgfem.mesh import (
    element_geometry,
    make_structured,
    mesh_geometry,
    refine,
    translation_classes,
)
from sgfem.quadrature import PointSet
from sgfem.solver import solve

from element_reference import class_count
from random_meshes import jittered_mesh

# Hypothesis seeds of the derandomized property tests below.  Derandomized
# examples are seeded from a test's source text; fixed seeds keep each test
# on the same examples when its body is edited.
BATCH_OF_ONE_SEED = int(
    "a9518275eac74b94d04ffa68a9ebe2bc3ccc4eb6450a9dd4"
    "80e4e69721183668bf8c548a88fc4e3a4095990769d15c7a",
    16,
)
SPLIT_FORMS_SEED = int(
    "cc7f179a9825e2995ad1304df96e99d4b8bd0bdd5bc0ac99"
    "fed0846b18cae0ed9e2d6614cd20b3e74d128ec0c067afe4",
    16,
)


def assert_close(batched, single, scale=None):
    """Agreement within 1e-13 of ``scale``, by default the largest entry."""
    if scale is None:
        scale = np.abs(single).max()
    assert_allclose(batched, single, rtol=0.0, atol=1e-13 * max(scale, np.finfo(float).tiny))


def load(xy):
    return np.stack([np.sin(3.0 * xy[:, 0]) + xy[:, 1], xy[:, 0] * xy[:, 1]], axis=-1)


def reference_jumps(mesh, means):
    """Edge by edge, the jumps and the scale of :func:`edge_mean_jumps`
    from (T, 3, 2) one-sided means along the global normals, and the two
    triangles of each interior edge."""
    jumps, sides, pairs = [], [], []
    for e in np.flatnonzero(~mesh.edge_is_boundary):
        pair = mesh.edge_tris[e]
        side = [means[t, list(mesh.tri_edges[t]).index(e)] for t in pair]
        jumps.append(side[0] - side[1])
        sides += side
        pairs.append(pair)
    scale = np.abs(sides).max() if sides else 0.0
    return np.reshape(jumps, (-1, 2)), scale, np.reshape(pairs, (-1, 2))


@hypothesis.seed(BATCH_OF_ONE_SEED)
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 3),
    amplitude=st.floats(0.0, 0.95),
    squash=st.sampled_from([1.0, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_matches_batch_of_one(n, amplitude, squash, seed):
    mesh = jittered_mesh(n, amplitude, squash, seed)
    mat = MaterialParams(lam=10.0, mu=1.0, iota=0.3)
    signs = mesh.tri_edge_signs
    normals = mesh.edge_normals[mesh.tri_edges]
    geom = mesh_geometry(mesh)
    rng = np.random.default_rng(seed)
    for kind in ElementKind:
        morley = kind is ElementKind.MORLEY
        dofmap = build_dofmap(mesh, kind)
        coeffs = dofmap.class_coeffs[dofmap.classes]
        K = element_matrices(coeffs, geom, mat, morley)
        b = element_loads(coeffs, geom, load, morley)
        gram_g, gram_h = gram_blocks(coeffs, geom, morley)
        local = local_coefficients(dofmap, rng.normal(size=dofmap.n_vector))
        means = np.empty((mesh.num_triangles, 3, 2))
        grad_scale = np.empty(mesh.num_triangles)
        stiffness = element_stiffness_morley if morley else element_stiffness
        for t in range(mesh.num_triangles):
            basis = build_basis(kind, element_geometry(mesh, t), signs[t])
            one = basis.geom.batch_of_one()
            assert_close(coeffs[t], basis.coeffs)
            assert_close(K[t], stiffness(basis, mat))
            assert_close(b[t], element_load(basis, load))
            g1, h1 = gram_blocks(basis.coeffs[None], one, morley)
            assert_close(gram_g[t], g1[0])
            assert_close(gram_h[t], h1[0])
            # The one-sided means along the global normals, from the
            # polynomials of this triangle's field.
            poly = local[t].T @ basis.coeffs
            means[t] = edge_normal_moments(poly[None], one, normals[t : t + 1])[0].T
            # The gradients on the edges summed in absolute value over the
            # coefficients, the monomials and the barycentric directions.
            terms = np.abs(basis.coeffs) @ np.abs(DOF_TABLES.D1[:, 6:]).swapaxes(0, 1)
            terms = (terms @ np.abs(basis.geom.grad_lambda)).max(axis=(0, 2))
            grad_scale[t] = (np.abs(local[t]).T @ terms).max()
        jumps, scale = edge_mean_jumps(dofmap, local)
        expected, expected_scale, pairs = reference_jumps(mesh, means)
        # On flat triangles a mean normal derivative can be O(1) while the
        # terms it sums are O(1/flatness), so each jump is compared on the
        # scale of the gradient terms on its two sides.
        tol = 1e-13 * grad_scale[pairs].max(axis=1)
        assert jumps.shape == expected.shape
        assert np.all(np.abs(jumps - expected) <= tol[:, None])
        assert abs(scale - expected_scale) <= 1e-13 * grad_scale.max()


def unsplit_system(dofmap, mat, f):
    """The reduced matrix and load assembled without the split: element
    matrices at ``mat.iota`` summed by one COO to CSR conversion, boundary
    rows and columns dropped, then ``0.5 (A + A^T)``."""
    morley = dofmap.kind is ElementKind.MORLEY
    coeffs = dofmap.class_coeffs[dofmap.classes]
    geom = mesh_geometry(dofmap.mesh)
    K = element_matrices(coeffs, geom, mat, morley)
    vids = np.repeat(2 * dofmap.scatter, 2, axis=1) + np.tile([0, 1], dofmap.nloc)
    m = vids.shape[1]
    rows = np.repeat(vids, m, axis=1).ravel()
    cols = np.tile(vids, (1, m)).ravel()
    n = dofmap.n_vector
    A = sp.coo_matrix((K.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    rhs = np.zeros(n)
    np.add.at(rhs, vids.ravel(), element_loads(coeffs, geom, f, morley).ravel())
    retained = np.flatnonzero(~np.repeat(dofmap.boundary, 2))
    A = A[retained][:, retained]
    return 0.5 * (A + A.T), rhs[retained]


def element_pairs(dofmap):
    """The (row, col) pairs of retained vector degrees of freedom that share
    an element, in the numbering of the reduced matrix, one element at a
    time."""
    retained = np.flatnonzero(~np.repeat(dofmap.boundary, 2))
    reduced = dict(zip(retained.tolist(), range(len(retained))))
    pairs = set()
    for ids in dofmap.scatter.tolist():
        rows = [reduced[v] for s in ids for v in (2 * s, 2 * s + 1) if v in reduced]
        pairs.update((i, j) for i in rows for j in rows)
    return pairs


@hypothesis.seed(SPLIT_FORMS_SEED)
@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(2, 4),
    amplitude=st.floats(0.0, 0.95),
    seed=st.integers(0, 2**32 - 1),
    iotas=st.lists(st.floats(1e-8, 1.0), min_size=2, max_size=4),
    lam=st.floats(0.0, 100.0),
    mu=st.floats(1e-2, 10.0),
)
def test_split_forms_match_unsplit_assembly(n, amplitude, seed, iotas, lam, mu):
    """Entry by entry, within 1e-14 of the largest entry, for every iota of
    one dof map; the CSR structure is the dof map's pattern every time, and
    the pattern stores exactly the pairs that share an element."""
    mesh = jittered_mesh(n, amplitude, 1.0, seed)
    rng = np.random.default_rng(seed)
    for kind in ElementKind:
        dofmap = build_dofmap(mesh, kind)
        pattern = dofmap.pattern
        data = rng.normal(size=pattern.nnz)
        matrix = pattern.matrix(data)
        rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
        stored = set(zip(rows.tolist(), matrix.indices.tolist()))
        assert len(stored) == matrix.nnz == pattern.nnz
        assert stored == element_pairs(dofmap)
        transposed = matrix.T.toarray()
        assert np.array_equal(pattern.matrix(data[pattern.transpose]).toarray(), transposed)
        for iota in iotas:
            mat = MaterialParams(lam=lam, mu=mu, iota=iota)
            system = assemble(dofmap, mat, load)
            A, rhs = unsplit_system(dofmap, mat, load)
            assert isinstance(system.matrix, sp.csr_matrix)
            assert system.matrix.has_canonical_format
            assert np.array_equal(system.matrix.indptr, matrix.indptr)
            assert np.array_equal(system.matrix.indices, matrix.indices)
            assert system.matrix.nnz == pattern.nnz >= A.nnz
            scale = np.abs(A).max()
            assert np.abs(system.matrix - A).max() <= 1e-14 * scale
            assert_allclose(system.rhs, rhs, rtol=0.0, atol=1e-14 * np.abs(rhs).max())


def vector_pattern_matrix(dofmap, blocks):
    """(T, 2n, 2n) element blocks summed on a pattern found at vector level:
    ``np.unique`` over the (row, col) keys of every pair of retained vector
    degrees of freedom of one element, explicit zeros kept."""
    vids = np.repeat(2 * dofmap.scatter, 2, axis=1) + np.tile([0, 1], dofmap.nloc)
    keep = ~np.repeat(dofmap.boundary, 2)
    n = int(keep.sum())
    reduced = np.full(dofmap.n_vector, -1)
    reduced[keep] = np.arange(n)
    loc = reduced[vids]
    pairs = (loc[:, :, None] >= 0) & (loc[:, None, :] >= 0)
    keys, slot = np.unique((loc[:, :, None] * n + loc[:, None, :])[pairs], return_inverse=True)
    data = np.bincount(slot, blocks[pairs], len(keys))
    rows, cols = np.divmod(keys, n)
    indptr = np.append(0, np.cumsum(np.bincount(rows, minlength=n)))
    return sp.csr_matrix((data, cols, indptr), shape=(n, n))


@pytest.mark.parametrize("kind", list(ElementKind))
def test_block_pattern_matches_vector_pattern(kind):
    """Class blocks summed by the block-major pattern's operator give the
    reduced matrix of the vector-level reference on every triangle's block
    bit for bit: the same structure, and every entry summed from the same
    element entries in the same order, also where triangles share a class.
    The transpose permutation, built by a counting sort, is the one from
    sorting the transposed coupling keys."""
    rng = np.random.default_rng(17)
    meshes = [make_structured(n) for n in (1, 2, 3)] + [jittered_mesh(3, 0.9, 1.0, 5)]
    for mesh in meshes:
        dofmap = build_dofmap(mesh, kind)
        pattern = dofmap.pattern
        n = len(pattern.indptr) - 1
        rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
        mirror = np.argsort(pattern.indices * n + rows)
        assert np.array_equal(pattern.transpose, (4 * mirror[:, None] + [0, 2, 1, 3]).ravel())
        m = 2 * dofmap.nloc
        K = rng.normal(size=(len(dofmap.class_coeffs), m, m))
        got = pattern.matrix(pattern.scatter(K))
        expected = vector_pattern_matrix(dofmap, K[dofmap.classes])
        assert np.array_equal(got.indptr, expected.indptr)
        assert np.array_equal(got.indices, expected.indices)
        assert np.array_equal(got.data, expected.data)


def class_meshes():
    """structured:2 at refinement levels 0-3 and a jittered mesh."""
    meshes = [make_structured(2)]
    for _ in range(3):
        meshes.append(refine(meshes[-1]))
    return meshes + [jittered_mesh(3, 0.5, 1.0, 11)]


def test_translation_classes():
    """Members of a class have bit-identical edge vectors, signs and
    derived geometry, so a dof map's class row of the area or the
    barycentric gradients is each member's; the count is the row-wise
    reference's."""
    for mesh in class_meshes():
        first, classes = translation_classes(mesh)
        assert len(first) == classes.max() + 1 == class_count(mesh)
        assert np.array_equal(classes[first], np.arange(len(first)))
        assert np.array_equal(mesh.tri_edge_signs, mesh.tri_edge_signs[first][classes])
        dofmap = build_dofmap(mesh, ElementKind.NTW)
        geom, rep = mesh_geometry(mesh), dofmap.class_geom
        for name in ("area", "grad_lambda", "edge_lengths", "altitudes", "normals", "chunkiness"):
            assert np.array_equal(getattr(rep, name)[dofmap.classes], getattr(geom, name)), name
        # Each class row is built on the class's first triangle.
        _, first_of = np.unique(dofmap.classes, return_index=True)
        assert np.array_equal(rep.vertices, geom.vertices[first_of])


def test_class_count_is_bounded_under_refinement():
    """At most six edge-vector rows (two shapes, each in three rotations of
    its local numbering) times six sign rows (a triangle's three signs are
    never all equal), at every level of structured:2; the paper-size mesh, structured:8 refined three
    times (8192 triangles), has as many classes as structured:2 refined
    three times (512).  A jittered mesh has one class per triangle."""
    mesh, counts = make_structured(2), []
    for _ in range(6):
        counts.append(len(translation_classes(mesh)[0]))
        mesh = refine(mesh)
    assert counts == sorted(counts) and max(counts) <= 36
    assert counts[3] == 23
    paper = make_structured(8)
    for _ in range(3):
        paper = refine(paper)
    assert paper.num_triangles == 8192
    assert len(translation_classes(paper)[0]) == 23
    jittered = jittered_mesh(4, 0.3, 1.0, 2)
    assert len(translation_classes(jittered)[0]) == jittered.num_triangles


def test_class_blocks_layout():
    """The classes are numbered by nondecreasing multiplicity, then by
    their translation class, so the block order is the triangles sorted by
    (multiplicity, translation class, index).  Each class is one
    contiguous run of the block order, the blocks cover every triangle
    once, in runs of their multiplicity, and there is one block per
    distinct multiplicity: one on a jittered mesh, whose classes are
    single triangles."""
    for mesh in class_meshes():
        dofmap = build_dofmap(mesh, ElementKind.MORLEY)
        classes, order = dofmap.classes, dofmap.order
        counts = np.bincount(classes)
        assert np.all(np.diff(counts) >= 0)
        translation = translation_classes(mesh)[1]
        by_count = np.bincount(translation)[translation]
        assert np.array_equal(order, np.lexsort((translation, by_count)))
        assert np.array_equal(np.sort(order), np.arange(mesh.num_triangles))
        assert np.array_equal(order[dofmap.rank], np.arange(mesh.num_triangles))
        assert len(dofmap.blocks) == len(np.unique(counts))
        covered = np.zeros(mesh.num_triangles, dtype=int)
        start = first = 0
        for tris, cls, k, m in dofmap.blocks:
            assert (tris.start, cls.start) == (start, first)
            assert (tris.stop - start, cls.stop - first) == (k * m, k)
            covered[order[tris]] += 1
            # Run j of the block is class cls.start + j, m triangles in
            # index order.
            runs = classes[order[tris]].reshape(k, m)
            ids = np.arange(cls.start, cls.stop)
            assert np.array_equal(runs, np.repeat(ids[:, None], m, axis=1))
            assert np.all(np.diff(order[tris].reshape(k, m), axis=1) > 0)
            assert np.all(counts[cls] == m)
            start, first = tris.stop, cls.stop
        assert np.all(covered == 1)
        assert [b.m for b in dofmap.blocks] == sorted({b.m for b in dofmap.blocks})
    jittered = build_dofmap(jittered_mesh(4, 0.3, 1.0, 2), ElementKind.NTW)
    assert len(jittered.blocks) == 1 and jittered.blocks[0].m == 1


def test_derivative_tables_match_one_evaluate_on_all_classes():
    """The tables, built a chunk of classes at a time, hold the derivative
    rows of one ``evaluate`` on every class, within 1e-13 of their largest
    entry, on a mesh with more classes than one chunk."""
    mesh = jittered_mesh(12, 0.3, 1.0, 7)
    assert mesh.num_triangles > assembly._TABLE_CLASSES
    for kind in ElementKind:
        dofmap = build_dofmap(mesh, kind)
        geom = dofmap.class_geom
        G, H = evaluate(dofmap.class_coeffs, geom.grad_lambda, FIELD_TABLES)
        rows = np.stack([G[..., 0], G[..., 1], H[..., 0, 0], H[..., 0, 1], H[..., 1, 1]], axis=2)
        expected = rows.reshape(dofmap.derivative_tables.shape)
        assert_close(dofmap.derivative_tables, expected)


def kept_arrays(value):
    """The arrays that ``value`` holds: itself, or those of its items or of
    its dataclass fields, recursively.  The mesh, the dof map's input, is
    not a dataclass and is not walked; of a point set only the weights
    are."""
    if isinstance(value, PointSet):
        yield value.weights
    elif isinstance(value, np.ndarray):
        yield value
    elif sp.issparse(value):
        yield from (value.data, value.indices, value.indptr)
    elif isinstance(value, (dict, tuple, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from kept_arrays(item)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        yield from kept_arrays(vars(value))


@pytest.mark.parametrize("kind", list(ElementKind))
def test_no_shape_array_per_triangle(kind):
    """After an assembly, a solve, an energy error, a coercivity check and
    a jump check, no float array on the dof map, in its fields or in what
    it has built and kept, has a leading triangle axis, apart from the
    weights of its point set: no shape and no geometry is kept per
    triangle."""
    mesh = refine(make_structured(2))
    dofmap = build_dofmap(mesh, kind)
    assert len(dofmap.class_coeffs) < mesh.num_triangles
    field = example_field("smooth", MaterialParams(iota=1e-2))
    system = assemble(dofmap, field.mat, source(field))
    energy_error(dofmap, system.expand(solve(system).solution), field)
    coercivity_check(dofmap, [field.mat], n_trials=2)
    jump_check(dofmap, n_trials=1)
    assert {"points", "_load_tests", "derivative_tables", "pattern"} <= vars(dofmap).keys()
    kept = list(kept_arrays(dofmap))
    per_triangle = [
        a.shape
        for a in kept
        if a.dtype.kind == "f" and a.shape[:1] == (mesh.num_triangles,)
        and a is not dofmap.points.weights
    ]
    assert any(a is dofmap.points.weights for a in kept)
    assert per_triangle == []


@pytest.mark.parametrize("kind", list(ElementKind))
def test_class_shapes_forms_and_grams_match_every_triangle(kind):
    """The gathered shapes equal the all-triangle build bit for bit; the
    forms and the Gram matrices agree with kernels run on every triangle,
    summed by the vector-level reference, within 1e-14 of their largest
    entry."""
    morley = kind is ElementKind.MORLEY
    for mesh in class_meshes():
        dofmap = build_dofmap(mesh, kind)
        pattern = dofmap.pattern
        geom = mesh_geometry(mesh)
        coeffs = basis_coefficients(kind, geom, mesh.tri_edge_signs)
        assert np.array_equal(dofmap.class_coeffs[dofmap.classes], coeffs)
        forms = element_forms(coeffs, geom, 10.0, 1.0, morley)
        grams = gram_blocks(coeffs, geom, morley)
        got = [pattern.matrix(data) for data in dofmap.forms(10.0, 1.0)]
        got += _gram_matrices(dofmap)
        blocks = list(forms) + [np.kron(G, np.eye(2)) for G in grams]
        for g, K in zip(got, blocks, strict=True):
            e = vector_pattern_matrix(dofmap, K)
            assert np.abs(g - e).max() <= 1e-14 * np.abs(e).max()
