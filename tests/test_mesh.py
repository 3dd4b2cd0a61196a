"""Mesh construction, refinement, edge topology, and element geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sgfem.mesh import (
    Mesh,
    element_geometry,
    load_mesh,
    make_structured,
    refine,
    triangle_geometry,
)

SQRT2 = np.sqrt(2.0)


def reference_edges(triangles):
    """Edge tables by the per-triangle loop that ``Mesh`` replaced with
    array code: edges numbered by first appearance, triangle-major then
    local edge.  Returns edge_vertices, edge_tris, tri_edges, tri_edge_signs."""
    index = {}
    edge_vertices = []
    edge_tris = []
    tri_edges = np.empty((len(triangles), 3), dtype=np.int64)
    signs = np.empty((len(triangles), 3), dtype=np.int64)
    for t, tri in enumerate(triangles):
        for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
            key = (min(tri[j], tri[k]), max(tri[j], tri[k]))
            e = index.get(key)
            if e is None:
                e = len(edge_vertices)
                index[key] = e
                edge_vertices.append(key)
                edge_tris.append([t, -1])
            else:
                edge_tris[e][1] = t
            tri_edges[t, i] = e
            signs[t, i] = 1 if tri[j] > tri[k] else -1
    return np.array(edge_vertices), np.array(edge_tris), tri_edges, signs


def reference_children(mesh):
    """Child triangles of red refinement by the per-triangle loop."""
    children = []
    for t, (v0, v1, v2) in enumerate(mesh.triangles):
        m0, m1, m2 = mesh.num_vertices + mesh.tri_edges[t]
        children.extend([[v0, m2, m1], [m2, v1, m0], [m1, m0, v2], [m2, m0, m1]])
    return np.array(children)


def mesh_area(mesh):
    return sum(element_geometry(mesh, t).area for t in range(mesh.num_triangles))


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_structured_counts(n):
    mesh = make_structured(n)
    assert mesh.num_vertices == (n + 1) ** 2
    assert mesh.num_triangles == 2 * n * n
    # Euler relation for a triangulated disk: V - E + T = 1.
    assert mesh.num_edges == mesh.num_vertices + mesh.num_triangles - 1
    assert np.count_nonzero(mesh.edge_is_boundary) == 4 * n
    assert np.count_nonzero(mesh.vertex_is_boundary) == 4 * n
    assert_allclose(mesh_area(mesh), 1.0, atol=1e-12)
    mesh.validate()


def test_structured_mesh_size():
    mesh = make_structured(4)
    hs = [element_geometry(mesh, t).edge_lengths.max() for t in range(mesh.num_triangles)]
    assert_allclose(hs, SQRT2 / 4.0, rtol=1e-14)


def test_edge_incidence_identity():
    for mesh in (make_structured(3), refine(make_structured(2))):
        n_int = np.count_nonzero(~mesh.edge_is_boundary)
        n_bnd = np.count_nonzero(mesh.edge_is_boundary)
        assert 3 * mesh.num_triangles == 2 * n_int + n_bnd


def test_structured_interior_counts():
    mesh = make_structured(4)
    assert np.count_nonzero(~mesh.vertex_is_boundary) == 9
    assert np.count_nonzero(~mesh.edge_is_boundary) == 40


def test_refine_counts():
    mesh = make_structured(2)
    fine = refine(mesh)
    assert fine.num_vertices == mesh.num_vertices + mesh.num_edges
    assert fine.num_triangles == 4 * mesh.num_triangles
    assert_allclose(mesh_area(fine), 1.0, atol=1e-12)
    fine.validate()


def test_refine_five_times_count():
    mesh = make_structured(8)
    for _ in range(5):
        mesh = refine(mesh)
    assert mesh.num_triangles == 2 * 8 * 8 * 4**5


def test_refine_children_similar():
    mesh = Mesh(
        np.array([[0.1, -0.2], [1.3, 0.4], [0.2, 1.1]]),
        np.array([[0, 1, 2]]),
    )
    parent = element_geometry(mesh, 0)
    fine = refine(mesh)
    for t in range(4):
        child = element_geometry(fine, t)
        assert_allclose(np.sort(child.edge_lengths), np.sort(parent.edge_lengths) / 2.0, rtol=1e-13)
        assert_allclose(child.area, parent.area / 4.0, rtol=1e-13)


def test_right_triangle_geometry():
    geom = triangle_geometry(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert_allclose(geom.area, 0.5)
    assert_allclose(geom.grad_lambda, [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], atol=1e-15)
    assert_allclose(geom.edge_lengths, [SQRT2, 1.0, 1.0])
    assert_allclose(geom.altitudes, [1.0 / SQRT2, 1.0, 1.0])
    assert_allclose(geom.normals, [[1 / SQRT2, 1 / SQRT2], [-1.0, 0.0], [0.0, -1.0]], atol=1e-15)
    assert_allclose(geom.midpoints, [[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])
    assert_allclose(geom.chunkiness, 1.0 + SQRT2, rtol=1e-14)


def test_equilateral_shifts_vanish():
    geom = triangle_geometry(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]))
    # Each altitude foot is the edge midpoint: the median is normal to the edge.
    medians = geom.midpoints - geom.vertices
    cross = medians[:, 0] * geom.normals[:, 1] - medians[:, 1] * geom.normals[:, 0]
    assert_allclose(cross, 0.0, atol=1e-14)
    assert_allclose(geom.chunkiness, np.sqrt(3.0), rtol=1e-14)


def test_grad_lambda_against_altitudes():
    rng = np.random.default_rng(3)
    for _ in range(20):
        coords = rng.uniform(-1.0, 1.0, (3, 2))
        e1, e2 = coords[1] - coords[0], coords[2] - coords[0]
        if e1[0] * e2[1] - e1[1] * e2[0] < 0.05:
            continue
        geom = triangle_geometry(coords)
        # |grad l_i| = 1 / altitude_i and grad l_i points opposite the
        # outward normal of edge i.
        assert_allclose(np.linalg.norm(geom.grad_lambda, axis=1), 1.0 / geom.altitudes, rtol=1e-12)
        for i in range(3):
            assert_allclose(
                geom.grad_lambda[i] @ geom.normals[i], -1.0 / geom.altitudes[i], rtol=1e-12
            )
        # Barycentric round trip.
        pts = rng.dirichlet([1.0, 1.0, 1.0], size=5)
        assert_allclose(geom.to_bary(geom.to_xy(pts)), pts, atol=1e-12)


def test_degenerate_triangle_rejected():
    with pytest.raises(ValueError):
        triangle_geometry(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        triangle_geometry(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))


def test_interior_edge_signs_opposite():
    mesh = refine(make_structured(2))
    for e in range(mesh.num_edges):
        t1, t2 = mesh.edge_tris[e]
        if t2 == -1:
            continue
        s1 = mesh.tri_edge_signs[t1][list(mesh.tri_edges[t1]).index(e)]
        s2 = mesh.tri_edge_signs[t2][list(mesh.tri_edges[t2]).index(e)]
        assert s1 * s2 == -1


def test_edge_signs_match_outward_normals():
    mesh = refine(make_structured(1))
    for t in range(mesh.num_triangles):
        geom = element_geometry(mesh, t)
        for i in range(3):
            e = mesh.tri_edges[t, i]
            sign = mesh.tri_edge_signs[t, i]
            assert_allclose(sign * mesh.edge_normals[e], geom.normals[i], atol=1e-13)


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 4),
    levels=st.integers(0, 2),
    amplitude=st.floats(0.0, 0.2),
    seed=st.integers(0, 2**32 - 1),
)
def test_jittered_refined_mesh_invariants(n, levels, amplitude, seed):
    base = make_structured(n)
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-amplitude / n, amplitude / n, size=base.vertices.shape)
    jitter[base.vertex_is_boundary] = 0.0
    meshes = [Mesh(base.vertices + jitter, base.triangles)]
    for _ in range(levels):
        meshes.append(refine(meshes[-1]))
    mesh = meshes[-1]

    for m in meshes:
        edge_vertices, edge_tris, tri_edges, signs = reference_edges(m.triangles)
        assert np.array_equal(m.edge_vertices, edge_vertices)
        assert np.array_equal(m.edge_tris, edge_tris)
        assert np.array_equal(m.tri_edges, tri_edges)
        assert np.array_equal(m.tri_edge_signs, signs)
    for coarse, fine in zip(meshes[:-1], meshes[1:]):
        assert np.array_equal(fine.triangles, reference_children(coarse))

    # Interior edges are seen twice with opposite signs, boundary edges once.
    seen = np.bincount(mesh.tri_edges.ravel(), minlength=mesh.num_edges)
    sign_sum = np.zeros(mesh.num_edges, dtype=np.int64)
    np.add.at(sign_sum, mesh.tri_edges.ravel(), mesh.tri_edge_signs.ravel())
    assert np.array_equal(seen, np.where(mesh.edge_is_boundary, 1, 2))
    assert np.all(sign_sum[~mesh.edge_is_boundary] == 0)

    n_int = np.count_nonzero(~mesh.edge_is_boundary)
    assert 3 * mesh.num_triangles == 2 * n_int + (mesh.num_edges - n_int)

    for t in range(mesh.num_triangles):
        signed = mesh.tri_edge_signs[t][:, None] * mesh.edge_normals[mesh.tri_edges[t]]
        assert_allclose(signed, element_geometry(mesh, t).normals, atol=1e-12)

    def areas(m):
        return np.array([element_geometry(m, t).area for t in range(m.num_triangles)])

    # Red refinement stores the four children of parent t at 4t .. 4t+3.
    for coarse, fine in zip(meshes[:-1], meshes[1:]):
        assert_allclose(areas(fine).reshape(-1, 4).sum(axis=1), areas(coarse), rtol=1e-12)
    assert_allclose(mesh_area(mesh), 1.0, rtol=1e-12)


def test_edge_shared_by_three_triangles_rejected():
    # A non-manifold fan: three triangles on the edge (0, 1).
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 0.5]])
    triangles = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(ValueError, match=r"edge \(0, 1\) is shared by more than two triangles"):
        Mesh(vertices, triangles)


def test_load_mesh_round_trip(tmp_path):
    mesh = make_structured(2)
    path = tmp_path / "square.txt"
    with open(path, "w") as fh:
        fh.write(f"{mesh.num_vertices} {mesh.num_triangles}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")
    back = load_mesh(path)
    assert_allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)


def test_load_mesh_reorients_clockwise(tmp_path):
    path = tmp_path / "cw.txt"
    path.write_text("3 1\n0 0\n1 0\n0 1\n0 2 1\n")
    mesh = load_mesh(path)
    assert element_geometry(mesh, 0).area > 0.0


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 4),
    amplitude=st.floats(0.0, 0.2),
    seed=st.integers(0, 2**32 - 1),
)
def test_load_mesh_of_permuted_and_flipped_file(tmp_path_factory, n, amplitude, seed):
    """A jittered structured:n mesh written with its vertices permuted and a
    random subset of triangles clockwise loads back counter-clockwise, with
    the same vertices, triangles and edge count."""
    base = make_structured(n)
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-amplitude / n, amplitude / n, size=base.vertices.shape)
    jitter[base.vertex_is_boundary] = 0.0
    mesh = Mesh(base.vertices + jitter, base.triangles)
    # Vertex i of the file is vertex perm[i] of the mesh.
    perm = rng.permutation(mesh.num_vertices)
    triangles = np.argsort(perm)[mesh.triangles]
    flip = rng.random(mesh.num_triangles) < 0.5
    triangles[flip] = triangles[flip][:, ::-1]
    lines = [f"{mesh.num_vertices} {mesh.num_triangles}"]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in mesh.vertices[perm]]
    lines += [f"{i} {j} {k}" for i, j, k in triangles]
    path = tmp_path_factory.mktemp("mesh") / "mesh.txt"
    path.write_text("\n".join(lines) + "\n")

    loaded = load_mesh(path)
    coords = loaded.vertices[loaded.triangles]
    e1 = coords[:, 1] - coords[:, 0]
    e2 = coords[:, 2] - coords[:, 0]
    assert np.all(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] > 0.0)
    assert np.array_equal(loaded.vertices, mesh.vertices[perm])
    assert np.array_equal(np.sort(loaded.triangles, axis=1), np.sort(triangles, axis=1))
    assert loaded.num_edges == mesh.num_edges


@pytest.mark.parametrize(
    "body",
    [
        "",
        "3\n",
        "3 1\n0 0\n1 0\n0 1\n0 1 5\n",
        "3 1\n0 0\n1 0\n2 0\n0 1 2\n",
        "3 1\n0 0\n1 0\n0 1\n0 1 1\n",
        "3 1\n0 0\n1 0\n0 1\n0 1 2\n9 9\n",
    ],
)
def test_load_mesh_rejects_malformed(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(ValueError):
        load_mesh(path)
