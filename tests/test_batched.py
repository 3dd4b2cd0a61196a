"""The batched element pipeline against its batch-of-one form.

Assembly, the energy error, the Gram matrices and the edge jumps evaluate
every element quantity for all triangles at once, on the geometry and
shape coefficients a ``DofMap`` carries; the per-element API
(``build_basis``, ``element_stiffness``, ``element_load``) runs the same
kernels on one triangle.  Both must agree triangle by triangle, also on
nearly degenerate triangles.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sgfem.analysis import edge_means, gram_blocks, local_coefficients
from sgfem.assembly import (
    MaterialParams,
    build_dofmap,
    element_load,
    element_loads,
    element_matrices,
    element_stiffness,
    element_stiffness_morley,
)
from sgfem.elements import EDGE_TABLES, ElementKind, build_basis
from sgfem.mesh import Mesh, element_geometry, make_structured


def assert_close(batched, single, scale=None):
    """Agreement within 1e-13 of ``scale``, by default the largest entry."""
    if scale is None:
        scale = np.abs(single).max()
    assert_allclose(batched, single, rtol=0.0, atol=1e-13 * max(scale, np.finfo(float).tiny))


def load(xy):
    return np.stack([np.sin(3.0 * xy[:, 0]) + xy[:, 1], xy[:, 0] * xy[:, 1]], axis=-1)


def jittered_mesh(n, amplitude, squash, seed):
    """structured:n with interior vertices moved by up to ``amplitude / n``
    and the y axis scaled by ``squash``.  The jitter is halved until every
    triangle is counter-clockwise, so the largest ones leave some triangles
    nearly flat."""
    base = make_structured(n)
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-amplitude / n, amplitude / n, size=base.vertices.shape)
    jitter[base.vertex_is_boundary] = 0.0
    while True:
        coords = (base.vertices + jitter)[base.triangles]
        e1 = coords[:, 1] - coords[:, 0]
        e2 = coords[:, 2] - coords[:, 0]
        if np.all(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] > 1e-8 / n**2):
            break
        jitter *= 0.5
    return Mesh((base.vertices + jitter) * [1.0, squash], base.triangles)


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
    rng = np.random.default_rng(seed)
    for kind in ElementKind:
        morley = kind is ElementKind.MORLEY
        dofmap = build_dofmap(mesh, kind)
        coeffs, geom = dofmap.coeffs, dofmap.geom
        K = element_matrices(coeffs, geom, mat, morley)
        b = element_loads(coeffs, geom, load, morley)
        gram_g, gram_h = gram_blocks(coeffs, geom, morley)
        local = local_coefficients(dofmap, rng.normal(size=dofmap.n_vector))
        means = edge_means(coeffs, geom, local, normals)
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
            m1 = edge_means(basis.coeffs[None], one, local[t : t + 1], normals[t : t + 1])
            # On flat triangles a mean normal derivative can be O(1) while
            # the gradient it projects is O(1/flatness), so the means are
            # compared on the scale of that gradient.
            grads = np.einsum("ac,aqj->cqj", local[t], basis.gradients(EDGE_TABLES.bary))
            assert_close(means[t], m1[0], scale=np.abs(grads).max())
