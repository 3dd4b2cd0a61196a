"""Randomly perturbed structured meshes shared by the property tests."""

import numpy as np

from sgfem.mesh import Mesh, make_structured


def jittered_mesh(n, amplitude, squash, seed):
    """structured:n with interior vertices moved by up to ``amplitude / n``
    and the y axis scaled by ``squash``.

    ``seed`` is a seed or a ``numpy.random.Generator``; the jitter is one
    uniform draw from it.  The jitter is halved until every triangle is
    counter-clockwise, so the largest amplitudes leave some triangles
    nearly flat; below 0.2 no triangle comes close to flat and the jitter
    is used as drawn.
    """
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
