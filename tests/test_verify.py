"""The random triangles and quartics of the verification suites against a
reference sampler.

``_random_vertices`` judges each candidate on its six coordinates as
Python floats.  The reference below judges it with numpy arrays, as the
sampler once did, with the arithmetic of ``triangle_geometry``.  Both must
accept the same candidates, return the same vertices bit for bit and leave
the generator in the same state.
"""

import numpy as np
import pytest

from sgfem.elements import dof_points
from sgfem.mesh import triangle_geometry
from sgfem.verify import random_geometries, random_quartic_samples

QUARTIC_X, QUARTIC_Y = np.array([(a, b) for a in range(5) for b in range(5 - a)]).T


def reference_vertices(rng):
    while True:
        coords = rng.uniform(-1.0, 1.0, size=(3, 2))
        va, vb = coords[1] - coords[0], coords[2] - coords[0]
        area = 0.5 * (va[0] * vb[1] - va[1] * vb[0])
        if area < 0:
            coords = coords[[0, 2, 1]]
            area = -area
        if area < 0.05:
            continue
        lengths = np.linalg.norm(coords[[2, 0, 1]] - coords[[1, 2, 0]], axis=-1)
        inscribed = 4.0 * area / lengths.sum()
        if lengths.max() / inscribed < 12.0:
            return coords


def reference_quartic_samples(rng, count):
    """Values and gradients with the monomial powers raised once per sample."""
    vertices, coeffs = [], []
    for _ in range(count):
        vertices.append(reference_vertices(rng))
        coeffs.append(rng.normal(size=len(QUARTIC_X)))
    geom = triangle_geometry(np.stack(vertices))
    coeffs = np.stack(coeffs)
    xy = dof_points(geom).reshape(-1, 2)

    def sample(px, py, c):
        powers = xy[:, :, None] ** np.arange(5)
        monomials = (powers[:, 0, px] * powers[:, 1, py]).reshape(count, -1, len(QUARTIC_X))
        return np.matmul(monomials, c[:, :, None])[..., 0]

    values = sample(QUARTIC_X, QUARTIC_Y, coeffs)
    gx = sample(np.maximum(QUARTIC_X - 1, 0), QUARTIC_Y, QUARTIC_X * coeffs)
    gy = sample(QUARTIC_X, np.maximum(QUARTIC_Y - 1, 0), QUARTIC_Y * coeffs)
    return geom, values, np.stack([gx, gy], axis=-1)


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, 987654321])
def test_samplers_match_the_numpy_reference(seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    geom = random_geometries(rng, 200)
    expected = np.stack([reference_vertices(ref) for _ in range(200)])
    assert np.array_equal(geom.vertices, expected)
    assert rng.bit_generator.state == ref.bit_generator.state

    got, expected = random_quartic_samples(rng, 100), reference_quartic_samples(ref, 100)
    assert np.array_equal(got[0].vertices, expected[0].vertices)
    assert np.array_equal(got[1], expected[1])
    assert np.array_equal(got[2], expected[2])
    assert rng.bit_generator.state == ref.bit_generator.state
