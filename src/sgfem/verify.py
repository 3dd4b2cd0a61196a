"""Random inputs and finite-difference oracles for the verification checks.

The ``sgfem verify`` suites and the test suite draw their random triangles
and quartics here.  The finite-difference oracle differentiates black-box
evaluators only, so it stays independent of the analytic derivative chains
it is used to check.  Each Richardson stencil stacks all its shifted point
sets and calls its evaluator once, so the nested source oracle evaluates
the displacement twice per call: once for the inner Laplacian and once for
the inner gradient of the divergence, both on every point of the outer
stencil, whose center gives the source's g term.
"""

import math

import numpy as np

from .elements import dof_points
from .mesh import ElementGeometry, triangle_geometry

__all__ = [
    "boundary_points",
    "random_geometry",
    "random_geometries",
    "random_quartic_samples",
    "richardson_laplacian",
    "richardson_grad_div",
    "fd_source",
]


# Exponents (a, b) of the 15 monomials x**a * y**b of degree at most 4.
_QUARTIC_X, _QUARTIC_Y = np.array([(a, b) for a in range(5) for b in range(5 - a)]).T


def boundary_points(n: int) -> np.ndarray:
    """``n`` points on each side of the unit square, corners included."""
    t = np.linspace(0.0, 1.0, n)
    return np.vstack(
        [
            np.column_stack([t, np.zeros_like(t)]),
            np.column_stack([t, np.ones_like(t)]),
            np.column_stack([np.zeros_like(t), t]),
            np.column_stack([np.ones_like(t), t]),
        ]
    )


def _random_vertices(rng) -> np.ndarray:
    """The (3, 2) vertices of :func:`random_geometry`; each candidate is
    judged from its own six coordinates, as Python floats, with the
    arithmetic of :func:`~sgfem.mesh.triangle_geometry`."""
    while True:
        coords = rng.uniform(-1.0, 1.0, size=(3, 2))
        (x0, y0), (x1, y1), (x2, y2) = coords.tolist()
        area = 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
        if area < 0:
            coords = coords[[0, 2, 1]]
            x1, y1, x2, y2 = x2, y2, x1, y1
            area = -area
        if area < 0.05:
            continue
        # The edge opposite each vertex, in vertex order.
        lengths = [
            math.sqrt(dx * dx + dy * dy)
            for dx, dy in ((x2 - x1, y2 - y1), (x0 - x2, y0 - y2), (x1 - x0, y1 - y0))
        ]
        inscribed = 4.0 * area / (lengths[0] + lengths[1] + lengths[2])
        if max(lengths) / inscribed < 12.0:
            return coords


def random_geometry(rng) -> ElementGeometry:
    """A counter-clockwise triangle in [-1, 1]^2 with area at least 0.05
    and chunkiness below 12, drawn by rejection."""
    return triangle_geometry(_random_vertices(rng))


def random_geometries(rng, count: int) -> ElementGeometry:
    """``count`` triangles of :func:`random_geometry`, drawn in turn, as
    one batch."""
    return triangle_geometry(np.stack([_random_vertices(rng) for _ in range(count)]))


def random_quartic_samples(rng, count: int):
    """``count`` random triangles, each followed by the normal random
    coefficients of a quartic, drawn in turn and evaluated as one batch.

    Returns the batch geometry and each quartic's values (T, 24) and
    gradients (T, 24, 2) at the degree-of-freedom points of its own
    triangle (:func:`~sgfem.elements.dof_points`).
    """
    vertices, coeffs = [], []
    for _ in range(count):
        vertices.append(_random_vertices(rng))
        coeffs.append(rng.normal(size=len(_QUARTIC_X)))
    geom = triangle_geometry(np.stack(vertices))
    coeffs = np.stack(coeffs)
    powers = dof_points(geom).reshape(-1, 2)[:, :, None] ** np.arange(5)
    shape = (count, -1, len(_QUARTIC_X))

    def sample(px, py, c):
        monomials = powers[:, 0, px] * powers[:, 1, py]
        return np.matmul(monomials.reshape(shape), c[:, :, None])[..., 0]

    values = sample(_QUARTIC_X, _QUARTIC_Y, coeffs)
    gx = sample(np.maximum(_QUARTIC_X - 1, 0), _QUARTIC_Y, _QUARTIC_X * coeffs)
    gy = sample(_QUARTIC_X, np.maximum(_QUARTIC_Y - 1, 0), _QUARTIC_Y * coeffs)
    return geom, values, np.stack([gx, gy], axis=-1)


def _shifted(xy, axis, step):
    """A copy of ``xy`` with ``step`` added to coordinate ``axis``."""
    p = xy.copy()
    p[:, axis] += step
    return p


def _evaluate_stacked(F, point_sets):
    """``F`` on every (n, 2) point set in one call, as a (k, n, ...) array."""
    values = np.asarray(F(np.concatenate(point_sets)), dtype=float)
    return values.reshape((len(point_sets), len(point_sets[0])) + values.shape[1:])


def _laplacian_and_center(F, xy, h):
    """:func:`richardson_laplacian` and the center values ``F(xy)`` it
    reads."""
    steps = (0.5 * h, h)
    shifted = [
        _shifted(xy, axis, sign * hh) for hh in steps for axis in (0, 1) for sign in (-1.0, 1.0)
    ]
    values = _evaluate_stacked(F, [xy] + shifted)
    center, neighbours = values[0], values[1:].reshape((2, 4) + values.shape[1:])

    def lap(i, hh):
        out = -4.0 * center
        for value in neighbours[i]:
            out = out + value
        return out / hh**2

    return (4.0 * lap(0, steps[0]) - lap(1, steps[1])) / 3.0, center


def richardson_laplacian(F, xy, h):
    """Componentwise Laplacian of F(xy) with one Richardson sweep.

    F is called once, on the center and its four neighbours at the steps
    h/2 and h stacked together.
    """
    return _laplacian_and_center(F, xy, h)[0]


def richardson_grad_div(F, xy, h):
    """Gradient of the divergence of a vector evaluator, Richardson swept.

    F is called once, on all 2 x 16 points of the nested central stencils
    (each point is moved along axis ``a``, then along axis ``b``).
    """
    steps = (0.5 * h, h)
    point_sets = [
        _shifted(_shifted(xy, a, sa * hh), b, sb * hh)
        for hh in steps
        for a in (0, 1)
        for sa in (1.0, -1.0)
        for b in (0, 1)
        for sb in (1.0, -1.0)
    ]
    # Index [step, a, sign along a, b, sign along b].
    values = _evaluate_stacked(F, point_sets).reshape((2, 2, 2, 2, 2) + xy.shape)

    def div_at(v, hh):
        d = np.zeros(len(xy))
        for b in (0, 1):
            d += (v[b, 0][:, b] - v[b, 1][:, b]) / (2.0 * hh)
        return d

    def gd(i, hh):
        out = np.empty((len(xy), 2))
        for a in (0, 1):
            plus, minus = values[i, a]
            out[:, a] = (div_at(plus, hh) - div_at(minus, hh)) / (2.0 * hh)
        return out

    return (4.0 * gd(0, steps[0]) - gd(1, steps[1])) / 3.0


def fd_source(field, pts):
    """Nested finite-difference evaluation of iota^2 Delta g - g.

    The inner stage (step 1e-3) differentiates the displacement into g, the
    outer stage (step 1e-2) differentiates that again for Delta g; both are
    Richardson extrapolated central stencils.  g at ``pts`` is the center
    of the outer stencil, so g is evaluated once.
    """
    mat = field.mat
    u = field.displacement

    def g(xy):
        return mat.mu * richardson_laplacian(u, xy, 1e-3) + (
            mat.lam + mat.mu
        ) * richardson_grad_div(u, xy, 1e-3)

    lap_g, g_pts = _laplacian_and_center(g, pts, 1e-2)
    return mat.iota**2 * lap_g - g_pts
