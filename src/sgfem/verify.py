"""Random inputs and finite-difference oracles for the verification checks.

The ``sgfem verify`` suites and the test suite draw their random triangles
and quartics here.  The finite-difference oracle differentiates black-box
evaluators only, so it stays independent of the analytic derivative chains
it is used to check.
"""

import numpy as np

from .elements import dof_points
from .mesh import ElementGeometry, triangle_geometry

__all__ = [
    "boundary_points",
    "random_geometry",
    "random_geometries",
    "random_quartic",
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


def random_geometry(rng) -> ElementGeometry:
    """A counter-clockwise triangle in [-1, 1]^2 with area at least 0.05
    and chunkiness below 12, drawn by rejection."""
    while True:
        coords = rng.uniform(-1.0, 1.0, size=(3, 2))
        va, vb = coords[1] - coords[0], coords[2] - coords[0]
        area = 0.5 * (va[0] * vb[1] - va[1] * vb[0])
        if area < 0:
            coords = coords[[0, 2, 1]]
            area = -area
        if area < 0.05:
            continue
        geom = triangle_geometry(coords)
        if geom.chunkiness < 12.0:
            return geom


def random_geometries(rng, count: int) -> ElementGeometry:
    """``count`` triangles of :func:`random_geometry`, drawn in turn, as
    one batch."""
    return triangle_geometry(np.stack([random_geometry(rng).vertices for _ in range(count)]))


def random_quartic_samples(rng, count: int):
    """``count`` random triangles, each followed by a random quartic in the
    draw order, as one batch.

    Returns the batch geometry and each quartic's values (T, 24) and
    gradients (T, 24, 2) at the degree-of-freedom points of its own
    triangle (:func:`~sgfem.elements.dof_points`).
    """
    vertices, values, grads = [], [], []
    for _ in range(count):
        geom = random_geometry(rng)
        value, grad = random_quartic(rng)
        xy = dof_points(geom)
        vertices.append(geom.vertices)
        values.append(value(xy))
        grads.append(grad(xy))
    return triangle_geometry(np.stack(vertices)), np.stack(values), np.stack(grads)


def _monomials(xy, px, py):
    """(q, m) table of ``x**px * y**py`` at the points ``xy``."""
    powers = xy[:, :, None] ** np.arange(5)
    return powers[:, 0, px] * powers[:, 1, py]


def random_quartic(rng):
    """Value and gradient evaluators of a bivariate quartic with normal
    random coefficients."""
    coeffs = rng.normal(size=len(_QUARTIC_X))

    def value(xy):
        return _monomials(xy, _QUARTIC_X, _QUARTIC_Y) @ coeffs

    def grad(xy):
        gx = _monomials(xy, np.maximum(_QUARTIC_X - 1, 0), _QUARTIC_Y) @ (_QUARTIC_X * coeffs)
        gy = _monomials(xy, _QUARTIC_X, np.maximum(_QUARTIC_Y - 1, 0)) @ (_QUARTIC_Y * coeffs)
        return np.stack([gx, gy], axis=-1)

    return value, grad


def richardson_laplacian(F, xy, h):
    """Componentwise Laplacian of F(xy) with one Richardson sweep."""

    def lap(hh):
        out = -4.0 * np.asarray(F(xy), dtype=float)
        for axis in (0, 1):
            for sign in (-1.0, 1.0):
                p = xy.copy()
                p[:, axis] += sign * hh
                out = out + np.asarray(F(p), dtype=float)
        return out / hh**2

    return (4.0 * lap(0.5 * h) - lap(h)) / 3.0


def richardson_grad_div(F, xy, h):
    """Gradient of the divergence of a vector evaluator, Richardson swept."""

    def div_at(pts, hh):
        d = np.zeros(len(pts))
        for axis in (0, 1):
            p = pts.copy()
            p[:, axis] += hh
            m = pts.copy()
            m[:, axis] -= hh
            d += (np.asarray(F(p))[:, axis] - np.asarray(F(m))[:, axis]) / (2.0 * hh)
        return d

    def gd(hh):
        out = np.empty((len(xy), 2))
        for axis in (0, 1):
            p = xy.copy()
            p[:, axis] += hh
            m = xy.copy()
            m[:, axis] -= hh
            out[:, axis] = (div_at(p, hh) - div_at(m, hh)) / (2.0 * hh)
        return out

    return (4.0 * gd(0.5 * h) - gd(h)) / 3.0


def fd_source(field, pts):
    """Nested finite-difference evaluation of iota^2 Delta g - g.

    The inner stage (step 1e-3) differentiates the displacement into g, the
    outer stage (step 1e-2) differentiates that again for Delta g; both are
    Richardson extrapolated central stencils.
    """
    mat = field.mat
    u = field.displacement

    def g(xy):
        return mat.mu * richardson_laplacian(u, xy, 1e-3) + (
            mat.lam + mat.mu
        ) * richardson_grad_div(u, xy, 1e-3)

    return mat.iota**2 * richardson_laplacian(g, pts, 1e-2) - g(pts)
