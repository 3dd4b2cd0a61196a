"""Quadrature rules for triangles and for the reference edge [0, 1].

The schemes integrate with three triangle rules, exact to degrees 6
(stiffness), 8 (Gram matrices) and 10 (loads and energy errors), and with
Gauss rules on edges.  Triangle rules are symmetric positive-weight rules
stored in barycentric coordinates with weights that sum to one, so the
integral of f over a triangle K is ``area(K) * (f(x_q) @ weights)``.  Edge
rules are Gauss rules mapped to [0, 1] with the same unit-weight
convention.

A :class:`PointSet` is an (n, 2) array of quadrature points on a batch of
triangles that also carries their weights and, per axis, the distinct
coordinates with each point's index into them.  On a red-refined uniform
mesh the points of neighbouring triangles share their axis coordinates,
so a separable function evaluated at the distinct coordinates and
gathered back does a small fraction of the work of one evaluation per
point, with the same values.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["Rule", "PointSet", "distinct_coordinates", "triangle_rule", "edge_rule"]


@dataclass(frozen=True)
class Rule:
    """A quadrature rule on a reference triangle or on [0, 1].

    Attributes
    ----------
    degree : int
        Highest polynomial degree integrated exactly.
    points : ndarray, shape (n, 3) or (n,)
        Barycentric coordinates of triangle points; parameters of edge
        points.
    weights : ndarray, shape (n,)
        Positive weights summing to one.
    """

    degree: int
    points: np.ndarray
    weights: np.ndarray


# Symmetric triangle rules encoded as S3 orbits: (weight, generator) where the
# generator is one barycentric point and the orbit is its set of distinct
# permutations (1 point for the centroid, 3 when two coordinates coincide,
# 6 otherwise).  Only the degrees the schemes use are kept; a request for a
# lower degree is served by the next rule up.
_ORBIT_RULES = {
    6: [
        (0.116786275726379, (0.501426509658179, 0.249286745170910, 0.249286745170910)),
        (0.050844906370207, (0.873821971016996, 0.063089014491502, 0.063089014491502)),
        (0.082851075618374, (0.053145049844817, 0.310352451033784, 0.636502499121399)),
    ],
    8: [
        (0.144315607677787, (1 / 3, 1 / 3, 1 / 3)),
        (0.095091634267285, (0.081414823414554, 0.459292588292723, 0.459292588292723)),
        (0.103217370534718, (0.658861384496480, 0.170569307751760, 0.170569307751760)),
        (0.032458497623198, (0.898905543365938, 0.050547228317031, 0.050547228317031)),
        (0.027230314174435, (0.008394777409958, 0.263112829634638, 0.728492392955404)),
    ],
    10: [
        (0.090817990382754, (1 / 3, 1 / 3, 1 / 3)),
        (0.036725957756467, (0.028844733232685, 0.485577633383657, 0.485577633383657)),
        (0.045321059435528, (0.781036849029926, 0.109481575485037, 0.109481575485037)),
        (0.072757916845420, (0.141707219414880, 0.307939838764121, 0.550352941820999)),
        (0.028327242531057, (0.025003534762686, 0.246672560639903, 0.728323904597411)),
        (0.009421666963733, (0.009540815400299, 0.066803251012200, 0.923655933587500)),
    ],
}


def _expand_orbits(orbits):
    points = []
    weights = []
    for w, gen in orbits:
        seen = set()
        for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)):
            pt = tuple(gen[p] for p in perm)
            if pt in seen:
                continue
            seen.add(pt)
            points.append(pt)
            weights.append(w)
    return np.array(points), np.array(weights)


def triangle_rule(min_degree: int) -> Rule:
    """Return a symmetric positive-weight rule exact to at least ``min_degree``.

    Parameters
    ----------
    min_degree : int
        Required polynomial exactness, between 1 and 10.
    """
    if not 1 <= min_degree <= 10:
        raise ValueError(f"min_degree must be in [1, 10], got {min_degree}")
    degree = min(d for d in _ORBIT_RULES if d >= min_degree)
    points, weights = _expand_orbits(_ORBIT_RULES[degree])
    return Rule(degree=degree, points=points, weights=weights)


def edge_rule(npoints: int) -> Rule:
    """Return the ``npoints``-point Gauss rule on [0, 1], 1 <= npoints <= 6,
    exact to degree ``2 * npoints - 1``."""
    if not 1 <= npoints <= 6:
        raise ValueError(f"npoints must be in [1, 6], got {npoints}")
    x, w = np.polynomial.legendre.leggauss(npoints)
    return Rule(degree=2 * npoints - 1, points=(x + 1.0) / 2.0, weights=w / 2.0)


def distinct_coordinates(xy):
    """Per axis of the (n, 2) points ``xy``, the sorted distinct coordinates
    and each point's index into them: ``((x, ix), (y, iy))`` with
    ``x[ix] == xy[:, 0]`` and ``y[iy] == xy[:, 1]``."""
    xy = np.asarray(xy)
    return tuple(np.unique(xy[:, a], return_inverse=True) for a in (0, 1))


class PointSet(np.ndarray):
    """(n, 2) quadrature points, read-only, with their ``weights`` and their
    :attr:`axes`, the :func:`distinct_coordinates`, computed on first use
    and kept.

    Slices, copies and arithmetic results are point arrays without weights
    that compute their own distinct coordinates: none reuses its parent's
    index.
    """

    def __new__(cls, points, weights):
        obj = np.asarray(points, dtype=float).view(cls)
        obj.flags.writeable = False
        obj.weights = weights
        return obj

    def __array_finalize__(self, obj):
        self.weights = None
        self._axes = None

    @property
    def axes(self):
        if self._axes is None:
            self._axes = distinct_coordinates(self.view(np.ndarray))
        return self._axes
