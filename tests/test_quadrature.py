"""Triangle and edge quadrature rules against closed-form moments.

The oracle for triangle rules is the factorial formula for barycentric
monomials: the integral of ``l1^a * l2^b * l3^c`` over a triangle of area A
equals ``2 A * a! b! c! / (a + b + c + 2)!``.
"""

from math import factorial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sgfem.mesh import triangle_geometry
from sgfem.quadrature import edge_rule, triangle_rule


def bary_monomial_integral(a, b, c, area):
    return 2.0 * area * factorial(a) * factorial(b) * factorial(c) / factorial(a + b + c + 2)


def monomials_up_to(degree):
    return [
        (a, b, c)
        for a in range(degree + 1)
        for b in range(degree + 1 - a)
        for c in range(degree + 1 - a - b)
        if a + b + c <= degree
    ]


RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("min_degree", range(1, 11))
def test_rule_well_formed(min_degree):
    rule = triangle_rule(min_degree)
    assert rule.degree >= min_degree
    assert np.all(rule.weights > 0.0)
    assert_allclose(rule.weights.sum(), 1.0, atol=1e-14)
    assert np.all(rule.points > 0.0) and np.all(rule.points < 1.0)
    assert_allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)


@pytest.mark.parametrize("min_degree", range(1, 11))
def test_monomial_exactness(min_degree):
    rule = triangle_rule(min_degree)
    area = 0.5
    for a, b, c in monomials_up_to(rule.degree):
        vals = rule.points[:, 0] ** a * rule.points[:, 1] ** b * rule.points[:, 2] ** c
        exact = bary_monomial_integral(a, b, c, area)
        assert_allclose(area * (vals @ rule.weights), exact, rtol=1e-12)


def test_bubble_integral_on_right_triangle():
    rule = triangle_rule(3)
    vals = rule.points.prod(axis=1)
    assert_allclose(0.5 * (vals @ rule.weights), 1.0 / 120.0, rtol=1e-13)


def test_degree_ten_quartic_cubed_moment():
    rule = triangle_rule(10)
    vals = rule.points[:, 0] ** 4 * rule.points[:, 1] ** 3 * rule.points[:, 2] ** 3
    exact = bary_monomial_integral(4, 3, 3, 0.5)
    assert_allclose(0.5 * (vals @ rule.weights), exact, rtol=1e-13)


def test_affine_invariance():
    rng = np.random.default_rng(7)
    rule = triangle_rule(6)

    def p(lam):
        return 3.0 * lam[:, 0] ** 2 * lam[:, 2] - lam[:, 1] ** 3 + 0.25 * lam[:, 2]

    ref = 0.5 * (p(rule.points) @ rule.weights)
    for _ in range(5):
        coords = RIGHT + 0.0
        coords = rng.uniform(-2.0, 2.0, (3, 2))
        e1, e2 = coords[1] - coords[0], coords[2] - coords[0]
        if e1[0] * e2[1] - e1[1] * e2[0] < 0.1:
            coords[[1, 2]] = coords[[2, 1]]
        geom = triangle_geometry(coords)
        mapped = geom.area * (p(rule.points) @ rule.weights)
        assert_allclose(mapped, ref * geom.area / 0.5, rtol=1e-13)


def test_invalid_degree_rejected():
    with pytest.raises(ValueError):
        triangle_rule(0)
    with pytest.raises(ValueError):
        triangle_rule(11)
    with pytest.raises(ValueError):
        edge_rule(0)
    with pytest.raises(ValueError):
        edge_rule(7)


def test_edge_rule_basics():
    one = edge_rule(1)
    assert_allclose(one.points, [0.5])
    assert_allclose(one.points @ one.weights, 0.5, rtol=1e-15)

    two = edge_rule(2)
    vals = (2.0 * two.points - 1.0) ** 2
    assert_allclose(vals @ two.weights, 1.0 / 3.0, rtol=1e-14)

    three = edge_rule(3)
    assert_allclose(three.points**5 @ three.weights, 1.0 / 6.0, atol=1e-15)


@pytest.mark.parametrize("npoints", range(1, 7))
def test_edge_rule_exactness(npoints):
    rule = edge_rule(npoints)
    assert_allclose(rule.weights.sum(), 1.0, atol=1e-14)
    assert np.all(rule.weights > 0.0)
    assert rule.degree == 2 * npoints - 1
    for k in range(2 * npoints):
        assert_allclose(rule.points**k @ rule.weights, 1.0 / (k + 1), rtol=1e-13)
