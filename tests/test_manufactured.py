"""Tests for the closed-form solutions and their synthesized sources."""

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sgfem.assembly import MaterialParams, build_dofmap
from sgfem.manufactured import (
    ManufacturedField,
    _axis_orders,
    example_field,
    example_layer,
    example_smooth,
    source,
)
from sgfem.mesh import make_structured, refine
from sgfem.verify import boundary_points, fd_source


# Hypothesis seed of the derandomized property test below.  Derandomized
# examples are seeded from a test's source text; a fixed seed keeps the test
# on the same examples when its body is edited.
TRUNCATED_CHAIN_SEED = int(
    "b8df75b4c21ddace53cc0553c0993db6bef237e5946b710e"
    "7e1b1d00db016d129082d0f443eac86c2c8d8aa3bfbef703",
    16,
)


TWO_PI = 2.0 * np.pi


def all_factors(field):
    """The four factor chains, ``{"x1": chain(t, k), ...}``, read off the
    field's two axis chains."""
    return {
        f"{axis}{i + 1}": lambda t, k, axis=axis, i=i: getattr(field, axis)(t, k)[i]
        for axis in ("x", "y")
        for i in (0, 1)
    }


# Single-factor closed forms: each factor's chain evaluated on its own, as
# the reference the shared axis chains must reproduce bit for bit.


def factor_exp_cos(omega):
    """exp(cos(omega t)) - e."""

    def chain(t, k):
        wt = omega * t
        c = np.cos(wt)
        ec = np.exp(c)
        out = [ec - np.e]
        if k >= 1:
            s = np.sin(wt)
            out.append(-omega * s * ec)
        if k >= 2:
            ss = s * s
            out.append(omega**2 * ec * (ss - c))
        if k >= 3:
            cubic = 3.0 * c + 1.0 - ss
            out.append(omega**3 * ec * s * cubic)
        if k >= 4:
            out.append(omega**4 * ec * ((c - ss) * cubic - ss * (3.0 + 2.0 * c)))
        return out

    return chain


def factor_cos(omega):
    """cos(omega t) - 1."""

    def chain(t, k):
        wt = omega * t
        c = np.cos(wt)
        out = [c - 1.0]
        if k >= 1:
            s = np.sin(wt)
            out.append(-omega * s)
        if k >= 2:
            out.append(-(omega**2) * c)
        if k >= 3:
            out.append(omega**3 * s)
        if k >= 4:
            out.append(omega**4 * c)
        return out

    return chain


def corrector_chain(iota):
    """L(t) = pi iota [coth(1/(2 iota)) - cosh((2t-1)/(2 iota)) / sinh(1/(2 iota))]."""
    q = np.exp(-1.0 / iota)
    den = 1.0 - q
    coth = (1.0 + q) / den

    def chain(t, k):
        right, left = np.exp((t - 1.0) / iota), np.exp(-t / iota)
        even = (right + left) / den
        out = [np.pi * iota * (coth - even)]
        if k >= 1:
            odd = (right - left) / den
            out.append(-np.pi * odd)
        if k >= 2:
            out.append(-(np.pi / iota) * even)
        if k >= 3:
            out.append(-(np.pi / iota**2) * odd)
        if k >= 4:
            out.append(-(np.pi / iota**3) * even)
        return out

    return chain


def exp_sin(t, k):
    """exp(sin(pi t)) - 1."""
    p = np.pi
    pt = p * t
    s = np.sin(pt)
    es = np.exp(s)
    out = [es - 1.0]
    if k >= 1:
        c = np.cos(pt)
        out.append(p * c * es)
    if k >= 2:
        cc = c * c
        out.append(p**2 * es * (cc - s))
    if k >= 3:
        cubic = cc - 3.0 * s - 1.0
        out.append(p**3 * es * c * cubic)
    if k >= 4:
        out.append(p**4 * es * ((cc - s) * cubic - cc * (2.0 * s + 3.0)))
    return out


def sin(t, k):
    """sin(pi t)."""
    p = np.pi
    pt = p * t
    s = np.sin(pt)
    out = [s]
    if k >= 1:
        c = np.cos(pt)
        out.append(p * c)
    if k >= 2:
        out.append(-(p**2) * s)
    if k >= 3:
        out.append(-(p**3) * c)
    if k >= 4:
        out.append(p**4 * s)
    return out


def minus_corrector(smooth, iota):
    """The layer factor ``smooth(t) - L(t)``, order by order."""
    corrector = corrector_chain(iota)

    def chain(t, k):
        return [a - b for a, b in zip(smooth(t, k), corrector(t, k))]

    return chain


def reference_factors(example, iota):
    """{axis: (component 1 factor, component 2 factor)} as single chains."""
    if example == "smooth":
        x = (factor_exp_cos(TWO_PI), factor_cos(TWO_PI))
        return {"x": x, "y": (factor_exp_cos(TWO_PI), factor_cos(2.0 * TWO_PI))}
    layer = (minus_corrector(exp_sin, iota), minus_corrector(sin, iota))
    return {"x": layer, "y": layer}


def reference_laplacian(F, xy, h):
    """Richardson swept five-point Laplacian, one evaluator call per point
    set: the loop form that ``richardson_laplacian`` batches."""

    def lap(hh):
        out = -4.0 * np.asarray(F(xy), dtype=float)
        for axis in (0, 1):
            for sign in (-1.0, 1.0):
                p = xy.copy()
                p[:, axis] += sign * hh
                out = out + np.asarray(F(p), dtype=float)
        return out / hh**2

    return (4.0 * lap(0.5 * h) - lap(h)) / 3.0


def reference_grad_div(F, xy, h):
    """Loop form of ``richardson_grad_div``."""

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


def reference_fd_source(field, pts):
    """``fd_source`` built on the loop stencils."""
    mat = field.mat
    u = field.displacement

    def g(xy):
        return mat.mu * reference_laplacian(u, xy, 1e-3) + (
            mat.lam + mat.mu
        ) * reference_grad_div(u, xy, 1e-3)

    return mat.iota**2 * reference_laplacian(g, pts, 1e-2) - g(pts)


@hypothesis.seed(TRUNCATED_CHAIN_SEED)
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    iota=st.floats(1e-6, 1.0),
    t=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
)
def test_truncated_chain_is_a_prefix(iota, t):
    """``chain(t, k)`` computes orders 0..k exactly as the full chain does,
    for both components of each axis chain."""
    t = np.array(t)
    for field in (example_smooth(MaterialParams(iota=iota)), example_layer(iota)):
        for axis in ("x", "y"):
            full = getattr(field, axis)(t, 4)
            assert len(full) == 2 and all(len(chain) == 5 for chain in full)
            for k in range(4):
                part = getattr(field, axis)(t, k)
                for i in (0, 1):
                    assert len(part[i]) == k + 1
                    for order in range(k + 1):
                        assert np.array_equal(part[i][order], full[i][order]), (
                            field.name, axis, i, k,
                        )


@pytest.mark.parametrize("iota", [1.0, 1e-2, 1e-6])
@pytest.mark.parametrize("example", ["smooth", "layer"])
def test_axis_chains_equal_single_factor_chains(example, iota):
    """Sharing the sines, cosines and exponentials between the two
    components of an axis moves no bit of any order."""
    field = example_field(example, MaterialParams(iota=iota))
    rng = np.random.default_rng(31)
    t = np.concatenate([np.linspace(0.0, 1.0, 41), rng.uniform(size=60)])
    for axis, factors in reference_factors(example, iota).items():
        for k in range(5):
            pair = getattr(field, axis)(t, k)
            assert len(pair) == 2
            for i, (got, factor) in enumerate(zip(pair, factors)):
                expected = factor(t, k)
                assert len(got) == len(expected) == k + 1
                for order in range(k + 1):
                    assert np.array_equal(got[order], expected[order]), (axis, i, k, order)


class TestFactorChains:
    """Every derivative order must match a central difference of the
    previous order, sampled away from the endpoints."""

    @pytest.mark.parametrize(
        "field",
        [example_smooth(), example_layer(1.0), example_layer(1e-2)],
        ids=["smooth", "layer1", "layer0.01"],
    )
    def test_orders_chain_by_finite_differences(self, field):
        rng = np.random.default_rng(7)
        t = rng.uniform(0.15, 0.85, size=200)
        h = 1e-4
        for name, factor in all_factors(field).items():
            for order in range(1, 5):
                below = order - 1
                fd = (factor(t + h, below)[below] - factor(t - h, below)[below]) / (2.0 * h)
                exact = factor(t, order)[order]
                scale = np.abs(exact).max()
                assert np.abs(fd - exact).max() < 1e-6 * max(scale, 1.0), (name, order)


class TestPointValues:
    def test_smooth_center_value(self):
        field = example_smooth()
        u = field.displacement(np.array([[0.5, 0.5]]))
        assert_allclose(u[0, 0], (np.exp(-1.0) - np.e) ** 2, rtol=1e-14)
        assert_allclose(u[0, 1], 0.0, atol=1e-14)

    def test_smooth_left_edge_vanishes(self):
        field = example_smooth()
        y = np.linspace(0.0, 1.0, 17)
        pts = np.column_stack([np.zeros_like(y), y])
        assert_allclose(field.displacement(pts), 0.0, atol=1e-14)

    def test_smooth_normal_derivative_at_wall(self):
        field = example_smooth()
        g = field.gradient(np.array([[0.0, 0.3]]))
        assert_allclose(g[0, :, 0], 0.0, atol=1e-14)

    def test_layer_limit_at_center(self):
        field = example_layer(1e-6)
        u = field.displacement(np.array([[0.5, 0.5]]))
        assert_allclose(u[0, 0], (np.e - 1.0) ** 2, atol=1e-4)
        assert_allclose(u[0, 1], 1.0, atol=1e-4)


class TestClampedBoundary:
    @pytest.mark.parametrize(
        "field",
        [example_smooth(), example_layer(1.0), example_layer(1e-2), example_layer(1e-6)],
        ids=["smooth", "layer1", "layer0.01", "layer1e-6"],
    )
    def test_value_and_normal_derivative_vanish(self, field):
        pts = boundary_points(25)
        u = field.displacement(pts)
        assert np.abs(u).max() <= 1e-10
        g = field.gradient(pts)
        # Both gradient columns vanish on the boundary: the tangential one
        # because the trace is flat zero, the normal one by clamping.
        assert np.abs(g).max() <= 1e-10


class TestLayerRobustness:
    def test_finite_on_dense_grid(self):
        field = example_layer(1e-6)
        s = np.linspace(0.0, 1.0, 100)
        X, Y = np.meshgrid(s, s)
        pts = np.column_stack([X.ravel(), Y.ravel()])
        u = field.displacement(pts)
        assert np.all(np.isfinite(u))
        assert np.abs(u).max() < 60.0
        f = source(field)(pts)
        assert np.all(np.isfinite(f))

    def test_iota_validation(self):
        with pytest.raises(ValueError):
            example_layer(0.0)
        with pytest.raises(ValueError):
            example_layer(-0.5)


class TestDerivativeTensors:
    @pytest.mark.parametrize(
        "field", [example_smooth(), example_layer(0.5)], ids=["smooth", "layer"]
    )
    def test_gradient_matches_displacement_differences(self, field):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.2, 0.8, size=(40, 2))
        h = 1e-5
        g = field.gradient(pts)
        for j in (0, 1):
            p, m = pts.copy(), pts.copy()
            p[:, j] += h
            m[:, j] -= h
            fd = (field.displacement(p) - field.displacement(m)) / (2.0 * h)
            assert_allclose(g[:, :, j], fd, atol=1e-6 * max(np.abs(g).max(), 1.0))

    @pytest.mark.parametrize(
        "field", [example_smooth(), example_layer(0.5)], ids=["smooth", "layer"]
    )
    def test_hessian_matches_gradient_differences(self, field):
        rng = np.random.default_rng(13)
        pts = rng.uniform(0.2, 0.8, size=(40, 2))
        h = 1e-5
        H = field.hessian(pts)
        for k in (0, 1):
            p, m = pts.copy(), pts.copy()
            p[:, k] += h
            m[:, k] -= h
            fd = (field.gradient(p) - field.gradient(m)) / (2.0 * h)
            assert_allclose(H[:, :, :, k], fd, atol=1e-5 * max(np.abs(H).max(), 1.0))

    def test_hessian_symmetric_in_last_axes(self):
        field = example_smooth()
        pts = np.random.default_rng(3).uniform(0.1, 0.9, size=(30, 2))
        H = field.hessian(pts)
        assert_allclose(H, np.swapaxes(H, 2, 3), rtol=1e-14)


def reference_source(field, xy):
    """f = iota^2 Delta g - g with every product written out where it
    occurs and the two components stacked."""
    lam, mu, i2 = field.mat.lam, field.mat.mu, field.mat.iota**2
    lm = lam + mu
    (x1, x2), (y1, y2) = _axis_orders(field, xy, 4)
    g1 = mu * (x1[2] * y1[0] + x1[0] * y1[2]) + lm * (x1[2] * y1[0] + x2[1] * y2[1])
    g2 = mu * (x2[2] * y2[0] + x2[0] * y2[2]) + lm * (x1[1] * y1[1] + x2[0] * y2[2])
    lap_g1 = mu * (x1[4] * y1[0] + 2.0 * x1[2] * y1[2] + x1[0] * y1[4]) + lm * (
        x1[4] * y1[0] + x1[2] * y1[2] + x2[3] * y2[1] + x2[1] * y2[3]
    )
    lap_g2 = mu * (x2[4] * y2[0] + 2.0 * x2[2] * y2[2] + x2[0] * y2[4]) + lm * (
        x1[3] * y1[1] + x1[1] * y1[3] + x2[2] * y2[2] + x2[0] * y2[4]
    )
    return np.stack([i2 * lap_g1 - g1, i2 * lap_g2 - g2], axis=-1)


class TestSource:
    def test_zero_field_gives_zero_source(self):
        def flat(t, k):
            return [np.zeros_like(t)] * (k + 1), [np.zeros_like(t)] * (k + 1)

        field = ManufacturedField("null", flat, flat, MaterialParams())
        f = source(field)(np.random.default_rng(1).uniform(size=(20, 2)))
        assert_allclose(f, 0.0, atol=1e-300)

    @pytest.mark.parametrize("example", ["smooth", "layer"])
    def test_evaluates_each_chain_once(self, example):
        """The source reads the x chain and the y chain once each, through
        order 4; the derivatives read them once each through order 2, and
        the displacement once each at order 0."""
        field = example_field(example, MaterialParams(iota=1e-2))
        calls = []

        def counted(axis):
            def chain(t, k):
                calls.append((axis, k))
                return getattr(field, axis)(t, k)

            return chain

        counting = ManufacturedField(field.name, counted("x"), counted("y"), field.mat)
        pts = np.random.default_rng(2).uniform(size=(30, 2))
        f = source(counting)(pts)
        assert sorted(calls) == [("x", 4), ("y", 4)]
        assert np.array_equal(f, source(field)(pts))
        calls.clear()
        gradient, hessian = counting.derivatives(pts)
        assert sorted(calls) == [("x", 2), ("y", 2)]
        assert np.array_equal(gradient, field.gradient(pts))
        assert np.array_equal(hessian, field.hessian(pts))
        for order, method in ((0, "displacement"), (2, "gradient"), (2, "hessian")):
            calls.clear()
            value = getattr(counting, method)(pts)
            assert sorted(calls) == [("x", order), ("y", order)]
            assert np.array_equal(value, getattr(field, method)(pts))

    @pytest.mark.parametrize("iota", [1.0, 1e-2, 1e-6])
    @pytest.mark.parametrize("example", ["smooth", "layer"])
    def test_bits_equal_written_out_formula(self, example, iota):
        """On plain points, and on a dof map's quadrature points as the
        load reads them, the source has the bits of the formula with each
        product written out where it occurs."""
        field = example_field(example, MaterialParams(iota=iota))
        rng = np.random.default_rng(31)
        # Points near the walls reach the layer's steep and tiny values.
        near_walls = np.concatenate([rng.uniform(size=(200, 2)), rng.uniform(0, 1e-5, (50, 2))])
        points = build_dofmap(refine(make_structured(2)), "ntw").points
        for xy in (near_walls, points):
            f = source(field)(xy)
            assert f.shape == (len(xy), 2) and f.flags.c_contiguous
            assert np.array_equal(f, reference_source(field, np.array(xy)))

    @pytest.mark.parametrize("iota", [1.0, 1e-2])
    @pytest.mark.parametrize("example", ["smooth", "layer"])
    def test_batched_oracle_equals_loop_stencils(self, example, iota):
        """One evaluator call per stencil set gives the loop's bits."""
        field = example_field(example, MaterialParams(iota=iota))
        pts = np.random.default_rng(29).uniform(0.1, 0.9, size=(7, 2))
        assert np.array_equal(fd_source(field, pts), reference_fd_source(field, pts))

    @pytest.mark.parametrize("iota", [1.0, 1e-2])
    @pytest.mark.parametrize("example", ["smooth", "layer"])
    def test_matches_nested_difference_oracle(self, example, iota):
        field = example_field(example, MaterialParams(iota=iota))
        rng = np.random.default_rng(23)
        pts = rng.uniform(0.1, 0.9, size=(10, 2))
        fa = source(field)(pts)
        fd = fd_source(field, pts)
        scale = np.abs(fa).max()
        assert np.abs(fa - fd).max() <= 1e-4 * max(scale, 1.0)

    def test_weak_form_consistency(self):
        """Integrating f against a clamped polynomial test field must give
        the energy pairing of u with that field.

        Both sides use exact derivatives and a fine quadrature, so this
        locks the source synthesis to the bilinear form convention.
        """
        from sgfem.mesh import element_geometry, make_structured
        from sgfem.quadrature import triangle_rule

        field = example_smooth(MaterialParams(lam=10.0, mu=1.0, iota=1.0))
        f = source(field)
        lam, mu, i2 = 10.0, 1.0, 1.0

        def bump(t, order):
            if order == 0:
                return t * t * (1.0 - t) ** 2
            if order == 1:
                return 2.0 * t - 6.0 * t**2 + 4.0 * t**3
            return 2.0 - 12.0 * t + 12.0 * t * t

        weights = np.array([1.0, -0.5])

        def v_grad(xy):
            x, y = xy[:, 0], xy[:, 1]
            g = np.empty(xy.shape[:1] + (2, 2))
            for c in (0, 1):
                g[:, c, 0] = weights[c] * bump(x, 1) * bump(y, 0)
                g[:, c, 1] = weights[c] * bump(x, 0) * bump(y, 1)
            return g

        def v_hess(xy):
            x, y = xy[:, 0], xy[:, 1]
            h = np.empty(xy.shape[:1] + (2, 2, 2))
            for c in (0, 1):
                h[:, c, 0, 0] = weights[c] * bump(x, 2) * bump(y, 0)
                h[:, c, 0, 1] = h[:, c, 1, 0] = weights[c] * bump(x, 1) * bump(y, 1)
                h[:, c, 1, 1] = weights[c] * bump(x, 0) * bump(y, 2)
            return h

        def v_value(xy):
            x, y = xy[:, 0], xy[:, 1]
            base = bump(x, 0) * bump(y, 0)
            return np.stack([weights[0] * base, weights[1] * base], axis=-1)

        mesh = make_structured(16)
        rule = triangle_rule(10)
        load_side = 0.0
        energy_side = 0.0
        for t in range(mesh.num_triangles):
            geom = element_geometry(mesh, t)
            xy = rule.points @ geom.vertices
            w = geom.area * rule.weights
            load_side += w @ np.einsum("qi,qi->q", f(xy), v_value(xy))
            Gu, Gv = field.gradient(xy), v_grad(xy)
            Hu, Hv = field.hessian(xy), v_hess(xy)
            div_u, div_v = Gu[:, 0, 0] + Gu[:, 1, 1], Gv[:, 0, 0] + Gv[:, 1, 1]
            eps_u = 0.5 * (Gu + np.swapaxes(Gu, 1, 2))
            eps_v = 0.5 * (Gv + np.swapaxes(Gv, 1, 2))
            gdiv_u = Hu[:, 0, 0, :] + Hu[:, 1, 1, :]
            gdiv_v = Hv[:, 0, 0, :] + Hv[:, 1, 1, :]
            geps_u = 0.5 * (Hu + np.transpose(Hu, (0, 2, 1, 3)))
            geps_v = 0.5 * (Hv + np.transpose(Hv, (0, 2, 1, 3)))
            density = (
                lam * div_u * div_v
                + 2.0 * mu * np.einsum("qij,qij->q", eps_u, eps_v)
                + i2 * lam * np.einsum("qj,qj->q", gdiv_u, gdiv_v)
                + 2.0 * i2 * mu * np.einsum("qijk,qijk->q", geps_u, geps_v)
            )
            energy_side += w @ density
        assert_allclose(load_side, energy_side, rtol=1e-6)
