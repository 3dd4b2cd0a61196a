"""The manufactured field on a dof map's point set, bit for bit.

A dof map keeps the quadrature points of the load and the energy error as
one ``PointSet`` with the distinct coordinates of each axis.  The field's
axis chains run at those coordinates, in one call for both axes when they
are one function, and are gathered back to the points, and the point set
keeps the last evaluation, so the energy error reads the load's; the
load's test values are computed once per translation class.  These
must give exactly the values of one chain evaluation per point at
``xy[:, 0]`` and ``xy[:, 1]`` and of the test values ``coeffs @ M`` per
triangle, which the references below keep: the assembled right-hand side
and the energy error are ``np.array_equal`` to theirs.  The points are in
the dof map's block order, the mesh-order points permuted; the load is
summed in mesh order, as the per-triangle reference sums it.
"""

import hypothesis
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgfem import manufactured
from sgfem.analysis import energy_error, local_coefficients
from sgfem.assembly import FIELD_RULE, FIELD_TABLES, MaterialParams, assemble, build_dofmap
from sgfem.elements import MORLEY_PI1, ElementKind, evaluate
from sgfem.manufactured import ManufacturedField, example_field, source
from sgfem.mesh import make_structured, mesh_geometry, refine
from sgfem.quadrature import PointSet

from random_meshes import jittered_mesh

# Hypothesis seed of the derandomized property test below.  Derandomized
# examples are seeded from a test's source text; a fixed seed keeps the test
# on the same examples when its body is edited.
POINT_SET_SEED = int(
    "fb16773ed80c53db2891f26a7dbbed67218ecd91981e8302"
    "b22a0d618c264596f39ea75d4d21d947d726a06ce489dae8",
    16,
)
ENERGY_ERROR_SEED = int("5d0c9e61a2b74f38e1c06b93d2a8f5174e9b3c20", 16)


def reference_displacement(field, xy):
    (x1, x2), (y1, y2) = field.x(xy[:, 0], 0), field.y(xy[:, 1], 0)
    return np.stack([x1[0] * y1[0], x2[0] * y2[0]], axis=-1)


def reference_derivatives(field, xy):
    g = np.empty(xy.shape[:1] + (2, 2))
    h = np.empty(xy.shape[:1] + (2, 2, 2))
    for i, (X, Y) in enumerate(zip(field.x(xy[:, 0], 2), field.y(xy[:, 1], 2))):
        g[:, i, 0] = X[1] * Y[0]
        g[:, i, 1] = X[0] * Y[1]
        h[:, i, 0, 0] = X[2] * Y[0]
        h[:, i, 0, 1] = h[:, i, 1, 0] = X[1] * Y[1]
        h[:, i, 1, 1] = X[0] * Y[2]
    return g, h


def reference_source(field, xy):
    lam, mu, i2 = field.mat.lam, field.mat.mu, field.mat.iota**2
    lm = lam + mu
    (x1, x2), (y1, y2) = field.x(xy[:, 0], 4), field.y(xy[:, 1], 4)
    g1 = mu * (x1[2] * y1[0] + x1[0] * y1[2]) + lm * (x1[2] * y1[0] + x2[1] * y2[1])
    g2 = mu * (x2[2] * y2[0] + x2[0] * y2[2]) + lm * (x1[1] * y1[1] + x2[0] * y2[2])
    lap_g1 = mu * (x1[4] * y1[0] + 2.0 * x1[2] * y1[2] + x1[0] * y1[4]) + lm * (
        x1[4] * y1[0] + x1[2] * y1[2] + x2[3] * y2[1] + x2[1] * y2[3]
    )
    lap_g2 = mu * (x2[4] * y2[0] + 2.0 * x2[2] * y2[2] + x2[0] * y2[4]) + lm * (
        x1[3] * y1[1] + x1[1] * y1[3] + x2[2] * y2[2] + x2[0] * y2[4]
    )
    return np.stack([i2 * lap_g1 - g1, i2 * lap_g2 - g2], axis=-1)


def reference_points(dofmap):
    geom = mesh_geometry(dofmap.mesh)
    xy = (FIELD_RULE.points @ geom.vertices).reshape(-1, 2)
    return xy, geom.area[:, None] * FIELD_RULE.weights


def reference_rhs(dofmap, field):
    """The reduced load with test values per triangle and the source
    evaluated point by point."""
    xy, w = reference_points(dofmap)
    if dofmap.kind is ElementKind.MORLEY:
        vals = (FIELD_RULE.points @ MORLEY_PI1).T[None]
    else:
        vals = dofmap.class_coeffs[dofmap.classes] @ FIELD_TABLES.M
    ntri = len(w)
    F = reference_source(field, xy).reshape(ntri, -1, 2)
    loads = ((vals * w[:, None]) @ F).reshape(ntri, -1)
    vids = np.repeat(2 * dofmap.scatter, 2, axis=1) + np.tile([0, 1], dofmap.nloc)
    rhs = np.bincount(vids.ravel(), loads.ravel(), dofmap.n_vector)
    return rhs[dofmap.pattern.retained]


def reference_rows(field, xy):
    """(2, 5, n) rows d_x, d_y, d_xx, d_xy, d_yy of each component."""
    rows = np.empty((2, 5, len(xy)))
    for i, (X, Y) in enumerate(zip(field.x(xy[:, 0], 2), field.y(xy[:, 1], 2))):
        for r, (a, b) in enumerate(((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))):
            rows[i, r] = X[a] * Y[b]
    return rows


def block_points(dofmap):
    """The mesh-order points and weights permuted to the dof map's order."""
    xy, w = reference_points(dofmap)
    return xy.reshape(len(w), -1, 2)[dofmap.order].reshape(-1, 2), w[dofmap.order]


def discrete_rows(dofmap, full_dofs):
    """(2, 5, T, q) discrete derivative rows in block order, triangle by
    triangle from its class's derivative table."""
    tables = dofmap.derivative_tables[dofmap.classes[dofmap.order]]
    local = local_coefficients(dofmap, full_dofs)[dofmap.order]
    rows = local.swapaxes(1, 2) @ tables
    return rows.reshape(len(local), 2, 5, -1).transpose(1, 2, 0, 3)


def reference_energy_error(dofmap, full_dofs, field):
    """The row-by-row formula of ``energy_error`` on per-point arrays: each
    exact row minus the matching (T, q) view of the discrete derivatives,
    the squares summed with the weights row by row, the mixed row twice."""
    xy, w = block_points(dofmap)
    rows = reference_rows(field, xy)

    def squares(rows):
        sums = ((rows * rows) @ w.ravel()).sum(axis=0)
        return sums[:2].sum(), sums[2:] @ np.array([1.0, 2.0, 1.0])

    nrm_g, nrm_h = squares(rows)
    rows.reshape(2, 5, *w.shape)[...] -= discrete_rows(dofmap, full_dofs)
    err_g, err_h = squares(rows)
    iota = field.mat.iota
    absolute = np.sqrt(err_g) + iota * np.sqrt(err_h)
    norm = np.sqrt(nrm_g) + iota * np.sqrt(nrm_h)
    return float(absolute), float(absolute / norm)


def einsum_energy_error(dofmap, full_dofs, field):
    """The energy error as point-major (n, 2, 2) and (n, 2, 2, 2) tensors
    reduced by einsum, with the derivatives of each triangle's polynomials
    from ``evaluate``, on the points in mesh order: the formula
    ``energy_error`` used before it read the exact derivatives row by row
    and the discrete ones from class tables."""
    xy, w = reference_points(dofmap)
    w = w.ravel()
    coeffs = dofmap.class_coeffs[dofmap.classes]
    poly = np.einsum("tac,tam->tcm", local_coefficients(dofmap, full_dofs), coeffs)
    G, H = evaluate(poly, mesh_geometry(dofmap.mesh).grad_lambda, FIELD_TABLES)
    Gu, Hu = reference_derivatives(field, xy)
    dh = Hu - H.swapaxes(1, 2).reshape(Hu.shape)
    err_h = w @ np.einsum("qcjk,qcjk->q", dh, dh)
    nrm_h = w @ np.einsum("qcjk,qcjk->q", Hu, Hu)
    dg = Gu - G.swapaxes(1, 2).reshape(Gu.shape)
    err_g = w @ np.einsum("qcj,qcj->q", dg, dg)
    nrm_g = w @ np.einsum("qcj,qcj->q", Gu, Gu)
    iota = field.mat.iota
    absolute = np.sqrt(err_g) + iota * np.sqrt(err_h)
    norm = np.sqrt(nrm_g) + iota * np.sqrt(nrm_h)
    return float(absolute), float(absolute / norm)


def assert_field_matches(field, points):
    """The displacement, derivatives and source at ``points`` against the
    references at the same coordinates as a plain array."""
    xy = np.asarray(points)
    assert type(xy) is np.ndarray
    assert np.array_equal(field.displacement(points), reference_displacement(field, xy))
    for got, expected in zip(field.derivatives(points), reference_derivatives(field, xy)):
        assert np.array_equal(got, expected)
    assert np.array_equal(source(field)(points), reference_source(field, xy))


def assert_distinct_coordinates(points):
    for (t, index), column in zip(points.axes, np.asarray(points).T):
        assert np.array_equal(t, np.unique(column))
        assert np.array_equal(t[index], column)


meshes = st.one_of(
    st.builds(make_structured, st.integers(1, 3)),
    st.builds(
        jittered_mesh,
        st.integers(1, 3),
        st.floats(0.0, 0.95),
        st.sampled_from([1.0, 1e-3]),
        st.integers(0, 2**32 - 1),
    ),
)


@hypothesis.seed(POINT_SET_SEED)
@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(mesh=meshes, seed=st.integers(0, 2**32 - 1))
@example(mesh=make_structured(1), seed=0)
@example(mesh=make_structured(2), seed=1)
@example(mesh=make_structured(3), seed=2)
@example(mesh=jittered_mesh(3, 0.5, 1.0, 11), seed=3)
def test_point_set_path_is_bitwise_the_per_point_path(mesh, seed):
    rng = np.random.default_rng(seed)
    for kind in ElementKind:
        dofmap = build_dofmap(mesh, kind)
        points = dofmap.points
        assert isinstance(points, PointSet)
        assert points is dofmap.points
        xy, w = block_points(dofmap)
        assert np.array_equal(points, xy)
        assert np.array_equal(points.weights, w)
        assert_distinct_coordinates(points)
        # A slice, taken once its parent's index exists, computes its own.
        part = points[len(points) // 3 :: 2]
        assert part.weights is None
        assert_distinct_coordinates(part)
        full_dofs = rng.normal(size=dofmap.n_vector)
        for example_name in ("smooth", "layer"):
            for iota in (1.0, 1e-6):
                mat = MaterialParams(iota=iota)
                field = example_field(example_name, mat)
                for xy in (points, part, np.array(part)):
                    assert_field_matches(field, xy)
                system = assemble(dofmap, mat, source(field))
                assert np.array_equal(system.rhs, reference_rhs(dofmap, field))
                got = energy_error(dofmap, full_dofs, field)
                assert got == reference_energy_error(dofmap, full_dofs, field)


def counting_field(field, calls):
    """``field`` with chains that log ``(axis, k)`` on each call."""

    def counted(axis):
        def chain(t, k):
            calls.append((axis, k))
            return getattr(field, axis)(t, k)

        return chain

    return ManufacturedField(field.name, counted("x"), counted("y"), field.mat)


@pytest.mark.parametrize("example_name", ["smooth", "layer"])
def test_point_set_keeps_the_last_field_evaluation(example_name):
    """The load's order-4 pass serves the energy error's order-2 read of
    the same field, once, and no other field's: every result is the plain
    points' result, bit for bit."""
    dofmap = build_dofmap(refine(make_structured(2)), "ntw")
    points = dofmap.points
    xy = np.array(points)
    calls = []
    field_a = counting_field(example_field(example_name, MaterialParams(iota=1e-2)), calls)
    field_b = example_field(example_name, MaterialParams(iota=1e-4))
    assert np.array_equal(source(field_a)(points), source(field_a)(xy))
    calls.clear()
    for got, expected in zip(field_a.derivatives(points), field_a.derivatives(xy)):
        assert np.array_equal(got, expected)
    # Only the plain points ran the chains, and the read released the orders.
    assert sorted(calls) == [("x", 2), ("y", 2)]
    assert points.field_orders is None
    for got, expected in zip(field_b.derivatives(points), field_b.derivatives(xy)):
        assert np.array_equal(got, expected)
    calls.clear()
    for got, expected in zip(field_a.derivatives(points), field_a.derivatives(xy)):
        assert np.array_equal(got, expected)
    assert sorted(calls) == [("x", 2), ("x", 2), ("y", 2), ("y", 2)]
    # A slice keeps no evaluation of its parent's.
    assert points[::2].field_orders is None


@hypothesis.seed(ENERGY_ERROR_SEED)
@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(mesh=meshes, seed=st.integers(0, 2**32 - 1))
@example(mesh=make_structured(1), seed=0)
@example(mesh=make_structured(3), seed=1)
@example(mesh=jittered_mesh(2, 0.9, 1e-3, 5), seed=2)
def test_energy_error_matches_the_einsum_formula(mesh, seed):
    """The energy error from class tables on the block order rounds
    differently from the per-triangle, point-major einsum reduction, by no
    more than 1e-13 relative."""
    rng = np.random.default_rng(seed)
    for kind in ElementKind:
        dofmap = build_dofmap(mesh, kind)
        full_dofs = rng.normal(size=dofmap.n_vector)
        for example_name in ("smooth", "layer"):
            for iota in (1.0, 1e-2, 1e-6):
                field = example_field(example_name, MaterialParams(iota=iota))
                got = energy_error(dofmap, full_dofs, field)
                expected = einsum_energy_error(dofmap, full_dofs, field)
                np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("kind", list(ElementKind))
@pytest.mark.parametrize("example_name", ["smooth", "layer"])
def test_load_keeps_the_gathered_low_orders(kind, example_name, monkeypatch):
    """The orders a load leaves on its points are the gathered block of
    orders 0-2 itself, not a copy, and hold no order-3 or order-4 row; the
    energy error's read releases them."""
    gathered = []
    original = manufactured._gathered

    def recording(*args):
        blocks = original(*args)
        gathered.append(blocks)
        return blocks

    monkeypatch.setattr(manufactured, "_gathered", recording)
    dofmap = build_dofmap(refine(make_structured(2)), kind)
    points = dofmap.points
    xy = np.asarray(points)
    field = example_field(example_name, MaterialParams(iota=1e-2))
    assemble(dofmap, field.mat, source(field))
    kept = points.field_orders
    assert kept[0] is field
    (x_low, x_high), (y_low, y_high) = gathered
    chains = field.x(xy[:, 0], 4), field.y(xy[:, 1], 4)
    for orders, low, high, chain in zip(kept[1:], (x_low, y_low), (x_high, y_high), chains):
        assert orders.shape == (2, 3, len(points))
        assert np.shares_memory(orders, low)
        # The memory behind the kept orders is theirs alone.
        owner = orders
        while owner.base is not None:
            owner = owner.base
        assert owner.nbytes == orders.nbytes
        assert high.shape == (2, 2, len(points))
        assert not np.shares_memory(orders, high)
        assert np.array_equal(orders, [factor[:3] for factor in chain])
        assert np.array_equal(high, [factor[3:] for factor in chain])
    energy_error(dofmap, np.zeros(dofmap.n_vector), field)
    assert points.field_orders is None
