"""The manufactured field on a dof map's point set, bit for bit.

A dof map keeps the quadrature points of the load and the energy error as
one ``PointSet`` with the distinct coordinates of each axis.  The field's
axis chains run at those coordinates, in one call for both axes when they
are one function, and are gathered back to the points; the load's test
values are computed once per translation class.  Both
must give exactly the values of one chain evaluation per point at
``xy[:, 0]`` and ``xy[:, 1]`` and of the test values ``coeffs @ M`` per
triangle, which the references below keep: the assembled right-hand side
and the energy error are ``np.array_equal`` to theirs.
"""

import hypothesis
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgfem.analysis import energy_error, local_coefficients
from sgfem.assembly import FIELD_RULE, FIELD_TABLES, MaterialParams, assemble, build_dofmap
from sgfem.elements import MORLEY_PI1, ElementKind, evaluate
from sgfem.manufactured import example_field, source
from sgfem.mesh import make_structured
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
    geom = dofmap.geom
    xy = (FIELD_RULE.points @ geom.vertices).reshape(-1, 2)
    return xy, geom.area[:, None] * FIELD_RULE.weights


def reference_rhs(dofmap, field):
    """The reduced load with test values per triangle and the source
    evaluated point by point."""
    xy, w = reference_points(dofmap)
    if dofmap.kind is ElementKind.MORLEY:
        vals = (FIELD_RULE.points @ MORLEY_PI1).T[None]
    else:
        vals = dofmap.coeffs @ FIELD_TABLES.M
    ntri = len(w)
    F = reference_source(field, xy).reshape(ntri, -1, 2)
    loads = ((vals * w[:, None]) @ F).reshape(ntri, -1)
    vids = np.repeat(2 * dofmap.scatter, 2, axis=1) + np.tile([0, 1], dofmap.nloc)
    rhs = np.bincount(vids.ravel(), loads.ravel(), dofmap.n_vector)
    return rhs[dofmap.pattern.retained]


def reference_energy_error(dofmap, full_dofs, field):
    xy, w = reference_points(dofmap)
    w = w.ravel()
    poly = np.einsum("tac,tam->tcm", local_coefficients(dofmap, full_dofs), dofmap.coeffs)
    _, G, H = evaluate(poly, dofmap.geom.grad_lambda, FIELD_TABLES)
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
        xy, w = reference_points(dofmap)
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
