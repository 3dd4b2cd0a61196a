"""Tests for degree-of-freedom maps, element matrices and global assembly."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sgfem.assembly
from sgfem.assembly import (
    MAX_ASYMMETRY,
    MaterialParams,
    assemble,
    build_dofmap,
    element_load,
    element_loads,
    element_matrices,
    element_stiffness,
    element_stiffness_morley,
    sum_blocks,
)
from sgfem.elements import ElementKind, build_basis, interpolate
from sgfem.mesh import element_geometry, make_structured
from sgfem.quadrature import triangle_rule
from sgfem.verify import random_geometry

ALL_KINDS = [ElementKind.NTW, ElementKind.SPECHT, ElementKind.MORLEY]


def quadratic_field():
    """A vector field with quadratic components and its derivatives."""

    def value(xy):
        x, y = xy[:, 0], xy[:, 1]
        u1 = x * x + 2.0 * x * y - y
        u2 = y * y - 3.0 * x * y + 0.5 * x
        return np.stack([u1, u2], axis=-1)

    def grad(xy):
        x, y = xy[:, 0], xy[:, 1]
        g = np.empty(xy.shape[:1] + (2, 2))
        g[:, 0, 0] = 2.0 * x + 2.0 * y
        g[:, 0, 1] = 2.0 * x - 1.0
        g[:, 1, 0] = -3.0 * y + 0.5
        g[:, 1, 1] = 2.0 * y - 3.0 * x
        return g

    def hess(xy):
        h = np.zeros(xy.shape[:1] + (2, 2, 2))
        h[:, 0, 0, 0] = 2.0
        h[:, 0, 0, 1] = 2.0
        h[:, 0, 1, 0] = 2.0
        h[:, 1, 0, 1] = -3.0
        h[:, 1, 1, 0] = -3.0
        h[:, 1, 1, 1] = 2.0
        return h

    return value, grad, hess


def value_component(fn, c):
    return lambda xy: np.asarray(fn(xy))[:, c]


def grad_component(fn, c):
    return lambda xy: np.asarray(fn(xy))[:, c, :]


def global_interpolate(mesh, kind, value, grad):
    """Interpolate a smooth field into the global coefficient vector.

    Shared degrees of freedom must receive the same value from every
    adjacent element; that agreement is asserted on the way.
    """
    dofmap = build_dofmap(mesh, kind)
    full = np.full(dofmap.n_vector, np.nan)
    for t in range(mesh.num_triangles):
        geom = element_geometry(mesh, t)
        basis = build_basis(kind, geom, dofmap.signs[t])
        for c in (0, 1):
            coeffs = interpolate(basis, value_component(value, c), grad_component(grad, c))
            ids = 2 * dofmap.scatter[t] + c
            seen = ~np.isnan(full[ids])
            assert_allclose(full[ids][seen], coeffs[seen], rtol=1e-9, atol=1e-9)
            full[ids] = coeffs
    assert not np.any(np.isnan(full))
    return full


def exact_energy(mesh, mat, grad, hess, membrane_through_pi1=False, value=None):
    """Quadrature of the energy density of an exact field, by hand.

    Independent of the basis machinery: only mesh geometry and the
    quadrature rule are reused.
    """
    rule = triangle_rule(10)
    i2 = mat.iota**2
    total = 0.0
    for t in range(mesh.num_triangles):
        geom = element_geometry(mesh, t)
        xy = rule.points @ geom.vertices
        H = hess(xy)
        if membrane_through_pi1:
            vert_vals = value(geom.vertices)
            g_lin = np.einsum("vi,vj->ij", vert_vals, geom.grad_lambda)
            G = np.broadcast_to(g_lin, (len(xy), 2, 2))
        else:
            G = grad(xy)
        div = G[:, 0, 0] + G[:, 1, 1]
        eps = 0.5 * (G + np.swapaxes(G, 1, 2))
        gdiv = H[:, 0, 0, :] + H[:, 1, 1, :]
        geps = 0.5 * (H + np.transpose(H, (0, 2, 1, 3)))
        density = (
            mat.lam * div**2
            + 2.0 * mat.mu * np.einsum("qij,qij->q", eps, eps)
            + i2 * mat.lam * np.einsum("qj,qj->q", gdiv, gdiv)
            + 2.0 * i2 * mat.mu * np.einsum("qijk,qijk->q", geps, geps)
        )
        total += geom.area * rule.weights @ density
    return total


class TestDofMap:
    def test_scalar_counts_structured4(self):
        mesh = make_structured(4)
        assert build_dofmap(mesh, "ntw").n_scalar == 25 + 2 * 56
        assert build_dofmap(mesh, "specht").n_scalar == 75
        assert build_dofmap(mesh, "morley").n_scalar == 25 + 56

    def test_retained_counts_structured4(self):
        mesh = make_structured(4)
        rng = np.random.default_rng(3)
        f = lambda xy: np.zeros_like(xy)
        mat = MaterialParams()
        expected = {"ntw": 178, "specht": 54, "morley": 98}
        for kind, count in expected.items():
            system = assemble(build_dofmap(mesh, kind), mat, f)
            assert system.matrix.shape == (count, count)
            assert system.retained.size == count

    def test_shared_edge_dofs_match(self):
        mesh = make_structured(2)
        dofmap = build_dofmap(mesh, "ntw")
        for e in range(mesh.num_edges):
            if mesh.edge_is_boundary[e]:
                continue
            t1, t2 = mesh.edge_tris[e]
            i1 = list(mesh.tri_edges[t1]).index(e)
            i2 = list(mesh.tri_edges[t2]).index(e)
            assert dofmap.scatter[t1, 3 + i1] == dofmap.scatter[t2, 3 + i2]
            assert dofmap.scatter[t1, 6 + i1] == dofmap.scatter[t2, 6 + i2]

    def test_boundary_flags(self):
        mesh = make_structured(2)
        dofmap = build_dofmap(mesh, "morley")
        nv = mesh.num_vertices
        assert np.array_equal(dofmap.boundary[:nv], mesh.vertex_is_boundary)
        assert np.array_equal(dofmap.boundary[nv:], mesh.edge_is_boundary)

    def test_expand_round_trip(self):
        mesh = make_structured(2)
        mat = MaterialParams()
        system = assemble(build_dofmap(mesh, "specht"), mat, lambda xy: np.ones_like(xy))
        x = np.arange(system.retained.size, dtype=float) + 1.0
        full = system.expand(x)
        assert full.shape == (system.n_total,)
        assert_allclose(full[system.retained], x)
        mask = np.ones(system.n_total, bool)
        mask[system.retained] = False
        assert_allclose(full[mask], 0.0)


class TestElementKernels:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("lam", [10.0, 0.0])
    def test_rigid_motions_span_the_kernel(self, kind, lam):
        rng = np.random.default_rng(17)
        mat = MaterialParams(lam=lam, mu=1.0, iota=0.5)
        for _ in range(5):
            geom = random_geometry(rng)
            basis = build_basis(kind, geom)
            if kind is ElementKind.MORLEY:
                K = element_stiffness_morley(basis, mat)
            else:
                K = element_stiffness(basis, mat)
            eigs = np.linalg.eigvalsh(K)
            scale = eigs[-1]
            assert np.sum(np.abs(eigs) < 1e-10 * scale) == 3
            assert eigs[3] > 1e-8 * scale

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rigid_motion_in_kernel_exactly(self, kind):
        rng = np.random.default_rng(29)
        mat = MaterialParams()
        geom = random_geometry(rng)
        basis = build_basis(kind, geom)
        K = (
            element_stiffness_morley(basis, mat)
            if kind is ElementKind.MORLEY
            else element_stiffness(basis, mat)
        )

        def rotation(xy):
            return np.stack([-xy[:, 1], xy[:, 0]], axis=-1)

        def rotation_grad(xy):
            g = np.zeros(xy.shape[:1] + (2, 2))
            g[:, 0, 1] = -1.0
            g[:, 1, 0] = 1.0
            return g

        coeffs = np.empty(2 * basis.nloc)
        for c in (0, 1):
            coeffs[c::2] = interpolate(
                basis, value_component(rotation, c), grad_component(rotation_grad, c)
            )
        assert_allclose(K @ coeffs, 0.0, atol=1e-10 * np.abs(K).max())


class TestElementLoad:
    def test_morley_constant_load_hand_values(self):
        rng = np.random.default_rng(5)
        geom = random_geometry(rng)
        basis = build_basis(ElementKind.MORLEY, geom)
        f = lambda xy: np.broadcast_to([2.0, -1.0], xy.shape)
        b = element_load(basis, f)
        third = geom.area / 3.0
        expected = np.zeros(12)
        expected[0:6:2] = 2.0 * third
        expected[1:6:2] = -1.0 * third
        assert_allclose(b, expected, atol=1e-14)

    def test_load_matches_quadrature_oracle(self):
        rng = np.random.default_rng(11)
        geom = random_geometry(rng)
        basis = build_basis(ElementKind.NTW, geom)
        f = lambda xy: np.stack([np.sin(xy[:, 0]), np.cos(xy[:, 1])], axis=-1)
        rule = triangle_rule(10)  # the rule element_load integrates with
        b = element_load(basis, f)
        xy = rule.points @ geom.vertices
        vals = basis.eval_all(rule.points)[0]
        F = f(xy)
        w = geom.area * rule.weights
        for a in range(basis.nloc):
            for c in (0, 1):
                assert_allclose(b[2 * a + c], np.sum(w * vals[a] * F[:, c]), rtol=1e-13)


class TestGlobalAssembly:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matrix_symmetric_and_positive_definite(self, kind):
        mesh = make_structured(2)
        mat = MaterialParams(lam=10.0, mu=1.0, iota=0.5)
        system = assemble(build_dofmap(mesh, kind), mat, lambda xy: np.ones_like(xy))
        A = system.matrix
        asym = (A - A.T).toarray()
        assert np.abs(asym).max() < 1e-12 * np.abs(A.toarray()).max()
        eigs = np.linalg.eigvalsh(A.toarray())
        assert eigs[0] > 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_asymmetric_element_matrices_raise(self, kind, monkeypatch):
        dofmap = build_dofmap(make_structured(2), kind)
        mat = MaterialParams(iota=0.5)
        f = lambda xy: np.ones_like(xy)
        assert assemble(dofmap, mat, f).asymmetry <= MAX_ASYMMETRY
        original = sgfem.assembly.element_matrices
        rng = np.random.default_rng(19)

        def skewed(*args):
            K = original(*args)
            R = rng.normal(size=K.shape)
            return K + 1e-9 * np.abs(K).max() * (R - R.swapaxes(1, 2))

        monkeypatch.setattr(sgfem.assembly, "element_matrices", skewed)
        with pytest.raises(ValueError, match="asymmetry"):
            assemble(dofmap, mat, f)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("iota", [1.0, 0.3])
    def test_interpolated_quadratic_energy(self, kind, iota):
        """v' A v on an interpolated quadratic equals the exact energy.

        Quadratics are reproduced by every family, so the discrete energy
        of the interpolant must coincide with the continuous energy, the
        morley family with its membrane term through the vertex
        interpolant.  Exercises bases, signs, scatter and the element
        matrices at once.
        """
        mesh = make_structured(2)
        mat = MaterialParams(lam=10.0, mu=1.0, iota=iota)
        value, grad, hess = quadratic_field()
        # The unreduced matrix: no boundary condition, every dof retained.
        dofmap = build_dofmap(mesh, kind)
        K = element_matrices(dofmap.coeffs, dofmap.geom, mat, kind is ElementKind.MORLEY)
        A = sum_blocks(dofmap, K)
        v = global_interpolate(mesh, kind, value, grad)
        discrete = v @ (A @ v)
        exact = exact_energy(
            mesh,
            mat,
            grad,
            hess,
            membrane_through_pi1=kind is ElementKind.MORLEY,
            value=value,
        )
        assert_allclose(discrete, exact, rtol=1e-11)

    def test_rhs_assembles_per_component(self):
        mesh = make_structured(2)

        def f(xy):
            out = np.zeros_like(xy)
            out[:, 0] = 1.0
            return out

        # The unreduced load: no boundary condition, every dof retained.
        dofmap = build_dofmap(mesh, "ntw")
        loads = element_loads(dofmap.coeffs, dofmap.geom, f, False)
        ids = np.repeat(2 * dofmap.scatter, 2, axis=1) + np.tile([0, 1], dofmap.nloc)
        full = np.zeros(dofmap.n_vector)
        np.add.at(full, ids.ravel(), loads.ravel())
        # Component 1 never sees the load.
        assert np.abs(full[1::2]).max() < 1e-14
        # The value-carrying shapes (vertices and midpoints) partition
        # unity, so their component 0 entries integrate f exactly.
        n_value = mesh.num_vertices + mesh.num_edges
        assert full[0 : 2 * n_value : 2].sum() == pytest.approx(1.0, rel=1e-12)

    def test_material_validation(self):
        with pytest.raises(ValueError):
            MaterialParams(lam=-1.0)
        with pytest.raises(ValueError):
            MaterialParams(mu=0.0)
        with pytest.raises(ValueError):
            MaterialParams(iota=0.0)
        with pytest.raises(ValueError):
            MaterialParams(iota=1.5)
