"""Tests for the checked direct solve of reduced systems."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

import sgfem.solver
from sgfem.assembly import MaterialParams, SparseSystem, assemble, build_dofmap
from sgfem.mesh import make_structured
from sgfem.solver import SolverError, solve


def constant_load(xy):
    out = np.empty_like(xy)
    out[:, 0] = 1.0
    out[:, 1] = -0.5
    return out


@pytest.fixture(scope="module")
def ntw_system():
    mesh = make_structured(2)
    return assemble(build_dofmap(mesh, "ntw"), MaterialParams(iota=0.5), constant_load)


class TestDirect:
    def test_matches_dense_oracle(self, ntw_system):
        report = solve(ntw_system)
        dense = np.linalg.solve(ntw_system.matrix.toarray(), ntw_system.rhs)
        assert_allclose(report.solution, dense, rtol=1e-10, atol=1e-14)
        assert report.method == "direct"
        assert report.rel_residual <= 1e-8

    def test_report_fields(self, ntw_system):
        report = solve(ntw_system)
        assert report.wall_seconds >= 0.0
        assert report.solution.shape == ntw_system.rhs.shape


class TestFailures:
    def test_singular_matrix_raises(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        system = SparseSystem(
            matrix=A,
            rhs=np.array([1.0, 0.0]),
            retained=np.arange(2),
            n_total=2,
            dofmap=None,
        )
        with pytest.raises(SolverError):
            solve(system)

    def test_wrong_lu_solution_raises(self, ntw_system, monkeypatch):
        class WrongLU:
            def __init__(self, lu):
                self._lu = lu

            def solve(self, b):
                return 1.01 * self._lu.solve(b)

        class FakeSplinalg:
            @staticmethod
            def splu(A):
                return WrongLU(spla.splu(A))

        monkeypatch.setattr(sgfem.solver, "spla", FakeSplinalg)
        with pytest.raises(SolverError, match="residual"):
            solve(ntw_system)


class TestEdgeCases:
    def test_empty_system(self):
        mesh = make_structured(1)
        system = assemble(build_dofmap(mesh, "specht"), MaterialParams(), constant_load)
        assert system.matrix.shape == (0, 0)
        report = solve(system)
        assert report.solution.shape == (0,)
        assert report.rel_residual == 0.0

    def test_permutation_invariance(self, ntw_system):
        rng = np.random.default_rng(42)
        n = ntw_system.matrix.shape[0]
        perm = rng.permutation(n)
        A = ntw_system.matrix[perm][:, perm].tocsr()
        permuted = SparseSystem(
            matrix=A,
            rhs=ntw_system.rhs[perm],
            retained=ntw_system.retained[perm],
            n_total=ntw_system.n_total,
            dofmap=ntw_system.dofmap,
        )
        base = solve(ntw_system)
        other = solve(permuted)
        scale = np.abs(base.solution).max()
        assert_allclose(other.solution, base.solution[perm], atol=1e-9 * scale)

    def test_expanded_solution_respects_boundary(self, ntw_system):
        report = solve(ntw_system)
        full = ntw_system.expand(report.solution)
        boundary = np.repeat(ntw_system.dofmap.boundary, 2)
        assert_allclose(full[boundary], 0.0)
        assert np.abs(full).max() > 0.0
