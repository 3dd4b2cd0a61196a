"""Tests for the checked direct solve of reduced systems."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

import sgfem.solver
from sgfem.analysis import coercivity_check, convergence_study
from sgfem.assembly import MaterialParams, SparseSystem, assemble, build_dofmap, stiffness_matrix
from sgfem.mesh import make_structured, refine
from sgfem.solver import SolverError, solve

FAMILIES = ["ntw", "specht", "morley"]
# The default iotas of ``sgfem convergence``.
IOTAS = (1.0, 1e-2, 1e-4, 1e-6)


def constant_load(xy):
    out = np.empty_like(xy)
    out[:, 0] = 1.0
    out[:, 1] = -0.5
    return out


@pytest.fixture(scope="module")
def ntw_system():
    mesh = make_structured(2)
    return assemble(build_dofmap(mesh, "ntw"), MaterialParams(iota=0.5), constant_load)


def recording_splu(monkeypatch):
    """Route ``solve``'s factorization through a proxy that records the
    matrix, the options and the factor of each call."""
    seen = []

    class RecordingSplinalg:
        @staticmethod
        def splu(A, **options):
            lu = spla.splu(A, **options)
            seen.append((A, options, lu))
            return lu

    monkeypatch.setattr(sgfem.solver, "spla", RecordingSplinalg)
    return seen


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

    def test_factors_in_symmetric_mode(self, monkeypatch):
        """The SPD matrix is factored with diagonal pivots and a minimum
        degree ordering of A^T + A applied symmetrically, on unrelaxed
        supernodes.  The matrix handed over is A^T: the CSC form of the
        bitwise symmetric A on A's own arrays, not a copy.  The dof map is
        a fresh one, so it holds no order from an earlier solve."""
        dofmap = build_dofmap(make_structured(2), "ntw")
        system = assemble(dofmap, MaterialParams(iota=0.5), constant_load)
        seen = recording_splu(monkeypatch)
        report = solve(system)
        assert report.rel_residual <= 1e-8
        [(A, options, _)] = seen
        assert options == {
            "permc_spec": "MMD_AT_PLUS_A",
            "relax": 1,
            "diag_pivot_thresh": 0.0,
            "options": {"SymmetricMode": True},
        }
        assert A.format == "csc"
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(A, name), getattr(system.matrix, name))

    @pytest.mark.parametrize("kind", ["ntw", "specht", "morley"])
    def test_ordering_fills_less_than_colamd(self, kind, monkeypatch):
        """On structured:2 refined three times (512 triangles, the
        benchmark's largest mesh) the LU fill under the options of
        ``solve`` is below the fill under COLAMD, the former ordering."""
        mesh = make_structured(2)
        for _ in range(3):
            mesh = refine(mesh)
        system = assemble(build_dofmap(mesh, kind), MaterialParams(iota=1e-6), constant_load)
        seen = recording_splu(monkeypatch)
        solve(system)
        [(A, options, lu)] = seen
        colamd = spla.splu(A, **{**options, "permc_spec": "COLAMD", "relax": None})
        assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz


def fill(lu) -> int:
    return lu.L.nnz + lu.U.nnz


class TestOrderingReuse:
    """The first solve on a dof map computes the ordering and keeps it;
    every later solve on the dof map factors its system renumbered to it."""

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_iota_sweep_matches_one_iota_studies(self, kind):
        """Only the rounding of the later iotas' factors moves."""
        swept = convergence_study(kind, "layer", IOTAS, 3, make_structured(2))
        for iota, report in zip(IOTAS, swept):
            [alone] = convergence_study(kind, "layer", [iota], 3, make_structured(2))
            for row, ref in zip(report.rows, alone.rows, strict=True):
                assert (row.h, row.dofs) == (ref.h, ref.dofs)
                assert row.rel_energy_err == pytest.approx(ref.rel_energy_err, rel=1e-12, abs=0)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_later_factors_keep_the_first_order(self, kind, monkeypatch):
        """Per mesh up to 512 triangles, one MMD_AT_PLUS_A factor and then
        NATURAL factors, each with the fill of an MMD_AT_PLUS_A factor of
        the same matrix in its natural numbering, to 0.1 %."""
        seen = recording_splu(monkeypatch)
        mesh = make_structured(2)
        for level in range(4):
            mesh = refine(mesh) if level else mesh
            dofmap = build_dofmap(mesh, kind)
            for iota in IOTAS:
                mat = MaterialParams(iota=iota)
                seen.clear()
                solve(assemble(dofmap, mat, constant_load))
                [(_, options, lu)] = seen
                if iota == IOTAS[0]:
                    assert options["permc_spec"] == "MMD_AT_PLUS_A"
                    continue
                assert options["permc_spec"] == "NATURAL"
                natural = stiffness_matrix(dofmap, mat)[0].T
                computed = spla.splu(natural, **{**options, "permc_spec": "MMD_AT_PLUS_A"})
                assert abs(fill(lu) - fill(computed)) <= 1e-3 * fill(computed)

    def test_report_names_the_ordering(self):
        dofmap = build_dofmap(refine(make_structured(2)), "ntw")
        first, later = (
            solve(assemble(dofmap, MaterialParams(iota=iota), constant_load)) for iota in IOTAS[:2]
        )
        assert (first.ordering, later.ordering) == ("MMD_AT_PLUS_A", "NATURAL")

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_ordered_system_is_the_natural_one_renumbered(self, kind, monkeypatch):
        """The second solve factors the natural matrix renumbered to the
        first solve's order, bit for bit, and its solution is the first
        one to rounding."""
        dofmap = build_dofmap(refine(make_structured(2)), kind)
        mat = MaterialParams(iota=1e-2)
        seen = recording_splu(monkeypatch)
        natural = assemble(dofmap, mat, constant_load)
        first = solve(natural)
        second = solve(assemble(dofmap, mat, constant_load))
        assert (first.ordering, second.ordering) == ("MMD_AT_PLUS_A", "NATURAL")
        [(_, _, lu), (factored, options, _)] = seen
        assert options["permc_spec"] == "NATURAL"
        inv = np.argsort(lu.perm_c)
        assert not np.array_equal(inv, np.arange(len(inv)))
        renumbered = natural.matrix[inv][:, inv].tocsr()
        renumbered.sort_indices()
        # The CSC form of the symmetric renumbered matrix on its CSR arrays.
        assert factored.format == "csc"
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(factored, name), getattr(renumbered, name))
        scale = np.abs(first.solution).max()
        assert_allclose(second.solution, first.solution, rtol=0, atol=1e-10 * scale)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_assemble_keeps_the_pattern_numbering_after_a_solve(self, kind):
        dofmap = build_dofmap(refine(make_structured(2)), kind)
        mat = MaterialParams(iota=1e-2)
        solve(assemble(dofmap, mat, constant_load))
        system = assemble(dofmap, mat, constant_load)
        assert system.retained is dofmap.pattern.retained
        expected = stiffness_matrix(dofmap, mat)[0]
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(system.matrix, name), getattr(expected, name))

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_stiffness_and_coercivity_keep_the_natural_numbering(self, kind):
        mesh = refine(make_structured(2))
        solved, fresh = build_dofmap(mesh, kind), build_dofmap(mesh, kind)
        mat = MaterialParams(iota=1e-2)
        solve(assemble(solved, mat, constant_load))
        got, expected = stiffness_matrix(solved, mat), stiffness_matrix(fresh, mat)
        assert got[1] == expected[1]
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got[0], name), getattr(expected[0], name))
        materials = [mat, MaterialParams(iota=1.0)]
        assert np.array_equal(
            coercivity_check(solved, materials, 4, seed=5),
            coercivity_check(fresh, materials, 4, seed=5),
        )

    def test_a_system_numbered_otherwise_leaves_no_order(self):
        """A permuted system on a fresh dof map computes its own order and
        leaves none: the first assembled system still computes one."""
        dofmap = build_dofmap(make_structured(2), "ntw")
        system = assemble(dofmap, MaterialParams(iota=0.5), constant_load)
        perm = np.random.default_rng(7).permutation(system.matrix.shape[0])
        permuted = SparseSystem(
            matrix=system.matrix[perm][:, perm].tocsr(),
            rhs=system.rhs[perm],
            retained=system.retained[perm],
            n_total=system.n_total,
            dofmap=dofmap,
        )
        assert solve(permuted).ordering == "MMD_AT_PLUS_A"
        assert solve(system).ordering == "MMD_AT_PLUS_A"
        assert solve(system).ordering == "NATURAL"


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
            def splu(A, **options):
                return WrongLU(spla.splu(A, **options))

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
        assert report.ordering == "none"

    def test_residual_of_huge_system_does_not_overflow(self, ntw_system):
        """Matrix and load near 1e300: the squared norms of the residual
        check would overflow unless the vectors are scaled first."""
        huge = SparseSystem(
            matrix=1e300 * ntw_system.matrix,
            rhs=1e300 * ntw_system.rhs,
            retained=ntw_system.retained,
            n_total=ntw_system.n_total,
            dofmap=ntw_system.dofmap,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(huge)
        assert report.rel_residual <= 1e-8
        assert_allclose(report.solution, solve(ntw_system).solution, rtol=1e-12)

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
        # The dof map is solved, but the permuted system is not numbered as
        # its pattern, so it computes an order of its own.
        assert other.ordering == "MMD_AT_PLUS_A"
        scale = np.abs(base.solution).max()
        assert_allclose(other.solution, base.solution[perm], atol=1e-9 * scale)

    def test_expanded_solution_respects_boundary(self, ntw_system):
        report = solve(ntw_system)
        full = ntw_system.expand(report.solution)
        boundary = np.repeat(ntw_system.dofmap.boundary, 2)
        assert_allclose(full[boundary], 0.0)
        assert np.abs(full).max() > 0.0
