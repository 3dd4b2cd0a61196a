"""Tests for error measurement, rate extraction and inequality checks."""

import weakref

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgfem.analysis
import sgfem.assembly
from sgfem.analysis import (
    KORN_BOUND,
    _from_six,
    coercivity_check,
    convergence_study,
    edge_mean_jumps,
    energy_error,
    jump_check,
    korn_ratio,
    korn_ratio_min,
    local_coefficients,
    mesh_diameter,
    rates_from_errors,
)
from sgfem.assembly import MaterialParams, build_dofmap
from sgfem.elements import ElementKind, edge_normal_moments
from sgfem.manufactured import example_smooth
from sgfem.mesh import Mesh, make_structured, refine

from element_reference import class_count, interpolate_field
from random_meshes import jittered_mesh

ALL_KINDS = [ElementKind.NTW, ElementKind.SPECHT, ElementKind.MORLEY]

# Hypothesis seed of the jump check property test.  Derandomized examples
# are seeded from a test's source text; a fixed seed keeps the test on the
# same examples when its body is edited.
JUMP_CHECK_SEED = int(
    "3c1f0e5b9d7a26c48e0f51b3a7d9c2e64b8a1f0d3c5e7b92"
    "a4d6f8e0c2b41a3957e6d8c0b2f4a6e8d0c2b4f6a8e0d2c4",
    16,
)


def reference_edge_mean_jumps(dofmap, local_coeffs):
    """Edge jumps with the class edge moments and the edge sides rebuilt
    on every call, as :func:`jump_check` read them before it built them
    once per check."""
    mesh, geom = dofmap.mesh, dofmap.class_geom
    moments = edge_normal_moments(dofmap.class_coeffs, geom, geom.normals)
    outward = moments[dofmap.classes].swapaxes(1, 2) @ local_coeffs
    means = mesh.tri_edge_signs[:, :, None] * outward
    own = np.arange(mesh.num_triangles)[:, None]
    side = (mesh.edge_tris[mesh.tri_edges, 1] == own).astype(np.int64)
    by_edge = np.zeros((mesh.num_edges, 2, 2))
    by_edge[mesh.tri_edges, side] = means
    interior = by_edge[~mesh.edge_is_boundary]
    scale = float(np.abs(interior).max(initial=0.0))
    return interior[:, 0] - interior[:, 1], scale


def reference_jump_check(dofmap, n_trials, seed=0, corrupt=False):
    """The per-trial loop of :func:`jump_check` on
    :func:`reference_edge_mean_jumps`, drawing the same random stream."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        full = rng.normal(size=dofmap.n_vector)
        coeffs = local_coefficients(dofmap, full)
        if corrupt:
            t = int(rng.integers(dofmap.mesh.num_triangles))
            coeffs[t] += rng.normal(size=coeffs[t].shape)
        jumps, scale = reference_edge_mean_jumps(dofmap, coeffs)
        worst = max(worst, np.abs(jumps).max(initial=0.0) / max(scale, 1.0))
    return float(worst)


class LinearField:
    """A linear displacement, which every family reproduces; its
    ``derivative_rows`` are those of ``ManufacturedField``: d_x, d_y,
    d_xx, d_xy and d_yy of each component over the points."""

    mat = MaterialParams(iota=0.5)
    slopes = np.array([[0.3, -1.2], [-0.7, 0.4]])

    def displacement(self, xy):
        return xy @ self.slopes.T + [0.5, 0.0]

    def derivative_rows(self, xy):
        rows = np.zeros((2, 5, len(xy)))
        rows[:, :2] = self.slopes[:, :, None]
        return rows

    def gradient(self, xy):
        return np.broadcast_to(self.slopes, (len(xy), 2, 2)).copy()


class ZeroField(LinearField):
    """The zero displacement, whose energy norm is 0."""

    slopes = np.zeros((2, 2))


class TestEnergyError:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_interpolated_linear_field_is_exact(self, kind):
        """A linear displacement is reproduced, so the error must vanish."""
        dofmap = build_dofmap(make_structured(3), kind)
        field = LinearField()
        full = interpolate_field(dofmap, field.displacement, field.gradient)
        absolute, _ = energy_error(dofmap, full, field)
        assert absolute <= 1e-11

    def test_reads_the_exact_field_once(self):
        """One ``derivative_rows`` read gives both the gradient and the
        Hessian of the exact field at the quadrature points."""
        calls = []

        class CountingField(LinearField):
            def derivative_rows(self, xy):
                calls.append("derivative_rows")
                return super().derivative_rows(xy)

            def gradient(self, xy):
                calls.append("gradient")
                return super().gradient(xy)

        dofmap = build_dofmap(make_structured(2), "ntw")
        _, relative = energy_error(dofmap, np.zeros(dofmap.n_vector), CountingField())
        assert calls == ["derivative_rows"]
        assert relative == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_norm_field_is_rejected(self, kind):
        """A relative error against an exact field of norm 0 or of a norm
        that is not finite is undefined: it raises, with no warning."""
        dofmap = build_dofmap(make_structured(2), kind)
        nonzero = np.random.default_rng(3).normal(size=dofmap.n_vector)
        for full in (np.zeros(dofmap.n_vector), nonzero):
            with pytest.raises(ValueError, match="energy norm"):
                energy_error(dofmap, full, ZeroField())

        class NanField(LinearField):
            slopes = np.array([[np.nan, 0.0], [0.0, 1.0]])

        with pytest.raises(ValueError, match="energy norm"):
            energy_error(dofmap, nonzero, NanField())

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_solution_has_relative_error_one(self, kind):
        mesh = make_structured(2)
        field = example_smooth(MaterialParams(iota=0.5))
        dofmap = build_dofmap(mesh, kind)
        absolute, relative = energy_error(dofmap, np.zeros(dofmap.n_vector), field)
        assert absolute > 0.0
        assert relative == pytest.approx(1.0, rel=1e-14)

    def test_rejects_wrong_size(self):
        mesh = make_structured(2)
        field = example_smooth()
        with pytest.raises(ValueError):
            energy_error(build_dofmap(mesh, "ntw"), np.zeros(7), field)


class TestRates:
    def test_synthetic_geometric_sequence(self):
        alpha = 1.7320508
        errors = [3.4 * 2.0 ** (-alpha * l) for l in range(5)]
        rates = rates_from_errors(errors)
        assert rates[0] is None
        for r in rates[1:]:
            assert r == pytest.approx(alpha, abs=1e-12)

    def test_mesh_diameter(self):
        assert mesh_diameter(make_structured(4)) == pytest.approx(np.sqrt(2.0) / 4.0)


class TestConvergenceStudy:
    def test_ntw_smooth_small_iota_rates(self):
        """Second-order convergence must show by the third refinement."""
        reports = convergence_study(
            "ntw", "smooth", [1e-6], levels=3, base_mesh=make_structured(8)
        )
        assert len(reports) == 1
        report = reports[0]
        assert report.kind == "ntw" and report.iota == 1e-6
        assert [row.level for row in report.rows] == [0, 1, 2]
        assert report.rows[0].rate is None
        assert report.rows[1].dofs > report.rows[0].dofs
        errs = [row.rel_energy_err for row in report.rows]
        assert errs[0] > errs[1] > errs[2]
        assert 1.8 <= report.rows[-1].rate <= 2.2

    def test_unknown_example_rejected(self):
        with pytest.raises(ValueError):
            convergence_study("ntw", "bogus", [1.0], 2, make_structured(2))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_element_forms_computed_once_per_level(self, kind, monkeypatch):
        """Every iota of a level reuses the level's two forms, computed
        once on one triangle per translation class."""
        original = sgfem.assembly.element_forms
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return original(*args)

        monkeypatch.setattr(sgfem.assembly, "element_forms", counted)
        iotas = [1.0, 1e-2, 1e-4, 1e-6]
        reports = convergence_study(kind, "layer", iotas, 3, make_structured(2))
        assert [len(report.rows) for report in reports] == [3] * 4
        meshes = [make_structured(2)]
        for _ in range(2):
            meshes.append(refine(meshes[-1]))
        assert calls == [class_count(mesh) for mesh in meshes] == [2, 13, 18]


    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_each_level_is_released_before_the_next(self, kind, monkeypatch):
        """The previous level's dof map, and with it its pattern, forms,
        points and load caches, is gone when the next one is built."""
        original = sgfem.analysis.build_dofmap
        built = []

        def tracked(*args):
            assert all(ref() is None for ref in built)
            dofmap = original(*args)
            built.append(weakref.ref(dofmap))
            return dofmap

        monkeypatch.setattr(sgfem.analysis, "build_dofmap", tracked)
        reports = convergence_study(kind, "layer", [1.0, 1e-4], 3, make_structured(2))
        assert [len(report.rows) for report in reports] == [3, 3]
        assert len(built) == 3
        assert all(ref() is None for ref in built)


class TestKorn:
    def test_pure_stretch_ratio_is_one(self):
        D = np.zeros((2, 2, 2))
        D[0, 0, 0] = 3.0
        assert korn_ratio(D) == pytest.approx(1.0, rel=1e-14)

    def test_scalar_reduction_pair(self):
        """Only the mixed pair (D112, D211) = (a, b) active: the ratio is
        (a^2 + (a+b)^2/2) / (a^2 + b^2)."""
        a, b = 1.0, -1.0
        D = np.zeros((2, 2, 2))
        D[0, 0, 1] = D[0, 1, 0] = a
        D[1, 0, 0] = b
        assert korn_ratio(D) == pytest.approx(0.5, rel=1e-14)
        assert korn_ratio(D) >= KORN_BOUND

    def test_extremal_pair_hits_bound(self):
        a = 1.0
        b = -(1.0 + np.sqrt(2.0)) * a
        D = np.zeros((2, 2, 2))
        D[0, 0, 1] = D[0, 1, 0] = a
        D[1, 0, 0] = b
        assert abs(korn_ratio(D) - KORN_BOUND) <= 1e-10

    def test_quadratic_form_eigenvalue(self):
        """The pair reduction is the 2x2 form [[3/2, 1/2], [1/2, 1/2]];
        its smallest eigenvalue is the bound."""
        M = np.array([[1.5, 0.5], [0.5, 0.5]])
        assert np.linalg.eigvalsh(M)[0] == pytest.approx(KORN_BOUND, rel=1e-14)

    def test_sampled_minimum_in_window(self):
        search = korn_ratio_min(10000, seed=1)
        assert KORN_BOUND - 1e-12 <= search.min_sampled <= KORN_BOUND + 0.05
        assert KORN_BOUND - 1e-12 <= search.min_directed <= search.min_sampled
        assert search.min_directed <= KORN_BOUND + 1e-6

    def test_batch_evaluation(self):
        rng = np.random.default_rng(5)
        D = rng.normal(size=(64, 2, 2, 2))
        D = 0.5 * (D + np.swapaxes(D, -1, -2))
        ratios = korn_ratio(D)
        assert ratios.shape == (64,)
        assert np.all(ratios >= KORN_BOUND - 1e-12)
        # The complementary eigenvalue caps the ratio at 1 + 1/sqrt(2).
        assert np.all(ratios <= 1.0 + 1.0 / np.sqrt(2.0) + 1e-12)

    def test_rejects_empty_search(self):
        with pytest.raises(ValueError):
            korn_ratio_min(0)

    @pytest.mark.parametrize("n_samples, seed", [(1, 0), (7, 3), (10000, 0), (10000, 2026)])
    def test_sampled_minimum_matches_third_derivative_arrays(self, n_samples, seed):
        """The quadratic forms give the minimum of :func:`korn_ratio` on the
        same draws, to rounding."""
        params = np.random.default_rng(seed).normal(size=(n_samples, 6))
        expected = korn_ratio(_from_six(params)).min()
        sampled = korn_ratio_min(n_samples, seed=seed).min_sampled
        assert abs(sampled - expected) <= 1e-15 * expected


class TestCoercivity:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_random_fields_respect_bound(self, kind):
        mesh = make_structured(4)
        mat = MaterialParams(lam=10.0, mu=1.0, iota=1e-2)
        (worst,) = coercivity_check(build_dofmap(mesh, kind), [mat], n_trials=50, seed=3)
        assert worst >= 1.0 - 1e-9

    def test_rejects_zero_trials(self):
        dofmap = build_dofmap(make_structured(2), "ntw")
        with pytest.raises(ValueError, match="n_trials"):
            coercivity_check(dofmap, [MaterialParams()], n_trials=0)

    def test_lambda_zero_still_coercive(self):
        mesh = make_structured(4)
        mat = MaterialParams(lam=0.0, mu=1.0, iota=0.5)
        dofmap = build_dofmap(mesh, "ntw")
        assert coercivity_check(dofmap, [mat], n_trials=20, seed=7)[0] >= 1.0 - 1e-9


class TestJumps:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_conforming_fields_have_no_mean_jump(self, kind):
        mesh = make_structured(2)
        assert jump_check(build_dofmap(mesh, kind), n_trials=5, seed=11) <= 1e-10

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_corrupted_field_detected(self, kind):
        mesh = make_structured(2)
        dofmap = build_dofmap(mesh, kind)
        assert jump_check(dofmap, n_trials=3, seed=13, corrupt=True) > 1e-6

    def test_rejects_zero_trials(self):
        dofmap = build_dofmap(make_structured(2), "ntw")
        with pytest.raises(ValueError, match="n_trials"):
            jump_check(dofmap, n_trials=0)

    @pytest.mark.parametrize("corrupt", [False, True])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_mesh_without_interior_edge_has_no_jump(self, kind, corrupt):
        mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))
        dofmap = build_dofmap(mesh, kind)
        jumps, scale = edge_mean_jumps(dofmap, local_coefficients(dofmap, np.ones(dofmap.n_vector)))
        assert jumps.shape == (0, 2) and scale == 0.0
        assert jump_check(dofmap, n_trials=2, seed=3, corrupt=corrupt) == 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_moments_built_once_per_check(self, kind, monkeypatch):
        """One class moment build per check; every trial still calls
        ``edge_mean_jumps`` through the module attribute."""
        counts = {"moments": 0, "jumps": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            sgfem.analysis,
            "edge_normal_moments",
            counted("moments", sgfem.analysis.edge_normal_moments),
        )
        monkeypatch.setattr(
            sgfem.analysis, "edge_mean_jumps", counted("jumps", sgfem.analysis.edge_mean_jumps)
        )
        jump_check(build_dofmap(make_structured(2), kind), n_trials=4, seed=1)
        assert counts == {"moments": 1, "jumps": 4}

    def test_jump_table_shape(self):
        mesh = make_structured(2)
        dofmap = build_dofmap(mesh, "morley")
        rng = np.random.default_rng(17)
        coeffs = local_coefficients(dofmap, rng.normal(size=dofmap.n_vector))
        jumps, scale = edge_mean_jumps(dofmap, coeffs)
        n_interior = int((~mesh.edge_is_boundary).sum())
        assert jumps.shape == (n_interior, 2)
        assert scale > 0.0


@hypothesis.seed(JUMP_CHECK_SEED)
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    n=st.integers(1, 4),
    amplitude=st.sampled_from([0.0, 0.3, 0.9]),
    mesh_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
    n_trials=st.integers(1, 5),
    corrupt=st.booleans(),
)
def test_jump_check_matches_per_trial_reference(
    kind, n, amplitude, mesh_seed, seed, n_trials, corrupt
):
    """Built once per check, the moments and edge sides give the bits of
    rebuilding them on every trial, on structured (amplitude 0) and
    jittered meshes."""
    mesh = jittered_mesh(n, amplitude, 1.0, mesh_seed) if amplitude else make_structured(n)
    dofmap = build_dofmap(mesh, kind)
    expected = reference_jump_check(dofmap, n_trials, seed, corrupt)
    assert jump_check(dofmap, n_trials, seed, corrupt) == expected
