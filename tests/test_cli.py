"""End-to-end checks for the command line interface."""

import csv

import numpy as np
import pytest

from sgfem.analysis import convergence_study, local_coefficients
from sgfem.assembly import build_dofmap
from sgfem.cli import CSV_HEADER, CliError, _evaluate_at, main
from sgfem.elements import ElementKind, build_basis
from sgfem.mesh import Mesh, element_geometry, make_structured


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


SMALL = ["--element", "morley", "--mesh", "structured:2"]

VERIFY_ALL_LABELS = [
    "korn sampled minimum",
    "korn directed minimum",
    "korn extremal direction",
    "ntw duality",
    "specht duality",
    "morley duality",
    "specht edge constraints",
    "ntw affine identity",
    "coercivity ntw iota=1",
    "coercivity ntw iota=0.01",
    "coercivity ntw iota=1e-06",
    "coercivity specht iota=1",
    "coercivity specht iota=0.01",
    "coercivity specht iota=1e-06",
    "coercivity morley iota=1",
    "coercivity morley iota=0.01",
    "coercivity morley iota=1e-06",
    "jumps ntw",
    "jump detector ntw",
    "jumps specht",
    "jump detector specht",
    "jumps morley",
    "jump detector morley",
    "clamping smooth",
    "clamping layer iota=1",
    "clamping layer iota=1e-2",
    "clamping layer iota=1e-6",
    "source smooth iota=1",
    "source smooth iota=0.01",
    "source layer iota=1",
    "source layer iota=0.01",
]


class TestConvergenceCommand:
    def test_csv_header_and_rate_column(self, capsys):
        argv = ["convergence", *SMALL, "--iota", "0.5", "--levels", "2"]
        rc, out, _ = run_cli(argv, capsys)
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert lines[1].endswith(",")
        assert not lines[2].endswith(",")

    def test_single_level_has_empty_rate(self, capsys):
        argv = ["convergence", *SMALL, "--iota", "0.5", "--levels", "1"]
        rc, out, _ = run_cli(argv, capsys)
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[-1] == ""

    def test_csv_round_trip_matches_study(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        argv = [
            "convergence",
            *SMALL,
            "--example",
            "smooth",
            "--iota",
            "0.25,1.0",
            "--levels",
            "2",
            "--out",
            str(path),
        ]
        rc, out, _ = run_cli(argv, capsys)
        assert rc == 0
        assert out == ""
        reports = convergence_study(
            "morley", "smooth", [0.25, 1.0], 2, make_structured(2)
        )
        with open(path) as fh:
            parsed = list(csv.DictReader(fh))
        flat = [(rep, row) for rep in reports for row in rep.rows]
        assert len(parsed) == len(flat)
        for rec, (rep, row) in zip(parsed, flat):
            assert rec["element"] == "morley"
            assert rec["example"] == "smooth"
            assert float(rec["iota"]) == rep.iota
            assert int(rec["level"]) == row.level
            assert float(rec["h"]) == row.h
            assert int(rec["dofs"]) == row.dofs
            assert float(rec["energy_err"]) == row.energy_err
            assert float(rec["rel_energy_err"]) == row.rel_energy_err
            if row.rate is None:
                assert rec["rate"] == ""
            else:
                assert float(rec["rate"]) == row.rate

    def test_stdout_matches_file_output(self, tmp_path, capsys):
        argv = ["convergence", *SMALL, "--iota", "0.5", "--levels", "1"]
        rc, out, _ = run_cli(argv, capsys)
        assert rc == 0
        path = tmp_path / "again.csv"
        assert main(argv + ["--out", str(path)]) == 0
        assert path.read_text() == out

    def test_markdown_grid(self, capsys):
        argv = [
            "convergence",
            *SMALL,
            "--iota",
            "1.0,0.01",
            "--levels",
            "2",
            "--format",
            "markdown",
        ]
        rc, out, _ = run_cli(argv, capsys)
        assert rc == 0
        assert "| 1e+00 | rel_err |" in out
        assert "| 1e-02 | rate |" in out
        header = next(line for line in out.splitlines() if line.startswith("| iota |"))
        assert header.count("h=") == 2


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["convergence", "--element", "cubic"],
            ["convergence", "--iota", "2.0"],
            ["convergence", "--iota", "0"],
            ["convergence", "--iota", "spam"],
            ["convergence", "--levels", "0"],
            ["convergence", "--mesh", "hex:3"],
            ["convergence", "--mesh", "structured:0"],
            ["convergence", "--mesh", "file:/no/such/mesh.txt"],
            ["convergence", "--lambda", "-1"],
            ["convergence", "--mu", "0"],
            ["verify", "nosuite"],
            ["solve", "--probe", "2,0.5"],
            ["solve", "--probe", "0.5"],
            ["solve", "--probe", ";"],
            ["solve", "--iota", "1e-2,1e-3"],
            [],
            ["solve", "--refine", "-1"],
            ["solve", "--iota", "1.5"],
        ],
    )
    def test_invalid_arguments_return_one(self, argv, capsys):
        rc = main(argv)
        capsys.readouterr()
        assert rc == 1


def write_mesh(path, mesh):
    lines = [f"{mesh.num_vertices} {mesh.num_triangles}"]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in mesh.vertices]
    lines += [" ".join(map(str, tri)) for tri in mesh.triangles]
    path.write_text("\n".join(lines) + "\n")


class TestFileMeshes:
    def test_unit_square_mesh_accepted(self, tmp_path, capsys):
        path = tmp_path / "square.txt"
        write_mesh(path, make_structured(2))
        argv = ["convergence", "--element", "morley", "--mesh", f"file:{path}"]
        rc, out, _ = run_cli(argv + ["--iota", "0.5", "--levels", "1"], capsys)
        assert rc == 0
        assert len(out.strip().splitlines()) == 2

    @pytest.mark.parametrize(
        "scale, message",
        [((2.0, 1.0), "unit square"), ((0.5, 1.0), "cover the unit square")],
    )
    def test_other_domains_rejected(self, tmp_path, capsys, scale, message):
        base = make_structured(2)
        path = tmp_path / "domain.txt"
        write_mesh(path, Mesh(base.vertices * scale, base.triangles))
        argv = ["solve", "--element", "ntw", "--mesh", f"file:{path}"]
        rc, _, err = run_cli(argv, capsys)
        assert rc == 1
        assert message in err


class TestVerifyCommand:
    def test_korn_suite_reports_bound(self, capsys):
        rc, out, _ = run_cli(["verify", "korn"], capsys)
        assert rc == 0
        assert "0.292893" in out
        assert out.count("PASS") == 3
        assert "FAIL" not in out


    def test_all_suites_print_every_check(self, capsys):
        """`verify all` prints one PASS line per check, in this order; the
        benchmark counts 31 of them."""
        rc, out, _ = run_cli(["verify", "all", "--seed", "0"], capsys)
        assert rc == 0
        labels = [line.split(":", 1)[0] for line in out.splitlines()]
        assert labels == [f"PASS {label}" for label in VERIFY_ALL_LABELS]


class TestSolveCommand:
    def test_boundary_vertex_probes_are_exact_zero(self, capsys):
        argv = [
            "solve",
            "--element",
            "specht",
            "--mesh",
            "structured:2",
            "--iota",
            "0.5",
            "--probe",
            "0.5,0;0,0;1,0.5",
        ]
        rc, out, _ = run_cli(argv, capsys)
        assert rc == 0
        lines = out.splitlines()
        for line in lines[:3]:
            assert "(0.00000000e+00, 0.00000000e+00)" in line
        assert "energy_err=" in lines[-1]

    def test_center_probe_tracks_exact_value(self, capsys):
        argv = [
            "solve",
            "--element",
            "ntw",
            "--mesh",
            "structured:8",
            "--refine",
            "1",
            "--iota",
            "0.01",
            "--probe",
            "0.5,0.5",
        ]
        rc, out, _ = run_cli(argv, capsys)
        assert rc == 0
        value = float(out.splitlines()[0].split("(")[2].split(",")[0])
        target = (np.exp(-1.0) - np.e) ** 2
        assert value == pytest.approx(target, rel=2e-3)


def reference_evaluate_at(mesh, kind, full_dofs, pts):
    """The per-triangle scan the probe search replaced: the first triangle
    by index whose barycentric coordinates are all >= -1e-9."""
    kind = ElementKind(kind)
    dofmap = build_dofmap(mesh, kind)
    locals_ = local_coefficients(dofmap, full_dofs)
    vertex_stride = 3 if kind is ElementKind.SPECHT else 1
    out = np.empty_like(pts)
    for row, p in enumerate(pts):
        for t in range(mesh.num_triangles):
            geom = element_geometry(mesh, t)
            bary = geom.to_bary(p[None, :])
            if bary.min() >= -1e-9:
                corner = int(bary.argmax())
                if bary[0, corner] >= 1.0 - 1e-12:
                    out[row] = locals_[t][vertex_stride * corner]
                else:
                    basis = build_basis(kind, geom, dofmap.signs[t])
                    out[row] = locals_[t].T @ basis.values(bary)[:, 0]
                break
        else:
            raise AssertionError("probe outside the mesh")
    return out


@pytest.mark.parametrize("kind", ["ntw", "specht", "morley"])
def test_probe_search_matches_per_triangle_scan(kind):
    base = make_structured(3)
    rng = np.random.default_rng(8)
    jitter = rng.uniform(-0.05, 0.05, size=base.vertices.shape)
    jitter[base.vertex_is_boundary] = 0.0
    mesh = Mesh(base.vertices + jitter, base.triangles)
    dofmap = build_dofmap(mesh, kind)
    full = rng.normal(size=dofmap.n_vector)
    midpoints = mesh.vertices[mesh.edge_vertices].mean(axis=1)
    pts = np.vstack([mesh.vertices, midpoints, rng.uniform(0.0, 1.0, size=(20, 2))])
    expected = reference_evaluate_at(mesh, kind, full, pts)
    assert np.array_equal(_evaluate_at(dofmap, full, pts), expected)
    with pytest.raises(CliError, match="not inside the mesh"):
        _evaluate_at(dofmap, full, np.array([[0.5, 0.5], [1.5, 0.5]]))
