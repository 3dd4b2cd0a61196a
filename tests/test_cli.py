"""End-to-end checks for the command line interface."""

import csv
import warnings

import numpy as np
import pytest

from sgfem.analysis import convergence_study, local_coefficients
from sgfem.assembly import build_dofmap
from sgfem.cli import CSV_HEADER, CliError, _evaluate_at, build_parser, main
from sgfem.elements import ElementKind, build_basis
from sgfem.mesh import Mesh, element_geometry, make_structured

from element_reference import eval_all, to_bary


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
            ["solve", "--lambda", "1e308", "--mesh", "structured:2"],
            ["solve", "--mu", "1e308", "--mesh", "structured:2"],
            ["convergence", "--lambda", "1e308", "--mesh", "structured:2", "--levels", "1"],
            ["verify", "korn", "--seed", "-1"],
            ["convergence", "--out", "/no/such/dir/x.csv"],
        ],
    )
    def test_invalid_arguments_return_one(self, argv, capsys):
        rc = main(argv)
        capsys.readouterr()
        assert rc == 1

    def test_shared_parser_keeps_no_state(self, capsys):
        """The parser is built once per process.  A bad argv after a good
        one is still one error line with exit 1, and the good argv run
        again prints the same bytes."""
        good = ["solve", *SMALL, "--probe", "0.5,0.5;0.25,0.75"]
        rc, first, _ = run_cli(good, capsys)
        assert rc == 0 and first
        rc, out, err = run_cli(["solve", *SMALL, "--refine", "x"], capsys)
        assert (rc, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        outputs = [run_cli(good, capsys) for _ in range(2)]
        assert outputs == [(0, first, "")] * 2
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("flag", ["--lambda", "--mu"])
    def test_infinite_lame_constant_is_an_error_line(self, flag, capsys):
        rc, out, err = run_cli(["solve", flag, "inf", "--mesh", "structured:2"], capsys)
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize("flag", ["--lambda", "--mu"])
    def test_overflowing_lame_constant_is_one_error_line(self, flag, capsys):
        """Finite Lame constants that overflow the assembled forms."""
        rc, out, err = run_cli(["solve", flag, "1e308", "--mesh", "structured:2"], capsys)
        assert rc == 1
        assert out == ""
        assert err.startswith("error: assembled matrix has non-finite entries")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--lambda", "--mu"])
    def test_huge_lame_constant_solves_without_warnings(self, flag, capsys):
        """Loads near 1e300 pass the solver's residual check."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(["solve", flag, "1e300", "--mesh", "structured:2"], capsys)
        assert rc == 0
        assert err == ""
        assert out.splitlines()[-1].endswith("method=direct")

    def test_cracked_file_mesh_is_one_error_line(self, tmp_path, capsys):
        """structured:2 with the centre vertex doubled for the triangles of
        the lower-right cell: the mesh covers the unit square, but its two
        edges from the centre to the bottom and right sides are cracks."""
        base = make_structured(2)
        centre = int(np.flatnonzero(np.all(base.vertices == 0.5, axis=1))[0])
        centroids = base.vertices[base.triangles].mean(axis=1)
        cell = (centroids[:, 0] > 0.5) & (centroids[:, 1] < 0.5)
        assert cell.sum() == 2
        triangles = base.triangles.copy()
        triangles[cell] = np.where(triangles[cell] == centre, base.num_vertices, triangles[cell])
        path = tmp_path / "crack.txt"
        write_mesh(path, Mesh(np.vstack([base.vertices, [[0.5, 0.5]]]), triangles))
        rc, out, err = run_cli(["solve", "--element", "morley", "--mesh", f"file:{path}"], capsys)
        assert rc == 1
        assert out == ""
        assert err.startswith(f"error: {path}: boundary edge (")
        assert err.endswith(") is off the unit square's sides\n")
        assert err.count("\n") == 1

    def test_file_mesh_with_unused_vertex_names_it(self, tmp_path, capsys):
        base = make_structured(2)
        path = tmp_path / "unused.txt"
        write_mesh(path, Mesh(np.vstack([base.vertices, [[0.25, 0.5]]]), base.triangles))
        rc, out, err = run_cli(["solve", "--element", "morley", "--mesh", f"file:{path}"], capsys)
        assert rc == 1
        assert out == ""
        assert err == f"error: vertex {base.num_vertices} belongs to no triangle\n"


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

    def test_area_message_prints_a_plain_float(self, tmp_path, capsys):
        base = make_structured(2)
        path = tmp_path / "half.txt"
        write_mesh(path, Mesh(base.vertices * [0.5, 1.0], base.triangles))
        rc, _, err = run_cli(["solve", "--mesh", f"file:{path}"], capsys)
        assert rc == 1
        assert err == f"error: {path}: mesh must cover the unit square (area 0.5)\n"


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
            bary = to_bary(geom, p[None, :])
            if bary.min() >= -1e-9:
                corner = int(bary.argmax())
                if bary[0, corner] >= 1.0 - 1e-12:
                    out[row] = locals_[t][vertex_stride * corner]
                else:
                    basis = build_basis(kind, geom, dofmap.signs[t])
                    out[row] = locals_[t].T @ eval_all(basis, bary)[0][:, 0]
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
