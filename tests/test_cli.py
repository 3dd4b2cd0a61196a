"""End-to-end checks for the command line interface."""

import csv

import numpy as np
import pytest

from sgfem.analysis import convergence_study
from sgfem.cli import CSV_HEADER, main
from sgfem.mesh import make_structured


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


SMALL = ["--element", "morley", "--mesh", "structured:2"]


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


class TestVerifyCommand:
    def test_korn_suite_reports_bound(self, capsys):
        rc, out, _ = run_cli(["verify", "korn"], capsys)
        assert rc == 0
        assert "0.292893" in out
        assert out.count("PASS") == 3
        assert "FAIL" not in out


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
