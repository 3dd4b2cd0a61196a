"""The benchmark tracer still finds every attribute it wraps.

``perfbench/tracing.py`` replaces module attributes of ``sgfem`` (for
example ``sgfem.cli.assemble`` and ``sgfem.solver.spla``) while a traced
command runs.  A renamed or deleted attribute breaks traced benchmark runs
only, so these tests run small commands under the tracer.  The spans also
show whether a per-element loop came back into assembly, the energy error
or the element checks.
"""

from pathlib import Path

import pytest

import sgfem.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def traced_spans(monkeypatch, capsys, argv):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    with tracer.patched():
        rc = tracer.call(0, sgfem.cli.main, argv)
    capsys.readouterr()
    assert rc == 0
    return tracer.spans


def test_traced_solve_records_layer_spans(monkeypatch, capsys):
    argv = ["solve", "--element", "morley", "--mesh", "structured:2", "--iota", "0.5"]
    names = {span[0] for span in traced_spans(monkeypatch, capsys, argv)}
    assert {"assembly.assemble", "solver.factor", "analysis.energy_error"} <= names


@pytest.mark.parametrize("kind", ["ntw", "specht", "morley"])
def test_study_runs_no_per_element_loops(monkeypatch, capsys, kind):
    """Assembly and the energy error work on all triangles at once: one
    call of the load function per assembly, and no basis built per element
    under either of them."""
    argv = ["convergence", "--element", kind, "--mesh", "structured:2", "--levels", "2"]
    argv += ["--iota", "1e-2"]
    spans = traced_spans(monkeypatch, capsys, argv)
    names = [span[0] for span in spans]
    assert names.count("assembly.assemble") == 2
    assert names.count("manufactured.source") == names.count("assembly.assemble")
    for name, _, _, parent, _ in spans:
        if name != "elements.basis":
            continue
        while parent >= 0:
            assert spans[parent][0] not in {"assembly.assemble", "analysis.energy_error"}
            parent = spans[parent][3]


def test_element_checks_run_as_batches(monkeypatch, capsys):
    """The elements suite checks all its random triangles in one batch per
    check: a handful of ``elements.checks`` spans, so the per-layer
    ``elements.checks_s`` metric still sees them, and no basis built per
    triangle."""
    spans = traced_spans(monkeypatch, capsys, ["verify", "elements", "--seed", "0"])
    names = [span[0] for span in spans]
    assert 1 <= names.count("elements.checks") <= 5
    assert "elements.basis" not in names


def test_study_builds_one_dofmap_per_mesh(monkeypatch, capsys):
    """The geometry and shapes of a mesh are built once and shared by every
    iota's assembly and energy error."""
    argv = ["convergence", "--mesh", "structured:2", "--levels", "2", "--iota", "1,1e-2"]
    names = [span[0] for span in traced_spans(monkeypatch, capsys, argv)]
    assert names.count("assembly.dofmap") == 2


def test_probed_solve_builds_one_dofmap(monkeypatch, capsys):
    """Assembly, the probes and the energy error of one solve share one
    dof map; the probes build no per-element geometry or basis."""
    argv = ["solve", "--element", "specht", "--mesh", "structured:2"]
    argv += ["--probe", "0.3,0.4;0.5,0.5"]
    names = [span[0] for span in traced_spans(monkeypatch, capsys, argv)]
    assert names.count("assembly.dofmap") == 1
    assert "elements.basis" not in names
    assert "mesh.geometry" not in names


@pytest.mark.parametrize("suite", ["coercivity", "jumps"])
def test_verify_suites_build_one_dofmap_per_family(monkeypatch, capsys, suite):
    spans = traced_spans(monkeypatch, capsys, ["verify", suite, "--seed", "0"])
    assert [span[0] for span in spans].count("assembly.dofmap") == 3
