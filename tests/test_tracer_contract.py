"""The benchmark tracer still finds every attribute it wraps.

``perfbench/tracing.py`` replaces module attributes of ``sgfem`` (for
example ``sgfem.cli.assemble`` and ``sgfem.solver.spla``) while a traced
command runs.  A renamed or deleted attribute breaks traced benchmark runs
only, so these tests run small commands under the tracer.  The spans also
show whether a per-element loop came back into assembly or the energy
error.
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
