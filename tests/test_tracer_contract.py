"""The benchmark tracer still finds every attribute it wraps.

``perfbench/tracing.py`` replaces module attributes of ``sgfem`` (for
example ``sgfem.cli.assemble`` and ``sgfem.solver.spla``) while a traced
command runs.  A renamed or deleted attribute breaks traced benchmark runs
only, so this test runs one small solve under the tracer.
"""

from pathlib import Path

import sgfem.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_solve_records_layer_spans(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    argv = ["solve", "--element", "morley", "--mesh", "structured:2", "--iota", "0.5"]
    with tracer.patched():
        rc = tracer.call(0, sgfem.cli.main, argv)
    capsys.readouterr()
    assert rc == 0
    names = {span[0] for span in tracer.spans}
    assert {"assembly.assemble", "solver.factor", "analysis.energy_error"} <= names
