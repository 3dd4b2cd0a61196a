"""No module-level import in ``src/sgfem`` goes unused.

An AST scan of each module: a name bound by a module-level ``import`` must
be read somewhere in the module, or be listed in ``__all__``.  Imports
marked ``# noqa: F401`` are exempt; they bind the names the benchmark
tracer wraps (``perfbench/tracing.py``), which the module itself may no
longer call.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sgfem"


def unused_imports(source: str) -> list:
    """Names bound by module-level imports of ``source`` that are never read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            text = "\n".join(lines[node.lineno - 1 : node.end_lineno])
            if "noqa: F401" in text or getattr(node, "module", None) == "__future__":
                continue
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - exported)


def test_scan_finds_unused_imports():
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "import numpy as np\n"
        "from .a import b, c\n"
        "__all__ = ['b']\n"
        "x = np.zeros(1)\n"
    )
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
