"""No module-level import in ``src/sgfem`` goes unused, reaches into
another module's private names, or costs every command a module it never
calls; every name a module exports in ``__all__`` exists, and is read
somewhere in ``src/sgfem`` rather than only by the tests.

An AST scan of each module: a name bound by a module-level ``import`` must
be read somewhere in the module, or be listed in ``__all__``.  Imports
marked ``# noqa: F401`` are exempt; they bind the names the benchmark
tracer wraps (``perfbench/tracing.py``), which the module itself may no
longer call, so each of them must bind a name that the tracer patches on
that module.  A module takes only public names from the other ``sgfem``
modules, so that each helper has one owner: for example, the
degree-of-freedom functionals are reached through ``elements.apply_dofs``
and ``elements.edge_normal_moments`` only.
"""

import ast
import functools
import importlib
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sgfem"


def module_imports(source: str):
    """(names, exempt) of each module-level import of ``source``: the names
    it binds and whether it is marked ``# noqa: F401``."""
    lines = source.splitlines()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            text = "\n".join(lines[node.lineno - 1 : node.end_lineno])
            names = {alias.asname or alias.name.split(".")[0] for alias in node.names}
            yield names, "noqa: F401" in text


def unused_imports(source: str) -> list:
    """Names bound by module-level imports of ``source`` that are never read."""
    tree = ast.parse(source)
    imported = set().union(*(names for names, exempt in module_imports(source) if not exempt))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - exports(tree))


def exports(tree) -> set:
    """The names of the module-level ``__all__`` assignments of ``tree``."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return exported


def private_imports(source: str) -> list:
    """Underscore-prefixed names that ``source`` imports from a sibling
    module (``from .x import _y``) or from ``sgfem`` by absolute path."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "sgfem":
            continue
        found += [alias.name for alias in node.names if alias.name.startswith("_")]
    return sorted(found)


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


def stale_exemptions(source: str, module: str, traced: set) -> list:
    """Names bound by ``# noqa: F401`` imports of ``source`` that the tracer
    does not patch on ``module``; ``traced`` holds (module, name) pairs."""
    exempt = set().union(*(names for names, noqa in module_imports(source) if noqa))
    return sorted(name for name in exempt if (module, name) not in traced)


@functools.cache
def traced_attributes() -> set:
    """(owner name, attribute) of every point ``perfbench/tracing.py``
    patches, read off its patch list without installing it."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(owner.__name__, name) for owner, name, _ in tracing.Tracer()._patch_points()}


def test_scan_finds_stale_exemptions():
    source = (
        "from .elements import build_basis  # noqa: F401\n"
        "from .mesh import element_geometry, refine  # noqa: F401\n"
        "from .solver import solve\n"
    )
    traced = {("sgfem.x", "build_basis"), ("sgfem.x", "refine"), ("sgfem.y", "element_geometry")}
    assert stale_exemptions(source, "sgfem.x", traced) == ["element_geometry"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_exempt_imports_bind_traced_names(path):
    name = "sgfem" if path.stem == "__init__" else f"sgfem.{path.stem}"
    assert stale_exemptions(path.read_text(), name, traced_attributes()) == []


def test_scan_finds_private_imports():
    source = (
        "from __future__ import annotations\n"
        "from collections import _sentinel\n"
        "from .elements import DOF_TABLES, _edge_moments\n"
        "from . import _private_module\n"
        "from sgfem.mesh import _TAIL as tail\n"
        "def f():\n"
        "    from .quadrature import _gauss\n"
    )
    assert private_imports(source) == ["_TAIL", "_edge_moments", "_gauss", "_private_module"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path.read_text()) == []


def unresolved_exports(module) -> list:
    """Names listed in ``module.__all__`` that the module does not bind."""
    return sorted(name for name in getattr(module, "__all__", ()) if not hasattr(module, name))


def test_scan_finds_unresolved_exports():
    stale = types.ModuleType("stale")
    exec("__all__ = ['kept', 'EDGE_TABLES']\nkept = 1\n", stale.__dict__)
    assert unresolved_exports(stale) == ["EDGE_TABLES"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_export_resolves(path):
    name = "sgfem" if path.stem == "__init__" else f"sgfem.{path.stem}"
    assert unresolved_exports(importlib.import_module(name)) == []


def unreferenced_api(sources: dict, patched: set, exempt=()) -> list:
    """``module.name`` for every name a module of ``sources`` exports in
    ``__all__``, and ``module.Class.name`` for every public method or
    property of an exported class, that no module of ``sources`` reads
    outside the name's own definition and that is not in ``patched``.

    ``sources`` maps module names to source text; the exports of the
    modules in ``exempt`` are not checked, though their reads count.
    Reads are matched by name (``name`` or ``x.name``), not by type.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [
        (module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]
    # (label, module, name, definition node) of every name to check.
    checked = []
    for module, tree in trees.items():
        exported = set() if module in exempt else exports(tree)
        for node in tree.body:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names = [getattr(node, "name", None)] + [getattr(t, "id", None) for t in targets]
            for name in exported.intersection(names):
                checked.append((f"{module}.{name}", module, name, node))
            if isinstance(node, ast.ClassDef) and node.name in exported:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        label = f"{module}.{node.name}.{item.name}"
                        checked.append((label, module, item.name, item))
    return sorted(
        label
        for label, module, name, node in checked
        if name not in patched
        and not any(
            read == name and (where != module or not node.lineno <= line <= node.end_lineno)
            for where, line, read in reads
        )
    )


def test_scan_finds_test_only_api():
    sources = {
        "sgfem.a": (
            "__all__ = ['Box', 'LIMIT', 'used', 'stale', 'traced']\n"
            "LIMIT = 3\n"
            "class Box:\n"
            "    def read(self):\n"
            "        return LIMIT\n"
            "    def stale_method(self):\n"
            "        return self.stale_method()\n"
            "    def _private(self):\n"
            "        return 0\n"
            "def used():\n"
            "    return Box().read()\n"
            "def stale():\n"
            "    return stale()\n"
            "def traced():\n"
            "    return 1\n"
        ),
        "sgfem.b": "from .a import used\nused()\n",
    }
    assert unreferenced_api(sources, {"traced"}) == ["sgfem.a.Box.stale_method", "sgfem.a.stale"]
    assert unreferenced_api(sources, {"traced"}, exempt={"sgfem.a"}) == []


def test_every_export_is_read_in_src():
    """Public API that only the tests read belongs in the tests.  The
    benchmark tracer's patch points are kept for the tracer, and
    ``verify.py`` holds the random inputs and oracles that the ``verify``
    suites share with the tests."""
    sources = {f"sgfem.{path.stem}": path.read_text() for path in sorted(SRC.glob("*.py"))}
    patched = {name for _, name in traced_attributes()}
    assert unreferenced_api(sources, patched, exempt={"sgfem.verify"}) == []


def test_cli_import_leaves_out_scipy_optimize():
    """``scipy.optimize`` adds about 0.3 s to the import of every command."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = "import sys, sgfem.cli; print('scipy.optimize' in sys.modules)"
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"
