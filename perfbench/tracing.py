"""Spans around the public functions of each sgfem layer, kept in memory.

The tracer replaces module attributes at the points where a workload's call
path enters a layer (for example ``sgfem.assembly.build_basis``, the name
``assemble`` looks up) and restores them on exit, so the package itself is
never edited.  Each span records (name, start_ns, end_ns, parent, op); the
per-layer metrics are computed from the span list after a round, with self
time = duration minus the durations of direct children.  Times use the
integer nanosecond clock, so self times are exact and never negative.
"""

import contextlib
import functools
import time
from collections import defaultdict

import sgfem.analysis
import sgfem.assembly
import sgfem.cli
import sgfem.manufactured
import sgfem.solver

LAYERS = ("mesh", "elements", "manufactured", "assembly", "solver", "analysis", "cli")

# (unit, better) of every per-layer metric, in the order they are reported.
# A span that never fires on a workload reports 0.
PER_LAYER = {
    "mesh.geometry_s": ("s", "lower"),
    "mesh.geometry_calls": ("count", "lower"),
    "mesh.refine_s": ("s", "lower"),
    "mesh.refine_calls": ("count", "lower"),
    "mesh.self_s": ("s", "lower"),
    "elements.basis_s": ("s", "lower"),
    "elements.basis_calls": ("count", "lower"),
    "elements.checks_s": ("s", "lower"),
    "elements.self_s": ("s", "lower"),
    "manufactured.source_s": ("s", "lower"),
    "manufactured.source_calls": ("count", "lower"),
    "manufactured.source_points": ("count", "lower"),
    "manufactured.field_s": ("s", "lower"),
    "manufactured.field_calls": ("count", "lower"),
    "manufactured.field_points": ("count", "lower"),
    "manufactured.self_s": ("s", "lower"),
    "assembly.stiffness_s": ("s", "lower"),
    "assembly.stiffness_calls": ("count", "lower"),
    "assembly.load_s": ("s", "lower"),
    "assembly.load_calls": ("count", "lower"),
    "assembly.assemble_s": ("s", "lower"),
    "assembly.assemble_calls": ("count", "lower"),
    "assembly.assemble_self_s": ("s", "lower"),
    "assembly.assembles_per_mesh": ("ratio", "lower"),
    "assembly.dofmap_s": ("s", "lower"),
    "assembly.dofmap_calls": ("count", "lower"),
    "assembly.dofs": ("count", "lower"),
    "assembly.nnz": ("count", "lower"),
    "assembly.self_s": ("s", "lower"),
    "solver.solve_s": ("s", "lower"),
    "solver.solve_calls": ("count", "lower"),
    "solver.solve_self_s": ("s", "lower"),
    "solver.factor_s": ("s", "lower"),
    "solver.triangular_s": ("s", "lower"),
    "solver.lu_fill": ("count", "lower"),
    "solver.max_rel_residual": ("ratio", "lower"),
    "solver.cg_fallbacks": ("count", "lower"),
    "solver.cg_iterations": ("count", "lower"),
    "solver.self_s": ("s", "lower"),
    "analysis.energy_error_s": ("s", "lower"),
    "analysis.energy_error_calls": ("count", "lower"),
    "analysis.energy_error_self_s": ("s", "lower"),
    "analysis.study_self_s": ("s", "lower"),
    "analysis.coercivity_s": ("s", "lower"),
    "analysis.coercivity_self_s": ("s", "lower"),
    "analysis.jumps_s": ("s", "lower"),
    "analysis.jumps_calls": ("count", "lower"),
    "analysis.korn_s": ("s", "lower"),
    "analysis.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.accounted_share": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
}

ROOT_SPAN = "cli.main"


class _SplinearProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``sgfem.solver`` so that
    the factorization and the triangular solves get spans of their own."""

    def __init__(self, tracer, module):
        self._module = module
        self.splu = tracer.wrap("solver.factor", module.splu, tracer._on_factor)

    def __getattr__(self, name):
        return getattr(self._module, name)


class _LUProxy:
    def __init__(self, tracer, lu):
        self._lu = lu
        self.solve = tracer.wrap("solver.triangular", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Collects spans and counters for the operations run inside ``patched``."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent_index, op_id]
        self._stack = []
        self.op = None
        self.counters = defaultdict(int)
        self.max_residual = 0.0
        self._meshes = set()

    # -- span recording ---------------------------------------------------

    def wrap(self, name, fn, on_result=None):
        """``fn`` recording a span ``name`` per call; ``on_result(args, kwargs,
        result)`` may count what the call did and returns the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0, 0, parent, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if on_result is not None:
                result = on_result(args, kwargs, result)
            return result

        return traced

    def call(self, op_id, fn, *args):
        """Run one CLI invocation ``fn(*args)`` under a root span."""
        self.op = op_id
        self._meshes = set()
        try:
            return self.wrap(ROOT_SPAN, fn)(*args)
        finally:
            self.counters["meshes"] += len(self._meshes)
            self.op = None

    # -- result hooks -----------------------------------------------------

    def _on_factor(self, args, kwargs, lu):
        self.counters["lu_fill"] += int(lu.L.nnz + lu.U.nnz)
        return _LUProxy(self, lu)

    def _on_assemble(self, args, kwargs, system):
        mesh = args[0] if args else kwargs["mesh"]
        self._meshes.add(id(mesh))
        self.counters["dofs"] += int(system.matrix.shape[0])
        self.counters["nnz"] += int(system.matrix.nnz)
        return system

    def _on_solve(self, args, kwargs, report):
        self.max_residual = max(self.max_residual, float(report.rel_residual))
        if report.method == "cg":
            self.counters["cg_fallbacks"] += 1
            self.counters["cg_iterations"] += int(report.iterations)
        return report

    def _count_points(self, key):
        def hook(args, kwargs, result):
            self.counters[key] += len(args[-1])
            return result

        return hook

    def _wrap_source(self, source):
        hook = self._count_points("source_points")

        def traced_source(field):
            return self.wrap("manufactured.source", source(field), hook)

        return traced_source

    # -- patching -----------------------------------------------------------

    def _patch_points(self):
        """(owner, attribute, replacement) for every point a layer is entered."""
        an, asm, cli = sgfem.analysis, sgfem.assembly, sgfem.cli
        field = sgfem.manufactured.ManufacturedField
        wrap = self.wrap
        points = []
        for module in (asm, an, cli):
            points += [
                (module, "element_geometry", wrap("mesh.geometry", module.element_geometry)),
                (module, "build_basis", wrap("elements.basis", module.build_basis)),
                (module, "build_dofmap", wrap("assembly.dofmap", module.build_dofmap)),
            ]
        for module in (an, cli):
            points += [
                (module, "refine", wrap("mesh.refine", module.refine)),
                (module, "assemble", wrap("assembly.assemble", module.assemble, self._on_assemble)),
                (module, "solve", wrap("solver.solve", module.solve, self._on_solve)),
                (module, "energy_error", wrap("analysis.energy_error", module.energy_error)),
                (module, "source", self._wrap_source(module.source)),
            ]
        for name in ("duality_residual", "specht_constraint_residual", "verify_affine_identity"):
            points.append((cli, name, wrap("elements.checks", getattr(cli, name))))
        field_hook = self._count_points("field_points")
        for name in ("displacement", "gradient", "hessian"):
            traced = wrap("manufactured.field", getattr(field, name), field_hook)
            points.append((field, name, traced))
        return points + [
            (cli, "make_structured", wrap("mesh.structured", cli.make_structured)),
            (asm, "element_stiffness", wrap("assembly.stiffness", asm.element_stiffness)),
            (
                asm,
                "element_stiffness_morley",
                wrap("assembly.stiffness", asm.element_stiffness_morley),
            ),
            (asm, "element_load", wrap("assembly.load", asm.element_load)),
            (sgfem.solver, "spla", _SplinearProxy(self, sgfem.solver.spla)),
            (cli, "convergence_study", wrap("analysis.study", cli.convergence_study)),
            (cli, "coercivity_check", wrap("analysis.coercivity", cli.coercivity_check)),
            (an, "edge_mean_jumps", wrap("analysis.jumps", an.edge_mean_jumps)),
            (cli, "korn_ratio_min", wrap("analysis.korn", cli.korn_ratio_min)),
        ]

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper for the duration of the block."""
        points = self._patch_points()
        saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in points]
        try:
            for owner, name, wrapper in points:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    # -- reduction ------------------------------------------------------------

    def layer_metrics(self, traced_wall_ns, untraced_wall_ns):
        """Per-layer metrics of every span recorded so far."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total = defaultdict(int)
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            total[name] += end - start
            self_ns[name] += end - start - children
            calls[name] += 1
        layer_self = defaultdict(int)
        for name, value in self_ns.items():
            layer_self[name.split(".", 1)[0]] += value

        def sec(ns):
            return ns * 1e-9

        c = self.counters
        values = {
            "mesh.geometry_s": sec(total["mesh.geometry"]),
            "mesh.geometry_calls": calls["mesh.geometry"],
            "mesh.refine_s": sec(total["mesh.refine"]),
            "mesh.refine_calls": calls["mesh.refine"],
            "elements.basis_s": sec(total["elements.basis"]),
            "elements.basis_calls": calls["elements.basis"],
            "elements.checks_s": sec(total["elements.checks"]),
            "manufactured.source_s": sec(total["manufactured.source"]),
            "manufactured.source_calls": calls["manufactured.source"],
            "manufactured.source_points": c["source_points"],
            "manufactured.field_s": sec(total["manufactured.field"]),
            "manufactured.field_calls": calls["manufactured.field"],
            "manufactured.field_points": c["field_points"],
            "assembly.stiffness_s": sec(total["assembly.stiffness"]),
            "assembly.stiffness_calls": calls["assembly.stiffness"],
            "assembly.load_s": sec(total["assembly.load"]),
            "assembly.load_calls": calls["assembly.load"],
            "assembly.assemble_s": sec(total["assembly.assemble"]),
            "assembly.assemble_calls": calls["assembly.assemble"],
            "assembly.assemble_self_s": sec(self_ns["assembly.assemble"]),
            "assembly.assembles_per_mesh": calls["assembly.assemble"] / max(c["meshes"], 1),
            "assembly.dofmap_s": sec(total["assembly.dofmap"]),
            "assembly.dofmap_calls": calls["assembly.dofmap"],
            "assembly.dofs": c["dofs"],
            "assembly.nnz": c["nnz"],
            "solver.solve_s": sec(total["solver.solve"]),
            "solver.solve_calls": calls["solver.solve"],
            "solver.solve_self_s": sec(self_ns["solver.solve"]),
            "solver.factor_s": sec(total["solver.factor"]),
            "solver.triangular_s": sec(total["solver.triangular"]),
            "solver.lu_fill": c["lu_fill"],
            "solver.max_rel_residual": self.max_residual,
            "solver.cg_fallbacks": c["cg_fallbacks"],
            "solver.cg_iterations": c["cg_iterations"],
            "analysis.energy_error_s": sec(total["analysis.energy_error"]),
            "analysis.energy_error_calls": calls["analysis.energy_error"],
            "analysis.energy_error_self_s": sec(self_ns["analysis.energy_error"]),
            "analysis.study_self_s": sec(self_ns["analysis.study"]),
            "analysis.coercivity_s": sec(total["analysis.coercivity"]),
            "analysis.coercivity_self_s": sec(self_ns["analysis.coercivity"]),
            "analysis.jumps_s": sec(total["analysis.jumps"]),
            "analysis.jumps_calls": calls["analysis.jumps"],
            "analysis.korn_s": sec(total["analysis.korn"]),
            "trace.overhead": traced_wall_ns / untraced_wall_ns,
            "trace.accounted_share": sum(layer_self.values()) / traced_wall_ns,
            "trace.spans": len(self.spans),
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sec(layer_self[layer])
        return {name: values[name] for name in PER_LAYER}

    def write_spans(self, path):
        """One CSV line per span: name,start_ns,end_ns,parent,op."""
        with open(path, "a") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start},{end},{parent},{op}\n")
