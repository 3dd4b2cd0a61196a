"""Command line harness: convergence tables, verification suites, probes.

Exit codes: 0 success, 1 invalid input, 2 solver failure, 3 verification
failure.
"""

import argparse
import contextlib
import functools
import io
import sys

import numpy as np

from .analysis import (
    KORN_BOUND,
    coercivity_check,
    convergence_study,
    energy_error,
    jump_check,
    korn_ratio,
    korn_ratio_min,
    local_coefficients,
)
from .assembly import AssemblyError, MaterialParams, assemble, build_dofmap
from .elements import (
    ElementKind,
    basis_coefficients,
    duality_residual,
    monomial_values,
    specht_constraint_residual,
    verify_affine_identity,
)
from .elements import build_basis  # noqa: F401  (bound for the benchmark tracer, which wraps it)
from .manufactured import example_field, example_layer, example_smooth, source
from .mesh import element_geometry  # noqa: F401  (bound for the benchmark tracer, which wraps it)
from .mesh import load_mesh, make_structured, mesh_geometry, refine
from .solver import SolverError, solve
from .verify import boundary_points, fd_source, random_geometries, random_quartic_samples

__all__ = ["main", "CliError"]

CSV_HEADER = "element,example,iota,level,h,dofs,energy_err,rel_energy_err,rate"


class CliError(Exception):
    """Invalid configuration or arguments; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _parse_materials(args):
    """One MaterialParams per entry of the comma separated ``--iota`` list."""
    try:
        iotas = [float(part) for part in args.iota.split(",") if part.strip()]
    except ValueError as exc:
        raise CliError(f"cannot parse iota list {args.iota!r}") from exc
    if not iotas:
        raise CliError("no iota values given")
    try:
        return [MaterialParams(lam=args.lam, mu=args.mu, iota=iota) for iota in iotas]
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _parse_mesh(text: str):
    if text.startswith("structured:"):
        try:
            n = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise CliError(f"bad mesh argument {text!r}") from exc
        if n < 1:
            raise CliError("structured mesh needs n >= 1")
        return make_structured(n)
    if text.startswith("file:"):
        path = text.split(":", 1)[1]
        try:
            mesh = load_mesh(path)
        except (OSError, ValueError) as exc:
            raise CliError(str(exc)) from exc
        # The manufactured fields are clamped on the unit square only.
        if np.any(mesh.vertices < -1e-12) or np.any(mesh.vertices > 1.0 + 1e-12):
            raise CliError(f"{path}: vertices must lie in the unit square")
        area = float(mesh_geometry(mesh).area.sum())
        if abs(area - 1.0) > 1e-12:
            raise CliError(f"{path}: mesh must cover the unit square (area {area!r})")
        # Both ends of a boundary edge on one side: no cracks or holes.
        edges = mesh.edge_vertices[mesh.edge_is_boundary]
        on_side = np.abs(mesh.vertices[edges][..., None] - [0.0, 1.0]) <= 1e-12
        off = ~on_side.all(axis=1).any(axis=(1, 2))
        if off.any():
            i, j = edges[off][0]
            raise CliError(f"{path}: boundary edge ({i}, {j}) is off the unit square's sides")
        return mesh
    raise CliError(f"mesh must be structured:N or file:PATH, got {text!r}")


def _open_output(out: str | None):
    """stdout, or ``out`` opened for writing before any work is done."""
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w")
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc.strerror}") from exc


def format_csv(reports) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for rep in reports:
        for row in rep.rows:
            rate = "" if row.rate is None else repr(row.rate)
            buf.write(
                f"{rep.kind},{rep.example},{rep.iota!r},{row.level},{row.h!r},"
                f"{row.dofs},{row.energy_err!r},{row.rel_energy_err!r},{rate}\n"
            )
    return buf.getvalue()


def format_markdown(reports) -> str:
    first = reports[0]
    lines = [
        f"### element {first.kind}, example {first.example}, "
        f"lambda {first.lam:g}, mu {first.mu:g}",
        "",
    ]
    hs = [row.h for row in first.rows]
    lines.append("| iota | quantity |" + "".join(f" h={h:.4g} |" for h in hs))
    lines.append("|---|---|" + "---|" * len(hs))
    for rep in reports:
        tag = f"{rep.iota:.0e}"
        lines.append(
            f"| {tag} | rel_err |"
            + "".join(f" {row.rel_energy_err:.3e} |" for row in rep.rows)
        )
        lines.append(
            f"| {tag} | rate |"
            + "".join(" |" if row.rate is None else f" {row.rate:.2f} |" for row in rep.rows)
        )
    return "\n".join(lines) + "\n"


def cmd_convergence(args) -> int:
    materials = _parse_materials(args)
    if args.levels < 1:
        raise CliError("levels must be at least 1")
    base_mesh = _parse_mesh(args.mesh)
    with _open_output(args.out) as out:
        try:
            reports = convergence_study(
                args.element,
                args.example,
                [mat.iota for mat in materials],
                args.levels,
                base_mesh,
                lam=args.lam,
                mu=args.mu,
            )
        except AssemblyError as exc:
            raise CliError(str(exc)) from exc
        out.write(format_csv(reports) if args.format == "csv" else format_markdown(reports))
    return 0


def cmd_solve(args) -> int:
    materials = _parse_materials(args)
    if len(materials) != 1:
        raise CliError("solve takes a single iota")
    if args.refine < 0:
        raise CliError("refine must be nonnegative")
    mesh = _parse_mesh(args.mesh)
    for _ in range(args.refine):
        mesh = refine(mesh)
    probes = _parse_probes(args.probe)
    mat = materials[0]
    field = example_field(args.example, mat)
    dofmap = build_dofmap(mesh, args.element)
    try:
        system = assemble(dofmap, mat, source(field))
    except AssemblyError as exc:
        raise CliError(str(exc)) from exc
    report = solve(system)
    full = system.expand(report.solution)
    values = _evaluate_at(dofmap, full, probes)
    exact = field.displacement(probes)
    for p, v, e in zip(probes, values, exact):
        print(
            f"u_h({p[0]:g}, {p[1]:g}) = ({v[0]:.8e}, {v[1]:.8e})"
            f"   exact ({e[0]:.8e}, {e[1]:.8e})"
        )
    absolute, relative = energy_error(dofmap, full, field)
    print(f"energy_err={absolute!r} rel_energy_err={relative!r} method={report.method}")
    return 0


def _parse_probes(text: str) -> np.ndarray:
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise CliError(f"bad probe point {chunk!r}")
        try:
            pts.append([float(parts[0]), float(parts[1])])
        except ValueError as exc:
            raise CliError(f"bad probe point {chunk!r}") from exc
    if not pts:
        raise CliError("no probe points given")
    pts = np.array(pts)
    if np.any(pts < -1e-12) or np.any(pts > 1.0 + 1e-12):
        raise CliError("probe points must lie in the unit square")
    return pts


def _evaluate_at(dofmap, full_dofs, pts: np.ndarray) -> np.ndarray:
    """Values of the discrete field at ``pts``, each taken on the first
    triangle (by index) that contains the point."""
    locals_ = local_coefficients(dofmap, full_dofs)
    vertex_stride = 3 if dofmap.kind is ElementKind.SPECHT else 1
    mesh = dofmap.mesh
    grad_lambda = dofmap.class_geom.grad_lambda[dofmap.classes]
    # Barycentric coordinates of every point in every triangle, (P, T, 3).
    offsets = pts[:, None, None, :] - mesh.vertices[mesh.triangles].mean(axis=1)[:, None]
    bary = 1.0 / 3.0 + (offsets @ grad_lambda.swapaxes(1, 2))[:, :, 0]
    inside = bary.min(axis=2) >= -1e-9
    out = np.empty_like(pts)
    for row, p in enumerate(pts):
        if not inside[row].any():
            raise CliError(f"probe point ({p[0]:g}, {p[1]:g}) not inside the mesh")
        t = int(inside[row].argmax())
        corner = int(bary[row, t].argmax())
        if bary[row, t, corner] >= 1.0 - 1e-12:
            # At a vertex the nodal value dof is the exact value.
            out[row] = locals_[t][vertex_stride * corner]
        else:
            shapes = dofmap.class_coeffs[dofmap.classes[t]] @ monomial_values(bary[row, t])
            out[row] = locals_[t].T @ shapes[:, 0]
    return out


def _verify_korn(seed):
    search = korn_ratio_min(10000, seed=seed)
    window = (KORN_BOUND - 1e-12, KORN_BOUND + 0.05)
    checks = [
        (
            "korn sampled minimum",
            window[0] <= search.min_sampled <= window[1],
            f"min {search.min_sampled:.6f} in [{window[0]:.6f}, {window[1]:.6f}]",
        ),
        (
            "korn directed minimum",
            window[0] <= search.min_directed <= window[1],
            f"directed {search.min_directed:.9f}, bound {KORN_BOUND:.6f}",
        ),
    ]
    D = np.zeros((2, 2, 2))
    D[0, 0, 1] = D[0, 1, 0] = 1.0
    D[1, 0, 0] = -(1.0 + np.sqrt(2.0))
    gap = abs(korn_ratio(D) - KORN_BOUND)
    checks.append(("korn extremal direction", gap <= 1e-10, f"gap {gap:.2e}"))
    return checks


def _verify_elements(seed):
    rng = np.random.default_rng(seed)
    geom = random_geometries(rng, 200)
    # One batch of specht shapes serves both specht checks, and is released
    # before the other families build theirs.
    specht = basis_coefficients(ElementKind.SPECHT, geom, None)
    duality = {ElementKind.SPECHT: duality_residual(ElementKind.SPECHT, geom, coeffs=specht)}
    constraint = specht_constraint_residual(geom, specht).max()
    del specht
    checks = []
    for kind in ElementKind:
        if kind not in duality:
            duality[kind] = duality_residual(kind, geom)
        worst = duality[kind].max()
        checks.append((f"{kind.value} duality", worst <= 1e-11, f"max residual {worst:.2e}"))
    checks.append(
        ("specht edge constraints", constraint <= 1e-12, f"max residual {constraint:.2e}")
    )
    geom, values, grads = random_quartic_samples(rng, 100)
    scale = np.maximum(1.0, np.abs(values[:, :3]).max(axis=1))
    affine = (verify_affine_identity(geom, values, grads) / scale).max()
    checks.append(("ntw affine identity", affine <= 1e-12, f"max deviation {affine:.2e}"))
    return checks


def _verify_coercivity(seed):
    mesh = make_structured(4)
    checks = []
    iotas = (1.0, 1e-2, 1e-6)
    materials = [MaterialParams(lam=10.0, mu=1.0, iota=iota) for iota in iotas]
    for kind in ElementKind:
        ratios = coercivity_check(build_dofmap(mesh, kind), materials, n_trials=100, seed=seed)
        for iota, worst in zip(iotas, ratios):
            checks.append(
                (
                    f"coercivity {kind.value} iota={iota:g}",
                    worst >= 1.0 - 1e-9,
                    f"min ratio {worst:.6f}",
                )
            )
    return checks


def _verify_jumps(seed):
    mesh = make_structured(3)
    checks = []
    for kind in ElementKind:
        dofmap = build_dofmap(mesh, kind)
        top = jump_check(dofmap, n_trials=10, seed=seed)
        checks.append((f"jumps {kind.value}", top <= 1e-10, f"max mean jump {top:.2e}"))
        broken = jump_check(dofmap, n_trials=3, seed=seed, corrupt=True)
        checks.append(
            (
                f"jump detector {kind.value}",
                broken > 1e-6,
                f"corrupted field jump {broken:.2e}",
            )
        )
    return checks


def _verify_manufactured(seed):
    rng = np.random.default_rng(seed)
    checks = []
    sides = boundary_points(25)
    fields = {
        "smooth": example_smooth(),
        "layer iota=1": example_layer(1.0),
        "layer iota=1e-2": example_layer(1e-2),
        "layer iota=1e-6": example_layer(1e-6),
    }
    for name, field in fields.items():
        top = max(
            np.abs(field.displacement(sides)).max(), np.abs(field.gradient(sides)).max()
        )
        checks.append((f"clamping {name}", top <= 1e-10, f"boundary residual {top:.2e}"))

    pts = rng.uniform(0.1, 0.9, size=(20, 2))
    for example in ("smooth", "layer"):
        for iota in (1.0, 1e-2):
            mat = MaterialParams(iota=iota)
            field = example_field(example, mat)
            fa = source(field)(pts)
            fd = fd_source(field, pts)
            rel = np.abs(fa - fd).max() / max(np.abs(fa).max(), 1.0)
            checks.append(
                (
                    f"source {example} iota={iota:g}",
                    rel <= 1e-4,
                    f"fd relative deviation {rel:.2e}",
                )
            )
    return checks


_SUITES = {
    "korn": _verify_korn,
    "elements": _verify_elements,
    "coercivity": _verify_coercivity,
    "jumps": _verify_jumps,
    "manufactured": _verify_manufactured,
}


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise CliError(f"seed must be nonnegative, got {args.seed}")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        for label, ok, detail in _SUITES[name](args.seed):
            status = "PASS" if ok else "FAIL"
            print(f"{status} {label}: {detail}")
            failures += 0 if ok else 1
    if failures:
        print(f"{failures} verification check(s) failed")
        return 3
    return 0


def _add_common(p):
    p.add_argument("--element", choices=["ntw", "specht", "morley"], default="ntw")
    p.add_argument("--example", choices=["smooth", "layer"], default="smooth")
    p.add_argument("--lambda", dest="lam", type=float, default=10.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--mesh", default="structured:8", help="structured:N or file:PATH")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``sgfem`` parser, built on the first call and shared by every
    later one: parsing does not change it."""
    parser = _Parser(prog="sgfem", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    conv = sub.add_parser("convergence", help="run a refinement study and emit a table")
    _add_common(conv)
    conv.add_argument("--iota", default="1e0,1e-2,1e-4,1e-6", help="comma separated list")
    conv.add_argument("--levels", type=int, default=4)
    conv.add_argument("--out", default=None, help="output path (default stdout)")
    conv.add_argument("--format", choices=["csv", "markdown"], default="csv")
    conv.set_defaults(func=cmd_convergence)

    ver = sub.add_parser("verify", help="run invariant suites")
    ver.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=sorted(_SUITES) + ["all"],
    )
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    sol = sub.add_parser("solve", help="solve once and probe the solution")
    _add_common(sol)
    sol.add_argument("--iota", default="1.0")
    sol.add_argument("--refine", type=int, default=0, help="quadrisection steps")
    sol.add_argument("--probe", default="0.5,0.5", help="semicolon separated x,y pairs")
    sol.set_defaults(func=cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
