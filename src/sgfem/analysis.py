"""Energy-norm errors, convergence rates, and inequality verifications.

The error norm is the broken quantity ``|||v||| = ||grad v|| + iota ||grad^2 v||``
with elementwise derivatives of the full discrete function, for every
family: the morley norm also uses the full broken gradient, not the
gradient of the linear vertex interpolant that its membrane form uses.  The
relative error divides by the same norm of the exact field computed with
the same quadrature.

The inequality checks certify, numerically and with independently
assembled right-hand sides, the three structural facts the convergence
theory rests on: the pointwise bound ``|grad eps(v)|^2 >= (1 - 1/sqrt(2))
|grad^2 v|^2`` (second derivative norm counting each distinct entry once),
the coercivity of the assembled forms, and the vanishing mean of
normal-derivative jumps across interior edges.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.optimize

from .assembly import MaterialParams, assemble, build_dofmap
from .elements import ElementKind, MonoTables, build_basis, pi1_map
from .manufactured import ManufacturedField, example_field, source
from .mesh import Mesh, element_geometry, refine
from .quadrature import edge_rule, triangle_rule
from .solver import SolverError, solve

__all__ = [
    "ConvergenceRow",
    "ConvergenceReport",
    "KornSearch",
    "energy_error",
    "rates_from_errors",
    "convergence_study",
    "korn_ratio",
    "korn_ratio_min",
    "coercivity_check",
    "jump_check",
    "edge_mean_jumps",
    "mesh_diameter",
    "local_coefficients",
]

KORN_BOUND = 1.0 - 1.0 / np.sqrt(2.0)


def mesh_diameter(mesh: Mesh) -> float:
    """Length of the longest edge."""
    vec = mesh.vertices[mesh.edge_vertices[:, 1]] - mesh.vertices[mesh.edge_vertices[:, 0]]
    return float(np.hypot(vec[:, 0], vec[:, 1]).max())


def local_coefficients(dofmap, full_dofs: np.ndarray) -> np.ndarray:
    """Per-element (nloc, 2) coefficient blocks extracted from the full vector."""
    ids = 2 * dofmap.scatter
    return np.stack([full_dofs[ids], full_dofs[ids + 1]], axis=-1)


def energy_error(mesh: Mesh, kind, full_dofs: np.ndarray, field: ManufacturedField):
    """Absolute and relative energy error of a discrete solution.

    ``full_dofs`` is the full coefficient vector (boundary entries
    included, normally zero).  Returns ``(absolute, relative)``.
    """
    kind = ElementKind(kind)
    dofmap = build_dofmap(mesh, kind)
    full_dofs = np.asarray(full_dofs, dtype=float)
    if full_dofs.shape != (dofmap.n_vector,):
        raise ValueError(
            f"dof vector has shape {full_dofs.shape}, expected ({dofmap.n_vector},)"
        )
    iota = field.mat.iota
    rule = triangle_rule(10)
    tables = MonoTables(rule.points)
    locals_ = local_coefficients(dofmap, full_dofs)

    err_g = err_h = nrm_g = nrm_h = 0.0
    for t in range(mesh.num_triangles):
        geom = element_geometry(mesh, t)
        basis = build_basis(kind, geom, dofmap.signs[t])
        _, G, H = basis.eval_all(rule.points, tables)
        xy = rule.points @ geom.vertices
        w = geom.area * rule.weights
        Hu = field.hessian(xy)
        hess_h = np.einsum("ac,aqjk->qcjk", locals_[t], H)
        dh = Hu - hess_h
        err_h += w @ np.einsum("qcjk,qcjk->q", dh, dh)
        nrm_h += w @ np.einsum("qcjk,qcjk->q", Hu, Hu)
        Gu = field.gradient(xy)
        grad_h = np.einsum("ac,aqj->qcj", locals_[t], G)
        dg = Gu - grad_h
        err_g += w @ np.einsum("qcj,qcj->q", dg, dg)
        nrm_g += w @ np.einsum("qcj,qcj->q", Gu, Gu)

    absolute = np.sqrt(err_g) + iota * np.sqrt(err_h)
    norm = np.sqrt(nrm_g) + iota * np.sqrt(nrm_h)
    return float(absolute), float(absolute / norm)


def rates_from_errors(errors):
    """log2 ratios of consecutive errors; None for the first level."""
    rates = [None]
    for prev, cur in zip(errors[:-1], errors[1:]):
        rates.append(float(np.log2(prev / cur)))
    return rates


@dataclass
class ConvergenceRow:
    level: int
    h: float
    dofs: int
    energy_err: float
    rel_energy_err: float
    rate: float | None


@dataclass
class ConvergenceReport:
    kind: str
    example: str
    iota: float
    lam: float
    mu: float
    mesh_desc: str
    rows: list = dataclass_field(default_factory=list)


def convergence_study(
    kind,
    example: str,
    iotas,
    levels: int,
    base_mesh: Mesh,
    lam: float = 10.0,
    mu: float = 1.0,
    mesh_desc: str = "structured",
):
    """Refine, solve and measure for each iota; one report per iota."""
    kind = ElementKind(kind)
    if levels < 1:
        raise ValueError("levels must be at least 1")
    meshes = [base_mesh]
    for _ in range(levels - 1):
        meshes.append(refine(meshes[-1]))

    reports = []
    for iota in iotas:
        mat = MaterialParams(lam=lam, mu=mu, iota=float(iota))
        field = example_field(example, mat)
        f = source(field)
        report = ConvergenceReport(
            kind=kind.value,
            example=example,
            iota=float(iota),
            lam=lam,
            mu=mu,
            mesh_desc=mesh_desc,
        )
        errors = []
        for level, mesh in enumerate(meshes):
            system = assemble(mesh, kind, mat, f)
            try:
                result = solve(system)
            except SolverError as exc:
                raise SolverError(f"iota={iota} level={level}: {exc}") from exc
            full = system.expand(result.solution)
            abs_err, rel_err = energy_error(mesh, kind, full, field)
            errors.append(rel_err)
            report.rows.append(
                ConvergenceRow(
                    level=level,
                    h=mesh_diameter(mesh),
                    dofs=int(system.retained.size),
                    energy_err=abs_err,
                    rel_energy_err=rel_err,
                    rate=None,
                )
            )
        for row, rate in zip(report.rows, rates_from_errors(errors)):
            row.rate = rate
        reports.append(report)
    return reports


def korn_ratio(D: np.ndarray):
    """Ratio |grad eps|^2 / |grad^2 v|^2 for third-derivative arrays.

    ``D[..., i, j, k]`` holds d_j d_k v_i and must be symmetric in its last
    two axes.  The denominator counts each distinct entry (j <= k) once.
    """
    D = np.asarray(D, dtype=float)
    sym = 0.5 * (D + np.swapaxes(D, -3, -2))
    num = np.einsum("...ijk,...ijk->...", sym, sym)
    mask = np.array([[1.0, 1.0], [0.0, 1.0]])
    den = np.einsum("...ijk,...ijk,jk->...", D, D, mask)
    return num / den


def _ratio_from_six(params):
    """korn_ratio on the 6 distinct entries (D111, D112, D122, D211, D212, D222)."""
    a = np.asarray(params, dtype=float)
    D = np.empty(a.shape[:-1] + (2, 2, 2))
    for i in (0, 1):
        D[..., i, 0, 0] = a[..., 3 * i]
        D[..., i, 0, 1] = D[..., i, 1, 0] = a[..., 3 * i + 1]
        D[..., i, 1, 1] = a[..., 3 * i + 2]
    return korn_ratio(D)


@dataclass
class KornSearch:
    min_sampled: float
    min_directed: float
    argmin: np.ndarray
    bound: float = KORN_BOUND


def korn_ratio_min(n_samples: int, seed: int = 0) -> KornSearch:
    """Minimum of the algebraic ratio over random samples, then a local
    minimization started at the worst sample."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    params = rng.normal(size=(n_samples, 6))
    ratios = _ratio_from_six(params)
    worst = int(np.argmin(ratios))
    x0 = params[worst] / np.linalg.norm(params[worst])
    opt = scipy.optimize.minimize(
        _ratio_from_six,
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 5000},
    )
    directed = min(float(opt.fun), float(ratios[worst]))
    return KornSearch(
        min_sampled=float(ratios[worst]),
        min_directed=directed,
        argmin=params[worst],
    )


def _gram_matrices(mesh: Mesh, kind: ElementKind):
    """Reduced Gram matrices of the broken gradient and distinct-entry
    Hessian inner products, assembled with a quadrature rule and a
    contraction independent of the stiffness path."""
    import scipy.sparse as sp

    dofmap = build_dofmap(mesh, kind)
    rule = triangle_rule(8)
    tables = MonoTables(rule.points)
    mask = np.array([[1.0, 1.0], [0.0, 1.0]])
    nloc = dofmap.nloc
    morley = kind is ElementKind.MORLEY

    rows_all, cols_all, gdata, hdata = [], [], [], []
    for t in range(mesh.num_triangles):
        geom = element_geometry(mesh, t)
        basis = build_basis(kind, geom, dofmap.signs[t])
        _, G, H = basis.eval_all(rule.points, tables)
        w = geom.area * rule.weights
        if morley:
            lin_grad = pi1_map(basis).T @ geom.grad_lambda
            g_sc = geom.area * lin_grad @ lin_grad.T
        else:
            g_sc = np.einsum("aqk,bqk,q->ab", G, G, w)
        h_sc = np.einsum("aqjk,bqjk,jk,q->ab", H, H, mask, w)
        ids = dofmap.scatter[t]
        for c in (0, 1):
            vids = 2 * ids + c
            rows_all.append(np.repeat(vids, nloc))
            cols_all.append(np.tile(vids, nloc))
            gdata.append(g_sc.ravel())
            hdata.append(h_sc.ravel())

    n = dofmap.n_vector
    rows = np.concatenate(rows_all)
    cols = np.concatenate(cols_all)
    Gm = sp.coo_matrix((np.concatenate(gdata), (rows, cols)), shape=(n, n)).tocsr()
    Hm = sp.coo_matrix((np.concatenate(hdata), (rows, cols)), shape=(n, n)).tocsr()
    retained = np.flatnonzero(~np.repeat(dofmap.boundary, 2))
    return Gm[retained][:, retained], Hm[retained][:, retained]


def coercivity_check(mesh: Mesh, kind, mat: MaterialParams, n_trials: int, seed: int = 0):
    """Minimum of a_h(v,v) over the coercivity bound for random fields.

    The bound is ``(2 - sqrt(2)) mu (||grad v||^2 + iota^2 ||grad^2 v||^2)``
    with the distinct-entry Hessian norm; the morley family uses the
    constant ``mu/2`` and the vertex-interpolant gradient.  Values at or
    above 1 confirm the inequality.
    """
    kind = ElementKind(kind)
    system = assemble(mesh, kind, mat, lambda xy: np.zeros_like(xy))
    n = system.matrix.shape[0]
    if n == 0:
        return np.inf
    Gm, Hm = _gram_matrices(mesh, kind)
    constant = 0.5 if kind is ElementKind.MORLEY else 2.0 - np.sqrt(2.0)
    i2 = mat.iota**2
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(n_trials):
        v = rng.normal(size=n)
        num = v @ (system.matrix @ v)
        den = constant * mat.mu * (v @ (Gm @ v) + i2 * (v @ (Hm @ v)))
        worst = min(worst, num / den)
    return float(worst)


def edge_mean_jumps(mesh: Mesh, kind, local_coeffs: np.ndarray):
    """Mean normal-derivative jumps across interior edges.

    ``local_coeffs`` has shape (ntri, nloc, 2); the normal is the fixed
    global edge normal, used on both sides, so a conforming field gives
    zeros.  Returns ``(jumps, scale)`` where jumps has one row per
    interior edge and two columns (one per displacement component), and
    scale is the largest one-sided mean magnitude.
    """
    kind = ElementKind(kind)
    rule = edge_rule(3)
    s = rule.points
    interior = np.flatnonzero(~mesh.edge_is_boundary)
    jumps = np.zeros((interior.size, 2))
    scale = 0.0

    bases = {}

    def basis_of(t):
        if t not in bases:
            geom = element_geometry(mesh, t)
            bases[t] = build_basis(kind, geom, mesh.tri_edge_signs[t])
        return bases[t]

    for row, e in enumerate(interior):
        n_glob = mesh.edge_normals[e]
        sides = []
        for t in mesh.edge_tris[e]:
            i = int(np.flatnonzero(mesh.tri_edges[t] == e)[0])
            j, k = (i + 1) % 3, (i + 2) % 3
            bary = np.zeros((rule.npoints, 3))
            bary[:, j] = 1.0 - s
            bary[:, k] = s
            basis = basis_of(t)
            _, G, _ = basis.eval_all(bary)
            gw = np.einsum("ac,aqj->qcj", local_coeffs[t], G)
            sides.append(rule.weights @ (gw @ n_glob))
        jumps[row] = sides[0] - sides[1]
        scale = max(scale, np.abs(sides[0]).max(), np.abs(sides[1]).max())
    return jumps, scale


def jump_check(mesh: Mesh, kind, n_trials: int, seed: int = 0, corrupt: bool = False):
    """Largest normalized mean jump over random conforming fields.

    With ``corrupt=True`` one element's coefficients are perturbed
    directly, bypassing the shared degrees of freedom; the result must
    then be far from zero (negative control for the detector).
    """
    kind = ElementKind(kind)
    dofmap = build_dofmap(mesh, kind)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        full = rng.normal(size=dofmap.n_vector)
        coeffs = local_coefficients(dofmap, full)
        if corrupt:
            t = int(rng.integers(mesh.num_triangles))
            coeffs[t] += rng.normal(size=coeffs[t].shape)
        jumps, scale = edge_mean_jumps(mesh, kind, coeffs)
        worst = max(worst, np.abs(jumps).max() / max(scale, 1.0))
    return float(worst)
