"""Sparse direct solve of the reduced systems.

The reduced matrices are symmetric positive definite (acceptance criterion
5), so every solve factors with SuperLU in its symmetric mode: the diagonal
is taken as the pivot (``diag_pivot_thresh=0``), which keeps the factor's
structure that of a Cholesky factor instead of letting partial pivoting add
fill, and the column ordering, SuperLU's multiple minimum degree on the
structure of ``A^T + A`` (``MMD_AT_PLUS_A``), is applied symmetrically.

Supernodes are not relaxed (``relax=1``): with scipy's default ``relax``,
SuperLU groups the small subtrees of the elimination tree into relaxed
supernodes, and on this ordering that is slow.  At paper size (structured:8
refined three times, 8192 triangles) morley's factor then takes 2.1-2.4 s
instead of 0.25-0.37 s, at the same fill.

The assembled matrix is bitwise symmetric, so its CSR arrays are also its
CSC arrays: the factorization is handed ``A.T``, which shares them, instead
of a copy made by ``A.tocsc()``.

Every system :func:`~sgfem.assembly.assemble` builds is numbered as its
dof map's pattern, and the ordering depends only on that pattern, which is
the same for every ``iota``; only the values change (SuperLU's
``SamePattern`` case, X. S. Li, ACM TOMS 31, 2005).  So only the first
solve on a dof map computes it.  Once that solve has passed its checks, it
keeps the inverse ``inv`` of its column permutation on the dof map.  Every
later solve on the dof map factors ``A[inv][:, inv]`` and ``b[inv]`` with
``NATURAL`` and otherwise the same options, and scatters the solution back
to the pattern's numbering.  The renumbered matrix is one gather of
``A.data`` through a position map that the first later solve builds and
keeps with ``inv``.  The fill is that of the computed order to within
0.1 %, and on the benchmark's meshes of 32 to 512 triangles the factor
takes 16-39 % less time (layer field, ``iota = 1e-2``, best of seven).  A
single-``iota`` study computes every order and keeps its bits; the later
``iota``s of a study move at rounding level.

The order is chosen when a system is solved, from the state of its dof
map, not when it is assembled.  A system whose ``retained`` is not its dof
map's ``pattern.retained`` (built by hand, permuted, or without a dof map)
computes an order of its own and leaves none.  A system that carries it is
taken to carry the pattern's structure too, as every assembled one does.

Every solve checks what it returns: a failed factorization, a non-finite
solution or a relative residual above ``MAX_REL_RESIDUAL`` raises
:class:`SolverError` instead of returning a bad answer.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import SparseSystem

__all__ = ["MAX_REL_RESIDUAL", "SolveReport", "SolverError", "solve"]

# The largest residual over the acceptance studies (four levels from
# structured:8) is 4.7e-10 (ntw, iota = 1, 56 578 dofs), 2100 times inside
# this gate.
MAX_REL_RESIDUAL = 1e-6


class SolverError(RuntimeError):
    """Raised when the solve did not produce an acceptable solution."""


@dataclass
class SolveReport:
    """``solution`` is in the order of ``system.retained``.  ``ordering`` is
    the column ordering of the factorization, chosen when the system was
    solved, from the state of its dof map: ``"MMD_AT_PLUS_A"`` when the
    solve computed it, ``"NATURAL"`` when the solve factored the system
    renumbered to the order its dof map keeps, ``"none"`` for an empty
    system."""

    solution: np.ndarray
    method: str
    rel_residual: float
    wall_seconds: float
    ordering: str


def _residual(A, x, b) -> float:
    """``|A x - b| / |b|``, or ``|A x|`` for ``b = 0``.  Both vectors are
    scaled by ``max|b|`` first, so the squared norms cannot overflow."""
    scale = np.abs(b).max()
    if scale == 0.0:
        return float(np.linalg.norm(A @ x))
    return float(np.linalg.norm((A @ x - b) / scale) / np.linalg.norm(b / scale))


def _renumbered(A, kept: dict) -> sp.csr_matrix:
    """``A[inv][:, inv]`` with sorted column indices, for the order ``inv``
    in ``kept``: one gather of ``A.data`` through the position map kept
    there, which the first call builds from the structure of ``A``."""
    if "positions" not in kept:
        inv = kept["inv"]
        rows = sp.csr_matrix((np.arange(A.nnz), A.indices, A.indptr), shape=A.shape)[inv]
        positions = sp.csr_matrix(
            (rows.data, np.argsort(inv)[rows.indices], rows.indptr), shape=A.shape
        )
        positions.sort_indices()
        kept["positions"] = positions
    p = kept["positions"]
    return sp.csr_matrix((A.data[p.data], p.indices, p.indptr), shape=A.shape)


def solve(system: SparseSystem) -> SolveReport:
    """Factor, solve and check the reduced system.

    The ordering is chosen here, from the state of the system's dof map:
    the first solve of a system numbered as its dof map's pattern computes
    it and keeps it on the dof map, and every later one factors the system
    renumbered to it.  The solution is in the order of ``system.retained``.
    """
    A, b = system.matrix, system.rhs
    t0 = time.perf_counter()
    if A.shape[0] == 0:
        return SolveReport(np.zeros(0), "direct", 0.0, time.perf_counter() - t0, "none")
    dofmap = system.dofmap
    # A system numbered otherwise gets a dict of its own: it neither uses
    # nor leaves an order.
    own = dofmap is not None and system.retained is dofmap.pattern.retained
    kept = dofmap._solver if own else {}
    inv = kept.get("inv")
    if inv is not None:
        A, b = _renumbered(A, kept), b[inv]
    ordering = "MMD_AT_PLUS_A" if inv is None else "NATURAL"
    try:
        lu = spla.splu(
            A.T,
            permc_spec=ordering,
            relax=1,
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SolverError(f"direct factorization failed: {exc}") from exc
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SolverError("direct solve produced non-finite values")
    res = _residual(A, x, b)
    if not res <= MAX_REL_RESIDUAL:
        raise SolverError(f"relative residual {res:.2e} exceeds {MAX_REL_RESIDUAL:.0e}")
    if inv is None:
        kept["inv"] = np.argsort(lu.perm_c)
    else:
        natural = np.empty_like(x)
        natural[inv] = x
        x = natural
    return SolveReport(x, "direct", res, time.perf_counter() - t0, ordering)
