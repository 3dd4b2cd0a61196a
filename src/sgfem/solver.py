"""Sparse direct solve of the reduced systems.

The reduced matrices are symmetric positive definite (acceptance criterion
5), so every solve factors with SuperLU in its symmetric mode: the COLAMD
column ordering is applied symmetrically and the diagonal is taken as the
pivot (``diag_pivot_thresh=0``), which keeps the factor's structure that of
a Cholesky factor instead of letting partial pivoting add fill.  Every
solve checks what it returns: a failed factorization, a non-finite solution
or a relative residual above ``MAX_REL_RESIDUAL`` raises
:class:`SolverError` instead of returning a bad answer.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import SparseSystem

__all__ = ["MAX_REL_RESIDUAL", "SolveReport", "SolverError", "solve"]

# The largest residual over the acceptance studies (four levels from
# structured:8) is 5.8e-10 (ntw, iota = 1, 56 578 dofs), 1700 times inside
# this gate.
MAX_REL_RESIDUAL = 1e-6


class SolverError(RuntimeError):
    """Raised when the solve did not produce an acceptable solution."""


@dataclass
class SolveReport:
    solution: np.ndarray
    method: str
    rel_residual: float
    wall_seconds: float


def _residual(A, x, b) -> float:
    """``|A x - b| / |b|``, or ``|A x|`` for ``b = 0``.  Both vectors are
    scaled by ``max|b|`` first, so the squared norms cannot overflow."""
    scale = np.abs(b).max()
    if scale == 0.0:
        return float(np.linalg.norm(A @ x))
    return float(np.linalg.norm((A @ x - b) / scale) / np.linalg.norm(b / scale))


def solve(system: SparseSystem) -> SolveReport:
    """Factor, solve and check the reduced system."""
    A, b = system.matrix, system.rhs
    t0 = time.perf_counter()
    if A.shape[0] == 0:
        return SolveReport(np.zeros(0), "direct", 0.0, time.perf_counter() - t0)
    try:
        lu = spla.splu(A.tocsc(), diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"direct factorization failed: {exc}") from exc
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SolverError("direct solve produced non-finite values")
    res = _residual(A, x, b)
    if not res <= MAX_REL_RESIDUAL:
        raise SolverError(f"relative residual {res:.2e} exceeds {MAX_REL_RESIDUAL:.0e}")
    return SolveReport(x, "direct", res, time.perf_counter() - t0)
