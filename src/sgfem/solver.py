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
instead of 0.25-0.37 s, at the same fill.  Against the COLAMD ordering
used before, at paper size, smooth example, ``iota = 1``, BLAS on one
thread, best of three:

    family   factor s       LU fill          relative residual
    ntw      2.59 -> 1.02   25.0M -> 11.6M   5.8e-10 -> 4.7e-10
    specht   1.13 -> 0.59   10.7M ->  7.1M   7.8e-11 -> 4.3e-11
    morley   0.81 -> 0.37    9.2M ->  4.8M   5.1e-12 -> 4.1e-12

The assembled matrix is bitwise symmetric, so its CSR arrays are also its
CSC arrays: the factorization is handed ``A.T``, which shares them, instead
of a copy made by ``A.tocsc()``.

Every solve checks what it returns: a failed factorization, a non-finite
solution or a relative residual above ``MAX_REL_RESIDUAL`` raises
:class:`SolverError` instead of returning a bad answer.
"""

import time
from dataclasses import dataclass

import numpy as np
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
        lu = spla.splu(
            A.T,
            permc_spec="MMD_AT_PLUS_A",
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
    return SolveReport(x, "direct", res, time.perf_counter() - t0)
