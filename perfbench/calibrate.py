"""A fixed calibration kernel that measures how fast this machine is right now.

On a shared host the speed of a core drifts by up to a factor of two over
seconds to minutes, and CPU-bound code running in the same window slows by
much the same factor.  The runner times this kernel right before and right
after every operation and divides the operation's time by the mean of the
two, then multiplies by ``REFERENCE_S``.  The result is the operation's time
in seconds at the reference speed: the machine's drift cancels, a change in
the program does not.

The kernel does the same kinds of work as an sgfem operation: a Python
loop over small einsums and 12x12 solves, dictionary work, and a sparse
COO->CSR assembly with a SuperLU factorization.  It does not call
sgfem, so nothing a change to the program does can move it.
"""

import time

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

# Median time of one kernel() call between the operations of a benchmark
# run on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4, scipy, one BLAS
# thread).  Only the ratio to it matters; a different value would scale every
# reported time by the same factor.
REFERENCE_S = 0.072

_RNG = np.random.default_rng(20180903)
_G = _RNG.standard_normal((12, 7, 2))
_H = _RNG.standard_normal((12, 7, 2, 2))
_W = _RNG.random(7)
_M = _RNG.standard_normal((12, 12)) + 12.0 * np.eye(12)
_B = _RNG.standard_normal(12)
_N = 70
_LAP1 = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_N, _N))
_LAP = (
    scipy.sparse.kron(_LAP1, scipy.sparse.eye(_N)) + scipy.sparse.kron(scipy.sparse.eye(_N), _LAP1)
).tocoo()
_RHS = np.ones(_N * _N)


def kernel():
    """One pass of the fixed work; returns a checksum so nothing is skipped."""
    acc = 0.0
    for t in range(900):
        k = np.einsum("aqi,bqi,q->ab", _G, _G, _W) + np.einsum("aqkl,bqkl,q->ab", _H, _H, _W)
        x = np.linalg.solve(_M + t * 1e-3 * k, _B)
        acc += float(x @ _B)
    poly = {}
    for i in range(60000):
        key = (i % 7, i % 5, i % 3)
        poly[key] = poly.get(key, 0.0) + i * 0.5
    acc += sum(poly.values()) * 1e-9
    rows, cols, vals = _LAP.row, _LAP.col, _LAP.data
    a = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=_LAP.shape).tocsc()
    acc += float(scipy.sparse.linalg.splu(a).solve(_RHS).sum()) * 1e-9
    return acc


def measure():
    """Seconds of one kernel() call."""
    t0 = time.perf_counter_ns()
    kernel()
    return (time.perf_counter_ns() - t0) * 1e-9
