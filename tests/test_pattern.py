"""The coupling pattern of a dof map against a comparison-sort reference."""

import numpy as np
import pytest
import scipy.sparse as sp

from sgfem.assembly import _stable_order, build_dofmap
from sgfem.mesh import make_structured, refine

from random_meshes import jittered_mesh

FAMILIES = ("ntw", "specht", "morley")


def reference_pattern(dofmap):
    """The pattern's arrays built with one stable comparison argsort of the
    coupling keys and a CSR -> CSC -> CSR round trip for the mirror."""
    keep = ~dofmap.boundary
    n_red = int(keep.sum())
    reduced = np.full(dofmap.n_scalar, -1, dtype=np.int64)
    reduced[keep] = np.arange(n_red)
    loc = reduced[dofmap.scatter]
    n = loc.shape[1]
    pairs = (loc[:, :, None] >= 0) & (loc[:, None, :] >= 0)
    keys = (loc[:, :, None] * n_red + loc[:, None, :])[pairs]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    rows, cols = np.divmod(keys[starts], n_red)
    entries = (n * n * dofmap.classes[:, None, None] + np.arange(n * n).reshape(n, n))[pairs]
    operator = sp.csr_matrix(
        (np.ones(len(keys)), entries[order], np.append(starts, len(keys))),
        shape=(len(starts), len(dofmap.class_coeffs) * n * n),
    )
    indptr = np.append(0, np.cumsum(np.bincount(rows, minlength=n_red)))
    numbers = sp.csr_matrix((np.arange(len(cols)), cols, indptr), shape=(n_red, n_red))
    mirror = numbers.T.tocsr().data
    return {
        "indptr": indptr,
        "indices": cols,
        "transpose": (4 * mirror[:, None] + [0, 2, 1, 3]).ravel(),
        "retained": np.flatnonzero(np.repeat(keep, 2)),
        "operator.data": operator.data,
        "operator.indices": operator.indices,
        "operator.indptr": operator.indptr,
        "operator.shape": np.array(operator.shape),
    }


def pattern_arrays(pattern):
    arrays = {name: getattr(pattern, name) for name in ("indptr", "indices", "transpose", "retained")}
    op = pattern.operator
    arrays.update({f"operator.{k}": getattr(op, k) for k in ("data", "indices", "indptr")})
    arrays["operator.shape"] = np.array(op.shape)
    return arrays


def _meshes():
    for n in (1, 2, 3):
        mesh = make_structured(n)
        yield f"structured:{n}", mesh
        yield f"structured:{n} refined", refine(mesh)
    # A jittered mesh has one translation class per triangle.
    yield "jittered", jittered_mesh(4, 0.3, 1.0, 3)


MESHES = dict(_meshes())


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mesh", MESHES, ids=str)
def test_pattern_equals_reference(mesh, family):
    dofmap = build_dofmap(MESHES[mesh], family)
    got, want = pattern_arrays(dofmap.pattern), reference_pattern(dofmap)
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def test_jittered_mesh_has_one_class_per_triangle():
    dofmap = build_dofmap(MESHES["jittered"], "ntw")
    assert len(dofmap.class_coeffs) == dofmap.mesh.num_triangles


def test_specht_on_structured_1_retains_nothing():
    pattern = build_dofmap(MESHES["structured:1"], "specht").pattern
    assert len(pattern.retained) == 0 and pattern.operator.shape[0] == 0


@pytest.mark.parametrize(
    "top",
    [0, 1, 2**16 - 1, 2**16, 2**31 + 5, 2**32 - 1, 2**32, 2**47 + 3],
    ids=lambda top: f"top={top}",
)
def test_stable_order_equals_stable_argsort(top):
    """Keys in [0, top], with many ties, need one, two or three digit passes."""
    rng = np.random.default_rng(top % 1000)
    pool = rng.integers(0, top, size=40, endpoint=True)
    keys = np.append(rng.choice(pool, size=2000), top).astype(np.int64)
    assert len(np.unique(keys)) < len(keys)
    assert np.array_equal(_stable_order(keys), np.argsort(keys, kind="stable"))


def test_stable_order_of_no_keys():
    order = _stable_order(np.array([], dtype=np.int64))
    assert order.shape == (0,) and order.dtype == np.intp


def test_stable_order_keeps_ties_in_input_order():
    keys = np.array([2**20, 3, 2**20, 3, 0, 2**20 + 1, 0], dtype=np.int64)
    assert _stable_order(keys).tolist() == [4, 6, 1, 3, 0, 2, 5]
