"""Per-element and interpolation references for the tests.

The library evaluates shapes and applies degree-of-freedom functionals on
batches of triangles (``evaluate`` on a ``MonoTables``, ``apply_dofs`` on
the samples at ``dof_points``).  These helpers run the same calls on one
triangle, or on a whole dof map, in the forms the tests read.
``class_count`` counts a mesh's translation classes apart from
``mesh.translation_classes``.
"""

import numpy as np
from numpy.testing import assert_allclose

from sgfem.elements import MonoTables, apply_dofs, dof_points, evaluate
from sgfem.mesh import mesh_geometry


def to_bary(geom, xy):
    """Barycentric coordinates (q, 3) of physical points (q, 2) in one
    triangle."""
    xy = np.atleast_2d(xy)
    return 1.0 / 3.0 + (xy - geom.vertices.mean(axis=0)) @ geom.grad_lambda.T


def eval_all(basis, bary):
    """Values (n, q), gradients (n, q, 2) and Hessians (n, q, 2, 2) of the
    shapes of a ``LocalBasis`` at barycentric points (q, 3)."""
    tables = MonoTables(bary)
    grads, hess = evaluate(basis.coeffs[None], basis.geom.grad_lambda[None], tables)
    return basis.coeffs @ tables.M, grads[0], hess[0]


def interpolate(basis, value_fn, grad_fn):
    """Local coefficients of the interpolant of a smooth scalar function.

    ``value_fn(xy)`` and ``grad_fn(xy)`` take points (q, 2) and return
    values (q,) and gradients (q, 2); they are called once, on the points
    of ``dof_points``.
    """
    xy = dof_points(basis.geom)
    values = np.asarray(value_fn(xy), dtype=float).reshape(1, 1, -1)
    grads = np.asarray(grad_fn(xy), dtype=float).reshape(1, 1, -1, 2)
    one = basis.geom.batch_of_one()
    return apply_dofs(basis.family, values, grads, one, basis.signs[None])[0, 0]


def interpolate_field(dofmap, value, grad):
    """The global coefficient vector of the interpolant of a smooth vector
    field, all triangles at once.

    ``value(xy)`` maps points (q, 2) to values (q, 2) and ``grad(xy)`` to
    gradients (q, 2, 2), row ``c`` the gradient of component ``c``.  Shared
    degrees of freedom must receive the same value from every adjacent
    element; that agreement is asserted on the way.
    """
    geom = mesh_geometry(dofmap.mesh)
    xy = dof_points(geom)
    ntri, npts = xy.shape[:2]
    values = np.asarray(value(xy.reshape(-1, 2))).reshape(ntri, npts, 2)
    grads = np.asarray(grad(xy.reshape(-1, 2))).reshape(ntri, npts, 2, 2)
    # (T, component, local dof)
    signs = dofmap.mesh.tri_edge_signs
    local = apply_dofs(dofmap.kind, values.swapaxes(1, 2), grads.swapaxes(1, 2), geom, signs)
    ids = 2 * dofmap.scatter[:, None, :] + np.arange(2)[:, None]
    full = np.full(dofmap.n_vector, np.nan)
    full[ids] = local
    assert not np.any(np.isnan(full))
    assert_allclose(full[ids], local, rtol=1e-9, atol=1e-9)
    return full


def class_count(mesh):
    """The number of distinct rows of edge vectors (edge ``i`` from local
    vertex ``i + 1`` to ``i + 2``) and edge normal signs, by a row-wise
    ``np.unique`` on values."""
    coords = mesh.vertices[mesh.triangles]
    edges = coords[:, [2, 0, 1]] - coords[:, [1, 2, 0]]
    key = np.hstack([edges.reshape(-1, 6), mesh.tri_edge_signs])
    return len(np.unique(key, axis=0))
