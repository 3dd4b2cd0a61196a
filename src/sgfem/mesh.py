"""Triangle meshes of planar domains, with edge topology and per-element geometry.

Conventions
-----------
* Triangles are stored counter-clockwise; local edge ``i`` is opposite local
  vertex ``i`` and runs from local vertex ``i+1`` to ``i+2`` (mod 3).
* Every edge carries a global unit normal obtained by rotating the unit
  vector from its lower-numbered to its higher-numbered endpoint by 90
  degrees counter-clockwise.  ``tri_edge_signs[t, i]`` is +1 where that
  global normal coincides with the outward normal of triangle ``t`` on its
  local edge ``i`` and -1 where it is opposite.  Degree-of-freedom
  functionals tied to edge normals use the global normal so that the two
  elements sharing an edge agree on them.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mesh",
    "ElementGeometry",
    "make_structured",
    "load_mesh",
    "refine",
    "element_geometry",
    "mesh_geometry",
    "triangle_geometry",
    "translation_classes",
]

# Local edge i runs from local vertex _TAIL[i] = i+1 to _HEAD[i] = i+2 (mod 3).
_TAIL = [1, 2, 0]
_HEAD = [2, 0, 1]


@dataclass(frozen=True)
class ElementGeometry:
    """Geometric data for one triangle, or for a batch of ``T`` triangles.

    The shapes below are those of one triangle; a batch built from a
    (T, 3, 2) vertex array carries a leading axis of length ``T`` on every
    field (``area`` and ``chunkiness`` become arrays of shape (T,)).

    Attributes
    ----------
    vertices : ndarray, shape (3, 2)
        Vertex coordinates, counter-clockwise.
    area : float
        Positive area.
    grad_lambda : ndarray, shape (3, 2)
        Gradients of the three barycentric coordinates.
    edge_lengths : ndarray, shape (3,)
        Length of edge ``i`` (opposite vertex ``i``).
    altitudes : ndarray, shape (3,)
        Distance from vertex ``i`` to edge ``i``; equals ``2 * area / length``.
    normals : ndarray, shape (3, 2)
        Outward unit normals of the three edges.
    midpoints : ndarray, shape (3, 2)
        Edge midpoints.
    chunkiness : float
        Diameter over inscribed-circle diameter.
    """

    vertices: np.ndarray
    area: float
    grad_lambda: np.ndarray
    edge_lengths: np.ndarray
    altitudes: np.ndarray
    normals: np.ndarray
    midpoints: np.ndarray
    chunkiness: float

    def batch_of_one(self) -> "ElementGeometry":
        """This triangle's geometry as a batch with ``T = 1``."""
        return triangle_geometry(self.vertices[None])


def triangle_geometry(coords: np.ndarray) -> ElementGeometry:
    """Build :class:`ElementGeometry` from a (3, 2) or (T, 3, 2) vertex array.

    Raises ``ValueError`` if any triangle is degenerate or clockwise.
    """
    coords = np.asarray(coords, dtype=float)
    e1 = coords[..., 1, :] - coords[..., 0, :]
    e2 = coords[..., 2, :] - coords[..., 0, :]
    twice_area = (e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])[()]
    if not np.all(twice_area > 0.0):
        raise ValueError("triangle is degenerate or clockwise")

    edge_vec = coords[..., _HEAD, :] - coords[..., _TAIL, :]
    lengths = np.linalg.norm(edge_vec, axis=-1)
    tangents = edge_vec / lengths[..., None]
    # Outward normal: clockwise rotation of the ccw travel direction.
    normals = np.stack([tangents[..., 1], -tangents[..., 0]], axis=-1)
    # grad(lambda_i) is the inward normal of edge i over the altitude,
    # i.e. the ccw rotation of the edge vector divided by twice the area.
    grad_lambda = np.stack([-edge_vec[..., 1], edge_vec[..., 0]], axis=-1)
    grad_lambda /= twice_area[..., None, None]
    inscribed = 2.0 * twice_area / lengths.sum(axis=-1)
    return ElementGeometry(
        vertices=coords,
        area=0.5 * twice_area,
        grad_lambda=grad_lambda,
        edge_lengths=lengths,
        altitudes=twice_area[..., None] / lengths,
        normals=normals,
        midpoints=0.5 * (coords[..., _TAIL, :] + coords[..., _HEAD, :]),
        chunkiness=lengths.max(axis=-1) / inscribed,
    )


class Mesh:
    """Conforming triangulation with derived edge tables.

    Parameters
    ----------
    vertices : ndarray, shape (V, 2)
    triangles : ndarray, shape (T, 3)
        Counter-clockwise vertex indices.

    Attributes
    ----------
    edge_vertices : ndarray, shape (E, 2)
        Endpoints of each edge, lower index first.
    edge_tris : ndarray, shape (E, 2)
        Adjacent triangles; the second entry is -1 on the boundary.
    edge_is_boundary : ndarray of bool, shape (E,)
    edge_normals : ndarray, shape (E, 2)
        Global unit normals (see module docstring).
    tri_edges : ndarray, shape (T, 3)
        Global edge index of each local edge.
    tri_edge_signs : ndarray, shape (T, 3)
        +1 where the global normal is outward for the triangle, else -1.
    vertex_is_boundary : ndarray of bool, shape (V,)
    """

    def __init__(self, vertices: np.ndarray, triangles: np.ndarray):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must have shape (V, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must have shape (T, 3)")
        self._build_edges()

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def num_edges(self) -> int:
        return len(self.edge_vertices)

    def _build_edges(self):
        # Edges are numbered by first appearance, triangle-major then local
        # edge; the dof numbering, and with it the LU ordering, follows it.
        tris = self.triangles
        tail, head = tris[:, _TAIL].ravel(), tris[:, _HEAD].ravel()
        low, high = np.minimum(tail, head), np.maximum(tail, head)
        _, first, inverse, counts = np.unique(
            low * self.num_vertices + high,
            return_index=True,
            return_inverse=True,
            return_counts=True,
        )
        if np.any(counts > 2):
            bad = first[counts > 2].min()
            raise ValueError(f"edge ({low[bad]}, {high[bad]}) is shared by more than two triangles")
        order = np.argsort(first)
        slots = np.argsort(order)[inverse]
        self.tri_edges = slots.reshape(-1, 3)
        self.edge_vertices = np.column_stack([low, high])[first[order]]
        last = np.zeros(len(first), dtype=np.int64)
        np.maximum.at(last, slots, np.arange(len(slots)))
        self.edge_is_boundary = counts[order] == 1
        self.edge_tris = np.column_stack(
            [first[order] // 3, np.where(self.edge_is_boundary, -1, last // 3)]
        )

        vec = self.vertices[self.edge_vertices[:, 1]] - self.vertices[self.edge_vertices[:, 0]]
        vec /= np.linalg.norm(vec, axis=1)[:, None]
        self.edge_normals = np.column_stack([-vec[:, 1], vec[:, 0]])

        # Outward normal of triangle t on local edge i is the clockwise
        # rotation of the traversal direction; its sign against the global
        # normal flips with the traversal order of the endpoints.
        self.tri_edge_signs = np.where(tris[:, _TAIL] > tris[:, _HEAD], 1, -1)

        self.vertex_is_boundary = np.zeros(self.num_vertices, dtype=bool)
        bnd = self.edge_vertices[self.edge_is_boundary]
        self.vertex_is_boundary[bnd.ravel()] = True

    def validate(self):
        """Check mesh invariants; raises ValueError on the first violation."""
        mesh_geometry(self)
        n_int = int(np.count_nonzero(~self.edge_is_boundary))
        n_bnd = self.num_edges - n_int
        if 3 * self.num_triangles != 2 * n_int + n_bnd:
            raise ValueError("edge incidence count is inconsistent")
        interior = self.edge_tris[~self.edge_is_boundary]
        if np.any(interior < 0):
            raise ValueError("interior edge with a missing neighbour")
        uses = np.bincount(self.triangles.ravel(), minlength=self.num_vertices)
        if np.any(uses == 0):
            raise ValueError(f"vertex {np.argmin(uses)} belongs to no triangle")


def element_geometry(mesh: Mesh, index: int) -> ElementGeometry:
    """Geometry of triangle ``index`` of ``mesh``."""
    return triangle_geometry(mesh.vertices[mesh.triangles[index]])


def mesh_geometry(mesh: Mesh) -> ElementGeometry:
    """Geometry of every triangle of ``mesh`` as one batch."""
    return triangle_geometry(mesh.vertices[mesh.triangles])


def translation_classes(mesh: Mesh):
    """Group the triangles of ``mesh`` that are equal up to translation and
    carry the same edge normal signs.

    Returns ``(first, classes)``: ``first[c]`` is the first triangle of
    class ``c`` and ``classes[t]`` the class of triangle ``t``.  The key of
    a triangle is the exact bytes of its three edge vectors, as
    :func:`triangle_geometry` computes them, and of its signs.  Everything
    that geometry derives from the vertices apart from ``vertices`` and
    ``midpoints`` is a function of the edge vectors alone, so it is
    bit-for-bit equal across a class, ``area`` and ``grad_lambda``
    included.  A red-refined uniform mesh has a few classes at every
    level; a perturbed mesh has one class per triangle.
    """
    coords = mesh.vertices[mesh.triangles]
    edge_vec = coords[:, _HEAD] - coords[:, _TAIL]
    key = np.hstack([edge_vec.reshape(-1, 6), mesh.tri_edge_signs.astype(float)])
    # One unique over whole rows as opaque bytes: far faster than axis=0.
    rows = np.ascontiguousarray(key).view(np.dtype((np.void, key.itemsize * key.shape[1])))
    _, first, classes = np.unique(rows.ravel(), return_index=True, return_inverse=True)
    return first, classes


def make_structured(n: int) -> Mesh:
    """Uniform triangulation of the unit square with ``2 n^2`` triangles.

    Each cell of an ``n`` by ``n`` grid is split along the diagonal from its
    lower-left to its upper-right corner, so the mesh size is ``sqrt(2)/n``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    ticks = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(ticks, ticks, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    # Cell (i, j), row by row, has lower-left vertex j (n + 1) + i and
    # gives the triangles (v00, v10, v11) and (v00, v11, v01) in turn.
    j, i = np.divmod(np.arange(n * n), n)
    v00 = j * (n + 1) + i
    v01 = v00 + n + 1
    triangles = np.column_stack([v00, v00 + 1, v01 + 1, v00, v01 + 1, v01])
    return Mesh(vertices, triangles.reshape(-1, 3))


def refine(mesh: Mesh) -> Mesh:
    """Red refinement: each triangle is split into four similar children."""
    mid = 0.5 * (
        mesh.vertices[mesh.edge_vertices[:, 0]] + mesh.vertices[mesh.edge_vertices[:, 1]]
    )
    vertices = np.vstack([mesh.vertices, mid])
    v0, v1, v2 = mesh.triangles.T
    # m_i is the midpoint of the edge opposite vertex i.
    m0, m1, m2 = (mesh.num_vertices + mesh.tri_edges).T
    children = np.stack([v0, m2, m1, m2, v1, m0, m1, m0, v2, m2, m0, m1], axis=1)
    return Mesh(vertices, children.reshape(-1, 3))


def load_mesh(path) -> Mesh:
    """Read a mesh from a text file.

    The format is: a first line ``V T``, then ``V`` lines of vertex
    coordinates ``x y``, then ``T`` lines of 0-based vertex indices
    ``i j k``.  Clockwise triangles are reoriented; degenerate ones are
    rejected.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: missing header")
    try:
        nv, nt = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed header") from exc
    need = 2 + 2 * nv + 3 * nt
    if len(tokens) != need:
        raise ValueError(f"{path}: expected {need} numbers, found {len(tokens)}")
    try:
        values = [float(t) for t in tokens[2 : 2 + 2 * nv]]
        indices = [int(t) for t in tokens[2 + 2 * nv :]]
    except ValueError as exc:
        raise ValueError(f"{path}: malformed entry") from exc
    vertices = np.array(values).reshape(nv, 2)
    triangles = np.array(indices, dtype=np.int64).reshape(nt, 3)
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= nv:
        raise ValueError(f"{path}: triangle vertex index out of range")
    i, j, k = triangles.T
    repeats = (i == j) | (j == k) | (k == i)
    a, b, c = vertices[triangles.T]
    ab, ac = b - a, c - a
    twice_area = ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]
    bad = repeats | (np.abs(twice_area) < 1e-14)
    if bad.any():
        t = int(bad.argmax())
        problem = "repeats a vertex" if repeats[t] else "is degenerate"
        raise ValueError(f"{path}: triangle {t} {problem}")
    flip = twice_area < 0.0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    mesh = Mesh(vertices, triangles)
    mesh.validate()
    return mesh
