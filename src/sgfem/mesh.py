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

    def to_xy(self, bary: np.ndarray) -> np.ndarray:
        """Map barycentric points (n, 3) to physical coordinates (n, 2)."""
        return np.asarray(bary) @ self.vertices

    def to_bary(self, xy: np.ndarray) -> np.ndarray:
        """Map physical points (n, 2) to barycentric coordinates (n, 3)."""
        xy = np.atleast_2d(xy)
        lam = 1.0 / 3.0 + (xy - self.vertices.mean(axis=0)) @ self.grad_lambda.T
        return lam

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


def element_geometry(mesh: Mesh, index: int) -> ElementGeometry:
    """Geometry of triangle ``index`` of ``mesh``."""
    return triangle_geometry(mesh.vertices[mesh.triangles[index]])


def mesh_geometry(mesh: Mesh) -> ElementGeometry:
    """Geometry of every triangle of ``mesh`` as one batch."""
    return triangle_geometry(mesh.vertices[mesh.triangles])


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

    def vid(i, j):
        return j * (n + 1) + i

    triangles = []
    for j in range(n):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            triangles.append([v00, v10, v11])
            triangles.append([v00, v11, v01])
    return Mesh(vertices, np.array(triangles))


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
    triangles = np.array(indices).reshape(nt, 3)
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= nv:
        raise ValueError(f"{path}: triangle vertex index out of range")
    for t, (i, j, k) in enumerate(triangles):
        if len({i, j, k}) != 3:
            raise ValueError(f"{path}: triangle {t} repeats a vertex")
        a, b, c = vertices[i], vertices[j], vertices[k]
        twice_area = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if abs(twice_area) < 1e-14:
            raise ValueError(f"{path}: triangle {t} is degenerate")
        if twice_area < 0.0:
            triangles[t] = [i, k, j]
    mesh = Mesh(vertices, triangles)
    mesh.validate()
    return mesh
