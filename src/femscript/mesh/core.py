"""Triangular mesh container plus the structured-grid constructor.

A mesh is immutable once built: vertex coordinates, triangle connectivity
and labeled boundary edges live in read-only numpy arrays, and derived
geometry (areas, basis gradients, edge-to-triangle lookup) is cached lazily.
"""

import numpy as np

from ..errors import FoldOverError, InvalidArgumentError


class Mesh:
    """2D conforming triangulation with integer-labeled boundary edges."""

    def __init__(self, points, triangles, edges, *, vertex_labels=None,
                 regions=None, edge_labels=None):
        self.points = np.ascontiguousarray(points, dtype=float)
        self.tri = np.ascontiguousarray(triangles, dtype=np.int64)
        edges = np.asarray(edges, dtype=np.int64)
        self.edge = edges.reshape(-1, 2)
        self.vertex_label, self.region, self.edge_label = (
            np.ascontiguousarray(np.zeros(n) if v is None else v, dtype=np.int64)
            for v, n in ((vertex_labels, len(self.points)), (regions, len(self.tri)),
                         (edge_labels, len(self.edge))))
        self._cache = {}
        self._validate()
        for arr in (self.points, self.tri, self.edge, self.vertex_label,
                    self.region, self.edge_label):
            arr.setflags(write=False)

    # -- basic counts ----------------------------------------------------

    @property
    def nv(self):
        return len(self.points)

    @property
    def nt(self):
        return len(self.tri)

    @property
    def ne(self):
        return len(self.edge)

    def __repr__(self):
        return f"Mesh(nv={self.nv}, nt={self.nt}, ne={self.ne})"

    # -- validation ------------------------------------------------------

    def _validate(self):
        if not np.all(np.isfinite(self.points)):
            raise InvalidArgumentError("mesh has non-finite vertex coordinates")
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise InvalidArgumentError("points must have shape (nv, 2)")
        if self.tri.size and (self.tri.min() < 0 or self.tri.max() >= self.nv):
            raise InvalidArgumentError("triangle vertex index out of range")
        if self.edge.size and (self.edge.min() < 0 or self.edge.max() >= self.nv):
            raise InvalidArgumentError("boundary edge vertex index out of range")
        t = self.tri
        if t.size and ((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])).any():
            raise InvalidArgumentError("triangle with repeated vertex")
        if t.size and (self.signed_areas() <= 0).any():
            k = int(np.argmin(self.signed_areas()))
            raise InvalidArgumentError(
                f"triangle {k} has non-positive area {self.signed_areas()[k]:g}")

    # -- cached geometry ---------------------------------------------------

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def signed_areas(self):
        return self._cached("areas", lambda: _signed_areas(self.points, self.tri))

    def total_area(self) -> float:
        return float(self.signed_areas().sum())

    def barycenters(self):
        return self._cached("bary", lambda: self.points[self.tri].mean(axis=1))

    def basis_gradients(self):
        """Gradients of the three barycentric coordinates per triangle.

        Returns (gx, gy), each of shape (nt, 3).
        """
        def build():
            x, y = self.points[:, 0][self.tri.T], self.points[:, 1][self.tri.T]
            a2, g = 2.0 * self.signed_areas(), np.empty((2,) + self.tri.shape)
            for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                np.divide(y[i] - y[j], a2, out=g[0, :, k])
                np.divide(x[j] - x[i], a2, out=g[1, :, k])
            return g[0], g[1]
        return self._cached("grads", build)

    def bbox(self):
        return (self.points.min(axis=0), self.points.max(axis=0))

    def diameter(self) -> float:
        def build():
            lo, hi = self.bbox()
            return float(np.hypot(*(hi - lo)))
        return self._cached("diameter", build)

    def _edge_table(self):
        """Every triangle edge (v[k], v[k+1]) as the key min*nv + max, sorted,
        with the stable argsort: `order[i]` is the flat index 3*t + k of the
        i-th smallest key, ties in ascending (t, k)."""
        a = self.tri
        b = np.roll(self.tri, -1, axis=1)
        keys = (np.minimum(a, b) * self.nv + np.maximum(a, b)).ravel()
        order = np.argsort(keys, kind="stable")
        return keys[order], order

    def edge_triangle(self):
        """For each labeled edge, the lowest-index incident triangle (-1 if
        none) and the number of incident triangles: (first, count)."""
        def build():
            keys, order = self._edge_table()
            a, b = self.edge[:, 0], self.edge[:, 1]
            want = np.minimum(a, b) * self.nv + np.maximum(a, b)
            lo = np.searchsorted(keys, want, side="left")
            count = np.searchsorted(keys, want, side="right") - lo
            first = np.full(self.ne, -1, dtype=np.int64)
            hit = count > 0
            first[hit] = order[lo[hit]] // 3
            return first, count
        return self._cached("edge_tri", build)

    def boundary_labels(self):
        return sorted(int(v) for v in np.unique(self.edge_label))

    def vertices_on_labels(self, labels):
        """Vertices incident to a labeled edge with label in `labels` (sorted)."""
        labels = set(int(v) for v in labels)
        mask = np.isin(self.edge_label, list(labels))
        return np.unique(self.edge[mask])


def build_square(m: int, n: int) -> Mesh:
    """Structured mesh of the unit square: m x n cells, each split along the
    (i,j)-(i+1,j+1) diagonal.  Boundary labels: 1 bottom, 2 right, 3 top, 4 left.

    Vertex (i, j) has index j*(m+1) + i.  Cells come row by row, each as the
    triangles (a, b, c) and (a, c, d) with a = (i, j), b = (i+1, j),
    c = (i+1, j+1), d = (i, j+1).  Boundary edges run counter-clockwise from
    (0, 0).  A vertex takes the label of the first boundary edge touching it.
    """
    if m < 1 or n < 1:
        raise InvalidArgumentError(f"square needs m, n >= 1, got {m}, {n}")
    xs = np.linspace(0.0, 1.0, m + 1)
    ys = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    points = np.column_stack([X.ravel(), Y.ravel()])

    vid = np.arange((m + 1) * (n + 1)).reshape(n + 1, m + 1)   # vid[j, i]
    a, b = vid[:-1, :-1].ravel(), vid[:-1, 1:].ravel()
    c, d = vid[1:, 1:].ravel(), vid[1:, :-1].ravel()
    tris = np.stack([np.stack([a, b, c], axis=1),
                     np.stack([a, c, d], axis=1)], axis=1).reshape(-1, 3)

    ring = np.concatenate([vid[0, :],            # bottom, left to right
                           vid[1:, m],           # right, upward
                           vid[n, m - 1::-1],    # top, right to left
                           vid[n - 1::-1, 0]])   # left, downward
    edges = np.column_stack([ring[:-1], ring[1:]])
    labels = np.repeat(np.array([1, 2, 3, 4], dtype=np.int64), [m, n, m, n])

    vlab = np.zeros((n + 1, m + 1), dtype=np.int64)
    vlab[:, 0] = 4
    vlab[n, :] = 3
    vlab[:, m] = 2
    vlab[0, :] = 1
    return Mesh(points, tris, edges, vertex_labels=vlab.ravel(), edge_labels=labels)


def _signed_areas(points, tri):
    x, y = points[:, 0][tri.T], points[:, 1][tri.T]     # (3, nt): a vector per corner
    return 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))


def move_mesh(mesh: Mesh, transform) -> Mesh:
    """Apply a coordinate transform, keeping connectivity and labels.

    `transform` maps the vertex coordinate arrays (x, y) to a pair of new
    coordinate arrays.  Raises FoldOverError if any transformed triangle
    degenerates or flips.
    """
    px, py = mesh.points[:, 0], mesh.points[:, 1]
    qx, qy = transform(px, py)
    points = np.column_stack([np.broadcast_to(np.asarray(qx, dtype=float), px.shape),
                              np.broadcast_to(np.asarray(qy, dtype=float), py.shape)])
    areas = _signed_areas(points, mesh.tri)
    if (areas <= 0).any():
        k = int(np.argmin(areas))
        raise FoldOverError(f"transform folds triangle {k} (area {areas[k]:g})")
    return Mesh(points, mesh.tri, mesh.edge, vertex_labels=mesh.vertex_label,
                regions=mesh.region, edge_labels=mesh.edge_label)
