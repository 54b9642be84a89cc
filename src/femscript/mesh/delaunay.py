"""Mesh generation from parametrized oriented borders.

Pipeline: sample every border at |count| intervals, weld coincident
endpoints, run an incremental Delaunay triangulation of the samples inside
a super-triangle, recover any missing boundary segments as constrained
edges, classify triangles by winding number (region left of each oriented
border is kept, so a clockwise loop carves a hole), then refine the kept
region by inserting circumcenters of triangles whose longest edge exceeds
the local boundary spacing scaled by `size_factor`.

Predicates use an epsilon relative to the domain diameter; cocircular or
collinear ties count as "not inside", which keeps insertion terminating on
symmetric inputs (all samples of one circle are cocircular).

The meshes are reproducible bit for bit, and three orders in `smooth` fix
their last bits, so a faster version must keep all three:
- a vertex moves to the mean of its ring, summed in the iteration order of
  the ring's set, which follows the order of insertion (triangles by index);
- vertices move Gauss-Seidel style in sorted order, each one seeing the
  neighbours that already moved;
- `_relegalize` flips in triangle-index sweep order; a worklist would change
  which of two cocircular diagonals survives.
"""

import heapq
import math
from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..errors import GeometryError, InvalidArgumentError
from .core import Mesh

EPS_REL = 1e-12

# Interior refinement: split while the longest edge exceeds size_factor
# times the local boundary spacing, or while the circumradius exceeds
# QUALITY_BOUND times the shortest edge (a 30-degree minimum-angle bound).
# The defaults, together with the smoothing passes, are calibrated against
# the published cubic nonlinear table only (its rows land within +-15%).
# They do not reproduce FreeFem++'s disk meshes: the big-Dirichlet rows move
# by more than 20% with size_factor and smoothing.
DEFAULT_SIZE_FACTOR = 1.1
DEFAULT_SMOOTHING_PASSES = 3
QUALITY_BOUND = 1.0
# refinement stops with a GeometryError beyond this many points
MAX_POINTS = 2_000_000


def _orient(pa, pb, pc):
    """Twice the signed area of (pa, pb, pc). Like `_incircle`, it takes
    (x, y) pairs or numpy arrays of x and y rows, with the same arithmetic."""
    return (pb[0] - pa[0]) * (pc[1] - pa[1]) - (pb[1] - pa[1]) * (pc[0] - pa[0])


def _incircle(pa, pb, pc, pd):
    """Positive when pd lies inside the circle through the CCW (pa, pb, pc)."""
    adx, ady = pa[0] - pd[0], pa[1] - pd[1]
    bdx, bdy = pb[0] - pd[0], pb[1] - pd[1]
    cdx, cdy = pc[0] - pd[0], pc[1] - pd[1]
    ad = adx * adx + ady * ady
    bd = bdx * bdx + bdy * bdy
    cd = cdx * cdx + cdy * cdy
    return (adx * (bdy * cd - bd * cdy)
            - ady * (bdx * cd - bd * cdx)
            + ad * (bdx * cdy - bdy * cdx))


@dataclass(frozen=True)
class Border:
    """Oriented boundary piece: param maps t in [t0, t1] to a point.

    A negative count traverses the curve backwards, which flips the side
    that gets meshed (holes).
    """
    param: callable
    t0: float
    t1: float
    count: int
    label: int = 0

    def sample(self):
        n = abs(int(self.count))
        if n < 1:
            raise InvalidArgumentError("border count must satisfy |count| >= 1")
        ts = np.linspace(self.t0, self.t1, n + 1)
        pts = [self.param(float(t)) for t in ts]
        pts = [(float(p[0]), float(p[1])) for p in pts]
        if self.count < 0:
            pts.reverse()
        return pts


class _Triangulation:
    """Incremental Delaunay with constrained edges (flip-based insertion)."""

    def __init__(self, scale):
        self.pts = []            # [x, y]
        self.tris = []           # [a, b, c] CCW or None when deleted
        self.nbr = []            # [n0, n1, n2], edge k = (v[k], v[k+1])
        self.kept = []           # classification flag per triangle
        self.constrained = set()  # {(min,max)}
        self.tol_orient = EPS_REL * scale * scale
        self.tol_in = EPS_REL * scale ** 4
        self.tol_pt2 = (EPS_REL * scale) ** 2
        self._hint = 0

    # -- predicates -------------------------------------------------------

    _orient = staticmethod(_orient)

    def _corners(self, t):
        i, j, k = self.tris[t]
        return self.pts[i], self.pts[j], self.pts[k]

    # -- topology helpers --------------------------------------------------

    def _edge_key(self, a, b):
        return (a, b) if a < b else (b, a)

    def is_constrained(self, a, b):
        return self._edge_key(a, b) in self.constrained

    def _set_nbr(self, t, old, new):
        if t == -1:
            return
        n = self.nbr[t]
        for k in range(3):
            if n[k] == old:
                n[k] = new
                return
        raise AssertionError("broken adjacency")

    def _local(self, t, v):
        return self.tris[t].index(v)

    # -- super triangle -----------------------------------------------------

    def init_super(self, lo, hi):
        cx, cy = (lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2
        r = 50.0 * max(hi[0] - lo[0], hi[1] - lo[1], 1e-30)
        self.pts = [[cx - 2 * r, cy - r], [cx + 2 * r, cy - r], [cx, cy + 2 * r]]
        self.tris = [[0, 1, 2]]
        self.nbr = [[-1, -1, -1]]
        self.kept = [False]
        self.n_super = 3
        self._hint = 0

    # -- point location -----------------------------------------------------

    def locate(self, p, hint=None):
        """Walk to the triangle containing p.

        Returns (t, kind, k): kind "in", or "edge" with local edge k,
        or "vertex" with local vertex k.
        """
        t = self._hint if hint is None else hint
        if t >= len(self.tris) or self.tris[t] is None:
            t = next(i for i, tr in enumerate(self.tris) if tr is not None)
        seen = 0
        limit = 4 * len(self.tris) + 16
        while True:
            seen += 1
            if seen > limit:
                return self._locate_brute(p)
            o = self._edge_orients(t, p)
            worst = min(range(3), key=o.__getitem__)
            if o[worst] < -self.tol_orient:
                nxt = self.nbr[t][worst]
                if nxt == -1:
                    return self._locate_brute(p)
                t = nxt
                continue
            return self._classify(t, p, o)

    def _locate_brute(self, p):
        for t, vs in enumerate(self.tris):
            if vs is not None:
                o = self._edge_orients(t, p)
                if min(o) >= -self.tol_orient:
                    return self._classify(t, p, o)
        raise GeometryError(f"point {p} outside the triangulation")

    def _edge_orients(self, t, p):
        pa, pb, pc = self._corners(t)
        return _orient(pa, pb, p), _orient(pb, pc, p), _orient(pc, pa, p)

    def _classify(self, t, p, o):
        """`locate`'s answer for p in triangle t, whose edge orients are o."""
        self._hint = t
        for k, q in enumerate(self._corners(t)):
            if (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 <= self.tol_pt2:
                return t, "vertex", k
        for k in range(3):
            if abs(o[k]) <= self.tol_orient:
                return t, "edge", k
        return t, "in", -1

    # -- insertion -----------------------------------------------------------

    def insert(self, p, changed=None):
        """Insert p, returning its vertex index (existing index if welded)."""
        return self._insert_at(p, self.locate(p), changed)

    def _insert_at(self, p, where, changed):
        """Insert p where `locate` found it: (t, kind, k).  Returns -1 if p
        lies on a constrained edge."""
        t, kind, k = where
        if kind == "vertex":
            return self.tris[t][k]
        pi = len(self.pts)
        self.pts.append([float(p[0]), float(p[1])])
        if kind == "in":
            self._split_interior(t, pi, changed)
        else:
            a, b = self.tris[t][k], self.tris[t][(k + 1) % 3]
            if self.is_constrained(a, b):
                self.pts.pop()
                return -1
            self._split_edge(t, k, pi, changed)
        return pi

    def _split_interior(self, t, pi, changed):
        a, b, c = self.tris[t]
        nab, nbc, nca = self.nbr[t]
        kept = self.kept[t]
        t2 = len(self.tris)
        t3 = t2 + 1
        self.tris[t] = [a, b, pi]
        self.nbr[t] = [nab, t2, t3]
        self.tris.append([b, c, pi])
        self.nbr.append([nbc, t3, t])
        self.kept.append(kept)
        self.tris.append([c, a, pi])
        self.nbr.append([nca, t, t2])
        self.kept.append(kept)
        self._set_nbr(nbc, t, t2)
        self._set_nbr(nca, t, t3)
        if changed is not None:
            changed.extend((t, t2, t3))
        for tt in (t, t2, t3):
            self._legalize(tt, 0, changed)

    def _split_edge(self, t, k, pi, changed):
        a, b = self.tris[t][k], self.tris[t][(k + 1) % 3]
        c = self.tris[t][(k + 2) % 3]
        n = self.nbr[t][k]
        n_ap = self.nbr[t][(k + 2) % 3]   # across (c, a)
        n_bc = self.nbr[t][(k + 1) % 3]   # across (b, c)
        kept = self.kept[t]
        t2 = len(self.tris)
        # upper side: t -> (a, pi, c), t2 -> (pi, b, c)
        self.tris[t] = [a, pi, c]
        self.tris.append([pi, b, c])
        self.kept.append(kept)
        self.nbr.append([-1, n_bc, t])
        self._set_nbr(n_bc, t, t2)
        if n == -1:
            self.nbr[t] = [-1, t2, n_ap]
            if changed is not None:
                changed.extend((t, t2))
            self._legalize(t, 2, changed)
            self._legalize(t2, 1, changed)
            return
        kn = None
        for kk in range(3):
            if self.tris[n][kk] == b and self.tris[n][(kk + 1) % 3] == a:
                kn = kk
                break
        d = self.tris[n][(kn + 2) % 3]
        n_da = self.nbr[n][(kn + 1) % 3]  # across (a, d)
        n_bd = self.nbr[n][(kn + 2) % 3]  # across (d, b)
        keptn = self.kept[n]
        t4 = len(self.tris)
        # lower side: n -> (b, pi, d), t4 -> (pi, a, d)
        self.tris[n] = [b, pi, d]
        self.tris.append([pi, a, d])
        self.kept.append(keptn)
        self.nbr.append([t, n_da, n])
        self._set_nbr(n_da, n, t4)
        self.nbr[t] = [t4, t2, n_ap]
        self.nbr[n] = [t2, t4, n_bd]
        self.nbr[t2][0] = n
        if changed is not None:
            changed.extend((t, t2, n, t4))
        self._legalize(t, 2, changed)
        self._legalize(t2, 1, changed)
        self._legalize(n, 2, changed)
        self._legalize(t4, 1, changed)

    def _legalize(self, t0, k0, changed):
        stack = [(t0, k0)]
        while stack:
            t, k = stack.pop()
            if self.tris[t] is None:
                continue
            a, b = self.tris[t][k], self.tris[t][(k + 1) % 3]
            n = self.nbr[t][k]
            if n == -1 or self.is_constrained(a, b):
                continue
            vn = self.tris[n]
            kn = vn.index(b) if b in vn else -1
            if kn < 0 or vn[(kn + 1) % 3] != a:
                continue
            d = vn[(kn + 2) % 3]
            if _incircle(*self._corners(t), self.pts[d]) <= self.tol_in:
                continue
            c = self.tris[t][(k + 2) % 3]
            n_bc = self.nbr[t][(k + 1) % 3]
            n_ca = self.nbr[t][(k + 2) % 3]
            n_ad = self.nbr[n][(kn + 1) % 3]
            n_db = self.nbr[n][(kn + 2) % 3]
            self.tris[t] = [a, d, c]
            self.nbr[t] = [n_ad, n, n_ca]
            self.tris[n] = [d, b, c]
            self.nbr[n] = [n_db, n_bc, t]
            self._set_nbr(n_ad, n, t)
            self._set_nbr(n_bc, t, n)
            if changed is not None:
                changed.extend((t, n))
            stack.extend(((t, 0), (n, 0)))

    # -- constrained edge recovery -------------------------------------------

    def live_edges(self):
        out = set()
        for vs in self.tris:
            if vs is None:
                continue
            for k in range(3):
                out.add(self._edge_key(vs[k], vs[(k + 1) % 3]))
        return out

    def recover_segment(self, a, b):
        """Force edge (a, b) into the triangulation by cavity retriangulation."""
        pa, pb = self.pts[a], self.pts[b]
        # find the triangle at a whose opposite edge the segment crosses
        start = None
        for t, vs in enumerate(self.tris):
            if vs is None or a not in vs:
                continue
            k = vs.index(a)
            u, w = vs[(k + 1) % 3], vs[(k + 2) % 3]
            if u == b or w == b:
                return  # edge already present
            o1 = self._orient(pa, pb, self.pts[u])
            o2 = self._orient(pa, pb, self.pts[w])
            if abs(o1) <= self.tol_orient or abs(o2) <= self.tol_orient:
                continue
            if o1 < 0 < o2:
                start = t
                break
        if start is None:
            raise GeometryError(
                "cannot recover boundary segment (a sampled point lies on it?)")
        upper = []    # vertices left of a->b, in crossing order
        lower = []    # vertices right of a->b
        dead = []
        t = start
        while True:
            vs = self.tris[t]
            dead.append(t)
            if b in vs:
                break
            exit_k = None
            for kk in range(3):
                u, w = vs[kk], vs[(kk + 1) % 3]
                ou = self._orient(pa, pb, self.pts[u])
                ow = self._orient(pa, pb, self.pts[w])
                if ou < -self.tol_orient and ow > self.tol_orient:
                    if self.nbr[t][kk] in dead:
                        continue
                    exit_k = kk
                    break
            if exit_k is None:
                raise GeometryError("segment recovery lost its way (degenerate boundary)")
            u, w = vs[exit_k], vs[(exit_k + 1) % 3]
            if self.is_constrained(u, w):
                raise GeometryError("boundary segments cross each other")
            if not lower or lower[-1] != u:
                lower.append(u)
            if not upper or upper[-1] != w:
                upper.append(w)
            t = self.nbr[t][exit_k]
            if t == -1:
                raise GeometryError("segment recovery walked out of the triangulation")
        kept = self.kept[dead[0]]
        for t in dead:
            self.tris[t] = None
            self.nbr[t] = None
            self.kept[t] = False
        new = []
        self._fill_cavity(upper, a, b, new)
        self._fill_cavity(list(reversed(lower)), b, a, new)
        for t in new:
            self.kept[t] = kept
        self._rebuild_adjacency()

    def _fill_cavity(self, chain, a, b, new):
        """Triangulate the cavity left of a->b whose far side is `chain`.

        Classic recursive retriangulation: pick the chain vertex c whose
        circumcircle with (a, b) is empty of the other chain vertices, emit
        CCW triangle (a, b, c), recurse on the sub-chains.
        """
        if not chain:
            return
        ci = 0
        if len(chain) > 1:
            pa, pb = self.pts[a], self.pts[b]
            for j in range(1, len(chain)):
                if _incircle(pa, pb, self.pts[chain[ci]], self.pts[chain[j]]) > self.tol_in:
                    ci = j
        c = chain[ci]
        t = len(self.tris)
        self.tris.append([a, b, c])
        self.nbr.append([-1, -1, -1])
        self.kept.append(False)
        new.append(t)
        self._fill_cavity(chain[:ci], a, c, new)
        self._fill_cavity(chain[ci + 1:], c, b, new)

    def _rebuild_adjacency(self):
        owner = {}
        for t, vs in enumerate(self.tris):
            if vs is None:
                continue
            self.nbr[t] = [-1, -1, -1]
        for t, vs in enumerate(self.tris):
            if vs is None:
                continue
            for k in range(3):
                key = self._edge_key(vs[k], vs[(k + 1) % 3])
                if key in owner:
                    t2, k2 = owner.pop(key)
                    self.nbr[t][k] = t2
                    self.nbr[t2][k2] = t
                else:
                    owner[key] = (t, k)

    # -- smoothing ----------------------------------------------------------

    def smooth(self, passes=3):
        """Laplacian smoothing of interior vertices, then Delaunay repair.

        A vertex moves to its one-ring centroid only if every incident
        triangle keeps positive area; constrained and super vertices stay.
        Rings are rebuilt only where triangles flipped (module docstring).
        """
        pts, tris = self.pts, self.tris
        fixed = {v for key in self.constrained for v in key}
        incident, ring = {}, {}
        changed = [t for t, vs in enumerate(tris) if vs is not None]
        for _ in range(passes):
            # a vertex whose incident triangles changed is in a changed one now
            now = {v: [] for t in changed for v in tris[t]}
            for t in changed:
                for v in tris[t] if self.kept[t] else ():
                    now[v].append(t)
            for a, ts in now.items():
                ts += [t for t in incident.get(a, ()) if a in tris[t] and t not in ts]
                ts.sort()
                incident[a] = ts
                ring[a] = self._ring(a, ts)
            for a in sorted(a for a, ts in incident.items()
                            if ts and a >= self.n_super and a not in fixed):
                nbrs = ring[a]
                cx = sum([pts[v][0] for v in nbrs]) / len(nbrs)
                cy = sum([pts[v][1] for v in nbrs]) / len(nbrs)
                old = pts[a]
                pts[a] = [cx, cy]
                for t in incident[a]:
                    i, j, k = tris[t]
                    if self._orient(pts[i], pts[j], pts[k]) <= self.tol_orient:
                        pts[a] = old
                        break
            changed = self._relegalize()

    def _ring(self, a, ts):
        """a's neighbours in the set order a sweep over ts in index order gives."""
        ring = set()
        for t in ts:
            i, j, k = self.tris[t]
            ring.update((j, k) if a == i else (k, i) if a == j else (i, j))
        return tuple(ring)

    def _relegalize(self, max_sweeps=20):
        """Sweep the kept triangles' edges in index order with `_legalize` until
        a sweep flips nothing; return the flipped triangles. Only candidates
        and edges of or facing a flipped triangle are visited: any other edge
        is in the state `_flip_candidates` saw, so `_legalize` would not flip it.
        """
        cand = self._flip_candidates()
        flipped = set()
        for _ in range(max_sweeps):
            flips = []
            queued = {t for t, _ in cand} | {m for f in flipped for m in (f, *self.nbr[f])}
            pending = sorted(queued - {-1})
            while pending:
                t = heapq.heappop(pending)
                if not self.kept[t]:
                    continue
                for k in range(3):
                    if (t, k) in cand or t in flipped or self.nbr[t][k] in flipped:
                        n_flips = len(flips)
                        self._legalize(t, k, flips)
                        flipped.update(flips[n_flips:])
                        for f in flips[n_flips:]:
                            for m in (f, *self.nbr[f]):
                                if m > t and m not in queued:
                                    queued.add(m)
                                    heapq.heappush(pending, m)
            if not flips:
                break
        return flipped

    def _flip_candidates(self):
        """Edges (t, k) of kept triangles that `_legalize` would flip now: the
        same `_incircle` test on numpy rows, hence the same bits."""
        pts = np.array(self.pts)
        tri = np.fromiter(chain.from_iterable(vs or (0, 0, 0) for vs in self.tris),
                          np.int64).reshape(-1, 3)
        nbr = np.fromiter(chain.from_iterable(ns or (-1, -1, -1) for ns in self.nbr),
                          np.int64).reshape(-1, 3)
        corners = [pts[tri[:, j]].T for j in range(3)]
        out = set()
        for k in range(3):
            n = nbr[:, k]
            d = tri[n].sum(axis=1) - tri[:, k] - tri[:, (k + 1) % 3]  # opposite vertex
            use = np.array(self.kept) & (n >= 0) & (d >= 0) & (d < len(pts))
            det = _incircle(*corners, pts[np.where(use, d, 0)].T)
            out.update((int(t), k) for t in np.flatnonzero(use & ~(det <= self.tol_in)))
        return out

    # -- geometry ---------------------------------------------------------

    def circumcenter(self, t):
        a, b, c = self._corners(t)
        d = 2.0 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
        if abs(d) < self.tol_orient:
            return None
        a2 = a[0] * a[0] + a[1] * a[1]
        b2 = b[0] * b[0] + b[1] * b[1]
        c2 = c[0] * c[0] + c[1] * c[1]
        ux = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d
        uy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d
        return (ux, uy)

    def edge_range(self, t):
        a, b, c = self._corners(t)
        e = ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2,
             (b[0] - c[0]) ** 2 + (b[1] - c[1]) ** 2,
             (c[0] - a[0]) ** 2 + (c[1] - a[1]) ** 2)
        return math.sqrt(min(e)), math.sqrt(max(e))


def _weld_key(x, y, tol):
    return (round(x / tol), round(y / tol))


class _Welder:
    """Tolerance-based point dedup over a hash grid."""

    def __init__(self, tol):
        self.tol = tol
        self.grid = {}
        self.points = []

    def add(self, x, y):
        kx, ky = _weld_key(x, y, self.tol)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for idx in self.grid.get((kx + dx, ky + dy), ()):
                    px, py = self.points[idx]
                    if (px - x) ** 2 + (py - y) ** 2 <= self.tol * self.tol:
                        return idx
        idx = len(self.points)
        self.points.append((x, y))
        self.grid.setdefault((kx, ky), []).append(idx)
        return idx


def _check_no_crossings(points, segs, tol):
    """Raise if two boundary segments properly cross: each one's endpoints lie
    on opposite sides of the other, every orient beyond tol. A shared (welded)
    endpoint, or a segment paired with itself, makes one orient exactly 0."""
    pts = np.array(points)
    p = pts[[a for a, _, _ in segs]].T       # x and y rows
    q = pts[[b for _, b, _ in segs]].T

    def opposite(o1, o2):
        return ((o1 > tol) != (o2 > tol)) & ((o1 < -tol) != (o2 < -tol))

    rows = max(1, (1 << 18) // len(segs))      # bounds the memory of a block of pairs
    for i0 in range(0, len(segs), rows):
        i = slice(i0, i0 + rows)
        p1, q1 = p[:, i, None], q[:, i, None]
        o1, o2 = _orient(p1, q1, p), _orient(p1, q1, q)
        o3, o4 = _orient(p, q, p1), _orient(p, q, q1)
        small = np.minimum(np.minimum(abs(o1), abs(o2)), np.minimum(abs(o3), abs(o4)))
        if (opposite(o1, o2) & opposite(o3, o4) & (small > tol)).any():
            raise GeometryError("boundary segments intersect each other")


def _winding_numbers(px, py, seg_a, seg_b):
    """Winding number of each query point w.r.t. all directed segments."""
    x1, y1 = seg_a[:, 0], seg_a[:, 1]
    x2, y2 = seg_b[:, 0], seg_b[:, 1]
    px = px[:, None]
    py = py[:, None]
    up = (y1 <= py) & (py < y2)
    dn = (y2 <= py) & (py < y1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (py - y1) / (y2 - y1)
        xc = x1 + t * (x2 - x1)
    wind = np.where(up & (xc > px), 1, 0) + np.where(dn & (xc > px), -1, 0)
    return wind.sum(axis=1)


def build_from_borders(borders, size_factor=None,
                       smoothing=DEFAULT_SMOOTHING_PASSES) -> Mesh:
    """Mesh the region enclosed by the sampled border loops."""
    if size_factor is None:
        size_factor = DEFAULT_SIZE_FACTOR
    borders = list(borders)
    if not borders:
        raise InvalidArgumentError("buildmesh needs at least one border")

    samples = [b.sample() for b in borders]
    allx = [p[0] for s in samples for p in s]
    ally = [p[1] for s in samples for p in s]
    lo = (min(allx), min(ally))
    hi = (max(allx), max(ally))
    scale = max(hi[0] - lo[0], hi[1] - lo[1], 1e-30)

    welder = _Welder(1e-9 * scale)
    segs = []       # (ia, ib, label) directed, in traversal order
    for border, pts in zip(borders, samples):
        idx = [welder.add(x, y) for x, y in pts]
        for a, b in zip(idx[:-1], idx[1:]):
            if a == b:
                raise GeometryError(
                    f"border {border.label}: zero-length segment (non-injective curve?)")
            segs.append((a, b, border.label))
    points = welder.points

    degree = {}
    for a, b, _ in segs:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    odd = [v for v, d in degree.items() if d % 2 == 1]
    if odd:
        x, y = points[odd[0]]
        raise GeometryError(f"open boundary loop near ({x:g}, {y:g})")
    if any(d != 2 for d in degree.values()):
        raise GeometryError("boundary traverses a point more than once")

    _check_no_crossings(points, segs, EPS_REL * scale * scale)

    tr = _Triangulation(scale)
    tr.init_super(lo, hi)
    vert_of = {}
    for i, (x, y) in enumerate(points):
        vi = tr.insert((x, y))
        if vi < 0:
            raise GeometryError("failed to insert boundary sample")
        vert_of[i] = vi

    seg_labels = {}
    for a, b, lab in segs:
        key = tr._edge_key(vert_of[a], vert_of[b])
        seg_labels.setdefault(key, lab)
    tr.constrained = set(seg_labels.keys())
    present = tr.live_edges()
    for a, b, _ in segs:
        va, vb = vert_of[a], vert_of[b]
        if tr._edge_key(va, vb) not in present:
            tr.recover_segment(va, vb)
            present = tr.live_edges()

    # classification by winding of barycenters over the directed loops
    seg_a = np.array([points[a] for a, _, _ in segs])
    seg_b = np.array([points[b] for _, b, _ in segs])
    live = [t for t, vs in enumerate(tr.tris) if vs is not None]
    corners = [tr._corners(t) for t in live]
    bx = np.array([(a[0] + b[0] + c[0]) / 3 for a, b, c in corners])
    by = np.array([(a[1] + b[1] + c[1]) / 3 for a, b, c in corners])
    wind = _winding_numbers(bx, by, seg_a, seg_b)
    for t, w in zip(live, wind):
        tr.kept[t] = w > 0
    if not any(tr.kept):
        raise GeometryError("no interior region (are the loops clockwise?)")

    # local boundary spacing field
    bpts = np.array(points)
    acc = np.zeros(len(points))
    cnt = np.zeros(len(points))
    for a, b, _ in segs:
        d = math.dist(points[a], points[b])
        acc[a] += d
        acc[b] += d
        cnt[a] += 1
        cnt[b] += 1
    spacing = acc / np.maximum(cnt, 1)
    uniform = float(spacing.max() - spacing.min()) <= 1e-9 * float(spacing.mean())
    s_uniform = float(spacing.mean())

    def target_at(x, y):
        if uniform:
            return s_uniform
        d2 = (bpts[:, 0] - x) ** 2 + (bpts[:, 1] - y) ** 2
        return float(spacing[int(np.argmin(d2))])

    queue = deque(t for t, vs in enumerate(tr.tris) if vs is not None and tr.kept[t])
    blocked = set()
    good = set()    # points stay put while refining: a good (ordered) triple stays good
    while queue:
        t = queue.popleft()
        if t in blocked or tr.tris[t] is None or not tr.kept[t]:
            continue
        vs = tr.tris[t]
        if tuple(vs) in good:
            continue
        cx = (tr.pts[vs[0]][0] + tr.pts[vs[1]][0] + tr.pts[vs[2]][0]) / 3
        cy = (tr.pts[vs[0]][1] + tr.pts[vs[1]][1] + tr.pts[vs[2]][1]) / 3
        cc = tr.circumcenter(t)
        if cc is None:
            blocked.add(t)
            continue
        shortest, longest = tr.edge_range(t)
        radius = math.dist(cc, tr.pts[vs[0]])
        oversized = longest > size_factor * target_at(cx, cy)
        # radius/shortest-edge bound 1 enforces angles of 30 degrees and up
        skinny = radius > QUALITY_BOUND * shortest
        if not (oversized or skinny):
            good.add(tuple(vs))
            continue
        where = tr.locate(cc, hint=t)
        loc_t, kind, _ = where
        if kind == "vertex" or not tr.kept[loc_t]:
            blocked.add(t)
            continue
        if len(tr.pts) > MAX_POINTS:
            raise GeometryError("refinement exceeded the point budget")
        changed = []
        vi = tr._insert_at(cc, where, changed)
        if vi < 0:
            blocked.add(t)
            continue
        queue.extend(changed)
        if tr.tris[t] is not None:
            queue.append(t)

    del good        # a few MiB at N=256, freed before smoothing allocates its rings
    if smoothing:
        tr.smooth(passes=smoothing)
    return _extract_mesh(tr, segs, vert_of, seg_labels, borders)


def _extract_mesh(tr, segs, vert_of, seg_labels, borders):
    kept = [vs for vs, k in zip(tr.tris, tr.kept) if vs is not None and k]
    if not kept:
        raise GeometryError("empty mesh")
    used, tris = np.unique(np.array(kept, dtype=np.int64).ravel(), return_inverse=True)
    remap = dict(zip(used.tolist(), range(len(used))))
    points = np.array(tr.pts)[used]

    vlab = np.zeros(len(used), dtype=np.int64)
    edges = []
    elabs = []
    for a, b, lab in segs:
        va, vb = vert_of[a], vert_of[b]
        if va in remap and vb in remap:
            edges.append((remap[va], remap[vb]))
            elabs.append(lab)
    for (a, b), lab in zip(reversed(edges), reversed(elabs)):  # first edge wins
        vlab[a] = lab
        vlab[b] = lab
    return Mesh(points, tris.reshape(-1, 3), np.array(edges, dtype=np.int64),
                vertex_labels=vlab, edge_labels=np.array(elabs, dtype=np.int64))
