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
"""

import math
from collections import deque
from dataclasses import dataclass

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

    def _orient(self, pa, pb, pc):
        return (pb[0] - pa[0]) * (pc[1] - pa[1]) - (pb[1] - pa[1]) * (pc[0] - pa[0])

    def _incircle(self, t, p):
        a, b, c = (self.pts[v] for v in self.tris[t])
        adx, ady = a[0] - p[0], a[1] - p[1]
        bdx, bdy = b[0] - p[0], b[1] - p[1]
        cdx, cdy = c[0] - p[0], c[1] - p[1]
        ad = adx * adx + ady * ady
        bd = bdx * bdx + bdy * bdy
        cd = cdx * cdx + cdy * cdy
        return (adx * (bdy * cd - bd * cdy)
                - ady * (bdx * cd - bd * cdx)
                + ad * (bdx * cdy - bdy * cdx))

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
            vs = self.tris[t]
            pa, pb, pc = (self.pts[v] for v in vs)
            o = (self._orient(pa, pb, p), self._orient(pb, pc, p), self._orient(pc, pa, p))
            worst = min(range(3), key=lambda k: o[k])
            if o[worst] < -self.tol_orient:
                nxt = self.nbr[t][worst]
                if nxt == -1:
                    return self._locate_brute(p)
                t = nxt
                continue
            self._hint = t
            for k in range(3):
                q = self.pts[vs[k]]
                if (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 <= self.tol_pt2:
                    return t, "vertex", k
            for k in range(3):
                if abs(o[k]) <= self.tol_orient:
                    return t, "edge", k
            return t, "in", -1

    def _locate_brute(self, p):
        for t, vs in enumerate(self.tris):
            if vs is None:
                continue
            pa, pb, pc = (self.pts[v] for v in vs)
            o = (self._orient(pa, pb, p), self._orient(pb, pc, p), self._orient(pc, pa, p))
            if min(o) >= -self.tol_orient:
                self._hint = t
                for k in range(3):
                    q = self.pts[vs[k]]
                    if (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 <= self.tol_pt2:
                        return t, "vertex", k
                for k in range(3):
                    if abs(o[k]) <= self.tol_orient:
                        return t, "edge", k
                return t, "in", -1
        raise GeometryError(f"point {p} outside the triangulation")

    # -- insertion -----------------------------------------------------------

    def insert(self, p, changed=None):
        """Insert p, returning its vertex index (existing index if welded)."""
        t, kind, k = self.locate(p)
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
            kn = None
            for kk in range(3):
                if self.tris[n][kk] == b and self.tris[n][(kk + 1) % 3] == a:
                    kn = kk
                    break
            if kn is None:
                continue
            d = self.tris[n][(kn + 2) % 3]
            if self._incircle(t, self.pts[d]) <= self.tol_in:
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
                pc = self.pts[chain[ci]]
                pd = self.pts[chain[j]]
                adx, ady = pa[0] - pd[0], pa[1] - pd[1]
                bdx, bdy = pb[0] - pd[0], pb[1] - pd[1]
                cdx, cdy = pc[0] - pd[0], pc[1] - pd[1]
                ad = adx * adx + ady * ady
                bd = bdx * bdx + bdy * bdy
                cd = cdx * cdx + cdy * cdy
                det = (adx * (bdy * cd - bd * cdy)
                       - ady * (bdx * cd - bd * cdx)
                       + ad * (bdx * cdy - bdy * cdx))
                if det > self.tol_in:
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
        """
        for _ in range(passes):
            ring = {}
            incident = {}
            movable = set()
            for t, vs in enumerate(self.tris):
                if vs is None or not self.kept[t]:
                    continue
                for k in range(3):
                    a = vs[k]
                    ring.setdefault(a, set()).update((vs[(k + 1) % 3], vs[(k + 2) % 3]))
                    incident.setdefault(a, []).append(t)
                    movable.add(a)
            for a in list(movable):
                if a < self.n_super:
                    movable.discard(a)
            for key in self.constrained:
                movable.discard(key[0])
                movable.discard(key[1])
            for a in sorted(movable):
                nbrs = ring[a]
                cx = sum(self.pts[v][0] for v in nbrs) / len(nbrs)
                cy = sum(self.pts[v][1] for v in nbrs) / len(nbrs)
                old = self.pts[a]
                self.pts[a] = [cx, cy]
                ok = True
                for t in incident[a]:
                    if self.tris[t] is None:
                        continue
                    pa, pb, pc = (self.pts[v] for v in self.tris[t])
                    if self._orient(pa, pb, pc) <= self.tol_orient:
                        ok = False
                        break
                if not ok:
                    self.pts[a] = old
            self._relegalize()

    def _relegalize(self, max_sweeps=20):
        for _ in range(max_sweeps):
            flips = []
            for t, vs in enumerate(self.tris):
                if vs is None or not self.kept[t]:
                    continue
                for k in range(3):
                    self._legalize(t, k, flips)
            if not flips:
                return

    # -- geometry ---------------------------------------------------------

    def circumcenter(self, t):
        a, b, c = (self.pts[v] for v in self.tris[t])
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
        a, b, c = (self.pts[v] for v in self.tris[t])
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


def _segments_properly_intersect(p1, q1, p2, q2, tol):
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    o1 = orient(p1, q1, p2)
    o2 = orient(p1, q1, q2)
    o3 = orient(p2, q2, p1)
    o4 = orient(p2, q2, q1)
    return (o1 > tol) != (o2 > tol) and (o1 < -tol) != (o2 < -tol) \
        and (o3 > tol) != (o4 > tol) and (o3 < -tol) != (o4 < -tol) \
        and min(abs(o1), abs(o2), abs(o3), abs(o4)) > tol


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

    tol_x = EPS_REL * scale * scale
    for i in range(len(segs)):
        a1, b1, _ = segs[i]
        for j in range(i + 1, len(segs)):
            a2, b2, _ = segs[j]
            if len({a1, b1, a2, b2}) < 4:
                continue
            if _segments_properly_intersect(points[a1], points[b1],
                                            points[a2], points[b2], tol_x):
                raise GeometryError("boundary segments intersect each other")

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
    bx = np.array([(tr.pts[tr.tris[t][0]][0] + tr.pts[tr.tris[t][1]][0]
                    + tr.pts[tr.tris[t][2]][0]) / 3 for t in live])
    by = np.array([(tr.pts[tr.tris[t][0]][1] + tr.pts[tr.tris[t][1]][1]
                    + tr.pts[tr.tris[t][2]][1]) / 3 for t in live])
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
    while queue:
        t = queue.popleft()
        if t in blocked or tr.tris[t] is None or not tr.kept[t]:
            continue
        vs = tr.tris[t]
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
            continue
        loc_t, kind, _ = tr.locate(cc, hint=t)
        if kind == "vertex" or not tr.kept[loc_t]:
            blocked.add(t)
            continue
        if len(tr.pts) > MAX_POINTS:
            raise GeometryError("refinement exceeded the point budget")
        changed = []
        vi = tr.insert(cc, changed)
        if vi < 0:
            blocked.add(t)
            continue
        queue.extend(changed)
        if tr.tris[t] is not None:
            queue.append(t)

    if smoothing:
        tr.smooth(passes=smoothing)
    return _extract_mesh(tr, segs, vert_of, seg_labels, borders)


def _extract_mesh(tr, segs, vert_of, seg_labels, borders):
    keep_ts = [t for t, vs in enumerate(tr.tris) if vs is not None and tr.kept[t]]
    if not keep_ts:
        raise GeometryError("empty mesh")
    used = sorted({v for t in keep_ts for v in tr.tris[t]})
    remap = {v: i for i, v in enumerate(used)}
    points = np.array([tr.pts[v] for v in used])
    tris = np.array([[remap[v] for v in tr.tris[t]] for t in keep_ts], dtype=np.int64)

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
    return Mesh(points, tris, np.array(edges, dtype=np.int64),
                vertex_labels=vlab, edge_labels=np.array(elabs, dtype=np.int64))
