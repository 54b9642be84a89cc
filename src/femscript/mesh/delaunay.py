"""Mesh generation from parametrized oriented borders.

Pipeline: sample every border at |count| intervals, weld coincident
endpoints, run an incremental Delaunay triangulation of the samples inside
a super-triangle, recover any missing boundary segment as a constrained
edge by flipping the edges that cross it, classify triangles by winding
number (region left of each oriented border is kept, so a clockwise loop
carves a hole), then refine the kept region by inserting circumcenters of
triangles whose longest edge exceeds the local boundary spacing scaled by
`size_factor`.

Orientation and point predicates use an epsilon relative to the domain
diameter, the in-circle test one relative to the triangle it tests;
cocircular or collinear ties count as "not inside", which keeps insertion
terminating on symmetric inputs (all samples of one circle are cocircular).

The meshes are reproducible bit for bit, and three rules fix their last
bits, so a faster version must keep all three:
- insertion order: the welded boundary samples in traversal order, then
  circumcenters in the refinement queue's first-in first-out order, which
  takes the triangles each insertion changed in the order they changed;
- `locate`'s tie rule: each step crosses the edge of the first smallest
  orient, and a point within tolerance of a vertex or edge lands on it;
- the flip rule: `_flip` keeps the two triangles' indices and corner order
  ((a, b, c) and (b, a, d) become (a, d, c) and (d, b, c)), and `_legalize`
  calls it only when the in-circle determinant exceeds EPS_REL times the
  square of the largest squared distance from the opposite vertex to the
  triangle's corners, taking the edges a flip exposes last in first out, an
  order that decides which of two cocircular diagonals survives. One call
  takes every edge a split or a recovery sweep exposes, pushed in reverse:
  each edge's flips end before the next edge is popped, as with one call
  per edge in order.

Points and triangles are (x, y) and (a, b, c) tuples, replaced whole and
never mutated (a tuple row reads faster than three subscripts of a flat
list); neighbour rows are lists.
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
# QUALITY_BOUND times the shortest edge. That bound aims at 30-degree
# angles but does not guarantee them: a triangle whose circumcenter is
# blocked (outside the kept region, on a vertex or on a constrained edge)
# stays as it is, and boundary segments are never split, so angles down to
# 23 degrees remain next to the boundary of the test border sets.
# The defaults are calibrated against the published cubic nonlinear table
# only: of size_factor 0.9..1.6 by 0.1, 1.1 alone puts its rows within
# +-15%. They do not reproduce FreeFem++'s disk meshes: the big-Dirichlet
# rows move by more than 20% with size_factor.
DEFAULT_SIZE_FACTOR = 1.1
QUALITY_BOUND = 1.0
# refinement stops with a GeometryError beyond this many points
MAX_POINTS = 2_000_000
# the next and the previous local index in a triangle
NXT = (1, 2, 0)
PRV = (2, 0, 1)


def _orient(pa, pb, pc):
    """Twice the signed area of (pa, pb, pc). Like `_incircle`, it takes
    (x, y) pairs or numpy arrays of x and y rows, with the same arithmetic.
    The hot loops of `_Triangulation` inline both, term for term."""
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


def _broken():
    raise AssertionError("broken adjacency")


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
        self.pts = []            # (x, y)
        self.tris = []           # (a, b, c) CCW
        self.nbr = []            # [n0, n1, n2], edge k = (v[k], v[k+1])
        self.kept = []           # classification flag per triangle
        self.constrained = set()  # {(min,max)}
        self.tol_orient = EPS_REL * scale * scale
        self.tol_pt2 = (EPS_REL * scale) ** 2
        self._hint = 0

    # -- topology helpers --------------------------------------------------

    def _edge_key(self, a, b):
        return (a, b) if a < b else (b, a)

    # -- super triangle -----------------------------------------------------

    def init_super(self, lo, hi):
        cx, cy = (lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2
        r = 50.0 * max(hi[0] - lo[0], hi[1] - lo[1], 1e-30)
        self.pts = [(cx - 2 * r, cy - r), (cx + 2 * r, cy - r), (cx, cy + 2 * r)]
        self.tris = [(0, 1, 2)]
        self.nbr = [[-1, -1, -1]]
        self.kept = [False]
        self.n_super = 3
        self._hint = 0

    # -- point location -----------------------------------------------------

    def locate(self, p, hint=None):
        """Walk to the triangle containing p.

        Returns (t, kind, k): kind "vertex" with local vertex k, else "edge"
        with local edge k, else "in" with k = -1.  Each step crosses the edge
        of the first smallest orient, the tie rule of `min(range(3), key=...)`.
        """
        tris, nbr, pts = self.tris, self.nbr, self.pts
        t = self._hint if hint is None else hint
        px, py = p
        tol = self.tol_orient
        neg_tol = -tol
        for _ in range(4 * len(tris) + 16):
            i, j, k = tris[t]
            (ax, ay), (bx, by), (cx, cy) = pts[i], pts[j], pts[k]
            o0 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
            o1 = (cx - bx) * (py - by) - (cy - by) * (px - bx)
            o2 = (ax - cx) * (py - cy) - (ay - cy) * (px - cx)
            if o1 < o0:
                worst, low = (2, o2) if o2 < o1 else (1, o1)
            else:
                worst, low = (2, o2) if o2 < o0 else (0, o0)
            if not low < neg_tol:
                self._hint = t
                d2 = self.tol_pt2
                k = (0 if (px - ax) ** 2 + (py - ay) ** 2 <= d2 else
                     1 if (px - bx) ** 2 + (py - by) ** 2 <= d2 else
                     2 if (px - cx) ** 2 + (py - cy) ** 2 <= d2 else -1)
                if k >= 0:
                    return t, "vertex", k
                k = 0 if abs(o0) <= tol else 1 if abs(o1) <= tol else 2 if abs(o2) <= tol else -1
                return t, "in" if k < 0 else "edge", k
            t = nbr[t][worst]
            if t == -1:
                break
        return self._locate_brute(p)

    def _locate_brute(self, p):
        for t, vs in enumerate(self.tris):
            pa, pb, pc = (self.pts[v] for v in vs)
            if min(_orient(pa, pb, p), _orient(pb, pc, p), _orient(pc, pa, p)) >= -self.tol_orient:
                return self.locate(p, t)    # the walk stops at once in t
        raise GeometryError(f"point {p} outside the triangulation")

    # -- insertion -----------------------------------------------------------
    # After a split or a flip, the neighbour m's entry that named `old` names
    # `new`: m[0 if m[0] == old else 1 if ... else _broken()] = new.

    def insert(self, p):
        """Insert p, returning its vertex index (existing index if welded)."""
        return self._insert_at(p, self.locate(p), [])

    def _insert_at(self, p, where, queue):
        """Insert p where `locate` found it: (t, kind, k), appending to queue
        the triangles the insertion changes, in the order they change.
        Returns -1 if p lies on a constrained edge."""
        t, kind, k = where
        vt = self.tris[t]
        if kind == "vertex":
            return vt[k]
        if kind == "edge" and self._edge_key(vt[k], vt[NXT[k]]) in self.constrained:
            return -1
        pi = len(self.pts)
        self.pts.append((float(p[0]), float(p[1])))
        if kind == "in":
            self._split_interior(t, pi, queue)
        else:
            self._split_edge(t, k, pi, queue)
        return pi

    def _split_interior(self, t, pi, queue):
        tris, nbr = self.tris, self.nbr
        a, b, c = tris[t]
        nab, nbc, nca = nbr[t]
        t2 = len(tris)
        t3 = t2 + 1
        tris[t] = (a, b, pi)
        nbr[t] = [nab, t2, t3]
        tris += ((b, c, pi), (c, a, pi))
        nbr += ([nbc, t3, t], [nca, t, t2])
        self.kept += (self.kept[t],) * 2
        if nbc != -1:
            m = nbr[nbc]
            m[0 if m[0] == t else 1 if m[1] == t else 2 if m[2] == t else _broken()] = t2
        if nca != -1:
            m = nbr[nca]
            m[0 if m[0] == t else 1 if m[1] == t else 2 if m[2] == t else _broken()] = t3
        queue.extend((t, t2, t3))
        self._legalize([(t3, 0), (t2, 0), (t, 0)], queue)

    def _split_edge(self, t, k, pi, queue):
        tris, nbr, kept = self.tris, self.nbr, self.kept
        vt = tris[t]
        a, b, c = vt[k], vt[NXT[k]], vt[PRV[k]]
        n, n_bc, n_ap = nbr[t][k], nbr[t][NXT[k]], nbr[t][PRV[k]]  # across ab, bc, ca
        t2 = len(tris)
        # upper side: t -> (a, pi, c), t2 -> (pi, b, c)
        tris[t] = (a, pi, c)
        tris.append((pi, b, c))
        kept.append(kept[t])
        nbr.append([-1, n_bc, t])
        if n_bc != -1:
            m = nbr[n_bc]
            m[0 if m[0] == t else 1 if m[1] == t else 2 if m[2] == t else _broken()] = t2
        if n == -1:
            nbr[t] = [-1, t2, n_ap]
            queue.extend((t, t2))
            self._legalize([(t2, 1), (t, 2)], queue)
            return
        vn = tris[n]
        kn = (0 if vn[0] == b and vn[1] == a else 1 if vn[1] == b and vn[2] == a
              else 2 if vn[2] == b and vn[0] == a else _broken())
        d = vn[PRV[kn]]
        n_da, n_bd = nbr[n][NXT[kn]], nbr[n][PRV[kn]]  # across (a, d) and (d, b)
        t4 = len(tris)
        # lower side: n -> (b, pi, d), t4 -> (pi, a, d)
        tris[n] = (b, pi, d)
        tris.append((pi, a, d))
        kept.append(kept[n])
        nbr.append([t, n_da, n])
        if n_da != -1:
            m = nbr[n_da]
            m[0 if m[0] == n else 1 if m[1] == n else 2 if m[2] == n else _broken()] = t4
        nbr[t] = [t4, t2, n_ap]
        nbr[n] = [t2, t4, n_bd]
        nbr[t2][0] = n
        queue.extend((t, t2, n, t4))
        self._legalize([(t4, 1), (n, 2), (t2, 1), (t, 2)], queue)

    def _legalize(self, stack, changed):
        """Pop edges (t, k) off stack and flip each while the opposite vertex
        lies inside the circumcircle: `_incircle` exceeds EPS_REL times the
        square of the largest squared distance from it to the triangle's
        corners. A flip pushes the two edges it exposes and appends its two
        triangles to changed."""
        tris, nbr, pts = self.tris, self.nbr, self.pts
        constrained = self.constrained
        while stack:
            t, k = stack.pop()
            vt = tris[t]
            a, b = vt[k], vt[NXT[k]]
            n = nbr[t][k]
            if n == -1 or ((a, b) if a < b else (b, a)) in constrained:
                continue
            x, y, z = tris[n]       # d: the vertex of n opposite its edge (b, a)
            if x == b and y == a:
                kn, d = 0, z
            elif y == b and z == a:
                kn, d = 1, x
            elif z == b and x == a:
                kn, d = 2, y
            else:
                continue
            u, v, w = vt
            (ax, ay), (bx, by), (cx, cy), (dx, dy) = pts[u], pts[v], pts[w], pts[d]
            adx, ady = ax - dx, ay - dy
            bdx, bdy = bx - dx, by - dy
            cdx, cdy = cx - dx, cy - dy
            ad = adx * adx + ady * ady
            bd = bdx * bdx + bdy * bdy
            cd = cdx * cdx + cdy * cdy
            det = (adx * (bdy * cd - bd * cdy)
                   - ady * (bdx * cd - bd * cdx)
                   + ad * (bdx * cdy - bdy * cdx))
            big = bd if bd > ad else ad     # max(ad, bd, cd)
            if det <= 0.0 or det <= EPS_REL * (cd if cd > big else big) ** 2:
                continue
            self._flip(t, k, n, kn)
            changed.extend((t, n))
            stack.extend(((t, 0), (n, 0)))

    def _flip(self, t, k, n, kn):
        """Flip the edge (a, b), edge k of t = (a, b, c) and edge kn of
        n = (b, a, d): t becomes (a, d, c) and n becomes (d, b, c), so the
        new diagonal (d, c) is edge 1 of t and edge 2 of n."""
        tris, nbr = self.tris, self.nbr
        vt = tris[t]
        a, b, c, d = vt[k], vt[NXT[k]], vt[PRV[k]], tris[n][PRV[kn]]
        n_bc, n_ca = nbr[t][NXT[k]], nbr[t][PRV[k]]
        n_ad, n_db = nbr[n][NXT[kn]], nbr[n][PRV[kn]]
        tris[t] = (a, d, c)
        nbr[t] = [n_ad, n, n_ca]
        tris[n] = (d, b, c)
        nbr[n] = [n_db, n_bc, t]
        if n_ad != -1:
            m = nbr[n_ad]
            m[0 if m[0] == n else 1 if m[1] == n else 2 if m[2] == n else _broken()] = t
        if n_bc != -1:
            m = nbr[n_bc]
            m[0 if m[0] == t else 1 if m[1] == t else 2 if m[2] == t else _broken()] = n

    # -- constrained edge recovery -------------------------------------------

    def live_edges(self):
        return {self._edge_key(vs[k], vs[NXT[k]]) for vs in self.tris for k in range(3)}

    def recover_segment(self, a, b):
        """Force edge (a, b) into the triangulation by flipping the edges
        that cross it (Sloan, Computers & Structures 47, 1993)."""
        tris, nbr, pts, tol = self.tris, self.nbr, self.pts, self.tol_orient
        pa, pb = pts[a], pts[b]

        def side(v):    # -1 or 1: v lies right or left of a->b; 0: on its line
            o = _orient(pa, pb, pts[v])
            return (o > tol) - (o < -tol)

        # find the triangle at a whose opposite edge the segment crosses
        for t, vs in enumerate(tris):
            if a in vs:
                k = NXT[vs.index(a)]
                u, w = vs[k], vs[NXT[k]]
                if u == b or w == b:
                    return  # edge already present
                if side(u) == -1 and side(w) == 1:
                    break
        else:
            raise GeometryError(
                "cannot recover boundary segment (a sampled point lies on it?)")
        # walk to b; every edge crossed runs from the right of a->b to its left
        cavity, crossing = [t], deque()
        while True:
            u, w = tris[t][k], tris[t][NXT[k]]
            if self._edge_key(u, w) in self.constrained:
                raise GeometryError("boundary segments cross each other")
            crossing.append((u, w))
            t = nbr[t][k]
            if t == -1:
                raise GeometryError("segment recovery walked out of the triangulation")
            cavity.append(t)
            vs = tris[t]
            kn = vs.index(w)
            d = vs[PRV[kn]]
            if d == b:
                break
            if side(d) == 0:
                raise GeometryError("segment recovery lost its way (degenerate boundary)")
            k = PRV[kn] if side(d) == -1 else NXT[kn]
        # flips never leave the cavity's triangles; a crossing edge whose
        # quadrilateral is not strictly convex waits for the others
        stalled = 0
        while crossing:
            u, w = crossing.popleft()
            t, k = next((t, k) for t in cavity for k in range(3)
                        if tris[t][k] == u and tris[t][NXT[k]] == w)
            n = nbr[t][k]
            kn = tris[n].index(w)
            c, d = tris[t][PRV[k]], tris[n][PRV[kn]]
            pc, pd = pts[c], pts[d]
            if not (_orient(pc, pd, pts[u]) < -tol and _orient(pc, pd, pts[w]) > tol):
                crossing.append((u, w))
                stalled += 1
                if stalled >= len(crossing):
                    raise GeometryError("segment recovery lost its way (degenerate boundary)")
                continue
            stalled = 0
            self._flip(t, k, n, kn)
            if side(c) * side(d) < 0:
                crossing.append((d, c))
        # `_legalize` follows a flip only through the two edges opposite the
        # third vertex (the new point, on insertion), so sweep the cavity,
        # then the triangles each sweep flipped, until a sweep flips none
        changed = cavity
        while changed:
            touched, changed = changed, []
            self._legalize([(t, k) for t in reversed(touched) for k in (2, 1, 0)], changed)


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


def build_from_borders(borders, size_factor=None) -> Mesh:
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

    tr.constrained = {tr._edge_key(vert_of[a], vert_of[b]) for a, b, _ in segs}
    present = tr.live_edges()   # flips never remove a constrained edge
    for a, b, _ in segs:
        va, vb = vert_of[a], vert_of[b]
        if tr._edge_key(va, vb) not in present:
            tr.recover_segment(va, vb)

    # classification by winding of barycenters over the directed loops
    seg_a = np.array([points[a] for a, _, _ in segs])
    seg_b = np.array([points[b] for _, b, _ in segs])
    corners = [[tr.pts[v] for v in vs] for vs in tr.tris]
    bx = np.array([(a[0] + b[0] + c[0]) / 3 for a, b, c in corners])
    by = np.array([(a[1] + b[1] + c[1]) / 3 for a, b, c in corners])
    tr.kept = [w > 0 for w in _winding_numbers(bx, by, seg_a, seg_b)]
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
        d2 = (bpts[:, 0] - x) ** 2 + (bpts[:, 1] - y) ** 2
        return float(spacing[int(np.argmin(d2))])

    queue = deque(t for t, k in enumerate(tr.kept) if k)
    blocked = set()
    good = set()    # points never move: a good (ordered) row stays good
    pts, tris, kept, tol = tr.pts, tr.tris, tr.kept, tr.tol_orient
    while queue:
        t = queue.popleft()
        if not kept[t] or t in blocked:
            continue
        vs = tris[t]
        if vs in good:
            continue
        a, b, c = pts[vs[0]], pts[vs[1]], pts[vs[2]]
        d = 2.0 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
        if abs(d) < tol:
            blocked.add(t)
            continue
        a2 = a[0] * a[0] + a[1] * a[1]
        b2 = b[0] * b[0] + b[1] * b[1]
        c2 = c[0] * c[0] + c[1] * c[1]
        cc = ((a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d,
              (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d)
        e = ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2,
             (b[0] - c[0]) ** 2 + (b[1] - c[1]) ** 2,
             (c[0] - a[0]) ** 2 + (c[1] - a[1]) ** 2)
        target = s_uniform if uniform else target_at((a[0] + b[0] + c[0]) / 3,
                                                      (a[1] + b[1] + c[1]) / 3)
        # the circumradius over the shortest edge, bounded by QUALITY_BOUND
        if not (math.sqrt(max(e)) > size_factor * target
                or math.dist(cc, a) > QUALITY_BOUND * math.sqrt(min(e))):
            good.add(vs)
            continue
        where = tr.locate(cc, hint=t)
        loc_t, kind, _ = where
        if kind == "vertex" or not kept[loc_t]:
            blocked.add(t)
            continue
        if len(pts) > MAX_POINTS:
            raise GeometryError("refinement exceeded the point budget")
        if tr._insert_at(cc, where, queue) < 0:
            blocked.add(t)
            continue
        queue.append(t)

    return _extract_mesh(tr, segs, vert_of)


def _extract_mesh(tr, segs, vert_of):
    kept = [vs for vs, k in zip(tr.tris, tr.kept) if k]
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
