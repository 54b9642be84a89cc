import copy
import hashlib
import io
import math
import random
from pathlib import Path

import numpy as np
import pytest

from femscript.dsl import run_source
from femscript.errors import (FoldOverError, GeometryError, InvalidArgumentError,
                              MeshFileError)
from femscript.mesh import (Border, Mesh, build_from_borders, build_square,
                            load_msh, move_mesh, save_msh)
from femscript.mesh.delaunay import EPS_REL, _incircle, _orient, _Triangulation
from femscript.studies import circle_border, disk_mesh

from conftest import (conformity_report, delaunay_violations, hole_borders, polygon_borders,
                      time_bound)


def test_square_1x1_counts():
    m = build_square(1, 1)
    assert (m.nv, m.nt, m.ne) == (4, 2, 4)


def test_square_counts_and_area():
    m = build_square(2, 2)
    assert (m.nv, m.nt) == (9, 8)
    # oracle: sum of signed triangle areas
    p = m.points[m.tri]
    areas = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                   - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    assert abs(areas.sum() - 1.0) <= 1e-14
    assert abs(m.total_area() - 1.0) <= 1e-14


def test_square_boundary_labels(square10):
    m = square10
    for e in range(m.ne):
        a, b = m.edge[e]
        xa, ya = m.points[a]
        xb, yb = m.points[b]
        lab = int(m.edge_label[e])
        if ya == 0 and yb == 0:
            assert lab == 1
        elif xa == 1 and xb == 1:
            assert lab == 2
        elif ya == 1 and yb == 1:
            assert lab == 3
        elif xa == 0 and xb == 0:
            assert lab == 4
        else:
            pytest.fail("boundary edge off the square frame")


@pytest.mark.parametrize("m,n", [(0, 3), (3, 0), (-1, 2)])
def test_square_rejects_bad_sizes(m, n):
    with pytest.raises(InvalidArgumentError):
        build_square(m, n)


def test_circle_boundary_edges(circle50):
    m = circle50
    assert m.ne == 50
    assert set(m.edge_label.tolist()) == {1}
    assert (m.signed_areas() > 0).all()


def test_circle_area_is_polygon_area(circle50):
    poly = 25.0 * math.sin(2.0 * math.pi / 50.0)
    assert abs(circle50.total_area() - poly) <= 1e-12 * poly
    assert abs(circle50.total_area() - math.pi) / math.pi < 0.02


def test_hole_mesh_has_no_triangle_in_hole(holed_disk):
    m = holed_disk
    bc = m.barycenters()
    inside = (bc[:, 0] - 0.3) ** 2 + bc[:, 1] ** 2 < 0.3 ** 2
    assert not inside.any()
    assert m.ne == 80


def test_interface_mesh_keeps_full_area():
    m = build_from_borders(hole_borders(+30))
    poly = 25.0 * math.sin(2.0 * math.pi / 50.0)
    assert abs(m.total_area() - poly) <= 1e-11
    assert abs(m.total_area() - math.pi) / math.pi < 0.02
    assert m.ne == 80


def test_label_count_matches_border_counts(holed_disk):
    m = holed_disk
    labels = m.edge_label.tolist()
    assert labels.count(1) == 50
    assert labels.count(2) == 30


def test_open_loop_raises():
    arc = Border(lambda t: (math.cos(t), math.sin(t)), 0.0, math.pi, 10, 1)
    with pytest.raises(GeometryError):
        build_from_borders([arc])


def test_self_intersection_raises():
    # bow-tie: the two diagonals cross
    pts = [(0, 0), (1, 1), (1, 0), (0, 1)]

    def param(t):
        k = int(t) % 4
        f = t - int(t)
        a = np.array(pts[k], dtype=float)
        b = np.array(pts[(k + 1) % 4], dtype=float)
        return tuple(a + f * (b - a))

    bow = Border(param, 0.0, 4.0, 8, 1)
    with pytest.raises(GeometryError):
        build_from_borders([bow])


def _hole_near_the_boundary(radius):
    # the hole's rightmost sample lies at x = 0.5 + radius, the outer's at x = 1
    outer = Border(lambda t: (math.cos(t), math.sin(t)), 0.0, 2 * math.pi, 40, 1)
    hole = Border(lambda t: (0.5 + radius * math.cos(t), radius * math.sin(t)),
                  0.0, 2 * math.pi, -30, 2)
    return [outer, hole]


def test_close_segments_without_crossing_mesh():
    m = build_from_borders(_hole_near_the_boundary(0.499))
    outer = 20.0 * math.sin(2.0 * math.pi / 40.0)
    hole = 15.0 * 0.499 ** 2 * math.sin(2.0 * math.pi / 30.0)
    assert abs(m.total_area() - (outer - hole)) <= 1e-11
    with pytest.raises(GeometryError, match="intersect"):
        build_from_borders(_hole_near_the_boundary(0.501))


def _properly_intersect_reference(p1, q1, p2, q2, tol):
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    o1 = orient(p1, q1, p2)
    o2 = orient(p1, q1, q2)
    o3 = orient(p2, q2, p1)
    o4 = orient(p2, q2, q1)
    return (o1 > tol) != (o2 > tol) and (o1 < -tol) != (o2 < -tol) \
        and (o3 > tol) != (o4 > tol) and (o3 < -tol) != (o4 < -tol) \
        and min(abs(o1), abs(o2), abs(o3), abs(o4)) > tol


def test_crossing_check_matches_pairwise_reference():
    """The vectorized boundary check rejects exactly the segment sets the
    pairwise loop rejects, touching, collinear and near-miss pairs included."""
    from femscript.mesh.delaunay import _check_no_crossings
    rng = np.random.default_rng(7)
    tol = 1e-12
    rejected = 0
    for trial in range(400):
        points = [tuple(map(float, p)) for p in rng.integers(0, 4, size=(6, 2))]
        points += [(1.0, 1.0 + 1e-13), (2.0, 2.0 - 1e-12), (1.5, 1.5 + 3e-12)]
        segs = []
        for _ in range(3):
            a, b = rng.choice(len(points), size=2, replace=False)
            if points[a] != points[b]:
                segs.append((int(a), int(b), 1))
        if not segs:
            continue
        expected = any(
            len({a1, b1, a2, b2}) == 4 and _properly_intersect_reference(
                points[a1], points[b1], points[a2], points[b2], tol)
            for i, (a1, b1, _) in enumerate(segs) for a2, b2, _ in segs[i + 1:])
        try:
            _check_no_crossings(points, segs, tol)
            raised = False
        except GeometryError:
            raised = True
        assert raised == expected, (trial, points, segs)
        rejected += raised
    assert 50 < rejected < 350


def test_conformity_square_and_circle(square10, circle50):
    for mesh in (square10, circle50):
        nonmanifold, unlabeled_hull, labeled_counts = conformity_report(mesh)
        assert not nonmanifold
        assert not unlabeled_hull
        assert all(c == 1 for c in labeled_counts.values())


def test_conformity_hole_mesh(holed_disk):
    m = holed_disk
    nonmanifold, unlabeled_hull, labeled_counts = conformity_report(m)
    assert not nonmanifold
    assert not unlabeled_hull
    assert all(c == 1 for c in labeled_counts.values())


def test_delaunay_property_small_meshes(circle50):
    small = build_from_borders([circle_border(24)])
    assert small.nt <= 500
    assert delaunay_violations(small) == 0
    sq = build_square(8, 8)
    assert sq.nt <= 500
    assert delaunay_violations(sq) == 0


def test_largest_default_disk_is_delaunay(disk_meshes):
    """The in-circle tolerance scales with each triangle, so the near-
    cocircular pairs of the N=256 disk's small triangles flip too."""
    assert delaunay_violations(disk_meshes[4]) == 0


def test_move_mesh_identity(square10):
    m = move_mesh(square10, lambda x, y: (x, y))
    assert np.array_equal(m.points, square10.points)
    assert np.array_equal(m.tri, square10.tri)


def test_move_mesh_translation_bbox():
    m = move_mesh(build_square(5, 5), lambda x, y: (x + 1, y * 2))
    lo, hi = m.bbox()
    assert np.allclose(lo, [1, 0]) and np.allclose(hi, [2, 2])


def test_move_mesh_area_scaling(square10):
    m = move_mesh(square10, lambda x, y: (2 * x, x + y))  # det = 2
    assert abs(m.total_area() - 2.0) <= 1e-12
    assert m.nt == square10.nt and m.nv == square10.nv
    assert np.array_equal(m.edge_label, square10.edge_label)


def test_move_mesh_fold_raises(square10):
    with pytest.raises(FoldOverError):
        move_mesh(square10, lambda x, y: (-x, y))


def _geometry_meshes():
    square = build_square(7, 5)
    return {"square": square, "disk": build_from_borders([circle_border(24)]),
            "moved": move_mesh(square, lambda x, y: (x + 0.1 * np.sin(3 * y), y + 0.05 * x * x))}


@pytest.mark.parametrize("which", ["square", "disk", "moved"])
def test_geometry_tables_match_a_scalar_formula_bit_for_bit(which):
    """Each triangle's signed area and barycentric gradients, evaluated in
    Python floats triangle by triangle, equal the mesh's tables bit for bit."""
    mesh = _geometry_meshes()[which]
    areas, gx, gy = [], [], []
    for vs in mesh.tri:
        (x0, y0), (x1, y1), (x2, y2) = (tuple(float(c) for c in mesh.points[v]) for v in vs)
        area = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
        a2 = 2.0 * area
        areas.append(area)
        gx.append([(y1 - y2) / a2, (y2 - y0) / a2, (y0 - y1) / a2])
        gy.append([(x2 - x1) / a2, (x0 - x2) / a2, (x1 - x0) / a2])
    got_gx, got_gy = mesh.basis_gradients()
    for got, ref in ((mesh.signed_areas(), areas), (got_gx, gx), (got_gy, gy)):
        ref = np.array(ref)
        assert got.shape == ref.shape and got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def _sampled_circle(bad, label=7):
    """The unit circle as two borders; the second, labelled `label`, gives
    `bad` as its y beyond t = 4."""
    return [Border(lambda t: (math.cos(t), math.sin(t)), 0.0, 3.0, 10, 1),
            Border(lambda t: (math.cos(t), bad if t > 4.0 else math.sin(t)),
                   3.0, 2 * math.pi, 10, label)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_border_sample_names_its_border(bad):
    with pytest.raises(GeometryError, match=r"^border 7: point \(.*\) at t=4\.3\d* is not finite"):
        build_from_borders(_sampled_circle(bad))
    with pytest.raises(GeometryError, match="border 2: point"):
        build_from_borders([Border(lambda t: (t, 0.0), 0.0, 1.0, 2, 1),
                            Border(lambda t: (bad, t), 0.0, 1.0, 2, 2)])


@pytest.mark.parametrize("p", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5),
                               (0.5, -math.inf), (-math.inf, math.inf), (math.nan, math.inf)])
def test_locate_puts_a_non_finite_point_outside(p):
    tr = _Triangulation(scale=1.0)
    tr.init_super((0.0, 0.0), (1.0, 1.0))
    for q in [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.4, 0.6)]:
        tr.insert(q)
    for hint in range(len(tr.tris)):
        with pytest.raises(GeometryError, match="outside the triangulation"):
            tr.locate(p, hint)


def test_msh_roundtrip(tmp_path):
    m = build_square(2, 2)
    path = tmp_path / "m.msh"
    save_msh(m, path)
    m2 = load_msh(path)
    assert np.array_equal(m.points, m2.points)
    assert np.array_equal(m.tri, m2.tri)
    assert np.array_equal(m.edge, m2.edge)
    assert np.array_equal(m.edge_label, m2.edge_label)
    assert np.array_equal(m.vertex_label, m2.vertex_label)


def test_msh_header_mismatch(tmp_path):
    path = tmp_path / "bad.msh"
    path.write_text("2 1 1\n0 0 1\n1 0 1\n")  # header promises more records
    with pytest.raises(MeshFileError):
        load_msh(path)


def test_msh_hand_written_fixture(tmp_path):
    body = "\n".join([
        "4 2 4",
        "0 0 1", "1 0 1", "1 1 3", "0 1 3",
        "1 2 3 0", "1 3 4 0",
        "1 2 1", "2 3 2", "3 4 3", "4 1 4",
    ])
    path = tmp_path / "hand.msh"
    path.write_text(body + "\n")
    m = load_msh(path)
    assert (m.signed_areas() > 0).all()
    assert m.nt == 2 and abs(m.total_area() - 1.0) < 1e-14


def test_msh_bad_index(tmp_path):
    path = tmp_path / "bad2.msh"
    path.write_text("3 1 0\n0 0 0\n1 0 0\n0 1 0\n1 2 7 0\n")
    with pytest.raises(MeshFileError):
        load_msh(path)


def test_mesh_validation_rejects_flipped_triangle():
    with pytest.raises(InvalidArgumentError):
        Mesh([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]], [])


def test_border_count_must_be_positive():
    z = Border(lambda t: (t, 0.0), 0.0, 1.0, 0, 1)
    with pytest.raises(InvalidArgumentError):
        z.sample()


def test_segment_recovery_forces_missing_edge():
    """When the Delaunay diagonal disagrees with a boundary segment, a flip
    recovers it."""
    tr = _Triangulation(scale=20.0)
    tr.init_super((0.0, -1.0), (20.0, 1.0))
    a, b, c, d = (tr.insert(p) for p in
                  [(0.0, 0.0), (10.0, 1.0), (20.0, 0.0), (10.0, -1.0)])
    assert tr._edge_key(b, d) in tr.live_edges()       # Delaunay picks B-D
    assert tr._edge_key(a, c) not in tr.live_edges()
    tr.constrained.add(tr._edge_key(a, c))
    tr.recover_segment(a, c)
    assert tr._edge_key(a, c) in tr.live_edges()
    for vs in tr.tris:
        if vs is not None:
            pa, pb, pc = (tr.pts[v] for v in vs)
            assert _orient(pa, pb, pc) > 0


def test_segment_recovery_flips_every_crossing_edge():
    """A segment across a strip of random points crosses 30 or more edges,
    whose quadrilaterals are often not convex: flipping recovers it, every
    triangle stays counterclockwise with symmetric neighbours, and no edge
    but the segment is left for `_legalize` to flip."""
    for seed in range(6):
        rng = np.random.default_rng(seed)
        tr = _Triangulation(scale=1.0)
        tr.init_super((0.0, -0.5), (1.0, 0.5))
        a, b = tr.insert((0.0, 0.0)), tr.insert((1.0, 0.0))
        for p in zip(rng.uniform(0.02, 0.98, 40), rng.uniform(-0.05, 0.05, 40)):
            tr.insert(p)
        sides = [np.sign(_orient(tr.pts[a], tr.pts[b], p)) for p in tr.pts]
        assert sum(sides[u] * sides[w] < 0 for u, w in tr.live_edges()) >= 30
        tr.constrained.add(tr._edge_key(a, b))
        tr.recover_segment(a, b)
        assert tr._edge_key(a, b) in tr.live_edges()
        assert all(_orient(*(tr.pts[v] for v in vs)) > 0 for vs in tr.tris)
        assert all(n == -1 or t in tr.nbr[n] for t, ns in enumerate(tr.nbr) for n in ns)
        tris = list(tr.tris)
        _legalize_sweep(tr)
        assert tr.tris == tris


def test_l_shape_reflex_corner(l_shape):
    """A non-convex polygon meshes exactly, labels intact."""
    m = l_shape
    assert abs(m.total_area() - 7.0) <= 1e-11
    assert (m.signed_areas() > 0).all()
    assert sorted(set(m.edge_label.tolist())) == [1, 2, 3, 4, 5, 6]
    nonmanifold, unlabeled_hull, labeled_counts = conformity_report(m)
    assert not nonmanifold and not unlabeled_hull
    assert all(c == 1 for c in labeled_counts.values())
    # no triangle escapes into the notch
    bc = m.barycenters()
    assert not ((bc[:, 0] > 1) & (bc[:, 1] > 1)).any()


def test_coarse_l_shapes_recover_their_segments(monkeypatch):
    """Coarse L-shapes whose Delaunay triangulation misses boundary segments
    mesh conformingly, every segment and label kept, through
    `recover_segment`."""
    recover, calls = _Triangulation.recover_segment, []
    monkeypatch.setattr(_Triangulation, "recover_segment",
                        lambda tr, a, b: calls.append((a, b)) or recover(tr, a, b))
    rng = random.Random(1)
    recovered = 0
    for _ in range(200):
        w = rng.uniform(0.25, 1.0)
        corners = [(0, 0), (4, 0), (4, w), (w, w), (w, 4), (0, 4)]
        counts = [rng.randint(1, 3) for _ in corners]
        calls.clear()
        m = build_from_borders(polygon_borders(corners, counts))
        recovered += bool(calls)
        nonmanifold, unlabeled_hull, labeled_counts = conformity_report(m)
        assert not nonmanifold and not unlabeled_hull
        assert all(c == 1 for c in labeled_counts.values())
        assert abs(m.total_area() - (16 - (4 - w) ** 2)) <= 1e-9
        assert (m.signed_areas() > 0).all()
        assert m.ne == sum(counts)
        assert sorted(set(m.edge_label.tolist())) == [1, 2, 3, 4, 5, 6]
    assert recovered >= 50, recovered


@pytest.mark.xfail(strict=True, raises=GeometryError,
                   reason="the circumcenter of a sliver along a long unsplit boundary segment "
                          "lies outside the super-triangle (CHANGES.md, FOUND line on thin "
                          "border sets)")
@pytest.mark.parametrize("n", [8, 16])
def test_thin_rectangle_meshes(n):
    """The 4 x 0.1 rectangle sampled a(1)+b(n)+c(1)+d(n) is a valid border
    set: it should mesh conformingly, with its area, every sample and every
    label, and within a bounded time."""
    with time_bound(10):
        m = build_from_borders(polygon_borders([(0, 0), (4, 0), (4, 0.1), (0, 0.1)], [1, n, 1, n]))
    nonmanifold, unlabeled_hull, labeled_counts = conformity_report(m)
    assert not nonmanifold and not unlabeled_hull
    assert all(c == 1 for c in labeled_counts.values())
    assert abs(m.total_area() - 0.4) <= 1e-9
    assert (m.signed_areas() > 0).all()
    assert m.ne == 2 + 2 * n
    assert sorted(set(m.edge_label.tolist())) == [1, 2, 3, 4]


# -- adjacency and the structured square against loop references ----------------

def _edge_triangle_reference(mesh):
    owner = {}
    for t in range(mesh.nt):
        for k in range(3):
            a, b = int(mesh.tri[t, k]), int(mesh.tri[t, (k + 1) % 3])
            owner.setdefault((min(a, b), max(a, b)), []).append(t)
    first = np.full(mesh.ne, -1, dtype=np.int64)
    count = np.zeros(mesh.ne, dtype=np.int64)
    for e in range(mesh.ne):
        a, b = int(mesh.edge[e, 0]), int(mesh.edge[e, 1])
        inc = owner.get((min(a, b), max(a, b)), [])
        count[e] = len(inc)
        first[e] = inc[0] if inc else -1
    return first, count


@pytest.mark.parametrize("which", ["square10", "circle50",
                                   pytest.param("holed_disk", id="holed")])
def test_adjacency_matches_dict_reference(which, request):
    mesh = request.getfixturevalue(which)
    first, count = mesh.edge_triangle()
    ref_first, ref_count = _edge_triangle_reference(mesh)
    assert np.array_equal(first, ref_first)
    assert np.array_equal(count, ref_count)


def test_adjacency_of_an_edge_shared_three_times():
    # three triangles on edge (0, 1): the lowest index is the first, and all three count
    pts = [(0, 0), (1, 0), (0.5, 1), (0.5, 2), (0.5, 3)]
    mesh = Mesh(pts, [(0, 1, 2), (0, 1, 3), (0, 1, 4)], [(0, 1)])
    assert [a.tolist() for a in mesh.edge_triangle()] == [[0], [3]]


def _square_reference(m, n):
    def vid(i, j):
        return j * (m + 1) + i
    tris = []
    for j in range(n):
        for i in range(m):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            tris += [(a, b, c), (a, c, d)]
    edges = ([(vid(i, 0), vid(i + 1, 0)) for i in range(m)]
             + [(vid(m, j), vid(m, j + 1)) for j in range(n)]
             + [(vid(i, n), vid(i - 1, n)) for i in range(m, 0, -1)]
             + [(vid(0, j), vid(0, j - 1)) for j in range(n, 0, -1)])
    labels = [1] * m + [2] * n + [3] * m + [4] * n
    vlab = [0] * ((m + 1) * (n + 1))
    for (a, b), lab in zip(edges[::-1], labels[::-1]):  # first edge wins
        vlab[a] = vlab[b] = lab
    return tris, edges, labels, vlab


@pytest.mark.parametrize("m, n", [(3, 2), (1, 1), (2, 5)])
def test_build_square_matches_loop_reference(m, n):
    tris, edges, labels, vlab = _square_reference(m, n)
    mesh = build_square(m, n)
    assert mesh.tri.tolist() == [list(t) for t in tris]
    assert mesh.edge.tolist() == [list(e) for e in edges]
    assert mesh.edge_label.tolist() == labels
    assert mesh.vertex_label.tolist() == vlab


# -- golden meshes -----------------------------------------------------------------

def _mesh_digest(mesh):
    h = hashlib.sha256()
    for a in (mesh.points, mesh.tri, mesh.edge, mesh.vertex_label, mesh.edge_label):
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


GOLDEN_DISKS = {
    16: "aa6ed62c8fa3a5a2dc60e7f49dafd7815c8678bee41a3fbfe13054cc3da49467",
    32: "bbd65c0c21c238931624123b169dff7f24a89dd72c2cb777ba204f4a3e9a979d",
    64: "9ff7e706ece50ec5189772c01b9a6c73faa2c90271043776040075896dbbbe63",
    128: "c23125b44455b6d6fed12dbb9aec63284b56efc24a3ea00ddd5321a56ee53992",
    256: "e0c7194a5c5925cc4ad0d9543f77fd890ec83a1ff2ee93f4099ec3d7e87046af",
}

GOLDEN_BORDER_SETS = {
    "size_factor_1.4": "4cc72dbba8d888f8cf7209d94d7918087072600391133e62f5010f86290758ff",
    "hole": "f7c0a0b8d239320b3958551e5f3ee32f0fdbbeee7d78ac085774476dc1f0d310",
    "interface": "1288c844a98846c03e2013afc12ba36169c85b238c25e40cb797a59c5712233f",
    "l_shape": "412791b26229bf823ef5671755daad10f97d9fa95cb75fa96721d0013b97be8f",
}

GOLDEN_CORPUS = {
    "Th": "d753d504275d4d5f38b62732757d5b104880718bcaa014a77db244818e16f801",
    "MeshName": "cf60fee703927792b6b74864a820efddbbb3144ab8b22841a21264bde449cf63",
    "Thwithouthole": GOLDEN_BORDER_SETS["interface"],
    "Thwithhole": GOLDEN_BORDER_SETS["hole"],
}


def test_golden_disk_meshes(disk_meshes):
    """The Delaunay mesher's output is pinned byte for byte.

    Each digest covers the dtype, shape and bytes of `points`, `tri`, `edge`,
    `vertex_label` and `edge_label`. The border samples come from `math.cos`
    and `math.sin`, so the digests hold for the libm they were recorded with
    (glibc on x86-64); on another libm the samples, and so the meshes, may
    differ in the last bit. A speed-up of the mesher must leave them unchanged.
    """
    assert {mesh.ne: _mesh_digest(mesh) for mesh in disk_meshes} == GOLDEN_DISKS


def test_golden_border_set_meshes(holed_disk, l_shape):
    """As `test_golden_disk_meshes`, for other settings and border sets."""
    meshes = {
        "size_factor_1.4": build_from_borders([circle_border(64)], size_factor=1.4),
        "hole": holed_disk,
        "interface": build_from_borders(hole_borders(+30)),
        "l_shape": l_shape,
    }
    assert {k: _mesh_digest(m) for k, m in meshes.items()} == GOLDEN_BORDER_SETS


def test_golden_corpus_buildmesh(tmp_path):
    """As `test_golden_disk_meshes`, for the meshes `buildmesh` makes in
    `tests/corpus/borders_buildmesh.edp`, `buildmesh(C(50))` among them."""
    source = (Path(__file__).parent / "corpus" / "borders_buildmesh.edp").read_text()
    result = run_source(source, script_dir=str(tmp_path), stdout=io.StringIO(),
                        verbosity=0)
    assert result.exit_code == 0
    assert {k: _mesh_digest(result.env.lookup(k)) for k in GOLDEN_CORPUS} == GOLDEN_CORPUS


def _smallest_angles(mesh):
    """Each triangle's smallest angle, in degrees."""
    p = mesh.points[mesh.tri]
    angles = []
    for k in range(3):
        u, v = p[:, (k + 1) % 3] - p[:, k], p[:, (k + 2) % 3] - p[:, k]
        cross = np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
        angles.append(np.degrees(np.arctan2(cross, (u * v).sum(axis=1))))
    return np.min(angles, axis=0)


def test_refined_meshes_keep_angles_of_20_degrees(disk_meshes, holed_disk, l_shape):
    """Delaunay refinement with the circumradius-to-shortest-edge bound
    QUALITY_BOUND = 1 leaves no angle below 20 degrees, just under the 20.7
    degrees up to which Ruppert refinement is proven to terminate, on the
    default disks and on a hole, an interface and a reflex corner."""
    meshes = {f"disk N={m.ne}": m for m in disk_meshes}
    meshes.update(hole=holed_disk,
                  interface=build_from_borders(hole_borders(+30)),
                  l_shape=l_shape)
    smallest = {k: float(_smallest_angles(m).min()) for k, m in meshes.items()}
    assert min(smallest.values()) >= 20.0, smallest


def _tie_inputs(kind):
    """Points with ties: a lattice of exact binary fractions (every cell
    cocircular, rows collinear), points on one circle, and points on three
    lines."""
    if kind == "lattice":
        return [(i / 8, j / 8) for j in range(9) for i in range(9)]
    if kind == "circle":
        return [(0.5 + 0.4 * math.cos(a), 0.5 + 0.4 * math.sin(a))
                for a in (2 * math.pi * i / 24 for i in range(24))]
    return ([(i / 10, 0.0) for i in range(11)] + [(i / 10, 0.5) for i in range(1, 10)]
            + [(i / 10, i / 10) for i in range(2, 11, 2)])


def _classify_reference(tr, t, p, o):
    """`locate`'s answer for p in triangle t, whose edge orients are o: the
    first corner within tolerance, else the first edge, else the inside."""
    for k, q in enumerate(tr.pts[v] for v in tr.tris[t]):
        if (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 <= tr.tol_pt2:
            return t, "vertex", k
    for k in range(3):
        if abs(o[k]) <= tr.tol_orient:
            return t, "edge", k
    return t, "in", -1


def _locate_reference(tr, p, t):
    """The walk with `min(range(3), key=...)` choosing the edge to cross,
    then, if it leaves the triangulation, the first triangle holding p."""
    for _ in range(4 * len(tr.tris) + 16):
        pa, pb, pc = (tr.pts[v] for v in tr.tris[t])
        o = _orient(pa, pb, p), _orient(pb, pc, p), _orient(pc, pa, p)
        worst = min(range(3), key=o.__getitem__)
        if o[worst] >= -tr.tol_orient:
            return _classify_reference(tr, t, p, o), sorted(o)[0] == sorted(o)[1]
        t = tr.nbr[t][worst]
        if t == -1:
            break
    for t, vs in enumerate(tr.tris):
        pa, pb, pc = (tr.pts[v] for v in vs)
        o = _orient(pa, pb, p), _orient(pb, pc, p), _orient(pc, pa, p)
        if min(o) >= -tr.tol_orient:
            return _classify_reference(tr, t, p, o), False
    raise GeometryError(f"point {p} outside the triangulation")


def _legalize_sweep(tr):
    """`_legalize` on every edge, checking that it flips exactly where the
    in-circle determinant exceeds EPS_REL times the square of the largest
    squared distance from the opposite vertex to the triangle's corners;
    returns each edge's determinant and that threshold."""
    dets = []
    for t in range(len(tr.tris)):
        for k in range(3):
            vs, n = tr.tris[t], tr.nbr[t][k]
            if n == -1:
                continue
            a, b = vs[k], vs[(k + 1) % 3]
            pd = tr.pts[next(v for v in tr.tris[n] if v not in (a, b))]
            det = _incircle(*(tr.pts[v] for v in vs), pd)
            tol = EPS_REL * max(math.dist(tr.pts[v], pd) ** 2 for v in vs) ** 2
            flips = []
            tr._legalize([(t, k)], flips)
            assert bool(flips) == (det > tol and tr._edge_key(a, b) not in tr.constrained)
            dets.append((det, tol))
    return dets


def _seeded_legalize_keeps_the_order(tr):
    """On copies of tr: one `_legalize` seeded with every edge, pushed in
    reverse, leaves the rows, neighbours and flipped triangles of one call
    per edge in order; seeded in call order, it leaves other rows."""
    edges = [(t, k) for t in range(len(tr.tris)) for k in range(3)]
    calls, seeded, forward = (copy.deepcopy(tr) for _ in range(3))
    called, flipped = [], []
    for edge in edges:
        calls._legalize([edge], called)
    seeded._legalize(edges[::-1], flipped)
    assert called
    assert (seeded.tris, seeded.nbr, flipped) == (calls.tris, calls.nbr, called)
    forward._legalize(list(edges), [])
    assert forward.tris != calls.tris


@pytest.mark.parametrize("kind", ["lattice", "circle", "collinear"])
def test_inlined_predicates_keep_their_ties(kind):
    """On cocircular and collinear input, `_legalize` flips an edge exactly
    where `_incircle` exceeds its threshold relative to the triangle's size,
    and `locate` crosses the first smallest orient, as `min(range(3),
    key=...)` picks it. One `_legalize` seeded with many edges flips as one
    call per edge does: on cocircular input the order decides which
    diagonal survives."""
    pts = _tie_inputs(kind)
    tr = _Triangulation(scale=1.0)
    tr.init_super((0.0, 0.0), (1.0, 1.0))
    for p in pts:
        tr.insert(p)
    live = [t for t, vs in enumerate(tr.tris) if vs is not None]
    # vertices and edge midpoints lie in several triangles: the walk decides
    queries = pts + [((tr.pts[a][0] + tr.pts[b][0]) / 2, (tr.pts[a][1] + tr.pts[b][1]) / 2)
                     for a, b in sorted(tr.live_edges())] + [(-0.25, -0.25), (0.5, -0.1)]
    ties = 0
    for p in queries:
        for hint in live[::3]:
            expected, tied = _locate_reference(tr, p, hint)
            assert tr.locate(p, hint=hint) == expected
            ties += tied
    assert ties > 0

    # cocircular neighbours: ties that must not flip
    assert any(abs(det) <= tol for det, tol in _legalize_sweep(tr))
    # nudged vertices: determinants far below EPS_REL * scale**4 still flip
    rng = np.random.default_rng(5)
    for a in range(tr.n_super, len(tr.pts), 3):
        tr.pts[a] = tuple(x + 1e-11 * rng.standard_normal() for x in tr.pts[a])
    _seeded_legalize_keeps_the_order(tr)
    assert any(tol < det <= EPS_REL for det, tol in _legalize_sweep(tr))
    # moved vertices and some constrained edges: flips, and edges that must not
    for a in range(tr.n_super, len(tr.pts), 3):
        old = tr.pts[a]
        tr.pts[a] = (old[0] + 0.03 * rng.standard_normal(), old[1] + 0.03 * rng.standard_normal())
        if any(a in vs and _orient(*(tr.pts[v] for v in vs)) <= tr.tol_orient
               for vs in tr.tris):
            tr.pts[a] = old
    tr.constrained = {tr._edge_key(a, b) for a, b in sorted(tr.live_edges())[::5]}
    _seeded_legalize_keeps_the_order(tr)
    dets = _legalize_sweep(tr) + _legalize_sweep(tr)
    assert any(det > tol for det, tol in dets)
