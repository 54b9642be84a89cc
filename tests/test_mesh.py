import math

import numpy as np
import pytest

from femscript.errors import (FoldOverError, GeometryError, InvalidArgumentError,
                              MeshFileError)
from femscript.mesh import (Border, Mesh, build_from_borders, build_square,
                            load_msh, move_mesh, save_msh)
from femscript.studies import circle_border

from conftest import conformity_report, delaunay_violations


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


def _hole_borders(inner_count):
    a = Border(lambda t: (math.cos(t), math.sin(t)), 0.0, 2 * math.pi, 50, 1)
    b = Border(lambda t: (0.3 + 0.3 * math.cos(t), 0.3 * math.sin(t)),
               0.0, 2 * math.pi, inner_count, 2)
    return [a, b]


def test_hole_mesh_has_no_triangle_in_hole():
    m = build_from_borders(_hole_borders(-30))
    bc = m.barycenters()
    inside = (bc[:, 0] - 0.3) ** 2 + bc[:, 1] ** 2 < 0.3 ** 2
    assert not inside.any()
    assert m.ne == 80


def test_interface_mesh_keeps_full_area():
    m = build_from_borders(_hole_borders(+30))
    poly = 25.0 * math.sin(2.0 * math.pi / 50.0)
    assert abs(m.total_area() - poly) <= 1e-11
    assert abs(m.total_area() - math.pi) / math.pi < 0.02
    assert m.ne == 80


def test_label_count_matches_border_counts():
    m = build_from_borders(_hole_borders(-30))
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


def test_conformity_square_and_circle(square10, circle50):
    for mesh in (square10, circle50):
        nonmanifold, unlabeled_hull, labeled_counts = conformity_report(mesh)
        assert not nonmanifold
        assert not unlabeled_hull
        assert all(c == 1 for c in labeled_counts.values())


def test_conformity_hole_mesh():
    m = build_from_borders(_hole_borders(-30))
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
    """When the Delaunay diagonal disagrees with a boundary segment, the
    cavity retriangulation recovers it."""
    from femscript.mesh.delaunay import _Triangulation
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
            assert tr._orient(pa, pb, pc) > 0


def _l_shape_borders(spacing=0.5):
    corners = [(0, 0), (4, 0), (4, 1), (1, 1), (1, 4), (0, 4)]
    borders = []
    for k in range(6):
        a = np.array(corners[k], dtype=float)
        b = np.array(corners[(k + 1) % 6], dtype=float)
        n = max(1, int(round(np.hypot(*(b - a)) / spacing)))
        borders.append(Border(lambda t, a=a, b=b: tuple(a + t * (b - a)),
                              0.0, 1.0, n, k + 1))
    return borders


def test_l_shape_reflex_corner():
    """A non-convex polygon meshes exactly, labels intact."""
    m = build_from_borders(_l_shape_borders())
    assert abs(m.total_area() - 7.0) <= 1e-11
    assert (m.signed_areas() > 0).all()
    assert sorted(set(m.edge_label.tolist())) == [1, 2, 3, 4, 5, 6]
    nonmanifold, unlabeled_hull, labeled_counts = conformity_report(m)
    assert not nonmanifold and not unlabeled_hull
    assert all(c == 1 for c in labeled_counts.values())
    # no triangle escapes into the notch
    bc = m.barycenters()
    assert not ((bc[:, 0] > 1) & (bc[:, 1] > 1)).any()


# -- adjacency and the structured square against loop references ----------------

def _neighbors_reference(mesh):
    nbr = np.full((mesh.nt, 3), -1, dtype=np.int64)
    owner = {}
    for t in range(mesh.nt):
        for k in range(3):
            a, b = int(mesh.tri[t, k]), int(mesh.tri[t, (k + 1) % 3])
            key = (min(a, b), max(a, b))
            if key in owner:
                t2, k2 = owner.pop(key)
                nbr[t, k] = t2
                nbr[t2, k2] = t
            else:
                owner[key] = (t, k)
    return nbr


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


def _holed_disk():
    outer = Border(lambda t: (math.cos(t), math.sin(t)), 0.0, 2 * math.pi, 50, 1)
    hole = Border(lambda t: (0.3 + 0.3 * math.cos(t), 0.3 * math.sin(t)),
                  0.0, 2 * math.pi, -30, 2)
    return build_from_borders([outer, hole])


@pytest.mark.parametrize("which", ["square10", "circle50", "holed"])
def test_adjacency_matches_dict_reference(which, request):
    mesh = _holed_disk() if which == "holed" else request.getfixturevalue(which)
    assert np.array_equal(mesh.neighbors(), _neighbors_reference(mesh))
    first, count = mesh.edge_triangle()
    ref_first, ref_count = _edge_triangle_reference(mesh)
    assert np.array_equal(first, ref_first)
    assert np.array_equal(count, ref_count)


def test_adjacency_of_an_edge_shared_three_times():
    # three triangles on edge (0, 1): copies pair in (t, k) order, the third stays open
    pts = [(0, 0), (1, 0), (0.5, 1), (0.5, 2), (0.5, 3)]
    mesh = Mesh(pts, [(0, 1, 2), (0, 1, 3), (0, 1, 4)], [(0, 1)], validate=False)
    assert np.array_equal(mesh.neighbors(), _neighbors_reference(mesh))
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
