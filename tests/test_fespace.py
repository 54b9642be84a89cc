import math

import numpy as np
import pytest

from femscript.errors import InvalidArgumentError, NumericError, OutOfDomainError
from femscript.fespace import FeSpace, evaluate, interpolate
from femscript.mesh import build_square


def test_ndof_p1(square10):
    assert FeSpace(square10, "P1").ndof == 121


def test_ndof_p0(square10):
    assert FeSpace(square10, "P0").ndof == 200


def test_ndof_circle(circle50):
    V = FeSpace(circle50, "P1")
    assert V.ndof == circle50.nv


def test_unsupported_element(square10):
    with pytest.raises(InvalidArgumentError):
        FeSpace(square10, "P2")


def test_dof_numbering_contract(square10):
    V1 = FeSpace(square10, "P1")
    for t in (0, 57, 199):
        for k in range(3):
            assert V1.dof_of(t, k) == square10.tri[t, k]
    V0 = FeSpace(square10, "P0")
    assert V0.dof_of(7, 0) == 7
    with pytest.raises(InvalidArgumentError):
        V0.dof_of(7, 1)


@pytest.mark.parametrize("elem, t, k", [("P1", 0, 3), ("P1", 200, 0), ("P1", -1, 0),
                                        ("P1", 0, -1), ("P0", 200, 0), ("P0", -1, 0)])
def test_dof_of_rejects_an_index_out_of_range(square10, elem, t, k):
    with pytest.raises(InvalidArgumentError, match="out of range"):
        FeSpace(square10, elem).dof_of(t, k)


def test_interpolate_constant(square10):
    V = FeSpace(square10, "P1")
    u = interpolate(V, lambda x, y: np.ones_like(x))
    assert np.array_equal(u.dofs, np.ones(V.ndof))


def test_interpolate_linear_exactness(square10):
    V = FeSpace(square10, "P1")
    u = interpolate(V, lambda x, y: x + y)
    for xy in [(0.11, 0.37), (0.5, 0.5), (0.99, 0.01), (1.0, 1.0)]:
        assert abs(u(*xy) - (xy[0] + xy[1])) <= 1e-14


def test_interpolate_sine_at_center():
    V = FeSpace(build_square(2, 2), "P1")
    u = interpolate(V, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    center = np.where((V.mesh.points == [0.5, 0.5]).all(axis=1))[0][0]
    assert u.dofs[center] == pytest.approx(1.0, abs=1e-15)


def test_interpolate_p0_barycenter(square10):
    V0 = FeSpace(square10, "P0")
    u = interpolate(V0, lambda x, y: x)
    b = square10.barycenters()
    assert np.allclose(u.dofs, b[:, 0], atol=1e-15)


def test_interpolate_nonfinite_raises(square10):
    V = FeSpace(square10, "P1")
    with np.errstate(divide="ignore"):
        with pytest.raises(NumericError):
            interpolate(V, lambda x, y: 1.0 / (x - 0.5))


def test_evaluate_at_vertex(square10):
    V = FeSpace(square10, "P1")
    u = interpolate(V, lambda x, y: x * 2 + y)
    k = 37
    x, y = square10.points[k]
    assert u(x, y) == pytest.approx(u.dofs[k], abs=1e-15)


def test_evaluate_linear_point(square10):
    V = FeSpace(square10, "P1")
    u = interpolate(V, lambda x, y: x + 2 * y)
    assert u(0.3, 0.4) == pytest.approx(1.1, abs=1e-13)


def test_evaluate_outside_raises(square10):
    V = FeSpace(square10, "P1")
    u = interpolate(V, lambda x, y: x)
    with pytest.raises(OutOfDomainError):
        evaluate(u, 10.0, 10.0)


def test_evaluate_p0_is_triangle_value(square10):
    V0 = FeSpace(square10, "P0")
    u = V0.function(np.arange(V0.ndof, dtype=float))
    b = square10.barycenters()
    for t in (3, 77, 150):
        assert u(b[t, 0], b[t, 1]) == float(t)


def test_interpolation_projection_property(square10):
    V = FeSpace(square10, "P1")
    u = interpolate(V, lambda x, y: np.sin(x) * np.cos(2 * y))
    v = interpolate(V, lambda x, y: np.array(
        [evaluate(u, xi, yi) for xi, yi in zip(np.atleast_1d(x), np.atleast_1d(y))]))
    assert np.array_equal(u.dofs, v.dofs)


def test_evaluate_respects_holes(holed_disk):
    mesh = holed_disk
    V = FeSpace(mesh, "P1")
    u = interpolate(V, lambda x, y: x + y)
    assert u(-0.6, 0.0) == pytest.approx(-0.6, abs=1e-12)
    # the center of the carved hole, two more points in it, and two outside the disk
    for x, y in [(0.3, 0.0), (0.3, 0.25), (0.1, 0.0), (1.01, 0.0), (-0.8, 0.8)]:
        with pytest.raises(OutOfDomainError, match="outside the mesh"):
            evaluate(u, x, y)


def _interior_edges(mesh):
    """Each edge two triangles share, as (a, b, lower triangle, higher triangle)."""
    owner = {}
    for t in range(mesh.nt):
        for k in range(3):
            a, b = int(mesh.tri[t, k]), int(mesh.tri[t, (k + 1) % 3])
            owner.setdefault((min(a, b), max(a, b)), []).append(t)
    return [(a, b, *ts) for (a, b), ts in owner.items() if len(ts) == 2]


def test_continuity_across_interior_edges(circle50):
    """Values from both adjacent triangles at interior edge midpoints agree."""
    mesh = circle50
    V = FeSpace(mesh, "P1")
    rng = np.random.default_rng(7)
    u = V.function(rng.standard_normal(V.ndof))
    gx, gy = mesh.basis_gradients()

    def local_value(t, x, y):
        lam = np.empty(3)
        for k in range(3):
            vk = mesh.points[mesh.tri[t, k]]
            lam[k] = 1.0 + gx[t, k] * (x - vk[0]) + gy[t, k] * (y - vk[1])
        return float(lam @ u.dofs[mesh.tri[t]])

    checked = 0
    for a, b, t, n in _interior_edges(mesh):
        mx, my = mesh.points[[a, b]].mean(axis=0)
        assert abs(local_value(t, mx, my) - local_value(n, mx, my)) <= 1e-12
        checked += 1
    assert checked > 50


# -- point location against a brute-force scan ---------------------------------

def _barycentric(mesh, x, y):
    """Every triangle's barycentric coordinates of (x, y), (nt, 3), as
    sub-triangle areas over the area."""
    p = mesh.points[mesh.tri]
    lam = np.empty((mesh.nt, 3))
    for k in range(3):
        b, c = p[:, (k + 1) % 3], p[:, (k + 2) % 3]
        lam[:, k] = (b[:, 0] - x) * (c[:, 1] - y) - (b[:, 1] - y) * (c[:, 0] - x)
    return lam / (2.0 * mesh.signed_areas()[:, None])


def _brute_locate(mesh, x, y):
    """The lowest-index triangle whose coordinates are all >= -1e-12 * diameter,
    and its coordinates, or None."""
    lam = _barycentric(mesh, x, y)
    hit = np.flatnonzero((lam >= -1e-12 * mesh.diameter()).all(axis=1))
    return (int(hit[0]), lam[hit[0]]) if len(hit) else None


@pytest.fixture(params=["square10", "circle50", "holed_disk", "l_shape"])
def located_mesh(request):
    return request.getfixturevalue(request.param)


def test_location_matches_a_brute_scan(located_mesh):
    mesh = located_mesh
    rng = np.random.default_rng(0)
    u1 = FeSpace(mesh, "P1").function(rng.standard_normal(mesh.nv))
    u0 = FeSpace(mesh, "P0").function(np.arange(mesh.nt, dtype=float))
    lo, hi = mesh.bbox()
    inside = outside = 0
    for x, y in rng.uniform(lo - 0.1, hi + 0.1, size=(300, 2)):
        found = _brute_locate(mesh, x, y)
        if found is None:
            outside += 1
            for u in (u0, u1):
                with pytest.raises(OutOfDomainError):
                    evaluate(u, x, y)
            continue
        inside += 1
        t, lam = found
        assert evaluate(u0, x, y) == t
        assert abs(evaluate(u1, x, y) - lam @ u1.dofs[mesh.tri[t]]) <= 1e-12
    assert inside > 100 and outside > 10


def test_location_at_vertices_and_shared_edges(located_mesh):
    mesh = located_mesh
    rng = np.random.default_rng(1)
    u1 = FeSpace(mesh, "P1").function(rng.standard_normal(mesh.nv))
    u0 = FeSpace(mesh, "P0").function(np.arange(mesh.nt, dtype=float))
    for v in rng.choice(mesh.nv, size=min(mesh.nv, 60), replace=False):
        x, y = mesh.points[v]
        assert evaluate(u1, x, y) == u1.dofs[v]
        assert evaluate(u0, x, y) == _brute_locate(mesh, x, y)[0]
    for a, b, t, n in _interior_edges(mesh)[::5]:
        x, y = mesh.points[[a, b]].mean(axis=0)
        assert evaluate(u0, x, y) == t
        value, lam = evaluate(u1, x, y), _barycentric(mesh, x, y)
        for s in (t, n):
            assert abs(value - lam[s] @ u1.dofs[mesh.tri[s]]) <= 1e-12


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_a_point_that_is_not_finite_is_outside(square10, x):
    u = interpolate(FeSpace(square10, "P1"), lambda x, y: x)
    for point in ((x, 0.5), (0.5, x)):
        with pytest.raises(OutOfDomainError, match="outside the mesh"):
            evaluate(u, *point)


def test_mesh_caches_do_not_keep_the_mesh_alive():
    # a cached entry that refers back to its mesh would keep the mesh (and
    # every array cached on it) until the cyclic garbage collector ran
    import gc
    import weakref
    from femscript.forms import (TestFunction, TrialFunction, VarForm, FormTerm,
                                 assemble_bilinear, dx, dy)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        mesh = build_square(4, 4)
        for elem in ("P1", "P0"):
            u = interpolate(FeSpace(mesh, elem), lambda x, y: x + y)
            evaluate(u, 0.3, 0.6)
        U, V = TrialFunction(), TestFunction()
        Vh = FeSpace(mesh, "P1")
        assemble_bilinear(VarForm([FormTerm("int2d", dx(U) * dx(V) + dy(U) * dy(V))]), Vh, Vh)
        ref = weakref.ref(mesh)
        del mesh, u, Vh
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
