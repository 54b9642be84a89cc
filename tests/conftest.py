import math
import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from femscript.mesh import Border, Mesh, build_from_borders, build_square
from femscript.studies import circle_border


@pytest.fixture(scope="session")
def square10():
    return build_square(10, 10)


@pytest.fixture(scope="session")
def square16():
    return build_square(16, 16)


@pytest.fixture(scope="session")
def circle50():
    return build_from_borders([circle_border(50)])


@contextmanager
def time_bound(seconds):
    """Raise TimeoutError in the block once it has run `seconds` seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def hole_borders(inner_count):
    """The unit circle around a circle of radius 0.3 at (0.3, 0): a clockwise
    inner border (inner_count < 0) carves a hole, a counter-clockwise one an
    interface."""
    a = Border(lambda t: (math.cos(t), math.sin(t)), 0.0, 2 * math.pi, 50, 1)
    b = Border(lambda t: (0.3 + 0.3 * math.cos(t), 0.3 * math.sin(t)),
               0.0, 2 * math.pi, inner_count, 2)
    return [a, b]


def polygon_borders(corners, counts):
    """One straight border per side, labeled 1, 2, ... in order."""
    import numpy as np
    borders = []
    for k, n in enumerate(counts):
        a = np.array(corners[k], dtype=float)
        b = np.array(corners[(k + 1) % len(corners)], dtype=float)
        borders.append(Border(lambda t, a=a, b=b: tuple(a + t * (b - a)),
                              0.0, 1.0, n, k + 1))
    return borders


@pytest.fixture(scope="session")
def holed_disk():
    return build_from_borders(hole_borders(-30))


@pytest.fixture(scope="session")
def l_shape():
    """The 4x4 square less its 3x3 upper right corner, two samples per unit."""
    return build_from_borders(polygon_borders(
        [(0, 0), (4, 0), (4, 1), (1, 1), (1, 4), (0, 4)], [8, 2, 6, 6, 2, 8]))


@pytest.fixture(scope="session")
def reference_triangle():
    return Mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]],
                [[0, 1], [1, 2], [2, 0]], edge_labels=[1, 1, 1])


@pytest.fixture(scope="session")
def disk_meshes():
    """Unit-disk meshes for N = 16..256, shared by the nonlinear studies."""
    from femscript.studies import disk_mesh
    return [disk_mesh(2 ** (n + 4)) for n in range(5)]


# published golden values

POISSON_TABLE = [(16, 0.0047854), (32, 0.00120952), (64, 0.000303212),
                 (128, 7.58552e-05)]
POISSON_RATES = [1.9842, 1.99604, 1.99901]

HEAT_TABLE = {
    0.0: {"errors": [0.00325837, 0.000815303, 0.000203872, 5.09709e-05],
          "time_rates": [0.99937, 0.999834, 0.99996]},
    0.5: {"errors": [0.00325537, 0.000819141, 0.000203817, 5.08854e-05],
          "time_rates": [1.99064, 2.00684, 2.00195]},
    1.0: {"errors": [0.00323818, 0.000807805, 0.000201833, 5.04512e-05],
          "time_rates": [1.00155, 1.00042, 1.0001]},
}

ELLNL_TABLE = [0.015689, 0.0042401, 0.00117866, 0.00032964, 8.48012e-05]
ELLNL_DBC0_TABLE = [0.0159388, 0.00455562, 0.00118025, 0.000335335, 8.6533e-05]
ELLNL_DBC50_TABLE = [0.00610357, 0.00244016, 0.000767999, 0.000210938, 5.67798e-05]


def conformity_report(mesh):
    """(non-manifold edge count, hull edges not in the labeled set,
    labeled edges with their incident-triangle counts)."""
    from collections import Counter
    count = Counter()
    for t in range(mesh.nt):
        vs = mesh.tri[t]
        for k in range(3):
            a, b = int(vs[k]), int(vs[(k + 1) % 3])
            count[(min(a, b), max(a, b))] += 1
    labeled = {(min(int(a), int(b)), max(int(a), int(b))) for a, b in mesh.edge}
    nonmanifold = [e for e, c in count.items() if c > 2]
    hull = {e for e, c in count.items() if c == 1}
    unlabeled_hull = hull - labeled
    labeled_counts = {e: count.get(e, 0) for e in labeled}
    return nonmanifold, unlabeled_hull, labeled_counts


def delaunay_violations(mesh, tol=1e-9):
    """Brute-force in-circle check for triangles with all-interior vertices."""
    import numpy as np
    boundary_verts = set(int(v) for v in mesh.edge.ravel())
    pts = mesh.points
    scale = mesh.diameter()
    bad = 0
    for t in range(mesh.nt):
        vs = [int(v) for v in mesh.tri[t]]
        if any(v in boundary_verts for v in vs):
            continue
        a, b, c = pts[vs[0]], pts[vs[1]], pts[vs[2]]
        d = 2.0 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
        a2, b2, c2 = (p[0] ** 2 + p[1] ** 2 for p in (a, b, c))
        ux = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d
        uy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d
        r2 = (a[0] - ux) ** 2 + (a[1] - uy) ** 2
        d2 = (pts[:, 0] - ux) ** 2 + (pts[:, 1] - uy) ** 2
        inside = d2 < r2 - tol * scale * scale
        inside[vs] = False
        bad += int(np.count_nonzero(inside) > 0)
    return bad


def l2_norm(mesh, field, quad="default"):
    from femscript.forms import integrate_2d
    return math.sqrt(integrate_2d(mesh, field * field, quad=quad))
