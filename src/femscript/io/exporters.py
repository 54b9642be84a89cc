"""The plain-text DOF dump and minimal EPS plots.

The DOF dump writes each real as the shortest decimal string that
round-trips to the identical double, so it is deterministic byte-for-byte.
"""

from .._fmt import fmt_real
from ..errors import InvalidArgumentError
from ..fespace import FeFunction
from ..mesh import Mesh


def export_dof_txt(u: FeFunction, path) -> None:
    """One DOF value per line."""
    with open(path, "w") as f:
        for v in u.dofs:
            f.write(fmt_real(v) + "\n")


# --------------------------------------------------------------------------
# minimal EPS plots (wireframe for meshes, 64-step colormap for FE functions)

_EPS_SIZE = 420.0
_N_COLORS = 64


def _colormap(t):
    # blue -> cyan -> yellow -> red ramp
    t = min(max(t, 0.0), 1.0)
    if t < 1 / 3:
        s = 3 * t
        return (0.0, s, 1.0)
    if t < 2 / 3:
        s = 3 * t - 1
        return (s, 1.0, 1.0 - s)
    s = 3 * t - 2
    return (1.0, 1.0 - s, 0.0)


def export_eps(obj, path) -> None:
    """Wireframe of a mesh, or a filled colormap of a P1/P0 function."""
    if isinstance(obj, FeFunction):
        mesh = obj.space.mesh
        u = obj
    elif isinstance(obj, Mesh):
        mesh = obj
        u = None
    else:
        raise InvalidArgumentError("EPS export takes a mesh or an FE function")
    lo, hi = mesh.bbox()
    span = max(hi[0] - lo[0], hi[1] - lo[1], 1e-30)
    scale = _EPS_SIZE / span

    def pt(xy):
        return ((xy[0] - lo[0]) * scale + 10, (xy[1] - lo[1]) * scale + 10)

    w = (hi[0] - lo[0]) * scale + 20
    h = (hi[1] - lo[1]) * scale + 20
    lines = ["%!PS-Adobe-3.0 EPSF-3.0",
             f"%%BoundingBox: 0 0 {int(w) + 1} {int(h) + 1}",
             "0.25 setlinewidth"]
    if u is not None:
        if u.space.elem == "P1":
            tri_vals = u.dofs[mesh.tri].mean(axis=1)
        else:
            tri_vals = u.dofs
        vmin = float(tri_vals.min())
        vmax = float(tri_vals.max())
        rng = (vmax - vmin) or 1.0
        for t in range(mesh.nt):
            level = int((_N_COLORS - 1) * (tri_vals[t] - vmin) / rng) / (_N_COLORS - 1)
            r, g, b = _colormap(level)
            ps = [pt(mesh.points[v]) for v in mesh.tri[t]]
            lines.append(f"{r:.3f} {g:.3f} {b:.3f} setrgbcolor")
            lines.append("newpath {:.2f} {:.2f} moveto {:.2f} {:.2f} lineto "
                         "{:.2f} {:.2f} lineto closepath fill"
                         .format(*ps[0], *ps[1], *ps[2]))
        lines.append("0 0 0 setrgbcolor")
    for t in range(mesh.nt):
        ps = [pt(mesh.points[v]) for v in mesh.tri[t]]
        lines.append("newpath {:.2f} {:.2f} moveto {:.2f} {:.2f} lineto "
                     "{:.2f} {:.2f} lineto closepath stroke"
                     .format(*ps[0], *ps[1], *ps[2]))
    lines.append("showpage")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
