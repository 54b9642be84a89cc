from .core import Mesh, build_square, move_mesh
from .delaunay import Border, build_from_borders
from .mshio import load_msh, save_msh

__all__ = [
    "Mesh", "build_square", "move_mesh",
    "Border", "build_from_borders",
    "save_msh", "load_msh",
]
