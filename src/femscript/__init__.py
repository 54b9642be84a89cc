"""femscript: a 2D P0/P1 finite element kernel, a FreeFem-style script
interpreter, and drivers for convergence studies."""

from . import errors
from .fespace import FeFunction, FeSpace, create_space, evaluate, interpolate
from .fields import Constant, Field, FunctionField, X, Y, as_field
from .forms import (DEFAULT_TGV, DirichletBC, FormExpr, FormTerm, TestFunction,
                    TrialFunction, VarForm, as_form, assemble_bilinear,
                    assemble_linear, dirichlet_dofs, dx, dy, integrate_1d,
                    integrate_2d)
from .linalg import (CgResult, LuFactorization, SparseMatrix, det, dot,
                     elem_div, elem_mul, factorize, matvec, outer, solve_cg,
                     solve_lu, trace, transpose)
from .mesh import (Border, Mesh, build_from_borders, build_square, load_msh,
                   move_mesh, save_msh)
from .studies import (ConvergenceRow, FixedPointConfig, ThetaSchemeConfig,
                      convergence_rate, run_fixed_point, run_heat_single,
                      run_heat_study, run_nonlinear_study, run_poisson_study,
                      solve_poisson)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Mesh", "build_square", "move_mesh", "Border", "build_from_borders",
    "save_msh", "load_msh",
    "FeSpace", "FeFunction", "create_space", "interpolate", "evaluate",
    "Field", "Constant", "FunctionField", "X", "Y", "as_field",
    "TrialFunction", "TestFunction", "FormExpr", "FormTerm", "VarForm",
    "DirichletBC", "as_form", "dx", "dy", "integrate_2d", "integrate_1d",
    "assemble_bilinear", "assemble_linear", "dirichlet_dofs", "DEFAULT_TGV",
    "SparseMatrix", "LuFactorization", "CgResult", "factorize", "solve_lu",
    "solve_cg", "dot", "outer", "matvec", "transpose", "elem_mul", "elem_div",
    "trace", "det",
    "ConvergenceRow", "ThetaSchemeConfig", "FixedPointConfig",
    "convergence_rate", "run_poisson_study", "solve_poisson",
    "run_fixed_point", "run_nonlinear_study", "run_heat_single", "run_heat_study",
]
