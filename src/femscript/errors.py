"""Exception types shared across the kernel and the script interpreter."""


class FemError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(FemError, ValueError):
    """An argument violates a documented precondition."""


class GeometryError(FemError):
    """Boundary description cannot be meshed (open loop, self-intersection, ...)."""


class FoldOverError(GeometryError):
    """A mesh transform flipped at least one triangle."""


class MeshFileError(FemError):
    """A mesh file is malformed.  Carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class OutOfDomainError(FemError):
    """Point evaluation requested outside the meshed domain."""


class NumericError(FemError, ArithmeticError):
    """A numeric value required to be finite was NaN or infinite."""


class SingularMatrixError(FemError):
    """Direct factorization hit a zero pivot."""


class SolverError(FemError):
    """An iterative solver broke down or did not converge."""


class UnsupportedError(FemError):
    """A feature deliberately outside the supported subset."""
