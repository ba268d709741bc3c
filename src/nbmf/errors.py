"""Exception types raised across the package.

The CLI maps these onto stable exit codes: ``ConfigError`` means the run was
never viable (exit 2), everything else is a runtime failure (exit 1).
"""

__all__ = [
    "NbmfError",
    "ConfigError",
    "ParseError",
    "BoundsError",
    "DuplicateError",
    "DimensionError",
    "EmptyMaskError",
    "NumericalError",
    "SearchError",
]


class NbmfError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ConfigError(NbmfError, ValueError):
    """An invalid configuration value (bad fractions, prior < 1, missing path)."""


class ParseError(NbmfError, ValueError):
    """A malformed line in a coordinate file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class BoundsError(NbmfError, ValueError):
    """A coordinate outside the declared matrix shape."""


class DuplicateError(NbmfError, ValueError):
    """A coordinate listed more than once."""


class DimensionError(NbmfError, ValueError):
    """Incompatible or empty shapes (factors vs. data, zero-size matrix)."""


class EmptyMaskError(NbmfError, ValueError):
    """An evaluation or fit was requested over a mask with no cells."""


class NumericalError(NbmfError, RuntimeError):
    """A non-finite or out-of-domain value appeared during computation."""

    def __init__(self, message, iteration=None):
        if iteration is not None:
            message = f"iteration {iteration}: {message}"
        super().__init__(message)
        self.iteration = iteration


class SearchError(NbmfError, RuntimeError):
    """Every candidate in a hyperparameter search failed."""
