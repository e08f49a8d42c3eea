"""Exception types shared across the pipeline."""


class TwinregError(Exception):
    """Base class for all pipeline errors."""


class ParseError(TwinregError):
    """Malformed input data. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DataError(TwinregError):
    """Input is well-formed but unusable (empty aggregation window, too few rows, ...)."""


class SingularDesignError(TwinregError):
    """Design matrix is rank deficient. Names the offending column when known."""

    def __init__(self, message, column=None):
        self.column = column
        super().__init__(message)


class ConsistencyError(TwinregError):
    """Cross-module results do not line up (mismatched parameter sets)."""


class ConvergenceError(TwinregError):
    """An iterative special-function evaluation hit its iteration cap."""
