"""Exception types shared across the toolkit.

NumericFailure marks results that must not be trusted (exit code 3 in the
CLI); the ValueError subclasses mark bad requests (exit code 2). A remainder
minimum whose tail bound reaches past the scan limit (mu below 1.162 or above
505.4) is a ConvergenceError, like a Bessel zero that does not converge. A
lattice sum over more indices than the enumeration limit (a section far
longer than the critical length) is an EnumerationLimitError.
"""


class NumericFailure(RuntimeError):
    """A numeric procedure could not produce a trustworthy result."""


class ConvergenceError(NumericFailure):
    """An iterative solver or a scan exhausted its budget, or a certificate failed."""


class CutoffExceededError(NumericFailure):
    """A spectral query went above the enumerated cutoff."""


class InsufficientCutoffError(NumericFailure):
    """An enumerated spectrum holds too few eigenvalues for the request."""


class EnumerationLimitError(NumericFailure):
    """Eigenvalue or lattice-index enumeration would exceed its limit."""


class UnsupportedDomainError(ValueError):
    """The requested quantity is not available for this domain class."""


class DomainParseError(ValueError):
    """A domain description string does not match the grammar."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position
