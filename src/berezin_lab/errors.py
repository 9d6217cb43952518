"""Exception types, and the frozen record and domain bases of the toolkit.

NumericFailure marks results that must not be trusted (exit code 3 in the
CLI); the ValueError subclasses mark bad requests (exit code 2). A remainder
minimum whose tail bound reaches past the scan limit (mu below 1.162 or above
505.4) is a ConvergenceError, like a Bessel zero that does not converge. A
lattice sum over more indices than the enumeration limit (a section far
longer than the critical length), or a command-line grid larger than any
enumeration could serve, is an EnumerationLimitError.

Record is the base of the toolkit's value classes. A subclass names its
fields in `_fields`; Record's `__init__` stores them as given, and a class
that validates or converts its fields does so in its own `__init__` first.
Each gets a repr naming its fields, equality and hash by type and fields,
and an AttributeError on assignment or deletion. Unlike a frozen dataclass,
it generates no code, which every process would compile at import.
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


class Record:
    """Frozen value over the fields named in `_fields`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        if len(values) != len(self._fields):
            msg = f"{type(self).__name__} takes {len(self._fields)} fields, got {len(values)}"
            raise TypeError(msg)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, as assignment is refused
        return type(self), self._values()


class Domain(Record):
    """Base of the families in geometry. Each declares eight members: `dim`,
    `render()`, `eigenvalues(cutoff)` (below it, with multiplicity, or
    EnumerationLimitError before any array once they pass the limit),
    `section_measure()`, `surface()`, `moment_J()`, `polya_theorem` (is
    N <= eta a theorem for it) and `eigenvalues_per_entry` (the most that one
    enumeration-limit entry holds)."""

    __slots__ = ()


def check_domain(dom: object) -> Domain:
    """dom, or UnsupportedDomainError if it is not a domain: the one such test."""
    if not isinstance(dom, Domain):
        raise UnsupportedDomainError(f"unknown domain class {type(dom).__name__}")
    return dom
