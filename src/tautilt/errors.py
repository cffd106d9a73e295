"""Exception hierarchy shared by all engine modules."""

from typing import Optional


class TautiltError(Exception):
    """Base class for all engine errors."""


class ContractViolation(TautiltError):
    """A caller broke a documented precondition (dimension mismatch etc.)."""


class ParseError(TautiltError):
    """Syntax or semantic error in the algebra DSL."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class NotAdmissibleError(TautiltError):
    """The relation ideal fails an admissibility requirement."""


class CapExceededError(TautiltError):
    """A configured cap was hit before the computation could finish.

    ``cap`` names the cap and ``value`` is its setting.  ``progress`` says how
    far the run got: indecomposables found by the AR enumeration, pairs
    interned by a mutation closure, or path lengths completed by the basis
    computation.  ``dim`` is the module dimension that broke an enumeration
    cap, and None for the other caps.
    """

    def __init__(self, message: str, cap: str, value: int, progress: int,
                 dim: Optional[int] = None):
        super().__init__(message)
        self.cap = cap
        self.value = value
        self.progress = progress
        self.dim = dim


class NotCertifiableError(TautiltError):
    """An exact certificate over the rationals could not be produced.

    Raised e.g. when an endomorphism ring has a residue division algebra of
    dimension > 1, so absolute indecomposability cannot be certified without
    extending the base field.
    """


class DomainError(TautiltError):
    """Input is structurally fine but outside the operation's domain
    (module not tau-rigid, class not a torsion class, ...)."""
