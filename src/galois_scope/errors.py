"""Exception types shared across the package."""
from json import JSONDecodeError


class GaloisScopeError(Exception):
    """Base class for all package errors."""


class FieldMismatch(GaloisScopeError):
    """Operands live in different cyclotomic fields; no implicit coercion."""


class ConductorMismatch(GaloisScopeError):
    """Requested root of unity or embedding needs a larger conductor."""


class DegreeMismatch(GaloisScopeError):
    """Homogeneous polynomials of different degrees were combined."""


class SingularMatrix(GaloisScopeError):
    """Inverse of a matrix with zero determinant was requested."""


class OrderBoundExceeded(GaloisScopeError):
    """No power of the matrix became scalar within the allowed bound."""


class UnsupportedShape(GaloisScopeError):
    """Eigenstructure requested for a matrix shape we do not decompose."""


class SingularPoint(GaloisScopeError):
    """A point of multiplicity >= 2 was passed where a smooth or outer point is required."""


class BoundViolation(GaloisScopeError):
    """A certified count exceeded a theorem-level bound, or a computation
    outgrew an internal representation limit; indicates an internal fault."""


class ConsistencyError(GaloisScopeError):
    """Two routes that must agree by theorem disagreed; indicates an internal bug."""


class CriterionNotApplicable(GaloisScopeError, ValueError):
    """A criterion, classification or genus count was asked about an input
    outside its hypotheses (a plane curve, a degree, an abelian group, ...)."""


class ClosureBound(GaloisScopeError):
    """Group closure did not terminate within the element bound."""


class ParseError(GaloisScopeError):
    """Syntax or validation error in textual input, with position information."""

    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


# how every entry point sorts what a run raises: a failed theorem-level check
# is an internal fault (a bug, not bad input) and is tested for first, since
# both groups hold GaloisScopeErrors; the rest is an input error
INTERNAL_FAULTS = (ConsistencyError, BoundViolation)
INPUT_ERRORS = (OSError, JSONDecodeError, GaloisScopeError)
