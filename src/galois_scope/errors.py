"""Exception types shared across the package, and the run context's clock."""
import time
from contextlib import contextmanager
from contextvars import ContextVar
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


# the run context: the monotonic time at which the current scope's budget
# ends; None means no limit.  A context variable (PEP 567) reaches every loop
# that calls check() without a parameter on the way.
_LIMIT: ContextVar[float | None] = ContextVar("galois_scope_limit", default=None)


class Expired(Exception):
    """The budget of the enclosing deadline scope has run out.  Private: only
    the function that opened the scope catches it (`hypersurface.is_smooth`)."""


@contextmanager
def deadline(seconds: float | None):
    """A scope whose check() calls raise Expired once `seconds` have passed;
    None means no limit, also inside a scope with one."""
    token = _LIMIT.set(None if seconds is None else time.monotonic() + seconds)
    try:
        yield
    finally:
        _LIMIT.reset(token)


def check() -> None:
    """Raise Expired when the current scope's budget has run out."""
    limit = _LIMIT.get()
    if limit is not None and time.monotonic() > limit:
        raise Expired
