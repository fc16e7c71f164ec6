"""Hypersurfaces X = {F = 0} in P^(n+1): automorphism verification,
Jacobian smoothness certification, and point multiplicity."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import SingularMatrix
from .exactnum import CycloNum
from .groebner import Deadline, groebner_basis, leading_pure_powers
from .polyring import HomogPoly
from .projlin import ProjMatrix, Vector, projective_order, vector

SMOOTH = "certified_smooth"
SINGULAR = "certified_singular"
TIMEOUT = "timeout"

# exact Groebner coefficients blow up quickly; refuse huge degrees by default
DEGREE_GUARD = 40


class Hypersurface:
    """X subset P^(n+1) of degree d, cut out by a homogeneous F in n+2 variables."""

    __slots__ = ("n", "d", "F", "_smooth")

    def __init__(self, n: int, d: int, F: HomogPoly):
        if F.is_zero():
            raise ValueError("defining polynomial must be nonzero")
        if F.nvars != n + 2:
            raise ValueError(f"F has {F.nvars} variables, expected {n + 2}")
        if F.degree != d:
            raise ValueError(f"F has degree {F.degree}, expected {d}")
        self.n = n
        self.d = d
        self.F = F
        self._smooth = None

    @property
    def field(self):
        return self.F.field

    def __repr__(self):
        return f"Hypersurface(n={self.n}, d={self.d})"

    def embed(self, target) -> "Hypersurface":
        """X over a larger cyclotomic field; self at the same conductor."""
        if target.N == self.field.N:
            return self
        return Hypersurface(self.n, self.d, self.F.embed(target))

    @property
    def smooth_status(self) -> str:
        return "unchecked" if self._smooth is None else self._smooth.status


@dataclass(frozen=True)
class AutWitness:
    """A verified linear automorphism: F(A.X) = scale * F, of the given projective order."""

    matrix: ProjMatrix
    scale: CycloNum
    order: int


@dataclass(frozen=True)
class SmoothnessResult:
    status: str
    witness: Vector | None = None
    basis: tuple | None = None
    no_point: bool = False


def verify_automorphism(X: Hypersurface, A: ProjMatrix) -> AutWitness | None:
    """Check F(A.X) = scale * F exactly; None when A does not preserve X."""
    if A.size != X.n + 2:
        raise ValueError("matrix size does not match the ambient dimension")
    F = X.F
    if A.field.N != F.field.N:
        raise ValueError("matrix and polynomial must share a field; lift explicitly")
    G = F.transform(A)
    if set(G.terms) != set(F.terms):
        return None
    mono = next(iter(F.terms))
    lam = G.terms[mono] / F.terms[mono]
    for m, c in F.terms.items():
        if G.terms[m] != c * lam:
            return None
    return AutWitness(A, lam, projective_order(A))


def jacobian_generators(X: Hypersurface) -> list[HomogPoly]:
    return [X.F.partial(i) for i in range(X.n + 2)]


def is_smooth(X: Hypersurface, deadline: float | None = None,
              allow_large: bool = False) -> SmoothnessResult:
    """Certify smoothness or produce a singular witness via the Jacobian ideal.

    The singular locus is empty exactly when the Jacobian ideal is
    zero-dimensional at the cone over the origin, i.e. when every variable
    has a pure power among the Groebner leading terms.  A timeout is a
    first-class result; smoothness is never guessed.
    """
    if X._smooth is not None:
        return X._smooth
    if X.d > DEGREE_GUARD and not allow_large:
        raise ValueError(
            f"degree {X.d} exceeds the exact-kernel guard ({DEGREE_GUARD}); "
            "pass allow_large=True to override")
    clock = Deadline(deadline)
    gens = [g for g in jacobian_generators(X) if not g.is_zero()]
    nvars = X.n + 2
    basis = groebner_basis(gens, clock) if gens else []
    if basis is None:
        return SmoothnessResult(TIMEOUT)
    covered = leading_pure_powers(basis, nvars)
    if all(covered):
        result = SmoothnessResult(SMOOTH, basis=tuple(basis))
    else:
        result = _singular_result(X, basis, covered)
    X._smooth = result
    return result


def _singular_result(X: Hypersurface, basis, covered) -> SmoothnessResult:
    field = X.field
    partials = jacobian_generators(X)
    for i, has_power in enumerate(covered):
        if has_power:
            continue
        point = tuple(field.one if j == i else field.zero for j in range(X.n + 2))
        if all(p.is_zero() or p.eval_at(point).is_zero() for p in partials):
            return SmoothnessResult(SINGULAR, witness=point, basis=tuple(basis))
    return SmoothnessResult(SINGULAR, basis=tuple(basis), no_point=True)


def basis_through(point, field, size: int) -> ProjMatrix:
    """Invertible matrix whose first column is the point, completed by
    standard basis vectors; deterministic (first nonzero coordinate pivots)."""
    p = vector(field, point)
    pivot = next((i for i, x in enumerate(p) if not x.is_zero()), None)
    if pivot is None:
        raise ValueError("zero vector cannot be completed to a basis")
    cols = [p] + [tuple(field.one if i == j else field.zero for i in range(size))
                  for j in range(size) if j != pivot]
    M = ProjMatrix(field, tuple(tuple(cols[j][i] for j in range(size)) for i in range(size)))
    if M.det().is_zero():
        raise SingularMatrix("basis completion failed")
    return M


def multiplicity_at_point(X: Hypersurface, point) -> int:
    """Multiplicity of X at a point: 0 off X, 1 at a smooth point of X."""
    M = basis_through(point, X.field, X.n + 2)
    moved = X.F.transform(M)
    parts = moved.expand_in(0)
    return X.d - max(parts)
