"""Hypersurfaces X = {F = 0} in P^(n+1): automorphism verification,
Jacobian smoothness certification, and point multiplicity from the polars."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import Expired, deadline as time_limit
from .exactnum import CycloNum
from .groebner import groebner_basis, leading_pure_powers, modular_leading_monomials
from .polyring import HomogPoly, PolarChain
from .projlin import (
    ProjMatrix,
    Vector,
    homology_eigenbasis,
    homology_order,
    projective_order,
)

SMOOTH = "certified_smooth"
SINGULAR = "certified_singular"
TIMEOUT = "timeout"
DEFAULT_SMOOTH_DEADLINE = 60.0  # seconds


class Hypersurface:
    """X subset P^(n+1) of degree d, cut out by a homogeneous F in n+2 variables."""

    __slots__ = ("n", "d", "F")

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


@dataclass(frozen=True)
class AutWitness:
    """A verified linear automorphism: F(A.X) = scale * F, of the given projective order.

    `reading` is (a, b, center, multiplicity) when A is a homology
    diag(a, b, .., b) in the eigenbasis C of `projlin.homology_eigenbasis`,
    diagonal homologies included, and center = C e_0, its a-eigenvector with
    a leading 1: the multiplicity of X at the center, read off F(C.Y) while
    verifying, is what the certificate classifies the center by.  It is None
    for every other shape.
    """

    matrix: ProjMatrix
    scale: CycloNum
    order: int
    reading: tuple[CycloNum, CycloNum, Vector, int] | None = None


@dataclass(frozen=True)
class SmoothnessResult:
    status: str
    witness: Vector | None = None


def verify_automorphism(X: Hypersurface, A: ProjMatrix) -> AutWitness | None:
    """Check F(A.X) = scale * F exactly; None when A does not preserve X.

    Every homology, one that `projlin.homology_eigenbasis` reads as
    A C = C D with C invertible and D = diag(a, b, .., b), is checked in that
    eigenbasis: with G(Y) = F(C.Y), F(A.X) = scale * F exactly when
    G(D.Y) = scale * G, and D scales a monomial of G with exponent k in Y_0
    by a^k b^(d-k).  Every row of C but one holds at most two entries, where
    a dense A holds n+2; a diagonal homology's C permutes the coordinates.
    Any other matrix is substituted into F as it is: a monomial one that is
    not a homology, and every shape with no rank-one reading.

    The witness of a homology keeps its reading: the multiplicity of X at
    the center C e_0 is d minus the largest Y_0 exponent k of G.
    """
    if A.size != X.n + 2:
        raise ValueError("matrix size does not match the ambient dimension")
    F = X.F
    if A.field.N != F.field.N:
        raise ValueError("matrix and polynomial must share a field; lift explicitly")
    eigen = homology_eigenbasis(A)
    if eigen is not None:
        a, b, basis = eigen
        exponents = {m[0] for m in F.restrict(basis).terms}
        scales = {a ** k * b ** (X.d - k) for k in exponents}
        if len(scales) != 1:
            return None
        reading = (a, b, basis[0], X.d - max(exponents))
        return AutWitness(A, scales.pop(), homology_order(a, b), reading)
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


def is_smooth(X: Hypersurface, deadline: float | None = None) -> SmoothnessResult:
    """Certify smoothness or produce a singular witness via the Jacobian ideal.

    The singular locus is empty exactly when the Jacobian ideal is
    zero-dimensional at the cone over the origin, i.e. when every variable
    has a pure power among the Groebner leading terms.  The constant lead of
    a unit ideal (the partials of a hyperplane) is the zeroth power of every
    variable.  A timeout is a first-class result; smoothness is never guessed.

    A modular pass runs first: the same kernel on the partials mod p, under
    zeta_N -> w (groebner.modular_prime), stopped as soon as every variable
    has a pure power among its leading monomials.  Those pure powers lead
    elements of the image ideal mod p, and they certify smoothness over the
    field.  The partials cut out a closed subscheme of projective space over
    the local ring R of Z[zeta_N] at the prime (p, zeta_N - w); it is proper
    over R, so its image in Spec R is closed, and a closed set that misses
    the closed point of a local scheme is empty.  So an empty fibre at p
    forces an empty generic fibre.  This holds even when p divides d: mod p
    the partials can only gain zeros.  Any other outcome falls back to the
    exact pass, which alone decides `certified_singular` and its witness.

    One deadline covers both passes: they run in one `errors.deadline`
    scope, whose clock the kernel's reduction steps and `exactnum`'s exact
    inverse and reduction loops check, and its expiry is the `timeout`
    result.  The singular witness is read after the scope has closed.
    """
    gens = [g for g in jacobian_generators(X) if not g.is_zero()]
    nvars = X.n + 2
    try:
        with time_limit(deadline):
            leads = modular_leading_monomials(gens)
            if not all(leading_pure_powers(leads, nvars)):
                leads = groebner_basis(gens)
    except Expired:
        return SmoothnessResult(TIMEOUT)
    covered = leading_pure_powers(leads, nvars)
    return SmoothnessResult(SMOOTH) if all(covered) else _singular_result(X, covered)


def _singular_result(X: Hypersurface, covered) -> SmoothnessResult:
    """A coordinate point e_i with no pure power of X_i among the leading
    monomials is the witness when X has multiplicity >= 2 there (by Euler's
    formula, when every partial vanishes at e_i)."""
    for point, has_power in zip(coordinate_points(X), covered):
        if not has_power and multiplicity_at_point(X, point) >= 2:
            return SmoothnessResult(SINGULAR, witness=point)
    return SmoothnessResult(SINGULAR)


def coordinate_points(X: Hypersurface) -> list[Vector]:
    """The coordinate points e_0, ..., e_(n+1) of the ambient space."""
    field = X.field
    size = X.n + 2
    return [tuple(field.one if j == i else field.zero for j in range(size)) for i in range(size)]


def multiplicity_at_point(X: Hypersurface, point) -> int:
    """Multiplicity of X at a point: 0 off X, 1 at a smooth point of X.

    Moving p to [1:0:...:0] makes D_p^j F / j! the coefficient of X0^j, so
    the polar chain F, D_pF, D_p^2 F, ... up to its last nonzero form holds
    d + 1 - m forms, m the multiplicity.  `polyring.PolarChain` builds it
    over Python ints, with no field element made or multiplied.
    """
    return X.d + 1 - len(PolarChain(X.F, point))
