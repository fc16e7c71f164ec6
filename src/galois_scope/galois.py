"""Galois-point certification.

Two independent detectors are implemented and cross-validated elsewhere:

* the automorphism side, which tests a representation matrix for conjugacy
  to diag(a, b*I) with primitive eigenvalue ratio and certifies the fixed
  center as a Galois point;
* the point side, which reads the polars D_p^j F of F at the candidate point
  p (D_p = sum_i p_i d/dX_i) and accepts exactly when D_pF is a constant
  times L^(d-1) (p off X) or T*L^(d-2) (p a smooth point of X, T the tangent
  form), with no change of coordinates.

The automorphism side takes the multiplicity of X at the center from the
verified witness, which read it while verifying (`AutWitness.reading`).  The
point side reads the multiplicity from the polar chain, which runs over
Python ints (`polyring.PolarChain`); only the forms that give L become field
elements.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import BoundViolation, ConsistencyError, CriterionNotApplicable, GaloisScopeError
from .errors import SingularPoint
from .exactnum import CycloField, CycloNum, common_field
from .hypersurface import DEFAULT_SMOOTH_DEADLINE, SINGULAR, AutWitness, Hypersurface
from .hypersurface import coordinate_points, is_smooth, polar_chain
from .polyring import HomogPoly
from .projlin import ProjMatrix, Vector, _homology, eigen_structure, homology_kind
from .projlin import vec_normalize, vector


@dataclass(frozen=True)
class GaloisCertificate:
    """Witness that `point` is a Galois point with the given cyclic generator."""

    point: Vector
    kind: str  # "inner" (point on X) or "outer"
    generator: ProjMatrix
    group_order: int
    ratio: CycloNum  # a/b, a primitive (d-1)-th or d-th root of unity
    field: CycloField


@dataclass(frozen=True)
class PointVerdict:
    kind: str
    point: Vector
    L: HomogPoly  # the normal form is c*L^d + G or L^(d-1)*T + G, with D_pG = 0

    @property
    def change(self) -> ProjMatrix:
        """Coordinate change realizing the normal form: columns p and
        e_k - (L_k / L(p)) p for k != pivot (p's first nonzero coordinate),
        so L becomes L(p)*X0 and a form G with D_pG = 0 loses X0."""
        p, L = self.point, self.L
        field, size = L.field, len(p)
        pivot = next(i for i, x in enumerate(p) if not x.is_zero())
        Lp = L.eval_at(p)
        cols = [p]
        for k in range(size):
            if k != pivot:
                r = L.coefficient(tuple(int(i == k) for i in range(size))) / Lp
                cols.append(tuple((field.one if i == k else field.zero) - r * p[i]
                                  for i in range(size)))
        return ProjMatrix(field, tuple(tuple(col[i] for col in cols) for i in range(size)))


def _require_detectable(X: Hypersurface):
    if X.d < 4:
        raise GaloisScopeError("Galois-point detection requires degree >= 4")


def _fault(X: Hypersurface, error: GaloisScopeError) -> GaloisScopeError:
    """The error for a failed theorem-level check: the theorems assume a
    smooth X, so on a certified singular X the input is outside them."""
    if is_smooth(X, deadline=DEFAULT_SMOOTH_DEADLINE).status == SINGULAR:
        return CriterionNotApplicable(f"X is singular, outside the smooth-case theorems: {error}")
    return error


def certificate_from_automorphism(X: Hypersurface, w: AutWitness) -> GaloisCertificate | None:
    """Certify a Galois point from a verified automorphism, or return None.

    Kind, ratio, center and the multiplicity of X at the center all come
    from the witness's homology reading (`AutWitness.reading`), taken by
    `verify_automorphism`; a witness with no reading certifies nothing.  A
    projective order that does not give the eigenvalue-ratio kind
    (`homology_kind`) means the witness was not verified, and is fatal.  So
    is a mismatch between the kind and the multiplicity of the center, on a
    smooth X; on a certified singular X it is an input error, as the
    theorems assume smoothness.  The certificate lives in the field of X and
    of the matrix.
    """
    _require_detectable(X)
    if w.reading is None:
        return None
    a, b, center, mult = w.reading
    h = _homology(a, b, vec_normalize(center), X.d)
    if h is None:
        return None
    if homology_kind(w.order, X.d) != h.kind:
        raise ConsistencyError(f"detected {h.kind} shape but the witness has projective "
                               f"order {w.order}")
    if mult != (1 if h.kind == "inner" else 0):
        raise _fault(X, ConsistencyError(f"detected {h.kind} shape but the center has "
                                         f"multiplicity {mult} on X"))
    return GaloisCertificate(
        point=h.center,
        kind=h.kind,
        generator=w.matrix,
        group_order=w.order,
        ratio=h.ratio,
        field=X.field,
    )


def galois_at_point(X: Hypersurface, point) -> PointVerdict | None:
    """Decide whether a smooth or exterior point p is a Galois point of X.

    p is Galois iff F = c*L^d + G (outer) or F = L^(d-1)*T + G (inner), with
    L(p) != 0 = T(p) and D_pG = 0 (G is free of X0 once p is [1:0:...:0]).
    In the polars P_j = D_p^j F: P_(d-1) ~ L (outer), or P_(d-1) ~ T and
    P_(d-2) ~ T*L (inner), and every P_j, j >= 1, is a multiple of L^(d-j),
    resp. T*L^(d-1-j).  j = 1 is sufficient (integrate along p); the lower j
    reject early.  L(p) != 0 follows: D_p^(d-2) P_1 is the nonzero P_(d-1).

    Nothing is normalised: L is P_(d-1) itself (outer) or the quotient
    P_(d-2) / P_(d-1) (inner), and the chain is tested one step at a time,
    P_j ~ P_(j+1)*L, by cross-multiplication, so no coefficient is inverted
    beyond the pivot of that one division.  `PointVerdict.change` does not
    depend on the scale of L.

    The chain and the tests run over Python ints (`polyring.PolarChain`);
    only P_(d-1), and for an inner point P_(d-2), become field elements, to
    give L.
    """
    _require_detectable(X)
    d = X.d
    p = vector(X.field, point)
    chain = polar_chain(X, p)
    mult = d + 1 - len(chain)  # the multiplicity of X at the point
    if mult >= 2:
        raise SingularPoint(f"point has multiplicity {mult}; it is neither smooth nor exterior")
    if mult == 0:
        kind, L = "outer", chain.form(d - 1)
    else:
        kind, L = "inner", chain.form(d - 2).divide_by_linear(chain.form(d - 1))
        if L is None:
            return None
    if not chain.proportional(L, d - 2 - mult):
        return None
    return PointVerdict(kind, p, L)


def point_verdict(X: Hypersurface, point) -> str:
    """"inner"/"outer" for a Galois point, "none" if it is not one, "singular"
    for a point of multiplicity >= 2."""
    try:
        pv = galois_at_point(X, point)
    except SingularPoint:
        return "singular"
    return "none" if pv is None else pv.kind


def galois_count_bounds(n: int, d: int) -> tuple[int, int]:
    """(max inner count, max outer count) permitted for a smooth X."""
    if n == 1:
        return (4 if d == 4 else 1, 3)
    inner = 4 * (n // 2 + 1) if d == 4 else n // 2 + 1
    return (inner, n + 2)


@dataclass(frozen=True)
class CountReport:
    inner: int
    outer: int
    per_point: tuple  # (point, verdict) pairs in input order
    inner_bound: int
    outer_bound: int


def count_certified_points(X: Hypersurface, candidates) -> CountReport:
    """Run the point-side detector over a finite candidate list.

    Candidates are deduplicated projectively; points of multiplicity >= 2
    are recorded as "singular" and not counted.  Any count beyond the
    theorem-level bound raises: an internal bug on a smooth X, an input
    error on a certified singular one.
    """
    _require_detectable(X)
    candidates = list(candidates)
    field = common_field(X.field.N, *(c.field.N for cand in candidates for c in cand
                                      if isinstance(c, CycloNum)))
    Xl = X.embed(field)
    seen: set[Vector] = set()  # normalised in one field: projectively equal iff equal
    results = []
    inner = outer = 0
    for cand in candidates:
        p = vec_normalize(vector(field, cand))
        if p in seen:
            continue
        seen.add(p)
        verdict = point_verdict(Xl, p)
        results.append((p, verdict))
        inner += verdict == "inner"
        outer += verdict == "outer"
    inner_bound, outer_bound = galois_count_bounds(X.n, X.d)
    if inner > inner_bound or outer > outer_bound:
        raise _fault(X, BoundViolation(
            f"certified counts ({inner}, {outer}) exceed bounds ({inner_bound}, {outer_bound})"))
    return CountReport(inner, outer, tuple(results), inner_bound, outer_bound)


def eigen_candidate_points(X: Hypersurface, witnesses) -> list[Vector]:
    """Coordinate points plus all eigenspace basis vectors of the witnesses."""
    structures = [eigen_structure(w.matrix) for w in witnesses]
    field = common_field(X.field.N, *(es.field.N for es in structures))
    points = coordinate_points(X) + [v for es in structures for p in es.pairs for v in p.basis]
    return [vector(field, p) for p in points]
