"""Galois-point certification.

Two independent detectors are implemented and cross-validated elsewhere:

* the automorphism side, which tests a representation matrix for conjugacy
  to diag(a, b*I) with primitive eigenvalue ratio and certifies the fixed
  center as a Galois point;
* the point side, which moves a candidate point to [1:0:...:0], applies the
  forced Tschirnhaus shift, and accepts exactly when every middle
  coefficient of the defining polynomial vanishes.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BoundViolation, ConsistencyError, GaloisScopeError, SingularPoint
from .exactnum import CycloField, CycloNum, common_field
from .hypersurface import AutWitness, Hypersurface, basis_through, multiplicity_at_point
from .polyring import HomogPoly
from .projlin import ProjMatrix, Vector, eigen_structure, homology_form, vec_normalize
from .projlin import vec_proj_eq, vector


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
    change: ProjMatrix  # coordinate change realizing the normal form


def _require_detectable(X: Hypersurface):
    if X.d < 4:
        raise GaloisScopeError("Galois-point detection requires degree >= 4")


def certificate_from_automorphism(X: Hypersurface, w: AutWitness) -> GaloisCertificate | None:
    """Certify a Galois point from a verified automorphism, or return None.

    On success the center of the detected homology is classified inner or
    outer by its multiplicity on X; a mismatch between the eigenvalue-ratio
    kind and the membership, or an order different from d-1 / d, means the
    witness was not verified against this hypersurface and is fatal.
    """
    _require_detectable(X)
    h = homology_form(w.matrix, X.d, X.n)
    if h is None:
        return None
    mult = multiplicity_at_point(X.embed(h.field), h.center)
    expected_mult = 1 if h.kind == "inner" else 0
    if mult != expected_mult:
        raise ConsistencyError(
            f"detected {h.kind} shape but the center has multiplicity {mult} on X")
    expected_order = X.d - 1 if h.kind == "inner" else X.d
    if w.order != expected_order:
        raise ConsistencyError(
            f"{h.kind} certificate requires projective order {expected_order}, got {w.order}")
    return GaloisCertificate(
        point=vec_normalize(h.center),
        kind=h.kind,
        generator=w.matrix,
        group_order=w.order,
        ratio=h.a / h.b,
        field=h.field,
    )


def galois_at_point(X: Hypersurface, point) -> PointVerdict | None:
    """Decide whether a smooth or exterior point is a Galois point of X.

    The point is moved to [1:0:...:0] and F is expanded in the first
    coordinate.  In each branch the subleading coefficient forces the unique
    admissible Tschirnhaus shift; the point is Galois exactly when the shift
    exists and kills every middle coefficient.  The remaining coordinate
    freedom (scaling the first coordinate, any change among the rest) cannot
    affect which middle coefficients vanish, so nothing else is searched.
    """
    _require_detectable(X)
    field = X.field
    move = basis_through(vector(field, point), field, X.n + 2)
    F1 = X.F.transform(move)
    d = X.d
    parts = F1.expand_in(0)
    mult = d - max(parts)  # the multiplicity of X at the point
    if mult >= 2:
        raise SingularPoint(f"point has multiplicity {mult}; it is neither smooth nor exterior")
    if mult == 0:
        const_mono = (0,) * (X.n + 2)
        F1 = F1.scale(parts[d].terms[const_mono].inverse())
        parts = F1.expand_in(0)
        G1 = parts.get(d - 1)
        shift = _shift_matrix(field, X.n + 2, G1, Fraction(-1, d))
        allowed = {d, 0}
        kind = "outer"
    else:
        G1 = parts[d - 1]
        G2 = parts.get(d - 2)
        if G2 is None:
            shift = None
        else:
            q = G2.divide_by_linear(G1)
            if q is None:
                return None  # the forced shift is not polynomial: rejection is a proof
            shift = _shift_matrix(field, X.n + 2, q, Fraction(-1, d - 1))
        allowed = {d - 1, 0}
        kind = "inner"
    if shift is not None:
        F1 = F1.transform(shift)
    if any(k not in allowed for k in F1.expand_in(0)):
        return None
    change = move if shift is None else move @ shift
    return PointVerdict(kind, change)


def point_verdict(X: Hypersurface, point) -> str:
    """"inner"/"outer" for a Galois point, "none" if it is not one, "singular"
    for a point of multiplicity >= 2."""
    try:
        pv = galois_at_point(X, point)
    except SingularPoint:
        return "singular"
    return "none" if pv is None else pv.kind


def _shift_matrix(field, size, linear: HomogPoly | None, factor: Fraction):
    """Matrix of X_0 -> X_0 + factor * linear(X_1..), identity elsewhere."""
    if linear is None:
        return None
    row0 = [field.one]
    for j in range(1, size):
        mono = tuple(1 if k == j else 0 for k in range(size))
        row0.append(linear.coefficient(mono) * factor)
    if all(c.is_zero() for c in row0[1:]):
        return None
    rows = [tuple(row0)]
    for i in range(1, size):
        rows.append(tuple(field.one if j == i else field.zero for j in range(size)))
    return ProjMatrix(field, tuple(rows))


def belongs_to(X: Hypersurface, w: AutWitness, point) -> bool:
    """True when w's certificate lands projectively on the given point."""
    cert = certificate_from_automorphism(X, w)
    if cert is None:
        return False
    return vec_proj_eq(cert.point, vector(X.field, point))


def transport_certificate(cert: GaloisCertificate, h: AutWitness) -> GaloisCertificate:
    """Push a certificate through another automorphism h of the same X."""
    target = common_field(cert.field.N, h.matrix.field.N)
    gen = h.matrix @ cert.generator @ h.matrix.inverse()
    point = vec_normalize(h.matrix.embed(target).apply(cert.point))
    return GaloisCertificate(point, cert.kind, gen, cert.group_order, cert.ratio, target)


def commute_check(cert: GaloisCertificate, k: AutWitness) -> str:
    """"commutes" / "fails" when k fixes the certified point, else "not-applicable"."""
    target = common_field(cert.field.N, k.matrix.field.N)
    p = vector(target, cert.point)
    if not vec_proj_eq(k.matrix.embed(target).apply(p), p):
        return "not-applicable"
    kg = k.matrix @ cert.generator
    gk = cert.generator @ k.matrix
    return "commutes" if kg.proj_eq(gk) else "fails"


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
    theorem-level bound is an internal bug and raises.
    """
    _require_detectable(X)
    candidates = list(candidates)
    field = common_field(X.field.N, *(c.field.N for cand in candidates for c in cand
                                      if isinstance(c, CycloNum)))
    Xl = X.embed(field)
    seen: list[Vector] = []
    results = []
    inner = outer = 0
    for cand in candidates:
        p = vec_normalize(vector(field, cand))
        if any(vec_proj_eq(p, q) for q in seen):
            continue
        seen.append(p)
        verdict = point_verdict(Xl, p)
        results.append((p, verdict))
        inner += verdict == "inner"
        outer += verdict == "outer"
    inner_bound, outer_bound = galois_count_bounds(X.n, X.d)
    if inner > inner_bound or outer > outer_bound:
        raise BoundViolation(
            f"certified counts ({inner}, {outer}) exceed bounds ({inner_bound}, {outer_bound})")
    return CountReport(inner, outer, tuple(results), inner_bound, outer_bound)


def coordinate_points(X: Hypersurface) -> list[Vector]:
    field = X.field
    size = X.n + 2
    return [tuple(field.one if j == i else field.zero for j in range(size)) for i in range(size)]


def eigen_candidate_points(X: Hypersurface, witnesses) -> list[Vector]:
    """Coordinate points plus all eigenspace basis vectors of the witnesses."""
    structures = [eigen_structure(w.matrix) for w in witnesses]
    field = common_field(X.field.N, *(es.field.N for es in structures))
    points = coordinate_points(X) + [v for es in structures for p in es.pairs for v in p.basis]
    return [vector(field, p) for p in points]
