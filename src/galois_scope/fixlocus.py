"""Fixed loci Fix(g) on X via eigenspace decomposition, and the
fixed-locus criteria that force Galois points.

Every criterion reads Fix(g) through `fixed_locus`, so g may be diagonal,
monomial, or a homology diag(a, b*I) in any basis, with no conjugating
matrix supplied; any other shape raises UnsupportedShape."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConsistencyError, CriterionNotApplicable
from .exactnum import CycloNum
from .galois import GaloisCertificate, _fault, certificate_from_automorphism
from .hypersurface import DEFAULT_SMOOTH_DEADLINE, SMOOTH, TIMEOUT, AutWitness, Hypersurface
from .hypersurface import is_smooth, verify_automorphism
from .polyring import HomogPoly, binary_form_roots, distinct_root_count
from .projlin import Vector, eigen_structure, homology_kind, vec_normalize

EMPTY = "empty"
FINITE = "finite_points"
SECTION = "hypersurface_in_subspace"
WHOLE = "whole_subspace"


@dataclass(frozen=True)
class Component:
    """Intersection of one projectivized eigenspace with X."""

    eigenvalue: CycloNum
    basis: tuple[Vector, ...]
    kind: str
    dim: int  # projective dimension of the component; 0 for finite, -1 for empty
    count: int | None = None
    points: tuple[Vector, ...] | None = None
    restriction: HomogPoly | None = None


@dataclass(frozen=True)
class FixedLocusReport:
    field: object
    components: tuple[Component, ...]
    total_finite_count: int | None
    max_component_dim: int

    def cardinality(self):
        """Number of fixed points on X; math.inf with a positive-dimensional part."""
        if self.max_component_dim >= 1:
            return math.inf
        return self.total_finite_count or 0


def fixed_locus(X: Hypersurface, w: AutWitness) -> FixedLocusReport:
    """Decompose Fix(g) on X as the union over eigenspaces E of P(E) meet X.

    The eigenspaces come from `projlin.eigen_structure`, so g must be
    diagonal, monomial, or a homology diag(a, b*I) in any basis (read by its
    rank-one part); other shapes raise UnsupportedShape.
    """
    es = eigen_structure(w.matrix)
    field = es.field
    F = X.F.embed(field)
    comps = []
    for pair in es.pairs:
        basis = pair.basis
        dim = len(basis)
        if dim == 1:
            p = basis[0]
            if F.eval_at(p).is_zero():
                comps.append(Component(pair.value, basis, FINITE, 0, 1, (vec_normalize(p),)))
            else:
                comps.append(Component(pair.value, basis, EMPTY, -1, 0))
            continue
        r = F.restrict(basis)
        if r.is_zero():
            comps.append(Component(pair.value, basis, WHOLE, dim - 1, restriction=r))
        elif dim == 2:
            count = distinct_root_count(r)
            roots = binary_form_roots(r)
            points = None
            if roots is not None:
                points = tuple(
                    vec_normalize(tuple(a * basis[0][i] + b * basis[1][i]
                                        for i in range(len(basis[0]))))
                    for a, b in roots)
            comps.append(Component(pair.value, basis, FINITE, 0, count, points, r))
        else:
            comps.append(Component(pair.value, basis, SECTION, dim - 2, restriction=r))
    finite = None
    if all(c.kind in (EMPTY, FINITE) for c in comps):
        finite = sum(c.count or 0 for c in comps)
    max_dim = max((c.dim for c in comps), default=-1)
    return FixedLocusReport(field, tuple(comps), finite, max_dim)


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of a fixed-locus criterion together with its consequence."""

    name: str
    kind: str  # which kind of Galois point the criterion forces
    holds: bool | None  # None means indeterminate
    report: FixedLocusReport
    certificate: GaloisCertificate | None
    detail: str = ""


def _criterion_kind(X: Hypersurface, w: AutWitness) -> str:
    kind = homology_kind(w.order, X.d)
    if kind is None:
        raise CriterionNotApplicable(f"order {w.order} is neither d-1 nor d")
    return kind


def _certificate(X: Hypersurface, w: AutWitness, kind: str, holds: bool | None,
                 message: str) -> GaloisCertificate | None:
    """The certificate of w; a criterion that holds must have one of its
    kind, or else the theorem failed: fatal on a smooth X, an input error on
    a certified singular one."""
    cert = certificate_from_automorphism(X, w)
    if holds and (cert is None or cert.kind != kind):
        raise _fault(X, ConsistencyError(message))
    return cert


def curve_criterion(X: Hypersurface, w: AutWitness) -> CriterionResult:
    """Plane-curve criterion: ord d-1 with #Fix != 2, or ord d with Fix nonempty.

    Fix(g) comes from `fixed_locus`, so a conjugated homology g is read as
    it stands.  This is an equivalence on smooth curves, so when it holds the
    certificate must exist and a missing one is a fatal inconsistency; on a
    certified singular X, outside the theorem, it is an input error.
    """
    if X.n != 1:
        raise CriterionNotApplicable("curve criterion requires n = 1")
    kind = _criterion_kind(X, w)
    report = fixed_locus(X, w)
    holds = report.cardinality() != (2 if kind == "inner" else 0)
    cert = _certificate(X, w, kind, holds, "curve criterion holds but no certificate was produced")
    return CriterionResult("curve_criterion", kind, holds, report, cert,
                           f"|Fix| = {report.cardinality()}")


def codim_criterion(X: Hypersurface, w: AutWitness) -> CriterionResult:
    """Codimension-one criterion for n >= 2.

    Fix(g) comes from `fixed_locus`, as in the curve criterion.  For order d
    (outer) and for order d-1 with n >= 3, the test is whether a component
    of Fix(g) has dimension n-1.  For n = 2 and order d-1 the
    decisive component is a fixed curve that is not smooth rational: a smooth
    plane section of degree >= 4 qualifies, a line never does, and a singular
    section leaves the criterion indeterminate (its geometric genus is not
    computed here), as does one whose smoothness check hits the default
    smoothness deadline.  A missing certificate when the criterion holds is
    fatal on a smooth X and an input error on a certified singular one.
    """
    if X.n < 2:
        raise CriterionNotApplicable("codimension criterion requires n >= 2")
    kind = _criterion_kind(X, w)
    report = fixed_locus(X, w)
    holds, detail = False, ""
    if kind == "outer" or X.n >= 3:
        holds = any(c.dim == X.n - 1 for c in report.components)
    else:
        # in P^3 at most one eigenspace has dimension 3, so one section at most
        section = next((c.restriction for c in report.components
                        if c.kind == SECTION and c.dim == 1), None)
        if section is not None:
            status = is_smooth(Hypersurface(1, X.d, section),
                               deadline=DEFAULT_SMOOTH_DEADLINE).status
            holds, detail = {
                SMOOTH: (True, "smooth plane section of positive genus"),
                TIMEOUT: (None, "the fixed section's smoothness check timed out"),
            }.get(status, (None, "only singular fixed sections; genus not computed"))
    cert = _certificate(X, w, kind, holds,
                        "codimension criterion holds but no certificate was produced")
    return CriterionResult("codim_criterion", kind, holds, report, cert, detail)


def power_criterion(X: Hypersurface, w: AutWitness, k: int) -> CriterionResult:
    """Criterion for order k(d-1), k >= 2: many fixed points (n = 2) or a
    fixed locus of dimension n-2 (n >= 3) force an inner point for g^k.
    Fix(g) comes from `fixed_locus`, as in the curve criterion.  A missing
    inner certificate when it holds is fatal on a smooth X and an input
    error on a certified singular one."""
    if k < 2:
        raise CriterionNotApplicable("power criterion requires k >= 2")
    if w.order != k * (X.d - 1):
        raise CriterionNotApplicable(f"order {w.order} is not k(d-1) = {k * (X.d - 1)}")
    if X.n < 2:
        raise CriterionNotApplicable("power criterion requires n >= 2")
    report = fixed_locus(X, w)
    if X.n == 2:
        holds = report.cardinality() >= 5
        detail = f"|Fix| = {report.cardinality()}"
    else:
        holds = report.max_component_dim == X.n - 2
        detail = f"max component dimension {report.max_component_dim}"
    cert = None
    if holds:
        power = w.matrix ** k
        wk = verify_automorphism(X, power)
        if wk is None:
            raise ConsistencyError("power of a verified automorphism failed to verify")
        cert = _certificate(X, wk, "inner", holds,
                            "power criterion holds but no inner certificate exists")
    return CriterionResult("power_criterion", "inner", holds, report, cert, detail)
