"""Plane-curve specialization: the cyclic-automorphism classification table,
coordinate fixed points, genus bookkeeping, group closure, and the
abelian-subgroup structure check."""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .errors import ClosureBound, ConsistencyError, CriterionNotApplicable, UnsupportedShape
from .exactnum import factorize, recognize_root_of_unity
from .fixlocus import fixed_locus
from .hypersurface import AutWitness, Hypersurface, coordinate_points, verify_automorphism
from .projlin import ProjMatrix, projective_order

DEFAULT_CLOSURE_BOUND = 4096  # elements


@dataclass(frozen=True)
class CyclicClass:
    """One row of the classification of cyclic groups on smooth plane curves."""

    row: int
    n_fixed: int
    divisor: str


# (row, n(g), divisor of the order as a function of d, exponent pattern)
# pattern(s, t, ell, d) on the normalized diagonal (e^s, e^t, 1)
_TABLE = (
    (1, 0, "d", lambda s, t, ell, d: True),
    (2, 1, "d-1", lambda s, t, ell, d: t % ell == 0 and math.gcd(s, ell) == 1),
    (3, 1, "(d-1)d", lambda s, t, ell, d: math.gcd(s, ell) == 1 and (t - s * (1 - d)) % ell == 0),
    (4, 2, "d-1", lambda s, t, ell, d: True),
    (5, 2, "(d-1)^2", lambda s, t, ell, d: math.gcd(t, ell) == 1 and (s - t * (1 - d)) % ell == 0),
    (6, 2, "(d-2)d", lambda s, t, ell, d: math.gcd(s, ell) == 1 and (t - s * (1 - d)) % ell == 0),
    (7, 3, "d-1", lambda s, t, ell, d: t % ell == 0 and math.gcd(s, ell) == 1),
    (8, 3, "d^2-3d+3", lambda s, t, ell, d: math.gcd(s, ell) == 1 and (t - s * (d - 1)) % ell == 0),
)


def _divisor_value(label: str, d: int) -> int:
    return {
        "d": d,
        "d-1": d - 1,
        "(d-1)d": (d - 1) * d,
        "(d-1)^2": (d - 1) ** 2,
        "(d-2)d": (d - 2) * d,
        "d^2-3d+3": d * d - 3 * d + 3,
    }[label]


def require_plane_curve(X: Hypersurface, what: str, min_degree: int = 1) -> None:
    """CriterionNotApplicable unless X is a plane curve of degree >= min_degree."""
    if X.n != 1 or X.d < min_degree:
        raise CriterionNotApplicable(f"{what} requires a plane curve"
                                     + (f" of degree >= {min_degree}" if min_degree > 1 else ""))


def coord_point_count(X: Hypersurface, w: AutWitness) -> int:
    """n(g): how many of the three coordinate points lie on the curve."""
    require_plane_curve(X, "n(g)")
    if not w.matrix.is_diagonal():
        raise UnsupportedShape("n(g) needs a diagonal representation; diagonalize first")
    return sum(X.F.eval_at(p).is_zero() for p in coordinate_points(X))


def _dlog(x, ell: int) -> int:
    """Exponent of x as a power of a fixed primitive ell-th root of unity."""
    rec = recognize_root_of_unity(x)
    if rec is None:
        raise UnsupportedShape("diagonal entry ratio is not a root of unity")
    m, j = rec
    if ell % m != 0:
        raise UnsupportedShape("entry order does not divide the projective order")
    return (j * (ell // m)) % ell


def classify_cyclic(X: Hypersurface, w: AutWitness) -> list[CyclicClass]:
    """All classification rows matched by a diagonal automorphism of a plane curve.

    Matching is up to permutation of the diagonal entries (reordering
    coordinates is an allowed change) and up to the choice of primitive root;
    rows overlap by design, so every satisfied row is returned.  An empty
    result on a verified automorphism of a smooth curve is impossible and
    treated as fatal.
    """
    require_plane_curve(X, "classification", 4)
    if not w.matrix.is_diagonal():
        raise UnsupportedShape("classification needs a diagonal representation")
    nfix = coord_point_count(X, w)
    ell = w.order
    entries = [w.matrix.rows[i][i] for i in range(3)]
    matched = set()
    for p0, p1, p2 in permutations(range(3)):
        c = entries[p2]
        s = _dlog(entries[p0] / c, ell)
        t = _dlog(entries[p1] / c, ell)
        for row, want_nfix, divisor, pattern in _TABLE:
            if nfix != want_nfix:
                continue
            if _divisor_value(divisor, X.d) % ell != 0:
                continue
            if pattern(s, t, ell, X.d):
                matched.add(row)
    if not matched:
        raise ConsistencyError(
            "no classification row matched; the input is not an automorphism of a smooth curve")
    return [CyclicClass(row, nfix, divisor) for row, nf, divisor, _ in _TABLE if row in matched]


def plane_curve_genus(d: int) -> int:
    """(d-1)(d-2)/2 for a smooth plane curve of degree d."""
    if d < 1:
        raise ValueError("degree must be positive")
    return (d - 1) * (d - 2) // 2


@dataclass(frozen=True)
class GroupClosure:
    elements: tuple[ProjMatrix, ...]  # canonical representatives, identity first
    generators: tuple[ProjMatrix, ...]
    abelian: bool
    cyclic: bool
    order: int


def group_closure(generators, bound: int = DEFAULT_CLOSURE_BOUND) -> GroupClosure:
    """Closure of the generators in the projective linear group (BFS).

    Elements are deduplicated by their canonical scalar normalization, so the
    result is the image in PGL; products alone suffice because a finite
    closure of invertible elements is already a group.  The group is abelian
    exactly when its generators commute up to scalar.
    """
    gens = [g.canonical() for g in generators]
    if not gens:
        raise ValueError("at least one generator required")
    field = gens[0].field
    size = gens[0].size
    ident = ProjMatrix.identity(field, size)
    elements = [ident]
    keys = {ident.rows}
    queue = deque([ident])
    while queue:
        current = queue.popleft()
        for g in gens:
            nxt = (current @ g).canonical()
            if nxt.rows not in keys:
                if len(elements) >= bound:
                    raise ClosureBound(f"closure exceeded {bound} elements")
                keys.add(nxt.rows)
                elements.append(nxt)
                queue.append(nxt)
    abelian = all((a @ b).proj_eq(b @ a) for i, a in enumerate(gens) for b in gens[i + 1:])
    order = len(elements)
    cyclic = any(projective_order(e, k_max=order) == order for e in elements)
    return GroupClosure(tuple(elements), tuple(gens), abelian, cyclic, order)


@dataclass(frozen=True)
class QuotientGenusReport:
    curve_genus: int
    stabilizer_sum: int
    group_order: int
    quotient_genus: int
    fix_counts: tuple[int, ...]  # per non-identity element, closure order


def quotient_genus(X: Hypersurface, G: GroupClosure) -> QuotientGenusReport:
    """Genus of X/G from 2 - 2g(X) + sum_x(|G_x| - 1) = |G| (2 - 2g(X/G)).

    The stabilizer sum is aggregated per element: sum_x(|G_x| - 1) equals the
    sum of |Fix(g)| over the non-identity elements of G.  Non-integral or
    negative output is a consistency failure, not a value.
    """
    require_plane_curve(X, "quotient genus")
    g_X = plane_curve_genus(X.d)
    sigma = 0
    counts = []
    ident = ProjMatrix.identity(G.elements[0].field, G.elements[0].size)
    for elem in G.elements:
        if elem.proj_eq(ident):
            continue
        w = verify_automorphism(X, elem)
        if w is None:
            raise CriterionNotApplicable("closure contains a matrix that does not preserve X")
        report = fixed_locus(X, w)
        if report.total_finite_count is None:
            raise UnsupportedShape("an element fixes a positive-dimensional locus on a curve")
        counts.append(report.total_finite_count)
        sigma += report.total_finite_count
    lhs = 2 - 2 * g_X + sigma
    q = Fraction(lhs, 2 * G.order)
    genus_quotient = 1 - q
    if genus_quotient.denominator != 1 or genus_quotient < 0:
        raise ConsistencyError(f"quotient genus {genus_quotient} is not a non-negative integer")
    return QuotientGenusReport(g_X, sigma, G.order, int(genus_quotient), tuple(counts))


@dataclass(frozen=True)
class AbelianCheck:
    verdict: str  # "pass", "fail", or "not-applicable"
    reason: str = ""


def abelian_constraint_check(X: Hypersurface, G: GroupClosure) -> AbelianCheck:
    """For an abelian non-cyclic group on a smooth plane curve of degree >= 4:
    every element order divides d and the group has rank at most 2, i.e. it
    embeds in a product of two cyclic groups of order d."""
    require_plane_curve(X, "abelian check", 4)
    if not G.abelian:
        raise CriterionNotApplicable("closure is not abelian")
    orders = []  # the witness orders: each element's projective order, read once
    for elem in G.elements:
        w = verify_automorphism(X, elem)
        if w is None:
            raise CriterionNotApplicable("closure contains a matrix that does not preserve X")
        orders.append(w.order)
    if G.cyclic:
        return AbelianCheck("not-applicable", "cyclic group")
    for k in orders:
        if X.d % k != 0:
            return AbelianCheck("fail", f"element of order {k} does not divide d = {X.d}")
    for p in sorted(factorize(G.order)):
        # g^p is scalar exactly when ord(g) divides p: t counts the p-torsion
        t = sum(1 for k in orders if p % k == 0)
        rank = 0
        while t > 1:
            if t % p:
                raise ConsistencyError("p-torsion subgroup size is not a p-power")
            t //= p
            rank += 1
        if rank > 2:
            return AbelianCheck("fail", f"{p}-rank {rank} exceeds 2")
    return AbelianCheck("pass")
