import math
import random
from itertools import product

import pytest

from galois_scope import fixlocus
from galois_scope.errors import CriterionNotApplicable
from galois_scope.exactnum import cyclo_field
from galois_scope.fixlocus import (
    EMPTY,
    FINITE,
    WHOLE,
    codim_criterion,
    curve_criterion,
    fixed_locus,
    power_criterion,
)
from galois_scope.hypersurface import (
    DEFAULT_SMOOTH_DEADLINE,
    TIMEOUT,
    Hypersurface,
    SmoothnessResult,
    verify_automorphism,
)
from galois_scope.polyring import HomogPoly
from galois_scope.projlin import ProjMatrix, vec_proj_eq

Q = cyclo_field(1)


def poly(field, nvars, terms):
    return HomogPoly.from_terms(field, nvars, terms)


def brute_force_fixed_points(X, A, coord_values):
    """Probe-set oracle: scan points with coordinates in the given finite set
    for projective fixed points on X."""
    from galois_scope.projlin import vec_normalize, vec_proj_eq

    field = X.field
    found = []
    nv = X.n + 2
    for combo in product(coord_values, repeat=nv):
        vals = [c if not isinstance(c, (int,)) else field.from_rational(c) for c in combo]
        if all(v.is_zero() for v in vals):
            continue
        p = tuple(vals)
        if not X.F.eval_at(p).is_zero():
            continue
        if not vec_proj_eq(A.apply(p), p):
            continue
        p = vec_normalize(p)
        if not any(vec_proj_eq(p, q) for q in found):
            found.append(p)
    return found


def quartic_surface(field):
    return Hypersurface(2, 4, poly(field, 4, {
        (3, 0, 1, 0): 1, (0, 3, 0, 1): 1, (0, 0, 4, 0): 1, (0, 0, 0, 4): 1}))


def test_fixed_locus_quartic_surface():
    F3 = cyclo_field(3)
    X = quartic_surface(F3)
    w = verify_automorphism(X, ProjMatrix.diagonal(F3, [F3.zeta(), F3.zeta(2), 1, 1]))
    report = fixed_locus(X, w)
    assert report.total_finite_count == 6
    assert report.max_component_dim == 0
    kinds = sorted(c.kind for c in report.components)
    assert kinds == [FINITE, FINITE, FINITE]
    line = [c for c in report.components if c.count == 4]
    assert len(line) == 1
    # oracle: evaluate F on the eigenspace and count binary-form roots via sympy
    import sympy

    t = sympy.symbols("t")
    u = t**4 + 1  # restriction x2^4 + x3^4 dehomogenized
    assert sympy.degree(u) - sympy.degree(sympy.gcd(u, sympy.diff(u, t))) == 4


def test_fixed_locus_matches_probe_scan():
    F3 = cyclo_field(3)
    X = quartic_surface(F3)
    A = ProjMatrix.diagonal(F3, [F3.zeta(), F3.zeta(2), 1, 1])
    w = verify_automorphism(X, A)
    report = fixed_locus(X, w)
    probe_vals = [F3.zero, F3.one, F3.zeta(), F3.zeta(2), -F3.one]
    probe = brute_force_fixed_points(X, A, probe_vals)
    # the probe found the two coordinate fixed points; each must appear in a component
    assert len(probe) >= 2
    coord_pts = [pt for c in report.components if c.points for pt in c.points]
    for p in probe:
        covered = any(vec_proj_eq(p, q) for q in coord_pts)
        if not covered:
            # must lie on a positive-dimensional or unenumerated component
            line_comps = [c for c in report.components if c.points is None and c.kind != EMPTY]
            assert line_comps
            covered = any(_in_span(p, c.basis) for c in line_comps)
        assert covered


def _in_span(p, basis):
    # rank test: p in span(basis) over the field
    field = p[0].field
    rows = [list(b) for b in basis] + [list(p)]
    n = len(p)
    rank = 0
    cols = list(range(n))
    rows = [r[:] for r in rows]
    for col in cols:
        piv = next((i for i in range(rank, len(rows)) if not rows[i][col].is_zero()), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        for i in range(len(rows)):
            if i != rank and not rows[i][col].is_zero():
                f = rows[i][col] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    basis_rank = len(basis)
    return rank == basis_rank


def test_fixed_locus_fermat_quartic():
    F4 = cyclo_field(4)
    X = Hypersurface(1, 4, poly(F4, 3, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}))
    w = verify_automorphism(X, ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1]))
    report = fixed_locus(X, w)
    assert report.total_finite_count == 4
    assert report.max_component_dim != -1
    e0_comp = [c for c in report.components if c.kind == EMPTY]
    assert len(e0_comp) == 1  # e0 is not on X


def test_fixed_locus_constructed_quintic():
    F8 = cyclo_field(8)
    X = Hypersurface(2, 5, poly(F8, 4, {
        (4, 1, 0, 0): 1, (0, 4, 1, 0): 1, (0, 0, 5, 0): 1, (0, 0, 0, 5): 1}))
    w = verify_automorphism(X, ProjMatrix.diagonal(F8, [F8.zeta(), -1, 1, 1]))
    assert w is not None and w.order == 8
    report = fixed_locus(X, w)
    assert report.total_finite_count == 7


def test_fixed_locus_conjugation_correspondence():
    # the homology diag(z3, 1, 1, 1) preserves the quartic surface, where x0
    # appears only in x0^3*x2; its conjugates are read with no witness
    rng = random.Random(40)
    F3 = cyclo_field(3)
    X = quartic_surface(F3)
    A = ProjMatrix.diagonal(F3, [F3.zeta(), 1, 1, 1])
    w = verify_automorphism(X, A)
    base = fixed_locus(X, w)
    for _ in range(3):
        while True:
            M = ProjMatrix.from_entries(F3, [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
            if not M.det().is_zero():
                break
        Y = Hypersurface(2, 4, X.F.transform(M))
        B = M.inverse() @ A @ M
        wB = verify_automorphism(Y, B)
        assert wB is not None and B.monomial_permutation() is None
        moved = fixed_locus(Y, wB)
        assert moved.total_finite_count == base.total_finite_count
        assert moved.max_component_dim == base.max_component_dim
        assert [(c.kind, c.dim, c.count) for c in moved.components] == \
            [(c.kind, c.dim, c.count) for c in base.components]


def test_distinct_eigenvalue_curve_count_bound():
    F60 = cyclo_field(60)
    rng = random.Random(50)
    fermat = {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}
    X = Hypersurface(1, 4, poly(F60, 3, fermat))
    for _ in range(5):
        exps = rng.sample(range(60), 3)
        A = ProjMatrix.diagonal(F60, [F60.zeta(e) for e in exps])
        distinct = len({(A.rows[i][i] / A.rows[0][0]).tag for i in range(3)})
        if distinct != 3:
            continue
        w = verify_automorphism(X, A)
        if w is None:
            continue
        report = fixed_locus(X, w)
        assert report.total_finite_count is not None
        assert report.total_finite_count <= 3


def test_curve_criterion_fermat_outer():
    F4 = cyclo_field(4)
    X = Hypersurface(1, 4, poly(F4, 3, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}))
    w = verify_automorphism(X, ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1]))
    res = curve_criterion(X, w)
    assert res.holds is True
    assert res.kind == "outer"
    assert res.certificate is not None


def test_curve_criterion_sextic_fails():
    F5 = cyclo_field(5)
    X = Hypersurface(1, 6, poly(F5, 3, {
        (0, 0, 6): 1, (5, 0, 1): 1, (0, 5, 1): 1, (3, 3, 0): 1}))
    w = verify_automorphism(X, ProjMatrix.diagonal(F5, [F5.zeta(3), F5.zeta(2), 1]))
    res = curve_criterion(X, w)
    assert res.holds is False
    assert res.report.cardinality() == 2
    assert res.certificate is None


def test_curve_criterion_inner_quartic():
    F3 = cyclo_field(3)
    X = Hypersurface(1, 4, poly(F3, 3, {(3, 1, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}))
    w = verify_automorphism(X, ProjMatrix.diagonal(F3, [F3.zeta(), 1, 1]))
    assert w.order == 3
    res = curve_criterion(X, w)
    assert res.holds is True and res.kind == "inner"
    assert res.report.cardinality() == 5
    assert res.certificate is not None
    assert vec_proj_eq(res.certificate.point, (F3.one, F3.zero, F3.zero))


def test_codim_criterion_inner_surface():
    # x0^4 x1 + fermat quintic tail: fixed plane section is smooth
    F4 = cyclo_field(4)
    X = Hypersurface(2, 5, poly(F4, 4, {
        (4, 1, 0, 0): 1, (0, 5, 0, 0): 1, (0, 0, 5, 0): 1, (0, 0, 0, 5): 1}))
    w = verify_automorphism(X, ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1, 1]))
    assert w.order == 4
    res = codim_criterion(X, w)
    assert res.holds is True and res.kind == "inner"
    assert res.certificate is not None


def test_codim_criterion_section_check_has_a_deadline(monkeypatch):
    """The fixed section's smoothness check runs under the default deadline,
    and a timeout leaves the criterion indeterminate, with its own detail."""
    deadlines = []

    def timed_out(X, deadline=None):
        deadlines.append(deadline)
        return SmoothnessResult(TIMEOUT)

    monkeypatch.setattr(fixlocus, "is_smooth", timed_out)
    F4 = cyclo_field(4)
    X = Hypersurface(2, 5, poly(F4, 4, {
        (4, 1, 0, 0): 1, (0, 5, 0, 0): 1, (0, 0, 5, 0): 1, (0, 0, 0, 5): 1}))
    w = verify_automorphism(X, ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1, 1]))
    res = codim_criterion(X, w)
    assert deadlines == [DEFAULT_SMOOTH_DEADLINE]
    assert res.holds is None and res.kind == "inner"
    assert res.detail == "the fixed section's smoothness check timed out"


def test_codim_criterion_fails_on_quartic_surface():
    F3 = cyclo_field(3)
    X = quartic_surface(F3)
    w = verify_automorphism(X, ProjMatrix.diagonal(F3, [F3.zeta(), F3.zeta(2), 1, 1]))
    res = codim_criterion(X, w)
    assert res.holds is False
    assert res.certificate is None


def test_codim_criterion_with_a_fixed_line():
    # x0^4 + x1^4 + x0 x2^3 + x1 x3^3 contains the line x0 = x1 = 0, which
    # diag(1, 1, z, z) fixes pointwise; its 1-eigenline meets X in 4 points
    F3 = cyclo_field(3)
    X = Hypersurface(2, 4, poly(F3, 4, {
        (4, 0, 0, 0): 1, (0, 4, 0, 0): 1, (1, 0, 3, 0): 1, (0, 1, 0, 3): 1}))
    w = verify_automorphism(X, ProjMatrix.diagonal(F3, [1, 1, F3.zeta(), F3.zeta()]))
    assert w is not None and w.order == 3
    res = codim_criterion(X, w)
    kinds = sorted((c.kind, c.dim, c.count) for c in res.report.components)
    assert kinds == [(FINITE, 0, 4), (WHOLE, 1, None)]
    assert res.report.cardinality() == math.inf
    assert res.report.total_finite_count is None
    assert res.holds is False and res.kind == "inner"
    assert res.certificate is None  # two double eigenvalues: not a homology


def test_codim_criterion_outer_threefold():
    F5 = cyclo_field(5)
    X = Hypersurface(3, 5, poly(F5, 5, {
        (5, 0, 0, 0, 0): 1, (0, 5, 0, 0, 0): 1, (0, 0, 5, 0, 0): 1,
        (0, 0, 0, 5, 0): 1, (0, 0, 0, 0, 5): 1}))
    w = verify_automorphism(X, ProjMatrix.diagonal(F5, [F5.zeta(), 1, 1, 1, 1]))
    assert w.order == 5
    res = codim_criterion(X, w)
    assert res.holds is True and res.kind == "outer"
    assert res.certificate is not None


def test_power_criterion_quintic():
    F8 = cyclo_field(8)
    X = Hypersurface(2, 5, poly(F8, 4, {
        (4, 1, 0, 0): 1, (0, 4, 1, 0): 1, (0, 0, 5, 0): 1, (0, 0, 0, 5): 1}))
    w = verify_automorphism(X, ProjMatrix.diagonal(F8, [F8.zeta(), -1, 1, 1]))
    res = power_criterion(X, w, k=2)
    assert res.holds is True
    assert res.certificate is not None and res.certificate.kind == "inner"
    e0 = (res.certificate.field.one,) + (res.certificate.field.zero,) * 3
    assert vec_proj_eq(res.certificate.point, e0)


def test_power_criterion_threefold():
    # n = 3: a fixed surface section of dimension n - 2 = 1 forces an inner
    # point of g^4 = diag(z^-4, 1, 1, 1, 1) at e0
    F12 = cyclo_field(12)
    X = Hypersurface(3, 4, poly(F12, 5, {
        (3, 1, 0, 0, 0): 1, (0, 4, 0, 0, 0): 1, (0, 0, 4, 0, 0): 1,
        (0, 0, 0, 4, 0): 1, (0, 0, 0, 0, 4): 1}))
    w = verify_automorphism(X, ProjMatrix.diagonal(F12, [F12.zeta(-1), F12.zeta(3), 1, 1, 1]))
    assert w is not None and w.order == 12
    res = power_criterion(X, w, k=4)
    assert res.report.max_component_dim == 1
    assert res.holds is True and res.detail == "max component dimension 1"
    cert = res.certificate
    assert cert is not None and cert.kind == "inner" and cert.group_order == 3
    assert vec_proj_eq(cert.point, (F12.one,) + (F12.zero,) * 4)


def test_power_criterion_refuses_wrong_order():
    F8 = cyclo_field(8)
    X = Hypersurface(2, 5, poly(F8, 4, {
        (4, 1, 0, 0): 1, (0, 4, 1, 0): 1, (0, 0, 5, 0): 1, (0, 0, 0, 5): 1}))
    w = verify_automorphism(X, ProjMatrix.diagonal(F8, [F8.zeta(), -1, 1, 1]))
    with pytest.raises(ValueError):
        power_criterion(X, w, k=3)


def test_power_criterion_low_count_fails():
    # diag(a, b, c, 1) with distinct entries on an invariant quartic: |Fix| <= 4
    F6 = cyclo_field(6)
    X = Hypersurface(2, 4, poly(F6, 4, {
        (4, 0, 0, 0): 1, (0, 4, 0, 0): 1, (0, 1, 0, 3): 1, (1, 0, 1, 2): 1,
    }))
    A = ProjMatrix.diagonal(F6, [F6.zeta(), F6.zeta(4), F6.zeta(3), 1])
    w = verify_automorphism(X, A)
    assert w is not None and w.order == 6  # = 2 * (d - 1)
    res = power_criterion(X, w, k=2)
    assert res.holds is False
    assert res.report.cardinality() <= 4


@pytest.mark.parametrize("name", ["codim", "power"])
def test_criterion_without_certificate_on_singular_x_is_input_error(name):
    # each X holds the fixed line {x1 = x2 = 0} and is singular along it, so
    # the criterion holds while the matrix (codim) or its square (power) has
    # three eigenvalues and no homology: outside the smooth-case theorems
    if name == "codim":
        F4 = cyclo_field(4)
        X = Hypersurface(2, 4, poly(F4, 4, {
            (4, 0, 0, 0): 1, (0, 0, 0, 4): 1, (0, 2, 0, 2): 1, (0, 0, 2, 2): 1}))
        w = verify_automorphism(X, ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1, -1]))
        run, message = lambda: codim_criterion(X, w), "codimension criterion holds"
    else:
        F6 = cyclo_field(6)
        X = Hypersurface(2, 4, poly(F6, 4, {
            (1, 0, 3, 0): 1, (0, 0, 3, 1): 1, (0, 2, 2, 0): 1}))
        w = verify_automorphism(X, ProjMatrix.diagonal(F6, [1, F6.zeta(), F6.zeta(2), 1]))
        assert w.order == 6
        run, message = lambda: power_criterion(X, w, k=2), "no inner certificate"
    with pytest.raises(CriterionNotApplicable, match=f"X is singular.*{message}"):
        run()
