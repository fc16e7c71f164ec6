import math
import random

import pytest

from galois_scope.errors import SingularPoint
from galois_scope.exactnum import cyclo_field
from galois_scope.galois import (
    belongs_to,
    certificate_from_automorphism,
    commute_check,
    coordinate_points,
    count_certified_points,
    eigen_candidate_points,
    galois_at_point,
    galois_count_bounds,
    transport_certificate,
)
from galois_scope.hypersurface import Hypersurface, verify_automorphism
from galois_scope.polyring import HomogPoly
from galois_scope.projlin import ProjMatrix, vec_proj_eq, vector
from galois_scope.exactnum import embed_lift

Q = cyclo_field(1)


def poly(field, nvars, terms):
    return HomogPoly.from_terms(field, nvars, terms)


def fermat_quartic(field):
    return Hypersurface(1, 4, poly(field, 3, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}))


def test_certificate_fermat_outer():
    F4 = cyclo_field(4)
    X = fermat_quartic(F4)
    w = verify_automorphism(X, ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1]))
    cert = certificate_from_automorphism(X, w)
    assert cert is not None
    assert cert.kind == "outer"
    assert cert.group_order == 4
    assert vec_proj_eq(cert.point, (cert.field.one, cert.field.zero, cert.field.zero))


def test_certificate_inner_normal_form():
    F4 = cyclo_field(4)
    X = Hypersurface(1, 5, poly(F4, 3, {(4, 1, 0): 1, (0, 5, 0): 1, (0, 0, 5): 1}))
    w = verify_automorphism(X, ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1]))
    assert w is not None and w.order == 4
    cert = certificate_from_automorphism(X, w)
    assert cert is not None and cert.kind == "inner"
    # cross-check with the point-side detector
    pv = galois_at_point(X, (1, 0, 0))
    assert pv is not None and pv.kind == "inner"


def test_certificate_none_for_order3_on_quartic_surface():
    F3 = cyclo_field(3)
    X = Hypersurface(2, 4, poly(F3, 4, {
        (3, 0, 1, 0): 1, (0, 3, 0, 1): 1, (0, 0, 4, 0): 1, (0, 0, 0, 4): 1}))
    w = verify_automorphism(X, ProjMatrix.diagonal(F3, [F3.zeta(), F3.zeta(2), 1, 1]))
    assert w is not None and w.order == 3
    assert certificate_from_automorphism(X, w) is None


def test_galois_at_point_examples():
    X = fermat_quartic(Q)
    pv = galois_at_point(X, (1, 0, 0))
    assert pv is not None and pv.kind == "outer"
    # the shifted instance needs the change x0 -> x0 - x1
    Y = Hypersurface(1, 4, poly(Q, 3, {
        (4, 0, 0): 1, (3, 1, 0): 4, (2, 2, 0): 6, (1, 3, 0): 4, (0, 4, 0): 2, (0, 0, 4): 1}))
    pv = galois_at_point(Y, (1, 0, 0))
    assert pv is not None and pv.kind == "outer"
    normal = Y.F.transform(pv.change)
    ks = set(normal.expand_in(0))
    assert ks <= {4, 0}
    assert galois_at_point(X, (1, 1, 0)) is None


def test_galois_at_point_shift_coefficient_oracle():
    # independent sympy expansion of the forced shift at [1:1:0] on the Fermat quartic
    import sympy

    t, y = sympy.symbols("t y")
    f = (t**4 + (t + y) ** 4).expand()  # x2 plays no role at this point
    lead = f.coeff(t, 4)
    f = sympy.expand(f / lead)
    g1 = f.coeff(t, 3)
    shifted = sympy.expand(f.subs(t, t - g1 / 4))
    assert shifted.coeff(t, 3) == 0
    assert shifted.coeff(t, 2) == sympy.Rational(3, 2) * y**2
    # so the middle coefficients do not vanish and the detector must reject
    assert galois_at_point(fermat_quartic(Q), (1, 1, 0)) is None


def test_galois_at_point_inner_divisibility_rejection():
    # G_1 = x1, G_2 = x2^2: not divisible, so the point is rejected
    X = Hypersurface(1, 4, poly(Q, 3, {
        (3, 1, 0): 1, (2, 0, 2): 1, (0, 4, 0): 1, (0, 0, 4): 1}))
    assert galois_at_point(X, (1, 0, 0)) is None


def test_galois_at_point_rejects_singular_point():
    X = Hypersurface(1, 4, poly(Q, 3, {(2, 2, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}))
    with pytest.raises(SingularPoint):
        galois_at_point(X, (1, 0, 0))


def test_belongs_to():
    F4 = cyclo_field(4)
    X = fermat_quartic(F4)
    w = verify_automorphism(X, ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1]))
    assert belongs_to(X, w, (1, 0, 0))
    assert not belongs_to(X, w, (0, 1, 0))
    F5 = cyclo_field(5)
    sextic = Hypersurface(1, 6, poly(F5, 3, {
        (0, 0, 6): 1, (5, 0, 1): 1, (0, 5, 1): 1, (3, 3, 0): 1}))
    ws = verify_automorphism(sextic, ProjMatrix.diagonal(F5, [F5.zeta(3), F5.zeta(2), 1]))
    for p in coordinate_points(sextic):
        assert not belongs_to(sextic, ws, p)


def test_transport_certificate():
    F4 = cyclo_field(4)
    X = fermat_quartic(F4)
    w = verify_automorphism(X, ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1]))
    cert = certificate_from_automorphism(X, w)
    swap = verify_automorphism(X, ProjMatrix.from_entries(F4, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    moved = transport_certificate(cert, swap)
    assert moved.kind == "outer"
    assert vec_proj_eq(moved.point, (moved.field.zero, moved.field.one, moved.field.zero))
    # transported certificate is again valid: its generator certifies its point
    wm = verify_automorphism(X, moved.generator)
    cert2 = certificate_from_automorphism(X, wm)
    assert cert2 is not None and vec_proj_eq(cert2.point, vector(cert2.field, moved.point))
    # transporting by g itself fixes the certificate
    self_moved = transport_certificate(cert, w)
    assert vec_proj_eq(self_moved.point, vector(self_moved.field, cert.point))
    # transport there and back is the identity on the point
    swap_back = verify_automorphism(X, swap.matrix.inverse())
    back = transport_certificate(moved, swap_back)
    assert vec_proj_eq(back.point, vector(back.field, cert.point))


def test_commute_check():
    F4 = cyclo_field(4)
    X = fermat_quartic(F4)
    w = verify_automorphism(X, ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1]))
    cert = certificate_from_automorphism(X, w)
    k1 = verify_automorphism(X, ProjMatrix.diagonal(F4, [1, 1, -1]))
    assert commute_check(cert, k1) == "commutes"
    k2 = verify_automorphism(X, ProjMatrix.from_entries(F4, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]))
    assert commute_check(cert, k2) == "commutes"
    k3 = verify_automorphism(X, ProjMatrix.from_entries(F4, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    assert commute_check(cert, k3) == "not-applicable"


def test_count_certified_points_fermat():
    X = fermat_quartic(Q)
    report = count_certified_points(X, coordinate_points(X))
    assert report.inner == 0
    assert report.outer == 3
    assert report.outer <= report.outer_bound == 3
    # oracle: each coordinate point individually passes the point-side test
    for p in coordinate_points(X):
        pv = galois_at_point(X, p)
        assert pv is not None and pv.kind == "outer"


def test_count_zero_on_sextic():
    F5 = cyclo_field(5)
    X = Hypersurface(1, 6, poly(F5, 3, {
        (0, 0, 6): 1, (5, 0, 1): 1, (0, 5, 1): 1, (3, 3, 0): 1}))
    w = verify_automorphism(X, ProjMatrix.diagonal(F5, [F5.zeta(3), F5.zeta(2), 1]))
    report = count_certified_points(X, eigen_candidate_points(X, [w]))
    assert report.inner == 0 and report.outer == 0


def test_count_bounds_table():
    assert galois_count_bounds(1, 4) == (4, 3)
    assert galois_count_bounds(1, 6) == (1, 3)
    assert galois_count_bounds(2, 4) == (8, 4)
    assert galois_count_bounds(2, 5) == (2, 4)
    assert galois_count_bounds(3, 7) == (2, 5)


def random_invertible(rng, field, n, lo=-2, hi=2):
    while True:
        M = ProjMatrix.from_entries(field, [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
        if not M.det().is_zero():
            return M


def normal_form_instance(rng, n, d, kind):
    """A hypersurface in normal form composed with a random coordinate change.

    Returns (X, witness matrix, expected point) where the expected point is
    the transport of [1:0:...:0].
    """
    order = d - 1 if kind == "inner" else d
    field = cyclo_field(order)
    nv = n + 2
    terms = {}
    if kind == "inner":
        terms[(d - 1,) + (1,) + (0,) * n] = 1
    else:
        terms[(d,) + (0,) * (n + 1)] = 1
    for i in range(1, nv):
        mono = [0] * nv
        mono[i] = d
        terms[tuple(mono)] = rng.randint(1, 3)
    for _ in range(rng.randint(1, 3)):
        mono = [0] * nv
        for _ in range(d):
            mono[rng.randrange(1, nv)] += 1
        c = rng.randint(-2, 2)
        if c:
            terms[tuple(mono)] = c
    F0 = HomogPoly.from_terms(field, nv, terms, degree=d)
    A0 = ProjMatrix.diagonal(field, [field.zeta(field.N // order)] + [1] * (n + 1))
    C = random_invertible(rng, field, nv)
    F1 = F0.transform(C.inverse())
    B = C @ A0 @ C.inverse()
    X = Hypersurface(n, d, F1)
    p = C.apply(tuple(field.one if i == 0 else field.zero for i in range(nv)))
    return X, B, p


def test_detector_round_trip_small():
    rng = random.Random(20240601)
    checked = 0
    for kind in ("inner", "outer"):
        for n in (1, 2):
            for d in (4, 5):
                for _ in range(3):
                    X, B, p = normal_form_instance(rng, n, d, kind)
                    w = verify_automorphism(X, B)
                    assert w is not None
                    cert = certificate_from_automorphism(X, w)
                    assert cert is not None and cert.kind == kind
                    target = cyclo_field(math.lcm(cert.field.N, X.field.N))
                    assert vec_proj_eq(
                        vector(target, cert.point),
                        tuple(embed_lift(c, target) for c in p))
                    pv = galois_at_point(X, p)
                    assert pv is not None and pv.kind == kind
                    checked += 1
    assert checked == 24


def test_backbone_cross_check_on_corpus():
    # wherever the automorphism side certifies, the point side must agree
    import json

    from galois_scope.corpus import bundled_corpus_dir, load_instance

    for path in sorted(bundled_corpus_dir().glob("*.json")):
        raw = json.loads(path.read_text())
        if raw.get("kind") != "instance":
            continue
        inst = load_instance(raw)
        X = inst.surface
        for name, A in inst.automorphisms.items():
            w = verify_automorphism(X, A)
            if w is None:
                continue
            cert = certificate_from_automorphism(X, w)
            if cert is None:
                continue
            Xl = Hypersurface(X.n, X.d, X.F.embed(cert.field))
            pv = galois_at_point(Xl, cert.point)
            assert pv is not None and pv.kind == cert.kind, (inst.name, name)
