import random

import pytest

from galois_scope.exactnum import cyclo_field
from galois_scope.hypersurface import (
    SINGULAR,
    SMOOTH,
    TIMEOUT,
    Hypersurface,
    basis_through,
    is_smooth,
    jacobian_generators,
    multiplicity_at_point,
    verify_automorphism,
)
from galois_scope.polyring import HomogPoly
from galois_scope.projlin import ProjMatrix

Q = cyclo_field(1)


def poly(field, nvars, terms):
    return HomogPoly.from_terms(field, nvars, terms)


def fermat_quartic(field=Q):
    return Hypersurface(1, 4, poly(field, 3, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}))


def sextic_curve(field):
    # x2^6 + x0^5 x2 + x1^5 x2 + x0^3 x1^3
    return Hypersurface(1, 6, poly(field, 3, {
        (0, 0, 6): 1, (5, 0, 1): 1, (0, 5, 1): 1, (3, 3, 0): 1}))


def surface_d11(field):
    # x0^11 + x0^6 x1^5 + x0 x1^10 + x2^10 x3 + x2 x3^10
    return Hypersurface(2, 11, poly(field, 4, {
        (11, 0, 0, 0): 1, (6, 5, 0, 0): 1, (1, 10, 0, 0): 1,
        (0, 0, 10, 1): 1, (0, 0, 1, 10): 1}))


def test_verify_automorphism_sextic():
    F5 = cyclo_field(5)
    X = sextic_curve(F5)
    A = ProjMatrix.diagonal(F5, [F5.zeta(3), F5.zeta(2), 1])
    w = verify_automorphism(X, A)
    assert w is not None
    assert w.scale == 1
    assert w.order == 5


def test_verify_automorphism_rejects():
    X = fermat_quartic()
    A = ProjMatrix.diagonal(Q, [2, 1, 1])
    assert verify_automorphism(X, A) is None


def test_verify_automorphism_monomial_d11():
    F55 = cyclo_field(55)
    X = surface_d11(F55)
    A = ProjMatrix.from_entries(F55, [
        [F55.zeta(45), 0, 0, 0],
        [0, F55.zeta(1), 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ])
    w = verify_automorphism(X, A)
    assert w is not None and w.order == 110


def test_witness_composition():
    F5 = cyclo_field(5)
    X = sextic_curve(F5)
    A = ProjMatrix.diagonal(F5, [F5.zeta(3), F5.zeta(2), 1])
    wA = verify_automorphism(X, A)
    wAA = verify_automorphism(X, A @ A)
    assert wA is not None and wAA is not None
    # scale of the square is determined by composition
    assert wAA.scale == wA.scale * wA.scale


def test_smooth_fermat():
    X = fermat_quartic()
    res = is_smooth(X)
    assert res.status == SMOOTH
    assert X.smooth_status == SMOOTH


def test_singular_with_witness():
    X = Hypersurface(1, 4, poly(Q, 3, {(4, 0, 0): 1, (0, 4, 0): 1}))
    res = is_smooth(X)
    assert res.status == SINGULAR
    assert res.witness is not None
    assert list(res.witness) == [Q.zero, Q.zero, Q.one]
    for p in jacobian_generators(X):
        assert p.is_zero() or p.eval_at(res.witness).is_zero()


def test_smooth_quintic_surface():
    # x1 x0^4 + x1^4 x2 + x2^5 + x3^5 in P^3: smooth by case analysis on the strata
    X = Hypersurface(2, 5, poly(Q, 4, {
        (4, 1, 0, 0): 1, (0, 4, 1, 0): 1, (0, 0, 5, 0): 1, (0, 0, 0, 5): 1}))
    res = is_smooth(X)
    assert res.status == SMOOTH


def test_smooth_matches_sympy_groebner():
    import sympy

    cases = [
        fermat_quartic(),
        Hypersurface(1, 4, poly(Q, 3, {(4, 0, 0): 1, (0, 4, 0): 1})),
        Hypersurface(1, 4, poly(Q, 3, {(3, 1, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})),
        Hypersurface(2, 4, poly(Q, 4, {(3, 0, 1, 0): 1, (0, 3, 0, 1): 1,
                                       (0, 0, 4, 0): 1, (0, 0, 0, 4): 1})),
    ]
    for X in cases:
        xs = sympy.symbols(f"s0:{X.n + 2}")
        expr = sympy.Integer(0)
        for mono, c in X.F.terms.items():
            r = c.rational()
            term = sympy.Rational(r.numerator, r.denominator)
            for x, e in zip(xs, mono):
                term *= x**e
            expr += term
        partials = [sympy.expand(sympy.diff(expr, x)) for x in xs]
        gb = sympy.groebner([p for p in partials if p != 0], *xs, order="grevlex")
        lead = [sympy.LM(g, order="grevlex") for g in gb.exprs]
        pure = set()
        for lm in lead:
            frees = lm.free_symbols
            if len(frees) == 1:
                pure.add(frees.pop())
        oracle_smooth = all(x in pure for x in xs)
        mine = is_smooth(X)
        assert (mine.status == SMOOTH) == oracle_smooth


def test_smooth_timeout():
    # degree 30 plane curve: the exact kernel should hit a tiny deadline
    X = Hypersurface(1, 30, poly(Q, 3, {
        (30, 0, 0): 1, (0, 30, 0): 1, (0, 0, 30): 1, (5, 6, 19): 1}))
    res = is_smooth(X, deadline=0.05)
    assert res.status in (TIMEOUT, SMOOTH)


def test_degree_guard():
    X = Hypersurface(1, 41, poly(Q, 3, {(41, 0, 0): 1, (0, 41, 0): 1, (0, 0, 41): 1}))
    with pytest.raises(ValueError):
        is_smooth(X)


def test_smooth_conjugation_invariant():
    rng = random.Random(31)
    X = fermat_quartic()
    for _ in range(3):
        while True:
            M = ProjMatrix.from_entries(Q, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
            if not M.det().is_zero():
                break
        Y = Hypersurface(1, 4, X.F.transform(M))
        assert is_smooth(Y).status == SMOOTH


def test_multiplicity_examples():
    X = fermat_quartic()
    assert multiplicity_at_point(X, (1, 0, 0)) == 0
    Y = Hypersurface(1, 4, poly(Q, 3, {(3, 1, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}))
    assert multiplicity_at_point(Y, (1, 0, 0)) == 1
    Z = Hypersurface(1, 4, poly(Q, 3, {(2, 2, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}))
    assert multiplicity_at_point(Z, (1, 0, 0)) == 2


def test_multiplicity_basis_independent():
    # same answer under a different (hand-rolled) basis completion
    Y = Hypersurface(1, 4, poly(Q, 3, {(3, 1, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}))
    p = (1, 1, 0)
    M1 = basis_through(p, Q, 3)
    M2 = ProjMatrix.from_entries(Q, [[1, 0, 1], [1, 1, 0], [0, 1, 0]])  # also maps e0 to p
    assert M2.column(0) == M1.column(0)
    m1 = Y.F.transform(M1).expand_in(0)
    m2 = Y.F.transform(M2).expand_in(0)
    assert Y.d - max(m1) == Y.d - max(m2) == multiplicity_at_point(Y, p)


def test_witness_composition_two_generators():
    F8 = cyclo_field(8)
    X = fermat_quartic(F8)
    A = ProjMatrix.diagonal(F8, [F8.zeta(2), 1, 1])
    B = ProjMatrix.from_entries(F8, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    wA, wB = verify_automorphism(X, A), verify_automorphism(X, B)
    assert wA is not None and wB is not None
    wAB = verify_automorphism(X, A @ B)
    assert wAB is not None
    # the composite scale is the product of the scales (diagonal case: no transport twist)
    assert wAB.scale == wA.scale * wB.scale


def test_embed_keeps_surface_at_same_conductor():
    F4 = cyclo_field(4)
    X = fermat_quartic(F4)
    assert X.embed(cyclo_field(4)) is X
    Y = X.embed(cyclo_field(12))
    assert Y.field.N == 12 and (Y.n, Y.d) == (X.n, X.d)
    assert Y.F == X.F.embed(cyclo_field(12))
