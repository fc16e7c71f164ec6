import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galois_scope import hypersurface, projlin
from galois_scope.corpus import normal_form_instance, random_unimodular
from galois_scope.errors import OrderBoundExceeded
from galois_scope.exactnum import cyclo_field, recognize_root_of_unity
from galois_scope.groebner import leading_pure_powers, modular_leading_monomials, modular_prime
from galois_scope.hypersurface import (
    SINGULAR,
    SMOOTH,
    TIMEOUT,
    AutWitness,
    Hypersurface,
    _singular_result,
    is_smooth,
    jacobian_generators,
    multiplicity_at_point,
    verify_automorphism,
)
from galois_scope.polyring import HomogPoly
from galois_scope.projlin import ProjMatrix, _rank_one, projective_order
from test_projlin import homology_cases

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


def transform_witness(X, A):
    """The substitution check: F(A.X) against scale * F, then projective_order(A)."""
    F = X.F
    G = F.transform(A)
    if set(G.terms) != set(F.terms):
        return None
    mono = next(iter(F.terms))
    lam = G.terms[mono] / F.terms[mono]
    if any(G.terms[m] != c * lam for m, c in F.terms.items()):
        return None
    return AutWitness(A, lam, projective_order(A))


def witness_or_message(verify, X, A):
    try:
        w = verify(X, A)
    except OrderBoundExceeded as exc:
        return str(exc)
    return w and (w.matrix, w.scale, w.scale.tag, w.order)


@st.composite
def conjugated_automorphisms(draw):
    """(X, A), A times a scalar: a normal-form generator or a power of it, the
    same centre with another axis, a conjugated diag(2, 1, .., 1) on that
    normal form, a reducible x0 * G(x1, ..) under a conjugated
    diag(2, 1, .., 1), or a cone over G(x1, ..) under a conjugated
    transvection."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(4, 7))
    kind = draw(st.sampled_from(["inner", "outer"]))
    rng = random.Random(draw(st.integers(0, 2**16)))
    X, B, _, C = normal_form_instance(rng, n, d, kind)
    K, size = X.field, n + 2
    shape = draw(st.sampled_from(["power", "axis", "ratio 2", "reducible", "transvection"]))
    if shape == "power":
        A = B ** draw(st.integers(1, d))
    elif shape == "axis":
        T = ProjMatrix.from_entries(K, [[1] + [rng.randint(-2, 2) for _ in range(size - 1)]]
                                    + [[int(i == j) for j in range(size)] for i in range(1, size)])
        C2 = C @ T  # C2 e_0 = C e_0
        A = C2 @ ProjMatrix.diagonal(K, [K.zeta()] + [1] * (size - 1)) @ C2.inverse()
    elif shape == "ratio 2":
        A = C @ ProjMatrix.diagonal(K, [2] + [1] * (size - 1)) @ C.inverse()
    else:
        if shape == "reducible":  # x0 * (x1^(d-1) + .. + x_(n+1)^(d-1))
            terms = {(1,) + tuple((d - 1) * (j == i) for j in range(1, size)): 1
                     for i in range(1, size)}
            A0 = ProjMatrix.diagonal(K, [2] + [1] * (size - 1))
        else:
            terms = {tuple(d * (j == i) for j in range(size)): 1 for i in range(1, size)}
            A0 = ProjMatrix.from_entries(K, [[int(i == j or (i, j) == (0, 1)) for j in range(size)]
                                             for i in range(size)])
        X = Hypersurface(n, d, HomogPoly.from_terms(K, size, terms, degree=d).transform(C.inverse()))
        A = C @ A0 @ C.inverse()
    return X, A.scale(draw(st.sampled_from([1, -2, 3, K.zeta()])))


@settings(max_examples=60, deadline=None)
@given(conjugated_automorphisms())
def test_eigenbasis_verify_matches_transform(case):
    # the same witness (matrix, scale and its form, order) or the same message
    X, A = case
    assert witness_or_message(verify_automorphism, X, A) == witness_or_message(
        transform_witness, X, A)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["inner", "outer"])
def test_generator_verify_makes_no_transform(monkeypatch, n, kind):
    # a normal-form generator is verified in its eigenbasis, read once
    X, B, _, _ = normal_form_instance(random.Random(f"eigenbasis:{n}:{kind}"), n, 5, kind)
    monkeypatch.setattr(HomogPoly, "transform", lambda F, A: pytest.fail("dense transform"))
    calls = []
    rank_one = projlin._rank_one
    monkeypatch.setattr(projlin, "_rank_one", lambda A: calls.append(A) or rank_one(A))
    w = verify_automorphism(X, B)
    assert w is not None and w.order == (4 if kind == "inner" else 5)
    assert calls == [B]


def form_preserved_by(A, d, n, rng):
    """(X, A, multiplicity) for a matrix A that reads as A = bI + M, M of rank
    one, a != b and a/b a root of unity: X is F0(C^-1 X) for an eigenbasis C
    of A, F0 = G(Y') plus terms Y_0^k H(Y') with ord(a/b) dividing k, so A
    preserves X, and X has multiplicity d - max(k) at the centre C e_0
    (d for a cone, when no k fits).  None for any other A."""
    read = _rank_one(A)
    if read is None or read[0] == read[1]:
        return None
    rec = recognize_root_of_unity(read[0] / read[1])
    if rec is None:
        return None
    K, size = A.field, n + 2

    def monomial(k):
        mono = [k] + [0] * (size - 1)
        for _ in range(d - k):
            mono[rng.randrange(1, size)] += 1
        return tuple(mono)

    terms = {tuple(d * (j == i) for j in range(size)): rng.randint(1, 3) for i in range(1, size)}
    tops = [k for k in range(rec[0], d + 1, rec[0]) if rng.random() < 0.6]
    for k in tops:
        terms[monomial(k)] = rng.choice([-1, 1, 2])
    C = ProjMatrix(K, tuple(zip(*projlin._eigenbasis(read[2], read[3]))))
    X = Hypersurface(n, d, HomogPoly.from_terms(K, size, terms, degree=d).transform(C.inverse()))
    return X, A, d - max(tops, default=0)


@st.composite
def homology_witness_cases(draw):
    """(X, A, multiplicity): a `homology_cases` matrix with a homology
    reading on a form it preserves, or a normal-form generator (n = 1, 2)."""
    if draw(st.booleans()):
        A, d, n = draw(homology_cases().filter(lambda case: _rank_one(case[0]) is not None))
        case = form_preserved_by(A, d, n, random.Random(draw(st.integers(0, 2**16))))
        if case is not None:
            return case
    n, d = draw(st.integers(1, 2)), draw(st.integers(4, 7))
    kind = draw(st.sampled_from(["inner", "outer"]))
    X, B, _, _ = normal_form_instance(random.Random(draw(st.integers(0, 2**16))), n, d, kind)
    return X, B, int(kind == "inner")


F3, F4 = cyclo_field(3), cyclo_field(4)
CONE = (Hypersurface(1, 4, poly(F4, 3, {(0, 4, 0): 1, (0, 0, 4): 1})),
        ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1]), 4)
REDUCIBLE = (Hypersurface(1, 4, poly(F3, 3, {(1, 3, 0): 1, (1, 0, 3): 1, (4, 0, 0): 1})),
             ProjMatrix.diagonal(F3, [F3.zeta(), 1, 1]), 0)


@settings(max_examples=60)
@given(homology_witness_cases())
@example(CONE)
@example(REDUCIBLE)
def test_reading_multiplicity_matches_polar_chain(case):
    # the multiplicity verify reads off F in the eigenbasis (or off F for a
    # diagonal homology) is the point side's polar-chain reading at the centre
    X, A, mult = case
    w = verify_automorphism(X, A)
    assert w is not None and w.reading is not None
    a, b, centre, got = w.reading
    assert (a, b) == _rank_one(A)[:2]
    assert A.apply(centre) == tuple(a * x for x in centre)
    assert got == multiplicity_at_point(X, centre) == mult


@pytest.mark.parametrize("shape", ["monomial", "three eigenvalues", "conjugated three", "2x2"])
def test_reading_only_for_homologies(shape):
    X = fermat_quartic(F4)
    if shape == "monomial":
        A = ProjMatrix.from_entries(F4, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    elif shape == "three eigenvalues":
        A = ProjMatrix.diagonal(F4, [F4.zeta(), F4.zeta(2), 1])
    elif shape == "conjugated three":  # no rank-one reading, substituted as it is
        C = random_unimodular(random.Random(4), F4, 3)
        X = Hypersurface(1, 4, X.F.transform(C.inverse()))
        A = C @ ProjMatrix.diagonal(F4, [F4.zeta(), F4.zeta(2), 1]) @ C.inverse()
    else:
        X = Hypersurface(0, 4, poly(F4, 2, {(4, 0): 1, (0, 4): 1}))
        A = ProjMatrix.diagonal(F4, [F4.zeta(), 1])
    w = verify_automorphism(X, A)
    assert w is not None and w.reading is None


def test_smooth_fermat():
    X = fermat_quartic()
    res = is_smooth(X)
    assert res.status == SMOOTH


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
    # degree 30 plane curve under a budget that expires before the first S-pair
    X = Hypersurface(1, 30, poly(Q, 3, {
        (30, 0, 0): 1, (0, 30, 0): 1, (0, 0, 30): 1, (5, 6, 19): 1}))
    res = is_smooth(X, deadline=0.000001)
    assert res.status == TIMEOUT


def exact_pass_calls(monkeypatch) -> list:
    """Record each call of the exact pass that is_smooth makes."""
    calls = []

    def recording(gens, deadline=None):
        calls.append(gens)
        return groebner_basis(gens, deadline)

    groebner_basis = hypersurface.groebner_basis
    monkeypatch.setattr(hypersurface, "groebner_basis", recording)
    return calls


def test_modular_pass_falls_back_to_exact(monkeypatch):
    p, _ = modular_prime(1)
    calls = exact_pass_calls(monkeypatch)
    # the Fermat quartic is certified mod p, with no exact pass
    assert is_smooth(fermat_quartic()).status == SMOOTH
    assert calls == []
    # x0^4 + x1^4 + p x2^4 is smooth over Q and singular mod p at (0:0:1)
    X = Hypersurface(1, 4, poly(Q, 3, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): p}))
    assert leading_pure_powers(modular_leading_monomials(jacobian_generators(X)), 3) == [
        True, True, False]
    assert is_smooth(X).status == SMOOTH
    assert len(calls) == 1
    # a coefficient 1/p has no image mod p: the modular pass certifies nothing
    Y = Hypersurface(1, 4, poly(Q, 3, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): Fraction(1, p)}))
    assert modular_leading_monomials(jacobian_generators(Y)) == []
    assert is_smooth(Y).status == SMOOTH
    assert len(calls) == 2
    # AC7's x0^4 + x1^4 keeps its witness (0:0:1)
    res = is_smooth(Hypersurface(1, 4, poly(Q, 3, {(4, 0, 0): 1, (0, 4, 0): 1})))
    assert res.status == SINGULAR and list(res.witness) == [Q.zero, Q.zero, Q.one]
    assert len(calls) == 3


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


def moved_multiplicity(X, M):
    """d minus the top X0 exponent of F(M.X): the multiplicity at M's first column."""
    return X.d - max(mono[0] for mono in X.F.transform(M).terms)


def test_multiplicity_examples():
    cases = [
        (fermat_quartic(), 0),
        (Hypersurface(1, 4, poly(Q, 3, {(3, 1, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})), 1),
        (Hypersurface(1, 4, poly(Q, 3, {(2, 2, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})), 2),
        (Hypersurface(1, 4, poly(Q, 3, {(1, 3, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})), 3),
        # the cone x1^4 + x2^4 has its vertex at e0
        (Hypersurface(1, 4, poly(Q, 3, {(0, 4, 0): 1, (0, 0, 4): 1})), 4),
        (Hypersurface(2, 5, poly(Q, 4, {(2, 3, 0, 0): 1, (0, 0, 5, 0): 1, (0, 0, 0, 5): 1,
                                        (1, 0, 2, 2): 1})), 3),
    ]
    for X, mult in cases:
        e0 = (1,) + (0,) * (X.n + 1)
        assert multiplicity_at_point(X, e0) == mult
        assert moved_multiplicity(X, ProjMatrix.identity(Q, X.n + 2)) == mult
    # away from the coordinate points: the same forms under a unimodular change
    rng = random.Random(7)
    for X, mult in cases:
        size = X.n + 2
        C = random_unimodular(rng, Q, size)
        Y = Hypersurface(X.n, X.d, X.F.transform(C.inverse()))
        assert multiplicity_at_point(Y, C.column(0)) == mult == moved_multiplicity(Y, C)


def test_multiplicity_basis_independent():
    # the moved reading agrees under two different completions of p to a basis
    Y = Hypersurface(1, 4, poly(Q, 3, {(3, 1, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}))
    p = (1, 1, 0)
    M1 = ProjMatrix.from_entries(Q, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    M2 = ProjMatrix.from_entries(Q, [[1, 0, 1], [1, 1, 0], [0, 1, 0]])
    assert M1.column(0) == M2.column(0) == tuple(Q.from_rational(x) for x in p)
    assert moved_multiplicity(Y, M1) == moved_multiplicity(Y, M2) == multiplicity_at_point(Y, p)


def gradient_multiplicity(X, p):
    """min(multiplicity, 2) read from F(p) and the gradient at p."""
    if X.F.eval_at(p):
        return 0
    return 1 if any(g.eval_at(p) for g in jacobian_generators(X)) else 2


def partials_witness(X, covered):
    """The first uncovered coordinate point at which every partial vanishes."""
    field = X.field
    for i, has_power in enumerate(covered):
        point = tuple(field.one if j == i else field.zero for j in range(X.n + 2))
        if not has_power and all(g.eval_at(point).is_zero() for g in jacobian_generators(X)):
            return point
    return None


@st.composite
def forms_with_points(draw):
    """A random form, often singular at a coordinate point e_s, perhaps
    moved by a unimodular change C; points: the coordinate points, C.e_s and
    two random points."""
    field = cyclo_field(draw(st.sampled_from([1, 3, 4, 7])))
    n = draw(st.integers(1, 2))
    d = draw(st.integers(2, 5))
    nv = n + 2
    coeff = st.integers(-3, 3).filter(bool) | st.integers(0, field.N - 1).map(field.zeta)
    s = draw(st.integers(0, nv - 1))
    top = d - 2 if draw(st.booleans()) else d  # the largest power of X_s in F
    terms = {tuple(d if j == (s + 1) % nv else 0 for j in range(nv)): draw(coeff)}
    for _ in range(draw(st.integers(0, 5))):
        mono = [0] * nv
        for _ in range(d):
            mono[draw(st.integers(0, nv - 1))] += 1
        if mono[s] <= top:
            terms[tuple(mono)] = draw(coeff)
    F = HomogPoly.from_terms(field, nv, terms, degree=d)
    C = ProjMatrix.identity(field, nv)
    if draw(st.booleans()):
        C = random_unimodular(random.Random(draw(st.integers(0, 2**16))), field, nv)
        F = F.transform(C.inverse())
    X = Hypersurface(n, d, F)
    entry = st.integers(-2, 2) | st.integers(0, field.N - 1).map(field.zeta)
    points = [tuple(field.one if j == i else field.zero for j in range(nv)) for i in range(nv)]
    points.append(C.column(s))
    points += [draw(st.lists(entry, min_size=nv, max_size=nv).filter(any)) for _ in range(2)]
    covered = draw(st.lists(st.booleans(), min_size=nv, max_size=nv))
    return X, points, covered


@given(forms_with_points())
def test_polar_multiplicity_matches_gradient_reading(case):
    # the readings the polar chain replaced in certificate_from_automorphism
    # and _singular_result, kept as oracles
    X, points, covered = case
    for p in points:
        assert min(multiplicity_at_point(X, p), 2) == gradient_multiplicity(X, p)
    assert _singular_result(X, covered).witness == partials_witness(X, covered)


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
