import functools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import divisors, totient

from galois_scope import exactnum
from galois_scope.corpus import corpus_paths
from galois_scope.errors import ConductorMismatch, FieldMismatch
from galois_scope.exactnum import (
    cyclo_field,
    embed_lift,
    poly_divmod,
    quotients,
    recognize_root_of_unity,
    root_of_unity,
)
from galois_scope.polyring import HomogPoly


def test_cyclotomic_polynomials_known():
    assert cyclo_field(1).phi == (-1, 1)
    assert cyclo_field(4).phi == (1, 0, 1)
    assert cyclo_field(6).phi == (1, -1, 1)
    assert cyclo_field(5).phi == (1, 1, 1, 1, 1)
    assert cyclo_field(12).phi == (1, 0, -1, 0, 1)


CORPUS_CONDUCTORS = sorted({json.loads(p.read_text())["field"] for p in corpus_paths()
                            if p.name != "normal-form-family.json"})


@pytest.mark.parametrize("N", CORPUS_CONDUCTORS)
def test_phi_divides_x_to_the_n_minus_one(N):
    """Phi_N divides x^N - 1 exactly, for every conductor of the bundled corpus."""
    assert poly_divmod([-1] + [0] * (N - 1) + [1], cyclo_field(N).phi)[1] == []


def test_cyclotomic_polynomials_match_sympy():
    """The construction against sympy, at conductors where sympy is quick."""
    for N in [*range(1, 41), 105, 495]:
        assert list(cyclo_field(N).phi) == ref_phi(N), N


def test_field_degree_is_totient():
    for N in [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 55, 105]:
        assert cyclo_field(N).degree == totient(N)


def test_phi_vanishes_on_zeta():
    for N in [2, 3, 4, 5, 6, 8, 9, 12, 15]:
        F = cyclo_field(N)
        z = F.zeta()
        val = F.zero
        for c in reversed(F.phi):
            val = val * z + c
        assert val.is_zero()


def test_root_of_unity_examples():
    F5 = cyclo_field(5)
    assert root_of_unity(F5, 5, 3) * root_of_unity(F5, 5, 4) == F5.zeta(2)
    F4 = cyclo_field(4)
    assert root_of_unity(F4, 2, 1) == -1
    with pytest.raises(ConductorMismatch):
        root_of_unity(F5, 4, 1)


def test_arithmetic_examples():
    F5 = cyclo_field(5)
    assert F5.zeta(1) * F5.zeta(4) == 1
    F4 = cyclo_field(4)
    i = F4.zeta()
    assert (1 + i) * (1 - i) == 2
    assert 1 / F5.zeta() == F5.zeta(4)


def test_division_errors():
    F4 = cyclo_field(4)
    with pytest.raises(ZeroDivisionError):
        F4.one / F4.zero
    F5 = cyclo_field(5)
    with pytest.raises(FieldMismatch):
        F4.one + F5.one


def test_dense_inverse_round_trip():
    rng = random.Random(5)
    for N in [4, 5, 7, 8, 9, 12]:
        F = cyclo_field(N)
        for _ in range(20):
            x = F.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(F.degree)])
            if x.is_zero():
                continue
            assert x * x.inverse() == 1
            assert (1 / x) * x == 1


def test_tagged_and_dense_agree():
    rng = random.Random(11)
    for N in [5, 8, 12]:
        F = cyclo_field(N)
        for _ in range(30):
            k1, k2 = rng.randrange(N), rng.randrange(N)
            z1, z2 = F.zeta(k1), F.zeta(k2)
            d1 = F.element(z1.coeffs)
            d2 = F.element(z2.coeffs)
            assert (z1 * z2).coeffs == (d1 * d2).coeffs
            assert (z1 + z2).coeffs == (d1 + d2).coeffs
            assert (z1 - z2).coeffs == (d1 - d2).coeffs


def test_embed_lift_examples():
    F2, F4 = cyclo_field(2), cyclo_field(4)
    assert embed_lift(F2.from_rational(-1), F4) == -1
    F5, F10 = cyclo_field(5), cyclo_field(10)
    assert embed_lift(F5.zeta(), F10) == F10.zeta(2)
    F3 = cyclo_field(3)
    with pytest.raises(ConductorMismatch):
        embed_lift(F3.zeta(), F5)


def test_embed_lift_is_ring_homomorphism():
    rng = random.Random(7)
    F6, F12 = cyclo_field(6), cyclo_field(12)
    for _ in range(25):
        x = F6.element([rng.randint(-3, 3) for _ in range(F6.degree)])
        y = F6.element([rng.randint(-3, 3) for _ in range(F6.degree)])
        assert embed_lift(x + y, F12) == embed_lift(x, F12) + embed_lift(y, F12)
        assert embed_lift(x * y, F12) == embed_lift(x, F12) * embed_lift(y, F12)


def test_recognize_examples():
    F5 = cyclo_field(5)
    assert recognize_root_of_unity(F5.from_rational(-1)) == (2, 1)
    F6 = cyclo_field(6)
    assert recognize_root_of_unity(F6.zeta(2)) == (3, 1)
    F4 = cyclo_field(4)
    assert recognize_root_of_unity(F4.from_rational(2)) is None


def test_recognize_inverts_root_of_unity():
    # Q(zeta_N) holds the m-th roots of unity for every m | lcm(2, N)
    for N in [1, 3, 4, 5, 6, 8, 9, 12, 15]:
        F = cyclo_field(N)
        for m in divisors(math.lcm(2, N)):
            z = root_of_unity(F, m, 1)
            assert z ** m == 1 and all(z ** k != 1 for k in range(1, m))
            for j in range(m):
                assert root_of_unity(F, m, j) == z ** j
                got = recognize_root_of_unity(root_of_unity(F, m, j))
                g = math.gcd(j, m) if j else m
                order = m // g
                assert got is not None
                mm, jj = got
                assert mm == order
                assert math.gcd(jj, mm) == 1 or mm == 1
                # reconstruct and compare
                assert root_of_unity(F, m, j) == root_of_unity(F, mm, jj)
        with pytest.raises(ConductorMismatch):
            root_of_unity(F, 2 * math.lcm(2, N), 1)


def test_recognize_in_odd_conductor():
    # roots of order 2m exist in Q(zeta_m) for odd m
    F15 = cyclo_field(15)
    x = -F15.zeta(3)  # -zeta_5
    m, j = recognize_root_of_unity(x)
    assert m == 10
    assert x ** m == 1
    assert not any(x ** k == 1 for k in range(1, m))


def test_pow_and_rational():
    F8 = cyclo_field(8)
    z = F8.zeta()
    assert z ** 8 == 1
    assert z ** -1 == z ** 7
    assert (z ** 4).rational() == -1
    assert F8.from_rational(Fraction(3, 2)).rational() == Fraction(3, 2)
    assert (1 + z).rational() is None


RATS = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


def sympy_uni(coeffs):
    """An ascending coefficient list as a sympy polynomial in t over QQ."""
    import sympy

    t = sympy.symbols("t")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
                      or [0], t, domain="QQ")


@given(st.lists(RATS, max_size=7), st.lists(RATS, min_size=1, max_size=5))
@example([Fraction(1), Fraction(2)], [Fraction(1), Fraction(0), Fraction(3)])  # num shorter
@example([Fraction(1), Fraction(0), Fraction(5), Fraction(2)], [Fraction(-1), Fraction(2)])
def test_poly_divmod_matches_sympy(num, den):
    """num = q*den + r with deg r < deg den, and (q, r) equal to sympy's div."""
    import sympy

    if den[-1] == 0:
        den = den + [Fraction(3, 2)]  # a non-monic leading coefficient
    q, r = poly_divmod(num, den)
    assert len(r) < len(den) and (not r or r[-1] != 0)
    assert sympy_uni(q) * sympy_uni(den) + sympy_uni(r) == sympy_uni(num)
    assert sympy.div(sympy_uni(num), sympy_uni(den)) == (sympy_uni(q), sympy_uni(r))


# ---------------------------------------------------------------------------
# integer numerators over one denominator, against a Fraction reference

REF_CONDUCTORS = [1, 3, 4, 5, 7, 12, 495]


@functools.cache
def ref_phi(N):
    """Phi_N from sympy: ascending integer coefficients, monic."""
    import sympy

    x = sympy.symbols("x")
    return [int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(N, x), x).all_coeffs())]


def ref_reduce(vec, N):
    """Schoolbook remainder of a Fraction coefficient list mod Phi_N, length phi(N)."""
    phi = ref_phi(N)
    m = len(phi) - 1
    vec = list(vec) + [Fraction(0)] * (m - len(vec))
    for e in range(len(vec) - 1, m - 1, -1):
        c = vec[e]
        if c:
            for j in range(m):
                vec[e - m + j] -= c * phi[j]
    return tuple(vec[:m])


def ref_mul(a, b, N):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return ref_reduce(out, N)


def ref_embed(a, N, target):
    """Image of a under z_N -> z_target^(target/N), from the images of the basis."""
    r = target // N
    out = [Fraction(0)] * target
    for i, c in enumerate(a):
        out[i * r] += c
    return ref_reduce(out, target)


def assert_canonical(x, ref):
    """x holds the value ref in the stored form: rational values tagged (c, 0),
    dense numerators coprime to a positive denominator."""
    assert x.coeffs == ref
    if not any(ref[1:]):
        assert x.tag == (ref[0], 0)
        return
    if x.tag is None:
        num, den = x._num, x._den
        assert den > 0 and math.gcd(den, *num) == 1
        assert all(type(v) is int for v in num)


@st.composite
def field_elements(draw, N):
    """A tagged c*z^k, or a dense element with a few nonzero coordinates that
    may be rational and whose denominators may share factors."""
    F = cyclo_field(N)
    c = draw(RATS)
    if draw(st.booleans()):
        return F.from_rational(c) * F.zeta(draw(st.integers(0, 2 * N)))
    scale = draw(st.sampled_from([1, 2, 6]))
    size = draw(st.integers(1, 3))
    slots = draw(st.lists(st.integers(0, F.degree - 1), min_size=size, max_size=size))
    vec = [Fraction(0)] * F.degree
    for slot in slots:
        vec[slot] += draw(RATS) / scale
    return F.element(vec)


@st.composite
def element_pairs(draw):
    N = draw(st.sampled_from(REF_CONDUCTORS))
    return N, draw(field_elements(N)), draw(field_elements(N))


@settings(max_examples=150, deadline=None)
@given(element_pairs())
def test_dense_arithmetic_matches_fraction_reference(pair):
    """+, -, *, ==, hash and embed_lift agree with schoolbook Fraction vectors mod Phi_N."""
    N, x, y = pair
    F = cyclo_field(N)
    a, b = x.coeffs, y.coeffs
    assert len(a) == len(b) == F.degree
    assert_canonical(x, a)
    assert_canonical(y, b)
    total = tuple(u + v for u, v in zip(a, b))
    assert_canonical(x + y, total)
    assert_canonical(x - y, tuple(u - v for u, v in zip(a, b)))
    assert_canonical((x + y) - y, a)  # the shared denominators cancel
    assert_canonical(x * y, ref_mul(a, b, N))
    assert_canonical(x * 6 / 4, tuple(u * Fraction(3, 2) for u in a))
    assert (x == y) == (a == b)
    # the same value as a tag and as dense numerators: equal, with one hash
    for u in (x, y, x * y):
        v = F.element(u.coeffs)
        assert u == v and hash(u) == hash(v)
    for target in (M for M in REF_CONDUCTORS if M != N and M % N == 0):
        assert_canonical(embed_lift(x * y, cyclo_field(target)), ref_embed(ref_mul(a, b, N), N, target))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REF_CONDUCTORS[:-1]).flatmap(field_elements))
@example(cyclo_field(495).element([Fraction(1, 2)] + [0] * 10 + [Fraction(-3, 4)] + [0] * 100 + [2]))
def test_dense_inverse_matches_fraction_reference(x):
    """inverse is the reference product's inverse; conductor 495 is one fixed example."""
    if x.is_zero():
        return
    N = x.field.N
    inv = x.inverse()
    one = (Fraction(1),) + (Fraction(0),) * (x.field.degree - 1)
    assert ref_mul(x.coeffs, inv.coeffs, N) == one
    assert_canonical(inv, inv.coeffs)
    assert_canonical(x / x, one)


# ---------------------------------------------------------------------------
# one form per value: c*z^k is always tagged, a dense value never is

MONOMIAL_CONDUCTORS = [3, 5, 6, 7, 9, 12, 15, 105]


@functools.cache
def ref_rows(N):
    """The power basis coordinates of z^k for k in [0, N), by schoolbook reduction."""
    return [ref_reduce([Fraction(0)] * k + [Fraction(1)], N) for k in range(N)]


def ref_monomial(vec, N):
    """Some (c, k) with vec = c * z^k, c nonzero, by trying every k; else None."""
    for k, row in enumerate(ref_rows(N)):
        j = next(i for i, r in enumerate(row) if r)
        c = vec[j] / row[j]
        if c and all(v == c * r for v, r in zip(vec, row)):
            return c, k
    return None


@pytest.mark.parametrize("N", MONOMIAL_CONDUCTORS)
def test_every_monomial_value_is_tagged(N):
    """element() of the coordinates of c*z^k gives back its tag for every k
    in [0, N), and keeps the numerators.  At 105, Phi_N has the coefficient
    -2, so the rows of z^k for k >= phi(N) are not all made of 0 and +-1."""
    F = cyclo_field(N)
    for k in range(N):
        for c in (1, -1, 3, Fraction(-2, 3)):
            x = F.from_rational(c) * F.zeta(k)
            y = F.element(x.coeffs)
            assert y.tag == x.tag and y._num is not None and y.coeffs == x.coeffs
            assert y == x and hash(y) == hash(x)
    assert (N == 105) == any(abs(v) > 1 for row in ref_rows(N) for v in row)


@st.composite
def monomial_probes(draw):
    """A conductor and a vector: a few entries in {+-1, 2, 1/2}, or
    a row of z^k scaled and changed in at most one place, so that monomials
    and vectors one entry away from one are both common."""
    N = draw(st.sampled_from(MONOMIAL_CONDUCTORS))
    m = int(totient(N))
    if draw(st.booleans()):
        vec = [Fraction(0)] * m
        for i in draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=m)):
            vec[i] += draw(st.sampled_from([-1, 1, 2, Fraction(1, 2)]))
    else:
        vec = [Fraction(3, 2) * r for r in ref_rows(N)[draw(st.integers(0, N - 1))]]
        vec[draw(st.integers(0, m - 1))] += draw(st.sampled_from([0, 1, -1]))
    return N, vec


@settings(max_examples=300, deadline=None)
@given(monomial_probes())
def test_dense_values_are_no_monomials(probe):
    """element() tags a vector exactly when the brute-force search finds it
    to be c*z^k, with that value; any other vector stays dense, and
    recognize_root_of_unity finds no root of unity in it."""
    N, vec = probe
    F = cyclo_field(N)
    x = F.element(vec)
    assert x.coeffs == ref_reduce(vec, N)
    ref = ref_monomial(vec, N)
    if ref is None and any(vec):
        assert x.tag is None and recognize_root_of_unity(x) is None
    else:
        c, k = ref or (0, 0)
        assert x.tag is not None and x == F.from_rational(c) * F.zeta(k)


# ---------------------------------------------------------------------------
# the tag coefficient: an int when integral, else a reduced Fraction

TAG_CONDUCTORS = [1, 3, 4, 7, 8, 12]
TAG_RATS = st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


def assert_tag_form(x, ref):
    """x has the value of the Fraction vector ref, and a tag coefficient that
    is an int, or a Fraction with denominator above 1: never a float, never
    a Fraction with denominator 1.  A rational value is tagged."""
    assert x.coeffs == tuple(ref)
    t = x.tag
    if t is not None:
        c = t[0]
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)
        r = x.rational()
        assert r is None or type(r) is type(c)
    else:
        assert x.rational() is None and any(ref[1:])


def ref_pow(a, e, N):
    out = (Fraction(1),) + (Fraction(0),) * (len(a) - 1)
    for _ in range(e):
        out = ref_mul(out, a, N)
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TAG_CONDUCTORS).flatmap(
    lambda N: st.tuples(field_elements(N), field_elements(N), TAG_RATS.filter(bool), st.integers(1, 4))))
@example((cyclo_field(3).from_rational(2), cyclo_field(3).from_rational(3), 2, 3))
@example((cyclo_field(8).from_rational(-2), cyclo_field(8).from_rational(Fraction(1, 2)), -1, 2))
def test_tag_coefficient_is_int_or_proper_fraction(args):
    """After every operation the tag coefficient has the canonical form and
    the value equals the Fraction reference: sums, products, division by an
    int and by a tag, inverse, negative powers, embed_lift, the demotion of
    rational dense values and the parse_scalar round trip."""
    from galois_scope.parsing import parse_scalar, render_scalar

    x, y, r, e = args
    F = x.field
    N = F.N
    a, b = x.coeffs, y.coeffs
    rv = (Fraction(r),) + (Fraction(0),) * (F.degree - 1)
    assert_tag_form(x, a)
    assert_tag_form(y, b)
    assert_tag_form(x + y, [u + v for u, v in zip(a, b)])
    assert_tag_form(x - y, [u - v for u, v in zip(a, b)])
    assert_tag_form((x + y) - y, a)  # a rational x comes back through _dense
    assert_tag_form(x * y, ref_mul(a, b, N))
    assert_tag_form(x * r, ref_mul(a, rv, N))
    assert_tag_form(x / r, [u / r for u in a])
    assert_tag_form(x ** e, ref_pow(a, e, N))
    for u, ref in ((x, a), (y, b)):
        if u:
            inv = u.inverse()
            assert ref_mul(ref, inv.coeffs, N) == (Fraction(1),) + (Fraction(0),) * (F.degree - 1)
            assert_tag_form(inv, inv.coeffs)
            assert_tag_form(1 / u, inv.coeffs)
            assert_tag_form(r / u, ref_mul(rv, inv.coeffs, N))
            assert_tag_form(u ** -e, ref_pow(inv.coeffs, e, N))
    if y:
        assert_tag_form(x / y, ref_mul(a, y.inverse().coeffs, N))
    for target in (M for M in (*TAG_CONDUCTORS, 24) if M != N and M % N == 0):
        assert_tag_form(embed_lift(x, cyclo_field(target)), ref_embed(a, N, target))
    back = parse_scalar(render_scalar(x), F)
    assert back == x and (x.rational() is None or back.tag == x.tag)
    assert_tag_form(back, a)
    # restrict: f(v) Y^2 for one vector v, and a general two-vector restriction
    f = HomogPoly.from_terms(F, 2, {(2, 0): x, (1, 1): y, (0, 2): r}, degree=2)
    g = f.restrict([(y, r)])
    value = [u + v + w for u, v, w in zip(ref_mul(a, ref_mul(b, b, N), N),
                                         ref_mul(b, ref_mul(b, rv, N), N),
                                         ref_mul(rv, ref_mul(rv, rv, N), N))]
    assert_tag_form(g.coefficient((2,)), value)
    for c in f.restrict([(x, r), (1, y)]).terms.values():
        assert_tag_form(c, c.coeffs)


@pytest.mark.parametrize("N", TAG_CONDUCTORS)
def test_integral_tags_are_ints(N):
    """1 / c and c ** -e for an int c stay exact; integral results are ints."""
    F = cyclo_field(N)
    for c in (1, -1, 2, -3, 6):
        x = F.from_rational(c)
        assert type(x.tag[0]) is int and x.rational() == c
        for inv in (x.inverse(), 1 / x, x ** -1, F.one / c):
            assert inv.tag == (Fraction(1, c), 0)
            assert type(inv.tag[0]) is (int if abs(c) == 1 else Fraction)
        cube = x ** -3
        assert cube.rational() == Fraction(1, c ** 3)
        assert type((cube * c ** 3).tag[0]) is int and cube * c ** 3 == 1
    half = F.from_rational(Fraction(1, 2))
    assert type((half * 2).tag[0]) is int and type((half + half).tag[0]) is int
    assert type(F.from_rational(Fraction(4, 2)).tag[0]) is int
    assert type(F.element([Fraction(6, 3)] + [0] * (F.degree - 1)).tag[0]) is int
    assert type(F.zero.tag[0]) is int and type(F.zeta().tag[0]) is int


def test_from_rational_takes_only_int_and_fraction():
    """A float, a string or a bool never enters exact arithmetic."""
    from galois_scope.projlin import vector

    F3 = cyclo_field(3)
    for bad in (0.1, 4.0, "2", True, None, 1j):
        with pytest.raises(TypeError):
            F3.from_rational(bad)
    with pytest.raises(TypeError):
        vector(F3, [0.1, 1, "2"])
    with pytest.raises(TypeError):
        F3.one * 0.5
    assert F3.from_rational(Fraction(3, 6)).tag == (Fraction(1, 2), 0)


def test_element_takes_only_int_and_fraction():
    """element applies from_rational's rule to every coefficient."""
    F3 = cyclo_field(3)
    for bad in (0.1, 4.0, "2", True, None, 1j):
        with pytest.raises(TypeError):
            F3.element([bad, 2])
        with pytest.raises(TypeError):
            F3.element([1, bad])
    assert F3.element([Fraction(1, 2), 2]) == F3.from_rational(Fraction(1, 2)) + 2 * F3.zeta()


@pytest.mark.parametrize("N", [5, 12, 495])
def test_quotients_equal_products_with_the_inverse(N, monkeypatch):
    """quotients(xs, y) against x * y.inverse(), in value and in
    representation, for the pivot of a conjugated normal-form generator,
    y = -3/2 (zeta_m - 1), which is dense.  A column of rational multiples
    of y takes no dense inverse and keeps no numerators; any other column
    takes one inverse, whatever its length.  A zero entry is the field's
    shared zero and y, or a copy of it, the shared one."""
    F = cyclo_field(N)
    y = Fraction(-3, 2) * (root_of_unity(F, 12 if N == 12 else 5, 1) - 1)
    assert y.tag is None
    inverses = []

    def counted(num, field):
        inverses.append(field.N)
        return modular_inverse(num, field)

    modular_inverse = exactnum._modular_inverse
    monkeypatch.setattr(exactnum, "_modular_inverse", counted)

    def same(qs, xs, divisor):
        for q, x in zip(qs, xs):
            r = x * divisor.inverse()
            assert q == r and (q.tag, q._parts()) == (r.tag, r._parts())

    copy = F.element(y.coeffs)
    column = [F.from_rational(0), y, copy, 3 * y, y * Fraction(-2, 7), F.zero]
    qs = quotients(column, y)
    assert inverses == []
    assert [q.rational() for q in qs] == [0, 1, 1, 3, Fraction(-2, 7), 0]
    assert qs[0] is qs[5] is F.zero and qs[1] is qs[2] is F.one
    assert qs[3]._num is None and qs[4]._num is None
    same(qs, column, y)

    inverses.clear()
    others = [y * y + 1, F.zeta(2) * 5, F.from_rational(7), y, F.element([1] * F.degree)]
    qs = quotients(others, y)
    assert inverses == [N] and qs[3] is F.one
    same(qs, others, y)

    inverses.clear()
    tag = F.zeta(3) * Fraction(2, 3)
    qs = quotients(others + [tag, 0 * tag], tag)
    assert inverses == [] and qs[5] is F.one and qs[6] is F.zero
    same(qs, others + [tag], tag)
    with pytest.raises(ZeroDivisionError):
        quotients([y], F.zero)


def test_zero_and_one_are_shared():
    """Each field has one zero and one one; filling in their numerators
    leaves their values."""
    for N in (1, 5, 12, 495):
        F = cyclo_field(N)
        assert F.zero is F.zero and F.one is F.one
        assert F.one._parts() == ((1,) + (0,) * (F.degree - 1), 1)
        assert F.zero._parts() == ((0,) * F.degree, 1)
        assert F.one == 1 and F.one.tag == (1, 0) and F.zero == 0 and F.zero.tag == (0, 0)
        assert F.one * F.zeta() == F.zeta() and F.zero + F.zeta() == F.zeta()
