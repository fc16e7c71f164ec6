import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galois_scope import exactnum, polyring
from galois_scope.corpus import corpus_paths, load_instance, normal_form_instance
from galois_scope.errors import ConductorMismatch, DegreeMismatch
from galois_scope.exactnum import CycloNum, cyclo_field, embed_lift, root_of_unity
from galois_scope.polyring import HomogPoly, binary_form_roots, distinct_root_count

Q = cyclo_field(1)


def poly(field, nvars, terms):
    return HomogPoly.from_terms(field, nvars, terms)


def fermat_quartic(field=Q):
    return poly(field, 3, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1})


def sympy_poly(f):
    """Independent rendering of a rational-coefficient HomogPoly as a sympy expr."""
    import sympy

    xs = sympy.symbols(f"y0:{f.nvars}")
    expr = sympy.Integer(0)
    for mono, c in f.terms.items():
        r = c.rational()
        assert r is not None, "sympy oracle only covers rational coefficients"
        term = sympy.Rational(r.numerator, r.denominator)
        for x, e in zip(xs, mono):
            term *= x**e
        expr += term
    return sympy.expand(expr), xs


def test_construction_rejects_inhomogeneous():
    with pytest.raises(DegreeMismatch):
        poly(Q, 2, {(2, 0): 1, (0, 3): 1})


def test_add_cancellation():
    f = poly(Q, 2, {(2, 0): 1, (0, 2): 1})
    g = poly(Q, 2, {(0, 2): -1})
    assert (f + g).terms == poly(Q, 2, {(2, 0): 1}).terms


def test_mul_degree():
    x0 = HomogPoly.variable(Q, 2, 0)
    x1 = HomogPoly.variable(Q, 2, 1)
    h = x0 * x1
    assert h.degree == 2 and h.terms == {(1, 1): Q.one}


def test_add_degree_mismatch():
    f = poly(Q, 2, {(2, 0): 1})
    g = poly(Q, 2, {(3, 0): 1})
    with pytest.raises(DegreeMismatch):
        f + g


def test_transform_swap_fixes_fermat():
    f = fermat_quartic()
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert f.transform(swap) == f


def test_transform_diag_root_of_unity():
    F4 = cyclo_field(4)
    f = fermat_quartic(F4)
    M = [[F4.zeta(), F4.zero, F4.zero], [F4.zero, F4.one, F4.zero], [F4.zero, F4.zero, F4.one]]
    assert f.transform(M) == f


def test_transform_shear_matches_sympy_expansion():
    # (x0+x1)^4 + x1^4 + x2^4 under x0 -> x0 - x1 gives the Fermat quartic
    import sympy

    f = poly(Q, 3, {(4, 0, 0): 1, (3, 1, 0): 4, (2, 2, 0): 6, (1, 3, 0): 4, (0, 4, 0): 2, (0, 0, 4): 1})
    M = [[1, -1, 0], [0, 1, 0], [0, 0, 1]]
    g = f.transform(M)
    expr, ys = sympy_poly(f)
    sub = sympy.expand(expr.subs({ys[0]: ys[0] - ys[1]}, simultaneous=True))
    oracle, _ = sympy_poly(g)
    assert sympy.simplify(sub - oracle) == 0
    assert g == fermat_quartic()


def test_transform_inverse_round_trip():
    rng = random.Random(3)
    from galois_scope.projlin import ProjMatrix

    for _ in range(10):
        nv = rng.choice([3, 4])
        terms = {}
        for _ in range(4):
            mono = [0] * nv
            for _ in range(4):
                mono[rng.randrange(nv)] += 1
            terms[tuple(mono)] = rng.randint(-3, 3)
        f = HomogPoly.from_terms(Q, nv, terms, degree=4)
        while True:
            M = ProjMatrix.from_entries(Q, [[rng.randint(-2, 2) for _ in range(nv)] for _ in range(nv)])
            try:
                Minv = M.inverse()
                break
            except Exception:
                continue
        assert f.transform(M).transform(Minv) == f


def test_euler_identity():
    rng = random.Random(9)
    for _ in range(8):
        nv, d = rng.choice([(3, 4), (4, 5)])
        terms = {}
        for _ in range(5):
            mono = [0] * nv
            for _ in range(d):
                mono[rng.randrange(nv)] += 1
            terms[tuple(mono)] = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        f = HomogPoly.from_terms(Q, nv, terms, degree=d)
        total = HomogPoly.zero(Q, nv, d)
        for i in range(nv):
            total = total + HomogPoly.variable(Q, nv, i) * f.partial(i)
        assert total == f.scale(d)


def test_partial_examples():
    f = poly(Q, 3, {(4, 0, 0): 1})
    assert f.partial(0) == poly(Q, 3, {(3, 0, 0): 4})
    g = poly(Q, 3, {(0, 4, 0): 1})
    assert g.partial(0).is_zero()
    h = poly(Q, 3, {(3, 0, 1): 1})
    assert h.partial(2) == poly(Q, 3, {(3, 0, 0): 1})


def test_divide_by_linear():
    x1 = HomogPoly.variable(Q, 3, 1)
    f = poly(Q, 3, {(0, 2, 0): 1, (0, 1, 1): 1})
    assert f.divide_by_linear(x1) == poly(Q, 3, {(0, 1, 0): 1, (0, 0, 1): 1})
    g = poly(Q, 3, {(0, 2, 0): 1, (0, 0, 2): 1})
    assert g.divide_by_linear(x1) is None
    L = poly(Q, 3, {(0, 1, 0): 1, (0, 0, 1): 1})
    assert (L * L).divide_by_linear(L) == L


def test_divide_by_linear_round_trip():
    rng = random.Random(17)
    for _ in range(10):
        nv = 3
        terms = {}
        for _ in range(4):
            mono = [0] * nv
            for _ in range(3):
                mono[rng.randrange(nv)] += 1
            terms[tuple(mono)] = rng.randint(-3, 3)
        f = HomogPoly.from_terms(Q, nv, terms, degree=3)
        lterms = {}
        for i in range(nv):
            c = rng.randint(-2, 2)
            if c:
                lterms[tuple(1 if j == i else 0 for j in range(nv))] = c
        if not lterms:
            continue
        L = HomogPoly.from_terms(Q, nv, lterms, degree=1)
        if f.is_zero():
            continue
        assert (f * L).divide_by_linear(L) == f


def test_restrict_examples():
    f = poly(Q, 4, {(0, 0, 4, 0): 1, (0, 0, 0, 4): 1})
    e2 = (0, 0, 1, 0)
    e3 = (0, 0, 0, 1)
    r = f.restrict([e2, e3])
    assert r == poly(Q, 2, {(4, 0): 1, (0, 4): 1})
    g = poly(Q, 4, {(3, 0, 1, 0): 1, (0, 3, 0, 1): 1, (0, 0, 4, 0): 1, (0, 0, 0, 4): 1})
    assert g.restrict([e2, e3]) == poly(Q, 2, {(4, 0): 1, (0, 4): 1})
    h = poly(Q, 3, {(4, 0, 0): 1})
    rr = h.restrict([(0, 1, 0), (0, 0, 1)])
    assert rr.is_zero() and rr.degree == 4


def test_substitution_of_zero_form():
    zero = HomogPoly.zero(Q, 3, 4)
    assert zero.transform([[1, 2, 0], [0, 1, 0], [3, 0, 1]]) == zero
    assert zero.restrict([(1, 0, 0)]) == HomogPoly.zero(Q, 1, 4)


SMALL = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


@st.composite
def scalars(draw, field):
    """A tagged c*z^k, or a dense vector in the power basis."""
    if draw(st.booleans()):
        return field.from_rational(draw(SMALL)) * field.zeta(draw(st.integers(0, field.N - 1)))
    return field.element(draw(st.lists(SMALL, min_size=field.degree, max_size=field.degree)))


@st.composite
def forms(draw, field, nvars):
    """A form of degree <= 5 with up to six terms; it may be zero."""
    d = draw(st.integers(0, 5))
    monos = st.lists(st.integers(0, nvars - 1), min_size=d, max_size=d).map(
        lambda vs: tuple(vs.count(i) for i in range(nvars)))
    terms = draw(st.dictionaries(monos, scalars(field), max_size=6))
    return HomogPoly.from_terms(field, nvars, terms, degree=d)


def value_at(f, pt):
    """f at a coordinate vector; a form of positive degree vanishes at 0."""
    if all(c.is_zero() for c in pt):
        return f.coefficient((0,) * f.nvars)
    return f.eval_at(pt)


def substituted_by_sympy(f, vectors):
    """f(sum_j y_j vectors[j]) expanded by sympy; rational inputs only."""
    import sympy

    expr, xs = sympy_poly(f)
    ys = sympy.symbols(f"y0:{len(vectors)}")
    image = {}
    for i, x in enumerate(xs):
        rs = [v[i].rational() for v in vectors]
        image[x] = sum((sympy.Rational(r.numerator, r.denominator) * y for r, y in zip(rs, ys)),
                       sympy.Integer(0))
    return sympy.expand(expr.xreplace(image))


@given(st.data())
def test_substitution_matches_evaluation_and_sympy(data):
    """transform(M) and restrict(basis) agree with evaluating f at the image
    point, and with sympy's expansion when every input is rational."""
    import sympy

    field = cyclo_field(data.draw(st.sampled_from([1, 3, 4, 5, 7]), label="N"))
    nvars = data.draw(st.integers(2, 5), label="nvars")
    f = data.draw(forms(field, nvars), label="f")
    vec = st.lists(scalars(field), min_size=nvars, max_size=nvars)
    M = data.draw(st.lists(vec, min_size=nvars, max_size=nvars), label="M")
    m = data.draw(st.integers(1, nvars), label="m")
    basis = data.draw(st.lists(vec, min_size=m, max_size=m), label="basis")
    columns = [[row[j] for row in M] for j in range(nvars)]
    for g, vectors in ((f.transform(M), columns), (f.restrict(basis), basis)):
        assert (g.nvars, g.degree) == (len(vectors), f.degree)
        assert not any(c.is_zero() for c in g.terms.values())
        point = st.lists(SMALL, min_size=len(vectors), max_size=len(vectors)).map(
            lambda y: y if any(y) else [Fraction(1)] + y[1:])
        for y in data.draw(st.lists(point, min_size=3, max_size=3), label="points"):
            x = [sum((yj * v[i] for yj, v in zip(y, vectors)), field.zero) for i in range(nvars)]
            assert g.eval_at(y) == value_at(f, x)
        inputs = list(f.terms.values()) + [c for v in vectors for c in v]
        if all(c.rational() is not None for c in inputs):
            assert sympy.expand(sympy_poly(g)[0] - substituted_by_sympy(f, vectors)) == 0


# ---------------------------------------------------------------------------
# the integer kernel against the CycloNum Horner recursion

def horner_restrict(f, basis):
    """f(sum_j Y_j basis[j]) by Horner's scheme in CycloNum arithmetic: the
    recursion HomogPoly.restrict runs over ints, step for step, so the two
    agree in value, in representation and in the order of the terms."""
    m, nvars = len(basis), f.nvars
    linear = []
    for i in range(nvars):
        coeffs = [v[i] if isinstance(v[i], CycloNum) else f.field.from_rational(v[i])
                  for v in basis]
        linear.append([(j, c) for j, c in enumerate(coeffs) if not c.is_zero()])
    order = sorted(range(nvars), key=lambda i: -len(linear[i]))

    def horner(terms, depth):
        if depth == nvars:
            return {(0,) * m: terms[0][1]}
        i = order[depth]
        groups = {}
        for term in terms:
            groups.setdefault(term[0][i], []).append(term)
        acc = {}
        for k in range(max(groups), -1, -1):
            prod = {}
            for mono, c in acc.items():
                for j, l in linear[i]:
                    key = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                    p = c * l
                    prod[key] = prod[key] + p if key in prod else p
            acc = prod
            if k in groups:
                for mono, c in horner(groups[k], depth + 1).items():
                    acc[mono] = acc[mono] + c if mono in acc else c
        return acc

    terms = horner(list(f.terms.items()), 0) if f.terms else {}
    return HomogPoly(f.field, m, f.degree, {mono: c for mono, c in terms.items() if c})


def assert_same_representation(g, h):
    """Equal forms whose coefficients are the same tags, or the same dense
    vectors, in the same order: what a report renders from them."""
    assert (g.field.N, g.nvars, g.degree) == (h.field.N, h.nvars, h.degree)
    assert list(g.terms) == list(h.terms)
    for mono, c in h.terms.items():
        assert (g.terms[mono].tag, g.terms[mono]._parts()) == (c.tag, c._parts()), mono


def test_restrict_keeps_tag_of_rational_packed_value_cubic():
    """Packed values that are rational in Q(zeta_3), built from dense
    monomial entries, meet tags in a product and in a sum; Horner keeps
    the tag 10*z^2 at y0*y1*y2^2."""
    K = cyclo_field(3)
    z = K.zeta()
    f = poly(K, 3, {(1, 1, 2): -z, (2, 2, 0): -1})
    basis = [(z**2, 1, 0), (K.element([0, -2]), -(z**2), K.element([-2, -2])), (1, 1, -2)]
    g = f.restrict(basis)
    assert g.terms[(1, 1, 2)].tag == (10, 2)
    assert_same_representation(g, horner_restrict(f, basis))


def test_restrict_keeps_tag_of_rational_packed_value_quartic():
    """A packed value that is rational in Q(i) plus a tag is that tag's sum, as in Horner."""
    K = cyclo_field(4)
    z = K.zeta()
    f = poly(K, 3, {(2, 0, 0): z, (1, 0, 1): -1, (0, 1, 1): 1})
    basis = [(K.element([-1, 1]), z, 0), (0, z, K.element([-1, 1])), (K.element([0, 1]), z, -1)]
    g = f.restrict(basis)
    assert g.terms[(0, 0, 2)].tag == (-1, 1)
    assert_same_representation(g, horner_restrict(f, basis))


def test_restrict_constant_form_with_large_entries():
    """At degree 0 no entry is multiplied, but every entry is packed: the
    packing width must hold entries larger than the coefficients of f."""
    K = cyclo_field(5)
    f = poly(K, 2, {(0, 0): 1})
    basis = [(K.element([0, 1000, -999]), Fraction(7, 3)), (K.zeta(2) * 500, 0)]
    g = f.restrict(basis)
    assert g == poly(K, 2, {(0, 0): 1})
    assert_same_representation(g, horner_restrict(f, basis))


def test_restrict_rational_tag_sum_at_conductor_6405():
    """In Q(zeta_6405), z3 + z3^2 is packed as a sum of tags with different
    exponents and is -1; times the tag z105 it is the tag -z105, as in
    Horner.  The packed output reduces mod Phi_6405 to a vector with one
    entry, which _dense tags."""
    K = cyclo_field(6405)
    z105, z3 = root_of_unity(K, 105, 1), root_of_unity(K, 3, 1)
    f = poly(K, 4, {(1, 1, 0, 0): 1, (1, 0, 1, 0): 1, (1, 0, 0, 1): 1, (0, 0, 0, 2): 1})
    for basis in ([(z105, z3, z3**2, 0)], [(z105, z3, z3**2, 1), (1, 0, 0, z105)]):
        assert_same_representation(f.restrict(basis), horner_restrict(f, basis))
    assert f.restrict([(z105, z3, z3**2, 0)]).terms[(2,)].tag == (-1, 61)


def test_transform_matches_horner_on_detect_forms():
    """The 24 normal forms of the detect benchmark and their generators."""
    sizes = []
    for n in (1, 2, 3):
        for d in (4, 5, 6, 7):
            for kind in ("inner", "outer"):
                rng = random.Random(f"detect-424242:{n}:{d}:{kind}")
                X, B, _, _ = normal_form_instance(rng, n, d, kind)
                columns = [[row[j] for row in B.rows] for j in range(B.size)]
                assert_same_representation(X.F.transform(B), horner_restrict(X.F, columns))
                sizes.append(len(X.F.terms))
    assert len(sizes) == 24 and max(sizes) == 330


def test_tagged_substitution_never_packs(monkeypatch):
    """The corpus's monomial automorphisms stay on tag pairs: no packing,
    no folding, no unpacking, even at conductor 6405."""
    def refuse(*args):
        raise AssertionError("a tagged substitution packed a value")

    for name in ("_pack", "_fold", "_unpack"):
        monkeypatch.setattr(exactnum, name, refuse)
    for path in corpus_paths():
        if path.name == "normal-form-family.json":
            continue
        inst = load_instance(path)
        F = inst.surface.F
        for A in inst.automorphisms.values():
            if all(sum(1 for c in row if c) == 1 for row in A.rows):
                columns = [[row[j] for row in A.rows] for j in range(A.size)]
                assert_same_representation(F.transform(A), horner_restrict(F, columns))


ORACLE_CONDUCTORS = [1, 3, 4, 6, 7, 12, 495]
TINY = st.builds(Fraction, st.sampled_from([-2, -1, 1, 1, 2]), st.sampled_from([1, 1, 2, 3]))


@st.composite
def kernel_entries(draw, field, exponents, zero):
    """A rational, a tag c*z^k, a dense vector, a dense vector whose value
    is a monomial c*z^k, or (when zero is set) zero.  Coefficients are tiny
    and the exponents k few, so that products turn rational and sums cancel."""
    kinds = ["rational", "tag", "tag", "monomial", "monomial", "dense"] + ["zero"] * zero
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return draw(st.sampled_from([0, field.zero]))
    c = draw(TINY)
    if kind == "rational":
        return draw(st.sampled_from([c, field.from_rational(c)]))
    k = draw(st.sampled_from(exponents))
    if kind == "tag":
        return field.from_rational(c) * field.zeta(k)
    if kind == "monomial":
        return field.element([c * x for x in field.zeta(k).coeffs])
    support = draw(st.lists(st.integers(0, field.degree - 1), min_size=1, max_size=3))
    vec = [Fraction(0)] * field.degree
    for i in support:
        vec[i] += draw(TINY)
    return field.element(vec)


@given(st.data())
def test_restrict_matches_horner_oracle(data):
    """restrict against the CycloNum Horner recursion: for every coefficient
    the same tag and the same numerators and denominator.  Exponents come
    from one small cyclic subgroup per example, so that chains of products
    come back to rational values."""
    field = cyclo_field(data.draw(st.sampled_from(ORACLE_CONDUCTORS), label="N"))
    N = field.N
    order = data.draw(st.sampled_from([g for g in range(2, 13) if N % g == 0] or [1]))
    exponents = range(0, N, N // order)
    nvars = data.draw(st.integers(1, 3), label="nvars")
    d = data.draw(st.integers(1, 4), label="d")
    monos = st.lists(st.integers(0, nvars - 1), min_size=d, max_size=d).map(
        lambda vs: tuple(vs.count(i) for i in range(nvars)))
    terms = data.draw(st.dictionaries(monos, kernel_entries(field, exponents, False),
                                      min_size=1, max_size=4), label="f")
    f = HomogPoly.from_terms(field, nvars, terms, degree=d)
    m = data.draw(st.integers(1, 3), label="m")
    vec = st.lists(kernel_entries(field, exponents, True), min_size=nvars, max_size=nvars)
    basis = data.draw(st.lists(vec, min_size=m, max_size=m), label="basis")
    for vectors in [basis] + [[v] for v in basis] * (m > 1):  # f(v) Y^d: nothing to mask it
        assert_same_representation(f.restrict(vectors), horner_restrict(f, vectors))

# ---------------------------------------------------------------------------
# the integer polar chain against iterated HomogPoly.polar

def polar_chain_oracle(f, point):
    """f, D_pf, D_p^2 f, ... up to the last nonzero one, by HomogPoly.polar
    over field elements: the loop PolarChain runs over ints, step for step."""
    forms = [f]
    while True:
        polar = forms[-1].polar(point)
        if polar.is_zero():
            return forms
        forms.append(polar)


def proportional_oracle(P, R, L):
    """P_j ~ P_(j+1) L by cross-multiplication over field elements."""
    Q = R * L
    m = next(iter(Q.terms))
    return P.terms.keys() == Q.terms.keys() and P.scale(Q.terms[m]) == Q.scale(P.terms[m])


def assert_same_chain(chain, forms):
    assert len(chain) == len(forms)
    for j, P in enumerate(forms):
        g = chain.form(j)
        assert_same_representation(g, P)
        assert [type(c.tag[0]) for c in g.terms.values() if c.tag] == \
            [type(c.tag[0]) for c in P.terms.values() if c.tag]


def linear_form(field, coeffs):
    return HomogPoly.from_terms(field, len(coeffs), {
        tuple(int(i == j) for j in range(len(coeffs))): c for i, c in enumerate(coeffs)},
        degree=1)


@st.composite
def forms_in(draw, field, nvars, d):
    monos = st.lists(st.integers(0, nvars - 1), min_size=d, max_size=d).map(
        lambda vs: tuple(vs.count(i) for i in range(nvars)))
    terms = draw(st.dictionaries(monos, scalars(field), max_size=4))
    return HomogPoly.from_terms(field, nvars, terms, degree=d)


@given(st.data())
def test_polar_chain_matches_polar_oracle(data):
    """PolarChain against iterated HomogPoly.polar, in value, in tag or dense
    form and in term order, at multiplicity m = 0 to 3.

    F0 has multiplicity m at e0 (no term with x0-degree above d - m, and
    X0^(d-m) X1^m present); F = F0(X0, X1 - v1 X0, ...) then has it at q =
    lam (1, v1, ...), whose entries are rational with denominators, tagged,
    dense or zero.  v1 is an irrational tag z^a, F0 holds c X1^d and
    c' X0 X1^(d-1), c and c' rational, and its other terms have x1-degree
    below d - 1.  So at X1^(d-1) in D_qF the contribution d c q1, of
    exponent a, meets g q0, g = c' - d c v1 the coefficient of X0 X1^(d-1)
    in F: a dense value or a tag of another exponent.  The packed path runs
    in every example.
    """
    field = cyclo_field(data.draw(st.sampled_from([3, 4, 5, 6, 7, 8, 12]), label="N"))
    N = field.N
    order = data.draw(st.sampled_from([g for g in range(2, 13) if N % g == 0]))
    exponents = range(0, N, N // order)
    nvars = data.draw(st.integers(2, 4), label="nvars")
    d = data.draw(st.integers(2, 5), label="d")
    m = data.draw(st.integers(0, min(3, d - 1)), label="m")
    monos = st.lists(st.integers(0, nvars - 1), min_size=d, max_size=d).map(
        lambda vs: tuple(vs.count(i) for i in range(nvars))).filter(
        lambda e: e[0] <= d - m and e[1] < d - 1)
    terms = data.draw(st.dictionaries(monos, kernel_entries(field, exponents, False),
                                      max_size=5), label="F0")
    pad = (0,) * (nvars - 2)
    for mono in ((0, d) + pad, (1, d - 1) + pad, (d - m, m) + pad):
        terms[mono] = data.draw(TINY)
    F0 = HomogPoly.from_terms(field, nvars, terms, degree=d)
    irrational = [k for k in range(1, N) if field.zeta(k).rational() is None]
    v = [0, field.zeta(data.draw(st.sampled_from(irrational), label="a"))] + data.draw(
        st.lists(kernel_entries(field, exponents, True), min_size=nvars - 2,
                 max_size=nvars - 2), label="v")
    shear = [[field.one if j == i else field.zero for j in range(nvars)] for i in range(nvars)]
    for i in range(1, nvars):
        shear[i][0] = -field.from_rational(v[i]) if not isinstance(v[i], CycloNum) else -v[i]
    F = F0.transform(shear)
    lam = data.draw(TINY, label="lam")
    q = [lam * (x if isinstance(x, CycloNum) else field.from_rational(x)) for x in [1] + v[1:]]

    with mock.patch.object(exactnum, "_vector", wraps=exactnum._vector) as unpacked:
        chain = polyring.PolarChain(F, q)
    assert unpacked.call_count > 0
    forms = polar_chain_oracle(F, q)
    assert len(forms) == d + 1 - m
    assert_same_chain(chain, forms)

    # the step test, on a random linear form and on F = L^d + A(Y), Y_i =
    # q0 X_i - qi X0, where every P_j, j >= 1, is a multiple of L^(d-j)
    coeffs = data.draw(st.lists(kernel_entries(field, exponents, True), min_size=nvars,
                                max_size=nvars), label="L")
    if not any(coeffs):
        coeffs[0] = 1
    L = linear_form(field, coeffs)
    for top in range(1, len(forms) - 1):
        assert chain.proportional(L, top) == all(
            proportional_oracle(forms[j], forms[j + 1], L) for j in range(top, 0, -1))
    A = data.draw(forms_in(field, nvars - 1, d), label="A")
    ys = [[-q[i + 1] if j == 0 else q[0] if j == i + 1 else 0 for i in range(nvars - 1)]
          for j in range(nvars)]
    Fo = L ** d + A.restrict(ys)
    chain, forms = polyring.PolarChain(Fo, q), polar_chain_oracle(Fo, q)
    assert_same_chain(chain, forms)
    if L.eval_at(q):
        assert len(forms) == d + 1
        assert all(proportional_oracle(forms[j], forms[j + 1], L) for j in range(1, d - 1))
        assert chain.proportional(L, d - 2)


# ---------------------------------------------------------------------------
# the integer case: rational inputs run on plain ints

RATIONAL = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))


def integer_cases(run):
    """The rational flag of each `_value_ops` call polyring makes in run()."""
    with mock.patch.object(polyring, "_value_ops", wraps=exactnum._value_ops) as ops:
        run()
    return [call.args[2] for call in ops.call_args_list]


@settings(max_examples=40)
@given(st.data())
def test_integer_case_matches_sympy_and_polar_oracles(data):
    """Rational F, C, p and L, as in every detect input, run restrict,
    PolarChain and proportional in the integer case, over Q and over a
    cyclotomic field.  restrict equals sympy's expansion of F(C.Y), the
    chain equals iterated HomogPoly.polar in value and representation, and
    proportional equals the direct P_j ~ P_(j+1) L test.  The same inputs
    with one entry of F, C, p or L made a tag z^k or a dense value stay on
    the tagged path and match the same oracles."""
    import sympy

    field = cyclo_field(data.draw(st.sampled_from([1, 3, 5, 12]), label="N"))
    n, d = data.draw(st.integers(1, 3), label="n"), data.draw(st.integers(4, 7), label="d")
    nvars = n + 2
    monos = st.lists(st.integers(0, nvars - 1), min_size=d, max_size=d).map(
        lambda vs: tuple(vs.count(i) for i in range(nvars)))
    terms = data.draw(st.dictionaries(monos, RATIONAL.filter(bool), min_size=1, max_size=6),
                      label="F")
    F = HomogPoly.from_terms(field, nvars, terms, degree=d)
    vec = st.lists(RATIONAL.map(field.from_rational), min_size=nvars, max_size=nvars)
    m = data.draw(st.integers(1, 3), label="m")
    C = data.draw(st.lists(vec, min_size=m, max_size=m), label="C")
    p = data.draw(vec.filter(any), label="p")
    L = linear_form(field, data.draw(vec.filter(any), label="L"))

    def check(F, C, p, L):
        out = {}

        def run():
            out["g"], out["chain"] = F.restrict(C), polyring.PolarChain(F, p)
            out["steps"] = [out["chain"].proportional(L, top)
                            for top in range(1, len(out["chain"]) - 1)]

        flags = integer_cases(run)
        assert_same_representation(out["g"], horner_restrict(F, C))
        forms = polar_chain_oracle(F, p)
        assert_same_chain(out["chain"], forms)
        assert out["steps"] == [all(proportional_oracle(forms[j], forms[j + 1], L)
                                    for j in range(top, 0, -1))
                                for top in range(1, len(forms) - 1)]
        return out["g"], flags

    g, flags = check(F, C, p, L)
    assert flags and all(flags)
    assert sympy.expand(sympy_poly(g)[0] - substituted_by_sympy(F, C)) == 0
    if field.degree == 1:
        return
    k = data.draw(st.sampled_from([k for k in range(1, field.N) if field.zeta(k).rational() is None]))
    odd = data.draw(st.sampled_from([field.zeta(k), field.element([1] * field.degree)]), label="odd")
    where = data.draw(st.sampled_from(["F", "C", "p", "L"]), label="where")
    if where == "F":
        mono = data.draw(st.sampled_from(sorted(F.terms)))
        F = F + HomogPoly(field, nvars, d, {mono: odd - F.terms[mono]})
    elif where == "C":
        C = [C[0][:1] + [odd] + C[0][2:]] + C[1:]
    elif where == "p":
        p = [odd] + p[1:]
    else:
        L = L + linear_form(field, [odd] + [0] * (nvars - 1))
        if L.is_zero():
            return
    _, flags = check(F, C, p, L)
    # the flags of restrict, of the chain and of every proportional step
    g_flag, chain_flag, step_flag = {"F": (False, False, False), "C": (False, True, True),
                                     "p": (True, False, False), "L": (True, True, False)}[where]
    assert flags == [g_flag, chain_flag] + [step_flag] * (len(flags) - 2)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_polar_chain_drops_packed_zero_mod_phi(d):
    """At p = (1, z, z^2) in Q(zeta_3), F = (X0 + X1 + X2) X0^(d-1) has D_pF
    = (d-1)(X0 + X1 + X2) X0^(d-2): at X0^(d-1) the tags d, z and z^2 meet
    in the packed d + x + x^2, which is d - 1 mod Phi_3, and at d = 1 the
    packed 1 + x + x^2 is zero, so the chain ends at F."""
    K = cyclo_field(3)
    z = K.zeta()
    F = poly(K, 3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}) * \
        poly(K, 3, {(d - 1, 0, 0): 1})
    p = (K.one, z, z**2)
    chain = polyring.PolarChain(F, p)
    assert len(chain) == d
    assert_same_chain(chain, polar_chain_oracle(F, p))
    if d > 1:
        assert type(chain.forms[1][d - 1]) is int  # the key of X0^(d-1)
        assert chain.form(1).terms[(d - 1, 0, 0)].tag == (d - 1, 0)


def test_polar_chain_at_the_bit_bound():
    """F = c X0^d + z X0^(d-1) X1 at (1, 1, 0) in Q(zeta_5): P_d' = d!(c + z)
    has l1 norm ||F'||_1 d!, the bound itself, which is chosen just below
    2^(B-1) with B = 24; its coefficient d! c lies above 2^(B-2)."""
    K = cyclo_field(5)
    d = 5
    fact = math.factorial(d)
    c = (2**23 - 1) // fact - 1
    F = poly(K, 3, {(d, 0, 0): c, (d - 1, 1, 0): K.zeta()})
    p = (1, 1, 0)
    chain = polyring.PolarChain(F, p)
    assert chain.bound == (c + 1) * fact < 2**23 and chain.ops.bits == 24
    assert exactnum._unpack(chain.forms[d][0], 24) == [fact * c, fact]
    assert fact * c > 2**22
    forms = polar_chain_oracle(F, p)
    assert_same_chain(chain, forms)
    assert forms[d].terms[(0, 0, 0)] == K.from_rational(fact * c) + K.zeta() * fact


def test_monomial_ints_past_degree_255():
    """At degree 257 a monomial int takes 16 bits per exponent: the chain
    and restrict still match their oracles."""
    K = cyclo_field(3)
    z = K.zeta()
    d = 257
    F = poly(K, 2, {(d, 0): 1, (d - 1, 1): z, (0, d): 3})
    assert polyring._monomial_ints(2, d)[0] == 16
    chain = polyring.PolarChain(F, (1, z))
    assert len(chain) == d + 1
    assert_same_chain(chain, polar_chain_oracle(F, (1, z)))
    basis = [(z, 0), (1, 2)]
    assert_same_representation(F.restrict(basis), horner_restrict(F, basis))


def test_distinct_root_count_examples():
    import sympy

    b = poly(Q, 2, {(4, 0): 1, (0, 4): 1})
    # oracle: squarefree degree via sympy gcd
    t = sympy.symbols("t")
    u = t**4 + 1
    g = sympy.gcd(u, sympy.diff(u, t))
    assert sympy.degree(u) - sympy.degree(g) == 4
    assert distinct_root_count(b) == 4
    assert distinct_root_count(poly(Q, 2, {(2, 2): 1})) == 2
    assert distinct_root_count(poly(Q, 2, {(4, 0): 1})) == 1
    assert distinct_root_count(poly(Q, 2, {(0, 4): 1})) == 1
    # repeated root across both charts
    sq = poly(Q, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})  # (x0+x1)^2
    assert distinct_root_count(sq) == 1


def test_distinct_root_count_of_chosen_roots():
    """X0^e * prod (X1 - r X0)^m over distinct dense roots r: the count is the
    number of roots, plus one for [0:1] when e > 0."""
    rng = random.Random(3)
    for N in (1, 7, 12):
        F = cyclo_field(N)
        x0, x1 = HomogPoly.variable(F, 2, 0), HomogPoly.variable(F, 2, 1)
        for _ in range(6):
            roots = []
            while len(roots) < rng.randint(1, 3):
                r = F.element([rng.randint(-2, 2) for _ in range(F.degree)])
                if r not in roots:
                    roots.append(r)
            e = rng.choice([0, 0, 1, 2])
            b = x0 ** e * F.element([rng.randint(1, 3)] + [rng.randint(-2, 2)
                                                          for _ in range(F.degree - 1)])
            for r in roots:
                b = b * (x1 - x0 * r) ** rng.randint(1, 3)
            assert distinct_root_count(b) == len(roots) + (e > 0)


def test_binary_form_roots_enumeration():
    F8 = cyclo_field(8)
    b = poly(F8, 2, {(4, 0): 1, (0, 4): 1})
    roots = binary_form_roots(b)
    assert roots is not None and len(roots) == 4
    for r in roots:
        assert b.eval_at(r).is_zero()
    # not solvable in the small field
    F4 = cyclo_field(4)
    b2 = poly(F4, 2, {(4, 0): 1, (0, 4): 1})
    assert binary_form_roots(b2) is None
    # trinomial forms are counted but not enumerated
    b3 = poly(Q, 2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert binary_form_roots(b3) is None
    assert distinct_root_count(b3) == 2


def test_subfield_values_enter_through_in_field():
    """from_terms, scale, polar, eval_at, restrict and PolarChain lift values
    of a subfield and give what they give for the lifted values; a value of
    a field that does not embed raises ConductorMismatch."""
    F3, F12, F5 = cyclo_field(3), cyclo_field(12), cyclo_field(5)
    w, s3 = F3.zeta(), F3.element([1, 2])  # a tag and a dense value
    assert s3.tag is None

    def lift(values):
        return [embed_lift(x, F12) if isinstance(x, CycloNum) else x for x in values]

    terms = {(4, 0, 0): 1, (0, 4, 0): w, (1, 1, 2): s3, (0, 0, 4): Fraction(1, 2)}
    f = HomogPoly.from_terms(F12, 3, terms)
    assert f == HomogPoly.from_terms(F12, 3, dict(zip(terms, lift(terms.values()))))
    assert all(c.field is F12 for c in f.terms.values())
    f = f + poly(F12, 3, {(2, 1, 1): F12.zeta(5)})
    p, basis = (w, s3, 1), [(w, 1, 0), (0, s3, 1)]
    assert f.scale(s3) == f.scale(embed_lift(s3, F12))
    assert f.polar(p) == f.polar(lift(p))
    assert_same_scalar(f.eval_at(p), f.eval_at(lift(p)))
    assert f.restrict(basis) == f.restrict([lift(v) for v in basis])
    chain, lifted = polyring.PolarChain(f, p), polyring.PolarChain(f, lift(p))
    assert len(chain) == len(lifted) == f.degree + 1
    assert all(chain.form(j) == lifted.form(j) for j in range(len(chain)))
    bad = (F5.zeta(), 1, 0)
    for use in (lambda: HomogPoly.from_terms(F12, 3, {(1, 0, 0): F5.zeta()}),
                lambda: f.scale(F5.zeta()), lambda: f.polar(bad), lambda: f.eval_at(bad),
                lambda: f.restrict([bad]), lambda: polyring.PolarChain(f, bad)):
        with pytest.raises(ConductorMismatch):
            use()


def test_eval_at_examples():
    f = fermat_quartic()
    assert f.eval_at((1, 0, 0)) == 1
    sextic = poly(Q, 3, {(0, 0, 6): 1, (5, 0, 1): 1, (0, 5, 1): 1, (3, 3, 0): 1})
    assert sextic.eval_at((1, 0, 0)).is_zero()
    quartic_surface = poly(Q, 4, {(3, 0, 1, 0): 1, (0, 3, 0, 1): 1, (0, 0, 4, 0): 1, (0, 0, 0, 4): 1})
    assert quartic_surface.eval_at((1, 0, 0, 0)).is_zero()
    with pytest.raises(ValueError):
        f.eval_at((0, 0, 0))


# ---------------------------------------------------------------------------
# eval_at against the per-term power loop

def eval_at_per_term(f, point):
    """f at a point with one p_i ** e per term and variable: eval_at before it
    made each power once, kept as the oracle for value and representation."""
    pt = [p if isinstance(p, CycloNum) else f.field.from_rational(p) for p in point]
    total = f.field.zero
    for mono, c in f.terms.items():
        v = c
        for p, e in zip(pt, mono):
            if e:
                if p.is_zero():
                    v = f.field.zero
                    break
                v = v * p ** e
        if not v.is_zero():
            total = total + v
    return total


def assert_same_scalar(x, y):
    assert (x.tag, x._parts()) == (y.tag, y._parts())
    assert x.tag is None or type(x.tag[0]) is type(y.tag[0])


@given(st.data())
def test_eval_at_matches_per_term_oracle(data):
    """Tagged, dense and zero coordinates, coefficients with denominators."""
    field = cyclo_field(data.draw(st.sampled_from(ORACLE_CONDUCTORS), label="N"))
    N = field.N
    order = data.draw(st.sampled_from([g for g in range(2, 13) if N % g == 0] or [1]))
    exponents = range(0, N, N // order)
    nvars = data.draw(st.integers(1, 4), label="nvars")
    d = data.draw(st.integers(0, 5), label="d")
    monos = st.lists(st.integers(0, nvars - 1), min_size=d, max_size=d).map(
        lambda vs: tuple(vs.count(i) for i in range(nvars)))
    terms = data.draw(st.dictionaries(monos, kernel_entries(field, exponents, False),
                                      max_size=6), label="f")
    f = HomogPoly.from_terms(field, nvars, terms, degree=d)
    point = data.draw(st.lists(kernel_entries(field, exponents, True),
                               min_size=nvars, max_size=nvars), label="point")
    if all(not p for p in point):
        return
    assert_same_scalar(f.eval_at(point), eval_at_per_term(f, point))


def test_eval_at_matches_per_term_oracle_on_detect_forms():
    """The 24 normal forms of the detect benchmark, and their first polars,
    at the centres of their Galois points."""
    for n in (1, 2, 3):
        for d in (4, 5, 6, 7):
            for kind in ("inner", "outer"):
                rng = random.Random(f"detect-424242:{n}:{d}:{kind}")
                X, _, p, _ = normal_form_instance(rng, n, d, kind)
                for g in (X.F, X.F.polar(p)):
                    assert_same_scalar(g.eval_at(p), eval_at_per_term(g, p))
                assert X.F.eval_at(p).is_zero() == (kind == "inner")
