import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from galois_scope.errors import DegreeMismatch
from galois_scope.exactnum import cyclo_field
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


def test_eval_at_examples():
    f = fermat_quartic()
    assert f.eval_at((1, 0, 0)) == 1
    sextic = poly(Q, 3, {(0, 0, 6): 1, (5, 0, 1): 1, (0, 5, 1): 1, (3, 3, 0): 1})
    assert sextic.eval_at((1, 0, 0)).is_zero()
    quartic_surface = poly(Q, 4, {(3, 0, 1, 0): 1, (0, 3, 0, 1): 1, (0, 0, 4, 0): 1, (0, 0, 0, 4): 1})
    assert quartic_surface.eval_at((1, 0, 0, 0)).is_zero()
    with pytest.raises(ValueError):
        f.eval_at((0, 0, 0))
