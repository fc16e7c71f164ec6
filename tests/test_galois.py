import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from galois_scope import corpus, exactnum, galois, hypersurface, projlin
from galois_scope.corpus import random_unimodular
from galois_scope.errors import (
    BoundViolation,
    ConsistencyError,
    CriterionNotApplicable,
    SingularPoint,
)
from galois_scope.exactnum import cyclo_field
from galois_scope.galois import (
    certificate_from_automorphism,
    coordinate_points,
    count_certified_points,
    eigen_candidate_points,
    galois_at_point,
    galois_count_bounds,
    point_verdict,
)
from galois_scope.hypersurface import (
    Hypersurface,
    multiplicity_at_point,
    verify_automorphism,
)
from galois_scope.polyring import HomogPoly
from galois_scope.projlin import ProjMatrix, vec_proj_eq, vector

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
    assert {mono[0] for mono in normal.terms} <= {4, 0}
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


def dense_change(X):
    """X moved by a change with entries 2 + zeta: coefficients turn dense."""
    field, size = X.field, X.n + 2
    a = 2 + field.zeta()
    M = ProjMatrix(field, tuple(
        tuple(a if {i, j} == {0, 1} else field.one if i == j else field.zero
              for j in range(size)) for i in range(size)))
    return Hypersurface(X.n, X.d, X.F.transform(M.inverse())), M


@pytest.mark.parametrize("kind, most", [("outer", 0), ("inner", 1)])
def test_galois_at_point_dense_inverse_count(monkeypatch, kind, most):
    # nothing is normalised: no dense inverse at an outer point, and at an
    # inner one only the pivot of P_(d-2) / P_(d-1), dense after a change
    # with entries 2 + zeta
    X, _, p, _ = corpus.normal_form_instance(random.Random(f"inv:{kind}"), 2, 5, kind)
    Y, M = dense_change(X)
    q = M.apply(p)
    calls = []
    inverse = exactnum._modular_inverse
    monkeypatch.setattr(exactnum, "_modular_inverse",
                        lambda num, field: calls.append(num) or inverse(num, field))
    pv = galois_at_point(Y, q)
    assert pv is not None and pv.kind == kind
    assert len(calls) <= most


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["inner", "outer"])
def test_certificate_path_builds_no_minimal_polynomial(monkeypatch, n, kind):
    # a verified generator of a normal form is a homology: its order is read
    # off the eigenvalue ratio, not from a minimal polynomial
    monkeypatch.setattr(projlin, "_minimal_polynomial", lambda A: pytest.fail("minimal polynomial"))
    X, B, p, _ = corpus.normal_form_instance(random.Random(f"minpoly:{n}:{kind}"), n, 5, kind)
    w = verify_automorphism(X, B)
    cert = certificate_from_automorphism(X, w)
    assert w.order == cert.group_order == (4 if kind == "inner" else 5)
    assert cert.kind == kind and vec_proj_eq(cert.point, p)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["inner", "outer"])
@pytest.mark.parametrize("shape", ["conjugated", "diagonal"])
def test_certificate_reads_only_the_witness(monkeypatch, shape, n, kind):
    # kind, centre and multiplicity come from the witness's reading: no
    # second rank-one read of the matrix and no polar chain at the centre
    X, B, _, C = corpus.normal_form_instance(random.Random(f"reading:{n}:{kind}"), n, 5, kind)
    if shape == "diagonal":
        K = X.field
        X = Hypersurface(n, 5, X.F.transform(C))
        B = ProjMatrix.diagonal(K, [K.zeta()] + [1] * (n + 1))
    w = verify_automorphism(X, B)
    want = certificate_from_automorphism(X, w)
    assert want is not None and want.kind == kind
    monkeypatch.setattr(projlin, "_rank_one", lambda A: pytest.fail("second rank-one read"))
    monkeypatch.setattr(hypersurface, "PolarChain", lambda F, p: pytest.fail("polar chain"))
    assert certificate_from_automorphism(X, w) == want


def test_certificate_rejects_witness_of_wrong_order():
    # a witness forged from a verified one: its order 2 is neither d-1 nor d,
    # so it cannot carry the outer homology it holds
    F4 = cyclo_field(4)
    X = fermat_quartic(F4)
    w = verify_automorphism(X, ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1]))
    with pytest.raises(ConsistencyError, match="projective order 2"):
        certificate_from_automorphism(X, replace(w, order=2))


def test_forged_mismatch_on_smooth_x_is_a_fault(monkeypatch):
    # the theorem-level checks stay internal faults on a smooth X
    F4 = cyclo_field(4)
    X = fermat_quartic(F4)
    w = verify_automorphism(X, ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1]))
    with pytest.raises(ConsistencyError, match="multiplicity 1"):
        certificate_from_automorphism(X, replace(w, reading=w.reading[:3] + (1,)))
    monkeypatch.setattr(galois, "galois_count_bounds", lambda n, d: (0, 0))
    with pytest.raises(BoundViolation):
        count_certified_points(X, coordinate_points(X))


def test_theorem_checks_on_singular_x_are_input_errors():
    # the cone x1^4 + x2^4 has multiplicity 4 at the outer-shaped center e0,
    # the reducible x0*(x1^3 + x2^3 + x0^3) is off e0 under an inner shape,
    # and the cone surface over the Fermat quartic has 6 outer points
    F4, F3 = cyclo_field(4), cyclo_field(3)
    cone = Hypersurface(1, 4, poly(F4, 3, {(0, 4, 0): 1, (0, 0, 4): 1}))
    w = verify_automorphism(cone, ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1]))
    with pytest.raises(CriterionNotApplicable, match="X is singular.*multiplicity 4"):
        certificate_from_automorphism(cone, w)
    reducible = Hypersurface(1, 4, poly(F3, 3, {(1, 3, 0): 1, (1, 0, 3): 1, (4, 0, 0): 1}))
    w = verify_automorphism(reducible, ProjMatrix.diagonal(F3, [F3.zeta(), 1, 1]))
    with pytest.raises(CriterionNotApplicable, match="X is singular.*multiplicity 0"):
        certificate_from_automorphism(reducible, w)
    surface = Hypersurface(2, 4, poly(Q, 4, {(4, 0, 0, 0): 1, (0, 4, 0, 0): 1, (0, 0, 4, 0): 1}))
    points = [(1, 0, 0, t) for t in range(5)] + [(0, 1, 0, 0)]
    with pytest.raises(CriterionNotApplicable, match=r"X is singular.*\(0, 6\)"):
        count_certified_points(surface, points)


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
    # projectively equal candidates, scaled and in a larger field, count once,
    # in the order of their first appearance
    F8 = cyclo_field(8)
    z = F8.zeta()
    report = count_certified_points(X, [(0, 2, 0), (z, 0, 0), (0, 0, 1), (3, 0, 0), (0, z, 0)])
    assert [p for p, _ in report.per_point] == [
        (F8.zero, F8.one, F8.zero), (F8.one, F8.zero, F8.zero), (F8.zero, F8.zero, F8.one)]
    assert report.outer == 3


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
                    assert cert is not None and cert.kind == kind and cert.field is X.field
                    assert vec_proj_eq(cert.point, p)
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
            pv = galois_at_point(X, cert.point)
            assert pv is not None and pv.kind == cert.kind, (inst.name, name)


# -- the Tschirnhaus oracle for the point side ------------------------------

def x0_parts(F):
    """F = sum_k X0^k G_k with G_k free of X0: {k: G_k} over the nonzero G_k."""
    out = {}
    for mono, c in F.terms.items():
        out.setdefault(mono[0], {})[(0,) + mono[1:]] = c
    return {k: HomogPoly(F.field, F.nvars, F.degree - k, t) for k, t in out.items()}


def tschirnhaus_verdict(X, point):
    """Reference point side by coordinate change: (verdict, change or None).

    p moves to e0 by completing it with unit vectors (its first nonzero
    coordinate pivots).  The X0^(d-1) coefficient (outer, after making X0^d
    monic) or the quotient of the X0^(d-2) coefficient by the X0^(d-1) one
    (inner) forces the only shift of X0 that can kill the middle
    coefficients; p is Galois exactly when that shift exists and does.
    """
    field, size, d = X.field, X.n + 2, X.d
    p = vector(field, point)
    pivot = next(i for i, x in enumerate(p) if not x.is_zero())
    unit = [tuple(field.one if i == k else field.zero for i in range(size)) for k in range(size)]
    cols = [p] + [unit[k] for k in range(size) if k != pivot]
    move = ProjMatrix(field, tuple(tuple(col[i] for col in cols) for i in range(size)))
    parts = x0_parts(X.F.transform(move))
    mult = d - max(parts)
    if mult >= 2:
        return "singular", None
    if mult == 0:
        kind, allowed, factor = "outer", {d, 0}, (parts[d].coefficient((0,) * size) * -d).inverse()
        linear = parts.get(d - 1)
    else:
        kind, allowed, factor = "inner", {d - 1, 0}, field.from_rational(Fraction(-1, d - 1))
        linear = parts.get(d - 2)
        if linear is not None:
            linear = linear.divide_by_linear(parts[d - 1])
            if linear is None:
                return "none", None
    row0 = [field.one] + [field.zero if linear is None else factor * linear.coefficient(
        tuple(int(i == j) for i in range(size))) for j in range(1, size)]
    shift = ProjMatrix(field, (tuple(row0),) + tuple(unit[1:]))
    change = move @ shift
    if not {mono[0] for mono in X.F.transform(change).terms} <= allowed:
        return "none", None
    return kind, change


@st.composite
def point_cases(draw):
    """A form, and points on which to run both point sides.

    The form is an inner or outer normal form in coordinates Y (Galois at
    e0), perhaps with one extra monomial or with e0 made singular, under a
    random unimodular change C: the planted point is C.e0.
    """
    n = draw(st.integers(1, 2))
    d = draw(st.integers(4, 5))
    kind = draw(st.sampled_from(["inner", "outer"]))
    variant = draw(st.sampled_from(["normal", "extra", "singular"]))
    field = cyclo_field(draw(st.sampled_from([1, 3, 4])))
    nv = n + 2
    coeff = st.integers(-3, 3).filter(bool)

    def monomial(x0_max):
        mono = [draw(st.integers(0, x0_max))] + [0] * (nv - 1)
        for _ in range(d - mono[0]):
            mono[draw(st.integers(1, nv - 1))] += 1
        return tuple(mono)

    terms = {(d - 1, 1) + (0,) * n if kind == "inner" else (d,) + (0,) * (n + 1): draw(coeff)}
    for i in range(1, nv):
        terms[tuple(d if j == i else 0 for j in range(nv))] = draw(coeff)
    for _ in range(draw(st.integers(0, 2))):
        terms[monomial(0)] = draw(coeff)
    if variant == "extra":
        terms[monomial(d - 1)] = draw(coeff)
    elif variant == "singular":
        del terms[next(iter(terms))]
        if draw(st.booleans()):
            terms[(d - 2, 2) + (0,) * n] = draw(coeff)
    F0 = HomogPoly.from_terms(field, nv, terms, degree=d)
    C = random_unimodular(random.Random(draw(st.integers(0, 2**16))), field, nv)
    X = Hypersurface(n, d, F0.transform(C.inverse()))
    entry = st.integers(-2, 2)
    if field.N > 1:
        entry = entry | st.integers(0, field.N - 1).map(field.zeta)
    points = [C.column(0)] + coordinate_points(X)
    points += [draw(st.lists(entry, min_size=nv, max_size=nv).filter(any)) for _ in range(2)]
    return X, points


@given(point_cases())
def test_point_side_matches_tschirnhaus_oracle(case):
    X, points = case
    for p in points:
        expected, change = tschirnhaus_verdict(X, p)
        assert point_verdict(X, p) == expected
        if expected in ("inner", "outer"):
            pv = galois_at_point(X, p)
            assert pv.change == change
            top = X.d if expected == "outer" else X.d - 1
            assert {mono[0] for mono in X.F.transform(pv.change).terms} <= {top, 0}


# ---------------------------------------------------------------------------
# the point side on the integer polar chain against the field-element reading

def galois_at_point_oracle(X, point):
    """(multiplicity, verdict) read over field elements: the polars by
    iterated HomogPoly.polar, the steps P_j ~ P_(j+1) L by HomogPoly products.
    The verdict is "singular", None, or (kind, L)."""
    d, p = X.d, vector(X.field, point)
    polars = [X.F]
    while not (polar := polars[-1].polar(p)).is_zero():
        polars.append(polar)
    mult = d + 1 - len(polars)
    if mult >= 2:
        return mult, "singular"
    if mult == 0:
        kind, L = "outer", polars[d - 1]
    else:
        kind, L = "inner", polars[d - 2].divide_by_linear(polars[d - 1])
        if L is None:
            return mult, None
    for j in range(d - 2 - mult, 0, -1):
        P, Q = polars[j], polars[j + 1] * L
        m = next(iter(Q.terms))
        if P.terms.keys() != Q.terms.keys() or P.scale(Q.terms[m]) != Q.scale(P.terms[m]):
            return mult, None
    return mult, (kind, L)


def assert_point_side_agrees(X, point) -> str:
    """galois_at_point and multiplicity_at_point against the oracle: the same
    multiplicity, SingularPoint, None or kind, and the same L, in value, in
    tag or dense form and in term order.  Returns the verdict."""
    mult, want = galois_at_point_oracle(X, point)
    assert multiplicity_at_point(X, point) == mult
    if want == "singular":
        with pytest.raises(SingularPoint):
            galois_at_point(X, point)
        return want
    pv = galois_at_point(X, point)
    if want is None:
        assert pv is None
        return "none"
    kind, L = want
    assert pv.kind == kind and pv.point == vector(X.field, point)
    assert list(pv.L.terms) == list(L.terms) and pv.L.degree == 1
    for mono, c in L.terms.items():
        got = pv.L.terms[mono]
        assert (got.tag, got._parts()) == (c.tag, c._parts())
        assert got.tag is None or type(got.tag[0]) is type(c.tag[0])
    return kind


def test_point_side_agrees_with_oracle_on_normal_forms():
    """Normal forms, n 1-3 and d 4-7, also after a dense change: the Galois
    point, the eigenvectors of the generator (the columns of the change),
    the coordinate points and random small points (mostly rejected)."""
    seen = set()
    for n in (1, 2, 3):
        for d in (4, 5, 6, 7):
            for kind in ("inner", "outer"):
                rng = random.Random(f"point-side:{n}:{d}:{kind}")
                X, _, p, C = corpus.normal_form_instance(rng, n, d, kind)
                assert assert_point_side_agrees(X, p) == kind
                points = [C.column(j) for j in range(n + 2)] + coordinate_points(X) + [
                    tuple(rng.randint(-2, 2) for _ in range(n + 2)) for _ in range(3)]
                for q in points:
                    if any(q):
                        seen.add(assert_point_side_agrees(X, q))
                if n + d <= 7:
                    Y, M = dense_change(X)
                    assert assert_point_side_agrees(Y, M.apply(p)) == kind
                    seen.add(assert_point_side_agrees(Y, M.apply(points[-1])))
    assert {"inner", "outer", "none"} <= seen


def test_point_side_agrees_with_oracle_on_corpus():
    """Every named point and every eigen candidate of the bundled instances,
    in the field that count_certified_points would lift X to."""
    for path in corpus.corpus_paths():
        if path.name == "normal-form-family.json":
            continue
        inst = corpus.load_instance(path)
        X = inst.surface
        witnesses = [w for A in inst.automorphisms.values()
                     if (w := verify_automorphism(X, A)) is not None]
        cands = eigen_candidate_points(X, witnesses)
        cands += [corpus.resolve_point(inst, X, name) for name in inst.expect.get("points", {})]
        field = exactnum.common_field(X.field.N, *(c.field.N for q in cands for c in q))
        Xl = X.embed(field)
        for q in cands:
            assert_point_side_agrees(Xl, vector(field, q))


def test_point_side_agrees_with_oracle_at_singular_points():
    """Forms of x0-degree at most d - 2 are singular at e0; moved by a random
    unimodular change, at the image of e0, and at random points."""
    rng = random.Random("point-side:singular")
    for n, d in ((1, 4), (1, 5), (2, 4), (2, 5), (3, 4)):
        field = cyclo_field(rng.choice([1, 3, 4]))
        size = n + 2
        terms = {}
        for _ in range(6):
            mono = [0] * size
            for _ in range(d):
                mono[rng.randrange(size)] += 1
            if mono[0] <= d - 2:
                terms[tuple(mono)] = rng.choice([-2, -1, 1, 2]) * field.zeta(rng.randrange(3))
        terms[(d - 2, 2) + (0,) * n] = 1
        X = Hypersurface(n, d, HomogPoly.from_terms(field, size, terms, degree=d))
        M = random_unimodular(rng, field, size)
        Y = Hypersurface(n, d, X.F.transform(M.inverse()))
        e0 = coordinate_points(X)[0]
        assert assert_point_side_agrees(X, e0) == "singular"
        assert assert_point_side_agrees(Y, M.apply(e0)) == "singular"
        for _ in range(3):
            q = tuple(rng.randint(-2, 2) for _ in range(size))
            if any(q):
                assert_point_side_agrees(Y, q)


def test_rational_point_side_makes_no_field_product(monkeypatch):
    """On a rational outer draw, the multiplicity and the outer verdict run
    on ints alone: no CycloNum product."""
    X, _, p, _ = corpus.normal_form_instance(random.Random("no-products"), 2, 5, "outer")
    assert all(c.rational() is not None for c in X.F.terms.values())
    assert all(c.rational() is not None for c in p)
    calls = []
    mul = exactnum.CycloNum.__mul__
    monkeypatch.setattr(exactnum.CycloNum, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    assert multiplicity_at_point(X, p) == 0
    assert calls == []
    assert galois_at_point(X, p).kind == "outer"
    assert calls == []
