"""The Groebner kernel against references that do not come from it.

Two checks, on random forms and on fixed cases:

* the minimal leading monomials the kernel returns equal those of sympy's
  reduced grevlex basis, whenever the coefficients are rational;
* Buchberger's criterion, by the plain reducer below: every generator and
  every S-pair of the kernel's minimal basis reduces to zero.  The entries
  return only the leading monomials, so the basis, lead and tail, is read
  from the `_buchberger` call behind them.

The modular pass (the same kernel mod p) may only certify smoothness where
the exact pass does, and on the corpus, AC5 and benchmark forms it agrees.
On the benchmark and fixed cases its verdict also matches sympy's basis of
the same image mod p, and it stops once every variable has a pure power.
The packed-int monomial primitives are checked against their tuple
definitions, and an exponent field too narrow for the work is refused.
"""
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from galois_scope import groebner
from galois_scope.cli import main
from galois_scope.corpus import (
    bundled_corpus_dir,
    corpus_paths,
    load_instance,
    normal_form_instance,
)
from galois_scope.errors import BoundViolation
from galois_scope.exactnum import _residue, cyclo_field
from galois_scope.groebner import (
    PRIME_RANGE,
    Packing,
    groebner_basis,
    leading_pure_powers,
    modular_leading_monomials,
    modular_prime,
)
from galois_scope.parsing import MAX_CONDUCTOR
from galois_scope.polyring import HomogPoly, grevlex_key

Q = cyclo_field(1)


def grevlex(mono):
    """Degree first, then the smaller exponent in the last variable that differs."""
    return (sum(mono), [-e for e in reversed(mono)])


def lead(f: dict):
    return max(f, key=grevlex)


def sub_multiple(f: dict, c, shift, g: dict) -> dict:
    """f - c * x^shift * g as a new dict without zero terms."""
    out = dict(f)
    for m, gc in g.items():
        mono = tuple(a + b for a, b in zip(shift, m))
        v = out[mono] - c * gc if mono in out else -(c * gc)
        if v.is_zero():
            out.pop(mono, None)
        else:
            out[mono] = v
    return out


def plain_reduce(f: dict, basis: list[dict]) -> dict:
    """Full remainder of f by the basis, recomputing the leading term each step."""
    rem = {}
    while f:
        m = lead(f)
        for g in basis:
            gm = lead(g)
            if all(a <= b for a, b in zip(gm, m)):
                f = sub_multiple(f, f[m] / g[gm], tuple(a - b for a, b in zip(m, gm)), g)
                break
        else:
            rem[m] = f.pop(m)
    return rem


def plain_s_polynomial(f: dict, g: dict) -> dict:
    lf, lg = lead(f), lead(g)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    shifted = sub_multiple({}, -f[lf].inverse(), tuple(a - b for a, b in zip(lcm, lf)), f)
    return sub_multiple(shifted, g[lg].inverse(), tuple(a - b for a, b in zip(lcm, lg)), g)


def kernel_basis(gens: list[HomogPoly]) -> tuple[list, list[dict]]:
    """groebner_basis(gens), and the minimal basis that its `_buchberger` call
    returned, each element unpacked to {exponents: coefficient}, lead included."""
    seen = []
    buchberger = groebner._buchberger

    def recording(monics, p, packing):
        basis = buchberger(monics, p, packing)
        seen.append((basis, packing))
        return basis

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner, "_buchberger", recording)
        leads = groebner_basis(gens)
    [(basis, packing)] = seen
    one, unpack = gens[0].field.one, packing.unpack
    return leads, [{unpack(g.lm): one, **{unpack(m): c for m, c in g.tail}} for g in basis]


def check_buchberger_criterion(gens: list[HomogPoly], G: list[dict]) -> None:
    for g in gens:
        assert plain_reduce(dict(g.terms), G) == {}, "a generator is not in the basis ideal"
    for i in range(len(G)):
        for j in range(i):
            assert plain_reduce(plain_s_polynomial(G[i], G[j]), G) == {}, (i, j)


def minimal_leads(basis: list[dict], one) -> list:
    leads = [lead(g) for g in basis]
    for g, m in zip(basis, leads):
        assert g[m] == one, "basis elements are monic"
    for i, m in enumerate(leads):
        assert not any(j != i and all(a <= b for a, b in zip(o, m))
                       for j, o in enumerate(leads)), "the basis is not minimal"
    return sorted(leads)


def sympy_minimal_leads(gens: list[HomogPoly]) -> list:
    """Leading exponents of sympy's reduced grevlex basis over QQ."""
    import sympy

    xs = sympy.symbols(f"s0:{gens[0].nvars}")
    polys = []
    for g in gens:
        coeffs = {}
        for mono, c in g.terms.items():
            r = c.rational()
            coeffs[mono] = sympy.Rational(r.numerator, r.denominator)
        polys.append(sympy.Poly.from_dict(coeffs, *xs, domain=sympy.QQ))
    G = sympy.groebner(polys, *xs, order="grevlex", domain=sympy.QQ)
    return sorted(sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in G.exprs)


def jacobian(F: HomogPoly) -> list[HomogPoly]:
    return [g for g in (F.partial(i) for i in range(F.nvars)) if not g.is_zero()]


def modular_smooth(F: HomogPoly) -> bool:
    """Whether the modular pass finds a pure power of every variable."""
    return all(leading_pure_powers(modular_leading_monomials(jacobian(F)), F.nvars))


def check_kernel(F: HomogPoly) -> tuple[bool, bool]:
    """Run the kernel on the Jacobian of F and check it against both references;
    returns the (exact, modular) smoothness verdicts."""
    gens = jacobian(F)
    leads, basis = kernel_basis(gens)
    assert leads == sorted(leads, key=grevlex_key), "the leads are sorted in grevlex order"
    assert sorted(leads) == minimal_leads(basis, F.field.one)
    check_buchberger_criterion(gens, basis)
    if all(c.rational() is not None for c in F.terms.values()):
        assert sorted(leads) == sympy_minimal_leads(gens)
    exact, modular = all(leading_pure_powers(leads, F.nvars)), modular_smooth(F)
    assert exact or not modular, "the modular pass certified a form the exact pass does not"
    return exact, modular


def monomials(nvars, d):
    if nvars == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d + 1) for rest in monomials(nvars - 1, d - e)]


@st.composite
def sparse_forms(draw):
    """Forms of 2-5 terms, sparse enough that most are singular.  About half
    of them, quaternary quintics aside (their smooth bases take the plain
    reducer a minute), also get the Fermat terms x_i^d, so many are smooth."""
    field = cyclo_field(draw(st.sampled_from([1, 3, 4]), label="N"))
    nvars = draw(st.sampled_from([3, 4]), label="nvars")
    d = draw(st.integers(3, 5), label="d")
    monos = draw(st.lists(st.sampled_from(monomials(nvars, d)), min_size=2, max_size=5,
                          unique=True), label="monomials")
    if (nvars, d) != (4, 5) and draw(st.booleans(), label="fermat"):
        monos += [m for m in monomials(nvars, d) if d in m and m not in monos]
    terms = {}
    for mono in monos:
        c = field.from_rational(draw(st.sampled_from([-2, -1, 1, 1, 3])))
        if field.N > 1:  # c z^k, or the dense c z^k + 1
            c = c * field.zeta(draw(st.integers(0, field.N - 1))) + draw(st.integers(0, 1))
        terms[mono] = c
    return HomogPoly.from_terms(field, nvars, terms, degree=d)


@settings(max_examples=60)
@given(sparse_forms())
def test_random_forms_match_references(F):
    assume(not F.is_zero())
    check_kernel(F)


def poly(nvars, terms):
    return HomogPoly.from_terms(Q, nvars, terms)


KNOWN_CASES = {  # the cases of test_hypersurface::test_smooth_matches_sympy_groebner
    "fermat-quartic": poly(3, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}),
    "binode": poly(3, {(4, 0, 0): 1, (0, 4, 0): 1}),
    "cusp-quartic": poly(3, {(3, 1, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}),
    "quartic-surface": poly(4, {(3, 0, 1, 0): 1, (0, 3, 0, 1): 1,
                                (0, 0, 4, 0): 1, (0, 0, 0, 4): 1}),
}


@pytest.mark.parametrize("name", sorted(KNOWN_CASES))
def test_known_cases_match_references(name):
    check_kernel(KNOWN_CASES[name])


CORPUS = [p for p in corpus_paths() if p.name != "normal-form-family.json"]


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_jacobians_match_references(path):
    exact, modular = check_kernel(load_instance(path).surface.F)
    assert modular == exact


def exact_smooth(F: HomogPoly) -> bool:
    return all(leading_pure_powers(groebner_basis(jacobian(F)), F.nvars))


# the smooth benchmark's normal forms, one draw per kind in each cell
SMOOTH_BENCHMARK = {
    f"smooth:{n}:{d}:{kind}": normal_form_instance(
        random.Random(f"smooth:{n}:{d}:{kind}:0"), n, d, kind)[0].F
    for n, d in ((1, 4), (1, 5), (1, 6), (2, 4)) for kind in ("inner", "outer")
}


def test_modular_pass_agrees_on_benchmark_population():
    # the smooth benchmark's forms and its singular quartic x0^4 + x1^4
    forms = [poly(3, {(4, 0, 0): 1, (0, 4, 0): 1}), *SMOOTH_BENCHMARK.values()]
    verdicts = [(modular_smooth(F), exact_smooth(F)) for F in forms]
    assert verdicts == [(False, False)] + [(True, True)] * 8


def sympy_modular_smooth(F: HomogPoly) -> bool:
    """Whether sympy's grevlex basis of the Jacobian's image under
    zeta_N -> w mod p, (p, w) = modular_prime(N), is zero-dimensional."""
    import sympy

    p, w = modular_prime(F.field.N)
    xs = sympy.symbols(f"s0:{F.nvars}")
    polys = []
    for g in jacobian(F):
        coeffs = {m: _residue(c, p, w) for m, c in g.terms.items()}
        assert None not in coeffs.values(), "p divides a denominator"
        polys.append(sympy.Poly.from_dict(coeffs, *xs, modulus=p))
    return sympy.groebner(polys, *xs, order="grevlex", modulus=p).is_zero_dimensional


@pytest.mark.parametrize("name", [*sorted(KNOWN_CASES), *SMOOTH_BENCHMARK])
def test_modular_pass_matches_sympy_mod_p(name):
    F = {**KNOWN_CASES, **SMOOTH_BENCHMARK}[name]
    assert modular_smooth(F) == sympy_modular_smooth(F)


def test_modular_pass_stops_at_its_certificate(monkeypatch):
    # the loop ends once every variable has a pure power among the leads;
    # run to completion it makes 19, 19, 30, 30, 45, 45, 57, 57 normal forms
    calls = []
    normal_form = groebner.normal_form

    def counting(*args):
        calls.append(1)
        return normal_form(*args)

    monkeypatch.setattr(groebner, "normal_form", counting)
    counts = []
    for F in SMOOTH_BENCHMARK.values():
        calls.clear()
        leads = modular_leading_monomials(jacobian(F))
        assert all(leading_pure_powers(leads, F.nvars))
        counts.append(len(calls))
    assert all(c <= bound for c, bound in zip(counts, [14, 14, 25, 26, 40, 40, 32, 32])), counts


def test_constant_lead_is_a_pure_power_of_every_variable():
    # the lead of a unit ideal, as for the Jacobian of a hyperplane
    assert leading_pure_powers([(0, 0, 0)], 3) == [True] * 3


def test_modular_pass_agrees_on_ac5_draws():
    # every normal form AC5 (test_acceptance) draws, those that its
    # smoothness filter rejects included
    rng = random.Random(515151)
    made = drawn = 0
    while made < 44:
        kind = "inner" if made % 2 == 0 else "outer"
        d = rng.choice([4, 5])
        X, *_ = normal_form_instance(rng, 1, d, kind)
        exact = exact_smooth(X.F)
        assert modular_smooth(X.F) == exact
        made += exact
        drawn += 1
    assert drawn > made


@pytest.mark.parametrize("N", [1, 8, 495, 6405, MAX_CONDUCTOR])
def test_modular_prime_choice(N):
    import sympy

    low, high = PRIME_RANGE
    p, w = modular_prime(N)
    assert sympy.isprime(p) and (p - 1) % N == 0 and low < p < high
    assert not any(sympy.isprime(q) for q in range(p - N, low, -N)), "not the least"
    assert pow(w, N, p) == 1
    assert all(pow(w, N // q, p) != 1 for q in sympy.primefactors(N))


EXPONENT = st.one_of(st.integers(0, 3), st.integers(0, 2**15 - 1))


@st.composite
def exponent_pairs(draw):
    """Two exponent vectors in 1-6 variables, every exponent below 2^15."""
    nvars = draw(st.integers(1, 6), label="nvars")
    vectors = st.lists(EXPONENT, min_size=nvars, max_size=nvars).map(tuple)
    return draw(vectors, label="a"), draw(vectors, label="b")


@settings(max_examples=300)
@given(exponent_pairs())
def test_packing_primitives_match_tuples(pair):
    a, b = pair
    P = Packing(len(a))
    pa, pb = P.pack(a), P.pack(b)
    assert P.unpack(pa) == a and pa & P.guard == 0
    assert P.unpack(pa + pb) == tuple(x + y for x, y in zip(a, b))
    G = P.guard  # the kernel's inline divisibility test
    assert ((pb + G - pa) & G == G) == all(x <= y for x, y in zip(a, b))
    assert set(P.pure_power_of(pa)) == {i for i in range(len(a))
                                        if not any(a[:i] + a[i + 1:])}
    lcm = P.lcm(pa, pb)
    assert P.unpack(lcm) == tuple(map(max, a, b))
    assert (lcm == pa + pb) == (not any(x and y for x, y in zip(a, b)))
    for m, v in ((pa, a), (lcm, P.unpack(lcm))):
        if sum(v) < 2**16:  # the kernel keeps every degree below 2^15
            assert P.degree(m) == sum(v)


@st.composite
def same_degree_pairs(draw):
    """Two exponent vectors in 1-6 variables of one degree below 2^15."""
    nvars = draw(st.integers(1, 6), label="nvars")
    degree = draw(st.one_of(st.integers(0, 6), st.integers(0, 2**15 - 1)), label="degree")

    def composition():
        cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=nvars - 1,
                                    max_size=nvars - 1)))
        return tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [degree]))

    return composition(), composition()


@settings(max_examples=300)
@given(same_degree_pairs())
def test_packed_order_reverses_grevlex_within_a_degree(pair):
    a, b = pair
    P = Packing(len(a))
    pa, pb = P.pack(a), P.pack(b)
    assert P.degree(pa) == P.degree(pb) == sum(a)
    assert (pa < pb) == (grevlex_key(a) > grevlex_key(b))
    assert (pa == pb) == (a == b)


def test_narrow_exponent_fields_are_refused(monkeypatch, capsys):
    # with 4-bit fields exponents and degrees must stay below 8: exa1 (a
    # sextic) has quintic partials, and one of their S-pairs has lcm degree
    # 8; exa2's partials have degree 29 and are refused on entry
    monkeypatch.setattr(groebner, "WIDTH", 4)
    for name in ("exa1.json", "exa2.json"):
        gens = jacobian(load_instance(bundled_corpus_dir() / name).surface.F)
        for kernel in (modular_leading_monomials, groebner_basis):
            with pytest.raises(BoundViolation, match="4-bit exponent fields"):
                kernel(gens)
    # the Fermat quartic's work stays inside the narrow fields
    assert modular_smooth(KNOWN_CASES["fermat-quartic"])
    code = main(["check-smooth", str(bundled_corpus_dir() / "exa1.json")])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert "4-bit exponent fields" in json.loads(err)["error"]
