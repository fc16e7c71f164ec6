import pytest

from galois_scope import hypersurface, planecurves
from galois_scope.corpus import bundled_corpus_dir, load_instance, resolve_group
from galois_scope.errors import ClosureBound, CriterionNotApplicable
from galois_scope.exactnum import cyclo_field
from galois_scope.hypersurface import Hypersurface, is_smooth, verify_automorphism
from galois_scope.planecurves import (
    AbelianCheck,
    abelian_constraint_check,
    classify_cyclic,
    coord_point_count,
    group_closure,
    plane_curve_genus,
    quotient_genus,
)
from galois_scope.polyring import HomogPoly
from galois_scope.projlin import ProjMatrix, projective_order

Q = cyclo_field(1)


def poly(field, nvars, terms):
    return HomogPoly.from_terms(field, nvars, terms)


def fermat_quartic(field):
    return Hypersurface(1, 4, poly(field, 3, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}))


def sextic_curve(field):
    return Hypersurface(1, 6, poly(field, 3, {
        (0, 0, 6): 1, (5, 0, 1): 1, (0, 5, 1): 1, (3, 3, 0): 1}))


def test_coord_point_count():
    F4 = cyclo_field(4)
    X = fermat_quartic(F4)
    w = verify_automorphism(X, ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1]))
    assert coord_point_count(X, w) == 0

    F5 = cyclo_field(5)
    S = sextic_curve(F5)
    ws = verify_automorphism(S, ProjMatrix.diagonal(F5, [F5.zeta(3), F5.zeta(2), 1]))
    assert coord_point_count(S, ws) == 2

    Y = Hypersurface(1, 4, poly(Q, 3, {(3, 1, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}))
    F3 = cyclo_field(3)
    Y3 = Hypersurface(1, 4, Y.F.embed(F3))
    wy = verify_automorphism(Y3, ProjMatrix.diagonal(F3, [F3.zeta(), 1, 1]))
    assert coord_point_count(Y3, wy) == 1


def test_classify_fermat_row1():
    F4 = cyclo_field(4)
    X = fermat_quartic(F4)
    w = verify_automorphism(X, ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1]))
    rows = [r.row for r in classify_cyclic(X, w)]
    assert rows == [1]


def test_classify_sextic_row4():
    F5 = cyclo_field(5)
    X = sextic_curve(F5)
    w = verify_automorphism(X, ProjMatrix.diagonal(F5, [F5.zeta(3), F5.zeta(2), 1]))
    rows = [r.row for r in classify_cyclic(X, w)]
    assert rows == [4]


def test_classify_inner_quartic_row2():
    F3 = cyclo_field(3)
    X = Hypersurface(1, 4, poly(F3, 3, {(3, 1, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}))
    w = verify_automorphism(X, ProjMatrix.diagonal(F3, [F3.zeta(), 1, 1]))
    rows = [r.row for r in classify_cyclic(X, w)]
    assert 2 in rows


def test_classify_permutation_invariant():
    # the eigenvalue may sit in any coordinate slot
    F3 = cyclo_field(3)
    X = Hypersurface(1, 4, poly(F3, 3, {(1, 3, 0): 1, (4, 0, 0): 1, (0, 0, 4): 1}))
    w = verify_automorphism(X, ProjMatrix.diagonal(F3, [1, F3.zeta(), 1]))
    rows = [r.row for r in classify_cyclic(X, w)]
    assert 2 in rows


def test_classify_never_empty_on_corpus():
    F5 = cyclo_field(5)
    curves_and_auts = [
        (fermat_quartic(cyclo_field(4)), [cyclo_field(4).zeta(), 1, 1]),
        (sextic_curve(F5), [F5.zeta(3), F5.zeta(2), 1]),
    ]
    for X, diag in curves_and_auts:
        assert is_smooth(X).status == "certified_smooth"
        w = verify_automorphism(X, ProjMatrix.diagonal(X.field, diag))
        assert classify_cyclic(X, w)


def test_genus_values():
    assert plane_curve_genus(4) == 3
    assert plane_curve_genus(3) == 1
    assert plane_curve_genus(1) == 0
    assert 2 - 2 * plane_curve_genus(4) == -4


def test_group_closure_klein_four():
    G = group_closure([
        ProjMatrix.diagonal(Q, [-1, 1, 1]),
        ProjMatrix.diagonal(Q, [1, -1, 1]),
    ])
    assert G.order == 4
    assert G.abelian
    assert not G.cyclic


def test_group_closure_cyclic_five():
    F5 = cyclo_field(5)
    G = group_closure([ProjMatrix.diagonal(F5, [F5.zeta(3), F5.zeta(2), 1])])
    assert G.order == 5 and G.cyclic and G.abelian


def test_group_closure_nine():
    # diag of cube roots together with a 3-cycle of unit product: (Z/3)^2 in PGL
    F3 = cyclo_field(3)
    g = ProjMatrix.diagonal(F3, [F3.zeta(2), F3.zeta(), 1])
    h = ProjMatrix.from_entries(F3, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    G = group_closure([g, h])
    assert G.order == 9
    assert G.abelian
    assert not G.cyclic
    # oracle: direct enumeration of words g^a h^b
    reps = set()
    for a in range(3):
        for b in range(3):
            reps.add(((g ** a) @ (h ** b)).canonical().rows)
    assert len(reps) == 9


def test_group_closure_s3_not_abelian():
    # a transposition and a 3-cycle as permutation matrices generate S3
    t = ProjMatrix.from_entries(Q, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    c = ProjMatrix.from_entries(Q, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    G = group_closure([t, c])
    assert G.order == 6
    assert not G.abelian
    assert not G.cyclic


def test_group_closure_lagrange():
    G = group_closure([
        ProjMatrix.diagonal(Q, [-1, 1, 1]),
        ProjMatrix.diagonal(Q, [1, -1, 1]),
    ])
    for e in G.elements:
        assert G.order % projective_order(e, k_max=G.order) == 0


def test_group_closure_bound():
    F5 = cyclo_field(5)
    with pytest.raises(ClosureBound):
        group_closure([ProjMatrix.diagonal(F5, [F5.zeta(), 1, 1])], bound=3)


def test_quotient_genus_fermat():
    F8 = cyclo_field(8)
    X = fermat_quartic(F8)
    G = group_closure([
        ProjMatrix.diagonal(F8, [-1, 1, 1]),
        ProjMatrix.diagonal(F8, [1, -1, 1]),
    ])
    rep = quotient_genus(X, G)
    assert rep.curve_genus == 3
    assert rep.stabilizer_sum == 12
    assert rep.group_order == 4
    assert rep.quotient_genus == 0
    assert rep.fix_counts == (4, 4, 4)


def test_quotient_genus_stabilizer_two_ways():
    # with conductor 8 the involutions' fixed points are all enumerable, so the
    # per-point stabilizer sum over the probe equals the per-element sum
    F8 = cyclo_field(8)
    X = fermat_quartic(F8)
    G = group_closure([
        ProjMatrix.diagonal(F8, [-1, 1, 1]),
        ProjMatrix.diagonal(F8, [1, -1, 1]),
    ])
    from galois_scope.fixlocus import fixed_locus
    from galois_scope.projlin import vec_proj_eq

    ident = ProjMatrix.identity(F8, 3)
    all_points = []
    for e in G.elements:
        if e.proj_eq(ident):
            continue
        w = verify_automorphism(X, e)
        rep = fixed_locus(X, w)
        for comp in rep.components:
            assert comp.kind in ("finite_points", "empty")
            if comp.points:
                assert len(comp.points) == comp.count
                for p in comp.points:
                    if not any(vec_proj_eq(p, q) for q in all_points):
                        all_points.append(p)
    per_point = 0
    for p in all_points:
        stab = sum(1 for e in G.elements if vec_proj_eq(e.apply(p), p))
        per_point += stab - 1
    rep = quotient_genus(X, G)
    assert per_point == rep.stabilizer_sum


def test_quotient_genus_cyclic_four():
    F8 = cyclo_field(8)
    X = fermat_quartic(F8)
    G = group_closure([ProjMatrix.diagonal(F8, [F8.zeta(2), 1, 1])])
    rep = quotient_genus(X, G)
    assert rep.stabilizer_sum == 12
    assert rep.quotient_genus >= 0


@pytest.mark.parametrize("check", [quotient_genus, abelian_constraint_check])
def test_closure_element_off_x_is_an_input_error(check):
    # diag(-1, 1, 1) flips the sign of x0*x1^3, so it does not preserve X
    X = Hypersurface(1, 4, poly(Q, 3, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1,
                                       (1, 3, 0): 1}))
    G = group_closure([ProjMatrix.diagonal(Q, [-1, 1, 1]), ProjMatrix.diagonal(Q, [1, -1, 1])])
    with pytest.raises(CriterionNotApplicable,
                       match="^closure contains a matrix that does not preserve X$"):
        check(X, G)


def test_abelian_check_klein_four():
    F8 = cyclo_field(8)
    X = fermat_quartic(F8)
    G = group_closure([
        ProjMatrix.diagonal(F8, [-1, 1, 1]),
        ProjMatrix.diagonal(F8, [1, -1, 1]),
    ])
    assert abelian_constraint_check(X, G).verdict == "pass"


def test_abelian_check_rank_two_order_four():
    F4 = cyclo_field(4)
    X = fermat_quartic(F4)
    G = group_closure([
        ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1]),
        ProjMatrix.diagonal(F4, [1, F4.zeta(), 1]),
    ])
    assert G.order == 16 and G.abelian and not G.cyclic
    assert abelian_constraint_check(X, G).verdict == "pass"


@pytest.mark.parametrize("name", ["ex1-fermat", "fermat-quartic-z4xz4"])
def test_abelian_torsion_read_off_the_orders(name):
    # g^p is scalar exactly when ord(g) divides p, so the p-torsion counted
    # from the element orders equals the count of scalar p-th powers
    if name == "ex1-fermat":
        inst = load_instance(bundled_corpus_dir() / "ex1-fermat.json")
        X, G = inst.surface, group_closure(resolve_group(inst, "G"))
        assert G.order == 4
    else:
        F4 = cyclo_field(4)
        X = fermat_quartic(F4)
        G = group_closure([ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1]),
                           ProjMatrix.diagonal(F4, [1, F4.zeta(), 1])])
        assert G.order == 16
    orders = [projective_order(e, k_max=G.order) for e in G.elements]
    assert sum(1 for k in orders if 2 % k == 0) == 4
    assert sum(1 for e in G.elements if (e ** 2).is_scalar()) == 4
    assert abelian_constraint_check(X, G).verdict == "pass"


def test_abelian_check_reads_each_order_once(monkeypatch):
    # the closure reads no order, and the check takes the orders from the
    # witnesses of its verify loop: one projective_order call per element at
    # most, none a second time; cyclic is read only when asked for
    F4 = cyclo_field(4)
    X = fermat_quartic(F4)
    calls = []

    def counted(A, k_max=10000):
        calls.append(A)
        return projective_order(A, k_max)

    for module in (hypersurface, planecurves):
        monkeypatch.setattr(module, "projective_order", counted)
    G = group_closure([ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1]),
                       ProjMatrix.diagonal(F4, [1, F4.zeta(), 1])])
    check = abelian_constraint_check(X, G)
    assert check == AbelianCheck("pass")
    assert len(calls) <= len(G.elements) == 16
    assert len({A.rows for A in calls}) == len(calls)
    assert not G.cyclic


def test_abelian_check_cyclic_not_applicable():
    F4 = cyclo_field(4)
    X = fermat_quartic(F4)
    G = group_closure([ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1])])
    assert abelian_constraint_check(X, G).verdict == "not-applicable"
