import math
import random

import pytest

from galois_scope.errors import (
    ConductorMismatch,
    OrderBoundExceeded,
    SingularMatrix,
    UnsupportedShape,
)
from galois_scope.exactnum import cyclo_field, embed_lift, recognize_root_of_unity
from galois_scope.projlin import (
    ProjMatrix,
    eigen_structure,
    homology_form,
    projective_order,
    vec_proj_eq,
    vector,
)

Q = cyclo_field(1)


def rand_invertible(rng, field, n, lo=-3, hi=3):
    while True:
        M = ProjMatrix.from_entries(field, [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
        if not M.det().is_zero():
            return M


def test_mat_basic_examples():
    F5 = cyclo_field(5)
    A = ProjMatrix.diagonal(F5, [F5.zeta(), 1, 1, 1])
    I = ProjMatrix.identity(F5, 4)
    diff = ProjMatrix(F5, tuple(
        tuple(A.rows[i][j] - I.rows[i][j] for j in range(4)) for i in range(4)))
    assert diff.rank() == 1

    F3 = cyclo_field(3)
    D = ProjMatrix.diagonal(F3, [F3.zeta(), F3.zeta(2), 1, 1])
    assert D.det() == 1

    swap = ProjMatrix.from_entries(Q, [[0, 1], [1, 0]])
    assert swap.inverse() == swap


def test_inverse_and_det_random():
    rng = random.Random(2)
    for _ in range(15):
        n = rng.choice([2, 3, 4])
        M = rand_invertible(rng, Q, n)
        assert (M @ M.inverse()).proj_eq(ProjMatrix.identity(Q, n))
        assert M.rank() == n
    with pytest.raises(SingularMatrix):
        ProjMatrix.from_entries(Q, [[1, 1], [1, 1]]).inverse()


def test_projective_order_examples():
    F5 = cyclo_field(5)
    g = ProjMatrix.diagonal(F5, [F5.zeta(3), F5.zeta(2), 1])
    assert projective_order(g) == 5

    # block diag(z55^45, z55) + swap of the last two coordinates, order 110
    F55 = cyclo_field(55)
    A = ProjMatrix.from_entries(F55, [
        [F55.zeta(45), 0, 0, 0],
        [0, F55.zeta(1), 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ])
    assert projective_order(A) == 110

    assert projective_order(ProjMatrix.identity(Q, 3)) == 1


def test_projective_order_matches_iteration():
    rng = random.Random(4)
    F12 = cyclo_field(12)
    for _ in range(10):
        exps = [rng.randrange(12) for _ in range(3)]
        A = ProjMatrix.diagonal(F12, [F12.zeta(e) for e in exps])
        fast = projective_order(A)
        power = A
        k = 1
        while not power.is_scalar():
            power = power @ A
            k += 1
        assert fast == k


def test_projective_order_bound():
    F8 = cyclo_field(8)
    A = ProjMatrix.diagonal(F8, [F8.zeta(), 1])
    with pytest.raises(OrderBoundExceeded):
        projective_order(A, k_max=3)


def test_order_conjugation_invariant():
    rng = random.Random(6)
    F5 = cyclo_field(5)
    A = ProjMatrix.diagonal(F5, [F5.zeta(), F5.zeta(2), 1])
    for _ in range(5):
        M = rand_invertible(rng, F5, 3)
        assert projective_order(M @ A @ M.inverse()) == projective_order(A)


def test_eigen_structure_diagonal():
    F3 = cyclo_field(3)
    D = ProjMatrix.diagonal(F3, [F3.zeta(), F3.zeta(2), 1, 1])
    es = eigen_structure(D)
    mults = sorted(p.multiplicity for p in es.pairs)
    assert mults == [1, 1, 2]
    assert sum(p.multiplicity for p in es.pairs) == 4
    for p in es.pairs:
        for v in p.basis:
            assert D.apply(v) == tuple(x * p.value for x in v)


def test_eigen_structure_swap():
    swap = ProjMatrix.from_entries(Q, [[0, 1], [1, 0]])
    es = eigen_structure(swap)
    vals = {recognize_root_of_unity(p.value) for p in es.pairs}
    assert vals == {(1, 0), (2, 1)}
    B = swap.embed(es.field)
    for p in es.pairs:
        for v in p.basis:
            assert B.apply(v) == tuple(x * p.value for x in v)


def test_eigen_structure_two_cycle_with_root():
    # two-cycle with entry product zeta_3: eigenvalues are the square roots
    F3 = cyclo_field(3)
    A = ProjMatrix.from_entries(F3, [[0, F3.zeta()], [1, 0]])
    es = eigen_structure(A)
    assert es.field.N == 6
    B = A.embed(es.field)
    seen = set()
    for p in es.pairs:
        assert (p.value * p.value) == es.field.zeta(2)  # mu^2 = zeta_3 = zeta_6^2
        seen.add(recognize_root_of_unity(p.value))
        for v in p.basis:
            assert B.apply(v) == tuple(x * p.value for x in v)
    assert len(seen) == 2


def test_eigen_structure_witnessed():
    rng = random.Random(8)
    F4 = cyclo_field(4)
    D = ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1])
    W = rand_invertible(rng, F4, 3)
    A = W @ D @ W.inverse()
    es = eigen_structure(A, witness=W)
    for p in es.pairs:
        for v in p.basis:
            assert A.apply(v) == tuple(x * p.value for x in v)
    with pytest.raises(UnsupportedShape):
        eigen_structure(A)


def test_homology_form_examples():
    F4 = cyclo_field(4)
    A = ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1])
    h = homology_form(A, d=4, n=1)
    assert h is not None and h.kind == "outer"
    assert vec_proj_eq(h.center, (F4.one, F4.zero, F4.zero))
    assert h.a == F4.zeta() and h.b == 1

    F5 = cyclo_field(5)
    g = ProjMatrix.diagonal(F5, [F5.zeta(3), F5.zeta(2), 1])
    assert homology_form(g, d=6, n=1) is None


def test_homology_form_conjugation_invariance():
    rng = random.Random(12)
    for d in range(4, 9):
        for n in (1, 2, 3):
            base = cyclo_field(math.lcm(d - 1, d))
            for kind, order in (("inner", d - 1), ("outer", d)):
                from galois_scope.exactnum import root_of_unity

                rho = root_of_unity(base, order, 1)
                A = ProjMatrix.diagonal(base, [rho] + [1] * (n + 1))
                h = homology_form(A, d, n)
                assert h is not None and h.kind == kind
                M = rand_invertible(rng, base, n + 2, -2, 2)
                B = M @ A @ M.inverse()
                h2 = homology_form(B, d, n)
                assert h2 is not None and h2.kind == kind
                expected = M.apply((base.one,) + (base.zero,) * (n + 1))
                expected = tuple(x if x.field.N == h2.field.N else x for x in expected)
                from galois_scope.projlin import vector

                assert vec_proj_eq(h2.center, vector(h2.field, expected))


def test_homology_form_rejects_three_eigenvalues():
    rng = random.Random(14)
    F60 = cyclo_field(60)
    for _ in range(10):
        exps = rng.sample(range(1, 60), 3)
        A = ProjMatrix.diagonal(F60, [F60.zeta(exps[0]), F60.zeta(exps[1]), F60.zeta(exps[2]), 1])
        distinct = len({recognize_root_of_unity(A.rows[i][i]) for i in range(4)})
        if distinct >= 3:
            for d in (4, 5, 6):
                assert homology_form(A, d, 2) is None


def test_homology_fast_path_matches_general():
    from galois_scope.projlin import _rank_trick_homology, vector

    F4 = cyclo_field(4)
    A = ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1])
    got = _rank_trick_homology(A, 4, 1)
    fast = homology_form(A, 4, 1)
    assert got is not None and fast is not None
    assert got.kind == fast.kind
    assert recognize_root_of_unity(got.a / got.b) == recognize_root_of_unity(fast.a / fast.b)
    assert vec_proj_eq(got.center, vector(got.field, fast.center))


def test_scalar_matrix_never_detected():
    F4 = cyclo_field(4)
    for c in (F4.one, F4.zeta()):
        A = ProjMatrix.diagonal(F4, [c, c, c])
        assert homology_form(A, 4, 1) is None


def test_vector_lifts_subfield_entries():
    F4, F12 = cyclo_field(4), cyclo_field(12)
    v = (F4.zeta(), F4.one + F4.zeta(), F4.zero, 2)
    got = vector(F12, v)
    assert got == tuple(embed_lift(x, F12) for x in v[:3]) + (F12.from_rational(2),)
    assert all(x.field is F12 for x in got)
    same = vector(F4, v)
    assert all(a is b for a, b in zip(same, v[:3]))


def test_vector_rejects_a_field_that_does_not_embed():
    F5 = cyclo_field(5)
    with pytest.raises(ConductorMismatch):
        vector(cyclo_field(12), (F5.zeta(), F5.one))


def test_vec_proj_eq_across_conductors():
    F3, F4, F12 = cyclo_field(3), cyclo_field(4), cyclo_field(12)
    u = (F3.one, F3.zeta())  # (1, w) with w = zeta_3
    # i*(1, w), written over Q(zeta_12) as (zeta_12^3, zeta_12^7)
    assert vec_proj_eq(u, (F12.zeta(3), F12.zeta(7)))
    assert not vec_proj_eq(u, (F4.zeta(), F4.zeta()))
