import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import divisors, primefactors

from galois_scope import exactnum, projlin
from galois_scope.corpus import (
    bundled_corpus_dir,
    load_instance,
    normal_form_instance,
    random_unimodular,
)
from galois_scope.errors import (
    ConductorMismatch,
    OrderBoundExceeded,
    SingularMatrix,
    UnsupportedShape,
)
from galois_scope.exactnum import (
    common_field,
    cyclo_field,
    embed_lift,
    recognize_root_of_unity,
    root_of_unity,
)
from galois_scope.projlin import (
    ProjMatrix,
    _rank_one,
    eigen_structure,
    homology_eigenbasis,
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
    # a diagonal matrix, and a triangular one with distinct eigenvalues 1 and 2
    for A in (ProjMatrix.diagonal(F8, [F8.zeta(), 1]), ProjMatrix.from_entries(Q, [[1, 1], [0, 2]])):
        with pytest.raises(OrderBoundExceeded):
            projective_order(A, k_max=3)


def test_projective_order_infinite_raises_at_once():
    # diag(1 + z(7), 1, 1), a swap whose square is diag(2, 2, 1), a unipotent
    # matrix (minimal polynomial (x-1)^2) over Q and conjugated over Q(z7),
    # and two matrices with a squarefree minimal polynomial of degree 3 and
    # eigenvalue ratios that are no roots of unity, over Q and over Q(z7):
    # the degree bound on the order (72 and 2592) ends their loops
    F7 = cyclo_field(7)
    unipotent = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    M = ProjMatrix.from_entries(F7, [[1, F7.zeta(), 0], [0, 1, F7.zeta(3)], [1, 0, 1]])
    for A in (ProjMatrix.diagonal(F7, [1 + F7.zeta(), 1, 1]),
              ProjMatrix.from_entries(Q, [[0, 2, 0], [1, 0, 0], [0, 0, 1]]),
              ProjMatrix.from_entries(Q, unipotent),
              M @ ProjMatrix.from_entries(F7, unipotent) @ M.inverse(),
              ProjMatrix.from_entries(Q, [[2, 1, 0], [1, 1, 0], [0, 0, 1]]),
              ProjMatrix.from_entries(F7, [[2, F7.zeta(), 0], [1, 1, 0], [0, 0, 1]])):
        start = time.perf_counter()
        with pytest.raises(OrderBoundExceeded, match="infinite projective order"):
            projective_order(A)
        # no power is taken beyond A^size
        assert time.perf_counter() - start < 0.5


def test_projective_order_dense_2x2():
    # no third index to read b from, so the minimal polynomial decides
    F5 = cyclo_field(5)
    M = ProjMatrix.from_entries(F5, [[1, F5.zeta()], [2, 1]])
    A = M @ ProjMatrix.diagonal(F5, [F5.zeta(), 1]) @ M.inverse()
    assert all(x for r in A.rows for x in r)
    power, k = A, 1
    while not power.is_scalar():
        power, k = power @ A, k + 1
    assert projective_order(A) == k == 5


def test_rank_one_order_raises(monkeypatch):
    # conjugates of diag(2, 1, 1), of a transvection, and of diag(z5, 1, 1)
    # under a bound of 4, each read as a rank-one perturbation of bI
    monkeypatch.setattr(projlin, "_minimal_polynomial", lambda A: pytest.fail("minimal polynomial"))
    F5 = cyclo_field(5)
    M = ProjMatrix.from_entries(F5, [[1, F5.zeta(), 0], [0, 1, 2], [1, 0, 1]])
    for rows, k_max, match in (
            ([[2, 0, 0], [0, 1, 0], [0, 0, 1]], 10000, "infinite projective order"),
            ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], 10000, "infinite projective order"),
            ([[F5.zeta(), 0, 0], [0, 1, 0], [0, 0, 1]], 4, "projective order 5 exceeds bound 4")):
        A = M @ ProjMatrix.from_entries(F5, rows) @ M.inverse()
        assert A.monomial_permutation() is None
        with pytest.raises(OrderBoundExceeded, match=match):
            projective_order(A, k_max=k_max)


def test_rank_one_reads_b_without_a_dense_inverse(monkeypatch):
    # the first nonzero off-diagonal entry A_01 is dense, and A_02*A_21 = 0,
    # so b = A_22 needs no division by A_01
    F5 = cyclo_field(5)
    z = F5.zeta()
    M = ProjMatrix.from_entries(F5, [[1, 1 + z, 0, 0], [0, 1, 0, 0], [z, 0, 1, 0], [0, 0, 0, 1]])
    A = M @ ProjMatrix.diagonal(F5, [z, 1, 1, 1]) @ M.inverse()
    assert A.rows[0][1].tag is None and not A.rows[0][2] * A.rows[2][1]
    calls = []
    inverse = exactnum._modular_inverse
    monkeypatch.setattr(exactnum, "_modular_inverse",
                        lambda num, field: calls.append(num) or inverse(num, field))
    assert projective_order(A) == 5
    assert calls == []


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


def assert_eigenpairs(A, es):
    """Every basis vector v of a pair satisfies A v = value * v, over es.field,
    and the multiplicities sum to the size."""
    B = A.embed(es.field)
    for p in es.pairs:
        for v in p.basis:
            assert B.apply(v) == tuple(x * p.value for x in v)
    assert sum(p.multiplicity for p in es.pairs) == A.size


def test_eigen_structure_conjugated_homology():
    # a conjugate of diag(z4, 1, 1) is read by its rank-one part: the a pair
    # first, on the transported e0, then the b plane
    rng = random.Random(8)
    F4 = cyclo_field(4)
    D = ProjMatrix.diagonal(F4, [F4.zeta(), 1, 1])
    W = rand_invertible(rng, F4, 3)
    A = W @ D @ W.inverse()
    assert A.monomial_permutation() is None
    es = eigen_structure(A)
    assert es.field is F4
    assert [(p.value, p.multiplicity) for p in es.pairs] == [(F4.zeta(), 1), (F4.one, 2)]
    assert vec_proj_eq(es.pairs[0].basis[0], W.apply((1, 0, 0)))
    assert_eigenpairs(A, es)


def test_eigen_structure_unsupported():
    # a transvection (a == b, not diagonalizable), a conjugate of
    # diag(z5, z5^2, 1) (three eigenvalues, so no A - bI has rank one) and a
    # dense 2x2 matrix (no third index for the rank-one reading)
    F5 = cyclo_field(5)
    M = ProjMatrix.from_entries(F5, [[1, 1, 0], [0, 1, 2], [1, 0, 1]])
    for A in (ProjMatrix.from_entries(Q, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
              M @ ProjMatrix.diagonal(F5, [F5.zeta(), F5.zeta(2), 1]) @ M.inverse(),
              ProjMatrix.from_entries(Q, [[1, 2], [3, 1]])):
        assert A.monomial_permutation() is None
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
                rho = root_of_unity(base, order, 1)
                A = ProjMatrix.diagonal(base, [rho] + [1] * (n + 1))
                h = homology_form(A, d, n)
                assert h is not None and h.kind == kind
                M = rand_invertible(rng, base, n + 2, -2, 2)
                B = M @ A @ M.inverse()
                h2 = homology_form(B, d, n)
                assert h2 is not None and h2.kind == kind and h2.ratio == rho
                assert vec_proj_eq(h2.center, M.apply((base.one,) + (base.zero,) * (n + 1)))


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


@pytest.mark.parametrize("rows", [[[2, 0], [0, 1]], [[2, 1], [1, 1]]])
def test_size_two_has_no_rank_one_reading(rows):
    # no third index to read b from: None, for a diagonal and a dense 2x2
    A = ProjMatrix.from_entries(Q, rows)
    assert _rank_one(A) is None
    assert homology_form(A, 4, 0) is None


def test_diagonal_read_with_no_dense_arithmetic(monkeypatch):
    # over Q(zeta_495) A - bI of a diagonal is dense, so a product or an
    # inverse there would be dense; the diagonal is read off its pattern
    inst = load_instance(bundled_corpus_dir() / "exa3.json")
    h = inst.automorphisms["h"]
    K = h.field
    D = ProjMatrix.diagonal(K, [K.zeta(45), 1, 1, 1])
    for name in ("poly_mul", "_modular_inverse"):
        monkeypatch.setattr(exactnum, name, lambda *args, name=name: pytest.fail(name))
    assert len({h.rows[k][k] for k in range(4)}) > 2
    assert _rank_one(h) is None
    assert homology_form(h, inst.d, inst.n) is None
    e0 = (K.one, K.zero, K.zero, K.zero)
    assert _rank_one(D) == (K.zeta(45), K.one, e0, e0)
    got = homology_form(D, 11, 2)
    assert got.kind == "outer" and got.center == e0
    assert got.a == got.ratio == K.zeta(45) and got.b == K.one


def lifted_rank_trick(A, d, n):
    """Reference homology test in Q(zeta_lcm(N, d-1, d)), where every
    candidate ratio exists: (kind, a/b, center) or None.  For each primitive
    (d-1)-th or d-th root rho the trace pins b by trace = b*(rho + n + 1),
    and A is a homology iff (A - aI)(A - bI) = 0 and rank(A - bI) <= 1."""
    field = common_field(A.field.N, d - 1, d)
    B = A.embed(field)
    trace = sum((B.rows[i][i] for i in range(B.size)), field.zero)
    for kind, m in (("inner", d - 1), ("outer", d)):
        for j in range(1, m):
            if math.gcd(j, m) != 1:
                continue
            rho = root_of_unity(field, m, j)
            b = trace / (rho + (n + 1))
            if b.is_zero():
                continue
            a = rho * b
            shift_b, shift_a = (ProjMatrix(field, tuple(
                tuple(B.rows[i][k] - (c if i == k else field.zero) for k in range(B.size))
                for i in range(B.size))) for c in (b, a))
            if any(not x.is_zero() for r in (shift_a @ shift_b).rows for x in r):
                continue
            if shift_b.rank() > 1:
                continue
            col = next((shift_b.column(k) for k in range(B.size)
                        if any(not x.is_zero() for x in shift_b.column(k))), None)
            if col is not None:
                return kind, rho, col
    return None


@st.composite
def homology_cases(draw):
    """(A, d, n) over Q(zeta_N), N in 1, 3, 4, 5, 6, 7, 8, 12 and d in 4..8:
    a conjugate of c*diag(rho, 1, .., 1), perhaps with one entry perturbed,
    a diagonal with three entries drawn, or a non-diagonal monomial matrix.
    rho is often of order d-1 or d when K holds such a root."""
    N = draw(st.sampled_from([1, 3, 4, 5, 6, 7, 8, 12]))
    d = draw(st.integers(4, 8))
    n = draw(st.integers(1, 2))
    K, size = cyclo_field(N), n + 2
    roots = math.lcm(2, N)  # the order of the roots of unity in K

    def root(orders=()):
        m = draw(st.sampled_from([m for m in orders if roots % m == 0] + divisors(roots)))
        return root_of_unity(K, m, draw(st.sampled_from(
            [j for j in range(m) if math.gcd(j, m) == 1])))

    c = draw(st.sampled_from([K.one, K.from_rational(-2)])) * root()
    shape = draw(st.sampled_from(["conjugate", "perturbed", "three", "monomial"]))
    if shape == "three":
        A = ProjMatrix.diagonal(K, [c * root(), c * root(), c * root()] + [c] * (size - 3))
    elif shape == "monomial":
        perm = draw(st.permutations(range(size)).filter(lambda s: s != list(range(size))))
        A = ProjMatrix.from_entries(K, [[c * root() if j == perm[i] else 0 for j in range(size)]
                                        for i in range(size)])
    else:
        M = random_unimodular(random.Random(draw(st.integers(0, 2**16))), K, size)
        A = M @ ProjMatrix.diagonal(K, [c * root((d - 1, d))] + [c] * (size - 1)) @ M.inverse()
        if shape == "perturbed":
            i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
            A = ProjMatrix(K, tuple(tuple(x + 1 if (r, k) == (i, j) else x
                                          for k, x in enumerate(row))
                                    for r, row in enumerate(A.rows)))
    return A, d, n


@settings(max_examples=150)
@given(homology_cases())
def test_homology_form_matches_lifted_rank_trick(case):
    A, d, n = case
    want = lifted_rank_trick(A, d, n)
    h = homology_form(A, d, n)
    assert (h is None) == (want is None)
    if h is not None:
        kind, rho, center = want
        assert h.kind == kind
        assert h.ratio.field is A.field and embed_lift(h.ratio, rho.field) == rho
        assert all(x.field is A.field for x in h.center)
        assert vec_proj_eq(h.center, center)


@settings(max_examples=150)
@given(homology_cases())
def test_eigen_structure_on_homology_cases(case):
    # either no supported shape, or true eigenpairs spanning the space; a
    # homology's center is the basis of its own a pair
    A, d, n = case
    try:
        es = eigen_structure(A)
    except UnsupportedShape:
        assert homology_form(A, d, n) is None
        return
    assert_eigenpairs(A, es)
    h = homology_form(A, d, n)
    if h is not None:
        assert any(p.value == h.a and p.multiplicity == 1 and vec_proj_eq(p.basis[0], h.center)
                   for p in es.pairs)


@settings(max_examples=150)
@given(homology_cases())
def test_homology_eigenbasis_diagonalizes(case):
    # A C = C diag(a, b, .., b) with C invertible, or a shape with no such reading
    A, _, _ = case
    eigen = homology_eigenbasis(A)
    if eigen is None:
        read = _rank_one(A)
        assert A.monomial_permutation() is not None or read is None or read[0] == read[1]
        return
    a, b, basis = eigen
    C = ProjMatrix(A.field, tuple(zip(*basis)))
    assert A @ C == C @ ProjMatrix.diagonal(A.field, [a] + [b] * (A.size - 1))
    assert C.rank() == A.size


def assert_order_by_powers(A, o):
    """o is the least k with A^k scalar: A^o is, and no A^(o/q), q a prime factor of o, is."""
    assert (A ** o).is_scalar()
    assert not any((A ** (o // q)).is_scalar() for q in primefactors(o))


@given(homology_cases())
def test_projective_order_matches_powers(case):
    A, _, _ = case
    # the finite orders the shapes give divide this bound (a cycle of length
    # at most 4 times a root of unity of K); on a raise no power up to the
    # bound, the bound itself included, may be scalar
    bound = 12 * math.lcm(2, A.field.N)
    try:
        o = projective_order(A, k_max=bound)
    except OrderBoundExceeded:
        assert not (A ** bound).is_scalar()
        return
    assert_order_by_powers(A, o)


@pytest.mark.parametrize("n, d, kind", [
    (1, 4, "inner"), (1, 5, "outer"), (2, 6, "inner"), (2, 4, "outer"), (3, 5, "inner")])
def test_projective_order_of_normal_form_generators(n, d, kind):
    _, B, _, _ = normal_form_instance(random.Random(f"order:{n}:{d}:{kind}"), n, d, kind)
    o = projective_order(B)
    assert o == (d - 1 if kind == "inner" else d)
    assert_order_by_powers(B, o)


def test_scalar_matrix_never_detected():
    F4 = cyclo_field(4)
    for c in (F4.one, F4.zeta()):
        A = ProjMatrix.diagonal(F4, [c, c, c])
        assert homology_form(A, 4, 1) is None


@pytest.mark.parametrize("rows, degrees", [
    ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], (4,)),  # a transvection: ratio 1
    ([[1, 2, 0], [0, -1, 0], [0, 0, 1]], (4, 5, 6, 7)),  # a reflection: ratio -1
    ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], (4,)),  # rank one with b = 0
])
def test_rank_one_matrices_that_are_not_homologies(rows, degrees):
    A = ProjMatrix.from_entries(Q, rows)
    for d in degrees:
        assert homology_form(A, d, 1) is None


def test_homology_read_through_a_dense_off_diagonal_entry():
    F5 = cyclo_field(5)
    z = F5.zeta()
    D = ProjMatrix.diagonal(F5, [z, 1, 1, 1])
    M = ProjMatrix.from_entries(F5, [[1, 1 + z, 0, 0], [0, 1, 0, 0], [z, 0, 1, 0], [0, 0, 0, 1]])
    A = M @ D @ M.inverse()
    first = next(x for i, r in enumerate(A.rows) for j, x in enumerate(r) if i != j and x)
    assert first.tag is None
    for d, kind in ((5, "outer"), (6, "inner")):
        want, h = homology_form(D, d, 2), homology_form(A, d, 2)
        assert want.kind == h.kind == kind
        assert h.ratio == want.ratio == z
        assert vec_proj_eq(h.center, M.apply(want.center))


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


def leibniz_det(M):
    """sum over permutations of sign * prod M[i][perm(i)]: no division, no pivots."""
    n = M.size
    total = M.field.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = M.field.from_rational((-1) ** inversions)
        for i in range(n):
            term = term * M.rows[i][perm[i]]
        total = total + term
    return total


def sympy_rank(M):
    """Rank over QQ(zeta_N) by sympy's DomainMatrix, from power-basis coordinates."""
    import sympy
    from sympy.polys.matrices import DomainMatrix

    z = sympy.exp(2 * sympy.pi * sympy.I / M.field.N)
    K = sympy.QQ.algebraic_field(z)
    gen = K.from_sympy(z)

    def element(x):
        acc = K.zero
        for c in reversed(x.coeffs):
            acc = acc * gen + K.from_sympy(sympy.Rational(c.numerator, c.denominator))
        return acc

    rows = [[element(x) for x in r] for r in M.rows]
    return DomainMatrix(rows, (M.size, M.size), K).rank()


def reference_matrices():
    """Rational and dense Q(zeta_7), Q(zeta_12) matrices of sizes 2..4 and every
    rank: full, rows that are combinations of others, a zero first column,
    and zero leading entries that force row swaps."""
    rng = random.Random(9)
    out = []
    for N in (1, 7, 12):
        F = cyclo_field(N)

        def dense():
            return F.element([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                              for _ in range(F.degree)])

        for n in (2, 3, 4):
            for rank in range(n + 1):
                base = [[dense() for _ in range(n)] for _ in range(rank)]
                rows = list(base)
                while len(rows) < n:
                    coeffs = [dense() for _ in base]
                    rows.append([sum((c * b[j] for c, b in zip(coeffs, base)), F.zero)
                                 for j in range(n)])
                rng.shuffle(rows)
                out.append(ProjMatrix.from_entries(F, rows))
            out.append(ProjMatrix.from_entries(F, [
                [F.zero] + [dense() for _ in range(n - 1)] for _ in range(n)]))
            # zero above the anti-diagonal: the first pivot lies in the last row
            out.append(ProjMatrix.from_entries(F, [
                [F.zero if i + j < n - 1 else dense() for j in range(n)] for i in range(n)]))
    return out


def test_det_matches_leibniz_expansion():
    mats = reference_matrices()
    assert any(leibniz_det(M).is_zero() for M in mats)
    for M in mats:
        assert M.det() == leibniz_det(M)


def test_rank_matches_sympy():
    for M in reference_matrices():
        assert M.rank() == sympy_rank(M)
