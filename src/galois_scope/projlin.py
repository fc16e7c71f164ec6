"""Exact linear algebra for projective representation matrices.

Matrices act on column vectors; two matrices represent the same projective
transformation when one is a nonzero scalar multiple of the other.  Orders,
eigenstructure and the homology detector below all work projectively.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    FieldMismatch,
    OrderBoundExceeded,
    SingularMatrix,
    UnsupportedShape,
)
from .exactnum import (
    CycloField,
    CycloNum,
    common_field,
    in_field,
    poly_gcd,
    poly_trim,
    quotients,
    recognize_root_of_unity,
    root_of_unity,
)

Vector = tuple[CycloNum, ...]


def vector(field: CycloField, entries) -> Vector:
    """The entries in `field`, each through `exactnum.in_field`."""
    return tuple(in_field(field, e) for e in entries)


def vec_proj_eq(u, v) -> bool:
    """Projective equality of coordinate vectors, compared in their common field."""
    if len(u) != len(v):
        return False
    field = common_field(*(x.field.N for x in (*u, *v) if isinstance(x, CycloNum)))
    u, v = vector(field, u), vector(field, v)
    pivot = next((i for i, x in enumerate(u) if not x.is_zero()), None)
    pivot_v = next((i for i, x in enumerate(v) if not x.is_zero()), None)
    if pivot is None or pivot_v is None:
        return pivot == pivot_v
    if pivot != pivot_v:
        return False
    ratio = v[pivot] / u[pivot]
    return all((x * ratio) == y for x, y in zip(u, v))


def vec_normalize(v: Vector) -> Vector:
    """Scale so the first nonzero coordinate is 1."""
    for x in v:
        if not x.is_zero():
            inv = x.inverse()
            return tuple(y * inv for y in v)
    raise ValueError("zero vector has no projective normalization")


class ProjMatrix:
    """Invertible square matrix over a cyclotomic field, read projectively."""

    __slots__ = ("field", "size", "rows")

    def __init__(self, field: CycloField, rows: tuple[Vector, ...]):
        self.field = field
        self.rows = rows
        self.size = len(rows)

    @classmethod
    def from_entries(cls, field, entries) -> "ProjMatrix":
        rows = tuple(vector(field, r) for r in entries)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        return cls(field, rows)

    @classmethod
    def identity(cls, field, n) -> "ProjMatrix":
        return cls.from_entries(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, field, entries) -> "ProjMatrix":
        es = vector(field, entries)
        n = len(es)
        return cls(field, tuple(
            tuple(es[i] if i == j else field.zero for j in range(n)) for i in range(n)))

    def __repr__(self):
        return f"ProjMatrix({self.size}x{self.size} over {self.field!r})"

    def entry(self, i, j) -> CycloNum:
        return self.rows[i][j]

    def column(self, j) -> Vector:
        return tuple(r[j] for r in self.rows)

    def __eq__(self, other):
        if not isinstance(other, ProjMatrix):
            return NotImplemented
        return self.field.N == other.field.N and self.rows == other.rows

    def __hash__(self):
        return hash((self.field.N, self.rows))

    # -- arithmetic -----------------------------------------------------

    def _check(self, other):
        if self.field.N != other.field.N:
            raise FieldMismatch("matrices over different fields")
        if self.size != other.size:
            raise ValueError("size mismatch")

    def __matmul__(self, other: "ProjMatrix") -> "ProjMatrix":
        self._check(other)
        n = self.size
        cols = [other.column(j) for j in range(n)]
        rows = []
        for i in range(n):
            ri = self.rows[i]
            row = []
            for j in range(n):
                acc = self.field.zero
                for k in range(n):
                    a = ri[k]
                    b = cols[j][k]
                    if not a.is_zero() and not b.is_zero():
                        acc = acc + a * b
                row.append(acc)
            rows.append(tuple(row))
        return ProjMatrix(self.field, tuple(rows))

    def apply(self, v: Vector) -> Vector:
        v = vector(self.field, v)
        return tuple(
            sum((r[k] * v[k] for k in range(self.size) if not r[k].is_zero() and not v[k].is_zero()),
                self.field.zero)
            for r in self.rows)

    def scale(self, c) -> "ProjMatrix":
        c = in_field(self.field, c)
        return ProjMatrix(self.field, tuple(tuple(x * c for x in r) for r in self.rows))

    def __pow__(self, e: int) -> "ProjMatrix":
        if e < 0:
            return self.inverse() ** (-e)
        result = ProjMatrix.identity(self.field, self.size)
        base = self
        while e:
            if e & 1:
                result = result @ base
            e >>= 1
            if e:
                base = base @ base
        return result

    def det(self) -> CycloNum:
        return _gauss_jordan(self.field, [list(r) for r in self.rows], self.size)[1]

    def rank(self) -> int:
        return len(_gauss_jordan(self.field, [list(r) for r in self.rows], self.size)[0])

    def inverse(self) -> "ProjMatrix":
        n, one, zero = self.size, self.field.one, self.field.zero
        m = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(self.rows)]
        if len(_gauss_jordan(self.field, m, n)[0]) < n:
            raise SingularMatrix("matrix is singular")
        return ProjMatrix(self.field, tuple(tuple(row[n:]) for row in m))

    # -- shape queries ----------------------------------------------------

    def is_diagonal(self) -> bool:
        return all(self.rows[i][j].is_zero()
                   for i in range(self.size) for j in range(self.size) if i != j)

    def monomial_permutation(self):
        """For a monomial matrix, the map sigma with A e_j = a_(sigma(j), j) e_sigma(j)."""
        sigma = []
        for j in range(self.size):
            col = self.column(j)
            nz = [i for i, x in enumerate(col) if not x.is_zero()]
            if len(nz) != 1:
                return None
            sigma.append(nz[0])
        if sorted(sigma) != list(range(self.size)):
            return None
        return tuple(sigma)

    def is_scalar(self) -> bool:
        if not self.is_diagonal():
            return False
        d0 = self.rows[0][0]
        return all(self.rows[i][i] == d0 for i in range(self.size))

    def canonical(self) -> "ProjMatrix":
        """Scale so the first nonzero entry in row-major order is 1."""
        for r in self.rows:
            for x in r:
                if not x.is_zero():
                    return self.scale(x.inverse())
        raise ValueError("zero matrix")

    def proj_eq(self, other: "ProjMatrix") -> bool:
        self._check(other)
        return self.canonical().rows == other.canonical().rows

    def embed(self, target: CycloField) -> "ProjMatrix":
        if target.N == self.field.N:
            return self
        return ProjMatrix(target, tuple(vector(target, r) for r in self.rows))


def _gauss_jordan(field: CycloField, m: list[list[CycloNum]], ncols: int):
    """Reduce the rows of m in place, over its first ncols columns, to reduced
    row echelon form.  Returns (pivot columns, determinant of those columns),
    the determinant being zero unless every row holds a pivot."""
    pivots = []
    det = field.one
    for col in range(ncols):
        row = len(pivots)
        piv = next((r for r in range(row, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
            det = -det
        det = det * m[row][col]
        # left of col the pivot row is zero, so only columns col.. change
        inv = m[row][col].inverse()
        top = m[row][col:] = [x * inv for x in m[row][col:]]
        for r, other in enumerate(m):
            f = other[col]
            if r != row and f:
                other[col:] = [x - f * y for x, y in zip(other[col:], top)]
        pivots.append(col)
    return pivots, det if len(pivots) == len(m) else field.zero


# ---------------------------------------------------------------------------
# projective order

def projective_order(A: ProjMatrix, k_max: int = 10000) -> int:
    """Least k >= 1 with A^k scalar; OrderBoundExceeded if none up to k_max.

    A monomial matrix (diagonal ones included) with permutation sigma has
    order L * ord(A^L), L the order of sigma and A^L diagonal; when a ratio of
    the diagonal of A^L is not a root of unity no power of A is scalar.
    Any other matrix that `_rank_one` reads as A = bI + M has the order
    `homology_order` reads off a and b.  Otherwise K[A] is
    K[x]/mu_A for the minimal polynomial mu_A, so A^k is
    scalar exactly when x^k mod mu_A is a constant.  A power A^k = c*I makes
    mu_A divide x^k - c, which is squarefree, so a repeated factor in mu_A
    means that no power is scalar.  It also makes A diagonalizable, and the
    ratios of its eigenvalues then generate a cyclic group of order k in the
    splitting field L of mu_A, of degree [L:Q] <= phi(N) m! = D for
    K = Q(zeta_N) and m = deg mu_A.  So phi(k) <= D, and phi(k) >= sqrt(k/2)
    gives k <= 2 D^2: a loop that passes that bound proves the order infinite.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    sigma = A.monomial_permutation()
    if sigma is not None:
        L = math.lcm(*(len(c) for c in _cycles(sigma)))
        D = A if L == 1 else A ** L
        sub = 1
        for i in range(1, D.size):
            rec = recognize_root_of_unity(D.rows[i][i] / D.rows[0][0])
            if rec is None:
                raise OrderBoundExceeded(
                    f"infinite projective order: a diagonal ratio of A^{L} is not a root of unity")
            sub = math.lcm(sub, rec[0])
        return _bounded(L * sub, k_max)
    if (read := _rank_one(A)) is not None:
        return homology_order(read[0], read[1], k_max)
    mu = _minimal_polynomial(A)
    if len(poly_gcd(mu, poly_trim([mu[k] * k for k in range(1, len(mu))]))) > 1:
        raise OrderBoundExceeded(
            "infinite projective order: the minimal polynomial is not squarefree")
    zero = A.field.zero
    r = [A.field.one] + [zero] * (len(mu) - 2)  # x^0 mod mu
    limit = min(k_max, 2 * (A.field.degree * math.factorial(len(mu) - 1)) ** 2)
    for k in range(1, limit + 1):
        top = r[-1]
        r = [zero] + r[:-1]
        if top:
            r = [x - top * c for x, c in zip(r, mu)]
        if not any(r[1:]):
            return k
    if limit < k_max:
        raise OrderBoundExceeded(f"infinite projective order: no scalar power up to {limit}")
    raise OrderBoundExceeded(f"no scalar power within bound {k_max}")


def homology_order(a: CycloNum, b: CycloNum, k_max: int = 10000) -> int:
    """The projective order of a matrix that `_rank_one` reads as A = bI + M,
    M of rank one and a = b + trace(M): ord(a/b), OrderBoundExceeded when it
    is infinite or above k_max.

    For a != b, (A - aI)(A - bI) = 0, so A is diagonalizable with eigenvalues
    a (once) and b (size-1 times), and A^k is scalar exactly when
    (a/b)^k = 1; for a == b, M != 0 and M^2 = trace(M) M = 0, so
    A^k = b^k I + k b^(k-1) M is never scalar.
    """
    if a == b:
        raise OrderBoundExceeded(
            "infinite projective order: A is a scalar plus a nonzero nilpotent")
    rec = recognize_root_of_unity(a / b)
    if rec is None:
        raise OrderBoundExceeded(
            "infinite projective order: the eigenvalue ratio a/b is not a root of unity")
    return _bounded(rec[0], k_max)


def _bounded(order: int, k_max: int) -> int:
    if order > k_max:
        raise OrderBoundExceeded(f"projective order {order} exceeds bound {k_max}")
    return order


def _minimal_polynomial(A: ProjMatrix) -> list[CycloNum]:
    """The monic minimal polynomial of A, ascending: the first power A^k that
    is a combination of I, A, ..., A^(k-1); k <= size by Cayley-Hamilton."""
    n = A.size
    powers = [ProjMatrix.identity(A.field, n), A]
    while True:
        k = len(powers) - 1
        m = [[P.rows[i][j] for P in powers] for i in range(n) for j in range(n)]
        if len(_gauss_jordan(A.field, m, k + 1)[0]) == k:
            return [-m[r][k] for r in range(k)] + [A.field.one]
        powers.append(powers[-1] @ A)


def _cycles(sigma) -> list[list[int]]:
    """The cycles of a permutation, each from its least index, by that index."""
    seen = [False] * len(sigma)
    cycles = []
    for i in range(len(sigma)):
        if not seen[i]:
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = sigma[j]
            cycles.append(cyc)
    return cycles


# ---------------------------------------------------------------------------
# eigenstructure for diagonal / monomial / rank-one homology matrices

@dataclass(frozen=True)
class EigenPair:
    value: CycloNum
    basis: tuple[Vector, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class EigenStructure:
    field: CycloField
    pairs: tuple[EigenPair, ...]


def eigen_structure(A: ProjMatrix) -> EigenStructure:
    """Exact eigendecomposition of a diagonal, monomial or rank-one homology matrix.

    A diagonal matrix is read off its diagonal.  A monomial matrix whose
    cycle products are roots of unity has the cycle roots as eigenvalues,
    the field enlarged as needed.  Any other matrix that `_rank_one` reads
    as A = bI + M, M of rank one and a = b + trace(M) != b, has the pair
    (a, C e_0) first, then the pair (b, ker M), from the eigenbasis C of
    `homology_eigenbasis`.  Anything else, a transvection (a == b)
    included, is UnsupportedShape.
    """
    field, size = A.field, A.size
    if A.is_diagonal():
        return EigenStructure(field, _group_by_value(
            (A.rows[i][i], tuple(field.one if j == i else field.zero for j in range(size)))
            for i in range(size)))
    sigma = A.monomial_permutation()
    if sigma is not None:
        return _monomial_eigen(A, sigma)
    eigen = homology_eigenbasis(A)
    if eigen is None:
        raise UnsupportedShape("eigenstructure needs a diagonal, monomial or rank-one homology")
    a, b, basis = eigen
    return EigenStructure(field, (EigenPair(a, basis[:1]), EigenPair(b, basis[1:])))


def homology_eigenbasis(A: ProjMatrix) -> tuple[CycloNum, CycloNum, tuple[Vector, ...]] | None:
    """(a, b, C) with A C = C diag(a, b, .., b), C given by its columns, for
    a matrix that `_rank_one` reads as A = bI + M with a != b, diagonal ones
    included; None for any other matrix.  This is the one builder of a
    homology's eigenbasis: verification, the fixed locus and the eigen
    candidates all read it.

    The columns are `_eigenbasis(u, w)` with u and w scaled to a leading 1,
    as `vec_normalize` scales them.  Both lead with M_pq, M's first nonzero
    entry, and `exactnum.quotients` divides both by it, from at most one
    inverse.  A diagonal homology reads as u = w = e_k, so C is the
    coordinate permutation (e_k, e_j for j != k).  A homology conjugated by
    a rational change has M = (a - b) x y^T, x and y rational, so the scaled
    u and w are rational: each entry is the field's shared zero or one, or a
    rational multiple of M_pq, which `quotients` reads off the numerators
    with no product and no inverse.
    """
    read = _rank_one(A)
    if read is None or read[0] == read[1]:
        return None
    a, b, u, w = read
    scaled = quotients(u + w, next(x for x in w if x))
    return a, b, _eigenbasis(scaled[:len(u)], scaled[len(u):])


def _eigenbasis(u: Vector, w: Vector) -> tuple[Vector, ...]:
    """u, then w_q e_c - w_c e_q for c != q, q the first nonzero index of w.

    For a rank-one reading A = bI + M with a != b, u a nonzero column of M
    and w a nonzero row, A u = a u, and each row of M is a multiple of w, so
    ker M = ker w, which the other vectors span, is the b-eigenspace.  This
    takes no inverse.
    """
    zero = u[0].field.zero
    q = next(c for c, x in enumerate(w) if x)
    return (u,) + tuple(tuple(w[q] if i == c else -w[c] if i == q else zero
                              for i in range(len(w)))
                        for c in range(len(w)) if c != q)


def _group_by_value(items) -> tuple[EigenPair, ...]:
    """EigenPairs from (value, vector) items: equal values share a basis, in first-seen order."""
    groups: list[tuple[CycloNum, list[Vector]]] = []
    for val, vec in items:
        for gval, basis in groups:
            if gval == val:
                basis.append(vec)
                break
        else:
            groups.append((val, [vec]))
    return tuple(EigenPair(v, tuple(b)) for v, b in groups)


def _monomial_eigen(A: ProjMatrix, sigma) -> EigenStructure:
    n = A.size
    recs = []
    for cyc in _cycles(sigma):
        q = A.field.one
        for t in cyc:
            q = q * A.entry(sigma[t], t)
        rec = recognize_root_of_unity(q)
        if rec is None:
            raise UnsupportedShape("cycle product is not a recognized root of unity")
        recs.append((cyc, len(cyc), *rec))
    # conductor big enough for every cycle's ell-th roots
    field = common_field(A.field.N, *(ell * m for _, ell, m, _ in recs))
    B = A.embed(field)
    items = []
    for cyc, ell, m, j in recs:
        mu = root_of_unity(field, ell * m, j)
        step = root_of_unity(field, ell, 1)
        for _ in range(ell):
            v = [field.zero] * n
            coeff = field.one
            v[cyc[0]] = coeff
            for t in range(1, ell):
                coeff = coeff * B.entry(cyc[t], cyc[t - 1]) / mu
                v[cyc[t]] = coeff
            vec_v = tuple(v)
            assert B.apply(vec_v) == tuple(x * mu for x in vec_v)
            items.append((mu, vec_v))
            mu = mu * step
    return EigenStructure(field, _group_by_value(items))


# ---------------------------------------------------------------------------
# detection of the split form diag(a, b*I)

@dataclass(frozen=True)
class Homology:
    """Data of a projective homology: scalar b on a hyperplane, a on the center."""

    kind: str  # "inner" (a/b primitive (d-1)-th root) or "outer" (primitive d-th)
    a: CycloNum
    b: CycloNum
    center: Vector
    ratio: CycloNum  # a/b


def homology_kind(order: int, d: int) -> str | None:
    """The Galois point a homology of this order certifies on a degree-d X:
    "inner" for order d-1, "outer" for order d, None otherwise."""
    return {d - 1: "inner", d: "outer"}.get(order)


def homology_form(A: ProjMatrix, d: int, n: int) -> Homology | None:
    """Test conjugacy of A to diag(a, b*I_(n+1)) with a/b a primitive root.

    The ratio a/b must be a primitive (d-1)-th root of unity (inner) or a
    primitive d-th root (outer).  A is such a homology exactly when
    M = A - bI has rank one, M = u v^T, with a = b + v^T u = b + trace(M)
    different from b: then A u = a u, the b-eigenspace ker M has dimension
    n+1, and the center is [u], any nonzero column of M.  Rank one already
    gives (A - aI)(A - bI) = u (v^T u - (a - b)) v^T = 0.  Everything stays
    in A's own field: a and b are the roots of multiplicity 1 and n+1 >= 2
    of the characteristic polynomial, so every field automorphism fixes them.

    `_rank_one` is the one reading, diagonal and monomial matrices included;
    the center is its u scaled to a leading 1, e_k for a diagonal matrix.
    A 2x2 matrix (n = 0) reads as None.
    """
    if A.size != n + 2:
        raise ValueError(f"matrix size {A.size} does not match n = {n}")
    read = _rank_one(A)
    if read is None:
        return None
    a, b, u, _ = read
    return _homology(a, b, vec_normalize(u), d)


def _rank_one(A: ProjMatrix) -> tuple[CycloNum, CycloNum, Vector, Vector] | None:
    """(a, b, u, w) with M = A - bI of rank one, b != 0, a = b + trace(M),
    w a nonzero row of M and u a nonzero column through w's first nonzero
    entry; None for any other matrix, and for every matrix of size below 3.

    A diagonal A is read off its pattern: b repeats among the first three
    entries (a homology's b takes at least two of them), exactly one entry
    a differs, and u = w = e_k for its index k, with no product or inverse.

    A non-diagonal monomial matrix is None (`projective_order` and
    `eigen_structure` read it through its permutation first): it is never a
    homology of order d-1 or d.  A cycle of length l >= 2 of its permutation contributes the l
    eigenvalues c*zeta_l^j, so A has three or more eigenvalues, or two with
    ratio -1, while a homology has two with a ratio of order d-1 >= 3 or
    d >= 4.

    Any other A: off the diagonal M equals A.  For the first nonzero A_ij,
    i != j, and any k other than i and j, rank one gives
    M_kk = u_k v_k = A_ik A_kj / A_ij, so b = A_kk - A_ik A_kj / A_ij, which
    needs no division when the product is zero.  M has rank one when, for
    the first nonzero M_pq, M_rc M_pq = M_rq M_pc for every r and c: each
    row is then a multiple of row p, which is w.
    """
    size, rows = A.size, A.rows
    if size < 3:
        return None
    off = next(((i, j) for i in range(size) for j in range(size) if i != j and rows[i][j]), None)
    if off is None:
        diag = [rows[k][k] for k in range(size)]
        b = diag[0] if diag[0] in (diag[1], diag[2]) else diag[1]
        rest = [k for k, x in enumerate(diag) if x != b]
        if len(rest) != 1 or not b:
            return None
        e = tuple(A.field.one if j == rest[0] else A.field.zero for j in range(size))
        return diag[rest[0]], b, e, e
    if A.monomial_permutation() is not None:
        return None
    i, j = off
    k = next(k for k in range(size) if k not in off)
    t = rows[i][k] * rows[k][j]
    b = rows[k][k] - t / rows[i][j] if t else rows[k][k]
    if not b:
        return None
    M = [[x - b if r == c else x for c, x in enumerate(row)] for r, row in enumerate(rows)]
    pivot = next(((p, q) for p in range(size) for q in range(size) if M[p][q]), None)
    if pivot is None:
        return None
    p, q = pivot
    if any(M[r][c] * M[p][q] != M[r][q] * M[p][c]
           for r in range(size) if r != p for c in range(size) if c != q):
        return None
    a = sum((rows[k][k] for k in range(size)), A.field.zero) - b * (size - 1)
    return a, b, tuple(M[r][q] for r in range(size)), tuple(M[p])


def _homology(a: CycloNum, b: CycloNum, center: Vector, d: int) -> Homology | None:
    """The Homology diag(a, b*I) with this center when a/b has order d-1 or d."""
    ratio = a / b
    rec = recognize_root_of_unity(ratio)
    kind = rec and homology_kind(rec[0], d)
    return Homology(kind, a, b, center, ratio) if kind else None
