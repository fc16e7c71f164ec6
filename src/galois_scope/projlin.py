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
from .exactnum import CycloField, CycloNum, common_field, embed_lift, recognize_root_of_unity, root_of_unity

Vector = tuple[CycloNum, ...]


def as_scalar(field: CycloField, value) -> CycloNum:
    """value in `field`: a rational, or an element of a subfield lifted by embed_lift."""
    if isinstance(value, CycloNum):
        return value if value.field.N == field.N else embed_lift(value, field)
    return field.from_rational(value)


def vector(field: CycloField, entries) -> Vector:
    return tuple(as_scalar(field, e) for e in entries)


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
        es = [as_scalar(field, e) for e in entries]
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
        c = as_scalar(self.field, c)
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
        n = self.size
        m = [list(r) for r in self.rows]
        det = self.field.one
        for col in range(n):
            piv = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
            if piv is None:
                return self.field.zero
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
                det = -det
            det = det * m[col][col]
            inv = m[col][col].inverse()
            for r in range(col + 1, n):
                if not m[r][col].is_zero():
                    f = m[r][col] * inv
                    for c in range(col, n):
                        m[r][c] = m[r][c] - f * m[col][c]
        return det

    def rank(self) -> int:
        n = self.size
        m = [list(r) for r in self.rows]
        rank = 0
        row = 0
        for col in range(n):
            piv = next((r for r in range(row, n) if not m[r][col].is_zero()), None)
            if piv is None:
                continue
            m[row], m[piv] = m[piv], m[row]
            inv = m[row][col].inverse()
            for r in range(row + 1, n):
                if not m[r][col].is_zero():
                    f = m[r][col] * inv
                    for c in range(col, n):
                        m[r][c] = m[r][c] - f * m[row][c]
            rank += 1
            row += 1
        return rank

    def inverse(self) -> "ProjMatrix":
        n = self.size
        m = [list(r) + [self.field.one if i == j else self.field.zero for j in range(n)]
             for i, r in enumerate(self.rows)]
        for col in range(n):
            piv = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
            if piv is None:
                raise SingularMatrix("matrix is singular")
            m[col], m[piv] = m[piv], m[col]
            inv = m[col][col].inverse()
            m[col] = [x * inv for x in m[col]]
            for r in range(n):
                if r != col and not m[r][col].is_zero():
                    f = m[r][col]
                    m[r] = [x - f * y for x, y in zip(m[r], m[col])]
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


# ---------------------------------------------------------------------------
# projective order

def projective_order(A: ProjMatrix, k_max: int = 10000) -> int:
    """Least k >= 1 with A^k scalar; OrderBoundExceeded if none up to k_max."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if A.is_diagonal():
        order = _diag_projective_order(A)
        if order is not None:
            if order > k_max:
                raise OrderBoundExceeded(f"projective order {order} exceeds bound {k_max}")
            return order
    sigma = A.monomial_permutation()
    if sigma is not None and not A.is_diagonal():
        L = _perm_order(sigma)
        D = A ** L
        sub = _diag_projective_order(D)
        if sub is not None:
            order = L * sub
            if order > k_max:
                raise OrderBoundExceeded(f"projective order {order} exceeds bound {k_max}")
            return order
    power = A
    for k in range(1, k_max + 1):
        if power.is_scalar():
            return k
        power = power @ A
    raise OrderBoundExceeded(f"no scalar power within bound {k_max}")


def _diag_projective_order(A: ProjMatrix):
    d0 = A.rows[0][0]
    order = 1
    for i in range(1, A.size):
        rec = recognize_root_of_unity(A.rows[i][i] / d0)
        if rec is None:
            return None
        order = math.lcm(order, rec[0])
    return order


def _perm_order(sigma) -> int:
    seen = [False] * len(sigma)
    order = 1
    for i in range(len(sigma)):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = sigma[j]
                length += 1
            order = math.lcm(order, length)
    return order


# ---------------------------------------------------------------------------
# eigenstructure for diagonal / monomial / witnessed matrices

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


def eigen_structure(A: ProjMatrix, witness: ProjMatrix | None = None) -> EigenStructure:
    """Exact eigendecomposition.

    Supports diagonal matrices, monomial matrices whose cycle products are
    roots of unity (enlarging the field as needed for the cycle roots), and
    arbitrary matrices accompanied by a conjugating witness W with W^-1 A W
    diagonal.
    """
    if witness is not None:
        D = witness.inverse() @ A @ witness
        if not D.is_diagonal():
            raise UnsupportedShape("witness does not diagonalize the matrix")
        inner = eigen_structure(D)
        W = witness.embed(inner.field)
        pairs = tuple(
            EigenPair(p.value, tuple(W.apply(v) for v in p.basis)) for p in inner.pairs)
        return EigenStructure(inner.field, pairs)
    if A.is_diagonal():
        field = A.field
        return EigenStructure(field, _group_by_value(
            (A.rows[i][i], tuple(field.one if j == i else field.zero for j in range(A.size)))
            for i in range(A.size)))
    sigma = A.monomial_permutation()
    if sigma is None:
        raise UnsupportedShape("eigenstructure needs a diagonal, monomial, or witnessed matrix")
    return _monomial_eigen(A, sigma)


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
    seen = [False] * n
    cycles = []
    for i in range(n):
        if not seen[i]:
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = sigma[j]
            cycles.append(cyc)
    recs = []
    for cyc in cycles:
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
    field: CycloField


def homology_form(A: ProjMatrix, d: int, n: int) -> Homology | None:
    """Test conjugacy of A to diag(a, b*I_(n+1)) with a/b a primitive root.

    The ratio a/b must be a primitive (d-1)-th root of unity (inner) or a
    primitive d-th root (outer).  The general path avoids eigenvalue
    extraction: for each candidate ratio rho the trace pins b via
    trace = b*(rho + n + 1), and conjugacy is equivalent to
    (A - aI)(A - bI) = 0 with rank(A - bI) <= 1.  Diagonal and monomial
    matrices short-circuit through the multiplicity pattern of their
    eigen_structure.  The verdict, kind and center are the same either way,
    but the short-cut works in the eigenvalues' field: for diag(z4, 1, 1)
    over Q(zeta_8) and d = 4 it reports Q(zeta_8) and ratio z(8)^2, where
    the rank trick reports Q(zeta_24) and z(24)^6.
    """
    if A.size != n + 2:
        raise ValueError(f"matrix size {A.size} does not match n = {n}")
    if A.is_diagonal() or A.monomial_permutation() is not None:
        return _pattern_homology(eigen_structure(A), d, n)
    return _rank_trick_homology(A, d, n)


def _pattern_homology(es: EigenStructure, d: int, n: int) -> Homology | None:
    if len(es.pairs) != 2:
        return None
    single, rest = sorted(es.pairs, key=lambda p: p.multiplicity)
    if single.multiplicity != 1 or rest.multiplicity != n + 1:
        return None
    a, b = single.value, rest.value
    rec = recognize_root_of_unity(a / b)
    if rec is None:
        return None
    order = rec[0]
    if order == d - 1:
        kind = "inner"
    elif order == d:
        kind = "outer"
    else:
        return None
    return Homology(kind, a, b, vec_normalize(single.basis[0]), es.field)


def _rank_trick_homology(A: ProjMatrix, d: int, n: int) -> Homology | None:
    field = common_field(A.field.N, d - 1, d)
    B = A.embed(field)
    trace = field.zero
    for i in range(B.size):
        trace = trace + B.rows[i][i]
    candidates = [("inner", root_of_unity(field, d - 1, j))
                  for j in range(1, d - 1) if math.gcd(j, d - 1) == 1]
    candidates += [("outer", root_of_unity(field, d, j))
                   for j in range(1, d) if math.gcd(j, d) == 1]
    one = ProjMatrix.identity(field, B.size)
    for kind, rho in candidates:
        denom = rho + (n + 1)
        assert not denom.is_zero()
        b = trace / denom
        if b.is_zero():
            continue
        a = rho * b
        shift_b = ProjMatrix(field, tuple(
            tuple(B.rows[i][j] - (b if i == j else field.zero) for j in range(B.size))
            for i in range(B.size)))
        shift_a = ProjMatrix(field, tuple(
            tuple(B.rows[i][j] - (a if i == j else field.zero) for j in range(B.size))
            for i in range(B.size)))
        prod = shift_a @ shift_b
        if any(not x.is_zero() for r in prod.rows for x in r):
            continue
        if shift_b.rank() > 1:
            continue
        col = next((shift_b.column(j) for j in range(B.size)
                    if any(not x.is_zero() for x in shift_b.column(j))), None)
        if col is None:
            continue
        return Homology(kind, a, b, vec_normalize(col), field)
    return None
