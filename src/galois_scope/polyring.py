"""Homogeneous multivariate polynomials over a cyclotomic field.

A polynomial is a sparse map from exponent tuples to nonzero field elements,
with the common total degree stored separately so that the zero polynomial of
a given degree is representable.  Monomials are plain tuples of non-negative
integers; printing and leading-term selection use graded reverse
lexicographic order.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegreeMismatch, FieldMismatch
from .exactnum import CycloField, CycloNum, _root_in_field, embed_lift, recognize_root_of_unity

Exponents = tuple[int, ...]


def grevlex_key(mono: Exponents):
    """Sort key: max() under this key is the grevlex leading monomial."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


class HomogPoly:
    """A homogeneous polynomial; immutable by convention."""

    __slots__ = ("field", "nvars", "degree", "terms")

    def __init__(self, field: CycloField, nvars: int, degree: int, terms: dict):
        self.field = field
        self.nvars = nvars
        self.degree = degree
        self.terms = terms

    @classmethod
    def from_terms(cls, field, nvars, terms, degree=None) -> "HomogPoly":
        """Build from {exponents: coefficient}, validating homogeneity."""
        clean: dict[Exponents, CycloNum] = {}
        for mono, c in terms.items():
            mono = tuple(mono)
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono} for {nvars} variables")
            if isinstance(c, (int, Fraction)):
                c = field.from_rational(c)
            elif c.field.N != field.N:
                raise FieldMismatch("coefficient from a different field")
            if c.is_zero():
                continue
            d = sum(mono)
            if degree is None:
                degree = d
            elif d != degree:
                raise DegreeMismatch(f"term {mono} has degree {d}, expected {degree}")
            if mono in clean:
                c = clean[mono] + c
                if c.is_zero():
                    del clean[mono]
                    continue
            clean[mono] = c
        if degree is None:
            raise ValueError("degree required for the zero polynomial")
        return cls(field, nvars, degree, clean)

    @classmethod
    def zero(cls, field, nvars, degree) -> "HomogPoly":
        return cls(field, nvars, degree, {})

    @classmethod
    def monomial(cls, field, nvars, mono, coeff=1) -> "HomogPoly":
        return cls.from_terms(field, nvars, {tuple(mono): coeff})

    @classmethod
    def variable(cls, field, nvars, i) -> "HomogPoly":
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls.monomial(field, nvars, mono)

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono) -> CycloNum:
        return self.terms.get(tuple(mono), self.field.zero)

    def leading_monomial(self) -> Exponents:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grevlex_key)

    def sorted_terms(self):
        """Terms in descending grevlex order."""
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]), reverse=True)

    def __eq__(self, other):
        if not isinstance(other, HomogPoly):
            return NotImplemented
        return (self.field.N == other.field.N and self.nvars == other.nvars
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field.N, self.nvars, self.degree, frozenset(self.terms.items())))

    def __repr__(self):
        from .parsing import render_poly

        return f"HomogPoly({render_poly(self)})"

    # -- arithmetic ------------------------------------------------------

    def _check_compatible(self, other):
        if self.field.N != other.field.N:
            raise FieldMismatch("polynomials over different fields")
        if self.nvars != other.nvars:
            raise ValueError("polynomials with different variable counts")

    def __add__(self, other):
        self._check_compatible(other)
        if self.degree != other.degree:
            raise DegreeMismatch(
                f"cannot add degree {self.degree} and degree {other.degree} forms")
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            if mono in terms:
                s = terms[mono] + c
                if s.is_zero():
                    del terms[mono]
                else:
                    terms[mono] = s
            else:
                terms[mono] = c
        return HomogPoly(self.field, self.nvars, self.degree, terms)

    def __neg__(self):
        return HomogPoly(self.field, self.nvars, self.degree,
                         {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloNum)):
            return self.scale(other)
        self._check_compatible(other)
        terms: dict[Exponents, CycloNum] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                c = c1 * c2
                if mono in terms:
                    c = terms[mono] + c
                if c.is_zero():
                    terms.pop(mono, None)
                else:
                    terms[mono] = c
        return HomogPoly(self.field, self.nvars, self.degree + other.degree, terms)

    __rmul__ = __mul__

    def scale(self, c) -> "HomogPoly":
        if isinstance(c, (int, Fraction)):
            c = self.field.from_rational(c)
        if c.is_zero():
            return HomogPoly.zero(self.field, self.nvars, self.degree)
        return HomogPoly(self.field, self.nvars, self.degree,
                         {m: x * c for m, x in self.terms.items()})

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = HomogPoly.monomial(self.field, self.nvars, (0,) * self.nvars)
        for _ in range(e):
            result = result * self
        return result

    # -- calculus and substitution ----------------------------------------

    def partial(self, i: int) -> "HomogPoly":
        """Formal derivative with respect to variable i, degree d - 1."""
        terms = {}
        for mono, c in self.terms.items():
            e = mono[i]
            if e:
                m2 = mono[:i] + (e - 1,) + mono[i + 1:]
                nc = c * e
                if m2 in terms:
                    nc = terms[m2] + nc
                if nc.is_zero():
                    terms.pop(m2, None)
                else:
                    terms[m2] = nc
        return HomogPoly(self.field, self.nvars, max(self.degree - 1, 0), terms)

    def transform(self, matrix) -> "HomogPoly":
        """f(M.X): substitute X_i -> sum_j M[i][j] X_j."""
        rows = matrix.rows if hasattr(matrix, "rows") else matrix
        return self.restrict([[row[j] for row in rows] for j in range(self.nvars)])

    def restrict(self, basis) -> "HomogPoly":
        """f(sum_j Y_j basis[j]) in len(basis) variables: the restriction to
        the span of the basis vectors.

        Horner's scheme over the input variables: with f = sum_k X_i^k G_k
        and L_i = sum_j basis[j][i] Y_j, f is (..(G_top' L_i + ..) L_i) + G_0',
        G_k' the same recursion on the remaining variables, so the only
        products are an accumulator times a linear form.  A level runs once
        per exponent prefix above it, so the longest L_i go first.
        """
        m, nvars = len(basis), self.nvars
        linear = []
        for i in range(nvars):
            coeffs = [v[i] if isinstance(v[i], CycloNum) else self.field.from_rational(v[i])
                      for v in basis]
            linear.append([(j, c) for j, c in enumerate(coeffs) if not c.is_zero()])
        order = sorted(range(nvars), key=lambda i: -len(linear[i]))

        def horner(terms, depth):
            if depth == nvars:  # the exponents agree everywhere: a single term
                return {(0,) * m: terms[0][1]}
            i = order[depth]
            groups: dict[int, list] = {}
            for term in terms:
                groups.setdefault(term[0][i], []).append(term)
            acc: dict[Exponents, CycloNum] = {}
            for k in range(max(groups), -1, -1):
                prod: dict[Exponents, CycloNum] = {}
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

        terms = horner(list(self.terms.items()), 0) if self.terms else {}
        return HomogPoly(self.field, m, self.degree,
                         {mono: c for mono, c in terms.items() if not c.is_zero()})

    def expand_in(self, i: int) -> dict[int, "HomogPoly"]:
        """Write f = sum_k X_i^k * G_k with G_k free of X_i; keys are the nonzero k."""
        out: dict[int, dict] = {}
        for mono, c in self.terms.items():
            k = mono[i]
            rest = mono[:i] + (0,) + mono[i + 1:]
            out.setdefault(k, {})[rest] = c
        return {k: HomogPoly(self.field, self.nvars, self.degree - k, t)
                for k, t in out.items()}

    def divide_by_linear(self, L: "HomogPoly"):
        """Quotient f / L for a linear form L when the division is exact, else None."""
        if L.degree != 1 or L.is_zero():
            raise ValueError("divisor must be a nonzero linear form")
        self._check_compatible(L)
        if self.is_zero():
            return HomogPoly.zero(self.field, self.nvars, self.degree - 1)
        pivot = L.leading_monomial()
        i = pivot.index(1)
        c = L.terms[pivot]
        rem = self
        qterms: dict[Exponents, CycloNum] = {}
        while not rem.is_zero():
            lm = max(rem.terms, key=grevlex_key)
            if lm[i] == 0:
                return None
            qm = lm[:i] + (lm[i] - 1,) + lm[i + 1:]
            qc = rem.terms[lm] / c
            qterms[qm] = qc
            rem = rem - L * HomogPoly(self.field, self.nvars, self.degree - 1, {qm: qc})
        return HomogPoly(self.field, self.nvars, self.degree - 1, qterms)

    def eval_at(self, point) -> CycloNum:
        """Value at a coordinate vector; the vector must not be identically zero."""
        pt = [p if isinstance(p, CycloNum) else self.field.from_rational(p) for p in point]
        if all(p.is_zero() for p in pt):
            raise ValueError("evaluation at the zero vector is not projective")
        total = self.field.zero
        for mono, c in self.terms.items():
            v = c
            for p, e in zip(pt, mono):
                if e:
                    if p.is_zero():
                        v = self.field.zero
                        break
                    v = v * p ** e
            if not v.is_zero():
                total = total + v
        return total

    def embed(self, target: CycloField) -> "HomogPoly":
        """Coefficient-wise lift into a larger cyclotomic field."""
        if target.N == self.field.N:
            return self
        return HomogPoly(target, self.nvars, self.degree,
                         {m: embed_lift(c, target) for m, c in self.terms.items()})


# ---------------------------------------------------------------------------
# univariate helpers over the field (dense ascending lists of CycloNum)

def _uni_trim(p):
    while p and p[-1].is_zero():
        p.pop()
    return p


def _uni_deg(p):
    return len(p) - 1


def _uni_divmod(num, den):
    num = list(num)
    dn = _uni_deg(den)
    lead = den[-1]
    if _uni_deg(num) < dn:
        return [], num
    q = [None] * (_uni_deg(num) - dn + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + dn] / lead
        q[i] = c
        if not c.is_zero():
            for j, dj in enumerate(den):
                num[i + j] = num[i + j] - c * dj
    return q, _uni_trim(num[:dn])


def _uni_gcd_degree(a, b):
    a, b = list(a), list(b)
    _uni_trim(a)
    _uni_trim(b)
    while b:
        _, r = _uni_divmod(a, b)
        a, b = b, r
    return _uni_deg(a)


def distinct_root_count(b: HomogPoly) -> int:
    """Number of distinct projective roots of a nonzero binary form.

    Dehomogenize against the first variable: u(t) = b(1, t); the squarefree
    degree of u is deg u - deg gcd(u, u'), and the point [0:1] contributes
    once more exactly when the pure power of the second variable is absent.
    """
    if b.nvars != 2:
        raise ValueError("binary form expected")
    if b.is_zero():
        raise ValueError("zero form has no root count")
    d = b.degree
    u = [b.field.zero] * (d + 1)
    for (e0, e1), c in b.terms.items():
        u[e1] = c
    at_infinity = 1 if u[d].is_zero() else 0
    u = _uni_trim(list(u))
    if _uni_deg(u) <= 0:
        return at_infinity
    du = [u[k + 1] * (k + 1) for k in range(_uni_deg(u))]
    _uni_trim(du)
    g = _uni_gcd_degree(u, du) if du else _uni_deg(u)
    return _uni_deg(u) - g + at_infinity


def binary_form_roots(b: HomogPoly):
    """Projective roots of a binary form when they are expressible in its field.

    Handles monomial factors and two-term forms A*X0^m + B*X1^m whose ratio
    -B/A is a root of unity with an m-th root inside the working field;
    returns None when the form does not split this way.
    """
    if b.nvars != 2 or b.is_zero():
        raise ValueError("nonzero binary form expected")
    monos = sorted(b.terms, key=lambda m: m[1])
    e0min = min(m[0] for m in monos)
    e1min = min(m[1] for m in monos)
    roots = []
    if e1min > 0:
        roots.append((b.field.one, b.field.zero))
    if e0min > 0:
        roots.append((b.field.zero, b.field.one))
    core = {(m[0] - e0min, m[1] - e1min): c for m, c in b.terms.items()}
    if len(core) == 1:
        return roots
    if len(core) != 2:
        return None
    (ma, ca), (mb, cb) = sorted(core.items(), key=lambda kv: kv[0][1])
    m = mb[1]
    if ma[1] != 0 or mb[0] != 0:
        return None
    # ca*X0^m + cb*X1^m: X1/X0 ranges over the m-th roots of -ca/cb
    q = -(ca / cb)
    rec = recognize_root_of_unity(q)
    if rec is None:
        return None
    om, oj = rec
    # the roots of unity of Q(zeta_N) are the lcm(2, N)-th roots
    if math.lcm(2, b.field.N) % (om * m) != 0:
        return None
    t = _root_in_field(b.field, om * m, oj)
    step = _root_in_field(b.field, m, 1)
    for _ in range(m):
        roots.append((b.field.one, t))
        t = t * step
    return roots
