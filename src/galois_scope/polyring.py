"""Homogeneous multivariate polynomials over a cyclotomic field.

A polynomial is a sparse map from exponent tuples to nonzero field elements,
with the common total degree stored separately so that the zero polynomial of
a given degree is representable.  Monomials are plain tuples of non-negative
integers; printing and leading-term selection use graded reverse
lexicographic order.

This module owns two monomial layouts: the exponent tuple of a `HomogPoly`,
and the monomial int of `restrict` and `PolarChain` (`_monomial_ints`, one
8- to 64-bit field per exponent).  It does not own the element encoding:
coefficients are `exactnum.CycloNum`s, and the integer value form that
`restrict` and `PolarChain` compute in (scaling to integers, Kronecker
packing, tag pairs, plain ints for rational inputs, conversion back to
canonical elements) is `exactnum`'s, used through `_integral` and
`_value_ops` only.  `groebner` packs monomials its own way.
"""
from __future__ import annotations

import math
import struct
from fractions import Fraction

from .errors import DegreeMismatch, FieldMismatch
from .exactnum import (
    CycloField,
    CycloNum,
    _integral,
    _value_ops,
    in_field,
    poly_gcd,
    poly_trim,
    recognize_root_of_unity,
    root_of_unity,
    unity_order,
)

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
            c = in_field(field, c)
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
        c = in_field(self.field, c)
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
        return self.polar([int(j == i) for j in range(self.nvars)])

    def polar(self, point) -> "HomogPoly":
        """D_p f = sum_i p_i df/dX_i, degree d - 1: the derivative of f along p.

        One step over field elements.  `PolarChain` runs whole chains over
        ints; for the single step of `partial` its conversions into and out
        of ints would cost more than the step itself.
        """
        pt = [in_field(self.field, p) for p in point]
        support = [(i, p) for i, p in enumerate(pt) if not p.is_zero()]
        weights: dict[tuple[int, int], CycloNum] = {}  # e * p_i, made once per (i, e)
        terms: dict[Exponents, CycloNum] = {}
        for mono, c in self.terms.items():
            for i, p in support:
                e = mono[i]
                if e:
                    if (i, e) not in weights:
                        weights[i, e] = p * e
                    m2 = mono[:i] + (e - 1,) + mono[i + 1:]
                    v = c * weights[i, e]
                    terms[m2] = terms[m2] + v if m2 in terms else v
        return HomogPoly(self.field, self.nvars, max(self.degree - 1, 0),
                         {m: c for m, c in terms.items() if not c.is_zero()})

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

        The recursion runs over Python ints, in the integer value form of
        `exactnum` (`_integral`, `_value_ops`).  f and the basis are scaled to
        integers, f' = D_f f and L_i' = D_A L_i, and every coefficient of the
        result is divided by D_f D_A^d once, at the end.  A value built from
        tags by products and same-exponent sums is the pair (D c, k), D the
        scale of its level, standing for the tag c z^k; any other value is
        one int p(2^B) (Kronecker substitution), p an unreduced polynomial
        in Z[x] with x standing for zeta_N.  Every such p is a sum of
        products of coefficients of f' and of the L_i', so its l1 norm, and
        with it every coefficient, is below ||f'||_1 (max_i ||L_i'||_1)^d
        < 2^(B-1), and one int product or sum is the product or sum of the
        polynomials.  Tags enter a packed value as x^k.  Outputs are folded
        mod x^N - 1, unpacked and reduced mod Phi_N, and the `element` of
        `_value_ops` gives each the canonical form of its value, a tag when
        it is c z^k.  So the result equals the CycloNum Horner recursion's
        coefficient for coefficient, in value and in representation.  A
        substitution whose inputs and sums stay tag pairs (a monomial matrix)
        never packs or unpacks a value.

        When every coefficient of f and every basis entry is rational, as in
        every normal form and its eigenbasis, the same loop runs in the
        integer case of `_value_ops`: every value is a plain int, products
        and sums are int `*` and `+`, and the same bound keeps every value
        below 2^(B-1) in absolute value; each output a becomes the rational
        tag a / (D_f D_A^d).
        """
        field, m, d = self.field, len(basis), self.degree
        linear = []
        for i in range(self.nvars):
            col = [(j, in_field(field, v[i])) for j, v in enumerate(basis)]
            linear.append([(j, c) for j, c in col if not c.is_zero()])
        if not self.terms:
            return HomogPoly.zero(field, m, d)
        order = sorted(range(self.nvars), key=lambda i: -len(linear[i]))

        den_f, coeffs, rational_f = _integral(self.terms.values())
        den_a, entries, rational_a = _integral([c for col in linear for _, c in col])
        entries = iter(entries)
        cols = [[next(entries) for _ in col] for col in linear]
        norm_l = max([1] + [sum(n for _, n in col) for col in cols])
        # d = 0 packs L_i' too
        ops = _value_ops(field, sum(n for _, n in coeffs) * norm_l ** max(d, 1),
                         rational_f and rational_a)
        mul, add, value = ops.mul, ops.add, ops.value

        width, _, exponents = _monomial_ints(m, d)
        steps = [[(1 << width * j, value(l[0])) for (j, _), l in zip(linear[i], cols[i])]
                 for i in range(self.nvars)]

        def horner(terms, depth):
            if depth == len(order):  # the exponents agree everywhere: a single term
                return {0: terms[0][1]}
            i = order[depth]
            groups: dict[int, list] = {}
            for term in terms:
                groups.setdefault(term[0][i], []).append(term)
            col = steps[i]
            acc: dict[int, object] = {}
            for k in range(max(groups), -1, -1):
                prod: dict[int, object] = {}
                for key, c in acc.items():
                    for step, l in col:
                        p = mul(c, l)
                        to = key + step
                        prod[to] = add(prod[to], p) if to in prod else p
                acc = prod
                if k in groups:
                    for key, c in horner(groups[k], depth + 1).items():
                        acc[key] = add(acc[key], c) if key in acc else c
            return acc

        start = [(mono, value(v)) for mono, (v, _) in zip(self.terms, coeffs)]
        return _from_values(field, ops, m, d, exponents, horner(start, 0), den_f * den_a ** d)

    def divide_by_linear(self, L: "HomogPoly"):
        """Quotient f / L for a linear form L when the division is exact, else None."""
        if L.degree != 1 or L.is_zero():
            raise ValueError("divisor must be a nonzero linear form")
        self._check_compatible(L)
        if self.is_zero():
            return HomogPoly.zero(self.field, self.nvars, self.degree - 1)
        pivot = L.leading_monomial()
        i = pivot.index(1)
        inv = L.terms[pivot].inverse()
        rem = self
        qterms: dict[Exponents, CycloNum] = {}
        while not rem.is_zero():
            lm = max(rem.terms, key=grevlex_key)
            if lm[i] == 0:
                return None
            qm = lm[:i] + (lm[i] - 1,) + lm[i + 1:]
            qc = rem.terms[lm] * inv
            qterms[qm] = qc
            rem = rem - L * HomogPoly(self.field, self.nvars, self.degree - 1, {qm: qc})
        return HomogPoly(self.field, self.nvars, self.degree - 1, qterms)

    def eval_at(self, point) -> CycloNum:
        """Value at a coordinate vector; the vector must not be identically zero."""
        pt = [in_field(self.field, p) for p in point]
        if all(p.is_zero() for p in pt):
            raise ValueError("evaluation at the zero vector is not projective")
        zeros = [i for i, p in enumerate(pt) if p.is_zero()]
        powers: dict[tuple[int, int], CycloNum] = {}  # p_i ** e, made once per (i, e)
        total = self.field.zero
        for mono, c in self.terms.items():
            if any(mono[i] for i in zeros):
                continue
            v = c
            for i, e in enumerate(mono):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = pt[i] ** e
                    v = v * powers[i, e]
            if not v.is_zero():
                total = total + v
        return total

    def embed(self, target: CycloField) -> "HomogPoly":
        """Coefficient-wise lift into a larger cyclotomic field."""
        if target.N == self.field.N:
            return self
        return HomogPoly(target, self.nvars, self.degree,
                         {m: in_field(target, c) for m, c in self.terms.items()})


# ---------------------------------------------------------------------------
# the polar chain, in the integer value form of `exactnum`, and the monomial
# ints that it and HomogPoly.restrict key their values by


class PolarChain:
    """The polars P_j = D_p^j F of a form F at a vector p, D_p = sum_i p_i
    d/dX_i, for j = 0, 1, ... up to the last nonzero one: at most d + 1
    forms, since D_p lowers the degree.

    The chain runs over Python ints in the value form of `restrict`.  F and
    p are scaled to integers once, F' = D_F F and p' = D_p p, so that P_j' =
    D_F D_p^j P_j; a monomial is an int (`_monomial_ints`), a tag c z^k is
    the pair (a, k) and any other value one packed int.  P_(j+1)' takes the
    contribution e_i p_i' c of every term c X^e of P_j', so the l1 norms of
    its coefficients sum to at most (d - j) max_i ||p_i'||_1 times those of
    P_j'.  `bound` = ||F'||_1 d! (max_i ||p_i'||_1)^d, each norm taken at
    least 1, is above every such sum, and with it above every value of the
    chain, partial sums included; B = `ops.bits` has bound < 2^(B-1).  A
    value is kept when its canonical value is nonzero: a tag by its
    coefficient, a packed value folded mod x^N - 1, unpacked and reduced mod
    Phi_N.  When F and p are rational the chain runs in the integer case of
    `_value_ops`: every value is a plain int below bound in absolute value,
    and the zero test is `v != 0`.  So the chain has the length
    that the field gives it, and `form(j)` converts P_j' to the exact P_j,
    in its canonical representation and in the term order of the CycloNum
    recursion (iterated `HomogPoly.polar`).  A zero p is not a point, and
    raises ValueError.
    """

    __slots__ = ("field", "nvars", "degree", "forms", "ops", "bound", "den_f", "den_p")

    def __init__(self, F: HomogPoly, point):
        field, d = F.field, F.degree
        pt = [in_field(field, c) for c in point]
        if not any(pt):
            raise ValueError("the zero vector is not a point")
        self.field, self.nvars, self.degree = field, F.nvars, d
        self.den_f, coeffs, rational_f = _integral(F.terms.values())
        self.den_p, entries, rational_p = _integral(pt)
        norm_p = max([1] + [n for _, n in entries])
        # max(.., 1): the weights e p_i' are packed even for F = 0
        self.bound = max(sum(n for _, n in coeffs), 1) * math.factorial(d) * norm_p ** d
        self.ops = ops = _value_ops(field, self.bound, rational_f and rational_p)
        mul, add, value, nonzero = ops.mul, ops.add, ops.value, ops.nonzero
        width, key_of, _ = _monomial_ints(F.nvars, d)
        mask = (1 << width) - 1
        # (shift and step of X_i, [None, 1 p_i', ..., d p_i']) for each p_i != 0
        support = [(width * i, 1 << width * i,
                    [None] + [mul(value(v), value((e, 0))) for e in range(1, d + 1)])
                   for i, (v, n) in enumerate(entries) if n]
        form = {key_of(mono): value(v) for mono, (v, _) in zip(F.terms, coeffs)}
        self.forms = [form]
        while form:
            out: dict[int, object] = {}
            for key, c in form.items():
                for shift, step, weights in support:
                    e = key >> shift & mask
                    if e:
                        v = mul(c, weights[e])
                        to = key - step
                        out[to] = add(out[to], v) if to in out else v
            form = {key: v for key, v in out.items() if nonzero(v)}
            if form:
                self.forms.append(form)

    def __len__(self) -> int:
        return len(self.forms)

    def form(self, j: int) -> HomogPoly:
        """P_j as a HomogPoly, for 0 <= j < len(self)."""
        return _from_values(self.field, self.ops, self.nvars, self.degree - j,
                            _monomial_ints(self.nvars, self.degree)[2], self.forms[j],
                            self.den_f * self.den_p ** j)

    def proportional(self, L: HomogPoly, top: int) -> bool:
        """Whether P_j is a nonzero multiple of P_(j+1) L for every j from
        top down to 1, for top + 1 < len(self) and L a linear form over the
        same field.  The lowest degrees go first, so that most rejections
        need only small products.

        L is scaled to integers, L', and Q = P_(j+1)' L' is formed in the
        value form, the integer case when the chain is in it and L is
        rational.  P_j' and Q must have the same monomials, and P_j'[t]
        Q[m] = Q[t] P_j'[m] must hold at every t for one fixed m; the scale
        of either side does not matter.  Every coefficient of Q is below
        bound ||L'||_1 in l1 norm, and each cross product, and the
        difference of two, below 2 bound^2 ||L'||_1: that sets the bit bound
        of this test, and a packed value of the chain is widened to it.
        """
        key_of, narrow = _monomial_ints(self.nvars, self.degree)[1], self.ops.bits
        _, lin, rational = _integral(L.terms.values())
        ops = _value_ops(self.field, 2 * self.bound ** 2 * sum(n for _, n in lin),
                         self.ops.rational and rational)
        mul, add, nonzero, equal, widen = ops.mul, ops.add, ops.nonzero, ops.equal, ops.widen
        lin = [(key_of(mono), ops.value(v)) for mono, (v, _) in zip(L.terms, lin)]
        for j in range(top, 0, -1):
            P = self.forms[j]
            Q: dict[int, object] = {}
            for key, c in self.forms[j + 1].items():
                c = widen(c, narrow)
                for step, l in lin:
                    v = mul(c, l)
                    to = key + step
                    Q[to] = add(Q[to], v) if to in Q else v
            Q = {key: v for key, v in Q.items() if nonzero(v)}
            if Q.keys() != P.keys():
                return False
            m = next(iter(Q))
            q_m, p_m = Q[m], widen(P[m], narrow)
            for t, q in Q.items():
                if not equal(mul(widen(P[t], narrow), q_m), mul(q, p_m)):
                    return False
        return True


def _from_values(field: CycloField, ops, nvars: int, degree: int, exponents, values: dict,
                 den: int) -> HomogPoly:
    """The form of the given degree with coefficient v / den at exponents(key)
    for each key: v of values in the value form of ops, zeros dropped."""
    element = ops.element
    return HomogPoly(field, nvars, degree, {exponents(key): c for key, v in values.items()
                                            if not (c := element(v, den)).is_zero()})


def _monomial_ints(nvars: int, degree: int):
    """(width, key, exponents) for monomials of degree at most degree in
    nvars variables as ints: X^e is sum_i e_i 2^(width i), width 8, 16, 32
    or 64, the narrowest that holds degree.  So X_i is 1 << width i, a
    product of monomials is the sum of their ints, and key and exponents
    (its inverse) convert in C."""
    width, code = next((w, c) for w, c in ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))
                       if degree >> w == 0)
    layout = struct.Struct(f"<{nvars}{code}")  # little-endian, unsigned, standard sizes

    def key(mono) -> int:
        return int.from_bytes(layout.pack(*mono), "little")

    def exponents(key: int) -> Exponents:
        return layout.unpack(key.to_bytes(layout.size, "little"))

    return width, key, exponents


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
    at_infinity = 0 if u[d] else 1
    u = poly_trim(u)
    # in characteristic 0, u' = 0 only for a constant u
    g = poly_gcd(u, poly_trim([u[k] * k for k in range(1, len(u))]))
    return len(u) - len(g) + at_infinity


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
    if unity_order(b.field) % (om * m) != 0:
        return None
    t = root_of_unity(b.field, om * m, oj)
    step = root_of_unity(b.field, m, 1)
    for _ in range(m):
        roots.append((b.field.one, t))
        t = t * step
    return roots
