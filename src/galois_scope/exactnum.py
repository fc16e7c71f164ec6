"""Exact arithmetic over Q and over cyclotomic fields Q(zeta_N).

A dense element is stored in the power basis 1, z, ..., z^(phi(N)-1) modulo
the N-th cyclotomic polynomial, as a tuple of integer numerators over one
positive denominator whose gcd with all of them is 1.  Phi_N is monic with
integer coefficients, so a product is one integer convolution, a reduction
with no division and one gcd pass.  `coeffs` gives the Fraction coordinates
on demand.

Every value that is a rational multiple of a single root of unity carries a
monomial tag c*z^k, and a value stored only as numerators is never such a
multiple (in particular never rational).  So the form is a function of the
value: tagged values compare by tag, dense values by their numerators and
denominator, and a tagged value never equals a dense one.  Arithmetic between
tagged values stays in exponent space, which keeps products and powers of
roots of unity cheap even when phi(N) is large.  The tag is canonical: c is
an `int` when it is integral, else a reduced `Fraction` (denominator above
1), never a float, and for even N the exponent is folded into [0, N/2) with
the sign absorbed into c.  `_canon_tag` is the one place that makes this
form, so products and sums of integral tags are plain int arithmetic; `int`
and `Fraction` compare and hash alike, and their readers use only
`.numerator`, `.denominator`, comparisons and `abs`.  `_dense` normalises
computed numerators and demotes every c*z^k among them to its tag, keeping
the numerators (see `CycloField._monomial`).

This module owns the element encoding: the tag, the dense numerators, the
integer value form that `polyring`'s substitution kernel and polar chain
compute in (Kronecker-packed ints and tag pairs, or plain ints when every
input is rational, see the last section), the scaling of a vector by one of
its entries (`quotients`) and the image mod p of the modular Groebner pass
(`_residue`).  No other module reads a `CycloNum`'s tag or numerators
through its internals or builds one from them; the monomial layouts are
`polyring`'s and `groebner`'s.

It also owns field membership: `in_field` is the one way a value enters a
field (lifting from a subfield through `embed_lift`), and `unity_order`,
`root_of_unity` and `recognize_root_of_unity` alone decide which roots of
unity a field holds.

The long loops of the dense machinery, `_modular_inverse`'s pseudo-division
and `CycloField`'s reduction mod Phi_N and its rows of z^k, call
`errors.check`, so the clock of an enclosing `errors.deadline` scope reaches
exact arithmetic.  Each writes only locals, or appends whole rows to a
cache, so an expiry leaves no half-built state.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from operator import add, eq, itemgetter, mul, sub
from typing import Callable, NamedTuple

from .errors import ConductorMismatch, FieldMismatch, check

Rat = Fraction

_ZERO_TAG = (0, 0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# small number theory helpers

def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine at desk scale."""
    if n < 1:
        raise ValueError("positive integer required")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# univariate polynomials: dense ascending coefficient lists over int, Fraction
# or CycloNum; the empty list is the zero polynomial

def poly_trim(p: list) -> list:
    """Drop trailing zero coefficients in place; returns p."""
    while p and not p[-1]:
        p.pop()
    return p


def poly_mul(a, b) -> list:
    """The product of two coefficient lists, untrimmed; the sums start from int 0."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def poly_divmod(num, den) -> tuple[list, list]:
    """(q, r) with num = q*den + r and deg r < deg den, r trimmed.

    den must have a nonzero last coefficient.  A monic den takes no division,
    so integer lists stay integral; integer lists need a monic den.
    """
    r = list(num)
    dn = len(den) - 1
    lead = den[-1]
    monic = lead == 1
    nz = [(j, d) for j, d in enumerate(den[:-1]) if d]
    q = [None] * max(len(r) - dn, 0)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + dn] if monic else r[i + dn] / lead
        q[i] = c
        if c:
            for j, d in nz:
                r[i + j] -= c * d
    return q, poly_trim(r[:dn])


def poly_gcd(a: list, b: list) -> list:
    """A greatest common divisor of two trimmed coefficient lists, not made monic."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return a


def _poly_subs_power(p: tuple[int, ...], k: int) -> tuple[int, ...]:
    out = [0] * ((len(p) - 1) * k + 1)
    for i, c in enumerate(p):
        out[i * k] = c
    return tuple(out)


@lru_cache(maxsize=None)
def _cyclotomic(N: int) -> tuple[int, ...]:
    """Coefficients of Phi_N, ascending, monic with integer entries."""
    if N == 1:
        return (-1, 1)
    fac = factorize(N)
    rad = 1
    for p in fac:
        rad *= p
    if rad != N:
        return _poly_subs_power(_cyclotomic(rad), N // rad)
    primes = sorted(fac)
    poly: tuple[int, ...] = (1,) * primes[0]
    for p in primes[1:]:
        q, r = poly_divmod(_poly_subs_power(poly, p), poly)
        if r:
            raise ArithmeticError("non-exact polynomial division")
        poly = tuple(q)
    return poly


# ---------------------------------------------------------------------------
# fields

class CycloField:
    """The cyclotomic field Q(zeta_N); construct via cyclo_field(N)."""

    __slots__ = ("N", "degree", "phi", "zero", "one", "_xphi", "_zeta", "_shifts", "_cofactor")

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("conductor must be a positive integer")
        self.N = N
        self.phi = _cyclotomic(N)
        self.degree = len(self.phi) - 1
        # x^degree reduced mod Phi_N, as an integer vector
        self._xphi = tuple(-c for c in self.phi[:-1])
        self._zeta: list[tuple[int, ...]] = [(1,) + (0,) * (self.degree - 1)]
        # the shifts N/q, q over the primes dividing N, and the terms (e, +-1)
        # of prod_q (x^(N/q) - 1) mod x^N - 1; None when every canonical tag
        # exponent is below phi(N), so that c*z^k is the vector with one entry
        self._shifts = self._cofactor = None
        if self.degree < (N // 2 if N % 2 == 0 else N):
            self._shifts = [N // q for q in factorize(N)]
            # the 2^r exponents, sums of sets of shifts, differ mod N: modulo
            # the power of q dividing N, N/q is nonzero and every other shift 0
            terms = [(0, 1)]
            for s in self._shifts:
                terms = [((e + s) % N, t) for e, t in terms] + [(e, -t) for e, t in terms]
            self._cofactor = terms
        # one instance each, shared by every caller (`_parts` may fill in
        # their numerators, which leaves the values as they are)
        self.zero = CycloNum(self, tag=_ZERO_TAG)
        self.one = CycloNum(self, tag=(1, 0))

    def __repr__(self):
        return f"Q(z({self.N}))"

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.N == self.N

    def __hash__(self):
        return hash(("CycloField", self.N))

    # -- element constructors ------------------------------------------------

    def from_rational(self, r) -> "CycloNum":
        """r as an element of this field; r must be an int (not a bool) or a Fraction."""
        return CycloNum(self, tag=_canon_tag(self.N, _rational(r), 0))

    def zeta(self, k: int = 1) -> "CycloNum":
        """zeta_N^k as an element of this field."""
        return CycloNum(self, tag=_canon_tag(self.N, 1, k))

    def element(self, coeffs) -> "CycloNum":
        """The element sum_i coeffs[i] * z^i; any length, reduced mod Phi_N.
        Each coefficient must be an int (not a bool) or a Fraction."""
        vec = [Fraction(_rational(c)) for c in coeffs]
        den = math.lcm(*(c.denominator for c in vec))
        return _dense(self, self._reduce([c.numerator * (den // c.denominator) for c in vec]), den)

    # -- dense machinery -----------------------------------------------------

    def _zeta_vec(self, k: int) -> tuple[int, ...]:
        """Power basis coordinates of zeta^k (integers), 0 <= k < N."""
        zs = self._zeta
        m = self.degree
        xphi = self._xphi
        while len(zs) <= k:
            check()
            prev = zs[-1]
            top = prev[m - 1]
            new = [0] * m
            new[1:m] = prev[: m - 1]
            if top:
                for j, c in enumerate(xphi):
                    if c:
                        new[j] += top * c
            zs.append(tuple(new))
        return zs[k]

    def _monomial(self, num) -> tuple[int, int] | None:
        """(c, k) with num = c*z^k for a power basis integer vector num, or None.

        A vector with one nonzero entry is c*z^k with k < phi(N).  For the
        others, x^N - 1 is the product of the Phi_M, M | N, and C = prod_q
        (x^(N/q) - 1) is divisible by every one of them except Phi_N, which
        is prime to it.  So num = c x^k mod Phi_N exactly when num C = c x^k C
        mod x^N - 1: num C must be a rotation of c C.
        """
        if len(num) - num.count(0) <= 1:
            k = next((i for i, x in enumerate(num) if x), 0)
            return num[k], k
        if self._shifts is None:
            return None
        N, cof = self.N, self._cofactor
        h = list(num) + [0] * (N - len(num))  # num C mod x^N - 1, one factor at a time
        for s in self._shifts:
            h = list(map(sub, h[-s:] + h[:-s], h))
        if N - h.count(0) != len(cof):
            return None
        j = next(i for i, a in enumerate(h) if a)
        for e, s in cof:  # h[j] = c * s for the term x^(j-k) = x^e of C
            c, k = h[j] * s, j - e
            if all(h[(k + f) % N] == c * t for f, t in cof):
                return c, k % N
        return None

    def _reduce(self, coeffs: list[int]) -> list[int]:
        """Reduce an arbitrary-length integer coefficient list mod Phi_N."""
        N, m = self.N, self.degree
        c = list(coeffs)
        while len(c) > N:
            for e in range(len(c) - 1, N - 1, -1):
                if c[e]:
                    c[e - N] += c[e]
            del c[N:]
        for e in range(len(c) - 1, m - 1, -1):
            ce = c[e]
            if ce:
                check()
                row = self._zeta_vec(e)
                for j, rj in enumerate(row):
                    if rj:
                        c[j] += ce * rj
            del c[e]
        c += [0] * (m - len(c))
        return c


@lru_cache(maxsize=None)
def cyclo_field(N: int) -> CycloField:
    """Q(zeta_N); instances are cached so fields compare by identity."""
    return CycloField(N)


def common_field(*conductors: int) -> CycloField:
    """The smallest Q(zeta_N) containing every Q(zeta_M) listed; Q for none."""
    return cyclo_field(math.lcm(*conductors))


# ---------------------------------------------------------------------------
# elements

def _rational(r):
    """r itself when it is an int (not a bool) or a Fraction; else TypeError."""
    if type(r) is not int and not isinstance(r, Fraction):
        raise TypeError(f"a rational must be an int or a Fraction, not {type(r).__name__}")
    return r


def in_field(field: CycloField, c) -> "CycloNum":
    """c as an element of field, the one way a value enters a field: an int
    (not a bool) or a Fraction is converted, an element of field is returned
    as it is, and an element of a subfield is lifted by embed_lift; any other
    field raises ConductorMismatch.  Operators stay strict (`_coerce`)."""
    if not isinstance(c, CycloNum):
        return field.from_rational(c)
    return c if c.field is field else embed_lift(c, field)


def _canon_tag(N: int, c, k: int, den: int = 1) -> tuple:
    """The canonical tag of (c/den)*z^k, c an int or a Fraction and den a
    nonzero int: the coefficient an int when it is integral, else a reduced
    Fraction, and k in [0, N), or [0, N/2) for even N."""
    if not c:
        return _ZERO_TAG
    if den != 1:
        c = Fraction(c, den)
    if type(c) is not int and c.denominator == 1:
        c = c.numerator
    k %= N
    if N % 2 == 0 and k >= N // 2:
        return (-c, k - N // 2)
    return (c, k)


def _dense(field: CycloField, num: list[int], den: int, known_dense: bool = False) -> "CycloNum":
    """The element with power basis coordinates num/den (len(num) = phi(N), den != 0).

    Divides out the gcd and makes den positive; a value c*z^k gets its tag
    and keeps the numerators, so no dense value is a multiple of a root of
    unity.  known_dense skips that test for a value that cannot be c*z^k:
    the product of a dense value with a tag, its inverse, or its image
    under embed_lift.
    """
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = [x // g for x in num]
        den //= g
    num = tuple(num)
    if known_dense:
        return CycloNum(field, num=num, den=den)
    mono = (num[0], 0) if not any(num[1:]) else field._monomial(num)  # rationals first
    if mono is None:
        return CycloNum(field, num=num, den=den)
    return CycloNum(field, tag=_canon_tag(field.N, *mono, den), num=num, den=den)


class CycloNum:
    """An element of a CycloField: a tag c*zeta^k, or dense numerators over a denominator."""

    __slots__ = ("field", "_tag", "_num", "_den")

    def __init__(self, field: CycloField, tag=None, num=None, den=1):
        # internal: a tag may come without num/den, see _parts
        self.field = field
        self._tag = tag
        self._num = num
        self._den = den
        if num is None and tag is None:
            raise ValueError("internal: element needs numerators or a tag")

    # -- representations -----------------------------------------------------

    def _parts(self) -> tuple[tuple[int, ...], int]:
        """(numerators, denominator) of the power basis coordinates, canonical."""
        if self._num is None:
            c, k = self._tag
            z = self.field._zeta_vec(k)
            # zeta^k is a unit of Z[zeta], so its coordinates have gcd 1
            self._num = tuple(c.numerator * v for v in z)
            self._den = c.denominator
        return self._num, self._den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power basis coordinates as Fractions, length phi(N), built on each call."""
        num, den = self._parts()
        return tuple(Fraction(x, den) for x in num)

    @property
    def tag(self):
        return self._tag

    def is_zero(self) -> bool:
        t = self._tag
        return t is not None and t[0] == 0

    def __bool__(self):
        return not self.is_zero()

    def rational(self):
        """The value if it is rational, else None: an int when it is
        integral, else a Fraction with denominator above 1."""
        t = self._tag
        return t[0] if t is not None and t[1] == 0 else None

    def __repr__(self):
        t = self._tag
        if t is not None:
            c, k = t
            if k == 0:
                return f"CycloNum({c})"
            return f"CycloNum({c}*z({self.field.N})^{k})"
        return f"CycloNum({list(self.coeffs)} in {self.field!r})"

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.field.N != self.field.N:
                raise FieldMismatch(
                    f"conductor {other.field.N} vs {self.field.N}; use embed_lift explicitly")
            return other
        if type(other) is int or isinstance(other, Fraction):
            return self.field.from_rational(other)
        return NotImplemented

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._tag, other._tag
        if a is not None:
            if b is not None and a[1] == b[1]:
                return CycloNum(self.field, tag=_canon_tag(self.field.N, a[0] + b[0], a[1]))
            if a[0] == 0:
                return other
        if b is not None and b[0] == 0:
            return self
        (x, dx), (y, dy) = self._parts(), other._parts()
        if dx == dy:
            return _dense(self.field, [u + v for u, v in zip(x, y)], dx)
        return _dense(self.field, [u * dy + v * dx for u, v in zip(x, y)], dx * dy)

    __radd__ = __add__

    def __neg__(self):
        if self._tag is not None:
            c, k = self._tag
            return CycloNum(self.field, tag=(-c, k))
        return CycloNum(self.field, num=tuple(-x for x in self._num), den=self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._tag, other._tag
        if a is not None and b is not None:
            return CycloNum(self.field, tag=_canon_tag(self.field.N, a[0] * b[0], a[1] + b[1]))
        if a is not None and a[1] == 0:
            return other._scaled(a[0])
        if b is not None and b[1] == 0:
            return self._scaled(b[0])
        (x, dx), (y, dy) = self._parts(), other._parts()
        return _dense(self.field, self.field._reduce(poly_mul(x, y)), dx * dy,
                      known_dense=a is not None or b is not None)

    __rmul__ = __mul__

    def _scaled(self, c) -> "CycloNum":
        """c * self for a dense self and a rational c."""
        if c == 0:
            return self.field.zero
        p, q = c.numerator, c.denominator
        return _dense(self.field, [p * x for x in self._num], q * self._den, known_dense=True)

    def inverse(self) -> "CycloNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self._tag is not None:
            c, k = self._tag
            return CycloNum(self.field, tag=_canon_tag(self.field.N, _ONE / c, -k))
        num, den = _modular_inverse(self._num, self.field)
        return _dense(self.field, [self._den * x for x in num], den, known_dense=True)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if self._tag is not None:
            c, k = self._tag
            if e < 0:
                if c == 0:
                    raise ZeroDivisionError("inverse of zero")
                return CycloNum(self.field, tag=_canon_tag(self.field.N, (_ONE / c) ** -e, k * e))
            return CycloNum(self.field, tag=_canon_tag(self.field.N, c ** e, k * e))
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if type(other) is int or isinstance(other, Fraction):
            other = self.field.from_rational(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        if other.field.N != self.field.N:
            raise FieldMismatch("cannot compare elements of different fields")
        a, b = self._tag, other._tag
        if a is not None or b is not None:
            return a == b
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        t = self._tag
        return hash((self.field.N, t) if t is not None else (self.field.N, self._num, self._den))


def _modular_inverse(num: tuple[int, ...], field: CycloField) -> tuple[list[int], int]:
    """The inverse of the integer list num mod Phi_N as (numerators, denominator).

    Extended Euclid over Z[x] with primitive pseudo-remainders: each step
    computes lc^k * r0 = q * r1 + r, lc the leading coefficient of r1, and
    divides r by its content, which keeps coefficients at the size of the
    subresultants.  Throughout, s0 * num = r0 and s1 * num = r1 mod Phi_N,
    each cofactor s an integer list over its denominator d.
    """
    r0, r1 = list(field.phi), poly_trim(list(num))
    s0, d0, s1, d1 = [], 1, [1], 1
    while len(r1) > 1:
        lc, n1 = r1[-1], len(r1)
        r, q, scale = r0, [0] * (len(r0) - n1 + 1), 1
        while len(r) >= n1:
            check()
            c, shift = r[-1], len(r) - n1
            r = [lc * x for x in r]
            q = [lc * x for x in q]
            q[shift] += c
            for j, b in enumerate(r1):
                if b:
                    r[shift + j] -= c * b
            poly_trim(r)
            scale *= lc
        g = math.gcd(*r)
        s = [scale * d1 * x - d0 * y for x, y in zip_longest(s0, poly_mul(q, s1), fillvalue=0)]
        den = d0 * d1 * g
        h = math.gcd(den, *s)
        r0, r1 = r1, [x // g for x in r]
        s0, d0, s1, d1 = s1, d1, [x // h for x in s], den // h
    # s1/d1 * num = r1[0], a nonzero integer, since Phi_N is irreducible
    return field._reduce(s1), d1 * r1[0]


def quotients(values, divisor: CycloNum) -> tuple[CycloNum, ...]:
    """The x / divisor for the elements x in values, each equal to
    x * divisor.inverse() in value and in representation, from at most one
    inverse, made only for an x that needs it.

    A zero x gives the field's shared zero, and divisor itself (or its
    value) the shared one.  A dense x whose numerators are proportional to
    those of a dense divisor, one O(phi) test, is a rational multiple of it:
    the quotient is that rational's tag, with no product and no numerators
    kept.  Any other x is multiplied by the inverse.
    """
    if not divisor:
        raise ZeroDivisionError("division by zero")
    field = divisor.field
    dense = divisor._tag is None
    if dense:
        yn, yd = divisor._num, divisor._den
        i = next(j for j, v in enumerate(yn) if v)
        b = yn[i]
    inverse = None
    out = []
    for x in values:
        if x is divisor or x == divisor:
            out.append(field.one)
        elif not x:
            out.append(field.zero)
        elif dense and x._tag is None and (a := x._num[i]) and all(
                u * b == v * a for u, v in zip(x._num, yn)):
            out.append(CycloNum(field, tag=_canon_tag(field.N, a * yd, 0, b * x._den)))
        else:
            if inverse is None:
                inverse = divisor.inverse()
            out.append(x * inverse)
    return tuple(out)


# ---------------------------------------------------------------------------
# module-level operations

def unity_order(field: CycloField) -> int:
    """lcm(2, N), the number of roots of unity in Q(zeta_N): zeta_m lies in
    the field exactly when m divides it."""
    return math.lcm(2, field.N)


def root_of_unity(field: CycloField, m: int, j: int) -> CycloNum:
    """zeta_m^j inside Q(zeta_N); requires m | lcm(2, N) (else ConductorMismatch).

    zeta_m^j is zeta_2N^e with e = j 2N/m: z^(e/2) for an even e, and, as
    zeta_2N^N = -1, -z^((e+N)/2) for an odd e (then N is odd).
    """
    if m < 1:
        raise ValueError("root order must be positive")
    N = field.N
    if unity_order(field) % m:
        raise ConductorMismatch(f"zeta_{m} does not live in Q(zeta_{N}); enlarge the field")
    e = (j % m) * (2 * N // m)
    return field.zeta(e // 2) if e % 2 == 0 else -field.zeta((e + N) // 2)


def embed_lift(x: CycloNum, target: CycloField) -> CycloNum:
    """Image of x under zeta_N -> zeta_N'^(N'/N); requires N | N'."""
    N = x.field.N
    if target.N % N != 0:
        raise ConductorMismatch(f"cannot embed Q(zeta_{N}) into Q(zeta_{target.N})")
    if target.N == N:
        return x if x.field is target else CycloNum(target, tag=x._tag, num=x._num, den=x._den)
    r = target.N // N
    if x._tag is not None:
        c, k = x._tag
        return CycloNum(target, tag=_canon_tag(target.N, c, k * r))
    spread = [0] * ((len(x._num) - 1) * r + 1)  # x's numerators at the powers z^(i*r)
    spread[::r] = x._num
    return _dense(target, target._reduce(spread), x._den, known_dense=True)


def recognize_root_of_unity(x: CycloNum):
    """Return (m, j) with x = zeta_m^j, m minimal and gcd(j, m) = 1, or None:
    the inverse of root_of_unity.

    Every root of unity is tagged, so it is read off its tag: +-z^k is
    zeta_2N^e with e = 2k, plus N for the sign -, and with g = gcd(e, 2N)
    it is zeta_(2N/g)^(e/g).  A dense value is none.
    """
    if x._tag is None:
        return None
    c, k = x._tag
    if c != 1 and c != -1:
        return None
    N = x.field.N
    e = (2 * k if c == 1 else 2 * k + N) % (2 * N)
    g = math.gcd(e, 2 * N)
    return 2 * N // g, e // g


# ---------------------------------------------------------------------------
# the integer value form, which `polyring.HomogPoly.restrict` (the substitution
# kernel) and `polyring.PolarChain` run on, and the image mod p, which the
# modular Groebner pass runs on.
#
# A value over Q(zeta_N) at a scale D is a tag pair (a, k), standing for the
# tag (a/D) z^k with k folded as in a canonical tag, or one packed int
# p(2^bits) (Kronecker substitution), p an unreduced polynomial in Z[x] with
# x standing for zeta_N, standing for p(zeta_N)/D.  In the integer case,
# when every input is rational, a value is a plain int a, standing for a/D:
# the packed form of a constant p.  Callers keep the scale; `_value_ops` gives
# the arithmetic of both cases.


def _scaled_ints(c: CycloNum, den: int):
    """(den * c as integers, its l1 norm): a tag as the pair (a, k), a dense
    value as its power basis vector; den must be a multiple of c's denominator."""
    t = c._tag
    if t is not None:
        a = t[0].numerator * (den // t[0].denominator)
        return (a, t[1]), abs(a)
    num, cden = c._parts()
    vec = [x * (den // cden) for x in num]
    return vec, sum(map(abs, vec))


def _integral(values) -> tuple[int, list, bool]:
    """(D, [_scaled_ints(c, D) for c in values], rational), D the lcm of the
    denominators of the values and rational whether every one is rational."""
    den = math.lcm(1, *(c._den if c._tag is None else c._tag[0].denominator for c in values))
    scaled = [_scaled_ints(c, den) for c in values]
    return den, scaled, all(type(v) is tuple and not v[1] for v, _ in scaled)


class ValueOps(NamedTuple):
    """The arithmetic of the integer value form at one width, from `_value_ops`."""

    bits: int  # the packing width: every coefficient stays below 2^(bits-1)
    rational: bool  # the integer case: every value is a plain int
    value: Callable  # a scaled input of `_scaled_ints`, a tag pair or a vector, as a value
    mul: Callable  # (x, y) -> x y
    add: Callable  # (x, y) -> x + y
    nonzero: Callable  # v -> whether v is nonzero in the field
    equal: Callable  # (x, y) -> whether x and y are equal in the field
    widen: Callable  # (v, bits) -> v, a value at width bits, at this width
    element: Callable  # (v, den) -> the element v / den in its canonical form


def _value_ops(field: CycloField, bound: int, rational: bool) -> ValueOps:
    """The value form's arithmetic over field for values whose coefficients
    stay below bound in absolute value: bits, the packing width, is a
    multiple of 8 with bound < 2^(bits-1).

    The integer case, rational: every input is a rational tag (a, 0), which
    `value` makes the int a.  Products and sums are then the C-level int
    `*` and `+`, the zero test is `v != 0`, and v / den becomes a rational
    tag.  The same l1 argument as for packed values keeps every value, and
    every partial sum, below bound, so in bits - 1 bits: an int of the
    integer case is the packed value of the constant polynomial at any width
    that holds bound, and a packed computation widens it like any other.

    Otherwise tags multiply and same-exponent tags add in exponent space; a
    tag that meets another exponent enters a packed value as a x^k.  A
    packed result is exact while its coefficients stay below 2^(bits-1); a
    packed value is nonzero when its canonical numerators are (folded mod
    x^N - 1, unpacked and reduced mod Phi_N).
    """
    bits, N = (bound.bit_length() + 8) // 8 * 8, field.N
    if rational:
        def element(v, den):
            return CycloNum(field, tag=_canon_tag(N, v, 0, den))

        return ValueOps(bits, True, itemgetter(0), mul, add, bool, eq,
                        lambda v, narrow: v, element)

    top, flip = (N // 2, True) if N % 2 == 0 else (N, False)  # as in _canon_tag

    def value(v):
        return v if type(v) is tuple else _pack(v, bits)

    def tag_mul(c, l):
        if type(c) is tuple:
            a, k = c
            if not a:
                return _ZERO_TAG
            if type(l) is tuple:
                b, e = l
                e += k
                if e >= top:
                    e -= top
                    if flip:
                        return (-a * b, e)
                return (a * b, e)
            return (a * l) << (k * bits)
        if type(l) is tuple:
            return (c * l[0]) << (l[1] * bits)
        return c * l

    def tag_add(x, y):
        if type(x) is tuple:
            if type(y) is tuple:
                a, k = x
                b, e = y
                if k == e:
                    s = a + b
                    return (s, k) if s else _ZERO_TAG
                if not a:
                    return y
                if not b:
                    return x
            x = x[0] << (x[1] * bits)
        if type(y) is tuple:
            y = y[0] << (y[1] * bits)
        return x + y

    def nonzero(v):
        return bool(v[0]) if type(v) is tuple else any(_vector(field, v, bits))

    def packed(v):
        return v[0] << (v[1] * bits) if type(v) is tuple else v

    def equal(x, y):
        if type(x) is tuple and type(y) is tuple:
            return x == y  # canonical tags: equal values have equal pairs
        return not nonzero(packed(x) - packed(y))

    def widen(v, narrow):
        return v if type(v) is tuple else _pack(_unpack(v, narrow), bits)

    def element(v, den):
        if type(v) is tuple:  # a tag pair is canonical already at den = 1
            return CycloNum(field, tag=v if den == 1 else _canon_tag(N, v[0], v[1], den))
        return _dense(field, _vector(field, v, bits), den)

    return ValueOps(bits, False, value, tag_mul, tag_add, nonzero, equal, widen, element)


def _vector(field: CycloField, v: int, bits: int) -> list[int]:
    """The power basis numerators of a packed value: folded mod x^N - 1,
    unpacked and reduced mod Phi_N."""
    return field._reduce(_unpack(_fold(v, field.N * bits), bits))


def _offset(n: int, bits: int) -> int:
    """sum_{i<n} 2^(bits-1) 2^(bits i), which makes n balanced digits non-negative."""
    return int.from_bytes((bytes(bits // 8 - 1) + b"\x80") * n, "little")


def _pack(coeffs, bits: int) -> int:
    """sum_i coeffs[i] 2^(bits i), for |coeffs[i]| < 2^(bits-1) and 8 | bits."""
    width, half = bits // 8, 1 << (bits - 1)
    data = b"".join((c + half).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(data, "little") - _offset(len(coeffs), bits)


def _fold(p: int, width: int) -> int:
    """The sum of the balanced base-2^width digits of p.  For p = f(2^bits)
    and width = N bits this is (f mod x^N - 1)(2^bits), whose l1 norm is at
    most that of f."""
    total, mask, half = 0, (1 << width) - 1, 1 << (width - 1)
    while p.bit_length() >= width:
        low = p & mask
        if low >= half:
            low -= mask + 1
        total += low
        p = (p - low) >> width
    return total + p


def _unpack(p: int, bits: int) -> list[int]:
    """The balanced base-2^bits digits of p, lowest first: the inverse of _pack."""
    width, half = bits // 8, 1 << (bits - 1)
    n = p.bit_length() // bits + 1
    data = (p + _offset(n, bits)).to_bytes(n * width, "little")
    return [int.from_bytes(data[i:i + width], "little") - half
            for i in range(0, n * width, width)]


def _residue(c: CycloNum, p: int, w: int) -> int | None:
    """The image of c under zeta_N -> w mod p, w an N-th root of unity mod
    p; None when p divides its denominator."""
    tag = c._tag
    if tag is not None:
        q, k = tag
        num, den = q.numerator * pow(w, k, p), q.denominator
    else:
        coords, den = c._parts()
        num = 0
        for x in reversed(coords):  # Horner in w
            num = (num * w + x) % p
    if den % p == 0:
        return None
    return num * pow(den, -1, p) % p
