"""Exact arithmetic over Q and over cyclotomic fields Q(zeta_N).

Elements are stored in the power basis 1, z, ..., z^(phi(N)-1) modulo the
N-th cyclotomic polynomial, with Fraction coordinates.  Values that are known
to be a rational multiple of a single root of unity additionally carry a
monomial tag c*z^k; arithmetic between tagged values stays in exponent space,
which keeps products and powers of roots of unity cheap even when phi(N) is
large.  The tag is canonical (for even N the exponent is folded into
[0, N/2) with the sign absorbed into c), so tagged values compare by tag.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import ConductorMismatch, FieldMismatch

Rat = Fraction

_ZERO = Fraction(0)
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


def totient(n: int) -> int:
    t = 1
    for p, e in factorize(n).items():
        t *= (p - 1) * p ** (e - 1)
    return t


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p ** k for d in ds for k in range(e + 1)]
    return sorted(ds)


# ---------------------------------------------------------------------------
# integer polynomial helpers (ascending coefficient lists) for Phi_N

def _poly_subs_power(p: tuple[int, ...], k: int) -> tuple[int, ...]:
    out = [0] * ((len(p) - 1) * k + 1)
    for i, c in enumerate(p):
        out[i * k] = c
    return tuple(out)


def _poly_divexact(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    num_l = list(num)
    dn = len(den) - 1
    lead = den[-1]
    q = [0] * (len(num_l) - dn)
    for i in range(len(q) - 1, -1, -1):
        c = num_l[i + dn]
        if c:
            if c % lead:
                raise ArithmeticError("non-exact polynomial division")
            c //= lead
            q[i] = c
            for j, dj in enumerate(den):
                if dj:
                    num_l[i + j] -= c * dj
    if any(num_l[:dn]):
        raise ArithmeticError("non-exact polynomial division")
    return tuple(q)


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
        poly = _poly_divexact(_poly_subs_power(poly, p), poly)
    return poly


def _check_phi_divides(phi: tuple[int, ...], N: int) -> None:
    # construction self-test: Phi_N must divide x^N - 1 exactly
    m = len(phi) - 1
    rem = [0] * (N + 1)
    rem[N] = 1
    rem[0] = -1
    nz = [(j, c) for j, c in enumerate(phi[:-1]) if c]
    for i in range(N - m, -1, -1):
        q = rem[i + m]
        if q:
            rem[i + m] = 0
            for j, c in nz:
                rem[i + j] -= q * c
    if any(rem):
        raise ArithmeticError(f"cyclotomic polynomial for N={N} failed its division self-test")


# ---------------------------------------------------------------------------
# fields

class CycloField:
    """The cyclotomic field Q(zeta_N); construct via cyclo_field(N)."""

    __slots__ = ("N", "degree", "phi", "_xphi", "_zeta")

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("conductor must be a positive integer")
        self.N = N
        self.phi = _cyclotomic(N)
        self.degree = len(self.phi) - 1
        _check_phi_divides(self.phi, N)
        # x^degree reduced mod Phi_N, as an integer vector
        self._xphi = tuple(-c for c in self.phi[:-1])
        self._zeta: list[tuple[int, ...]] = [(1,) + (0,) * (self.degree - 1)]

    def __repr__(self):
        return f"Q(z({self.N}))"

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.N == self.N

    def __hash__(self):
        return hash(("CycloField", self.N))

    # -- element constructors ------------------------------------------------

    def from_rational(self, r) -> "CycloNum":
        return CycloNum(self, tag=_canon_tag(self.N, Fraction(r), 0))

    @property
    def zero(self) -> "CycloNum":
        return self.from_rational(0)

    @property
    def one(self) -> "CycloNum":
        return self.from_rational(1)

    def zeta(self, k: int = 1) -> "CycloNum":
        """zeta_N^k as an element of this field."""
        return CycloNum(self, tag=_canon_tag(self.N, _ONE, k))

    def element(self, coeffs) -> "CycloNum":
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > self.degree:
            vec = list(self._reduce(vec))
        else:
            vec += [_ZERO] * (self.degree - len(vec))
        return CycloNum(self, vec=tuple(vec))

    # -- dense machinery -----------------------------------------------------

    def _zeta_vec(self, k: int) -> tuple[int, ...]:
        """Power basis coordinates of zeta^k (integers), 0 <= k < N."""
        zs = self._zeta
        m = self.degree
        xphi = self._xphi
        while len(zs) <= k:
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

    def _reduce(self, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
        """Reduce an arbitrary-length coefficient list mod Phi_N."""
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
                row = self._zeta_vec(e)
                for j, rj in enumerate(row):
                    if rj:
                        c[j] += ce * rj
            if e >= m:
                del c[e]
        c += [_ZERO] * (m - len(c))
        return tuple(c)


@lru_cache(maxsize=None)
def cyclo_field(N: int) -> CycloField:
    """Q(zeta_N); instances are cached so fields compare by identity."""
    return CycloField(N)


def common_field(*conductors: int) -> CycloField:
    """The smallest Q(zeta_N) containing every Q(zeta_M) listed; Q for none."""
    return cyclo_field(math.lcm(*conductors))


# ---------------------------------------------------------------------------
# elements

def _canon_tag(N: int, c: Fraction, k: int) -> tuple[Fraction, int]:
    if c == 0:
        return (_ZERO, 0)
    k %= N
    if N % 2 == 0 and k >= N // 2:
        return (-c, k - N // 2)
    return (c, k)


class CycloNum:
    """An element of a CycloField in the power basis, optionally tagged c*zeta^k."""

    __slots__ = ("field", "_vec", "_tag")

    def __init__(self, field: CycloField, vec=None, tag=None):
        self.field = field
        self._vec = vec
        self._tag = tag
        if vec is None and tag is None:
            raise ValueError("internal: element needs a vector or a tag")

    # -- representations -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power basis coordinates, length phi(N)."""
        if self._vec is None:
            c, k = self._tag
            self._vec = tuple(c * z for z in self.field._zeta_vec(k))
        return self._vec

    @property
    def tag(self):
        return self._tag

    def is_zero(self) -> bool:
        if self._tag is not None:
            return self._tag[0] == 0
        return not any(self._vec)

    def rational(self):
        """The value as a Fraction if it is rational, else None."""
        if self._tag is not None:
            c, k = self._tag
            return c if k == 0 else None
        if any(self._vec[1:]):
            return None
        return self._vec[0]

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
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._tag, other._tag
        if a is not None and b is not None:
            if a[1] == b[1]:
                return CycloNum(self.field, tag=_canon_tag(self.field.N, a[0] + b[0], a[1]))
            if a[0] == 0:
                return other
            if b[0] == 0:
                return self
        vec = tuple(x + y for x, y in zip(self.coeffs, other.coeffs))
        return CycloNum(self.field, vec=vec)

    __radd__ = __add__

    def __neg__(self):
        if self._tag is not None:
            c, k = self._tag
            return CycloNum(self.field, tag=(-c, k))
        return CycloNum(self.field, vec=tuple(-x for x in self._vec))

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
            return CycloNum(self.field, vec=tuple(a[0] * y for y in other.coeffs))
        if b is not None and b[1] == 0:
            return CycloNum(self.field, vec=tuple(b[0] * x for x in self.coeffs))
        u, v = self.coeffs, other.coeffs
        m = self.field.degree
        acc = [_ZERO] * (2 * m - 1)
        for i, x in enumerate(u):
            if x:
                for j, y in enumerate(v):
                    if y:
                        acc[i + j] += x * y
        return CycloNum(self.field, vec=self.field._reduce(acc))

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self._tag is not None:
            c, k = self._tag
            return CycloNum(self.field, tag=_canon_tag(self.field.N, 1 / c, -k))
        inv = _modular_inverse(self.coeffs, self.field)
        return CycloNum(self.field, vec=inv)

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
                return CycloNum(self.field, tag=_canon_tag(self.field.N, (1 / c) ** (-e), k * e))
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
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        if other.field.N != self.field.N:
            raise FieldMismatch("cannot compare elements of different fields")
        a, b = self._tag, other._tag
        if a is not None and b is not None:
            return a == b
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.N, self.coeffs))


def _modular_inverse(vec: tuple[Fraction, ...], field: CycloField) -> tuple[Fraction, ...]:
    """Inverse mod Phi_N by the extended Euclidean algorithm over Q[x]."""
    phi = [Fraction(c) for c in field.phi]
    a = list(vec)
    while a and a[-1] == 0:
        a.pop()
    r0, r1 = phi, a
    s0, s1 = [_ZERO], [_ONE]
    while True:
        while r1 and r1[-1] == 0:
            r1.pop()
        if len(r1) == 1:
            inv_c = 1 / r1[0]
            out = [c * inv_c for c in s1]
            return field._reduce(out)
        q, r = _frac_divmod(r0, r1)
        s0, s1 = s1, _frac_sub(s0, _frac_mul(q, s1))
        r0, r1 = r1, r


def _frac_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _frac_sub(a, b):
    n = max(len(a), len(b))
    out = [_ZERO] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] -= y
    return out


def _frac_divmod(num, den):
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dn:
        return [_ZERO], num
    q = [_ZERO] * (len(num) - dn)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + dn] / lead
        if c:
            q[i] = c
            for j, dj in enumerate(den):
                if dj:
                    num[i + j] -= c * dj
    rem = num[:dn]
    while rem and rem[-1] == 0:
        rem.pop()
    if not rem:
        rem = [_ZERO]
    return q, rem


# ---------------------------------------------------------------------------
# module-level operations

def root_of_unity(field: CycloField, M: int, j: int) -> CycloNum:
    """zeta_M^j inside Q(zeta_N); requires M | N."""
    if M < 1:
        raise ValueError("root order must be positive")
    if field.N % M != 0:
        raise ConductorMismatch(f"zeta_{M} does not live in Q(zeta_{field.N}); enlarge the field")
    return field.zeta((j % M) * (field.N // M))


def embed_lift(x: CycloNum, target: CycloField) -> CycloNum:
    """Image of x under zeta_N -> zeta_N'^(N'/N); requires N | N'."""
    N = x.field.N
    if target.N % N != 0:
        raise ConductorMismatch(f"cannot embed Q(zeta_{N}) into Q(zeta_{target.N})")
    if target.N == N:
        return x if x.field is target else CycloNum(target, vec=x._vec, tag=x._tag)
    r = target.N // N
    if x._tag is not None:
        c, k = x._tag
        return CycloNum(target, tag=_canon_tag(target.N, c, k * r))
    acc = [_ZERO] * target.degree
    for i, c in enumerate(x.coeffs):
        if c:
            row = target._zeta_vec((i * r) % target.N)
            for j, rj in enumerate(row):
                if rj:
                    acc[j] += c * rj
    return CycloNum(target, vec=tuple(acc))


def _root_in_field(field: CycloField, m: int, j: int) -> CycloNum:
    """zeta_m^j when it exists in Q(zeta_N), i.e. when m | lcm(2, N)."""
    if field.N % m == 0:
        return root_of_unity(field, m, j)
    if field.N % 2 == 1 and (2 * field.N) % m == 0:
        # m = 2m' with m' odd dividing N: zeta_m = -zeta_m'^((m'+1)/2)
        mp = m // 2
        j %= m
        sign = -1 if j % 2 else 1
        exp = (j * ((mp + 1) // 2)) % mp
        z = root_of_unity(field, mp, exp)
        return -z if sign < 0 else z
    raise ConductorMismatch(f"zeta_{m} does not live in Q(zeta_{field.N})")


def recognize_root_of_unity(x: CycloNum):
    """Return (m, j) with x = zeta_m^j, m minimal and gcd(j, m) = 1, or None.

    Roots of unity in Q(zeta_N) have order dividing lcm(2, N), which bounds
    the search for untagged values; tagged values are read off directly.
    """
    N = x.field.N
    if x._tag is not None:
        c, k = x._tag
        if c == -1 and N % 2 == 0:
            c, k = 1, (k + N // 2) % N
        if c == 1:
            g = math.gcd(k, N)
            return (N // g, (k // g) % (N // g)) if k else (1, 0)
        if c == -1:
            # odd conductor: -zeta_N^k has order 2 * ord(zeta_N^k)
            g = math.gcd(k, N)
            m0, j0 = N // g, k // g
            m = 2 * m0
            return (m, (m0 + 2 * j0) % m)
        return None
    r = x.rational()
    if r is not None:
        if r == 1:
            return (1, 0)
        if r == -1:
            return (2, 1)
        return None
    L = math.lcm(2, N)
    one = x.field.one
    if x ** L != one:
        return None
    m = L
    for p in factorize(L):
        while m % p == 0 and x ** (m // p) == one:
            m //= p
    for j in range(1, m):
        if math.gcd(j, m) == 1 and x == _root_in_field(x.field, m, j):
            return (m, j)
    return None
