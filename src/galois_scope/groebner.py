"""Buchberger Groebner-basis kernel in grevlex order.

Only what the smoothness certificate needs.  Every basis element is monic and
carries its leading monomial.  A normal form reduces a mutable term dict and
takes each next leading term from a heap.  S-pairs leave a heap in order of
lcm degree (normal selection), and the update of Gebauer and Moeller ("On an
installation of Buchberger's algorithm", J. Symb. Comp. 6, 1988) applies
Buchberger's coprime and chain criteria as each element enters the basis.

Inside the kernel a monomial is one int, a packed exponent vector: the
exponent of variable i sits in bits [WIDTH*i, WIDTH*(i+1)), and the top bit
of each field is a guard bit that stays clear.  With G the mask of guard
bits a product is a + b, and a divides b when (b + G - a) & G == G: each
field of b + G - a keeps its guard bit exactly when its exponent in a is at
most the one in b.  The last variable sits in the highest field, so within
one degree the grevlex-larger monomial is the smaller int.

One loop serves two coefficient domains, told apart by the characteristic p
that every basis element carries: p = 0 for exact field elements
(`groebner_basis`), a prime p for ints in [0, p) (`modular_leading_monomials`,
the image of the ideal under a reduction Z[zeta_N] -> F_p).  Both entries go
through one entry loop, which packs the generators and returns the one
reading the smoothness certificate takes from a basis: its minimal leading
monomials, unpacked to exponent tuples.  A cooperative deadline is checked
at every pair and at every reduction step.

The packed monomial above is this module's own layout (`Packing`); the
exponent tuples it converts from and to are `polyring`'s.  The coefficients
are `exactnum`'s: exact `CycloNum`s, or their images mod p, which
`exactnum._residue` computes from the element encoding.
"""
from __future__ import annotations

import heapq
import itertools
import time
from functools import lru_cache

from .errors import BoundViolation
from .exactnum import _residue, factorize
from .polyring import HomogPoly

# the modular pass works mod the least prime p = 1 (mod N) in this open range
PRIME_RANGE = (2**29, 2**30)

# bits per exponent field of a packed monomial, its guard bit included
WIDTH = 16


class Deadline:
    """Cooperative time budget; None means no limit."""

    def __init__(self, seconds=None):
        self.limit = None if seconds is None else time.monotonic() + seconds

    def expired(self) -> bool:
        return self.limit is not None and time.monotonic() > self.limit


class Packing:
    """Monomials in nvars variables packed into ints of nvars WIDTH-bit fields.

    Every exponent stays below limit = 2^(WIDTH-1), so no guard bit is ever
    set: a generator of larger degree is refused on entry and an S-pair of
    larger lcm degree when it is formed (`check_degree`).  Every monomial a
    reduction meets has the degree of its pair, and no exponent exceeds it.
    """

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.limit = 1 << (WIDTH - 1)
        self.mask = (1 << WIDTH) - 1
        self.ones = sum(1 << (WIDTH * i) for i in range(nvars))
        self.guard = self.ones << (WIDTH - 1)
        self.top = WIDTH * (nvars - 1)

    def pack(self, mono) -> int:
        return sum(e << (WIDTH * i) for i, e in enumerate(mono))

    def unpack(self, m: int) -> tuple:
        return tuple((m >> (WIDTH * i)) & self.mask for i in range(self.nvars))

    def degree(self, m: int) -> int:
        """The sum of the exponents; exact below 2^WIDTH."""
        return (m * self.ones >> self.top) & self.mask

    def lcm(self, a: int, b: int) -> int:
        # each field of sel is all ones where the exponent in a is at least the one in b
        sel = (((a + self.guard - b) & self.guard) >> (WIDTH - 1)) * self.mask
        return (a & sel) | (b & ~sel)

    def check_degree(self, degree: int) -> None:
        if degree >= self.limit:
            raise BoundViolation(f"internal: monomial degree {degree} overflows the "
                                 f"{WIDTH}-bit exponent fields of the Groebner kernel")


class Monic:
    """A polynomial {packed exponents: coefficient} scaled so that the
    coefficient of its leading monomial lm is 1, over the field of
    characteristic p: exact field elements for p = 0, ints in [0, p) for a
    prime p.  tail holds the other terms as (monomial, coefficient) pairs."""

    __slots__ = ("lm", "tail", "p")

    def __init__(self, lm: int, terms: dict, p: int = 0):
        self.lm = lm
        self.p = p
        if p:
            inv = pow(terms[lm], -1, p)
            self.tail = [(m, c * inv % p) for m, c in terms.items() if m != lm]
        else:
            inv = terms[lm].inverse()
            self.tail = [(m, c * inv) for m, c in terms.items() if m != lm]


def _add_multiple(work: dict, c, shift: int, g: Monic, heap=None) -> None:
    """work += c * x^shift * (g - its leading term), in place, mod g.p if it is a prime.

    A monomial that enters work goes on the heap (if one is given), even when
    it was there before and cancelled.
    """
    p = g.p
    for gm, gc in g.tail:
        mono = shift + gm
        d = c * gc
        v = work.get(mono)
        if v is None:
            work[mono] = d % p if p else d
            if heap is not None:
                heapq.heappush(heap, mono)
        else:
            v += d
            if p:
                v %= p
            if v:
                work[mono] = v
            else:
                del work[mono]


def normal_form(work: dict, basis: list, guard: int, deadline: Deadline | None = None):
    """Remainder of the homogeneous {packed exponents: coefficient} work under
    division by the basis, (lm, Monic) pairs, in descending grevlex order;
    None on deadline expiry.  guard is the guard mask of the packing.

    work is consumed.  Among monomials of one degree the grevlex largest is
    the least int, so a min-heap of the monomials yields the leading terms in
    turn.  Entries whose term has cancelled are skipped.
    """
    heap = list(work)
    heapq.heapify(heap)
    rem: dict = {}
    while heap:
        if deadline is not None and deadline.expired():
            return None
        m = heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        t = m + guard
        for lm, g in basis:
            if (t - lm) & guard == guard:
                _add_multiple(work, -c, m - lm, g, heap)
                break
        else:
            rem[m] = c
    return rem


def s_polynomial(f: Monic, g: Monic, packing: Packing) -> dict:
    """x^(L - lm f) f - x^(L - lm g) g with L = lcm(lm f, lm g); the leading terms cancel."""
    lcm = packing.lcm(f.lm, g.lm)
    shift = lcm - f.lm
    out = {shift + m: c for m, c in f.tail}
    _add_multiple(out, -1, lcm - g.lm, g)
    return out


def _update(active: list[Monic], pairs: list, h: Monic, order, packing: Packing) -> list[Monic]:
    """Gebauer-Moeller update as h enters the basis; returns the new active set.

    pairs is a heap of (lcm degree, insertion order, f, g, lcm), filtered in
    place.  A new pair (h, g) with lm h, lm g not coprime is dropped when the
    lcm of a later new pair, or of one already kept, divides its lcm (chain
    criterion); coprime pairs, whose lcm is the product, take part in that
    test and are dropped after it (coprime criterion).  An old pair (f, g) is
    dropped when lm h divides its lcm and lcm(lm f, lm h), lcm(lm g, lm h)
    both differ from it.  An active element whose leading monomial lm h
    divides leaves the active set.  A kept pair whose lcm degree overflows
    the packing raises BoundViolation.
    """
    t, G, lcm_of = h.lm, packing.guard, packing.lcm
    new = [(g, lcm_of(t, g.lm)) for g in active]
    kept = []
    for k, (g, lcm) in enumerate(new):
        u = lcm + G  # (u - a) & G == G: a divides lcm
        if (lcm == t + g.lm
                or not any((u - other) & G == G for _, other in new[k + 1:])
                and not any((u - other) & G == G for _, other in kept)):
            kept.append((g, lcm))
    pairs[:] = [p for p in pairs
                if not ((p[4] + G - t) & G == G
                        and lcm_of(p[2].lm, t) != p[4]
                        and lcm_of(p[3].lm, t) != p[4])]
    for g, lcm in kept:
        if lcm != t + g.lm:
            degree = packing.degree(lcm)
            packing.check_degree(degree)
            pairs.append((degree, next(order), h, g, lcm))
    heapq.heapify(pairs)
    return [g for g in active if (g.lm + G - t) & G != G] + [h]


def _buchberger(gens: list[Monic], p: int, packing: Packing,
                deadline: Deadline | None) -> list[Monic] | None:
    """A minimal Groebner basis of the ideal of gens, whose coefficients have
    characteristic p, sorted by leading monomial; None if the deadline expires.

    Minimal: one monic element per minimal leading monomial.  Those monomials
    generate the leading ideal, so they do not depend on the order in which
    pairs are processed.
    """
    active: list[Monic] = []
    pairs: list = []
    order = itertools.count()
    for g in gens:
        active = _update(active, pairs, g, order, packing)
    reducers = [(g.lm, g) for g in active]
    while pairs:
        if deadline is not None and deadline.expired():
            return None
        _, _, f, g, _ = heapq.heappop(pairs)
        rem = normal_form(s_polynomial(f, g, packing), reducers, packing.guard, deadline)
        if rem is None:
            return None
        if rem:  # the first remainder term is the leading one
            active = _update(active, pairs, Monic(next(iter(rem)), rem, p), order, packing)
            reducers = [(g.lm, g) for g in active]
    G = packing.guard
    minimal = [g for k, g in enumerate(active)
               if not any((g.lm + G - o.lm) & G == G and (o.lm != g.lm or j < k)
                          for j, o in enumerate(active) if j != k)]
    # within one degree the grevlex-larger monomial is the smaller int
    minimal.sort(key=lambda g: (packing.degree(g.lm), -g.lm))
    return minimal


def groebner_basis(gens: list[HomogPoly], deadline: Deadline | None = None):
    """Leading monomials of a minimal grevlex Groebner basis of the ideal of
    gens over their field, sorted; None if the deadline expires."""
    return _minimal_leading_monomials(gens, (0, None), deadline)


@lru_cache(maxsize=None)
def modular_prime(N: int) -> tuple[int, int] | None:
    """(p, w): the least prime p = 1 (mod N) inside PRIME_RANGE, and the
    primitive N-th root of unity w = g^((p-1)/N) mod p for the least g >= 2
    that gives order N; None when the range holds no such prime.

    p = 1 (mod N) makes w exist and Phi_N(w) = 0 mod p, so zeta_N -> w is a
    ring map from Z[zeta_N] onto F_p, the residue map at a prime above p.
    """
    low, high = PRIME_RANGE
    prime_factors = factorize(N)
    for p in range(-(-low // N) * N + 1, high, N):
        if factorize(p) == {p: 1}:  # trial division: a few ms, once per conductor
            for g in itertools.count(2):
                w = pow(g, (p - 1) // N, p)
                if all(pow(w, N // q, p) != 1 for q in prime_factors):
                    return p, w
    return None


def modular_leading_monomials(gens: list[HomogPoly], deadline: Deadline | None = None):
    """Leading monomials of a minimal grevlex Groebner basis of the gens'
    image mod p, (p, w) = modular_prime(N); None if the deadline expires.

    [] when the reduction does not apply: no prime in range, or p divides a
    coefficient's denominator.  An empty list certifies nothing.
    """
    prime = modular_prime(gens[0].field.N) if gens else None
    return [] if prime is None else _minimal_leading_monomials(gens, prime, deadline)


def _minimal_leading_monomials(gens: list[HomogPoly], prime: tuple, deadline: Deadline | None):
    """The entry loop of both passes: the sorted leading monomials of
    `_buchberger`'s minimal basis, as exponent tuples; None if the deadline
    expires.

    prime is (0, None) for the exact pass, whose coefficients enter as they
    are, or (p, w) for the image under zeta_N -> w mod p, which is [] when a
    coefficient has none.  A generator whose image is zero is left out.
    """
    if not gens:
        return []
    p, w = prime
    packing = Packing(gens[0].nvars)
    monics = []
    for g in gens:
        packing.check_degree(g.degree)
        terms = {}
        for m, c in g.terms.items():
            if p:
                c = _residue(c, p, w)
                if c is None:
                    return []
            if c:
                terms[packing.pack(m)] = c
        if terms:
            monics.append(Monic(min(terms), terms, p))
    basis = _buchberger(monics, p, packing, deadline)
    return None if basis is None else [packing.unpack(g.lm) for g in basis]


def leading_pure_powers(leads: list, nvars: int) -> list[bool]:
    """For each variable, whether some pure power of it is among the leading monomials."""
    out = [False] * nvars
    for lm in leads:
        nz = [i for i, e in enumerate(lm) if e]
        if len(nz) == 1:
            out[nz[0]] = True
    return out
