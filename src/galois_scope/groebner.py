"""Buchberger Groebner-basis kernel in grevlex order.

Only what the smoothness certificate needs.  Every basis element is monic and
carries its leading monomial.  A normal form reduces a mutable term dict and
takes each next leading term from a heap.  S-pairs leave a heap in order of
lcm degree (normal selection), and the update of Gebauer and Moeller ("On an
installation of Buchberger's algorithm", J. Symb. Comp. 6, 1988) applies
Buchberger's coprime and chain criteria as each element enters the basis.

One loop serves two coefficient domains, told apart by the characteristic p
that every basis element carries: p = 0 for exact field elements
(`groebner_basis`), a prime p for ints in [0, p) (`modular_leading_monomials`,
the image of the ideal under a reduction Z[zeta_N] -> F_p).  A cooperative
deadline is checked at every pair and at every reduction step.
"""
from __future__ import annotations

import heapq
import itertools
import time
from functools import lru_cache
from operator import add, le, sub

from .exactnum import factorize
from .polyring import HomogPoly, grevlex_key

# the modular pass works mod the least prime p = 1 (mod N) in this open range
PRIME_RANGE = (2**29, 2**30)


class Deadline:
    """Cooperative time budget; None means no limit."""

    def __init__(self, seconds=None):
        self.limit = None if seconds is None else time.monotonic() + seconds

    def expired(self) -> bool:
        return self.limit is not None and time.monotonic() > self.limit


class Monic:
    """A polynomial {exponents: coefficient} scaled so that the coefficient of
    its leading monomial lm is 1, over the field of characteristic p: exact
    field elements for p = 0, ints in [0, p) for a prime p."""

    __slots__ = ("lm", "terms", "p")

    def __init__(self, lm, terms: dict, p: int = 0):
        self.lm = lm
        self.p = p
        if p:
            inv = pow(terms[lm], -1, p)
            self.terms = {m: c * inv % p for m, c in terms.items()}
        else:
            inv = terms[lm].inverse()
            self.terms = {m: c * inv for m, c in terms.items()}


def _divides(m1, m2) -> bool:
    return all(map(le, m1, m2))


def _mono_lcm(m1, m2):
    return tuple(map(max, m1, m2))


def _coprime(m1, m2) -> bool:
    return not any(a and b for a, b in zip(m1, m2))


def _add_multiple(work: dict, c, shift, g: Monic, heap=None) -> None:
    """work += c * x^shift * (g - its leading term), in place, mod g.p if it is a prime.

    A monomial that enters work goes on the heap (if one is given) keyed on
    its reversed exponents, even when it was there before and cancelled.
    """
    p = g.p
    for gm, gc in g.terms.items():
        if gm == g.lm:
            continue
        mono = tuple(map(add, shift, gm))
        d = c * gc
        v = work.get(mono)
        if v is None:
            work[mono] = d % p if p else d
            if heap is not None:
                heapq.heappush(heap, mono[::-1])
        else:
            v += d
            if p:
                v %= p
            if v:
                work[mono] = v
            else:
                del work[mono]


def normal_form(work: dict, basis: list[Monic], deadline: Deadline | None = None):
    """Remainder of the homogeneous {exponents: coefficient} work under
    division by the basis, in descending grevlex order; None on deadline expiry.

    work is consumed.  Among monomials of one degree the grevlex largest has
    the least reversed exponent tuple, so a min-heap of those tuples yields
    the leading terms in turn.  Entries whose term has cancelled are skipped.
    """
    heap = [m[::-1] for m in work]
    heapq.heapify(heap)
    rem: dict = {}
    while heap:
        if deadline is not None and deadline.expired():
            return None
        m = heapq.heappop(heap)[::-1]
        c = work.pop(m, None)
        if c is None:
            continue
        for g in basis:
            if _divides(g.lm, m):
                _add_multiple(work, -c, tuple(map(sub, m, g.lm)), g, heap)
                break
        else:
            rem[m] = c
    return rem


def s_polynomial(f: Monic, g: Monic) -> dict:
    """x^(L - lm f) f - x^(L - lm g) g with L = lcm(lm f, lm g); the leading terms cancel."""
    lcm = _mono_lcm(f.lm, g.lm)
    shift = tuple(map(sub, lcm, f.lm))
    out = {tuple(map(add, shift, m)): c for m, c in f.terms.items() if m != f.lm}
    _add_multiple(out, -g.terms[g.lm], tuple(map(sub, lcm, g.lm)), g)
    return out


def _update(active: list[Monic], pairs: list, h: Monic, order) -> list[Monic]:
    """Gebauer-Moeller update as h enters the basis; returns the new active set.

    pairs is a heap of (lcm degree, insertion order, f, g, lcm), filtered in
    place.  A new pair (h, g) with lm h, lm g not coprime is dropped when the
    lcm of a later new pair, or of one already kept, divides its lcm (chain
    criterion); coprime pairs take part in that test and are dropped after it
    (coprime criterion).  An old pair (f, g) is dropped when lm h divides its
    lcm and lcm(lm f, lm h), lcm(lm g, lm h) both differ from it.  An active
    element whose leading monomial lm h divides leaves the active set.
    """
    t = h.lm
    new = [(g, _mono_lcm(t, g.lm)) for g in active]
    kept = []
    for k, (g, lcm) in enumerate(new):
        if (_coprime(t, g.lm)
                or not any(_divides(other, lcm) for _, other in new[k + 1:])
                and not any(_divides(other, lcm) for _, other in kept)):
            kept.append((g, lcm))
    pairs[:] = [p for p in pairs
                if not (_divides(t, p[4])
                        and _mono_lcm(p[2].lm, t) != p[4]
                        and _mono_lcm(p[3].lm, t) != p[4])]
    pairs.extend((sum(lcm), next(order), h, g, lcm)
                 for g, lcm in kept if not _coprime(t, g.lm))
    heapq.heapify(pairs)
    return [g for g in active if not _divides(t, g.lm)] + [h]


def _buchberger(gens: list[Monic], p: int, deadline: Deadline | None) -> list[Monic] | None:
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
        active = _update(active, pairs, g, order)
    while pairs:
        if deadline is not None and deadline.expired():
            return None
        _, _, f, g, _ = heapq.heappop(pairs)
        rem = normal_form(s_polynomial(f, g), active, deadline)
        if rem is None:
            return None
        if rem:  # the first remainder term is the leading one
            active = _update(active, pairs, Monic(next(iter(rem)), rem, p), order)
    minimal = [g for k, g in enumerate(active)
               if not any(_divides(o.lm, g.lm) and (o.lm != g.lm or j < k)
                          for j, o in enumerate(active) if j != k)]
    minimal.sort(key=lambda g: grevlex_key(g.lm))
    return minimal


def groebner_basis(gens: list[HomogPoly], deadline: Deadline | None = None):
    """Minimal Groebner basis of the ideal (grevlex) over the gens' field,
    sorted by leading monomial; None if the deadline expires."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    field, nvars = gens[0].field, gens[0].nvars
    basis = _buchberger([Monic(g.leading_monomial(), g.terms) for g in gens], 0, deadline)
    if basis is None:
        return None
    return [HomogPoly(field, nvars, sum(g.lm), g.terms) for g in basis]


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


def _residue(c, p: int, w: int) -> int | None:
    """The image of a CycloNum under zeta_N -> w mod p; None when p divides
    its denominator."""
    tag = c.tag
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


def modular_leading_monomials(gens: list[HomogPoly], deadline: Deadline | None = None):
    """Leading monomials of a minimal grevlex Groebner basis of the gens'
    image mod p, (p, w) = modular_prime(N); None if the deadline expires.

    [] when the reduction does not apply: no prime in range, or p divides a
    coefficient's denominator.  An empty list certifies nothing.
    """
    if not gens:
        return []
    prime = modular_prime(gens[0].field.N)
    if prime is None:
        return []
    p, w = prime
    images = []
    for g in gens:
        terms = {}
        for m, c in g.terms.items():
            r = _residue(c, p, w)
            if r is None:
                return []
            if r:
                terms[m] = r
        if terms:
            images.append(Monic(max(terms, key=grevlex_key), terms, p))
    basis = _buchberger(images, p, deadline)
    return None if basis is None else [g.lm for g in basis]


def leading_pure_powers(leads: list, nvars: int) -> list[bool]:
    """For each variable, whether some pure power of it is among the leading monomials."""
    out = [False] * nvars
    for lm in leads:
        nz = [i for i, e in enumerate(lm) if e]
        if len(nz) == 1:
            out[nz[0]] = True
    return out
