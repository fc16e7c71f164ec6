"""Text forms: the polynomial expression grammar and canonical rendering.

Grammar (whitespace insensitive):

    poly     := ['+'|'-'] term (('+'|'-') term)*
    term     := item ('*' item)*
    item     := rational | zeta | var ['^' nat]
    zeta     := 'z' '(' nat ')' ['^' ['-'] nat]
    var      := 'x' digit+
    rational := nat ['/' nat]

Signs live on the term separators; rationals inside a term are unsigned.
Scalars (matrix entries, points) use the same grammar without variables.
"""
from __future__ import annotations

import sys
from fractions import Fraction

from .errors import ConductorMismatch, ParseError
from .exactnum import CycloField, CycloNum, cyclo_field, root_of_unity
from .polyring import HomogPoly

MAX_CONDUCTOR = 100_000  # Phi_N and x^N - 1 are lists of about N integers


def int_literal(digits: str, pos=None) -> int:
    """The integer written as digits, as read from text or JSON: a literal
    that int() refuses, past the interpreter's limit on the digits of an
    int-string conversion or with a digit such as '²', is a ParseError."""
    try:
        return int(digits)
    except ValueError:
        n, limit = len(digits.lstrip("-")), sys.get_int_max_str_digits()
        raise ParseError(f"an integer literal of {n} digits, above the limit of {limit}"
                         if n > limit else f"{digits!r} is not a decimal integer", pos) from None


class _Lexer:
    def __init__(self, text: str):
        if not isinstance(text, str):
            raise ParseError(f"expected text, found {text!r}")
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, object, int]] = []
        self._scan()
        self.idx = 0

    def _scan(self):
        t = self.text
        i = 0
        while i < len(t):
            c = t[i]
            if c.isspace():
                i += 1
                continue
            if c.isdigit():
                j = i
                while j < len(t) and t[j].isdigit():
                    j += 1
                self.tokens.append(("nat", int_literal(t[i:j], i), i))
                i = j
                continue
            if c == "x" and i + 1 < len(t) and t[i + 1].isdigit():
                j = i + 1
                while j < len(t) and t[j].isdigit():
                    j += 1
                self.tokens.append(("var", int_literal(t[i + 1:j], i + 1), i))
                i = j
                continue
            if c == "z":
                self.tokens.append(("z", None, i))
                i += 1
                continue
            if c in "()^*/+-":
                self.tokens.append((c, None, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {c!r}", i)
        self.tokens.append(("end", None, len(t)))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok


def _parse_item(lex: _Lexer, field: CycloField):
    """One multiplicand: returns (coefficient | None, var_index | None, exponent)."""
    kind, value, pos = lex.peek()
    if kind == "nat":
        lex.next()
        if lex.peek()[0] == "/":
            lex.next()
            den = lex.expect("nat")[1]
            if den == 0:
                raise ParseError("zero denominator", pos)
            return field.from_rational(Fraction(value, den)), None, 1
        return field.from_rational(value), None, 1
    if kind == "z":
        lex.next()
        lex.expect("(")
        m = lex.expect("nat")[1]
        if m < 1:
            raise ParseError("z(0): a root of unity needs a positive order", pos)
        lex.expect(")")
        exp = 1
        if lex.peek()[0] == "^":
            lex.next()
            sign = 1
            if lex.peek()[0] == "-":
                lex.next()
                sign = -1
            exp = sign * lex.expect("nat")[1]
        try:
            return root_of_unity(field, m, exp), None, 1
        except ConductorMismatch as e:
            raise ParseError(str(e), pos) from None
    if kind == "var":
        lex.next()
        exp = 1
        if lex.peek()[0] == "^":
            lex.next()
            exp = lex.expect("nat")[1]
        return None, value, exp
    raise ParseError(f"expected a coefficient or variable, found {kind!r}", pos)


def _parse_term(lex: _Lexer, field: CycloField, nvars: int | None):
    coeff = field.one
    exps = [0] * (nvars or 0)
    while True:
        pos = lex.peek()[2]
        c, var, exp = _parse_item(lex, field)
        if c is not None:
            coeff = coeff * c
        else:
            if nvars is None:
                raise ParseError("variables are not allowed in a scalar", pos)
            if var >= nvars:
                raise ParseError(f"unknown variable x{var} (only {nvars} variables)", pos)
            exps[var] += exp
        if lex.peek()[0] == "*":
            lex.next()
            continue
        return coeff, tuple(exps)


def _parse_sum(lex: _Lexer, field: CycloField, nvars: int | None):
    terms = []
    sign = 1
    if lex.peek()[0] in ("+", "-"):
        sign = -1 if lex.next()[0] == "-" else 1
    while True:
        pos = lex.peek()[2]
        coeff, exps = _parse_term(lex, field, nvars)
        if sign < 0:
            coeff = -coeff
        terms.append((coeff, exps, pos))
        kind = lex.peek()[0]
        if kind in ("+", "-"):
            lex.next()
            sign = -1 if kind == "-" else 1
            continue
        lex.expect("end")
        return terms


def parse_scalar(text: str, field: CycloField) -> CycloNum:
    lex = _Lexer(text)
    total = field.zero
    for coeff, _, _ in _parse_sum(lex, field, None):
        total = total + coeff
    return total


def parse_polynomial(text: str, nvars: int, field: CycloField,
                     degree: int | None = None) -> HomogPoly:
    """Parse and validate a homogeneous polynomial; errors locate the term."""
    lex = _Lexer(text)
    parsed = _parse_sum(lex, field, nvars)
    seen_degree = degree
    terms: dict = {}
    for idx, (coeff, exps, pos) in enumerate(parsed, start=1):
        d = sum(exps)
        if seen_degree is None:
            seen_degree = d
        elif d != seen_degree and not coeff.is_zero():
            raise ParseError(
                f"term {idx} has degree {d}, expected {seen_degree} (inhomogeneous input)", pos)
        if exps in terms:
            terms[exps] = terms[exps] + coeff
        else:
            terms[exps] = coeff
    terms = {m: c for m, c in terms.items() if not c.is_zero()}
    if seen_degree is None:
        raise ParseError("empty polynomial", 0)
    return HomogPoly.from_terms(field, nvars, terms, degree=seen_degree)


# ---------------------------------------------------------------------------
# canonical rendering (round-trips through the parser)

def render_fraction(q: int | Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _scalar_parts(x: CycloNum) -> list[tuple[int | Fraction, int]]:
    """(rational, zeta exponent) pairs whose sum is x, exponents ascending."""
    tag = x.tag
    if tag is not None:
        c, k = tag
        return [] if c == 0 else [(c, k)]
    return [(c, k) for k, c in enumerate(x.coeffs) if c != 0]


def _render_part(c: int | Fraction, k: int, N: int, lead: bool, mono: str = "") -> str:
    """One signed term c*z(N)^k*mono of a rendered sum; a unit c is left out
    unless it is the whole term."""
    sign = "-" if c < 0 else ("" if lead else "+")
    mag = abs(c)
    factors = [render_fraction(mag)] if mag != 1 or not (k or mono) else []
    if k:
        factors.append(f"z({N})" if k == 1 else f"z({N})^{k}")
    if mono:
        factors.append(mono)
    body = "*".join(factors)
    return sign + body if lead else f"{sign} {body}"


def render_scalar(x: CycloNum) -> str:
    parts = _scalar_parts(x)
    if not parts:
        return "0"
    return " ".join(_render_part(c, k, x.field.N, i == 0) for i, (c, k) in enumerate(parts))


def render_poly(f: HomogPoly) -> str:
    """Grevlex-descending canonical text; non-monomial coefficients are split
    into one output term per power-basis component so the grammar stays flat."""
    if f.is_zero():
        return "0"
    chunks = []
    for mono, coeff in f.sorted_terms():
        vars_txt = "*".join(
            f"x{i}" if e == 1 else f"x{i}^{e}"
            for i, e in enumerate(mono) if e)
        for c, k in _scalar_parts(coeff):
            chunks.append(_render_part(c, k, f.field.N, not chunks, vars_txt))
    return " ".join(chunks)


def parse_entry(entry, field: CycloField) -> CycloNum:
    """One coordinate or matrix entry: scalar text or a JSON number."""
    if isinstance(entry, str):
        return parse_scalar(entry, field)
    try:
        return field.from_rational(entry)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"entry {entry!r} is neither a number nor scalar text") from None


def parse_point(entries, field: CycloField, size: int):
    """A point of P^(size-1): exactly `size` coordinates, not all zero."""
    if not isinstance(entries, (list, tuple)) or len(entries) != size:
        raise ParseError(f"point {entries!r} does not have {size} coordinates")
    p = tuple(parse_entry(e, field) for e in entries)
    if all(x.is_zero() for x in p):
        raise ParseError(f"point {entries!r} is the zero vector")
    return p


def parse_matrix(rows, field: CycloField, size: int):
    """An invertible size x size matrix, given as a list of rows."""
    from .projlin import ProjMatrix

    if not isinstance(rows, (list, tuple)) or len(rows) != size or any(
            not isinstance(r, (list, tuple)) or len(r) != size for r in rows):
        raise ParseError(f"matrix {rows!r} is not {size} x {size}")
    A = ProjMatrix.from_entries(field, [[parse_entry(e, field) for e in r] for r in rows])
    # a monomial matrix is invertible; only the others need the determinant
    if A.monomial_permutation() is None and A.det().is_zero():
        raise ParseError(f"matrix {rows!r} is singular")
    return A


def parse_count(value, what: str, most: int | None = None) -> int:
    """A positive integer given as input (n, d, a conductor), at most `most`:
    a JSON integer, not a float or a string."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ParseError(f"{what} {value!r} is not a positive integer")
    if most is not None and value > most:
        raise ParseError(f"{what} {value} exceeds the limit {most}")
    return value


def parse_field(conductor) -> CycloField:
    """Q(zeta_N) for a conductor N given as input; N must be a positive integer."""
    return cyclo_field(parse_count(conductor, "conductor", MAX_CONDUCTOR))
