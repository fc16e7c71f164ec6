import random
from fractions import Fraction

import pytest

from galois_scope.errors import ParseError
from galois_scope.exactnum import cyclo_field
from galois_scope.parsing import (
    parse_matrix,
    parse_point,
    parse_polynomial,
    parse_scalar,
    render_poly,
    render_scalar,
)
from galois_scope.polyring import HomogPoly

Q = cyclo_field(1)


def test_parse_fermat():
    f = parse_polynomial("x0^4 + x1^4 + x2^4", 3, Q)
    assert f.degree == 4
    assert f.terms == HomogPoly.from_terms(Q, 3, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}).terms


def test_parse_sextic():
    f = parse_polynomial("x2^6 + x0^5*x2 + x1^5*x2 + x0^3*x1^3", 3, Q)
    assert f.degree == 6
    assert len(f.terms) == 4


def test_parse_inhomogeneous_error_names_term():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x0^4 + x1^3", 3, Q)
    assert "term 2" in str(err.value)


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        parse_polynomial("x0^2 + x5^2", 3, Q)


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x0^4 + @", 3, Q)
    assert err.value.pos == 7


def test_parse_coefficients():
    F5 = cyclo_field(5)
    f = parse_polynomial("2*x0^2 - 1/2*x1^2 + z(5)^3*x0*x1", 2, F5)
    assert f.coefficient((2, 0)).rational() == 2
    assert f.coefficient((0, 2)).rational() == Fraction(-1, 2)
    assert f.coefficient((1, 1)) == F5.zeta(3)


def test_parse_leading_minus():
    f = parse_polynomial("-x0^2 + x1^2", 2, Q)
    assert f.coefficient((2, 0)).rational() == -1


def test_parse_scalar_forms():
    F4 = cyclo_field(4)
    assert parse_scalar("3/2", F4).rational() == Fraction(3, 2)
    assert parse_scalar("z(4)", F4) == F4.zeta()
    assert parse_scalar("z(4)^-1", F4) == F4.zeta(3)
    assert parse_scalar("z(2)", F4) == -1
    assert parse_scalar("2*z(4)", F4) == F4.zeta() * 2
    assert parse_scalar("1 + z(4)", F4) == F4.one + F4.zeta()
    assert parse_scalar("0", F4).is_zero()
    with pytest.raises(ParseError):
        parse_scalar("z(3)", F4)
    with pytest.raises(ParseError):
        parse_scalar("x0", F4)


def test_parse_scalar_roots_of_order_dividing_lcm_2_n():
    # Q(zeta_N) holds zeta_M for every M | lcm(2, N), odd N included
    F5 = cyclo_field(5)
    assert parse_scalar("z(2)", Q) == -1
    assert parse_scalar("z(10)", F5) == -F5.zeta(3)
    assert parse_scalar("z(10)^2", F5) == F5.zeta()
    assert parse_scalar("z(6)", cyclo_field(3)) == -cyclo_field(3).zeta(2)
    for text, field in (("z(4)", Q), ("z(20)", F5), ("z(4)", cyclo_field(6))):
        with pytest.raises(ParseError):
            parse_scalar(text, field)


def test_render_scalar_round_trip():
    F12 = cyclo_field(12)
    rng = random.Random(33)
    samples = [F12.zero, F12.one, -F12.one, F12.zeta(5), F12.zeta() * Fraction(-3, 2)]
    for _ in range(20):
        samples.append(F12.element([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                    for _ in range(F12.degree)]))
    for x in samples:
        assert parse_scalar(render_scalar(x), F12) == x


def test_render_scalar_depends_on_the_value_only():
    """z(7)^6 built as a tag and from its power basis coordinates, which
    are all -1, renders the same; so does a rational value built densely."""
    F7 = cyclo_field(7)
    assert render_scalar(F7.element(F7.zeta(6).coeffs)) == render_scalar(F7.zeta(6)) == "z(7)^6"
    assert render_scalar(F7.element([Fraction(-4, 6), 0, 0])) == "-2/3"


def test_render_poly_round_trip():
    F5 = cyclo_field(5)
    corpus = [
        parse_polynomial("x0^4 + x1^4 + x2^4", 3, Q),
        parse_polynomial("x2^6 + x0^5*x2 + x1^5*x2 + x0^3*x1^3", 3, Q),
        parse_polynomial("-2*x0^2 + 1/3*x1*x2 + z(5)*x2^2", 3, F5),
        parse_polynomial("x0^3*x2 + x1^3*x3 + x2^4 + x3^4", 4, Q),
    ]
    for f in corpus:
        assert parse_polynomial(render_poly(f), f.nvars, f.field) == f


def test_render_poly_dense_coefficient_round_trip():
    F5 = cyclo_field(5)
    c = F5.one + F5.zeta()  # dense coefficient splits into two rendered terms
    f = HomogPoly.from_terms(F5, 2, {(1, 1): c})
    text = render_poly(f)
    assert parse_polynomial(text, 2, F5) == f


def test_render_zero():
    f = HomogPoly.zero(Q, 3, 4)
    assert render_poly(f) == "0"
    assert render_scalar(Q.zero) == "0"


def test_parse_matrix_and_point():
    F5 = cyclo_field(5)
    M = parse_matrix([["z(5)^3", "0", "0"], ["0", "z(5)^2", "0"], ["0", "0", "1"]], F5, 3)
    assert M.rows[0][0] == F5.zeta(3)
    assert M.rows[2][2] == 1
    p = parse_point(["1", "0", "-1"], F5, 3)
    assert p[0] == 1 and p[2] == -1


@pytest.mark.parametrize("rows", [
    [["1", "1", "0"], ["2", "2", "0"], ["0", "0", "1"]],  # singular
    [["1", "0"], ["0", "1"]],  # 2 x 2 where 3 x 3 is needed
    [["1", "0", "0"], ["0", "1"], ["0", "0", "1"]],  # ragged
    [["1", None, "0"], ["0", "1", "0"], ["0", "0", "1"]],  # not a number
])
def test_parse_matrix_rejects(rows):
    with pytest.raises(ParseError):
        parse_matrix(rows, cyclo_field(1), 3)
