"""Cyclotomic field arithmetic: axioms, embeddings, i-powers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsl3.exact import (
    CycNum,
    DivisionByZero,
    FieldMismatch,
    cyclotomic_poly,
    field_degree,
    field_order_for,
    fmt_rat,
    i_power,
    parse_rat,
)

ORDER = 8
DEG = field_degree(ORDER)

rats = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)


def cyc(coeffs):
    return CycNum(ORDER, list(coeffs) + [Fraction(0)] * (DEG - len(coeffs)))


cycs = st.lists(rats, min_size=DEG, max_size=DEG).map(cyc)


# -- ring/field axioms -------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(cycs, cycs, cycs)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + CycNum.zero(ORDER) == a
    assert a * CycNum.one(ORDER) == a
    assert a - a == CycNum.zero(ORDER)


@settings(max_examples=60, deadline=None)
@given(cycs)
def test_multiplicative_inverse(a):
    if a.is_zero():
        with pytest.raises(DivisionByZero):
            a.inv()
    else:
        assert a * a.inv() == CycNum.one(ORDER)


@settings(max_examples=60, deadline=None)
@given(cycs, st.integers(-3, 4))
def test_power_is_the_repeated_product(a, n):
    if a.is_zero() and n < 0:
        with pytest.raises(DivisionByZero):
            a ** n
        return
    want = CycNum.one(ORDER)
    for _ in range(abs(n)):
        want = want * a
    if n < 0:
        want = want.inv()
    assert a ** n == want
    if n == -1:
        assert a ** -1 == a.inv()


def test_zeta_is_primitive_root():
    z = CycNum.zeta(ORDER)
    powers = set()
    p = CycNum.one(ORDER)
    for _ in range(ORDER):
        powers.add(repr(p))
        p = p * z
    assert p == CycNum.one(ORDER)
    assert len(powers) == ORDER


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_poly(4) == (Fraction(1), Fraction(0), Fraction(1))
    # phi_8(x) = x^4 + 1
    assert cyclotomic_poly(8) == (Fraction(1), 0, 0, 0, Fraction(1))
    z = CycNum.zeta(12)
    assert z ** 12 == CycNum.one(12)
    assert z ** 6 == -CycNum.one(12)


def test_embed_is_a_homomorphism():
    a = cyc([1, 2, 0, Fraction(1, 2)])
    b = cyc([0, -1, 3, 0])
    for x, y in [(a, b), (a, a)]:
        assert (x * y).embed(24) == x.embed(24) * y.embed(24)
        assert (x + y).embed(24) == x.embed(24) + y.embed(24)
    assert CycNum.zeta(8).embed(24) == CycNum.zeta(24, 3)


def test_cross_order_arithmetic():
    # mixed orders embed into the lcm field; non-divisible embeds fail
    s = CycNum.zeta(8) + CycNum.zeta(12)
    assert s.order == 24
    assert s == CycNum.zeta(24, 3) + CycNum.zeta(24, 2)
    with pytest.raises(FieldMismatch):
        CycNum.zeta(8).embed(12)


def test_rational_round_trip():
    x = Fraction(-7, 3)
    c = CycNum.from_rat(x, ORDER)
    assert c.is_rat() and c.as_rat() == x
    assert not CycNum.zeta(ORDER).is_rat()


# -- i-powers ----------------------------------------------------------


def test_i_power_integers():
    one = CycNum.one(ORDER)
    i = i_power(1, ORDER)
    assert i * i == -one
    assert i_power(2, ORDER) == -one
    assert i_power(4, ORDER) == one
    assert i_power(0, ORDER) == one
    assert i_power(-1, ORDER) == i.inv()


def test_i_power_halves_and_mismatch():
    h = i_power(Fraction(1, 2), ORDER)
    assert h * h == i_power(1, ORDER)
    with pytest.raises(FieldMismatch):
        i_power(Fraction(1, 3), ORDER)


def test_field_order_for():
    assert field_order_for([1]) == 4
    assert field_order_for([1, 2]) == 8
    assert field_order_for([2, 3]) == 24
    assert field_order_for([2, 4]) == 16


# -- rational formatting ----------------------------------------------


def test_parse_and_format_rats():
    assert parse_rat("3/2") == Fraction(3, 2)
    assert parse_rat("-5") == Fraction(-5)
    assert fmt_rat(Fraction(3, 2)) == "3/2"
    assert fmt_rat(Fraction(4, 2)) == "2"
    with pytest.raises(ValueError):
        parse_rat("x")


def test_json_round_trip():
    a = cyc([1, Fraction(1, 2), 0, -3])
    assert CycNum.from_json(a.to_json()) == a
