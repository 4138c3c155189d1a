"""Cyclotomic field arithmetic: axioms, embeddings, i-powers."""

from fractions import Fraction
from math import gcd

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
ORDERS = (4, 8, 12, 24)  # every field order the package uses

rats = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)


def cyc(coeffs):
    return CycNum(ORDER, list(coeffs) + [Fraction(0)] * (DEG - len(coeffs)))


def cyc_of(order):
    """An element of Q(zeta_order)."""
    deg = field_degree(order)
    return st.lists(rats, min_size=deg, max_size=deg).map(lambda c: CycNum(order, c))


def cycs_any_order(n):
    """n elements of one field, its order drawn from ORDERS."""
    return st.sampled_from(ORDERS).flatmap(lambda order: st.tuples(*[cyc_of(order)] * n))


cyc_any_order = st.sampled_from(ORDERS).flatmap(cyc_of)


# -- ring/field axioms -------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(cycs_any_order(3))
def test_ring_axioms(abc):
    a, b, c = abc
    zero, one = CycNum.zero(a.order), CycNum.one(a.order)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a
    assert a * one == a
    assert a - a == zero


@settings(max_examples=80, deadline=None)
@given(cyc_any_order)
def test_multiplicative_inverse(a):
    if a.is_zero():
        with pytest.raises(DivisionByZero):
            a.inv()
    else:
        assert a * a.inv() == CycNum.one(a.order)


@settings(max_examples=80, deadline=None)
@given(cyc_any_order, st.integers(-3, 4))
def test_power_is_the_repeated_product(a, n):
    if a.is_zero() and n < 0:
        with pytest.raises(DivisionByZero):
            a ** n
        return
    want = CycNum.one(a.order)
    for _ in range(abs(n)):
        want = want * a
    if n < 0:
        want = want.inv()
    assert a ** n == want
    if n == -1:
        assert a ** -1 == a.inv()


# -- differential check against per-coefficient Fraction arithmetic ----
#
# The reference keeps one Fraction per coefficient of zeta^k, reduces by
# long division by Phi_N and inverts by the extended Euclidean algorithm in
# Q[x], so it shares no step with CycNum's integer numerators, reduction
# tables and Galois-norm inverse.


def ref_reduce(raw, order):
    """Fraction coefficients of sum(raw[k] zeta^k) modulo Phi_order."""
    phi = cyclotomic_poly(order)
    deg = len(phi) - 1
    folded = [Fraction(0)] * order
    for k, c in enumerate(raw):
        folded[k % order] += c
    for k in range(order - 1, deg - 1, -1):
        c = folded[k]
        if c:
            for j in range(deg + 1):
                folded[k - deg + j] -= c * phi[j]
    return tuple(folded[:deg])


def ref_mul(a, b, order):
    raw = [Fraction(0)] * (len(a) + len(b) - 1)
    for k, x in enumerate(a):
        for l, y in enumerate(b):
            raw[k + l] += x * y
    return ref_reduce(raw, order)


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _polydivmod(num, den):
    num, dd = list(num), len(den) - 1
    quot = [Fraction(0)] * max(1, len(num) - dd)
    for k in range(len(num) - 1 - dd, -1, -1):
        c = quot[k] = num[k + dd] / den[-1]
        for j, d in enumerate(den):
            num[k + j] -= c * d
    return _trim(quot), _trim(num[:dd] or [Fraction(0)])


def _polysub_mul(s, q, t):
    """s - q * t."""
    out = list(s) + [Fraction(0)] * max(0, len(q) + len(t) - 1 - len(s))
    for k, x in enumerate(q):
        for l, y in enumerate(t):
            out[k + l] -= x * y
    return out


def ref_inv(a, order):
    """Inverse by extended Euclid: u * a + v * Phi = c, a nonzero constant."""
    r0, r1 = [Fraction(c) for c in cyclotomic_poly(order)], _trim(a)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        q, r = _polydivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _polysub_mul(s0, q, s1)
    return ref_reduce([x / r1[0] for x in s1], order)


def ref_monomial(order, power):
    raw = [Fraction(0)] * order
    raw[power % order] = Fraction(1)
    return ref_reduce(raw, order)


def fracs(x):
    """x's coefficients as Fractions, after checking its canonical form."""
    assert x.den > 0
    assert gcd(x.den, *x.coeffs) == 1
    assert all(isinstance(c, int) for c in x.coeffs)
    return tuple(Fraction(c, x.den) for c in x.coeffs)


@settings(max_examples=80, deadline=None)
@given(cycs_any_order(2), st.integers(-3, 4))
def test_arithmetic_matches_the_fraction_reference(ab, n):
    a, b = ab
    order = a.order
    fa, fb = fracs(a), fracs(b)
    assert fracs(a + b) == tuple(x + y for x, y in zip(fa, fb))
    assert fracs(a - b) == tuple(x - y for x, y in zip(fa, fb))
    assert fracs(a * b) == ref_mul(fa, fb, order)
    if b:
        assert fracs(b.inv()) == ref_inv(fb, order)
        assert fracs(a / b) == ref_mul(fa, ref_inv(fb, order), order)
    if a or n >= 0:
        want = ref_reduce([Fraction(1)], order)
        for _ in range(abs(n)):
            want = ref_mul(want, fa, order)
        assert fracs(a ** n) == (ref_inv(want, order) if n < 0 else want)
    # equal values built two ways are equal, with equal hashes
    for x, y in ((a * b, b * a), ((a + b) - b, a), (CycNum(order, fa), a)):
        assert x == y and hash(x) == hash(y)


def ref_embed(a, order, target):
    raw = [Fraction(0)] * target
    for j, c in enumerate(a):
        raw[j * (target // order)] += c
    return ref_reduce(raw, target)


@settings(max_examples=40, deadline=None)
@given(cyc_of(4), cyc_of(12))
def test_embed_zeta_and_i_power_match_the_reference(a4, a12):
    a8 = a4.embed(8)
    assert fracs(a8) == ref_embed(fracs(a4), 4, 8)
    assert fracs(a8.embed(24)) == ref_embed(fracs(a8), 8, 24) == ref_embed(fracs(a4), 4, 24)
    assert a8.embed(24) == a4.embed(24)
    assert fracs(a12.embed(24)) == ref_embed(fracs(a12), 12, 24)
    for order in ORDERS:
        for k in range(-order, 2 * order):
            assert fracs(CycNum.zeta(order, k)) == ref_monomial(order, k)
        for den in (1, 2, 3, 6):
            if order % (4 * den) == 0:
                for num in range(-2 * den, 4 * den + 1):
                    want = ref_monomial(order, num * order // (4 * den))
                    assert fracs(i_power(Fraction(num, den), order)) == want


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
