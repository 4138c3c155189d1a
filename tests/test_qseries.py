"""Truncated q-series: eta quotients, coset/Fock characters, identities."""

import random
from fractions import Fraction

import pytest

from qsl3.qseries import (
    CENTRAL_CHARGE,
    VACUUM_CHAR_EXPANSION,
    QSeries,
    coset8_char,
    delta_from_leading,
    eta_inv_qu,
    eta_inv_sq,
    fock_char,
    standard_char_identity,
)
from qsl3.kl import conformal_delta
from qsl3.repmod import Character
from qsl3.weights import ALPHA1, ALPHA2, OMEGA1, ZERO, Weight, killing

from conftest import W


# -- independent oracle: pentagonal-number expansion of the Euler product


def euler_coeffs(order):
    """Coefficients of prod_n (1 - q^n) via the pentagonal number theorem."""
    e = [0] * order
    e[0] = 1
    k = 1
    while True:
        done = True
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g < order:
                e[g] = (-1) ** k
                done = False
        if done:
            break
        k += 1
    return e


def convolve(a, b, order):
    out = [0] * order
    for i, x in enumerate(a[:order]):
        if x:
            for j, y in enumerate(b[: order - i]):
                out[i + j] += x * y
    return out


def invert_series(p, order):
    """Coefficients of 1/p with p[0] == 1, by the standard recurrence."""
    inv = [0] * order
    inv[0] = 1
    for n in range(1, order):
        inv[n] = -sum(p[k] * inv[n - k] for k in range(1, n + 1))
    return inv


def int_coeffs(s):
    out = []
    for c in s.coeffs:
        assert set(c.terms) <= {ZERO}
        out.append(c.terms.get(ZERO, 0))
    return out


def test_eta_inv_sq_matches_partition_convolution_oracle():
    order = 50
    e = euler_coeffs(order)
    oracle = invert_series(convolve(e, e, order), order)
    s = eta_inv_sq(order)
    assert s.lead == Fraction(-1, 12)
    assert int_coeffs(s) == oracle


def test_eta_inv_qu_is_square_of_eta_inv_sq():
    order = 30
    sq = eta_inv_sq(order)
    prod = sq * sq
    qu = eta_inv_qu(order)
    assert prod.agrees_with(qu)
    assert qu.lead == Fraction(-1, 6)


def test_eta_inverse_defining_identity():
    order = 40
    e = euler_coeffs(order)
    euler_sq = QSeries(1, Fraction(1, 12), convolve(e, e, order))
    one = QSeries(1, 0, [1])
    assert (eta_inv_sq(order) * euler_sq).agrees_with(one)


def test_documented_leading_coefficients():
    assert int_coeffs(eta_inv_sq(12))[:4] == [1, 2, 5, 10]
    lead, coeffs = VACUUM_CHAR_EXPANSION
    assert lead == Fraction(5, 12)
    assert coeffs == (1, 0, 1, 2, 5)
    assert CENTRAL_CHARGE == -8


# -- QSeries arithmetic ------------------------------------------------


def test_add_aligns_denominators_and_leads():
    a = QSeries(2, Fraction(-1, 2), [1, 2, 3])
    b = QSeries(3, 0, [4, 5])
    s = a + b
    assert s.den == 6
    assert s.lead == Fraction(-1, 2)
    assert s.coeff(Fraction(-1, 2)).terms == {ZERO: 1}
    assert s.coeff(0).terms == {ZERO: 2 + 4}
    assert s.cutoff == min(a.cutoff, b.cutoff)


def test_mul_leads_add_and_window_is_conservative():
    a = QSeries(1, 1, [1, 1])
    b = QSeries(1, 2, [1, 1, 1])
    p = a * b
    assert p.lead == 3
    # valid strictly below min(a.cutoff + b.lead, b.cutoff + a.lead) = 5
    assert p.cutoff == 5
    assert int_coeffs(p) == [1, 2]


def test_scalar_and_character_multiplication():
    a = QSeries(1, 0, [1, 2])
    assert int_coeffs(3 * a) == [3, 6]
    z = a * Character({ALPHA1: 1})
    assert z.coeff(0).terms == {ALPHA1: 1}
    assert z.coeff(1).terms == {ALPHA1: 2}


def test_shifts_and_coeff_access():
    a = QSeries(2, 0, [1, 0, 1])
    assert a.shift_q(Fraction(1, 2)).lead == Fraction(1, 2)
    assert a.shift_z(ALPHA2).coeff(0).terms == {ALPHA2: 1}
    assert a.coeff(Fraction(-3)).terms == {}       # below the lead
    assert a.coeff(Fraction(1, 4)).terms == {}     # off the exponent grid
    with pytest.raises(ValueError):
        a.coeff(Fraction(3, 2))                    # beyond the truncation
    with pytest.raises(ValueError):
        a.rescale(3)
    with pytest.raises(ValueError):
        QSeries(1, 0, [0, 0]).leading_exponent()
    with pytest.raises(ValueError):
        QSeries(0, 0, [1])
    with pytest.raises(ValueError):
        eta_inv_sq(0)


def test_agrees_with_compares_only_the_common_window():
    a = QSeries(1, 0, [1, 2, 3])
    b = QSeries(1, 0, [1, 2])
    assert a.agrees_with(b)
    assert a.agreement_window(b) == 2
    c = QSeries(1, 0, [1, 5])
    assert not a.agrees_with(c)


# -- characters and conformal weights ----------------------------------


def test_coset_and_fock_leading_exponents():
    lam = W(1, 0)
    assert coset8_char(lam, 5).lead == Fraction(1, 3) * killing(lam, lam) - Fraction(1, 12)
    f = fock_char(lam, 5)
    assert f.lead == -Fraction(1, 3) * killing(lam, lam) - Fraction(1, 12)
    assert f.coeff(f.lead).terms == {lam: 1}


def test_delta_from_leading_matches_closed_form():
    rng = random.Random("delta-pairs")
    for _ in range(100):
        lam = Weight(Fraction(rng.randrange(-6, 7), 2), Fraction(rng.randrange(-6, 7), 2))
        mu = Weight(Fraction(rng.randrange(-6, 7), 2), Fraction(rng.randrange(-6, 7), 2))
        assert delta_from_leading(lam, mu) == conformal_delta(lam, mu)


def test_standard_char_identity_windows():
    mu = W(Fraction(1, 5), Fraction(2, 5))
    window = [mu + i * ALPHA1 + j * ALPHA2 for i in range(-2, 3) for j in range(-2, 3)]
    for omega in (ZERO, OMEGA1):
        report = standard_char_identity(mu, omega, 25, window)
        assert report["match"]
        assert report["terms"] == 25
        assert not report["vacuous"]
        assert report["window"] >= 20  # coefficientwise through q^20


def test_standard_char_identity_empty_window_is_vacuous():
    report = standard_char_identity(W(0, 0), ZERO, 5, [])
    assert report["vacuous"] and report["match"] and report["terms"] == 0


def test_standard_char_identity_rejects_a_window_off_mu_plus_q():
    mu = W(Fraction(1, 5), Fraction(2, 5))
    with pytest.raises(ValueError):
        standard_char_identity(mu, ZERO, 5, [mu, mu + OMEGA1])  # omega1 is not in Q
