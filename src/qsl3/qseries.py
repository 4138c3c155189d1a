"""Truncated q-series characters for the coset side.

A `QSeries` is a finite window of a formal series
sum_n c_n q^(lead + n/den), where each coefficient c_n is a finite
z-weight sum (`Character`).  Truncation is tracked conservatively: the
window of validity of a sum or product is the worst case over the
operands.  Everything is exact (Fraction exponents, integer z-weight
multiplicities).
"""

from fractions import Fraction
from functools import lru_cache

from .exact import fmt_rat
from .repmod import Character
from .weights import ZERO, killing

# central charge of the affine algebra the coset decomposes
CENTRAL_CHARGE = Fraction(-8)

# Documentation fixture: the vacuum-character expansion
# q^(5/12) (1 + q^2 + 2 q^3 + 5 q^4 + ...); its derivation needs the
# affine vacuum character, which this package does not compute.
VACUUM_CHAR_EXPANSION = (Fraction(5, 12), (1, 0, 1, 2, 5))


def _const(x):
    return Character({ZERO: x}) if x else Character()


class QSeries:
    """Truncated series: coeffs[n] multiplies q^(lead + n/den).

    Valid (all coefficients known) strictly below `cutoff`.
    """

    __slots__ = ("den", "lead", "coeffs")

    def __init__(self, den, lead, coeffs):
        if den < 1:
            raise ValueError("denominator must be a positive integer")
        self.den = int(den)
        self.lead = Fraction(lead)
        self.coeffs = [c if isinstance(c, Character) else _const(c) for c in coeffs]

    @property
    def cutoff(self):
        return self.lead + Fraction(len(self.coeffs), self.den)

    @property
    def order(self):
        return len(self.coeffs)

    # -- access --------------------------------------------------------

    def coeff(self, expo):
        """The coefficient of q^expo; zero below the lead, error past the cutoff."""
        expo = Fraction(expo)
        if expo >= self.cutoff:
            raise ValueError(f"exponent {expo} is beyond the truncation {self.cutoff}")
        step = (expo - self.lead) * self.den
        if step < 0:
            return Character()
        if step.denominator != 1:
            return Character()
        return self.coeffs[int(step)]

    def leading_exponent(self):
        """The exponent of the first non-zero coefficient."""
        for n, c in enumerate(self.coeffs):
            if c:
                return self.lead + Fraction(n, self.den)
        raise ValueError("series is zero on its window")

    # -- arithmetic ----------------------------------------------------

    def _align(self, other):
        den = self.den
        for d in (other.den, (self.lead - other.lead).denominator):
            den = den * d // _gcd(den, d)
        return self.rescale(den), other.rescale(den)

    def rescale(self, den):
        if den % self.den != 0:
            raise ValueError(f"cannot rescale denominator {self.den} to {den}")
        k = den // self.den
        coeffs = []
        for c in self.coeffs:
            coeffs.append(c)
            coeffs.extend([Character()] * (k - 1))
        return QSeries(den, self.lead, coeffs)

    def __add__(self, other):
        a, b = self._align(other)
        cut = min(a.cutoff, b.cutoff)
        lead = min(a.lead, b.lead)
        n = int((cut - lead) * a.den)
        coeffs = []
        for k in range(n):
            e = lead + Fraction(k, a.den)
            ca = a.coeff(e) if e < a.cutoff else Character()
            cb = b.coeff(e) if e < b.cutoff else Character()
            coeffs.append(ca + cb)
        return QSeries(a.den, lead, coeffs)

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QSeries(self.den, self.lead, [c * other for c in self.coeffs])
        if isinstance(other, Character):
            return QSeries(self.den, self.lead, [c * other for c in self.coeffs])
        if not isinstance(other, QSeries):
            return NotImplemented
        # only the step sizes need a common refinement; the leads add
        den = self.den * other.den // _gcd(self.den, other.den)
        a, b = self.rescale(den), other.rescale(den)
        # the product is fully known below min over both truncation tails
        cut = min(a.cutoff + b.lead, b.cutoff + a.lead)
        lead = a.lead + b.lead
        n = int((cut - lead) * a.den)
        coeffs = [Character() for _ in range(n)]
        for i, ca in enumerate(a.coeffs):
            if not ca:
                continue
            for j, cb in enumerate(b.coeffs):
                if i + j >= n:
                    break
                if cb:
                    coeffs[i + j] = coeffs[i + j] + ca * cb
        return QSeries(a.den, lead, coeffs)

    __rmul__ = __mul__

    def shift_q(self, expo):
        return QSeries(self.den, self.lead + Fraction(expo), list(self.coeffs))

    def shift_z(self, w):
        return QSeries(self.den, self.lead, [c.shift(w) for c in self.coeffs])

    # -- comparison ----------------------------------------------------

    def agreement_window(self, other):
        """The exclusive exponent bound up to which both series are known."""
        return min(self.cutoff, other.cutoff)

    def agrees_with(self, other):
        """Coefficientwise equality on the common window of validity."""
        a, b = self._align(other)
        cut = min(a.cutoff, b.cutoff)
        e = min(a.lead, b.lead)
        while e < cut:
            ca = a.coeff(e) if e < a.cutoff else Character()
            cb = b.coeff(e) if e < b.cutoff else Character()
            if ca != cb:
                return False
            e += Fraction(1, a.den)
        return True

    def __repr__(self):
        terms = []
        for n, c in enumerate(self.coeffs):
            if not c:
                continue
            parts = []
            for w, m in sorted(c.terms.items(), key=lambda t: t[0].sort_key()):
                zpart = "" if w == ZERO else f"z^{w!r}"
                mpart = fmt_rat(m) if (w == ZERO or m != 1) else ""
                parts.append((mpart + ("*" if mpart and zpart else "") + zpart) or "1")
            cs = " + ".join(parts)
            if len(parts) > 1:
                cs = f"({cs})"
            e = Fraction(n, self.den)
            qpart = "" if e == 0 else ("q" if e == 1 else f"q^{fmt_rat(e)}")
            terms.append(cs if not qpart else (qpart if cs == "1" else f"{cs} {qpart}"))
        body = " + ".join(terms) if terms else "0"
        return f"q^{fmt_rat(self.lead)} * ({body})"


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


# -- eta quotients and characters -------------------------------------


@lru_cache(maxsize=None)
def _coloured_partitions(colours, order):
    """Coefficients of prod_n (1 - q^n)^(-colours) up to q^(order-1)."""
    dp = [1] + [0] * (order - 1)
    for n in range(1, order):
        for _ in range(colours):
            for k in range(n, order):
                dp[k] += dp[k - n]
    return tuple(dp)


def eta_inv_sq(order):
    """q^(-1/12) prod_n (1 - q^n)^(-2), truncated to `order` terms."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return QSeries(1, Fraction(-1, 12), list(_coloured_partitions(2, order)))


def eta_inv_qu(order):
    """q^(-1/6) prod_n (1 - q^n)^(-4), truncated to `order` terms."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return QSeries(1, Fraction(-1, 6), list(_coloured_partitions(4, order)))


def coset8_char(lam, order):
    """Character of the standard coset module: q^(|lam|^2/3) / eta^2."""
    return eta_inv_sq(order).shift_q(Fraction(1, 3) * killing(lam, lam))


def fock_char(lam, order):
    """Character of the Fock module: z^lam q^(-|lam|^2/3) / eta^2."""
    return eta_inv_sq(order).shift_q(-Fraction(1, 3) * killing(lam, lam)).shift_z(lam)


def delta_from_leading(lam, mu, order=2):
    """Conformal weight of the (coset, Fock) pair read off the character.

    The leading exponent of coset8_char(lam) * fock_char(mu) is
    Delta - c/24; adding c/24 back recovers the closed form of
    `kl.conformal_delta` exactly.
    """
    expo = (coset8_char(lam, order) * fock_char(mu, order)).leading_exponent()
    return expo + CENTRAL_CHARGE / 24


def standard_char_identity(mu, omega, order, cutoff):
    """Check the standard-module character decomposition on a window.

    Both sides of the decomposition of the flowed standard module with
    weight support mu + Q are evaluated over the finite set `cutoff` of
    weights (a window in mu + Q): the left side uses a single 1/eta^4
    with explicit q- and z-shifts, the right side multiplies the coset
    and Fock factors.  Returns a report with the comparison window.
    """
    cutoff = list(cutoff)
    if not cutoff:
        return {"match": True, "terms": 0, "window": None, "vacuous": True}
    shift = -Fraction(3, 2) * omega
    lhs = rhs = None
    for lam in cutoff:
        fl = lam + shift
        l = (
            eta_inv_qu(order)
            .shift_q(Fraction(1, 3) * (killing(lam, lam) - killing(fl, fl)))
            .shift_z(fl)
        )
        r = coset8_char(lam, order) * fock_char(fl, order)
        lhs = l if lhs is None else lhs + l
        rhs = r if rhs is None else rhs + r
    return {
        "match": lhs.agrees_with(rhs),
        "terms": len(cutoff),
        "window": lhs.agreement_window(rhs),
        "vacuous": False,
    }
