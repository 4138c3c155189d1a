"""Exact scalars: rationals and cyclotomic number fields Q(zeta_N).

Every matrix entry in this package is a CycNum, an element of Q(zeta_N)
stored as integer numerators over one positive denominator, canonically
reduced modulo the N-th cyclotomic polynomial.  Orders are restricted to
multiples of 4 so that i = zeta_4 always embeds.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

Rat = Fraction


class FieldMismatch(Exception):
    """Raised when operands live in incompatible cyclotomic fields."""


class DivisionByZero(ZeroDivisionError):
    """Raised on inversion of the zero field element."""


class InternalInconsistency(Exception):
    """An exact computation produced structurally impossible data."""


def parse_rat(s):
    """Parse "p/q" or "p" into a Fraction."""
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"bad rational {s!r}: zero denominator") from None


def fmt_rat(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Integer coefficient tuple (low degree first) of the n-th cyclotomic polynomial.

    Computed by dividing x^n - 1 by Phi_d for every proper divisor d of n.
    Every Phi_d is monic, so each division is exact over Z.
    """
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            div = cyclotomic_poly(d)
            dd = len(div) - 1
            quot = [0] * (len(poly) - dd)
            for k in range(len(poly) - 1, dd - 1, -1):
                c = quot[k - dd] = poly[k]
                if c:
                    for j in range(dd + 1):
                        poly[k - dd + j] -= c * div[j]
            assert not any(poly[:dd]), "non-exact polynomial division"
            poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(n):
    """x^k mod Phi_n for k = deg(Phi_n) .. n-1, each as its nonzero (j, coeff) pairs."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    # x^deg = -(phi[0] + phi[1] x + ... ) since Phi_n is monic
    first = [-c for c in phi[:deg]]
    cur = first
    rows = []
    for _ in range(n - deg):
        rows.append(tuple((j, c) for j, c in enumerate(cur) if c))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [x + top * y for x, y in zip(cur, first)]
    return tuple(rows)


def field_degree(n):
    return len(cyclotomic_poly(n)) - 1


def _reduce(raw, order):
    """Integer coefficients of sum(raw[k] zeta^k) modulo Phi_order, for
    deg(Phi_order) <= len(raw) <= order."""
    deg = field_degree(order)
    out = raw[:deg]
    for k, row in enumerate(_reduction_rows(order)[: len(raw) - deg], deg):
        c = raw[k]
        if c:
            for j, r in row:
                out[j] += c * r
    return out


def _make(order, nums, den):
    """The CycNum sum(nums[k] zeta^k) / den, cancelled to canonical form.

    The one private constructor: it divides by gcd(den, *nums) and does no
    validation; den must be positive.
    """
    g = gcd(den, *nums)
    x = object.__new__(CycNum)
    x.order = order
    x.coeffs = tuple(c // g for c in nums) if g != 1 else tuple(nums)
    x.den = den // g
    return x


def _mul(a, b):
    """a * b for two elements of one field: the one product path.

    Zero coefficients are skipped, so a rational or monomial operand costs
    one row of work.  deg(Phi_N) <= N/2, so the raw product never reaches
    zeta^N and needs no folding.
    """
    deg = len(a.coeffs)
    nz = [(l, y) for l, y in enumerate(b.coeffs) if y]
    raw = [0] * (2 * deg - 1)
    for k, x in enumerate(a.coeffs):
        if x:
            for l, y in nz:
                raw[k + l] += x * y
    return _make(a.order, _reduce(raw, a.order), a.den * b.den)


def _substitute(x, step, order):
    """The image of x under zeta_{x.order} -> zeta_order^step, in Q(zeta_order).

    With order = x.order and step a unit mod order this is the Galois
    automorphism sigma_step; with order = M * x.order and step = M it is
    the embedding into Q(zeta_order).
    """
    raw = [0] * order
    for j, c in enumerate(x.coeffs):
        if c:
            raw[j * step % order] += c
    return _make(order, _reduce(raw, order), x.den)


class CycNum:
    """An element of Q(zeta_N), N divisible by 4.

    The value is sum(coeffs[k] zeta_N^k) / den with integer coeffs of
    length deg(Phi_N), den > 0 and gcd(den, *coeffs) == 1.  This form is
    canonical, so equality compares the fields directly.
    """

    __slots__ = ("order", "coeffs", "den")

    def __init__(self, order, coeffs):
        if order % 4 != 0:
            raise FieldMismatch(f"order {order} not divisible by 4")
        deg = field_degree(order)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != deg:
            raise ValueError(f"need {deg} coefficients for order {order}, got {len(coeffs)}")
        # the lcm of reduced denominators leaves gcd(den, *numerators) == 1
        den = lcm(*(c.denominator for c in coeffs))
        self.order = order
        self.coeffs = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rat(x, order):
        x = Fraction(x)
        return _make(order, [x.numerator] + [0] * (field_degree(order) - 1), x.denominator)

    @staticmethod
    def zero(order):
        return CycNum.from_rat(0, order)

    @staticmethod
    def one(order):
        return CycNum.from_rat(1, order)

    @staticmethod
    def zeta(order, power=1):
        """zeta_order^power, canonically reduced."""
        raw = [0] * order
        raw[power % order] = 1
        return _make(order, _reduce(raw, order), 1)

    # -- structure ----------------------------------------------------

    def is_zero(self):
        return not any(self.coeffs)

    def is_rat(self):
        return not any(self.coeffs[1:])

    def as_rat(self):
        if not self.is_rat():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.coeffs[0], self.den)

    def embed(self, order):
        """Image under Q(zeta_N) -> Q(zeta_M) for N | M, zeta_N -> zeta_M^{M/N}."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise FieldMismatch(f"no embedding of Q(zeta_{self.order}) into Q(zeta_{order})")
        return _substitute(self, order // self.order, order)

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rat(other, self.order)
        if not isinstance(other, CycNum):
            return None, None
        if other.order != self.order:
            m = lcm(self.order, other.order)
            return self.embed(m), other.embed(m)
        return self, other

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        da, db = a.den, b.den
        return _make(a.order, [x * db + y * da for x, y in zip(a.coeffs, b.coeffs)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, [-x for x in self.coeffs], self.den)

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        da, db = a.den, b.den
        return _make(a.order, [x * db - y * da for x, y in zip(a.coeffs, b.coeffs)], da * db)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return _mul(a, b)

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse by the Galois norm.

        u = prod of sigma_k(x) over the units k != 1 mod N gives
        x * u = N(x), a nonzero rational, so x^-1 = u / N(x).  Q(zeta_N) is
        a CM field, so N(x) = prod |sigma_k(x)|^2 over half the units is
        positive and the denominator stays positive.
        """
        if self.is_zero():
            raise DivisionByZero("inversion of zero in cyclotomic field")
        order = self.order
        if self.is_rat():
            return CycNum.from_rat(Fraction(self.den, self.coeffs[0]), order)
        u = None
        for k in range(2, order):
            if gcd(k, order) == 1:
                s = _substitute(self, k, order)
                u = s if u is None else _mul(u, s)
        norm = _mul(self, u)
        return _make(order, [c * norm.den for c in u.coeffs], u.den * norm.coeffs[0])

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        out = CycNum.one(self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- comparison / display -----------------------------------------

    def __eq__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a.coeffs == b.coeffs and a.den == b.den

    def __hash__(self):
        return hash((self.order, self.coeffs, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        terms = []
        for k, n in enumerate(self.coeffs):
            if n == 0:
                continue
            c = Fraction(n, self.den)
            if k == 0:
                terms.append(fmt_rat(c))
            else:
                z = f"z{self.order}" + (f"^{k}" if k > 1 else "")
                terms.append(z if c == 1 else f"{fmt_rat(c)}*{z}")
        return " + ".join(terms) if terms else "0"

    def to_json(self):
        return {"N": self.order, "coeffs": [fmt_rat(Fraction(c, self.den)) for c in self.coeffs]}

    @staticmethod
    def from_json(obj):
        return CycNum(obj["N"], [parse_rat(c) for c in obj["coeffs"]])


def i_power(x, order):
    """The exact value of i^x = zeta_order^(x * order / 4) for rational x.

    Requires 4*den(x) | order so the exponent is integral.
    """
    x = Fraction(x)
    if order % (4 * x.denominator) != 0:
        raise FieldMismatch(f"i^({x}) does not lie in Q(zeta_{order})")
    expo = x.numerator * (order // (4 * x.denominator))
    return CycNum.zeta(order, expo)


def field_order_for(denominators):
    """Smallest valid order 4*lcm(dens) covering the given denominators."""
    return 4 * lcm(*(int(d) for d in denominators))
