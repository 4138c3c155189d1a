"""Exact scalars: rationals and cyclotomic number fields Q(zeta_N).

Every matrix entry in this package is a CycNum, an element of Q(zeta_N)
stored as a polynomial in zeta_N canonically reduced modulo the N-th
cyclotomic polynomial.  Orders are restricted to multiples of 4 so that
i = zeta_4 always embeds.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

Rat = Fraction


class FieldMismatch(Exception):
    """Raised when operands live in incompatible cyclotomic fields."""


class DivisionByZero(ZeroDivisionError):
    """Raised on inversion of the zero field element."""


class InternalInconsistency(Exception):
    """An exact computation produced structurally impossible data."""


def parse_rat(s):
    """Parse "p/q" or "p" into a Fraction."""
    return Fraction(s.strip())


def fmt_rat(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Coefficient tuple (low degree first) of the n-th cyclotomic polynomial.

    Computed by dividing x^n - 1 by Phi_d for every proper divisor d of n.
    Division is exact over Z.
    """
    # x^n - 1
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, cyclotomic_poly(d))
    return tuple(poly)


def _polydiv_exact(num, den):
    """Exact polynomial division num / den over Q (remainder must vanish)."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot = [Fraction(0)] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k] / lead
        quot[k - dd] = c
        if c:
            for j in range(dd + 1):
                num[k - dd + j] -= c * den[j]
    assert all(c == 0 for c in num[:dd]), "non-exact polynomial division"
    return quot


@lru_cache(maxsize=None)
def _reduction_rows(n):
    """x^k mod Phi_n for k = deg(Phi_n) .. n-1, as coeff tuples."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    rows = []
    # x^deg = -(phi[0] + phi[1] x + ... ) since Phi_n is monic
    cur = [-c for c in phi[:deg]]
    rows.append(tuple(cur))
    for _ in range(n - deg - 1):
        nxt = [Fraction(0)] + cur[:-1]
        top = cur[-1]
        if top:
            for j in range(deg):
                nxt[j] += top * rows[0][j]
        cur = nxt
        rows.append(tuple(cur))
    return tuple(rows)


def field_degree(n):
    return len(cyclotomic_poly(n)) - 1


class CycNum:
    """An element of Q(zeta_N), N divisible by 4.

    coeffs has length deg(Phi_N) and gives the canonical representative
    modulo Phi_N, so equality is coefficientwise.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        if order % 4 != 0:
            raise FieldMismatch(f"order {order} not divisible by 4")
        deg = field_degree(order)
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != deg:
            raise ValueError(f"need {deg} coefficients for order {order}, got {len(coeffs)}")
        self.order = order
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rat(x, order):
        deg = field_degree(order)
        return CycNum(order, (Fraction(x),) + (Fraction(0),) * (deg - 1))

    @staticmethod
    def zero(order):
        return CycNum.from_rat(0, order)

    @staticmethod
    def one(order):
        return CycNum.from_rat(1, order)

    @staticmethod
    def zeta(order, power=1):
        """zeta_order^power, canonically reduced."""
        deg = field_degree(order)
        power %= order
        raw = [Fraction(0)] * order
        raw[power] = Fraction(1)
        return CycNum(order, _reduce(raw, order, deg))

    # -- structure ----------------------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_rat(self):
        return all(c == 0 for c in self.coeffs[1:])

    def as_rat(self):
        if not self.is_rat():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def embed(self, order):
        """Image under Q(zeta_N) -> Q(zeta_M) for N | M, zeta_N -> zeta_M^{M/N}."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise FieldMismatch(f"no embedding of Q(zeta_{self.order}) into Q(zeta_{order})")
        step = order // self.order
        raw = [Fraction(0)] * (order + len(self.coeffs) * step)
        for k, c in enumerate(self.coeffs):
            raw[k * step] += c
        return CycNum(order, _reduce(raw, order, field_degree(order)))

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rat(other, self.order)
        if not isinstance(other, CycNum):
            return None, None
        if other.order != self.order:
            m = self.order * other.order // gcd(self.order, other.order)
            return self.embed(m), other.embed(m)
        return self, other

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return CycNum(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.order, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return CycNum(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        if b.is_rat():
            r = b.coeffs[0]
            return CycNum(a.order, tuple(x * r for x in a.coeffs))
        if a.is_rat():
            r = a.coeffs[0]
            return CycNum(b.order, tuple(x * r for x in b.coeffs))
        deg = len(a.coeffs)
        raw = [Fraction(0)] * (2 * deg - 1)
        for k, x in enumerate(a.coeffs):
            if x:
                for l, y in enumerate(b.coeffs):
                    if y:
                        raw[k + l] += x * y
        return CycNum(a.order, _reduce(raw, a.order, deg))

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse via extended Euclid in Q[x] modulo Phi_N."""
        if self.is_zero():
            raise DivisionByZero("inversion of zero in cyclotomic field")
        if self.is_rat():
            return CycNum.from_rat(1 / self.coeffs[0], self.order)
        phi = list(cyclotomic_poly(self.order))
        a = list(self.coeffs)
        # extended Euclid: find u with u*a + v*phi = gcd = const
        r0, r1 = phi, _trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _polydivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _polysub(s0, _polymul(q, s1))
        assert r1 and r1[0] != 0
        c = r1[0]
        deg = len(self.coeffs)
        u = [x / c for x in s1]
        u += [Fraction(0)] * max(0, deg - len(u))
        return CycNum(self.order, _reduce(u, self.order, deg))

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
        return a.coeffs == b.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(fmt_rat(c))
            else:
                z = f"z{self.order}" + (f"^{k}" if k > 1 else "")
                terms.append(z if c == 1 else f"{fmt_rat(c)}*{z}")
        return " + ".join(terms) if terms else "0"

    def to_json(self):
        return {"N": self.order, "coeffs": [fmt_rat(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj):
        return CycNum(obj["N"], [parse_rat(c) for c in obj["coeffs"]])


def _trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return list(p)


def _polydivmod(num, den):
    num = list(num)
    den = _trim(den)
    dd = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dd:
        return [Fraction(0)], _trim(num)
    quot = [Fraction(0)] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k] / lead
        quot[k - dd] = c
        if c:
            for j in range(dd + 1):
                num[k - dd + j] -= c * den[j]
    return _trim(quot), _trim(num[:dd] or [Fraction(0)])


def _polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for k, x in enumerate(a):
        if x:
            for l, y in enumerate(b):
                out[k + l] += x * y
    return out


def _polysub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _reduce(raw, order, deg):
    """Reduce a raw coefficient list (any length) modulo Phi_order.

    First folds exponents modulo order (zeta^order = 1), then kills the
    degrees >= deg using the cached reduction rows.
    """
    folded = [Fraction(0)] * order
    for k, c in enumerate(raw):
        if c:
            folded[k % order] += c
    rows = _reduction_rows(order) if deg > 1 else ()
    out = folded[:deg]
    for k in range(deg, order):
        c = folded[k]
        if c:
            row = rows[k - deg]
            for j in range(deg):
                out[j] += c * row[j]
    return tuple(out)


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
    m = 1
    for d in denominators:
        d = int(d)
        m = m * d // gcd(m, d)
    return 4 * m
