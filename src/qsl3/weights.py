"""The sl3 weight space.

Weights are stored in fundamental-weight coordinates (c1, c2), so the
pairing with the simple roots reads off the coordinates directly:
<lambda, alpha_j> = c_j.  The Gram matrix of the form on the omega basis
is the inverse Cartan matrix (1/3)[[2,1],[1,2]].
"""

from dataclasses import dataclass
from fractions import Fraction

from .exact import Rat, fmt_rat, parse_rat


@dataclass(frozen=True)
class Weight:
    c1: Rat
    c2: Rat

    def __post_init__(self):
        object.__setattr__(self, "c1", Fraction(self.c1))
        object.__setattr__(self, "c2", Fraction(self.c2))

    def __add__(self, other):
        return Weight(self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other):
        return Weight(self.c1 - other.c1, self.c2 - other.c2)

    def __neg__(self):
        return Weight(-self.c1, -self.c2)

    def __mul__(self, r):
        r = Fraction(r)
        return Weight(self.c1 * r, self.c2 * r)

    __rmul__ = __mul__

    def __repr__(self):
        return f"[{fmt_rat(self.c1)},{fmt_rat(self.c2)}]"

    def sort_key(self):
        # height-first total order, a linear extension of dominance
        return (self.c1 + self.c2, self.c1, self.c2)

    def root_coords(self):
        """(a1, a2) with lambda = a1*alpha1 + a2*alpha2."""
        return ((2 * self.c1 + self.c2) / 3, (self.c1 + 2 * self.c2) / 3)

    def denominators(self):
        return (self.c1.denominator, self.c2.denominator)


ZERO = Weight(0, 0)
OMEGA1 = Weight(1, 0)
OMEGA2 = Weight(0, 1)
OMEGA3 = Weight(-1, 1)  # omega2 - omega1
ALPHA1 = Weight(2, -1)
ALPHA2 = Weight(-1, 2)
ALPHA3 = Weight(1, 1)  # alpha1 + alpha2
RHO = Weight(1, 1)

ALPHA = {1: ALPHA1, 2: ALPHA2, 3: ALPHA3}
OMEGA = {1: OMEGA1, 2: OMEGA2, 3: OMEGA3}


def parse_weight(s):
    """Parse "[p/q,r/s]" into a Weight."""
    s = s.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"bad weight {s!r}, expected [c1,c2]")
    parts = s[1:-1].split(",")
    if len(parts) != 2:
        raise ValueError(f"bad weight {s!r}, expected two coordinates")
    return Weight(parse_rat(parts[0]), parse_rat(parts[1]))


def killing(lam, mu):
    """The invariant bilinear form, normalised so <alpha_i, alpha_j> = A_ij."""
    a, b, c, d = lam.c1, lam.c2, mu.c1, mu.c2
    return (2 * a * c + a * d + b * c + 2 * b * d) / 3


def indices(lam):
    """(lambda_1, lambda_2, lambda_3) with lambda_j = <lambda + rho, alpha_j>."""
    l1 = lam.c1 + 1
    l2 = lam.c2 + 1
    return (l1, l2, l1 + l2)


def is_odd_int(x):
    x = Fraction(x)
    return x.denominator == 1 and x.numerator % 2 == 1


def is_even_int(x):
    x = Fraction(x)
    return x.denominator == 1 and x.numerator % 2 == 0


@dataclass(frozen=True)
class TypicalityClass:
    """tag in {"typical", "atyp1", "atyp2-root3-odd", "atyp2-root3-even"}.

    For atyp1 and atyp2-root3-odd, i names the distinguished odd index
    (i in {1,2,3} resp. i in {1,2}).  parities records per index
    "odd" / "even" / "noninteger".
    """

    tag: str
    i: int | None
    parities: tuple

    @property
    def irr_dim(self):
        return {"typical": 8, "atyp1": 4, "atyp2-root3-odd": 3, "atyp2-root3-even": 1}[self.tag]


def classify(lam):
    idx = indices(lam)
    par = tuple(
        "odd" if is_odd_int(x) else "even" if is_even_int(x) else "noninteger" for x in idx
    )
    odd = [j + 1 for j, p in enumerate(par) if p == "odd"]
    if not odd:
        return TypicalityClass("typical", None, par)
    if len(odd) == 1:
        return TypicalityClass("atyp1", odd[0], par)
    # lambda_3 = lambda_1 + lambda_2 rules out exactly-three-odd
    if odd == [1, 2]:
        return TypicalityClass("atyp2-root3-even", None, par)
    assert len(odd) == 2 and 3 in odd
    return TypicalityClass("atyp2-root3-odd", odd[0], par)


def irreducible_dim(lam):
    return classify(lam).irr_dim


# the KL linear map: phi(alpha1) = 2*omega1, phi(alpha2) = 2*omega3,
# phi(alpha3) = 2*omega2.  In omega coordinates (columns = images of omegas):
#   phi    = [[2/3, -2/3], [2/3, 4/3]]
#   phiinv = [[1, 1/2], [-1/2, 1/2]]
def phi(lam):
    return Weight(
        Fraction(2, 3) * lam.c1 - Fraction(2, 3) * lam.c2,
        Fraction(2, 3) * lam.c1 + Fraction(4, 3) * lam.c2,
    )


def phi_inv(lam):
    return Weight(
        lam.c1 + Fraction(1, 2) * lam.c2,
        -Fraction(1, 2) * lam.c1 + Fraction(1, 2) * lam.c2,
    )


def lattice_member(lam, lattice, base=None):
    """Membership in Q, P, Q/2, (3/2)P, 3P, or the coset base + lattice."""
    if base is not None:
        lam = lam - base
    if lattice == "P":
        return lam.c1.denominator == 1 and lam.c2.denominator == 1
    if lattice == "Q":
        a1, a2 = lam.root_coords()
        return a1.denominator == 1 and a2.denominator == 1
    if lattice == "Q/2":
        return lattice_member(2 * lam, "Q")
    if lattice == "(3/2)P":
        return lattice_member(Fraction(2, 3) * lam, "P")
    if lattice == "3P":
        return lattice_member(Fraction(1, 3) * lam, "P")
    raise ValueError(f"unknown lattice {lattice!r}")


def weyl_reflect(lam, i):
    """s_i(lambda) = lambda - <lambda, alpha_i> alpha_i for i in {1,2,3}."""
    pair = {1: lam.c1, 2: lam.c2, 3: lam.c1 + lam.c2}[i]
    return lam - pair * ALPHA[i]


def weyl_orbit(lam):
    """The full Weyl-group orbit, as a sorted list of distinct weights."""
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for i in (1, 2):
                v = weyl_reflect(w, i)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return sorted(seen, key=Weight.sort_key)


def weyl_group_elements():
    """All six Weyl elements as (name, callable, sign) with sign = det."""
    def compose(f, g):
        return lambda w: f(g(w))

    s1 = lambda w: weyl_reflect(w, 1)
    s2 = lambda w: weyl_reflect(w, 2)
    e = lambda w: w
    return [
        ("e", e, 1),
        ("s1", s1, -1),
        ("s2", s2, -1),
        ("s1s2", compose(s1, s2), 1),
        ("s2s1", compose(s2, s1), 1),
        ("s1s2s1", compose(s1, compose(s2, s1)), -1),
    ]
