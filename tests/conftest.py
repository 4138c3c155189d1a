"""Shared helpers: deterministic weight samplers and isomorphism checks."""

import random
from fractions import Fraction

import pytest

from qsl3.algebra import tensor_action, quotient_rep
from qsl3.linalg import rank as mat_rank
from qsl3.repmod import character, hom_space, irreducible
from qsl3.rules import ModuleLabel, static_char, tensor_rule
from qsl3.structure import build_reference
from qsl3.weights import Weight, classify

TAGS = ("typical", "atyp1", "atyp2-root3-odd", "atyp2-root3-even")


def W(c1, c2):
    return Weight(Fraction(c1), Fraction(c2))


def from_indices(l1, l2):
    """Weight with indices (l1, l2, l1+l2)."""
    return Weight(Fraction(l1) - 1, Fraction(l2) - 1)


def random_rat(rng, dens=(1, 2)):
    # wide enough that every typicality class has several hundred distinct
    # values on the grid (rejection sampling below must not exhaust it)
    return Fraction(rng.randrange(-24, 25), rng.choice(dens))


def sample_class(tag, n, seed=0, dens=(1, 2), index=None):
    """n distinct weights of the given typicality class (rejection sampling)."""
    rng = random.Random(f"{seed}|{tag}|{index}")
    out, seen = [], set()
    while len(out) < n:
        w = Weight(random_rat(rng, dens), random_rat(rng, dens))
        cls = classify(w)
        if cls.tag != tag or w in seen:
            continue
        if index is not None and cls.i != index:
            continue
        seen.add(w)
        out.append(w)
    return out


def invertible_hom(a, b):
    """An invertible module map a -> b, or None.

    Tries the hom basis and then small rational combinations; for the
    indecomposable modules in this package the endomorphism rings are
    local, so an isomorphism (when one exists) shows up quickly.
    """
    if a.order != b.order or character(a).terms != character(b).terms:
        return None
    homs = hom_space(a, b)
    if not homs:
        return None

    def full(h):
        # the characters agree, so every block is square
        return all(mat_rank(blk, len(blk)) == len(blk) for blk in h.values())

    for h in homs:
        if full(h):
            return h
    rng = random.Random(5)
    for _ in range(20):
        coeffs = [rng.randrange(1, 7) for _ in homs]
        h = {
            lam: [
                [sum((hk[lam][i][j] * c for hk, c in zip(homs, coeffs)), b.zero())
                 for j in range(len(blk[0]))]
                for i in range(len(blk))
            ]
            for lam, blk in homs[0].items()
        }
        if full(h):
            return h
    return None


def assert_isomorphic(a, b):
    assert invertible_hom(a, b) is not None, "no invertible module map found"


def extract_summand(lam0, mu0, target):
    """A copy of `target` cut out of L(lam0) (x) L(mu0) by killing the rest."""
    t = tensor_action(irreducible(lam0), irreducible(mu0))
    expr = tensor_rule(ModuleLabel("L", lam0), ModuleLabel("L", mu0))
    kill = {lam: [] for lam in t.weights_sorted()}
    touched = False
    for other, _m in expr:
        if other.family == target.family and other.weight == target.weight:
            continue
        ref = build_reference(other, t.order)
        for h in hom_space(ref, t):
            for lw, blk in h.items():
                for j in range(ref.dims[lw]):
                    col = [row[j] for row in blk]
                    if any(col):
                        kill[lw].append(col)
                        touched = True
    out = t
    if touched:
        out, _ = quotient_rep(t, {k: v for k, v in kill.items() if v})
    assert character(out).terms == static_char(target).terms
    return out


@pytest.fixture(scope="session")
def rng():
    return random.Random(2026)


# -- tensor-rule branch fixtures ---------------------------------------
#
# One entry per case branch of the closed-form tensor decomposition.
# Weight pairs are given by their index tuples (l1, l2); translating any
# index pair by even integers preserves every parity the case analysis
# inspects, which is how each base pair is expanded to three samples.
# "families" records the total multiplicity per output family.

TENSOR_BRANCHES = {
    "3x3-diff": {"pairs": [((1, 2), (2, 1))], "families": {"P": 1, "L": 1}},
    "3x3-same": {"pairs": [((1, 2), (1, 2)), ((2, 1), (2, 1))], "families": {"Q": 1}},
    "3x4-same-index": {"pairs": [((1, 2), (1, "1/2")), ((2, 1), ("1/2", 1))],
                       "families": {"L": 1, "P": 1}},
    "3x4-distinct-index": {"pairs": [((1, 2), ("1/2", 1)), ((1, 2), ("3/2", "3/2"))],
                           "families": {"P": 1, "L": 1}},
    "4x4-typical-33": {"pairs": [(("1/2", "1/2"), ("1/3", "2/3"))],
                       "families": {"P": 1, "L": 2}},
    "4x4-typical-distinct": {"pairs": [((1, "1/2"), ("1/3", 1)),
                                       ((1, "1/2"), ("1/2", "1/2")),
                                       (("1/2", 1), ("1/2", "1/2"))],
                             "families": {"P": 2}},
    "4x4-atyp1-same-index": {"pairs": [((1, "1/2"), (1, "1/3")), (("1/2", 1), ("1/3", 1))],
                             "families": {"L": 2, "P": 1}},
    "4x4-atyp1-distinct-index": {"pairs": [((1, "1/2"), ("1/2", 1)),
                                           ((1, "1/2"), ("3/2", "3/2"))],
                                 "families": {"P": 1}},
    "4x4-K": {"pairs": [((1, "1/2"), (1, "3/2")), (("1/2", 1), ("3/2", 1))],
              "families": {"K": 1}},
    "4x4-R": {"pairs": [((1, "1/2"), (1, "1/2")), (("1/2", 1), ("1/2", 1))],
              "families": {"R": 1, "P": 1}},
    "4x4-S": {"pairs": [(("1/2", "1/2"), ("3/2", "3/2"))], "families": {"S": 1}},
    "3x8-eee": {"pairs": [((1, 2), (2, 2))], "families": {"P": 1}},
    "3x8-mi-even": {"pairs": [((1, 2), (2, "1/2")), ((2, 1), ("1/2", 2))],
                    "families": {"P": 2}},
    "3x8-mj-even": {"pairs": [((1, 2), ("1/2", 2)), ((2, 1), (2, "1/2"))],
                    "families": {"P": 2}},
    "3x8-m3-even": {"pairs": [((1, 2), ("1/2", "3/2"))], "families": {"P": 2}},
    "3x8-nnn": {"pairs": [((1, 2), ("1/2", "1/3"))], "families": {"P": 3}},
    "4x8-i12-e-e-o": {"pairs": [((1, "1/2"), (2, "3/2"))], "families": {"P": 2}},
    "4x8-i12-e-o-e": {"pairs": [((1, "1/2"), (2, "1/2"))], "families": {"P": 2}},
    "4x8-i12-e-n-n": {"pairs": [((1, "1/2"), (2, "1/3"))], "families": {"P": 3}},
    "4x8-i12-n-e-n": {"pairs": [((1, "1/2"), ("1/2", "3/2"))], "families": {"P": 3}},
    "4x8-i12-n-o-n": {"pairs": [((1, "1/2"), ("3/2", "1/2"))], "families": {"P": 3}},
    "4x8-i12-n-n-e": {"pairs": [((1, "1/2"), ("1/2", 0))], "families": {"P": 3}},
    "4x8-i12-n-n-o": {"pairs": [((1, "1/2"), ("7/6", "1/3"))], "families": {"P": 3}},
    "4x8-i12-n-n-n": {"pairs": [((1, "1/2"), ("1/3", "1/3"))], "families": {"P": 4}},
    "4x8-i3-e-eo": {"pairs": [(("1/2", "1/2"), ("3/2", "1/2")),
                              (("1/2", "1/2"), ("1/2", "3/2"))],
                    "families": {"P": 2}},
    "4x8-i3-e-nn": {"pairs": [(("1/2", "1/2"), ("1/3", "5/3"))], "families": {"P": 3}},
    "4x8-i3-n-en": {"pairs": [(("1/2", "1/2"), ("3/2", "1/3"))], "families": {"P": 3}},
    "4x8-i3-n-on": {"pairs": [(("1/2", "1/2"), ("1/2", "1/3"))], "families": {"P": 3}},
    "4x8-i3-n-nn": {"pairs": [(("1/2", "1/2"), ("1/6", "1/3"))], "families": {"P": 4}},
    "8x8-eee": {"pairs": [((2, 2), (2, 2))], "families": {"P": 3}},
    "8x8-eo-o": {"pairs": [((2, "1/2"), (2, "1/2"))], "families": {"P": 4}},
    "8x8-oo-e": {"pairs": [(("1/2", "3/2"), ("1/2", "3/2"))], "families": {"P": 4}},
    "8x8-en-n": {"pairs": [((2, 2), (2, "1/2"))], "families": {"P": 6}},
    "8x8-on-n": {"pairs": [(("1/2", 2), ("1/2", "1/3"))], "families": {"P": 6}},
    "8x8-nn-e": {"pairs": [(("1/2", "3/2"), ("1/3", "5/3"))], "families": {"P": 6}},
    "8x8-nn-o": {"pairs": [(("1/2", "5/6"), ("1/3", "4/3"))], "families": {"P": 6}},
    "8x8-nnn": {"pairs": [((2, 2), ("1/2", "1/3"))], "families": {"P": 8}},
    "1x8": {"pairs": [((1, 1), (2, 2))], "families": {"L": 1}},
    "1x4": {"pairs": [((1, 1), (1, "1/2"))], "families": {"L": 1}},
    "1x3": {"pairs": [((1, 1), (1, 2))], "families": {"L": 1}},
    "1x1": {"pairs": [((1, 1), (1, 1))], "families": {"L": 1}},
}

_BRANCH_SHIFTS = ((0, 0), (2, 0), (0, 2))


def branch_pairs(name):
    """≥3 weight pairs exercising the named tensor-rule branch."""
    out = []
    for (la, mu) in TENSOR_BRANCHES[name]["pairs"]:
        for da, db in _BRANCH_SHIFTS:
            lam = from_indices(Fraction(la[0]) + da, Fraction(la[1]) + db)
            m = from_indices(Fraction(mu[0]), Fraction(mu[1]))
            out.append((lam, m))
    return out
