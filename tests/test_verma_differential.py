"""The table-built Verma and the top-down irreducible against the word
construction they replace.

The reference below is the earlier construction, kept here as an
independent one: the nilpotent part acts on reduced lowering words in the
letters 1, 2 (for X_-1, X_-2), with a^2 = b^2 = 0 and baba = abab; raising
operators are pushed through a word with the commutator relation; the PBW
basis is reached by a change of basis; L_lambda is M_lambda modulo the
radical of the contravariant form, computed from its Gram matrices.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from qsl3 import repmod
from qsl3.algebra import GENS, WeightRep, gen_shift, quotient_rep, relations_ok
from qsl3.exact import CycNum, field_order_for, fmt_rat, i_power
from qsl3.linalg import invert, mat_mul, nullspace
from qsl3.weights import ALPHA, ALPHA1, ALPHA2, ALPHA3, Weight, killing

from conftest import TAGS, sample_class

ORDERS = (4, 8, 12, 24)

# the eight reduced lowering words (letters name the simple root lowered)
WORDS = ((), (1,), (2,), (1, 2), (2, 1), (1, 2, 1), (2, 1, 2), (1, 2, 1, 2))
PBW = tuple((n1, n3, n2) for n1 in (0, 1) for n3 in (0, 1) for n2 in (0, 1))


def word_weight(lam, w):
    for letter in w:
        lam = lam - ALPHA[letter]
    return lam


def reduce_word(w):
    """Normal form of a lowering word, or None if it is zero."""
    w = tuple(w)
    changed = True
    while changed:
        changed = False
        for k in range(len(w) - 1):
            if w[k] == w[k + 1]:
                return None
        for k in range(len(w) - 3):
            if w[k : k + 4] == (2, 1, 2, 1):
                w = w[:k] + (1, 2, 1, 2) + w[k + 4 :]
                changed = True
                break
    return w if len(w) <= 4 else None


def _merge(dicts, order):
    out = {}
    for d in dicts:
        for w, c in d.items():
            out[w] = out.get(w, CycNum.zero(order)) + c
    return {w: c for w, c in out.items() if c}


def lower_word(letter, elem):
    """X_{-letter} on the left of a word combination."""
    out = {}
    for w, c in elem.items():
        nw = reduce_word((letter,) + w)
        if nw is not None:
            out[nw] = out.get(nw, CycNum.zero(c.order)) + c if nw in out else c
    return {w: c for w, c in out.items() if c}


def raise_word(j, w, lam, order):
    """X_j on the word w applied to m_lambda, as {word: coeff}, by
    X_j X_-g = X_-g X_j + delta_jg (K_j - K_j^-1)/(2i)."""
    if not w:
        return {}
    g, rest = w[0], w[1:]
    out = {}
    for w2, c in raise_word(j, rest, lam, order).items():
        nw = reduce_word((g,) + w2)
        if nw is not None:
            out[nw] = out.get(nw, CycNum.zero(order)) + c
    if j == g:
        x = killing(ALPHA[j], word_weight(lam, rest))
        scal = (i_power(x, order) - i_power(-x, order)) * Fraction(1, 2) * i_power(-1, order)
        if scal:
            r = reduce_word(rest)
            if r is not None:
                out[r] = out.get(r, CycNum.zero(order)) + scal
    return {w2: c for w2, c in out.items() if c}


def _x_minus3(elem, order):
    """X_-3 = -X_-2 X_-1 + i X_-1 X_-2 on a word combination."""
    ii = i_power(1, order)
    a = lower_word(2, lower_word(1, elem))
    b = lower_word(1, lower_word(2, elem))
    return _merge([{w: -c for w, c in a.items()}, {w: ii * c for w, c in b.items()}], order)


@lru_cache(maxsize=None)
def pbw_word_matrix(order):
    """Column k = expansion of the k-th PBW monomial in the word basis, and
    its inverse."""
    widx = {w: i for i, w in enumerate(WORDS)}
    cols = []
    for n1, n3, n2 in PBW:
        elem = {(): CycNum.one(order)}
        for _ in range(n2):
            elem = lower_word(2, elem)
        for _ in range(n3):
            elem = _x_minus3(elem, order)
        for _ in range(n1):
            elem = lower_word(1, elem)
        col = [CycNum.zero(order)] * 8
        for w, c in elem.items():
            col[widx[w]] = c
        cols.append(col)
    mat = [[cols[k][r] for k in range(8)] for r in range(8)]
    inv = invert(mat)
    assert inv is not None
    return mat, inv


def _word_matrix(applyfn, order):
    widx = {w: i for i, w in enumerate(WORDS)}
    cols = []
    for w in WORDS:
        col = [CycNum.zero(order)] * 8
        for w2, c in applyfn({w: CycNum.one(order)}).items():
            col[widx[w2]] = c
        cols.append(col)
    return [[cols[k][r] for k in range(8)] for r in range(8)]


def pbw_matrices(lam, order):
    """{g: 8 x 8 matrix of g on the PBW basis of M_lambda}."""
    c2w, w2c = pbw_word_matrix(order)
    out = {}
    for j in (1, 2):
        low = _word_matrix(lambda e: lower_word(j, e), order)
        high = _word_matrix(
            lambda e: _merge(
                [{w2: c0 * c for w2, c in raise_word(j, w, lam, order).items()} for w, c0 in e.items()],
                order,
            ),
            order,
        )
        out[-j] = mat_mul(w2c, mat_mul(low, c2w))
        out[j] = mat_mul(w2c, mat_mul(high, c2w))
    return out


def pbw_weights(lam):
    return [lam - n1 * ALPHA1 - n3 * ALPHA3 - n2 * ALPHA2 for n1, n3, n2 in PBW]


def ref_verma(lam, order):
    zero = CycNum.zero(order)
    wts = pbw_weights(lam)
    dims, local = {}, []
    for mu in wts:
        local.append(dims.get(mu, 0))
        dims[mu] = dims.get(mu, 0) + 1
    mats = pbw_matrices(lam, order)
    blocks = {g: {} for g in GENS}
    for g in GENS:
        shift = gen_shift(g)
        for col in range(8):
            src = wts[col]
            for row in range(8):
                c = mats[g][row][col]
                if c:
                    assert wts[row] == src + shift, "graded action violated"
                    blk = blocks[g].setdefault(
                        src, [[zero] * dims[src] for _ in range(dims.get(src + shift, 0))]
                    )
                    blk[local[row]][local[col]] = c
    return WeightRep(order, dims, blocks, label=f"M[{fmt_rat(lam.c1)},{fmt_rat(lam.c2)}]")


def _gram_word(lam, order):
    """Contravariant form on the word basis: <m,m> = 1, X_{+-j} adjoint to X_{-+j}."""
    one, zero = CycNum.one(order), CycNum.zero(order)
    cache = {}

    def pair(w, wp):
        if (w, wp) not in cache:
            if word_weight(lam, w) != word_weight(lam, wp):
                val = zero
            elif not w:
                val = zero if wp else one
            else:
                val = zero
                for w2, c in raise_word(w[0], wp, lam, order).items():
                    val = val + c * pair(w[1:], w2)
            cache[(w, wp)] = val
        return cache[(w, wp)]

    return [[pair(w, wp) for wp in WORDS] for w in WORDS]


def contravariant_gram(lam, order=None):
    """Gram matrices of the contravariant form on M_lambda, one per weight."""
    if order is None:
        order = field_order_for(lam.denominators())
    c2w, _ = pbw_word_matrix(order)
    ct = [list(row) for row in zip(*c2w)]
    gp = mat_mul(ct, mat_mul(_gram_word(lam, order), c2w))  # C^T G_word C
    wts = pbw_weights(lam)
    out = {}
    for mu in dict.fromkeys(wts):
        idx = [k for k, w in enumerate(wts) if w == mu]
        out[mu] = [[gp[r][c] for c in idx] for r in idx]
    return out


def ref_irreducible(lam, order):
    """M_lambda modulo the radical of the contravariant form."""
    m = ref_verma(lam, order)
    rad = {}
    for mu, g in contravariant_gram(lam, order).items():
        ker = nullspace(g, len(g), m.zero())
        if ker:
            rad[mu] = ker
    if rad:
        m, _ = quotient_rep(m, rad)
    m.label = f"L[{fmt_rat(lam.c1)},{fmt_rat(lam.c2)}]"
    return m


# -- the weights and orders compared -------------------------------------


def _random_weights(n, seed):
    """n random weights whose field is Q(zeta_4d), for each d in 1, 2, 3, 6."""
    rng = random.Random(seed)
    out = []
    for den in (1, 2, 3, 6):
        drawn = []
        while len(drawn) < n:
            lam = Weight(Fraction(rng.randrange(-36, 37), den), Fraction(rng.randrange(-36, 37), rng.choice((1, den))))
            if field_order_for(lam.denominators()) == 4 * den:
                drawn.append(lam)
        out.extend(drawn)
    return out


WEIGHTS = list(
    dict.fromkeys(
        [lam for tag in TAGS for lam in sample_class(tag, 12, seed=70, dens=(1, 2, 3))]
        + _random_weights(20, seed=71)
    )
)


def valid_orders(lam):
    base = field_order_for(lam.denominators())
    return [n for n in ORDERS if n % base == 0]


def test_the_comparison_covers_every_class_denominator_and_order():
    assert len(WEIGHTS) >= 100
    dens = {d for lam in WEIGHTS for d in lam.denominators()}
    assert {1, 2, 3, 6} <= dens
    assert {n for lam in WEIGHTS for n in valid_orders(lam)} == set(ORDERS)


@pytest.mark.parametrize("den", (1, 2, 3, 6))
def test_verma_and_irreducible_dumps_equal_the_word_construction(den):
    checked = 0
    for lam in WEIGHTS:
        if field_order_for(lam.denominators()) != 4 * den:
            continue
        for order in valid_orders(lam):
            v = repmod.verma(lam, order)
            assert json.dumps(v.to_json()) == json.dumps(ref_verma(lam, order).to_json()), (lam, order)
            assert relations_ok(v), (lam, order)
            got = json.dumps(repmod.irreducible(lam, order).to_json())
            assert got == json.dumps(ref_irreducible(lam, order).to_json()), (lam, order)
            checked += 1
    assert checked >= 20


def test_the_literal_table_is_the_word_derivation_at_order_4():
    """X_j = q_j A_j + q_j^-1 B_j: q_j = 1 at lambda = 0 and q_j = i at
    lambda = rho, so A_j and B_j are (X(0) -+ i X(rho)) / 2; X_-j is X(0)."""
    order = 4
    i = i_power(1, order)
    x0 = pbw_matrices(Weight(0, 0), order)
    x1 = pbw_matrices(Weight(1, 1), order)
    derived = {}
    for g in (1, 2, -1, -2):
        entries = []
        for col in range(8):
            for row in range(8):
                if g > 0:
                    a = (x0[g][row][col] - i * x1[g][row][col]) * Fraction(1, 2)
                    b = (x0[g][row][col] + i * x1[g][row][col]) * Fraction(1, 2)
                else:
                    a, b = x0[g][row][col], CycNum.zero(order)
                if a or b:
                    entries.append((col, row, a, b))
        derived[g] = entries
    assert repmod._pbw_table(order) == derived
