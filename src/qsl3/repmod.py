"""Concrete modules: Vermas, irreducible quotients, characters, Hom spaces.

The Verma M_lambda is built on the PBW basis X_-1^{n1} X_-3^{n3} X_-2^{n2}
m_lambda (lex order in (n1, n3, n2)).  Internally the nilpotent part is
handled on reduced lowering words in the letters 1, 2 (for X_-1, X_-2) with
the rewriting rules a^2 = b^2 = 0 and baba = abab; raising operators are
pushed through a word with the commutator relation.
"""

import math
from fractions import Fraction
from functools import lru_cache

from .exact import CycNum, InternalInconsistency, field_order_for, fmt_rat, i_power
from .linalg import Echelon, invert, mat_mul, nullspace
from .weights import (
    ALPHA,
    ALPHA1,
    ALPHA2,
    ALPHA3,
    Weight,
    classify,
    killing,
)
from .algebra import GENS, WeightRep, gen_shift

# the eight reduced lowering words (letters name the simple root lowered)
WORDS = ((), (1,), (2,), (1, 2), (2, 1), (1, 2, 1), (2, 1, 2), (1, 2, 1, 2))
# the eight PBW exponent triples (n1, n3, n2), lex order
PBW = tuple((n1, n3, n2) for n1 in (0, 1) for n3 in (0, 1) for n2 in (0, 1))


def word_weight(lam, w):
    out = lam
    for letter in w:
        out = out - ALPHA[letter]
    return out


def pbw_weight(lam, e):
    n1, n3, n2 = e
    return lam - n1 * ALPHA1 - n3 * ALPHA3 - n2 * ALPHA2


def reduce_word(w):
    """Normal form of a lowering word, or None if it is zero.

    Rules: adjacent equal letters kill the word; the subword (2,1,2,1)
    rewrites to (1,2,1,2).
    """
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


def lower_word(letter, elem):
    """Apply X_{-letter} on the left of a word combination."""
    out = {}
    for w, c in elem.items():
        nw = reduce_word((letter,) + w)
        if nw is not None:
            out[nw] = out.get(nw, CycNum.zero(c.order)) + c if nw in out else c
    return {w: c for w, c in out.items() if c}


def raise_word(j, w, lam, order):
    """X_j applied to the word w acting on m_lambda, as {word: coeff}.

    Uses X_j X_-g = X_-g X_j + delta_{jg} (K_j - K_j^-1)/(2i).
    """
    if not w:
        return {}
    g, rest = w[0], w[1:]
    out = {}
    inner = raise_word(j, rest, lam, order)
    for w2, c in inner.items():
        nw = reduce_word((g,) + w2)
        if nw is not None:
            out[nw] = out.get(nw, CycNum.zero(order)) + c
    if j == g:
        nu = word_weight(lam, rest)
        x = killing(ALPHA[j], nu)
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
    out = {}
    for w, c in a.items():
        out[w] = out.get(w, CycNum.zero(order)) - c
    for w, c in b.items():
        out[w] = out.get(w, CycNum.zero(order)) + ii * c
    return {w: c for w, c in out.items() if c}


@lru_cache(maxsize=None)
def _pbw_word_matrix(order):
    """Column k = expansion of the k-th PBW monomial in the word basis."""
    one = CycNum.one(order)
    widx = {w: i for i, w in enumerate(WORDS)}
    cols = []
    for n1, n3, n2 in PBW:
        elem = {(): one}
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


def default_order(lam, *more):
    dens = []
    for w in (lam, *more):
        dens.extend(w.denominators())
    return field_order_for(dens)


def verma(lam, order=None):
    """The 8-dimensional Verma module M_lambda on the PBW basis."""
    if order is None:
        order = default_order(lam)
    c2w, w2c = _pbw_word_matrix(order)  # word coords <- pbw coords, and inverse
    zero = CycNum.zero(order)
    widx = {w: i for i, w in enumerate(WORDS)}

    # generator matrices in the word basis
    def wordmat(applyfn):
        cols = []
        for w in WORDS:
            elem = applyfn({w: CycNum.one(order)})
            col = [zero] * 8
            for w2, c in elem.items():
                col[widx[w2]] = c
            cols.append(col)
        return [[cols[k][r] for k in range(8)] for r in range(8)]

    mats = {}
    for j in (1, 2):
        mats[-j] = wordmat(lambda e, j=j: lower_word(j, e))
        mats[j] = wordmat(
            lambda e, j=j: _merge(
                [
                    {w2: c0 * c for w2, c in raise_word(j, w, lam, order).items()}
                    for w, c0 in e.items()
                ],
                order,
            )
        )
    # transform into the PBW basis and carve into weight blocks
    pbw_wts = [pbw_weight(lam, e) for e in PBW]
    dims = {}
    local = []
    for mu in pbw_wts:
        local.append(dims.get(mu, 0))
        dims[mu] = dims.get(mu, 0) + 1
    blocks = {g: {} for g in GENS}
    for g in GENS:
        m = mat_mul(w2c, mat_mul(mats[g], c2w))
        shift = gen_shift(g)
        for col in range(8):
            src = pbw_wts[col]
            for row in range(8):
                if m[row][col]:
                    assert pbw_wts[row] == src + shift, "graded action violated"
                    blk = blocks[g].setdefault(
                        src,
                        [[zero] * dims[src] for _ in range(dims.get(src + shift, 0))],
                    )
                    blk[local[row]][local[col]] = m[row][col]
    return WeightRep(order, dims, blocks, label=f"M[{fmt_rat(lam.c1)},{fmt_rat(lam.c2)}]")


def _merge(dicts, order):
    out = {}
    for d in dicts:
        for w, c in d.items():
            out[w] = out.get(w, CycNum.zero(order)) + c
    return {w: c for w, c in out.items() if c}


def _gram_word(lam, order):
    """Contravariant form on the word basis: <m,m> = 1, X_{+-j} adjoint to X_{-+j}."""
    one = CycNum.one(order)
    zero = CycNum.zero(order)
    cache = {}

    def pair(w, wp):
        if (w, wp) in cache:
            return cache[(w, wp)]
        if word_weight(lam, w) != word_weight(lam, wp):
            val = zero
        elif not w:
            val = one if not wp else zero
        else:
            g, rest = w[0], w[1:]
            val = zero
            for w2, c in raise_word(g, wp, lam, order).items():
                val = val + c * pair(rest, w2)
        cache[(w, wp)] = val
        return val

    return [[pair(w, wp) for wp in WORDS] for w in WORDS]


def contravariant_gram(lam, order=None):
    """Gram matrices of the contravariant form on M_lambda, one per weight."""
    if order is None:
        order = default_order(lam)
    c2w, _ = _pbw_word_matrix(order)
    gw = _gram_word(lam, order)
    # G_pbw = C^T G_word C
    ct = [list(row) for row in zip(*c2w)]
    gp = mat_mul(ct, mat_mul(gw, c2w))
    pbw_wts = [pbw_weight(lam, e) for e in PBW]
    out = {}
    for mu in dict.fromkeys(pbw_wts):
        idx = [k for k, w in enumerate(pbw_wts) if w == mu]
        out[mu] = [[gp[r][c] for c in idx] for r in idx]
    return out


def irreducible(lam, order=None):
    """L_lambda = M_lambda / radical of the contravariant form."""
    if order is None:
        order = default_order(lam)
    m = verma(lam, order)
    gram = contravariant_gram(lam, order)
    from .algebra import quotient_rep

    rad = {}
    for mu, g in gram.items():
        ker = nullspace(g, len(g), m.zero())
        if ker:
            rad[mu] = ker
    if not rad:
        m.label = f"L[{fmt_rat(lam.c1)},{fmt_rat(lam.c2)}]"
        return m
    q, _ = quotient_rep(m, rad)
    q.label = f"L[{fmt_rat(lam.c1)},{fmt_rat(lam.c2)}]"
    return q


# -- characters -------------------------------------------------------


class Character:
    """Finite formal sum of z^lambda with integer multiplicities."""

    def __init__(self, terms=None):
        self.terms = {lam: m for lam, m in (terms or {}).items() if m}

    def __add__(self, other):
        out = dict(self.terms)
        for lam, m in other.terms.items():
            out[lam] = out.get(lam, 0) + m
        return Character(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for lam, m in other.terms.items():
            out[lam] = out.get(lam, 0) - m
        return Character(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return Character({lam: m * other for lam, m in self.terms.items()})
        out = {}
        for lam, m in self.terms.items():
            for mu, n in other.terms.items():
                nu = lam + mu
                out[nu] = out.get(nu, 0) + m * n
        return Character(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def shift(self, mu):
        return Character({lam + mu: m for lam, m in self.terms.items()})

    def dim(self):
        return sum(self.terms.values())

    def max_weight(self):
        return max(self.terms, key=Weight.sort_key) if self.terms else None

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0].sort_key(), reverse=True)

    def __repr__(self):
        return " + ".join(
            (f"{m}*" if m != 1 else "") + f"z^{lam!r}" for lam, m in self.sorted_terms()
        ) or "0"


def verma_character(lam):
    ch = Character({lam: 1})
    for i in (1, 2, 3):
        ch = ch * Character({Weight(0, 0): 1, -ALPHA[i]: 1})
    return ch


def irreducible_character(lam):
    """Character of L_lambda, by typicality class."""
    cls = classify(lam)
    z = lambda mu: Character({mu: 1})
    if cls.tag == "typical":
        return (
            z(lam)
            + z(lam - ALPHA1)
            + z(lam - ALPHA2)
            + 2 * z(lam - ALPHA3)
            + z(lam - ALPHA1 - ALPHA3)
            + z(lam - ALPHA2 - ALPHA3)
            + z(lam - 2 * ALPHA3)
        )
    if cls.tag == "atyp1":
        jk = [i for i in (1, 2, 3) if i != cls.i]
        j, k = jk
        return z(lam) + z(lam - ALPHA[j]) + z(lam - ALPHA[k]) + z(lam - ALPHA[j] - ALPHA[k])
    if cls.tag == "atyp2-root3-odd":
        j = 3 - cls.i  # the typical index among {1,2}
        return z(lam) + z(lam - ALPHA[j]) + z(lam - ALPHA3)
    return z(lam)


def character(v):
    return Character(dict(v.dims))


# -- Hom spaces -------------------------------------------------------


def generating_indices(rep):
    """Greedy generating set of (weight, local index) basis vectors,
    highest weight first."""
    span = {lam: Echelon(d) for lam, d in rep.dims.items()}
    order_idx = []
    for lam in sorted(rep.weights_sorted(), key=Weight.sort_key, reverse=True):
        for k in range(rep.dims[lam]):
            order_idx.append((lam, k))
    gens = []
    for lam, k in order_idx:
        unit = [rep.zero()] * rep.dims[lam]
        unit[k] = rep.one()
        if span[lam].contains(unit):
            continue
        gens.append((lam, k))
        queue = [(lam, list(unit))]
        span[lam].add(unit)
        while queue:
            mu, vec = queue.pop()
            for g in GENS:
                img = rep.apply_block(g, mu, vec)
                if img is None:
                    continue
                nu, w = img
                if any(w) and span[nu].add(list(w)):
                    queue.append((nu, w))
    return gens


def hom_space(a, b):
    """A basis of Hom(A, B), each map as weight blocks {lam: dimB(lam) x
    dimA(lam) matrix}, one for each weight of A that B shares, in
    A.weights_sorted() order.

    Spinning with parametric images: the images of a generating set of A
    are unknowns; spinning A while propagating parametric images yields
    linear constraints whose solutions are the intertwiners.  Each weight
    space of A is spun in one Echelon whose rows carry, as their tail, the
    parametric image in B: a dimB(lam) x unknowns matrix, flattened.
    """
    if a.order != b.order:
        m = math.lcm(a.order, b.order)
        a, b = a.embed(m), b.embed(m)
    zero, one = a.zero(), a.one()
    gens = generating_indices(a)
    nu = sum(b.dims.get(lam, 0) for lam, _ in gens)  # unknowns
    ech = {lam: Echelon(d) for lam, d in a.dims.items()}
    constraints = []
    queue = []

    def insert(lam, vec):
        e = ech[lam]
        if e.add(vec):
            queue.append((lam, e.rows[-1]))

    start = 0
    for lam, k in gens:
        # unknown start + j is the coefficient of B(lam)'s j-th basis vector
        # in the image of this generator
        da, db = a.dims[lam], b.dims.get(lam, 0)
        vec = [zero] * (da + db * nu)
        vec[k] = one
        for j in range(db):
            vec[da + j * nu + start + j] = one
        insert(lam, vec)
        start += db
    while queue:
        lam, row = queue.pop()  # a live row: later back-substitution updates it
        da = a.dims[lam]
        head, image = row[:da], row[da:]
        for g in GENS:
            tail = _apply_tail(b, g, lam, image, nu)
            img = a.apply_block(g, lam, head)
            if img is None:
                # the image of the mapped vector must also die in B
                if tail is not None:
                    constraints.extend(_rows(tail, nu))
                continue
            mu, avec = img
            if tail is None:
                tail = [zero] * (b.dims.get(mu, 0) * nu)
            insert(mu, avec + tail)
    for lam, e in ech.items():
        if e.rank != a.dims[lam]:
            raise InternalInconsistency(f"the generators do not span weight {lam!r} of A")
        for rel in e.relations:
            constraints.extend(_rows(rel, nu))
    constraints = [r for r in constraints if any(r)]

    shared = [(lam, ech[lam]) for lam in a.weights_sorted() if lam in b.dims]
    homs = []
    for s in nullspace(constraints, nu, zero):
        h = {}
        for lam, e in shared:
            da, db = a.dims[lam], b.dims[lam]
            blk = [[zero] * da for _ in range(db)]
            # the block has full rank, so each row is the unit vector at its
            # pivot, and its tail evaluated at s is that vector's image
            for p, row in zip(e.pivots, e.rows):
                for i in range(db):
                    acc = zero
                    for x, y in zip(row[da + i * nu : da + (i + 1) * nu], s):
                        if x and y:
                            acc = acc + x * y
                    blk[i][p] = acc
            h[lam] = blk
        homs.append(h)
    return homs


def _rows(flat, n):
    """The rows of a matrix with n columns stored flat."""
    return [flat[k : k + n] for k in range(0, len(flat), n)] if n else []


def _apply_tail(b, g, lam, tail, nu):
    """Apply generator g (in B) to a flattened parametric image on B(lam)."""
    blk = b.block(g, lam)
    if blk is None:
        return None
    zero = b.zero()
    out = [zero] * (len(blk) * nu)
    for i, brow in enumerate(blk):
        for jj, c in enumerate(brow):
            if c:
                for t in range(nu):
                    x = tail[jj * nu + t]
                    if x:
                        out[i * nu + t] = out[i * nu + t] + c * x
    return out


def image_columns(h):
    """The nonzero images of the basis vectors under a map h from
    hom_space, as (weight, block vector of the target) pairs."""
    for lam, blk in h.items():
        for col in zip(*blk):
            if any(col):
                yield lam, list(col)
