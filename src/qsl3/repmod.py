"""Concrete modules: Vermas, irreducible quotients, characters, Hom spaces.

The Verma M_lambda is built on the PBW basis X_-1^{n1} X_-3^{n3} X_-2^{n2}
m_lambda (lex order in (n1, n3, n2)).  On this basis the lowering matrices
X_-1, X_-2 do not depend on lambda, and each raising matrix splits as
X_j = q_j A_j + q_j^-1 B_j with q_j = i^<lambda, alpha_j> and A_j, B_j
constant: pushing X_j through a lowering word only meets the commutator
[X_j, X_-j] = (K_j - K_j^-1)/(2i), whose value on a weight vector is a
constant multiple of q_j minus one of q_j^-1.  These constant matrices are
the literal table _PBW_TABLE, with entries in Q(i).
"""

import math
from fractions import Fraction
from functools import lru_cache

from .exact import CycNum, InternalInconsistency, field_order_for, fmt_rat, i_power
from .linalg import Echelon, mat_mul, nullspace
from .weights import (
    ALPHA,
    ALPHA1,
    ALPHA2,
    ALPHA3,
    Weight,
    classify,
    killing,
)
from .algebra import GENS, WeightRep, quotient_rep

# the k-th PBW monomial, k running over (n1, n3, n2) in lex order, lowers
# the weight by PBW_DEPTH[k]
PBW_DEPTH = tuple(
    n1 * ALPHA1 + n3 * ALPHA3 + n2 * ALPHA2 for n1 in (0, 1) for n3 in (0, 1) for n2 in (0, 1)
)

_H = Fraction(1, 2)
# The nonzero entries of the generators on the PBW basis, column by column
# and down each column: (column, row, a, b) with a, b Gaussian rationals
# written (real, imaginary).  The entry of X_j is q_j a + q_j^-1 b; that of
# X_-j is a, and its b is 0.
_PBW_TABLE = {
    1: (
        (2, 1, (0, 1), (0, 0)),
        (4, 0, (0, -_H), (0, _H)),
        (5, 1, (_H, 0), (_H, 0)),
        (6, 2, (-_H, 0), (-_H, 0)),
        (6, 5, (0, 1), (0, 0)),
        (7, 3, (0, -_H), (0, _H)),
    ),
    2: (
        (1, 0, (0, -_H), (0, _H)),
        (2, 4, (0, 0), (-1, 0)),
        (3, 2, (0, -_H), (0, _H)),
        (3, 5, (0, 0), (1, 0)),
        (5, 4, (0, -_H), (0, _H)),
        (7, 6, (0, -_H), (0, _H)),
    ),
    -1: (
        (0, 4, (1, 0), (0, 0)),
        (1, 5, (1, 0), (0, 0)),
        (2, 6, (1, 0), (0, 0)),
        (3, 7, (1, 0), (0, 0)),
    ),
    -2: (
        (0, 1, (1, 0), (0, 0)),
        (2, 3, (0, -1), (0, 0)),
        (4, 2, (-1, 0), (0, 0)),
        (4, 5, (0, 1), (0, 0)),
        (5, 3, (-1, 0), (0, 0)),
        (6, 7, (1, 0), (0, 0)),
    ),
}


@lru_cache(maxsize=None)
def _pbw_table(order):
    """_PBW_TABLE in Q(zeta_order): {g: [(column, row, a, b)]}."""
    i = i_power(1, order)

    def gauss(z):
        re, im = z
        return CycNum.from_rat(re, order) + CycNum.from_rat(im, order) * i

    return {
        g: [(col, row, gauss(a), gauss(b)) for col, row, a, b in entries]
        for g, entries in _PBW_TABLE.items()
    }


def default_order(lam, *more):
    dens = []
    for w in (lam, *more):
        dens.extend(w.denominators())
    return field_order_for(dens)


def verma(lam, order=None):
    """The 8-dimensional Verma module M_lambda on the PBW basis.

    X_-j is read off _PBW_TABLE and X_j is q_j A_j + q_j^-1 B_j, entry by
    entry, with q_j = i^<lambda, alpha_j>.  Each block is filled column by
    column, in PBW order, and exists only where some entry of it is nonzero
    at this lambda.
    """
    if order is None:
        order = default_order(lam)
    zero = CycNum.zero(order)
    wts = [lam - d for d in PBW_DEPTH]
    dims = {}
    local = []
    for mu in wts:
        local.append(dims.get(mu, 0))
        dims[mu] = dims.get(mu, 0) + 1
    blocks = {g: {} for g in GENS}
    for g, entries in _pbw_table(order).items():
        if g > 0:
            x = killing(ALPHA[g], lam)
            q, qinv = i_power(x, order), i_power(-x, order)
        for col, row, a, b in entries:
            c = a if g < 0 else q * a + qinv * b
            if c:
                src = wts[col]
                blk = blocks[g].setdefault(src, [[zero] * dims[src] for _ in range(dims[wts[row]])])
                blk[local[row]][local[col]] = c
    return WeightRep(order, dims, blocks, label=f"M[{fmt_rat(lam.c1)},{fmt_rat(lam.c2)}]")


def irreducible(lam, order=None):
    """L_lambda = M_lambda / N, with N the maximal submodule.

    N is read off the Verma's raising blocks from the top down: N(lambda) = 0
    and N(mu) = {v : X_j v in N(mu + alpha_j) for j = 1, 2}, one nullspace
    of the rows f X_j(mu) with f running over the annihilator of
    N(mu + alpha_j).  So N is the set of vectors v such that no word u in
    X_1, X_2 gives u v a nonzero component along m_lambda.

    N is the radical of the contravariant form.  The form pairs distinct
    weights to 0, <m_lambda, m_lambda> = 1 and X_-j is adjoint to X_j, so
    <w m_lambda, v> = <m_lambda, u v> for a lowering word w and the raising
    word u read backwards, and <m_lambda, u v> is the component of u v along
    m_lambda.  The vectors w m_lambda span M_lambda, so v is in the radical
    exactly when it is in N.  nullspace returns the reduced echelon basis
    of N(mu), which depends on the subspace alone.
    """
    if order is None:
        order = default_order(lam)
    m = verma(lam, order)
    zero = m.zero()
    rad, ann = {}, {}  # N(mu), and its annihilator when N(mu) != 0
    for mu in reversed(m.weights_sorted()):
        if mu == lam:
            continue
        rows = []
        for j in (1, 2):
            x = m.block(j, mu)
            if x is not None:
                nu = mu + ALPHA[j]
                rows.extend(mat_mul(ann[nu], x) if nu in rad else x)
        ker = nullspace(rows, m.dims[mu], zero)
        if ker:
            rad[mu] = ker
            ann[mu] = nullspace(ker, m.dims[mu], zero)
    out = quotient_rep(m, rad)[0] if rad else m
    out.label = f"L[{fmt_rat(lam.c1)},{fmt_rat(lam.c2)}]"
    return out


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
