"""Explicit module operations: relations, tensor, dual, sums, sub/quotient."""

from fractions import Fraction

import pytest

from qsl3.algebra import (
    GENS,
    direct_sum,
    dual_rep,
    gen_shift,
    quotient_rep,
    relations_ok,
    sub_rep,
    tensor_action,
    verify_relations,
)
from qsl3.exact import i_power
from qsl3.repmod import character, hom_space, irreducible, verma
from qsl3.structure import socle_subspace
from qsl3.weights import ALPHA, killing

from conftest import TAGS, W, sample_class


def test_relations_on_vermas():
    for tag in TAGS:
        for lam in sample_class(tag, 2, seed=10):
            rep = verma(lam)
            report = verify_relations(rep)
            bad = {k: v for k, v in report.items() if not v[0]}
            assert not bad, bad


def test_relations_on_irreducibles_and_duals():
    for tag in TAGS:
        lam = sample_class(tag, 1, seed=11)[0]
        rep = irreducible(lam)
        assert relations_ok(rep)
        assert relations_ok(dual_rep(rep))


def test_tensor_action_character_is_product():
    for a, b in [
        (W(1, 1), W(0, Fraction(-1, 2))),
        (W(0, 1), W(1, 0)),
        (W(Fraction(1, 2), Fraction(1, 2)), W(1, Fraction(3, 2))),
    ]:
        ra, rb = irreducible(a), irreducible(b)
        t = tensor_action(ra, rb)
        assert relations_ok(t)
        assert character(t).terms == (character(ra) * character(rb)).terms


# -- tensor_action against a dense Kronecker construction ----------------


def _dense(rep):
    """Dense matrices {g: matrix} of the generators of rep, and the global
    index of every (weight, local index), weights in ascending order."""
    index = {}
    for lam in rep.weights_sorted():
        for k in range(rep.dims[lam]):
            index[lam, k] = len(index)
    mats = {}
    for g in GENS:
        m = [[rep.zero()] * rep.dim for _ in range(rep.dim)]
        for lam, blk in rep.blocks[g].items():
            mu = lam + gen_shift(g)
            for i, row in enumerate(blk):
                for k, c in enumerate(row):
                    m[index[mu, i]][index[lam, k]] = c
        mats[g] = m
    return mats, index


def _k_diag(rep, index, j, sign):
    """The diagonal of K_j^sign on rep's global basis."""
    d = [None] * rep.dim
    for (lam, _k), n in index.items():
        d[n] = i_power(sign * killing(ALPHA[j], lam), rep.order)
    return d


def _kron(x, y, zero):
    """The Kronecker product: (x (x) y)[i*m + p][k*m + q] = x[i][k] y[p][q]."""
    n, m = len(x), len(y)
    out = [[zero] * (n * m) for _ in range(n * m)]
    for i, xrow in enumerate(x):
        for k, c in enumerate(xrow):
            if c:
                for p, yrow in enumerate(y):
                    for q, d in enumerate(yrow):
                        if d:
                            out[i * m + p][k * m + q] = c * d
    return out


def _diag(d, zero):
    return [[d[i] if i == j else zero for j in range(len(d))] for i in range(len(d))]


def _madd(x, y):
    return [[p + q for p, q in zip(r, s)] for r, s in zip(x, y)]


TENSOR_PAIRS = {
    "o4-verma-verma": lambda: (verma(W(0, 1)), verma(W(1, 0))),
    "o4-irr-irr": lambda: (irreducible(W(1, 0)), irreducible(W(0, 1))),
    "o8-irr-verma": lambda: (irreducible(W(0, Fraction(-1, 2))), verma(W(0, 1), 8)),
    "o24-irr-irr": lambda: (irreducible(W(Fraction(1, 2), Fraction(1, 3))),
                            irreducible(W(0, 1), 24)),
}


@pytest.mark.parametrize("name", sorted(TENSOR_PAIRS))
def test_tensor_action_matches_dense_kronecker_coproduct(name):
    a, b = TENSOR_PAIRS[name]()
    assert a.order == b.order == int(name[1 : name.index("-")])
    t = tensor_action(a, b)
    zero, one = a.zero(), a.one()
    ma, ia = _dense(a)
    mb, ib = _dense(b)
    # the coproduct on A (x) B in the Kronecker basis a_x (x) b_y -> x * dimB + y
    delta = {}
    for j in (1, 2):
        delta[j] = _madd(_kron(ma[j], _diag(_k_diag(b, ib, j, 1), zero), zero),
                         _kron(_diag([one] * a.dim, zero), mb[j], zero))
        delta[-j] = _madd(_kron(ma[-j], _diag([one] * b.dim, zero), zero),
                          _kron(_diag(_k_diag(a, ia, j, -1), zero), mb[-j], zero))
    # the documented basis of weight nu: A(lam) (x) B(mu) for lam ascending,
    # a_k (x) b_l at k * dimB(mu) + l inside each
    basis = {}
    for lam in a.weights_sorted():
        for mu in b.weights_sorted():
            basis.setdefault(lam + mu, []).extend(
                ia[lam, k] * b.dim + ib[mu, l]
                for k in range(a.dims[lam]) for l in range(b.dims[mu]))
    assert t.dims == {nu: len(v) for nu, v in basis.items()}
    for g in GENS:
        shift = gen_shift(g)
        assert all(nu + shift in t.dims for nu in t.blocks[g])
        for nu, cols in basis.items():
            rows = basis.get(nu + shift)
            if rows is None:
                continue
            want = [[delta[g][r][c] for c in cols] for r in rows]
            got = t.block(g, nu) or [[zero] * len(cols) for _ in rows]
            assert got == want, (g, nu)


def test_dual_preserves_character():
    for tag in TAGS:
        lam = sample_class(tag, 1, seed=12)[0]
        rep = irreducible(lam)
        assert character(dual_rep(rep)).terms == character(rep).terms


def test_direct_sum_and_hom_counts():
    lam = W(1, 1)  # typical: L is projective and 8-dimensional
    rep = irreducible(lam)
    s = direct_sum(rep, rep)
    assert s.dim == 2 * rep.dim
    assert relations_ok(s)
    assert len(hom_space(rep, s)) == 2
    assert len(hom_space(s, s)) == 4


def test_sub_and_quotient_of_reducible_verma():
    lam = W(0, Fraction(-1, 2))  # atyp1: socle 4-dim, head 4-dim
    v = verma(lam)
    soc = socle_subspace(v)
    sub, _ = sub_rep(v, soc)
    quo, _ = quotient_rep(v, soc)
    assert sub.dim == 4 and quo.dim == 4
    assert relations_ok(sub) and relations_ok(quo)
    assert (character(sub) + character(quo)).terms == character(v).terms
    # the quotient is the irreducible head
    assert character(quo).terms == character(irreducible(lam)).terms
