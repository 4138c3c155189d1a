"""Verma and irreducible construction, characters, hom spaces."""

from fractions import Fraction

import pytest

from qsl3 import repmod, structure
from qsl3.algebra import GENS, direct_sum, gen_shift, tensor_action
from qsl3.exact import InternalInconsistency
from qsl3.linalg import mat_mul, nullspace, rank
from qsl3.repmod import (
    Character,
    character,
    default_order,
    hom_space,
    irreducible,
    irreducible_character,
    verma,
    verma_character,
)
from qsl3.weights import ALPHA1, ALPHA2, ALPHA3, ZERO

from conftest import TAGS, W, sample_class
from test_verma_differential import contravariant_gram


def test_verma_is_eight_dimensional_with_product_character():
    for tag in TAGS:
        for lam in sample_class(tag, 3, seed=20):
            v = verma(lam)
            assert v.dim == 8
            ch = character(v)
            assert ch.terms == verma_character(lam).terms
            # weights lam - subset sums of {alpha1, alpha2, alpha3}
            expect = {}
            for n1 in (0, 1):
                for n2 in (0, 1):
                    for n3 in (0, 1):
                        w = lam - n1 * ALPHA1 - n2 * ALPHA2 - n3 * ALPHA3
                        expect[w] = expect.get(w, 0) + 1
            assert ch.terms == expect


def test_irreducible_dims_by_class():
    for tag, dim in zip(TAGS, (8, 4, 3, 1)):
        for lam in sample_class(tag, 3, seed=21):
            rep = irreducible(lam)
            assert rep.dim == dim
            assert character(rep).terms == irreducible_character(lam).terms


def test_gram_radical_matches_irreducible_codim():
    for tag, dim in zip(TAGS, (8, 4, 3, 1)):
        lam = sample_class(tag, 1, seed=22)[0]
        grams = contravariant_gram(lam)
        r = sum(rank([list(row) for row in g], len(g)) for g in grams.values())
        assert r == dim


def test_hom_spaces():
    lam = W(0, Fraction(-1, 2))  # atyp1
    mu = W(1, 1)                 # typical
    L, Lm = irreducible(lam), irreducible(mu)
    assert len(hom_space(L, L)) == 1
    assert len(hom_space(Lm, Lm)) == 1
    assert len(hom_space(L, Lm)) == 0
    v = verma(lam)
    # Verma endomorphisms are scalars; no map from the Verma into its head's
    # socle-dual partner beyond the projection
    assert len(hom_space(v, v)) == 1
    assert len(hom_space(v, L)) == 1
    assert len(hom_space(L, v)) == 0  # head is not a submodule


def test_default_order_covers_denominators():
    assert default_order(W(1, 2)) == 4
    assert default_order(W(Fraction(1, 2), 1)) == 8
    assert default_order(W(Fraction(1, 2), Fraction(1, 3))) == 24
    assert default_order(W(1, 1), W(Fraction(1, 2), 1)) == 8


def test_character_algebra():
    a = Character({ZERO: 1, ALPHA1: 2})
    b = Character({ALPHA2: 3})
    assert (a + b).terms == {ZERO: 1, ALPHA1: 2, ALPHA2: 3}
    assert (a - a).terms == {}
    assert (a * b).terms == {ALPHA2: 3, ALPHA1 + ALPHA2: 6}
    assert (2 * a).terms == {ZERO: 2, ALPHA1: 4}
    assert a.shift(ALPHA2).terms == {ALPHA2: 1, ALPHA1 + ALPHA2: 2}
    assert a.dim() == 3
    assert a.max_weight() == ALPHA1
    assert bool(Character({})) is False


def test_characters_weyl_asymmetry_matches_class():
    # typical characters are the full Verma character
    lam = sample_class("typical", 1, seed=23)[0]
    assert irreducible_character(lam).terms == verma_character(lam).terms
    # atypical ones are proper truncations
    for tag in TAGS[1:]:
        lam = sample_class(tag, 1, seed=23)[0]
        diff = verma_character(lam) - irreducible_character(lam)
        assert diff.terms and all(m > 0 for m in diff.terms.values())


# -- hom_space against the intertwining equations -----------------------


def _intertwiner_count(a, b):
    """dim Hom(A, B), counted apart from hom_space: the kernel of the
    equations X(lam + shift) A_g(lam) = B_g(lam) X(lam) on the blocks of a
    weight-preserving map X."""
    index = {}
    for lam in a.weights_sorted():
        for i in range(b.dims.get(lam, 0)):
            for j in range(a.dims[lam]):
                index[(lam, i, j)] = len(index)
    rows = []
    for g in GENS:
        for lam in a.weights_sorted():
            mu = lam + gen_shift(g)
            if mu not in b.dims:
                continue
            ag, bg = a.block(g, lam), b.block(g, lam)
            for i in range(b.dims[mu]):
                for j in range(a.dims[lam]):
                    row = [a.zero()] * len(index)
                    if ag:
                        for k in range(a.dims[mu]):
                            row[index[(mu, i, k)]] += ag[k][j]
                    if bg:
                        for k in range(b.dims[lam]):
                            row[index[(lam, k, j)]] -= bg[i][k]
                    rows.append(row)
    return len(nullspace(rows, len(index), a.zero()))


L4, M4 = W(0, 1), W(1, 0)                     # weights over Q(i)
L8 = W(0, Fraction(-1, 2))                    # over Q(zeta_8)
L24 = W(Fraction(1, 2), Fraction(1, 3))       # typical, over Q(zeta_24)


def _t4():
    return tensor_action(irreducible(M4), irreducible(L4))


def _t8():
    return tensor_action(irreducible(L8), irreducible(L4, 8))


def _t24():
    return tensor_action(irreducible(L4, 24), irreducible(W(0, -1), 24))


def _s24():
    return direct_sum(irreducible(L24), irreducible(L24))


def _end(make):
    return lambda: (make(),) * 2


# name -> () -> (A, B); the field order leads the name
HOM_PAIRS = {
    "o4-verma-irr": lambda: (verma(L4), irreducible(L4)),
    "o4-socle-verma": lambda: (irreducible(W(-1, 0)), verma(L4)),
    "o4-tensor-end": _end(_t4),
    "o4-irr-tensor": lambda: (irreducible(L4 + M4), _t4()),
    "o4-no-common-weight": lambda: (verma(ZERO), irreducible(W(5, 7))),
    "o8-verma-end": _end(lambda: verma(L8)),
    "o8-verma-irr": lambda: (verma(L8), irreducible(L8)),
    "o8-tensor-irr": lambda: (_t8(), irreducible(L8 + L4, 8)),
    "o8-tensor-end": _end(_t8),
    "o24-verma-irr": lambda: (verma(L24), irreducible(L24)),
    "o24-socle-verma": lambda: (irreducible(W(-2, Fraction(2, 3)), 24),
                                verma(W(0, Fraction(-1, 3)), 24)),
    "o24-sum-end": _end(_s24),
    "o24-tensor-end": _end(_t24),
}


@pytest.mark.parametrize("name", sorted(HOM_PAIRS))
def test_hom_space_maps_intertwine_and_match_an_independent_count(name):
    a, b = HOM_PAIRS[name]()
    assert a.order == b.order == int(name[1 : name.index("-")])
    homs = hom_space(a, b)
    assert len(homs) == _intertwiner_count(a, b)
    shared = [lam for lam in a.weights_sorted() if lam in b.dims]
    for h in homs:
        assert list(h) == shared
        for lam in shared:
            assert len(h[lam]) == b.dims[lam]
            assert all(len(row) == a.dims[lam] for row in h[lam])
        # h[lam + shift] A_g(lam) = B_g(lam) h[lam] on every block
        for g in GENS:
            for lam in a.weights_sorted():
                mu = lam + gen_shift(g)
                if mu not in b.dims:
                    continue
                shape = (b.dims[mu], a.dims[lam])
                left = _product(h.get(mu), a.block(g, lam), shape, a.zero())
                right = _product(b.block(g, lam), h.get(lam), shape, a.zero())
                assert left == right, (g, lam)
    flat = [[x for lam in shared for row in h[lam] for x in row] for h in homs]
    if homs:
        assert rank(flat, len(flat[0])) == len(homs)


def _product(x, y, shape, zero):
    """The matrix product x y of the given shape; a factor that is None
    (a block that vanishes by grading) makes it zero."""
    if x is None or y is None:
        return [[zero] * shape[1] for _ in range(shape[0])]
    return mat_mul(x, y)


def test_hom_space_raises_when_generators_fail_to_span(monkeypatch):
    rep = irreducible(W(1, 1))
    s = direct_sum(rep, rep)
    assert len(repmod.generating_indices(s)) == 2
    full = repmod.generating_indices
    monkeypatch.setattr(repmod, "generating_indices", lambda r: full(r)[:-1])
    with pytest.raises(InternalInconsistency):
        hom_space(s, rep)
    assert structure.InternalInconsistency is InternalInconsistency
