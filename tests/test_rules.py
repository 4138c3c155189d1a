"""Closed-form tensor decompositions, labels, static diagrams and characters."""

from fractions import Fraction

import pytest

from qsl3.repmod import irreducible_character, verma_character
from qsl3.rules import (
    DecompositionExpr,
    ModuleLabel,
    UnsupportedCase,
    ext_exists,
    parse_label,
    reference_recipe,
    static_char,
    static_loewy,
    tensor_rule,
)
from qsl3.weights import ALPHA, ALPHA1, ALPHA3, classify

from conftest import TENSOR_BRANCHES, W, branch_pairs, from_indices


def test_label_dims_and_parse_round_trip():
    cases = [
        ModuleLabel("L", W(1, 1)),
        ModuleLabel("P", W(0, Fraction(-1, 2))),
        ModuleLabel("M", W(Fraction(1, 3), 2)),
        ModuleLabel("K", W(1, 0)),
        ModuleLabel("Q", W(0, 1)),
        ModuleLabel("S", W(0, 0)),
        ModuleLabel("R", W(0, 0)),
    ]
    for lbl in cases:
        assert parse_label(repr(lbl)) == lbl
    assert ModuleLabel("P", W(0, Fraction(-1, 2))).dim == 16
    assert ModuleLabel("P", W(0, 1)).dim == 24
    assert ModuleLabel("P", W(0, 0)).dim == 48
    with pytest.raises(ValueError):
        parse_label("L(4)[1,1]")  # wrong dimension tag for a typical weight
    with pytest.raises(ValueError):
        parse_label("X(8)[0,0]")


def test_decomposition_expr_merges_terms():
    l = ModuleLabel("L", W(1, 1))
    e = DecompositionExpr([l, (l, 2)])
    assert [(repr(x), m) for x, m in e] == [(repr(l), 3)]
    assert e.dim() == 24


@pytest.mark.parametrize("name", sorted(TENSOR_BRANCHES))
def test_branch_signatures_and_dims(name):
    want = TENSOR_BRANCHES[name]["families"]
    pairs = branch_pairs(name)
    assert len(pairs) >= 3
    for lam, mu in pairs:
        a, b = ModuleLabel("L", lam), ModuleLabel("L", mu)
        expr = tensor_rule(a, b)
        fams = {}
        for lbl, m in expr:
            fams[lbl.family] = fams.get(lbl.family, 0) + m
        assert fams == want, (name, lam, mu, repr(expr))
        assert expr.dim() == a.dim * b.dim, (name, lam, mu, repr(expr))


def test_tensor_rule_is_symmetric_on_dims():
    lam, mu = from_indices(1, 2), from_indices(2, Fraction(1, 2))
    e1 = tensor_rule(ModuleLabel("L", lam), ModuleLabel("L", mu))
    e2 = tensor_rule(ModuleLabel("L", mu), ModuleLabel("L", lam))
    assert e1 == e2


def test_tensor_rule_rejects_non_irreducible():
    with pytest.raises(ValueError):
        tensor_rule(ModuleLabel("P", W(1, 1)), ModuleLabel("L", W(1, 1)))


def test_static_char_projectives_equal_layer_sums():
    # Verma-sum characters agree with the diagram's factor content
    for lbl in [
        ModuleLabel("P", W(0, Fraction(-1, 2))),
        ModuleLabel("P", W(0, 1)),
        ModuleLabel("P", W(0, 0)),
    ]:
        by_layers = None
        for layer in static_loewy(lbl).layers:
            for l, m in layer:
                ch = m * irreducible_character(l.weight)
                by_layers = ch if by_layers is None else by_layers + ch
        assert static_char(lbl).terms == by_layers.terms


def test_static_char_verma_sums_explicit():
    al = ALPHA
    lam = W(0, Fraction(-1, 2))
    assert static_char(ModuleLabel("P", lam)).terms == (
        verma_character(lam + al[1]) + verma_character(lam)
    ).terms
    lam = W(0, 1)
    assert static_char(ModuleLabel("P", lam)).terms == (
        verma_character(lam + al[3]) + verma_character(lam + al[1]) + verma_character(lam)
    ).terms


def test_static_loewy_shapes():
    # Verma diagrams
    d = static_loewy(ModuleLabel("M", W(0, Fraction(-1, 2))))
    assert [sum(m for _, m in layer) for layer in d.layers] == [1, 1]
    d = static_loewy(ModuleLabel("M", W(0, 1)))
    assert [sum(m for _, m in layer) for layer in d.layers] == [1, 2, 1]
    d = static_loewy(ModuleLabel("M", W(0, 0)))
    assert [sum(m for _, m in layer) for layer in d.layers] == [1, 2, 1]
    # projective covers
    d = static_loewy(ModuleLabel("P", W(0, 1)))
    assert len(d.layers) == 5
    assert sum(m * classify(l.weight).irr_dim for layer in d.layers for l, m in layer) == 24
    d = static_loewy(ModuleLabel("P", W(0, 0)))
    assert sum(m * classify(l.weight).irr_dim for layer in d.layers for l, m in layer) == 48
    # middle layer of the 48-dimensional cover has the collapsed node
    mids = dict((repr(l), m) for l, m in d.layers[2])
    assert mids["L(1)[0,0]"] == 4


def test_ext_exists():
    lam = W(0, Fraction(-1, 2))  # atyp1, i = 1
    assert ext_exists(lam, lam + ALPHA1)
    assert ext_exists(lam + ALPHA1, lam)
    assert not ext_exists(lam, lam + ALPHA3)
    assert not ext_exists(W(1, 1), W(1, 1) + ALPHA1)  # typical: no extensions


def test_reference_recipe_contains_target():
    for lbl in [
        ModuleLabel("P", W(0, Fraction(-1, 2))),
        ModuleLabel("P", W(0, 1)),
        ModuleLabel("P", W(0, 0)),
        ModuleLabel("K", W(1, 0)),
        ModuleLabel("R", W(0, 0), variant=2),
        ModuleLabel("S", W(0, 0)),
        ModuleLabel("Q", W(0, 1)),
    ]:
        lam0, mu0, expr, target = reference_recipe(lbl)
        assert any(l.family == lbl.family and l.weight == lbl.weight for l, _ in expr)
        others = [l for l, _ in expr if not (l.family == lbl.family and l.weight == lbl.weight)]
        # every other summand is typical projective-irreducible, so it splits off
        assert all(o.family == "P" and classify(o.weight).tag == "typical" for o in others)


def test_unreachable_case_messages():
    # 4x4 same odd index with typical sum cannot occur; a crafted direct
    # call documents the guard
    from qsl3.rules import _rule_4x4

    lam = from_indices(1, Fraction(1, 2))
    with pytest.raises(UnsupportedCase):
        _rule_4x4(lam, lam, W(5, 5), classify(lam), classify(lam))
