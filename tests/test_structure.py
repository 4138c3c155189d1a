"""Radical/socle series, Loewy diagrams, reference modules, verification."""

from fractions import Fraction

import pytest

from qsl3.algebra import dual_rep, tensor_action
from qsl3.repmod import character, irreducible, verma
from qsl3.rules import ModuleLabel, static_char, static_loewy, tensor_rule
from qsl3.structure import (
    VerificationFailure,
    build_reference,
    composition_factors,
    loewy,
    radical_layers,
    socle_layers,
    verify_decomposition,
)
from qsl3.weights import Weight, classify

from conftest import (
    TAGS,
    W,
    assert_isomorphic,
    branch_pairs,
    extract_summand,
    sample_class,
)


def test_composition_factors_of_verma():
    lam = W(0, 1)  # atyp2-root3-odd: factors 3+3+1+1 dims
    facs = dict(composition_factors(character(verma(lam))))
    assert sum(classify(w).irr_dim * m for w, m in facs.items()) == 8


def test_verma_loewy_matches_static_all_classes():
    for tag in TAGS[1:]:
        for lam in sample_class(tag, 3, seed=30):
            v = verma(lam)
            d = loewy(v)
            s = static_loewy(ModuleLabel("M", lam))
            assert d.layer_lists() == s.layer_lists()
            assert d.arrow_triples() == s.arrow_triples()


def test_typical_verma_is_irreducible():
    lam = sample_class("typical", 1, seed=31)[0]
    assert len(loewy(verma(lam)).layers) == 1


def test_radical_equals_reversed_socle_on_vermas():
    for tag in TAGS[1:]:
        lam = sample_class(tag, 2, seed=32)[0]
        v = verma(lam)
        rad = [layer.terms for layer in radical_layers(v)]
        soc = [layer.terms for layer in socle_layers(v)]
        assert rad == list(reversed(soc))


@pytest.mark.parametrize(
    "label",
    [
        ModuleLabel("P", W(0, Fraction(-1, 2))),
        ModuleLabel("P", W(0, 1)),
        ModuleLabel("K", W(1, 0)),
        ModuleLabel("R", W(0, 0), variant=2),
        ModuleLabel("S", W(0, 0)),
    ],
    ids=lambda l: repr(l) + (f"-v{l.variant}" if getattr(l, "variant", None) else ""),
)
def test_reference_modules_match_static_loewy(label):
    ref = build_reference(label)
    assert character(ref).terms == static_char(label).terms
    d = loewy(ref)
    s = static_loewy(label)
    assert d.layer_lists() == s.layer_lists()
    assert d.arrow_triples(only_mult1=True) >= s.arrow_triples(only_mult1=True)


def test_reference_q_module_diagram():
    lbl = ModuleLabel("Q", W(0, 1))
    d = loewy(build_reference(lbl))
    s = static_loewy(lbl)
    assert d.layer_lists() == s.layer_lists()


def test_verify_decomposition_accepts_true_and_rejects_false():
    lam, mu = W(1, 0), W(0, 1)
    t = tensor_action(irreducible(lam), irreducible(mu))
    expr = tensor_rule(ModuleLabel("L", lam), ModuleLabel("L", mu))
    report = verify_decomposition(t, expr)
    assert report["spanned"]
    from qsl3.rules import DecompositionExpr

    wrong = DecompositionExpr([ModuleLabel("L", lam + mu + Weight(1, 1))])
    with pytest.raises(VerificationFailure):
        verify_decomposition(t, wrong)


def test_verify_decomposition_lifts_module_and_references_to_one_field():
    lam, mu = W(0, Fraction(-1, 2)), W(0, Fraction(1, 2))
    t = tensor_action(irreducible(lam), irreducible(mu))
    expr = tensor_rule(ModuleLabel("L", lam), ModuleLabel("L", mu))
    assert t.order == 8 and repr(expr) == "K(16)[1,-2]"
    report = verify_decomposition(t, expr, order=24)
    assert report["spanned"]
    assert report["summands"] == [("K(16)[1,-2]", 1, 3)]
    assert report["attempts"] == 1


def test_self_duality_of_projectives():
    for label in [
        ModuleLabel("P", W(0, Fraction(-1, 2))),
        ModuleLabel("P", W(0, 1)),
    ]:
        ref = build_reference(label)
        assert_isomorphic(dual_rep(ref), ref)


def test_two_constructions_of_one_projective_agree():
    # the same 16-dimensional projective cover out of two different
    # tensor products must be isomorphic (characters already agree)
    lam, mu = branch_pairs("4x4-atyp1-distinct-index")[0]
    expr = tensor_rule(ModuleLabel("L", lam), ModuleLabel("L", mu))
    target = next(l for l, _ in expr if l.family == "P")
    copy = extract_summand(lam, mu, target)
    ref = build_reference(target, copy.order)
    assert_isomorphic(copy, ref)
