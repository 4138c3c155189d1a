"""Dictionary transport: coset labels, affine labels, fusion, octuplet."""

import random
from fractions import Fraction

import pytest

from qsl3 import kl
from qsl3.cli import _rule_samples
from qsl3.kl import (
    AffineLabel,
    CosetLabel,
    InvalidCosetWeight,
    NotLocal,
    OctLabel,
    TwistedModule,
    affine_factors,
    affine_fuse,
    affine_fuse_factors,
    affine_loewy,
    affine_static_loewy,
    atypical_lines,
    conformal_delta,
    conj,
    coset_loewy,
    coset_static_loewy,
    from_quantum,
    grothendieck_check,
    induce,
    line_rep,
    oct_fuse,
    oct_gr_fuse,
    oct_induce,
    oct_loewy_transport,
    oct_static_loewy,
    octuplet_table,
    parse_affine,
    parse_coset,
    parse_oct,
    restrict,
    to_quantum,
    twist,
)
from qsl3.rules import ModuleLabel, UnsupportedCase
from qsl3.weights import (
    ALPHA1,
    ALPHA2,
    ALPHA3,
    OMEGA1,
    OMEGA2,
    OMEGA3,
    RHO,
    ZERO,
    Weight,
    classify,
    killing,
    phi,
)

from conftest import W

HALF = Fraction(1, 2)
H32 = Fraction(3, 2)


def line1_weight(t):
    return -H32 * OMEGA1 + Fraction(t) * ALPHA1


def line2_weight(t):
    return -H32 * OMEGA1 + Fraction(t) * ALPHA3


def line3_weight(t):
    return -H32 * OMEGA3 + Fraction(t) * ALPHA2


# -- dictionary --------------------------------------------------------


def test_dictionary_round_trips_all_families():
    rng = random.Random(40)
    for _ in range(50):
        w = Weight(Fraction(rng.randrange(-12, 13), rng.choice((1, 2, 3, 4))),
                   Fraction(rng.randrange(-12, 13), rng.choice((1, 2, 3, 4))))
        c = CosetLabel("I8", w)
        assert from_quantum(to_quantum(c)) == c
    fixtures = [
        ("I4", line1_weight(Fraction(1, 5))),
        ("I4", line2_weight(Fraction(2, 7))),
        ("I4", line3_weight(Fraction(3, 5))),
        ("P16", line1_weight(Fraction(1, 5))),
        ("I3", -HALF * RHO + ALPHA1),
        ("I3bar", -HALF * RHO - ALPHA2),
        ("I1", ALPHA3),
        ("P24", -HALF * RHO),
        ("P24bar", -HALF * RHO + ALPHA2),
        ("P48", ZERO),
    ]
    for fam, w in fixtures:
        c = CosetLabel(fam, w)
        assert from_quantum(to_quantum(c)) == c


def test_dictionary_images_by_family():
    # the 8-dimensional family lands on irreducibles or Vermas depending
    # on the typicality of the shifted image
    w = W(1, 1)
    q = to_quantum(CosetLabel("I8", w))
    shifted = phi(w) + RHO
    assert q.weight == shifted
    assert q.family == ("L" if classify(shifted).tag == "typical" else "M")
    # degree-1 line: head weights carry the shift, covers do not move lines
    for t, line, i in ((Fraction(1, 5), 1, 2), (Fraction(2, 7), 2, 1), (Fraction(3, 7), 3, 3)):
        w = {1: line1_weight, 2: line2_weight, 3: line3_weight}[line](t)
        q = to_quantum(CosetLabel("I4", w))
        assert q.family == "L"
        expect = phi(w) + RHO if line in (1, 2) else phi(w)
        assert q.weight == expect
        assert classify(q.weight).tag == "atyp1" and classify(q.weight).i == i
    q = to_quantum(CosetLabel("I3", -HALF * RHO))
    assert q.family == "L" and classify(q.weight).tag == "atyp2-root3-odd"
    q = to_quantum(CosetLabel("I1", ZERO))
    assert q.family == "L" and classify(q.weight).tag == "atyp2-root3-even"


def test_invalid_coset_weights_rejected():
    with pytest.raises(InvalidCosetWeight):
        CosetLabel("I3", ZERO)  # not in -rho/2 + Q
    with pytest.raises(InvalidCosetWeight):
        CosetLabel("I4", W(1, 1))  # not on an atypical line
    with pytest.raises(InvalidCosetWeight):
        CosetLabel("P48", -HALF * RHO)  # not in Q
    with pytest.raises(InvalidCosetWeight):
        from_quantum(ModuleLabel("Q", W(0, 1)))  # unnamed indecomposable


def test_parse_coset_round_trip():
    for s in ("I8[1/2,-3]", "I3[-1/2,-1/2]", "P48[0,0]", "P24bar[-3/2,3/2]"):
        assert repr(parse_coset(s)) == s


def test_conformal_delta_closed_form():
    assert conformal_delta(ZERO, ZERO) == -HALF
    lam, mu = W(1, 0), W(0, 1)
    assert conformal_delta(lam, mu) == (
        Fraction(1, 3) * (killing(lam, lam) - killing(mu, mu)) - HALF
    )


# -- induction and spectral flow ---------------------------------------


def test_induce_restrict_round_trip():
    # parameters of the standard and degree-1 families are canonicalised
    # on induction, so round-trip weights must already be canonical
    cases = [
        (CosetLabel("I8", W(1, 0)), W(1, 0) - H32 * OMEGA1),
        (CosetLabel("I4", line1_weight(Fraction(6, 5))), line1_weight(Fraction(6, 5))),
        (CosetLabel("I3", -HALF * RHO), -HALF * RHO - H32 * RHO),
        (CosetLabel("I1", ZERO), -3 * OMEGA2),
        (CosetLabel("P24", -HALF * RHO), -HALF * RHO),
        (CosetLabel("P48", ZERO), ZERO),
    ]
    for c, fock in cases:
        a = induce(c, fock)
        c2, fock2 = restrict(a)
        assert (c2, fock2) == (c, fock)
        assert a.flow == Fraction(2, 3) * (c.weight - fock)


def test_induce_requires_local_difference():
    with pytest.raises(NotLocal):
        induce(CosetLabel("I8", ZERO), OMEGA1)  # omega1 not in (3/2)P


def test_twist_and_conj():
    a = AffineLabel.make("L", "c", None, ZERO)
    t = twist(a, RHO)
    assert t.flow == RHO
    assert conj(t).decor == "" and conj(t).flow == -RHO
    r = AffineLabel.make("R", "", W(Fraction(1, 5), Fraction(2, 5)), OMEGA1)
    cr = conj(r)
    assert cr.flow == -OMEGA1
    assert conj(cr) == r
    with pytest.raises(ValueError):
        twist(a, HALF * OMEGA1)
    with pytest.raises(UnsupportedCase):
        conj(AffineLabel.make("E", "", line1_weight(Fraction(1, 5))))


def test_affine_label_canonicalisation_and_parse():
    # R parameters are reduced modulo the root lattice
    r1 = AffineLabel.make("R", "", W(Fraction(1, 5), Fraction(2, 5)) + ALPHA1)
    r2 = AffineLabel.make("R", "", W(Fraction(1, 5), Fraction(2, 5)))
    assert r1 == r2
    # E parameters must sit on exactly the decorated line
    with pytest.raises(InvalidCosetWeight):
        AffineLabel.make("E", "", -H32 * OMEGA1)  # on two lines at once
    with pytest.raises(InvalidCosetWeight):
        AffineLabel.make("E", "w2", line1_weight(Fraction(1, 5)))
    for s in ("L", "c*L", "Vac", "sf(1,0)*c*L", "R[1/5,2/5]", "sf(0,-2)*PVac",
              "w2*E[-7/10,4/5]"):
        assert repr(parse_affine(s)) == s


def test_atypical_lines_and_reps():
    w = -H32 * OMEGA1  # on lines 1 and 2 simultaneously
    assert atypical_lines(w) == [1, 2]
    w1 = line1_weight(Fraction(1, 5))
    assert atypical_lines(w1) == [1]
    rep = line_rep(w1 + ALPHA2, 1)
    assert rep == line_rep(w1, 1)


# -- fusion ------------------------------------------------------------


def test_full_fusion_fixtures():
    L = AffineLabel.make("L")
    cL = AffineLabel.make("L", "c")
    R0 = AffineLabel.make("R", "", ZERO)
    out = affine_fuse(L, cL)
    assert {repr(l): m for l, m in out} == {"R[0,0]": 1, "Vac": 1}
    out = affine_fuse(L, R0)
    assert {repr(l): m for l, m in out} == {"PL": 1}
    out = affine_fuse(R0, conj(R0))
    assert {repr(l): m for l, m in out} == {"PVac": 1, "R[0,0]": 2}
    # L x L contains an unnamed quantum indecomposable at the full level
    with pytest.raises((UnsupportedCase, InvalidCosetWeight)):
        affine_fuse(L, L)
    facs = affine_fuse_factors(L, L)
    assert {repr(l): m for l, m in facs.items()} == {
        "sf(1,1)*c*L": 2, "Vac": 1, "sf(0,2)*Vac": 1, "sf(2,0)*Vac": 1,
    }


def test_affine_factors_of_covers():
    facs = affine_factors(AffineLabel.make("PL"))
    total = sum(facs.values())
    assert total == 12  # 1 + 3 + 4 + 3 + 1 nodes of the 24-type diagram
    assert facs[AffineLabel.make("L")] == 3


@pytest.mark.parametrize("rule", range(1, 10))
def test_grothendieck_rules_generic(rule):
    rng = random.Random(41 + rule)
    for _ in range(2):
        a, b = _rule_samples(rule, rng)
        rep = grothendieck_check(a, b)
        assert rep["rule"] == rule
        assert rep["match"], (rule, rep["only_lhs"], rep["only_rhs"])


def test_grothendieck_rules_degenerate():
    L = AffineLabel.make("L")
    E = lambda t: AffineLabel.make("E", "", line1_weight(t))
    Ew2 = lambda t: AffineLabel.make("E", "w2", line2_weight(t))
    Ew12 = lambda t: AffineLabel.make("E", "w1w2", line3_weight(t))
    R = lambda w: AffineLabel.make("R", "", w)
    cases = [
        (L, R(ZERO)),                      # rule 4 at the origin
        (L, R(HALF * ALPHA1)),             # rule 4, reducible standard input
        (L, R(HALF * ALPHA2)),
        (Ew2(Fraction(1, 5)), E(Fraction(3, 10))),   # rule 6 hitting a cover
        (E(Fraction(1, 5)), Ew12(Fraction(3, 10))),  # rule 7 analogue
        (E(Fraction(1, 5)), R(ZERO)),      # rule 8 with the origin
        (R(W(Fraction(1, 5), Fraction(2, 5))), R(-W(Fraction(1, 5), Fraction(2, 5)))),  # rule 9, s = 0
        (R(HALF * ALPHA1), R(HALF * ALPHA2)),  # rule 9, both inputs reducible
    ]
    for a, b in cases:
        rep = grothendieck_check(a, b)
        assert rep["match"], (repr(a), repr(b), rep["only_lhs"], rep["only_rhs"])


def test_grothendieck_rules_respect_spectral_flow():
    rng = random.Random(42)
    for rule in (2, 4, 5, 9):
        a, b = _rule_samples(rule, rng)
        a, b = twist(a, OMEGA1), twist(b, -RHO)
        rep = grothendieck_check(a, b)
        assert rep["match"], (rule, rep)


def test_fusion_commutes():
    rng = random.Random(43)
    for rule in (3, 4, 8):
        a, b = _rule_samples(rule, rng)
        ab = affine_fuse_factors(a, b)
        ba = affine_fuse_factors(b, a)
        assert ab == ba


# -- translated diagrams ----------------------------------------------


def test_transport_matches_stated_cover_diagrams():
    samples = [
        CosetLabel("P16", line1_weight(Fraction(1, 5))),
        CosetLabel("P16", line2_weight(Fraction(2, 7))),
        CosetLabel("P16", line3_weight(Fraction(3, 7))),
        CosetLabel("P24", -HALF * RHO),
        CosetLabel("P24", -HALF * RHO + ALPHA1 - ALPHA2),
        CosetLabel("P24bar", -HALF * RHO),
        CosetLabel("P24bar", -HALF * RHO + ALPHA3),
        CosetLabel("P48", ZERO),
        CosetLabel("P48", ALPHA2),
    ]
    for c in samples:
        stated = coset_static_loewy(c)
        transported = coset_loewy(c)
        assert stated.layer_lists() == transported.layer_lists(), repr(c)
        assert stated.arrows == transported.arrows, repr(c)


def test_transport_matches_stated_affine_diagrams():
    samples = [
        AffineLabel.make("PE", "", line1_weight(Fraction(1, 5))),
        AffineLabel.make("PL"),
        AffineLabel.make("PVac"),
    ]
    for a in samples:
        stated = affine_static_loewy(a)
        transported = affine_loewy(a)
        assert stated.layer_lists() == transported.layer_lists(), repr(a)
        assert stated.arrows == transported.arrows, repr(a)


def test_cover_24_seven_factor_list():
    lam = -HALF * RHO
    facs = coset_static_loewy(CosetLabel("P24", lam)).factor_multiset()
    assert facs == {
        repr(CosetLabel("I3", lam)): 3,
        repr(CosetLabel("I1", lam + H32 * RHO)): 2,
        repr(CosetLabel("I1", lam - H32 * OMEGA3)): 2,
        repr(CosetLabel("I1", lam + H32 * OMEGA3)): 2,
        repr(CosetLabel("I3bar", lam + 3 * OMEGA1)): 1,
        repr(CosetLabel("I3bar", lam + 3 * OMEGA2)): 1,
        repr(CosetLabel("I3bar", lam)): 1,
    }
    assert coset_loewy(CosetLabel("P24", lam)).factor_multiset() == facs


def test_cover_side_fock_shift():
    # inducing the two side nodes of the 16-type cover against the head's
    # Fock weight shifts the line parameter by half a simple root
    for t in (Fraction(1, 5), Fraction(2, 7)):
        lam = line1_weight(t)
        plus = induce(CosetLabel("I4", lam + H32 * OMEGA2), lam)
        minus = induce(CosetLabel("I4", lam - H32 * OMEGA2), lam)
        assert plus == AffineLabel.make("E", "", lam + HALF * ALPHA1, OMEGA2)
        assert minus == AffineLabel.make("E", "", lam - HALF * ALPHA1, -OMEGA2)


# -- octuplet ----------------------------------------------------------


def test_octuplet_table_consistency():
    rows = octuplet_table()
    assert len(rows) == 12
    for r in rows:
        lbl = r["label"]
        assert r["top_dim"] == len(r["weights"])
        # every listed top weight sits in the label's coset class
        for w in r["weights"]:
            assert OctLabel.make(lbl.family, w).class_index in (0, 1, 2)
        if lbl.family == "W8":
            for w in r["weights"]:
                assert Fraction(1, 3) * killing(w, w) - HALF == r["conformal_weight"]


def test_oct_induce_and_guards():
    assert oct_induce(CosetLabel("I1", ZERO)) == OctLabel.make("W1", ZERO)
    assert oct_induce(CosetLabel("I3", -HALF * RHO)).family == "W3"
    assert oct_induce(CosetLabel("P48", ALPHA1)).family == "P48oct"
    with pytest.raises(TwistedModule):
        oct_induce(CosetLabel("I8", W(Fraction(1, 5), 0)))
    with pytest.raises(UnsupportedCase):
        oct_induce(CosetLabel("I8", HALF * ALPHA1))  # in Q/2 but off Q


def test_oct_parse_round_trip():
    for s in ("W1[0,0]", "W3[-1/2,-1/2]", "P48oct[1,1]", "Q9barOct[3/2,3/2]"):
        assert repr(parse_oct(s)) == s


def test_oct_simple_current_orbits():
    # fusing with the order-3 current walks the three classes
    e = OctLabel.make("W1", ZERO)
    s = OctLabel.make("W1", RHO)
    out = oct_fuse(s, s)
    assert out == [(OctLabel.make("W1", -RHO), 1)]
    out = oct_fuse(s, OctLabel.make("W1", -RHO))
    assert out == [(e, 1)]
    # the orbit of any irreducible closes after three steps
    w3 = OctLabel.make("W3", -HALF * RHO)
    cur = w3
    for _ in range(3):
        cur = oct_fuse(s, cur)[0][0]
    assert cur == w3


def test_oct_base_fusion_rules():
    w3 = OctLabel.make("W3", H32 * RHO)
    w3b = OctLabel.make("W3bar", H32 * RHO)
    w8 = OctLabel.make("W8", ZERO)
    assert [repr(l) for l, _ in oct_fuse(w3, w3)] == ["Q9barOct[3/2,3/2]"]
    assert [repr(l) for l, _ in oct_fuse(w3b, w3b)] == ["Q9oct[3/2,3/2]"]
    assert sorted(repr(l) for l, _ in oct_fuse(w3, w3b)) == ["W1[0,0]", "W8[0,0]"]
    assert [repr(l) for l, _ in oct_fuse(w3, w8)] == ["P24oct[3/2,3/2]"]
    assert [repr(l) for l, _ in oct_fuse(w3b, w8)] == ["P24barOct[3/2,3/2]"]
    out = {repr(l): m for l, m in oct_fuse(w8, w8)}
    assert out == {"W8[0,0]": 2, "P48oct[0,0]": 1}
    with pytest.raises(UnsupportedCase):
        oct_fuse(OctLabel.make("P48oct", ZERO), w8)


def test_oct_grothendieck_ring_is_commutative_and_associative():
    irr = [OctLabel.make(f, w) for f in ("W1", "W8") for w in (ZERO, RHO, -RHO)]
    irr += [OctLabel.make(f, w) for f in ("W3", "W3bar")
            for w in (-HALF * RHO, HALF * RHO, H32 * RHO)]

    def mul(x, y):
        return tuple(sorted((repr(l), m) for l, m in oct_gr_fuse(x, y).items()))

    for a in irr:
        for b in irr:
            assert mul(a, b) == mul(b, a)
    rng = random.Random(44)
    for _ in range(25):
        a, b, c = rng.choice(irr), rng.choice(irr), rng.choice(irr)
        # associativity at the composition-factor level
        lhs = {}
        for l, m in oct_gr_fuse(a, b).items():
            for l2, m2 in oct_gr_fuse(l, c).items():
                lhs[repr(l2)] = lhs.get(repr(l2), 0) + m * m2
        rhs = {}
        for l, m in oct_gr_fuse(b, c).items():
            for l2, m2 in oct_gr_fuse(a, l).items():
                rhs[repr(l2)] = rhs.get(repr(l2), 0) + m * m2
        assert lhs == rhs


def test_oct_layers_by_transport():
    fams = ("Q9oct", "Q9barOct", "P24oct", "P24barOct", "P48oct")
    for fam in fams:
        for k in (0, 1, 2):
            l = kl._oct_at(fam, k)
            stated = oct_static_loewy(l)
            transported = oct_loewy_transport(l)
            assert stated.layer_lists() == transported.layer_lists(), repr(l)
