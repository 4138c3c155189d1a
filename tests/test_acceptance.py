"""Acceptance gate: ten criteria, exact (zero-tolerance) comparisons.

Each criterion is one test; run with -v for one pass/fail line per
criterion.  Every equality below is exact — rational arithmetic
throughout, no numerical tolerance anywhere.
"""

import random
import time
from fractions import Fraction

from qsl3 import kl, qseries
from qsl3.algebra import dual_rep, tensor_action
from qsl3.cli import _rule_samples
from qsl3.kl import AffineLabel, CosetLabel, OctLabel, affine_fuse, conj
from qsl3.repmod import character, irreducible, irreducible_character, verma, verma_character
from qsl3.rules import ModuleLabel, static_loewy, tensor_rule
from qsl3.structure import (
    build_reference,
    loewy,
    radical_layers,
    socle_layers,
    verify_decomposition,
)
from qsl3.weights import (
    ALPHA,
    ALPHA1,
    ALPHA2,
    ALPHA3,
    OMEGA1,
    OMEGA2,
    OMEGA3,
    RHO,
    ZERO,
    Weight,
)

import test_qseries as qso
from conftest import (
    TAGS,
    TENSOR_BRANCHES,
    W,
    assert_isomorphic,
    branch_pairs,
    extract_summand,
    sample_class,
)

HALF = Fraction(1, 2)
H32 = Fraction(3, 2)

REDUCIBLE_TAGS = TAGS[1:]
IRR_DIMS = dict(zip(TAGS, (8, 4, 3, 1)))


def _passed(n, detail):
    print(f"criterion {n}: PASS — {detail}")


def line_weight(line, t):
    base = {1: (-H32 * OMEGA1, ALPHA1), 2: (-H32 * OMEGA1, ALPHA3),
            3: (-H32 * OMEGA3, ALPHA2)}
    b, step = base[line]
    return b + Fraction(t) * step


def test_criterion_1_irreducibles_all_classes():
    t0 = time.monotonic()
    n = 0
    for tag in TAGS:
        for lam in sample_class(tag, 100, seed=101):
            rep = irreducible(lam)
            assert rep.dim == IRR_DIMS[tag]
            assert character(rep).terms == irreducible_character(lam).terms
            n += 1
    elapsed = time.monotonic() - t0
    assert n >= 400 and elapsed < 10, elapsed
    _passed(1, f"{n} irreducibles, dims and characters exact, {elapsed:.1f}s")


def test_criterion_2_verma_structure_all_reducible_classes():
    t0 = time.monotonic()
    n = 0
    for tag in REDUCIBLE_TAGS:
        for lam in sample_class(tag, 30, seed=102):
            v = verma(lam)
            rad = [layer.terms for layer in radical_layers(v)]
            soc = [layer.terms for layer in socle_layers(v)]
            assert rad == list(reversed(soc))
            d = loewy(v)
            s = static_loewy(ModuleLabel("M", lam))
            assert d.layer_lists() == s.layer_lists()
            assert d.arrow_triples() == s.arrow_triples()
            n += 1
    elapsed = time.monotonic() - t0
    assert n >= 90 and elapsed < 10, elapsed
    _passed(2, f"{n} Vermas, radical=socle and stated diagrams exact, {elapsed:.1f}s")


def test_criterion_3_duality_and_uniqueness():
    for tag in TAGS:
        for lam in sample_class(tag, 3, seed=103):
            rep = irreducible(lam)
            assert_isomorphic(dual_rep(rep), rep)
    for label in (
        ModuleLabel("P", W(0, Fraction(-1, 2))),
        ModuleLabel("P", W(0, 1)),
        ModuleLabel("P", W(0, 0)),
    ):
        ref = build_reference(label)
        assert_isomorphic(dual_rep(ref), ref)
    # the same projective extracted from two different tensor products
    lam, mu = branch_pairs("4x4-atyp1-distinct-index")[0]
    expr = tensor_rule(ModuleLabel("L", lam), ModuleLabel("L", mu))
    target = next(l for l, _ in expr if l.family == "P")
    copy = extract_summand(lam, mu, target)
    assert_isomorphic(copy, build_reference(target, copy.order))
    _passed(3, "irreducibles and projectives self-dual, equal-character projectives isomorphic")


def test_criterion_4_projective_characters_are_verma_sums():
    def vsum(lam, shifts):
        ch = None
        for s in shifts:
            v = verma_character(lam + s)
            ch = v if ch is None else ch + v
        return ch.terms

    checked = 0
    for i in (1, 2, 3):
        lam = sample_class("atyp1", 1, seed=104, index=i)[0]
        got = character(build_reference(ModuleLabel("P", lam))).terms
        assert got == vsum(lam, [ZERO, ALPHA[i]])
        checked += 1
    for i in (1, 2):
        lam = sample_class("atyp2-root3-odd", 1, seed=104, index=i)[0]
        got = character(build_reference(ModuleLabel("P", lam))).terms
        assert got == vsum(lam, [ZERO, ALPHA[i], ALPHA3])
        checked += 1
    lam = sample_class("atyp2-root3-even", 1, seed=104)[0]
    got = character(build_reference(ModuleLabel("P", lam))).terms
    assert got == vsum(
        lam, [ZERO, ALPHA1, ALPHA2, ALPHA1 + ALPHA3, ALPHA2 + ALPHA3, ALPHA1 + ALPHA2 + ALPHA3]
    )
    checked += 1
    _passed(4, f"{checked} projective characters equal their Verma-character sums")


def test_criterion_5_tensor_branches_certified():
    worst = 0.0
    for name in sorted(TENSOR_BRANCHES):
        t0 = time.monotonic()
        pairs = branch_pairs(name)
        assert len(pairs) >= 3
        for lam, mu in pairs:
            t = tensor_action(irreducible(lam), irreducible(mu))
            expr = tensor_rule(ModuleLabel("L", lam), ModuleLabel("L", mu))
            report = verify_decomposition(t, expr)
            assert report["spanned"], (name, lam, mu)
        elapsed = time.monotonic() - t0
        assert elapsed <= 30, (name, elapsed)
        worst = max(worst, elapsed)
    # the four non-projective indecomposables arising in tensor products
    for label in (
        ModuleLabel("K", W(1, 0)),
        ModuleLabel("R", W(0, 0), variant=2),
        ModuleLabel("S", W(0, 0)),
        ModuleLabel("Q", W(0, 1)),
    ):
        d = loewy(build_reference(label))
        assert d.layer_lists() == static_loewy(label).layer_lists(), repr(label)
    _passed(5, f"{len(TENSOR_BRANCHES)} branches x >=3 pairs certified, worst branch {worst:.1f}s")


def test_criterion_6_projective_covers_match_stated_diagrams():
    for label in (
        ModuleLabel("P", W(0, Fraction(-1, 2))),
        ModuleLabel("P", W(0, 1)),
        ModuleLabel("P", W(0, 0)),
    ):
        d = loewy(build_reference(label))
        s = static_loewy(label)
        assert d.layer_lists() == s.layer_lists(), repr(label)
        assert d.arrow_triples(only_mult1=True) >= s.arrow_triples(only_mult1=True), repr(label)
    mids = {repr(l): m for l, m in loewy(build_reference(ModuleLabel("P", W(0, 0)))).layers[2]}
    assert mids["L(1)[0,0]"] == 4  # collapsed middle node of the 48-dim cover
    _passed(6, "16/24/48-dim covers reproduce stated layers and multiplicity-1 arrows")


def test_criterion_7_grothendieck_fusion_rules():
    rng = random.Random(107)
    for rule in range(1, 10):
        for _ in range(2):
            a, b = _rule_samples(rule, rng)
            rep = kl.grothendieck_check(a, b)
            assert rep["match"], (rule, rep["only_lhs"], rep["only_rhs"])
    E = lambda t: AffineLabel.make("E", "", line_weight(1, t))
    Ew2 = lambda t: AffineLabel.make("E", "w2", line_weight(2, t))
    Ew12 = lambda t: AffineLabel.make("E", "w1w2", line_weight(3, t))
    R = lambda w: AffineLabel.make("R", "", w)
    L = AffineLabel.make("L")
    degenerate = [
        (L, R(ZERO)),
        (L, R(HALF * ALPHA1)),
        (Ew2(Fraction(1, 5)), E(Fraction(3, 10))),
        (E(Fraction(1, 5)), Ew12(Fraction(3, 10))),
        (E(Fraction(1, 5)), R(ZERO)),
        (R(W(Fraction(1, 5), Fraction(2, 5))), R(-W(Fraction(1, 5), Fraction(2, 5)))),
        (R(HALF * ALPHA1), R(HALF * ALPHA2)),
    ]
    for a, b in degenerate:
        rep = kl.grothendieck_check(a, b)
        assert rep["match"], (repr(a), repr(b), rep["only_lhs"], rep["only_rhs"])
    # distinguished full-level products
    R0 = R(ZERO)
    assert {repr(l): m for l, m in affine_fuse(R0, conj(R0))} == {"PVac": 1, "R[0,0]": 2}
    assert {repr(l): m for l, m in affine_fuse(L, R0)} == {"PL": 1}
    _passed(7, "nine rules at generic and degenerate parameters, full-level fixtures exact")


def test_criterion_8_dictionary_transport():
    samples = [
        CosetLabel("P16", line_weight(1, Fraction(1, 5))),
        CosetLabel("P16", line_weight(2, Fraction(2, 7))),
        CosetLabel("P16", line_weight(3, Fraction(3, 7))),
        CosetLabel("P24", -HALF * RHO),
        CosetLabel("P24", -HALF * RHO + ALPHA1 - ALPHA2),
        CosetLabel("P24bar", -HALF * RHO),
        CosetLabel("P24bar", -HALF * RHO + ALPHA3),
        CosetLabel("P48", ZERO),
        CosetLabel("P48", ALPHA2),
    ]
    for c in samples:
        stated = kl.coset_static_loewy(c)
        transported = kl.coset_loewy(c)
        assert stated.layer_lists() == transported.layer_lists(), repr(c)
        assert stated.arrows == transported.arrows, repr(c)
    lam = -HALF * RHO
    facs = kl.coset_loewy(CosetLabel("P24", lam)).factor_multiset()
    assert facs == {
        repr(CosetLabel("I3", lam)): 3,
        repr(CosetLabel("I1", lam + H32 * RHO)): 2,
        repr(CosetLabel("I1", lam - H32 * OMEGA3)): 2,
        repr(CosetLabel("I1", lam + H32 * OMEGA3)): 2,
        repr(CosetLabel("I3bar", lam + 3 * OMEGA1)): 1,
        repr(CosetLabel("I3bar", lam + 3 * OMEGA2)): 1,
        repr(CosetLabel("I3bar", lam)): 1,
    }
    for t in (Fraction(1, 5), Fraction(2, 7)):
        lam = line_weight(1, t)
        plus = kl.induce(CosetLabel("I4", lam + H32 * OMEGA2), lam)
        minus = kl.induce(CosetLabel("I4", lam - H32 * OMEGA2), lam)
        assert plus == AffineLabel.make("E", "", lam + HALF * ALPHA1, OMEGA2)
        assert minus == AffineLabel.make("E", "", lam - HALF * ALPHA1, -OMEGA2)
    _passed(8, "cover diagrams transported label-for-label; worked examples exact")


def test_criterion_9_octuplet_layer():
    rows = kl.octuplet_table()
    assert len(rows) == 12
    for r in rows:
        assert r["top_dim"] == len(r["weights"])
    # order-3 simple-current orbits
    s = OctLabel.make("W1", RHO)
    w3 = OctLabel.make("W3", -HALF * RHO)
    cur = w3
    for _ in range(3):
        cur = kl.oct_fuse(s, cur)[0][0]
    assert cur == w3
    # the six base fusion rules
    w3 = OctLabel.make("W3", H32 * RHO)
    w3b = OctLabel.make("W3bar", H32 * RHO)
    w8 = OctLabel.make("W8", ZERO)
    assert [repr(l) for l, _ in kl.oct_fuse(w3, w3)] == ["Q9barOct[3/2,3/2]"]
    assert [repr(l) for l, _ in kl.oct_fuse(w3b, w3b)] == ["Q9oct[3/2,3/2]"]
    assert sorted(repr(l) for l, _ in kl.oct_fuse(w3, w3b)) == ["W1[0,0]", "W8[0,0]"]
    assert [repr(l) for l, _ in kl.oct_fuse(w3, w8)] == ["P24oct[3/2,3/2]"]
    assert [repr(l) for l, _ in kl.oct_fuse(w3b, w8)] == ["P24barOct[3/2,3/2]"]
    assert {repr(l): m for l, m in kl.oct_fuse(w8, w8)} == {"W8[0,0]": 2, "P48oct[0,0]": 1}
    # reducible-label layer data obtained by transport
    for fam in ("Q9oct", "Q9barOct", "P24oct", "P24barOct", "P48oct"):
        for k in (0, 1, 2):
            l = kl._oct_at(fam, k)
            assert kl.oct_static_loewy(l).layer_lists() == kl.oct_loewy_transport(l).layer_lists()
    _passed(9, "12 table rows, orbits, six fusion rules, transported layers exact")


def test_criterion_10_qseries():
    t0 = time.monotonic()
    order = 50
    e = qso.euler_coeffs(order)
    oracle = qso.invert_series(qso.convolve(e, e, order), order)
    assert qso.int_coeffs(qseries.eta_inv_sq(order)) == oracle
    mu = W(Fraction(1, 5), Fraction(2, 5))
    window = [mu + i * ALPHA1 + j * ALPHA2 for i in range(-2, 3) for j in range(-2, 3)]
    for omega in (ZERO, OMEGA1):
        report = qseries.standard_char_identity(mu, omega, 25, window)
        assert report["match"] and report["window"] >= 20
    rng = random.Random(110)
    for _ in range(100):
        lam = Weight(Fraction(rng.randrange(-6, 7), 2), Fraction(rng.randrange(-6, 7), 2))
        nu = Weight(Fraction(rng.randrange(-6, 7), 2), Fraction(rng.randrange(-6, 7), 2))
        assert qseries.delta_from_leading(lam, nu) == kl.conformal_delta(lam, nu)
    elapsed = time.monotonic() - t0
    assert elapsed < 30, elapsed
    _passed(10, f"eta oracle to order 50, character identity to q^20, 100 delta pairs, {elapsed:.1f}s")
