"""The benchmark's workloads: seeded inputs, timed operations, checks.

A workload turns a seed into a fixed list of operations, one per slot
(kind, field order, module family); the benchmark runs that list in rounds,
each from a fresh state.  In `tensor-certify` and `loewy-structure` every
slot has a fixed base weight, and the seed moves all of them by one lattice
shift: even integers added to the indices <lam + rho, alpha_j>, which keeps
every parity and so the branch, the typicality class and the field order of
each slot.  Which operations share a module (and so a cache entry) is
therefore the same for every seed.  The deliberate repeats are listed in
README.md.

Operations call `qsl3` through module attributes (`structure.loewy`, not a
name imported once), so the traced run sees every call.
"""

import random
from fractions import Fraction

from qsl3 import algebra, kl, qseries, repmod, rules, structure
from qsl3.weights import ALPHA1, ALPHA2, ALPHA3, OMEGA1, OMEGA3, RHO, ZERO, Weight

import checks

F = Fraction
HALF = F(1, 2)


class Op:
    """One timed operation: run() is timed, check(output) is not."""

    __slots__ = ("kind", "inputs", "run", "check", "expect")

    def __init__(self, kind, inputs, run, check, expect=None):
        self.kind = kind        # slot name, as in README.md
        self.inputs = inputs    # a repr-able description of the input
        self.run = run
        self.check = check      # output -> list of problems
        self.expect = expect    # exception type the operation is known to raise


def from_indices(l1, l2):
    """The weight with indices <lam + rho, alpha_j> = (l1, l2, l1 + l2)."""
    return Weight(F(l1) - 1, F(l2) - 1)


def L(w):
    return rules.ModuleLabel("L", w)


def lattice_shift(rng, n):
    """n pairs of even integers, added to the index pairs of a round."""
    return [(2 * rng.randrange(-3, 4), 2 * rng.randrange(-3, 4)) for _ in range(n)]


def shifted(indices, shift):
    (l1, l2), (s1, s2) = indices, shift
    return from_indices(F(l1) + s1, F(l2) + s2)


# -- tensor-certify ----------------------------------------------------

TENSOR_SLOTS = (
    # name (branch/field order), (lambda indices, mu indices)
    ("4x4-atyp1-distinct/o8", ((1, "1/2"), ("1/2", 1))),
    ("4x4-K/o8", ((1, "1/2"), (1, "3/2"))),
    ("4x4-typical-distinct/o24", ((1, "1/2"), ("1/3", 1))),
    ("4x4-typical-distinct-b/o24", (("1/2", 1), (1, "1/3"))),
    ("3x8-eee/o4", ((1, 2), (2, 2))),
    ("3x8-mi-even/o8", ((1, 2), (2, "1/2"))),
    ("3x8-nnn/o24", ((1, 2), ("1/2", "1/3"))),
    ("3x8-nnn-b/o24", ((2, 1), ("1/3", "1/2"))),
    ("4x8-i12-e-o-e/o8", ((1, "1/2"), (2, "1/2"))),
    ("4x8-i2-n/o8", (("1/2", 1), ("1/2", 2))),
    ("4x8-i3-n-nn/o24", (("1/2", "1/2"), ("1/6", "1/3"))),
    ("8x8-eee/o4", ((2, 2), (2, 2))),
)
# the slot whose swapped pair ends the list: same summands, so every
# reference it needs is already cached
TENSOR_REUSE = "4x8-i3-n-nn/o24"


def tensor_op(kind, lam, mu):
    def run():
        t = algebra.tensor_action(repmod.irreducible(lam), repmod.irreducible(mu))
        expr = rules.tensor_rule(L(lam), L(mu))
        report = structure.verify_decomposition(t, expr)
        return t, expr, report

    def check(out):
        t, expr, report = out
        problems = [] if report.get("spanned") else ["certificate did not span"]
        return problems + checks.check_tensor(
            lam, mu, t.dim, dict(t.dims),
            [(rules.static_char(lbl).terms, m) for lbl, m in expr],
            (repmod.irreducible_character(lam).terms, repmod.irreducible_character(mu).terms),
            algebra.relations_ok(t),
        )

    return Op(kind, (repr(lam), repr(mu)), run, check)


def tensor_certify(seed):
    s_lam, s_mu = lattice_shift(random.Random(f"tensor-certify|{seed}"), 2)
    ops, pairs = [], {}
    for kind, (la, mu) in TENSOR_SLOTS:
        pairs[kind] = (shifted(la, s_lam), shifted(mu, s_mu))
        ops.append(tensor_op(kind, *pairs[kind]))
    lam, mu = pairs[TENSOR_REUSE]
    ops.append(tensor_op(f"{TENSOR_REUSE}/swapped", mu, lam))
    return ops


def negative_control():
    """A projective cover replaced by its composition factors: same
    character, not isomorphic; verify_decomposition must reject it."""
    lam, mu = from_indices(1, HALF), from_indices(HALF, 1)
    t = algebra.tensor_action(repmod.irreducible(lam), repmod.irreducible(mu))
    (proj, _m), = rules.tensor_rule(L(lam), L(mu))
    factors = [(f, m) for layer in rules.static_loewy(proj).layers for f, m in layer]
    false_expr = rules.DecompositionExpr(factors)
    try:
        structure.verify_decomposition(t, false_expr)
    except structure.VerificationFailure:
        return checks.check_negative_control(True)
    return checks.check_negative_control(False)


# -- loewy-structure ---------------------------------------------------

# Base index pairs (l1, l2), l3 = l1 + l2.  atyp1-i<j>: index j odd, the
# other two non-integral; atyp2-odd-i<j>: indices j and 3 odd;
# atyp2-even: indices 1 and 2 odd.  Field orders as the program picks them.
LOEWY_SLOTS = (
    # name, module family, base indices, R variant
    ("M/atyp1-i1/o8", "M", (1, "1/2"), None),
    ("M/atyp1-i2/o8", "M", ("-3/2", 3), None),
    ("M/atyp1-i3/o8", "M", ("5/2", "-7/2"), None),
    ("M/atyp1-i1/o12", "M", (-1, "1/3"), None),
    ("M/atyp1-i2/o12", "M", ("4/3", 1), None),
    ("M/atyp1-i3/o12", "M", ("-5/3", "14/3"), None),
    ("M/atyp2-odd-i1/o4", "M", (3, -2), None),
    ("M/atyp2-odd-i2/o4", "M", (-4, 1), None),
    ("M/atyp2-even/o4", "M", (1, 1), None),
    ("M/atyp2-even-b/o4", "M", (-3, 5), None),
    ("P16/o8", "P", (-1, "7/2"), None),
    ("P24/o4", "P", (2, -3), None),
    ("P48/o4", "P", (-1, -1), None),
    ("K16/o8", "K", (4, -1), None),
    ("R8/o8", "R", (3, 3), 2),
    ("S16/o8", "S", (-3, -1), None),
    ("Q9/o4", "Q", (-1, 4), None),
)
# re-analysed at the end of the list: its reference and radical chain are
# cached by then
LOEWY_REUSE = "P16/o8"


def loewy_op(kind, label):
    verma = label.family == "M"

    def run():
        v = structure.build_reference(label)
        rad = structure.radical_layers(v)
        soc = structure.socle_layers(v)
        return rad, soc, structure.loewy(v)

    def check(out):
        rad, soc, diag = out
        stated = rules.static_loewy(label)
        if verma:
            return checks.check_loewy(
                diag, stated, [l.terms for l in rad], [l.terms for l in soc])
        return checks.check_loewy(diag, stated)

    return Op(kind, (repr(label), label.variant), run, check)


def loewy_structure(seed):
    (shift,) = lattice_shift(random.Random(f"loewy-structure|{seed}"), 1)
    ops, labels = [], {}
    for kind, family, base, variant in LOEWY_SLOTS:
        labels[kind] = rules.ModuleLabel(family, shifted(base, shift), variant=variant)
        ops.append(loewy_op(kind, labels[kind]))
    ops.append(loewy_op(f"{LOEWY_REUSE}/again", labels[LOEWY_REUSE]))
    return ops


# -- fusion-symbolic ---------------------------------------------------

H32 = F(3, 2)
QSERIES_ORDER = 25      # truncation order of the character identity
QSERIES_MIN_WINDOW = 20  # both sides must agree below q^20
# rule-5 pairs E(t1) x E(t2) with t1 + t2 an integer: admissible inputs,
# but kl._E_line rejects the sum; counted as failed until that is mended
DEGENERATE_RULE5 = ((F(1, 5), F(4, 5)), (F(1, 3), F(2, 3)))


def _frac(rng):
    den = rng.choice((5, 7, 11))
    return F(rng.randrange(1, den), den)


def _E(t, decor=""):
    base = {"": (-H32 * OMEGA1, ALPHA1), "w2": (-H32 * OMEGA1, ALPHA3),
            "w1w2": (-H32 * OMEGA3, ALPHA2)}[decor]
    return kl.AffineLabel.make("E", decor, base[0] + t * base[1])


def _rule_inputs(rule, rng):
    """Generic inputs of one of the nine closed-form fusion rules."""
    Lp, cL = kl.AffineLabel.make("L"), kl.AffineLabel.make("L", "c")

    def R():
        return kl.AffineLabel.make("R", "", Weight(_frac(rng), _frac(rng)))

    if rule == 5:
        while True:
            t1, t2 = _frac(rng), _frac(rng)
            if (t1 + t2).denominator > 2:  # off the degenerate sums
                return _E(t1), _E(t2)
    return {
        1: lambda: (Lp, Lp),
        2: lambda: (Lp, cL),
        3: lambda: (Lp, _E(_frac(rng))),
        4: lambda: (Lp, R()),
        6: lambda: (_E(_frac(rng)), _E(_frac(rng), "w2")),
        7: lambda: (_E(_frac(rng)), _E(_frac(rng), "w1w2")),
        8: lambda: (_E(_frac(rng)), R()),
        9: lambda: (R(), R()),
    }[rule]()


def groth_op(kind, a, b, expect=None):
    return Op(kind, (repr(a), repr(b)), lambda: kl.grothendieck_check(a, b),
              checks.check_grothendieck, expect)


def coset_op(kind, c):
    return Op(kind, repr(c), lambda: kl.coset_loewy(c),
              lambda d: checks.check_transport(d, kl.coset_static_loewy(c)))


def affine_op(kind, a):
    return Op(kind, repr(a), lambda: kl.affine_loewy(a),
              lambda d: checks.check_transport(d, kl.affine_static_loewy(a)))


def _oct_shift(label):
    """The simple current W1[rho] applied to a label: class index + 1."""
    return kl.OctLabel.make(label.family, label.weight + RHO)


def oct_op(kind, a, b):
    def check(product):
        return checks.check_oct_fuse(
            product, kl.oct_fuse(b, a), kl.oct_fuse(_oct_shift(a), b),
            [(_oct_shift(l), m) for l, m in product])

    return Op(kind, (repr(a), repr(b)), lambda: kl.oct_fuse(a, b), check)


def qseries_op(kind, mu, omega, deltas):
    window = [mu + i * ALPHA1 + j * ALPHA2 for i in range(-2, 3) for j in range(-2, 3)]

    def check(report):
        eta = qseries.eta_inv_sq(QSERIES_ORDER)
        return checks.check_qseries(
            report, QSERIES_MIN_WINDOW,
            [c.terms.get(ZERO, 0) for c in eta.coeffs], eta.lead,
            [(qseries.delta_from_leading(lam, nu), kl.conformal_delta(lam, nu))
             for lam, nu in deltas])

    return Op(kind, (repr(mu), repr(omega)),
              lambda: qseries.standard_char_identity(mu, omega, QSERIES_ORDER, window), check)


def _q_point(rng):
    return rng.randrange(-3, 4) * ALPHA1 + rng.randrange(-3, 4) * ALPHA2


def _half_weight(rng):
    return Weight(F(rng.randrange(-6, 7), 2), F(rng.randrange(-6, 7), 2))


def fusion_symbolic(seed):
    rng, ops = random.Random(f"fusion-symbolic|{seed}"), []
    for rule in range(1, 10):
        for _ in range(2):
            a, b = _rule_inputs(rule, rng)
            ops.append(groth_op(f"groth/rule{rule}", a, b))
    for t1, t2 in DEGENERATE_RULE5:
        ops.append(groth_op("groth/rule5-degenerate", _E(t1), _E(t2),
                            expect=kl.InvalidCosetWeight))
    for base, step in ((-H32 * OMEGA1, ALPHA1), (-H32 * OMEGA1, ALPHA3), (-H32 * OMEGA3, ALPHA2)):
        ops.append(coset_op("coset/P16", kl.CosetLabel("P16", base + _frac(rng) * step)))
    for fam, base in (("P24", -HALF * RHO), ("P24bar", -HALF * RHO), ("P48", ZERO)):
        ops.append(coset_op(f"coset/{fam}", kl.CosetLabel(fam, base + _q_point(rng))))
    t = _frac(rng)
    ops.append(affine_op("affine/PE", kl.AffineLabel.make("PE", "", -H32 * OMEGA1 + t * ALPHA1)))
    ops.append(affine_op("affine/PL", kl.AffineLabel.make("PL")))
    ops.append(affine_op("affine/PVac", kl.AffineLabel.make("PVac")))
    oct_labels = [row["label"] for row in kl.octuplet_table()]
    for _ in range(6):
        ops.append(oct_op("oct_fuse", rng.choice(oct_labels), rng.choice(oct_labels)))
    mu = Weight(_frac(rng), _frac(rng))
    omega = rng.choice((ZERO, OMEGA1))
    deltas = [(_half_weight(rng), _half_weight(rng)) for _ in range(3)]
    ops.append(qseries_op("qseries/standard_char_identity", mu, omega, deltas))
    return ops


# name -> (operations from a seed, field orders whose tables set-up builds)
WORKLOADS = {
    "tensor-certify": (tensor_certify, (4, 8, 12, 24)),
    "loewy-structure": (loewy_structure, (4, 8, 12)),
    "fusion-symbolic": (fusion_symbolic, ()),
}
