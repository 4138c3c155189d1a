"""Tests of the benchmark itself: seeded inputs, and checks that catch wrong outputs.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Run from the root of a checkout.  The file is not named test_*.py, so the
package's own test suite does not collect it.  It takes a few seconds.
"""

import random
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from qsl3 import kl, qseries, repmod, rules, weights  # noqa: E402
from qsl3.weights import Weight  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def inputs(name, seed):
    return [(op.kind, op.inputs, op.expect) for op in workloads.WORKLOADS[name][0](seed)]


def run_op(kind, name="tensor-certify", seed=1):
    """Run the first operation of the given kind; (op, output)."""
    op = next(o for o in workloads.WORKLOADS[name][0](seed) if o.kind == kind)
    return op, op.run()


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(inputs(name, 7), inputs(name, 7), name)

    def test_other_seed_other_inputs_same_slots(self):
        """The seed moves the inputs, never the slots or the expected
        failures, so the failed share is the same for every seed."""
        for name in workloads.WORKLOADS:
            a, b = inputs(name, 7), inputs(name, 8)
            self.assertNotEqual(a, b, name)
            self.assertEqual([(k, e) for k, _i, e in a], [(k, e) for k, _i, e in b], name)

    def test_shift_keeps_the_class_of_each_slot(self):
        base = workloads.loewy_structure(1)
        for seed in (2, 3, 4):
            for a, b in zip(base, workloads.loewy_structure(seed)):
                la, lb = (rules.parse_label(op.inputs[0]).weight for op in (a, b))
                self.assertEqual(weights.classify(la).tag, weights.classify(lb).tag, a.kind)
                self.assertEqual(la.denominators(), lb.denominators(), a.kind)

    def test_generic_rule5_pairs_avoid_integral_sums(self):
        rng = random.Random(0)
        for _ in range(200):
            a, b = workloads._rule_inputs(5, rng)
            # E(t) = -3/2 omega1 + t alpha1, and alpha1 = (2, -1)
            self.assertNotEqual((a.param.c2 + b.param.c2).denominator, 1)


class ClosedForms(unittest.TestCase):
    def test_partition_counts(self):
        self.assertEqual(checks.partition_counts(11), [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42])

    def test_two_coloured_partitions(self):
        # prod (1 - q^k)^-2 = 1 + 2q + 5q^2 + 10q^3 + 20q^4 + 36q^5 + ...
        self.assertEqual(checks.two_coloured_partitions(6), [1, 2, 5, 10, 20, 36])

    def test_closed_form_dim_agrees_with_package(self):
        F = Fraction
        for c1 in (F(n, 6) for n in range(-12, 13)):
            for c2 in (F(n, 6) for n in range(-12, 13)):
                w = Weight(c1, c2)
                self.assertEqual(checks.closed_form_dim(w), weights.irreducible_dim(w), w)


class ChecksRejectPlantedOutputs(unittest.TestCase):
    """Each check passes on a computed output and fails on a planted wrong one."""

    @classmethod
    def setUpClass(cls):
        cls.tensor_op, (t, expr, _report) = run_op("4x4-K/o8")
        lam, mu = (weights.parse_weight(x) for x in cls.tensor_op.inputs)
        cls.tensor_args = dict(
            lam=lam, mu=mu, dim=t.dim, char=dict(t.dims),
            rule_chars=[(rules.static_char(lbl).terms, m) for lbl, m in expr],
            irr_chars=tuple(repmod.irreducible_character(w).terms for w in (lam, mu)),
            relations=True,
        )
        cls.verma_op, cls.verma_out = run_op("M/atyp1-i1/o8", "loewy-structure")

    def test_tensor(self):
        good = self.tensor_args
        self.assertEqual(checks.check_tensor(**good), [])
        some_weight = next(iter(good["char"]))
        plants = {
            "dim": good["dim"] + 1,
            "char": {**good["char"], some_weight: good["char"][some_weight] + 1},
            "rule_chars": good["rule_chars"][:-1] + [(good["rule_chars"][-1][0],
                                                      good["rule_chars"][-1][1] + 1)],
            "irr_chars": (good["irr_chars"][0], good["irr_chars"][0]),
            "relations": False,
        }
        for key, bad in plants.items():
            self.assertTrue(checks.check_tensor(**dict(good, **{key: bad})), key)

    def test_negative_control(self):
        self.assertEqual(workloads.negative_control(), [])
        self.assertTrue(checks.check_negative_control(False))

    def test_loewy_layers(self):
        rad, soc, diag = self.verma_out
        self.assertEqual(self.verma_op.check(self.verma_out), [])
        other = rules.static_loewy(rules.parse_label("M(8)[0,0]"))
        self.assertTrue(checks.check_loewy(diag, other))

    def test_loewy_arrows(self):
        _rad, _soc, diag = self.verma_out
        stated = rules.static_loewy(rules.parse_label(self.verma_op.inputs[0]))
        self.assertTrue(stated.arrows)
        self.assertTrue(checks.check_loewy(rules.LoewyDiagram(diag.layers, set()), stated))

    def test_loewy_radical_against_socle(self):
        rad, soc, diag = self.verma_out
        stated = rules.static_loewy(rules.parse_label(self.verma_op.inputs[0]))
        rad_terms = [layer.terms for layer in rad]
        soc_terms = [layer.terms for layer in soc]
        self.assertEqual(checks.check_loewy(diag, stated, rad_terms, soc_terms), [])
        self.assertTrue(checks.check_loewy(diag, stated, rad_terms, soc_terms[::-1]))

    def test_grothendieck(self):
        op, report = run_op("groth/rule3", "fusion-symbolic")
        self.assertEqual(op.check(report), [])
        bad = dict(report, rhs=dict(report["rhs"], extra=1))
        self.assertTrue(checks.check_grothendieck(bad))

    def test_transport(self):
        op, diag = run_op("affine/PL", "fusion-symbolic")
        self.assertEqual(op.check(diag), [])
        stated = kl.affine_static_loewy(kl.AffineLabel.make("PVac"))
        self.assertTrue(checks.check_transport(diag, stated))
        self.assertTrue(checks.check_transport(diag, type(diag)(diag.layers, set())))

    def test_oct_fuse(self):
        op, product = run_op("oct_fuse", "fusion-symbolic")
        self.assertEqual(op.check(product), [])
        (label, m), *rest = product
        self.assertTrue(op.check([(label, m + 1)] + rest))

    def test_qseries(self):
        op, report = run_op("qseries/standard_char_identity", "fusion-symbolic")
        self.assertEqual(op.check(report), [])
        eta = qseries.eta_inv_sq(workloads.QSERIES_ORDER)
        coeffs = [c.terms.get(weights.ZERO, 0) for c in eta.coeffs]
        args = dict(report=report, min_window=workloads.QSERIES_MIN_WINDOW,
                    eta_coeffs=coeffs, eta_lead=eta.lead, deltas=[(1, 1)])
        self.assertEqual(checks.check_qseries(**args), [])
        plants = {
            "report": [dict(report, match=False), dict(report, window=Fraction(3))],
            "eta_coeffs": [coeffs[:-1] + [coeffs[-1] + 1]],
            "eta_lead": [Fraction(-1, 6)],
            "deltas": [[(Fraction(1, 2), Fraction(1, 3))]],
        }
        for key, bads in plants.items():
            for bad in bads:
                self.assertTrue(checks.check_qseries(**dict(args, **{key: bad})), key)


class TracerPatches(unittest.TestCase):
    def test_install_reaches_every_binding_and_uninstall_restores_it(self):
        mods = tracer.qsl3_modules()
        before = {(m, n): v for m, mod in mods.items() for n, v in vars(mod).items()
                  if callable(v)}
        cyc = mods["exact"].CycNum
        ops_before = {a: cyc.__dict__[a] for a in ("__mul__", "__rmul__", "__add__", "__radd__")}
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(mods["structure"].hom_space, before[("structure", "hom_space")])
            self.assertIs(mods["structure"].hom_space, mods["repmod"].hom_space)
            for attr, fn in ops_before.items():
                self.assertIsNot(cyc.__dict__[attr], fn, attr)
        finally:
            t.uninstall()
        after = {(m, n): v for m, mod in mods.items() for n, v in vars(mod).items()
                 if callable(v)}
        self.assertEqual(after, before)
        self.assertEqual({a: cyc.__dict__[a] for a in ops_before}, ops_before)


if __name__ == "__main__":
    unittest.main()
