"""Command-line frontend.

Every layer of the package is reachable from here: classification,
characters, explicit modules, tensor decompositions with certificates,
Loewy diagrams (text, JSON or DOT), the coset/affine dictionary, fusion,
the closed-form fusion-rule checker, the octuplet layer, q-series
characters and a self-test runner.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import kl, qseries
from .exact import fmt_rat
from .repmod import character, irreducible, verma
from .rules import (
    ModuleLabel,
    UnsupportedCase,
    parse_label,
    static_char,
    static_loewy,
    tensor_rule,
)
from .structure import VerificationFailure, loewy, verify_decomposition
from .weights import (
    ALPHA1,
    ALPHA2,
    ALPHA3,
    OMEGA1,
    OMEGA3,
    RHO,
    ZERO,
    Weight,
    classify,
    indices,
    parse_weight,
)
from .algebra import tensor_action

_TAG_DISPLAY = {
    "typical": "Typical",
    "atyp1": "Atyp1",
    "atyp2-root3-odd": "Atyp2Root3Odd",
    "atyp2-root3-even": "Atyp2Root3Even",
}


def _field_order():
    env = os.environ.get("QSL3_FIELD_ORDER")
    return int(env) if env else None


def _emit(args, text_fn, json_obj):
    if getattr(args, "json", False):
        print(json.dumps(json_obj, indent=2, sort_keys=True))
    else:
        print(text_fn())
    return 0


def _char_json(ch):
    return [[repr(w), m] for w, m in sorted(ch.terms.items(), key=lambda t: t[0].sort_key())]


# -- subcommand handlers ----------------------------------------------


def _cmd_classify(args):
    w = parse_weight(args.weight)
    cls = classify(w)
    idx = tuple(fmt_rat(x) for x in indices(w))
    name = _TAG_DISPLAY[cls.tag] + (f"({cls.i})" if cls.i else "")
    text = f"{name}; indices ({', '.join(idx)}); dim L = {cls.irr_dim}"
    return _emit(
        args,
        lambda: text,
        {"tag": cls.tag, "i": cls.i, "indices": list(idx), "dim": cls.irr_dim},
    )


def _cmd_char(args):
    lbl = parse_label(args.label)
    ch = static_char(lbl)
    def text():
        terms = sorted(ch.terms.items(), key=lambda t: t[0].sort_key())
        return " + ".join((f"{m}*" if m != 1 else "") + f"z^{w!r}" for w, m in terms)
    return _emit(args, text, {"label": repr(lbl), "character": _char_json(ch)})


def _rep_summary(rep, args):
    ch = character(rep)
    def text():
        lines = [f"dim = {rep.dim}, field order = {rep.order}"]
        for w in rep.weights_sorted():
            lines.append(f"  weight {w!r}: multiplicity {rep.dims[w]}")
        if args.dump:
            for g, blocks in sorted(rep.blocks.items()):
                for lam, mat in sorted(blocks.items(), key=lambda t: t[0].sort_key()):
                    lines.append(f"  {g} on {lam!r}:")
                    for row in mat:
                        lines.append("    [" + ", ".join(repr(x) for x in row) + "]")
        return "\n".join(lines)
    obj = {"dim": rep.dim, "field_order": rep.order, "character": _char_json(ch)}
    if args.dump:
        obj["blocks"] = {
            g: {repr(lam): [[repr(x) for x in row] for row in mat] for lam, mat in blocks.items()}
            for g, blocks in rep.blocks.items()
        }
    return _emit(args, text, obj)


def _cmd_verma(args):
    return _rep_summary(verma(parse_weight(args.weight), _field_order()), args)


def _cmd_irrep(args):
    return _rep_summary(irreducible(parse_weight(args.weight), _field_order()), args)


def _cmd_tensor(args):
    a, b = parse_label(args.left), parse_label(args.right)
    expr = tensor_rule(a, b)
    verified = None
    if args.verify:
        t = tensor_action(
            irreducible(a.weight, _field_order()), irreducible(b.weight, _field_order())
        )
        try:
            verify_decomposition(t, expr)
            verified = True
        except VerificationFailure as e:
            print(f"verification failed: {e}", file=sys.stderr)
            verified = False
    _emit(
        args,
        lambda: repr(expr) + ("" if verified is None else f"  [verified: {verified}]"),
        {
            "terms": [[repr(l), m] for l, m in expr],
            "dim": expr.dim(),
            "verified": verified,
        },
    )
    return 1 if verified is False else 0


def _any_loewy(label_str, variant=None, computed=False):
    """Loewy diagram for a quantum, coset, affine or octuplet label string."""
    errors = []
    for parser, diagram in (
        (parse_label, None),
        (kl.parse_coset, kl.coset_static_loewy),
        (kl.parse_affine, kl.affine_static_loewy),
        (kl.parse_oct, kl.oct_static_loewy),
    ):
        try:
            lbl = parser(label_str)
        except Exception as e:
            errors.append(str(e))
            continue
        if diagram is None:
            if variant is not None:
                lbl = ModuleLabel(lbl.family, lbl.weight, variant=variant)
            if computed:
                from .structure import build_reference

                return loewy(build_reference(lbl, _field_order()))
            return static_loewy(lbl)
        return diagram(lbl)
    raise ValueError("; ".join(errors))


def _cmd_loewy(args):
    diag = _any_loewy(args.label, args.variant, args.computed)
    if args.format == "dot":
        print(diag.to_dot(name=args.label))
        return 0
    if args.format == "json" or getattr(args, "json", False):
        print(json.dumps(diag.to_json(), indent=2, sort_keys=True))
        return 0
    for j, layer in enumerate(diag.layers, 1):
        print(f"layer {j}: " + ", ".join((f"{m}x " if m > 1 else "") + l for l, m in
                                         [(repr(x), m) for x, m in layer]))
    for j, a, b, t in sorted(diag.arrows):
        print(f"  {a} -> {b}  ({t}, layers {j}->{j+1})")
    return 0


def _cmd_kl(args):
    if args.direction == "to-quantum":
        out = kl.to_quantum(kl.parse_coset(args.label))
    else:
        out = kl.from_quantum(parse_label(args.label))
    return _emit(args, lambda: repr(out), {"label": repr(out)})


def _cmd_induce(args):
    c = kl.parse_coset(args.coset)
    fock = parse_weight(args.fock)
    out = kl.induce(c, fock)
    return _emit(
        args,
        lambda: repr(out),
        {"label": repr(out), "flow": repr(out.flow)},
    )


def _cmd_fuse(args):
    a, b = kl.parse_affine(args.left), kl.parse_affine(args.right)
    if args.level == "full":
        terms = kl.affine_fuse(a, b)
    else:
        terms = sorted(kl.affine_fuse_factors(a, b).items(), key=lambda t: t[0].sort_key())
    return _emit(
        args,
        lambda: " ⊕ ".join((f"{m}*" if m > 1 else "") + repr(l) for l, m in terms),
        {"level": args.level, "terms": [[repr(l), m] for l, m in terms]},
    )


def _rule_samples(rule, rng):
    """Random (generic) inputs for one of the nine closed-form rules."""
    def frac():
        # strictly between 0 and 1 with odd denominator: never lands on a
        # degenerate (integer or half-integer) line parameter
        den = rng.choice([5, 7, 11])
        return Fraction(rng.randrange(1, den), den)

    def weight():
        return Weight(frac(), frac())

    L = kl.AffineLabel.make("L")
    cL = kl.AffineLabel.make("L", "c")
    E = lambda t: kl.AffineLabel.make("E", "", -Fraction(3, 2) * OMEGA1 + t * ALPHA1)
    Ew2 = lambda t: kl.AffineLabel.make("E", "w2", -Fraction(3, 2) * OMEGA1 + t * ALPHA3)
    Ew12 = lambda t: kl.AffineLabel.make("E", "w1w2", -Fraction(3, 2) * OMEGA3 + t * ALPHA2)
    R = lambda w: kl.AffineLabel.make("R", "", w)
    return {
        1: (L, L),
        2: (L, cL),
        3: (L, E(frac())),
        4: (L, R(weight())),
        5: (E(frac()), E(frac())),
        6: (E(frac()), Ew2(frac())),
        7: (E(frac()), Ew12(frac())),
        8: (E(frac()), R(weight())),
        9: (R(weight()), R(weight())),
    }[rule]


def _cmd_gfuse_check(args):
    rng = random.Random(args.seed)
    ok = True
    reports = []
    for _ in range(args.samples):
        a, b = _rule_samples(args.rule, rng)
        rep = kl.grothendieck_check(a, b)
        reports.append({"left": repr(a), "right": repr(b), **rep})
        line = f"rule {rep['rule']}: {repr(a)} x {repr(b)} -> {'PASS' if rep['match'] else 'FAIL'}"
        if not getattr(args, "json", False):
            print(line)
        if not rep["match"]:
            ok = False
            if not getattr(args, "json", False):
                print(f"  only lhs: {rep['only_lhs']}\n  only rhs: {rep['only_rhs']}")
    if getattr(args, "json", False):
        print(json.dumps({"rule": args.rule, "match": ok, "samples": reports},
                         indent=2, sort_keys=True))
    return 0 if ok else 1


def _cmd_octuplet(args):
    if args.octcmd == "table":
        rows = kl.octuplet_table()
        def text():
            lines = []
            for r in rows:
                ws = ", ".join(repr(w) for w in r["weights"])
                lines.append(
                    f"{r['label']!r}: top dim {r['top_dim']}, weights {{{ws}}}, "
                    f"conformal weight {fmt_rat(r['conformal_weight'])}"
                )
            return "\n".join(lines)
        return _emit(args, text, [
            {
                "label": repr(r["label"]),
                "top_dim": r["top_dim"],
                "weights": [repr(w) for w in r["weights"]],
                "conformal_weight": fmt_rat(r["conformal_weight"]),
            }
            for r in rows
        ])
    if args.octcmd == "fuse":
        a, b = kl.parse_oct(args.left), kl.parse_oct(args.right)
        terms = kl.oct_fuse(a, b)
        return _emit(
            args,
            lambda: " ⊕ ".join((f"{m}*" if m > 1 else "") + repr(l) for l, m in terms),
            {"terms": [[repr(l), m] for l, m in terms]},
        )
    # loewy
    diag = kl.oct_static_loewy(kl.parse_oct(args.label))
    if args.format == "dot":
        print(diag.to_dot(name=args.label))
    else:
        print(json.dumps(diag.to_json(), indent=2, sort_keys=True))
    return 0


def _cmd_qchar(args):
    w = parse_weight(args.weight)
    if args.family == "8":
        s = qseries.coset8_char(w, args.order)
    else:
        s = qseries.fock_char(w, args.order)
    return _emit(
        args,
        lambda: repr(s),
        {
            "family": args.family,
            "weight": repr(w),
            "lead": fmt_rat(s.lead),
            "den": s.den,
            "coefficients": [_char_json(c) for c in s.coeffs],
        },
    )


# -- self-test suites -------------------------------------------------


def _suite_dictionary():
    rng = random.Random(7)
    n = 0
    for _ in range(25):
        w = Weight(
            Fraction(rng.randrange(-10, 10), rng.choice([1, 2, 3, 5])),
            Fraction(rng.randrange(-10, 10), rng.choice([1, 2, 3, 5])),
        )
        c = kl.CosetLabel("I8", w)
        assert kl.from_quantum(kl.to_quantum(c)) == c
        n += 1
    for fam, w in [
        ("I4", -Fraction(3, 2) * OMEGA1 + Fraction(1, 3) * ALPHA1),
        ("I3", -Fraction(1, 2) * RHO),
        ("I3bar", -Fraction(1, 2) * RHO),
        ("I1", ZERO),
        ("P24", -Fraction(1, 2) * RHO),
        ("P48", ZERO),
    ]:
        c = kl.CosetLabel(fam, w)
        assert kl.from_quantum(kl.to_quantum(c)) == c
        n += 1
    return n


def _suite_verma_loewy():
    n = 0
    for w in [Weight(Fraction(1, 3), Fraction(1, 5)), Weight(2, 0), Weight(1, 0), Weight(0, 0)]:
        d = loewy(verma(w))
        s = static_loewy(ModuleLabel("M", w))
        assert d.layer_lists() == s.layer_lists(), (w, d.layer_lists(), s.layer_lists())
        n += 1
    return n


def _suite_tensor():
    n = 0
    for a, b in [
        (ModuleLabel("L", Weight(1, 0)), ModuleLabel("L", Weight(0, -1))),
        (ModuleLabel("L", Weight(1, 0)), ModuleLabel("L", Weight(1, 1))),
    ]:
        t = tensor_action(irreducible(a.weight), irreducible(b.weight))
        verify_decomposition(t, tensor_rule(a, b))
        n += 1
    return n


def _suite_gfuse():
    rng = random.Random(11)
    n = 0
    for rule in range(1, 10):
        a, b = _rule_samples(rule, rng)
        assert kl.grothendieck_check(a, b)["match"], rule
        n += 1
    return n


def _suite_qseries():
    e2 = qseries.eta_inv_sq(12)
    coeffs = [c.terms.get(ZERO, 0) for c in e2.coeffs]
    assert coeffs[:4] == [1, 2, 5, 10]
    mu = Weight(Fraction(1, 5), Fraction(1, 3))
    win = [mu + a * ALPHA1 + b * ALPHA2 for a in range(-2, 3) for b in range(-2, 3)]
    assert qseries.standard_char_identity(mu, ZERO, 12, win)["match"]
    return 2


_SUITES = {
    "dictionary": _suite_dictionary,
    "verma-loewy": _suite_verma_loewy,
    "tensor": _suite_tensor,
    "gfuse": _suite_gfuse,
    "qseries": _suite_qseries,
}


def _cmd_selftest(args):
    names = [args.suite] if args.suite else list(_SUITES)
    failed = False
    for name in names:
        try:
            count = _SUITES[name]()
            print(f"{name}: {count} checks passed")
        except Exception as e:
            print(f"{name}: FAILED ({e})")
            failed = True
    return 1 if failed else 0


# -- parser -----------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(prog="qsl3", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--json", action="store_true", help="JSON output")
        return sp

    sp = add("classify", _cmd_classify, help="typicality class of a weight")
    sp.add_argument("--weight", required=True)

    sp = add("char", _cmd_char, help="character of a labelled module")
    sp.add_argument("--label", required=True)

    for name, fn in (("verma", _cmd_verma), ("irrep", _cmd_irrep)):
        sp = add(name, fn, help=f"build the {name} module explicitly")
        sp.add_argument("--weight", required=True)
        sp.add_argument("--dump", action="store_true", help="print generator blocks")

    sp = add("tensor", _cmd_tensor, help="tensor decomposition of two irreducibles")
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.add_argument("--verify", action="store_true", help="certify against the built module")

    sp = add("loewy", _cmd_loewy, help="Loewy diagram of a labelled module")
    sp.add_argument("--label", required=True)
    sp.add_argument("--format", choices=("text", "json", "dot"), default="text")
    sp.add_argument("--variant", type=int, choices=(1, 2), default=None)
    sp.add_argument("--computed", action="store_true",
                    help="compute from the explicit module instead of the stated diagram")

    sp = add("kl", _cmd_kl, help="translate labels through the dictionary")
    sp.add_argument("direction", choices=("to-quantum", "from-quantum"))
    sp.add_argument("--label", required=True)

    sp = add("induce", _cmd_induce, help="induce a coset label against a Fock weight")
    sp.add_argument("--coset", required=True)
    sp.add_argument("--fock", required=True)

    sp = add("fuse", _cmd_fuse, help="fusion of two affine labels")
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.add_argument("--level", choices=("grothendieck", "full"), default="full")

    sp = add("gfuse-check", _cmd_gfuse_check, help="check a closed-form fusion rule")
    sp.add_argument("--rule", type=int, choices=range(1, 10), required=True)
    sp.add_argument("--samples", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("octuplet", _cmd_octuplet, help="the octuplet layer")
    octsub = sp.add_subparsers(dest="octcmd", required=True)
    t = octsub.add_parser("table")
    t.add_argument("--json", action="store_true")
    f = octsub.add_parser("fuse")
    f.add_argument("--left", required=True)
    f.add_argument("--right", required=True)
    f.add_argument("--json", action="store_true")
    lw = octsub.add_parser("loewy")
    lw.add_argument("--label", required=True)
    lw.add_argument("--format", choices=("json", "dot"), default="json")

    sp = add("qchar", _cmd_qchar, help="q-series characters")
    sp.add_argument("--family", choices=("8", "fock"), required=True)
    sp.add_argument("--weight", required=True)
    sp.add_argument("--order", type=int, default=10)

    sp = add("selftest", _cmd_selftest, help="run built-in check suites")
    sp.add_argument("--suite", choices=tuple(_SUITES), default=None)
    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (VerificationFailure,) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, UnsupportedCase, kl.InvalidCosetWeight, kl.NotLocal,
            kl.TwistedModule) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
