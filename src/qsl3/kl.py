"""Label algebra for the coset and affine sides of the correspondence.

Quantum-group module labels translate, through a fixed linear map phi on
the weight space, into labels for modules over a parafermionic coset
algebra (`CosetLabel`).  Tensoring a coset label with a Fock-module
weight and inducing yields affine-algebra labels (`AffineLabel`) carrying
spectral-flow and Weyl-twist decorations.  Fusion on the affine side is
computed by transporting through the quantum side: restrict, translate,
apply the tensor rules, translate back, re-induce.  The octuplet
sub-layer (`OctLabel`) further induces coset labels along the lattice 3P.

Everything here is symbolic: no vertex-algebra module is ever realised
as a vector space.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .exact import fmt_rat, parse_rat
from .rules import (
    LoewyDiagram,
    ModuleLabel,
    UnsupportedCase,
    _mklayer,
    static_loewy,
    tensor_rule,
)
from .weights import (
    ALPHA,
    ALPHA1,
    ALPHA2,
    ALPHA3,
    OMEGA,
    OMEGA1,
    OMEGA2,
    OMEGA3,
    RHO,
    ZERO,
    Weight,
    classify,
    killing,
    lattice_member,
    parse_weight,
    phi,
    phi_inv,
)

HALF_RHO = Weight(Fraction(1, 2), Fraction(1, 2))


class InvalidCosetWeight(Exception):
    """A weight outside the admissible coset of its label family."""


class NotLocal(Exception):
    """Induction attempted with a coset/Fock weight difference off (3/2)P."""

    def __init__(self, msg, difference=None):
        super().__init__(msg)
        self.difference = difference


class TwistedModule(Exception):
    """Octuplet induction of a label whose weight is not in Q/2."""


# -- atypical lines of the coset weight space -------------------------
#
# A coset weight is atypical of degree one when it lies on exactly one
# of three families of lines, written in root coordinates
# lambda = a1*alpha1 + a2*alpha2:
#   line 1: a2 half-odd        (direction alpha1)
#   line 2: a1 - a2 half-odd   (direction alpha3)
#   line 3: a1 half-odd        (direction alpha2)


def _half_odd(x):
    return Fraction(x).denominator == 2


def atypical_lines(w):
    a1, a2 = w.root_coords()
    lines = []
    if _half_odd(a2):
        lines.append(1)
    if _half_odd(a1 - a2):
        lines.append(2)
    if _half_odd(a1):
        lines.append(3)
    return lines


def line_rep(w, line):
    """The canonical representative of w on its atypical line.

    Line 1 reps lie on -(3/2)w1 + R*alpha1 (a2 = -1/2), line 2 on
    -(3/2)w1 + R*alpha3 (a1 - a2 = -1/2), line 3 on -(3/2)w3 + R*alpha2
    (a1 = 1/2); the free coordinate is reduced into [0, 1).
    """
    a1, a2 = w.root_coords()
    if line == 1:
        w = w - (a2 + Fraction(1, 2)) * ALPHA2
        w = w - floor(w.root_coords()[0]) * ALPHA1
    elif line == 2:
        w = w - (a1 - a2 + Fraction(1, 2)) * ALPHA1
        w = w - floor(w.root_coords()[1]) * ALPHA3
    elif line == 3:
        w = w - (a1 - Fraction(1, 2)) * ALPHA1
        w = w - floor(w.root_coords()[1]) * ALPHA2
    else:
        raise ValueError(f"unknown line {line}")
    return w


def _canon_mod_root_lattice(w):
    a1, a2 = w.root_coords()
    return w - floor(a1) * ALPHA1 - floor(a2) * ALPHA2


# -- coset labels -----------------------------------------------------

COSET_FAMILIES = ("I1", "I3", "I3bar", "I4", "I8", "P16", "P24", "P24bar", "P48")

# the quantum degree-1 atypicality index attached to each line
_LINE_INDEX = {1: 2, 2: 1, 3: 3}
_LINE_DECOR = {1: "", 2: "w2", 3: "w1w2"}
_DECOR_LINE = {"": 1, "w2": 2, "w1w2": 3}


@dataclass(frozen=True)
class CosetLabel:
    family: str
    weight: Weight

    def __post_init__(self):
        if self.family not in COSET_FAMILIES:
            raise ValueError(f"unknown coset family {self.family!r}")
        _check_coset_domain(self.family, self.weight)

    def __repr__(self):
        return f"{self.family}{self.weight!r}"

    def sort_key(self):
        return (self.family, self.weight.sort_key())


def _check_coset_domain(family, w):
    if family in ("I1", "P48"):
        if not lattice_member(w, "Q"):
            raise InvalidCosetWeight(f"{family} weight {w!r} is not in Q")
    elif family in ("I3", "I3bar", "P24", "P24bar"):
        if not lattice_member(w, "Q", base=-HALF_RHO):
            raise InvalidCosetWeight(f"{family} weight {w!r} is not in -rho/2 + Q")
    elif family in ("I4", "P16"):
        lines = atypical_lines(w)
        if len(lines) != 1:
            raise InvalidCosetWeight(
                f"{family} weight {w!r} lies on {len(lines)} atypical lines, need exactly 1"
            )
    # I8: every weight is admissible


def parse_coset(s):
    s = s.strip()
    for fam in sorted(COSET_FAMILIES, key=len, reverse=True):
        if s.startswith(fam):
            return CosetLabel(fam, parse_weight(s[len(fam):]))
    raise ValueError(f"bad coset label {s!r}")


# -- the dictionary ---------------------------------------------------


def to_quantum(c):
    """The quantum-group module label corresponding to a coset label."""
    w, fam = c.weight, c.family
    if fam == "I8":
        q = phi(w) + RHO
        return ModuleLabel("L" if classify(q).tag == "typical" else "M", q)
    if fam in ("I4", "P16"):
        line = atypical_lines(w)[0]
        q = phi(w) + RHO if line in (1, 2) else phi(w)
        cls = classify(q)
        if cls.tag != "atyp1" or cls.i != _LINE_INDEX[line]:
            raise InvalidCosetWeight(f"{c!r} does not translate to a degree-1 atypical weight")
        return ModuleLabel("L" if fam == "I4" else "P", q)
    if fam in ("I3", "P24"):
        q = phi(w) + RHO
        cls = classify(q)
        if cls.tag != "atyp2-root3-odd" or cls.i != 2:
            raise InvalidCosetWeight(f"{c!r} does not translate to the expected 3-dim class")
        return ModuleLabel("L" if fam == "I3" else "P", q)
    if fam in ("I3bar", "P24bar"):
        q = phi(w)
        cls = classify(q)
        if cls.tag != "atyp2-root3-odd" or cls.i != 1:
            raise InvalidCosetWeight(f"{c!r} does not translate to the expected 3-dim class")
        return ModuleLabel("L" if fam == "I3bar" else "P", q)
    # I1, P48
    q = phi(w)
    if classify(q).tag != "atyp2-root3-even":
        raise InvalidCosetWeight(f"{c!r} does not translate to the 1-dim class")
    return ModuleLabel("L" if fam == "I1" else "P", q)


def from_quantum(m):
    """The coset label corresponding to a quantum-group module label."""
    w = m.weight
    cls = classify(w)
    if m.family == "M":
        return CosetLabel("I8", phi_inv(w - RHO))
    if m.family not in ("L", "P"):
        raise InvalidCosetWeight(f"no dictionary image for the {m.family} family ({m!r})")
    proj = m.family == "P"
    if cls.tag == "typical":
        return CosetLabel("I8", phi_inv(w - RHO))
    if cls.tag == "atyp1":
        shift = RHO if cls.i in (1, 2) else ZERO
        return CosetLabel("P16" if proj else "I4", phi_inv(w - shift))
    if cls.tag == "atyp2-root3-odd":
        if cls.i == 2:
            return CosetLabel("P24" if proj else "I3", phi_inv(w - RHO))
        return CosetLabel("P24bar" if proj else "I3bar", phi_inv(w))
    return CosetLabel("P48" if proj else "I1", phi_inv(w))


# -- induction to affine labels ---------------------------------------

AFFINE_BASES = ("Vac", "L", "E", "R", "PVac", "PL", "PE")
_PARAM_BASES = ("E", "R", "PE")


def conformal_delta(lam, mu):
    """Conformal weight (mod 1) of the coset-times-Fock pair (lam, mu)."""
    return Fraction(1, 3) * killing(lam - mu, lam + mu) - Fraction(1, 2)


@dataclass(frozen=True)
class AffineLabel:
    base: str
    decor: str  # "" | "c" | "w2" | "w1w2"
    param: Weight | None
    flow: Weight

    def __post_init__(self):
        if self.base not in AFFINE_BASES:
            raise ValueError(f"unknown affine base {self.base!r}")
        if not lattice_member(self.flow, "P"):
            raise ValueError(f"spectral flow {self.flow!r} is not in P")
        if self.base in _PARAM_BASES:
            if self.param is None:
                raise ValueError(f"{self.base} label needs a parameter weight")
            if self.decor not in ("", "w2", "w1w2") or (
                self.base == "R" and self.decor != ""
            ):
                raise ValueError(f"bad decoration {self.decor!r} on {self.base}")
        else:
            if self.param is not None:
                raise ValueError(f"{self.base} label takes no parameter")
            if self.decor not in ("", "c") or (
                self.base in ("Vac", "PVac") and self.decor
            ):
                raise ValueError(f"bad decoration {self.decor!r} on {self.base}")

    @staticmethod
    def make(base, decor="", param=None, flow=ZERO):
        """Construct with the parameter reduced to its canonical representative."""
        if base == "R":
            param = _canon_mod_root_lattice(param)
        elif base in ("E", "PE"):
            line = _DECOR_LINE[decor]
            if atypical_lines(param) != [line]:
                raise InvalidCosetWeight(
                    f"{base} parameter {param!r} is not on exactly the {decor or 'plain'} line"
                )
            param = line_rep(param, line)
        return AffineLabel(base, decor, param, flow)

    def __repr__(self):
        parts = []
        if self.flow != ZERO:
            parts.append(f"sf({fmt_rat(self.flow.c1)},{fmt_rat(self.flow.c2)})")
        if self.decor:
            parts.append(self.decor)
        tail = self.base + (repr(self.param) if self.param is not None else "")
        parts.append(tail)
        return "*".join(parts)

    def sort_key(self):
        return repr(self)


def parse_affine(s):
    parts = s.strip().split("*")
    flow, decor = ZERO, ""
    while parts[0].startswith("sf(") or parts[0] in ("c", "w2", "w1w2"):
        head = parts.pop(0)
        if head.startswith("sf("):
            inner = head[3:-1].split(",")
            flow = Weight(parse_rat(inner[0]), parse_rat(inner[1]))
        else:
            decor = head
        if not parts:
            raise ValueError(f"bad affine label {s!r}")
    body = parts[0]
    if len(parts) != 1:
        raise ValueError(f"bad affine label {s!r}")
    if "[" in body:
        base, param = body[: body.index("[")], parse_weight(body[body.index("["):])
    else:
        base, param = body, None
    return AffineLabel.make(base, decor, param, flow)


def induce(c, fock):
    """Induce a coset label tensored with the Fock weight `fock`."""
    diff = c.weight - fock
    if not lattice_member(diff, "(3/2)P"):
        raise NotLocal(
            f"cannot induce {c!r} against Fock weight {fock!r}: "
            f"difference {diff!r} is not in (3/2)P",
            diff,
        )
    flow = Fraction(2, 3) * diff
    fam = c.family
    if fam == "I8":
        return AffineLabel.make("R", "", c.weight, flow)
    if fam in ("I4", "P16"):
        line = atypical_lines(c.weight)[0]
        base = "E" if fam == "I4" else "PE"
        return AffineLabel.make(base, _LINE_DECOR[line], c.weight, flow)
    if fam == "I3":
        return AffineLabel.make("L", "", None, flow)
    if fam == "I3bar":
        return AffineLabel.make("L", "c", None, flow)
    if fam == "I1":
        return AffineLabel.make("Vac", "", None, flow)
    if fam == "P24":
        return AffineLabel.make("PL", "", None, flow)
    if fam == "P24bar":
        return AffineLabel.make("PL", "c", None, flow)
    return AffineLabel.make("PVac", "", None, flow)


def restrict(a):
    """Invert `induce`: the coset label and Fock weight an affine label came from."""
    if a.base == "R":
        c = CosetLabel("I8", a.param)
    elif a.base in ("E", "PE"):
        c = CosetLabel("I4" if a.base == "E" else "P16", a.param)
    elif a.base == "L":
        c = CosetLabel("I3bar" if a.decor == "c" else "I3", -HALF_RHO)
    elif a.base == "PL":
        c = CosetLabel("P24bar" if a.decor == "c" else "P24", -HALF_RHO)
    elif a.base == "Vac":
        c = CosetLabel("I1", ZERO)
    else:  # PVac
        c = CosetLabel("P48", ZERO)
    return c, c.weight - Fraction(3, 2) * a.flow


def twist(a, omega):
    """Spectral flow by omega (in P); additive under fusion."""
    if not lattice_member(omega, "P"):
        raise ValueError(f"twist weight {omega!r} is not in P")
    return AffineLabel(a.base, a.decor, a.param, a.flow + omega)


def conj(a):
    """Conjugation; intertwines spectral flow by negating it."""
    if a.base in ("Vac", "PVac"):
        return AffineLabel(a.base, a.decor, a.param, -a.flow)
    if a.base in ("L", "PL"):
        decor = "" if a.decor == "c" else "c"
        return AffineLabel(a.base, decor, a.param, -a.flow)
    if a.base == "R":
        return AffineLabel.make("R", "", -a.param, -a.flow)
    raise UnsupportedCase(f"conjugation of {a!r} is not tracked")


# -- fusion by transport ----------------------------------------------


def _fuse_quantum(a, b):
    ca, fa = restrict(a)
    cb, fb = restrict(b)
    qa, qb = to_quantum(ca), to_quantum(cb)
    if qa.family != "L" or qb.family != "L":
        raise UnsupportedCase(f"fusion of reducible labels {a!r}, {b!r} is not defined")
    return tensor_rule(qa, qb), fa + fb


def affine_fuse(a, b):
    """Fusion of two irreducible affine labels, as a sorted (label, mult) list.

    Every summand must translate back to a named affine label; products
    whose quantum image contains an unnamed indecomposable raise
    UnsupportedCase (expand those with `affine_fuse_factors` instead).
    """
    expr, fock = _fuse_quantum(a, b)
    out = {}
    for lbl, m in expr:
        aff = induce(from_quantum(lbl), fock)
        out[aff] = out.get(aff, 0) + m
    return sorted(out.items(), key=lambda t: t[0].sort_key())


def affine_fuse_factors(a, b):
    """Composition factors of the fusion of two irreducible affine labels.

    Works for every fusion the tensor rules cover: each quantum summand
    is expanded into its Loewy factors before translating back, so
    unnamed indecomposables pose no problem.
    """
    expr, fock = _fuse_quantum(a, b)
    out = {}
    for lbl, m in expr:
        for layer in static_loewy(lbl).layers:
            for f, mm in layer:
                aff = induce(from_quantum(ModuleLabel("L", f.weight)), fock)
                out[aff] = out.get(aff, 0) + m * mm
    return out


def affine_factors(a):
    """Composition factors of an affine label, as a dict label -> multiplicity.

    Irreducible labels are their own factor; standard labels and
    projective covers are expanded through the quantum side.
    """
    c, fock = restrict(a)
    q = to_quantum(c)
    out = {}
    for layer in static_loewy(q).layers:
        for lbl, m in layer:
            aff = induce(from_quantum(ModuleLabel("L", lbl.weight)), fock)
            out[aff] = out.get(aff, 0) + m
    return out


def _acc(target, factors, mult=1):
    for lbl, m in factors.items():
        target[lbl] = target.get(lbl, 0) + m * mult


# -- the listed fusion rules ------------------------------------------
#
# The nine closed-form rules for fusing the untwisted irreducibles; each
# entry builds the right-hand side from the (flow-stripped) inputs.


def _E_line(w, flow=ZERO):
    lines = atypical_lines(w)
    if len(lines) != 1:
        raise InvalidCosetWeight(f"{w!r} is not on exactly one atypical line")
    return AffineLabel.make("E", _LINE_DECOR[lines[0]], w, flow)


def _R(w, flow=ZERO):
    return AffineLabel.make("R", "", w, flow)


def _rule_rhs(rule, x, y):
    L = AffineLabel.make("L")
    cL = AffineLabel.make("L", "c")
    vac = AffineLabel.make("Vac")
    w1, w2, w3 = Fraction(3, 2) * OMEGA1, Fraction(3, 2) * OMEGA2, Fraction(3, 2) * OMEGA3
    if rule == 1:
        return [
            (vac, 1),
            (twist(vac, 2 * OMEGA1), 1),
            (twist(vac, 2 * OMEGA2), 1),
            (twist(cL, RHO), 2),
        ]
    if rule == 2:
        return [(vac, 1), (_R(ZERO), 1)]
    if rule == 3:
        mu = y.param
        return [
            (_E_line(mu + Fraction(1, 2) * ALPHA1, OMEGA1), 1),
            (_R(mu + Fraction(1, 2) * ALPHA2, OMEGA2), 1),
        ]
    if rule == 4:
        mu = y.param
        return [
            (_R(mu - HALF_RHO), 1),
            (_R(mu + Fraction(1, 2) * ALPHA1, OMEGA1), 1),
            (_R(mu + Fraction(1, 2) * ALPHA2, OMEGA2), 1),
        ]
    s = x.param + y.param
    if rule == 5:
        return [
            (_E_line(s + w1, OMEGA1), 1),
            (_R(s + w2, OMEGA2), 1),
            (_E_line(s + w3, OMEGA3), 1),
        ]
    if rule == 6:
        return [(_R(s), 1), (_R(s + w1, OMEGA1), 1)]
    if rule == 7:
        return [(_R(s), 1), (_R(s + w3, OMEGA3), 1)]
    if rule == 8:
        return [(_R(s), 1)] + [(_R(s + Fraction(3, 2) * OMEGA[i], OMEGA[i]), 1) for i in (1, 2, 3)]
    if rule == 9:
        out = [(_R(s), 2)]
        for i in (1, 2, 3):
            out.append((_R(s + Fraction(3, 2) * OMEGA[i], OMEGA[i]), 1))
            out.append((_R(s + Fraction(3, 2) * OMEGA[i], -OMEGA[i]), 1))
        return out
    raise ValueError(f"unknown rule {rule}")


def _match_rule(a, b):
    """(rule number, ordered flow-stripped pair) for a listed fusion rule."""
    sa = AffineLabel(a.base, a.decor, a.param, ZERO)
    sb = AffineLabel(b.base, b.decor, b.param, ZERO)
    kinds = {(sa.base, sa.decor): sa, (sb.base, sb.decor): sb}

    def pick(*keys):
        got = [kinds.get(k) for k in keys]
        return got if all(g is not None for g in got) else None

    if (sa.base, sa.decor) == (sb.base, sb.decor):
        if sa.base == "L" and sa.decor == "":
            return 1, (sa, sb)
        if sa.base == "E" and sa.decor == "":
            return 5, (sa, sb)
        if sa.base == "R":
            return 9, (sa, sb)
    else:
        for rule, keys in (
            (2, (("L", ""), ("L", "c"))),
            (3, (("L", ""), ("E", ""))),
            (4, (("L", ""), ("R", ""))),
            (6, (("E", ""), ("E", "w2"))),
            (7, (("E", ""), ("E", "w1w2"))),
            (8, (("E", ""), ("R", ""))),
        ):
            got = pick(*keys)
            if got:
                return rule, tuple(got)
    raise UnsupportedCase(f"({a!r}, {b!r}) matches none of the listed fusion rules")


def grothendieck_check(a, b):
    """Compare fusion-by-transport of (a, b) against the listed closed-form rule.

    Both sides are expanded into multisets of irreducible affine labels
    (with spectral flows); the report records the rule used, both
    multisets and their symmetric difference.
    """
    rule, (x, y) = _match_rule(a, b)
    total_flow = a.flow + b.flow
    # bilinear extension over composition factors, so reducible standard
    # labels at degenerate parameters are admissible inputs
    lhs = {}
    for fa, ma in affine_factors(a).items():
        for fb, mb in affine_factors(b).items():
            _acc(lhs, affine_fuse_factors(fa, fb), ma * mb)
    rhs = {}
    for lbl, m in _rule_rhs(rule, x, y):
        _acc(rhs, affine_factors(twist(lbl, total_flow)), m)
    only_lhs = {repr(k): v - rhs.get(k, 0) for k, v in lhs.items() if v != rhs.get(k, 0)}
    only_rhs = {repr(k): v - lhs.get(k, 0) for k, v in rhs.items() if v != lhs.get(k, 0)}
    return {
        "rule": rule,
        "match": not only_lhs and not only_rhs,
        "lhs": {repr(k): v for k, v in sorted(lhs.items(), key=lambda t: repr(t[0]))},
        "rhs": {repr(k): v for k, v in sorted(rhs.items(), key=lambda t: repr(t[0]))},
        "only_lhs": only_lhs,
        "only_rhs": only_rhs,
    }


# -- translated Loewy diagrams ----------------------------------------


def _map_diagram(diag, fn):
    layers = [_mklayer([(fn(l), m) for l, m in layer]) for layer in diag.layers]
    names = {}
    for layer in diag.layers:
        for l, _m in layer:
            names[repr(l)] = repr(fn(l))
    arrows = {(j, names[a], names[b], t) for j, a, b, t in diag.arrows}
    return LoewyDiagram(layers, arrows)


def coset_loewy(c):
    """Loewy diagram of a coset label, transported from the quantum side."""
    return _map_diagram(
        static_loewy(to_quantum(c)),
        lambda l: from_quantum(ModuleLabel("L", l.weight)),
    )


def affine_loewy(a):
    """Loewy diagram of an affine label, transported through induction."""
    c, fock = restrict(a)
    return _map_diagram(coset_loewy(c), lambda l: induce(l, fock))


# shapes of the three parametric projective-cover diagrams; node names
# follow layer-position convention (1 top, 2x, 3x, 4x, 5 bottom)

_SHAPE_SQUARE = {
    "standard": [(1, "t", "l"), (2, "r", "b")],
    "costandard": [(1, "t", "r"), (2, "l", "b")],
    "other": [],
}

_SHAPE_24 = {
    "standard": [
        (1, "1", "22"), (1, "1", "23"), (2, "22", "34"), (2, "23", "34"),
        (2, "21", "32"), (2, "21", "33"), (3, "32", "43"), (3, "33", "43"),
        (3, "31", "41"), (3, "31", "42"), (4, "41", "5"), (4, "42", "5"),
    ],
    "costandard": [
        (1, "1", "21"), (2, "21", "31"), (2, "22", "31"), (2, "23", "32"),
        (2, "23", "33"), (3, "32", "41"), (3, "33", "41"), (3, "34", "42"),
        (3, "34", "43"), (4, "43", "5"),
    ],
    "other": [(2, "22", "33"), (3, "33", "42")],
}

_SHAPE_48 = {
    "standard": [
        (1, "1", "25"), (1, "1", "26"), (2, "25", "37"), (2, "26", "37"),
        (2, "21", "32"), (2, "21", "34"), (3, "32", "43"), (3, "34", "43"),
        (2, "22", "33"), (2, "22", "34"), (3, "33", "44"), (3, "34", "44"),
        (2, "23", "34"), (2, "23", "35"), (3, "34", "45"), (3, "35", "45"),
        (2, "24", "34"), (2, "24", "36"), (3, "34", "46"), (3, "36", "46"),
        (3, "31", "41"), (3, "31", "42"), (4, "41", "5"), (4, "42", "5"),
    ],
    "costandard": [
        (1, "1", "21"), (1, "1", "22"), (2, "21", "31"), (2, "22", "31"),
        (2, "23", "32"), (3, "32", "41"), (3, "34", "41"),
        (2, "24", "33"), (3, "33", "42"), (3, "34", "42"),
        (2, "25", "34"), (2, "25", "35"), (3, "35", "43"),
        (2, "26", "34"), (2, "26", "36"), (3, "36", "44"),
        (3, "37", "45"), (3, "37", "46"), (4, "45", "5"), (4, "46", "5"),
    ],
    "other": [(1, "1", "23"), (1, "1", "24"), (4, "43", "5"), (4, "44", "5")],
}

_TAG_NAMES = {"standard": "standard", "costandard": "costandard", "other": "other"}


def _diagram_from_shape(shape, nodes, nlayers):
    """Build a LoewyDiagram from a node map {name: (label, mult)} and a shape."""
    bylayer = {j: [] for j in range(1, nlayers + 1)}
    for name, lm in nodes.items():
        lbl, m = lm if isinstance(lm, tuple) else (lm, 1)
        j = 1 if name == "t" else nlayers if name == "b" else None
        if j is None:
            j = {"1": 1, "5": nlayers, "l": 2, "r": 2}.get(name) or int(name[0])
        bylayer[j].append((lbl, m))
    layers = [_mklayer(bylayer[j]) for j in range(1, nlayers + 1)]

    def _lbl(name):
        lm = nodes[name]
        return repr(lm[0] if isinstance(lm, tuple) else lm)

    arrows = set()
    for tag, lst in shape.items():
        for j, src, dst in lst:
            arrows.add((j, _lbl(src), _lbl(dst), _TAG_NAMES[tag]))
    return LoewyDiagram(layers, arrows)


def coset_static_loewy(c):
    """The stated parametric Loewy diagram of a coset label.

    For the 16-dimensional cover on the alpha3-direction line, the
    figure as printed carries the standard/costandard colours swapped
    relative to factor-by-factor translation (the alpha1 dictionary
    entry is the single negative one); the translated version is used.
    """
    lam = c.weight
    if c.family in ("I1", "I3", "I3bar", "I4"):
        return LoewyDiagram([_mklayer([c])], set())
    if c.family == "I8":
        if classify(phi(lam) + RHO).tag != "typical":
            raise ValueError(f"{c!r} is reducible; use coset_loewy for its diagram")
        return LoewyDiagram([_mklayer([c])], set())
    if c.family == "P16":
        line = atypical_lines(lam)[0]
        shift = phi_inv(ALPHA[_LINE_INDEX[line]])
        I4 = lambda w: CosetLabel("I4", w)
        nodes = {"t": I4(lam), "l": I4(lam - shift), "r": I4(lam + shift), "b": I4(lam)}
        return _diagram_from_shape(_SHAPE_SQUARE, nodes, 3)
    I1 = lambda w: CosetLabel("I1", w)
    I3 = lambda w: CosetLabel("I3", w)
    I3b = lambda w: CosetLabel("I3bar", w)
    w1, w2, w3 = 3 * OMEGA1, 3 * OMEGA2, 3 * OMEGA3
    h1, h2, h3 = Fraction(3, 2) * OMEGA1, Fraction(3, 2) * OMEGA2, Fraction(3, 2) * OMEGA3
    hr = Fraction(3, 2) * RHO
    if c.family == "P24":
        nodes = {
            "1": I3(lam),
            "21": I1(lam + hr), "22": I1(lam - h3), "23": I1(lam + h3),
            "31": I3b(lam + w1), "32": I3b(lam + w2), "33": I3(lam), "34": I3b(lam),
            "41": I1(lam + hr), "42": I1(lam - h3), "43": I1(lam + h3),
            "5": I3(lam),
        }
        return _diagram_from_shape(_SHAPE_24, nodes, 5)
    if c.family == "P24bar":
        nodes = {
            "1": I3b(lam),
            "21": I1(lam - h3), "22": I1(lam + h3), "23": I1(lam - hr),
            "31": I3(lam), "32": I3(lam - w2), "33": I3b(lam), "34": I3(lam - w1),
            "41": I1(lam - h3), "42": I1(lam + h3), "43": I1(lam - hr),
            "5": I3b(lam),
        }
        return _diagram_from_shape(_SHAPE_24, nodes, 5)
    # P48
    nodes = {
        "1": I1(lam),
        "21": I3b(lam + hr), "22": I3(lam - h3), "23": I3(lam + h3),
        "24": I3b(lam - h3), "25": I3b(lam + h3), "26": I3(lam - hr),
        "31": I1(lam + w1), "32": I1(lam + w2), "33": I1(lam - w3),
        "34": (I1(lam), 4), "35": I1(lam + w3), "36": I1(lam - w2), "37": I1(lam - w1),
        "41": I3b(lam + hr), "42": I3(lam - h3), "43": I3(lam + h3),
        "44": I3b(lam - h3), "45": I3b(lam + h3), "46": I3(lam - hr),
        "5": I1(lam),
    }
    return _diagram_from_shape(_SHAPE_48, nodes, 5)


def affine_static_loewy(a):
    """The stated parametric Loewy diagram of an affine projective cover."""
    L = AffineLabel.make("L")
    cL = AffineLabel.make("L", "c")
    vac = AffineLabel.make("Vac")
    tw = twist
    if a.base == "PE" and a.decor == "" and a.flow == ZERO:
        lam = a.param
        E = lambda w, f=ZERO: AffineLabel.make("E", "", w, f)
        nodes = {
            "t": E(lam),
            "l": E(lam - Fraction(1, 2) * ALPHA1, -OMEGA2),
            "r": E(lam + Fraction(1, 2) * ALPHA1, OMEGA2),
            "b": E(lam),
        }
        return _diagram_from_shape(_SHAPE_SQUARE, nodes, 3)
    if a.base == "PL" and a.decor == "" and a.flow == ZERO:
        nodes = {
            "1": L,
            "21": tw(vac, RHO), "22": tw(vac, -OMEGA3), "23": tw(vac, OMEGA3),
            "31": tw(cL, 2 * OMEGA1), "32": tw(cL, 2 * OMEGA2), "33": L, "34": cL,
            "41": tw(vac, RHO), "42": tw(vac, -OMEGA3), "43": tw(vac, OMEGA3),
            "5": L,
        }
        return _diagram_from_shape(_SHAPE_24, nodes, 5)
    if a.base == "PVac" and a.flow == ZERO:
        nodes = {
            "1": vac,
            "21": tw(cL, RHO), "22": tw(L, -OMEGA3), "23": tw(L, OMEGA3),
            "24": tw(cL, -OMEGA3), "25": tw(cL, OMEGA3), "26": tw(L, -RHO),
            "31": tw(vac, 2 * OMEGA1), "32": tw(vac, 2 * OMEGA2),
            "33": tw(vac, -2 * OMEGA3), "34": (vac, 4), "35": tw(vac, 2 * OMEGA3),
            "36": tw(vac, -2 * OMEGA2), "37": tw(vac, -2 * OMEGA1),
            "41": tw(cL, RHO), "42": tw(L, -OMEGA3), "43": tw(L, OMEGA3),
            "44": tw(cL, -OMEGA3), "45": tw(cL, OMEGA3), "46": tw(L, -RHO),
            "5": vac,
        }
        return _diagram_from_shape(_SHAPE_48, nodes, 5)
    raise ValueError(f"no stated diagram for {a!r}; use affine_loewy for transport")


# -- the octuplet sub-layer -------------------------------------------

OCT_FAMILIES = (
    "W1", "W3", "W3bar", "W8",
    "Q9oct", "Q9barOct", "P24oct", "P24barOct", "P48oct",
)
_OCT_IRREDUCIBLE = ("W1", "W3", "W3bar", "W8")
_OCT_INT_CLASS = ("W1", "W8", "P48oct")  # class reps in Q; others in -rho/2 + Q

THREE_HALF_RHO = Fraction(3, 2) * RHO
_OCT_REPS_INT = {0: ZERO, 1: RHO, 2: -RHO}
_OCT_REPS_HALF = {0: -HALF_RHO, 1: HALF_RHO, 2: THREE_HALF_RHO}

def _oct_class_index(family, w):
    mu = w if family in _OCT_INT_CLASS else w + HALF_RHO
    if not lattice_member(mu, "Q"):
        raise InvalidCosetWeight(f"{family} class weight {w!r} is outside its coset")
    return int(mu.c1) % 3


@dataclass(frozen=True)
class OctLabel:
    family: str
    weight: Weight

    def __post_init__(self):
        if self.family not in OCT_FAMILIES:
            raise ValueError(f"unknown octuplet family {self.family!r}")
        reps = _OCT_REPS_INT if self.family in _OCT_INT_CLASS else _OCT_REPS_HALF
        if self.weight not in reps.values():
            raise InvalidCosetWeight(
                f"{self.family} weight {self.weight!r} is not a canonical class representative"
            )

    @staticmethod
    def make(family, w):
        reps = _OCT_REPS_INT if family in _OCT_INT_CLASS else _OCT_REPS_HALF
        return OctLabel(family, reps[_oct_class_index(family, w)])

    @property
    def class_index(self):
        return _oct_class_index(self.family, self.weight)

    def __repr__(self):
        return f"{self.family}{self.weight!r}"

    def sort_key(self):
        return (self.family, self.weight.sort_key())


def parse_oct(s):
    s = s.strip()
    for fam in sorted(OCT_FAMILIES, key=len, reverse=True):
        if s.startswith(fam):
            return OctLabel.make(fam, parse_weight(s[len(fam):]))
    raise ValueError(f"bad octuplet label {s!r}")


def _oct_shift(l, k):
    """Fuse k times with the order-3 simple current at class [rho]."""
    reps = _OCT_REPS_INT if l.family in _OCT_INT_CLASS else _OCT_REPS_HALF
    return OctLabel(l.family, reps[(l.class_index + k) % 3])


_OCT_FROM_COSET = {
    "I1": "W1", "I3": "W3", "I3bar": "W3bar", "I8": "W8",
    "P24": "P24oct", "P24bar": "P24barOct", "P48": "P48oct",
}


def oct_induce(c):
    """Induce a coset label along 3P to an (untwisted) octuplet label."""
    if not lattice_member(c.weight, "Q/2"):
        raise TwistedModule(
            f"{c!r} induces to a twisted module: weight is not in Q/2"
        )
    if c.family in ("I4", "P16"):
        raise UnsupportedCase(
            f"{c!r} has no irreducible induction: the degree-1 family is reducible on Q/2"
        )
    if c.family == "I8" and not lattice_member(c.weight, "Q"):
        raise UnsupportedCase(
            f"{c!r} has no irreducible induction: reducible off the lattice Q"
        )
    return OctLabel.make(_OCT_FROM_COSET[c.family], c.weight)


def octuplet_table():
    """The twelve untwisted irreducible octuplet labels with top-space data."""
    w1, w2 = 3 * OMEGA1, 3 * OMEGA2
    hf, th = HALF_RHO, THREE_HALF_RHO
    rows = [
        ("W1", ZERO, [ZERO], Fraction(0)),
        ("W1", RHO, [RHO, RHO - w1, RHO - w2], Fraction(5, 3)),
        ("W1", -RHO, [-RHO, -RHO + w1, -RHO + w2], Fraction(5, 3)),
        ("W3", -hf, [-hf], Fraction(-1, 3)),
        ("W3", hf, [hf, hf - w1, hf - w2], Fraction(2, 3)),
        ("W3", th, [-th, -th + w1, -th + w2], Fraction(1)),
        ("W3bar", -hf, [-hf, -hf + w1, -hf + w2], Fraction(-1, 3)),
        ("W3bar", hf, [hf], Fraction(2, 3)),
        ("W3bar", th, [th, th - w1, th - w2], Fraction(1)),
        ("W8", ZERO, [ZERO], Fraction(-1, 2)),
        ("W8", RHO, [RHO, RHO - w1, RHO - w2], Fraction(1, 6)),
        ("W8", -RHO, [-RHO, -RHO + w1, -RHO + w2], Fraction(1, 6)),
    ]
    return [
        {
            "label": OctLabel.make(fam, rep),
            "top_dim": len(weights),
            "weights": weights,
            "conformal_weight": delta,
        }
        for fam, rep, weights, delta in rows
    ]


# the six fusion rules among the orbit representatives; entries are
# (family, class index, multiplicity)
_OCT_BASE_INDEX = {"W1": 0, "W3": 2, "W3bar": 2, "W8": 0}
_OCT_BASE_RULES = {
    ("W3", "W3"): [("Q9barOct", 2, 1)],
    ("W3bar", "W3bar"): [("Q9oct", 2, 1)],
    ("W3", "W3bar"): [("W8", 0, 1), ("W1", 0, 1)],
    ("W3", "W8"): [("P24oct", 2, 1)],
    ("W3bar", "W8"): [("P24barOct", 2, 1)],
    ("W8", "W8"): [("W8", 0, 2), ("P48oct", 0, 1)],
}
_OCT_COMPOSITE_BASE = {"Q9oct": 2, "Q9barOct": 2, "P24oct": 2, "P24barOct": 2, "P48oct": 0}
_OCT_COMPOSITE_FACTORS = {
    "Q9oct": [("W3", 2, 2), ("W1", 0, 3)],
    "Q9barOct": [("W3bar", 2, 2), ("W1", 0, 3)],
    "P24oct": [("W3", 2, 3), ("W3bar", 2, 3), ("W1", 0, 6)],
    "P24barOct": [("W3bar", 2, 3), ("W3", 2, 3), ("W1", 0, 6)],
    "P48oct": [("W1", 0, 12), ("W3", 2, 6), ("W3bar", 2, 6)],
}


def _oct_at(family, idx):
    reps = _OCT_REPS_INT if family in _OCT_INT_CLASS else _OCT_REPS_HALF
    return OctLabel(family, reps[idx % 3])


def oct_fuse(a, b):
    """Fusion of two irreducible octuplet labels, as a (label, mult) list."""
    if a.family not in _OCT_IRREDUCIBLE or b.family not in _OCT_IRREDUCIBLE:
        raise UnsupportedCase(f"fusion of non-irreducible labels {a!r}, {b!r}")
    if a.family == "W1":
        return [(_oct_shift(b, a.class_index), 1)]
    if b.family == "W1":
        return [(_oct_shift(a, b.class_index), 1)]
    key = (a.family, b.family)
    if key not in _OCT_BASE_RULES:
        key = (b.family, a.family)
        a, b = b, a
    k = (a.class_index - _OCT_BASE_INDEX[a.family]) + (b.class_index - _OCT_BASE_INDEX[b.family])
    return [(_oct_at(fam, idx + k), m) for fam, idx, m in _OCT_BASE_RULES[key]]


def oct_factors(l):
    """Composition factors of an octuplet label, as a dict label -> mult."""
    if l.family in _OCT_IRREDUCIBLE:
        return {l: 1}
    k = l.class_index - _OCT_COMPOSITE_BASE[l.family]
    out = {}
    for fam, idx, m in _OCT_COMPOSITE_FACTORS[l.family]:
        key = _oct_at(fam, idx + k)
        out[key] = out.get(key, 0) + m
    return out


def oct_gr_fuse(a, b):
    """Fusion at the composition-factor level (irreducible inputs)."""
    out = {}
    for lbl, m in oct_fuse(a, b):
        _acc(out, oct_factors(lbl), m)
    return out


def oct_static_loewy(l):
    """The stated Loewy diagrams of the reducible octuplet labels."""
    k = l.class_index - _OCT_COMPOSITE_BASE[l.family]
    W1 = _oct_at("W1", 0 + k)
    if l.family in ("Q9oct", "Q9barOct"):
        top = _oct_at("W3" if l.family == "Q9oct" else "W3bar", 2 + k)
        layers = [_mklayer([top]), _mklayer([(W1, 3)]), _mklayer([top])]
        arrows = set()
        for tag in ("standard", "costandard"):
            arrows.add((1, repr(top), repr(W1), tag))
            arrows.add((2, repr(W1), repr(top), tag))
        arrows.add((2, repr(W1), repr(top), "other"))
        return LoewyDiagram(layers, arrows)
    if l.family in ("P24oct", "P24barOct"):
        t = _oct_at("W3" if l.family == "P24oct" else "W3bar", 2 + k)
        o = _oct_at("W3bar" if l.family == "P24oct" else "W3", 2 + k)
        nodes = {
            "1": t, "21": W1, "22": W1, "23": W1,
            "31": o, "32": o, "33": t, "34": o,
            "41": W1, "42": W1, "43": W1, "5": t,
        }
        return _diagram_from_shape(_SHAPE_24, nodes, 5)
    if l.family == "P48oct":
        w3 = _oct_at("W3", 2 + k)
        w3b = _oct_at("W3bar", 2 + k)
        nodes = {
            "1": W1,
            "21": w3b, "22": w3, "23": w3, "24": w3b, "25": w3b, "26": w3,
            "31": W1, "32": W1, "33": W1, "34": (W1, 4), "35": W1, "36": W1, "37": W1,
            "41": w3b, "42": w3, "43": w3, "44": w3b, "45": w3b, "46": w3,
            "5": W1,
        }
        return _diagram_from_shape(_SHAPE_48, nodes, 5)
    raise ValueError(f"no stated diagram for the irreducible {l!r}")


def oct_loewy_transport(l):
    """Loewy layer data of a reducible octuplet label, via the quantum side."""
    if l.family in ("P24oct", "P24barOct", "P48oct"):
        coset_fam = {"P24oct": "P24", "P24barOct": "P24bar", "P48oct": "P48"}[l.family]
        reps = _OCT_REPS_INT if coset_fam == "P48" else _OCT_REPS_HALF
        rep = reps[l.class_index]
        if coset_fam != "P48" and l.class_index == 2:
            rep = -THREE_HALF_RHO  # same class, inside -rho/2 + Q
        diag = coset_loewy(CosetLabel(coset_fam, rep))
        return _map_diagram(diag, oct_induce)
    if l.family in ("Q9oct", "Q9barOct"):
        rep = _OCT_REPS_HALF[l.class_index]
        if l.class_index == 2:
            rep = -THREE_HALF_RHO
        head = phi(rep) + RHO if l.family == "Q9oct" else phi(rep)
        diag = static_loewy(ModuleLabel("Q", head))
        return _map_diagram(
            diag,
            lambda x: oct_induce(from_quantum(ModuleLabel("L", x.weight))),
        )
    raise ValueError(f"no transported diagram for the irreducible {l!r}")
