"""Symbolic layer: module labels, closed-form tensor decomposition rules,
static Loewy diagrams and characters for the M/P/K/R/S/Q families, the
extension-existence predicate, and tensor recipes for building reference
copies of the indecomposables.

Weight conventions: lambda_k denotes the k-th index <lambda+rho, alpha_k>.
Parity signatures are "odd" / "even" / "noninteger" per index; every case
condition below is keyed on these.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .exact import fmt_rat
from .weights import (
    ALPHA,
    ALPHA1,
    ALPHA2,
    ALPHA3,
    Weight,
    classify,
    indices,
    is_odd_int,
    parse_weight,
)
from .repmod import Character, irreducible_character, verma_character


class UnsupportedCase(Exception):
    """A weight pair outside every listed decomposition case."""

    def __init__(self, msg, signature=None):
        super().__init__(msg)
        self.signature = signature


FAMILIES = ("L", "M", "P", "K", "R", "S", "Q")
# the typicality class of the head weight of each fixed-dimension family
_HEAD_CLASS = {"K": "atyp2-root3-odd", "Q": "atyp2-root3-odd",
               "R": "atyp2-root3-even", "S": "atyp2-root3-even"}


@dataclass(frozen=True)
class ModuleLabel:
    family: str
    weight: Weight
    # R-family diagrams depend on a choice j in {1,2} that the weight alone
    # does not determine; carried separately, not part of the grammar.
    variant: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        need = _HEAD_CLASS.get(self.family)
        if need and classify(self.weight).tag != need:
            raise ValueError(f"a {self.family} label needs a {need} weight, not {self.weight!r}")

    @property
    def dim(self):
        if self.family in ("L", "M", "P"):
            d = classify(self.weight).irr_dim
            if self.family == "L":
                return d
            if self.family == "M":
                return 8
            return {8: 8, 4: 16, 3: 24, 1: 48}[d]
        return {"K": 16, "R": 8, "S": 16, "Q": 9}[self.family]

    def __repr__(self):
        w = self.weight
        return f"{self.family}({self.dim})[{fmt_rat(w.c1)},{fmt_rat(w.c2)}]"

    def sort_key(self):
        return (self.family, self.weight.sort_key())


def parse_label(s):
    s = s.strip()
    fam = s[: s.index("(")] if "(" in s else None
    if fam not in FAMILIES:
        raise ValueError(f"bad label {s!r}: unknown family")
    dim_s = s[s.index("(") + 1 : s.index(")")]
    w = parse_weight(s[s.index(")") + 1 :])
    lbl = ModuleLabel(fam, w)
    if int(dim_s) != lbl.dim:
        raise ValueError(f"bad label {s!r}: dimension tag {dim_s} should be {lbl.dim}")
    return lbl


class DecompositionExpr:
    """Formal multiset of labels with positive multiplicities."""

    def __init__(self, terms):
        # terms: iterable of ModuleLabel or (ModuleLabel, mult)
        acc = {}
        for t in terms:
            lbl, m = t if isinstance(t, tuple) else (t, 1)
            key = (lbl.family, lbl.weight)
            if key in acc:
                acc[key] = (acc[key][0], acc[key][1] + m)
            else:
                acc[key] = (lbl, m)
        self.terms = sorted(acc.values(), key=lambda t: t[0].sort_key())

    def __iter__(self):
        return iter(self.terms)

    def __eq__(self, other):
        return [(repr(l), m) for l, m in self.terms] == [(repr(l), m) for l, m in other.terms]

    def dim(self):
        return sum(l.dim * m for l, m in self.terms)

    def __repr__(self):
        return " ⊕ ".join((f"{m}*" if m > 1 else "") + repr(l) for l, m in self.terms)


def _parity(x):
    if is_odd_int(x):
        return "o"
    xf = Fraction(x)
    return "e" if xf.denominator == 1 else "n"


def _sig(lam):
    return tuple(_parity(x) for x in indices(lam))


def _sumsig(lam, mu):
    li, mi = indices(lam), indices(mu)
    return tuple(_parity(a + b) for a, b in zip(li, mi))


def tensor_rule(a, b):
    """The decomposition of L_a (x) L_b per the closed-form case analysis."""
    if a.family != "L" or b.family != "L":
        raise ValueError("tensor_rule takes irreducible labels")
    la, mu = a.weight, b.weight
    ca, cb = classify(la), classify(mu)
    if cb.irr_dim > ca.irr_dim:
        return tensor_rule(b, a)
    nu = la + mu
    L, P = (lambda w: ModuleLabel("L", w)), (lambda w: ModuleLabel("P", w))

    # 1 (x) anything
    if cb.irr_dim == 1:
        return DecompositionExpr([L(nu)])
    if ca.irr_dim == 1:
        return DecompositionExpr([L(nu)])

    if ca.irr_dim == 8:
        if cb.irr_dim == 8:
            return _rule_8x8(la, mu, nu, P)
        if cb.irr_dim == 3:
            return _rule_3x8(mu, la, mu + la, P)
        return _rule_4x8(mu, la, mu + la, P)
    # now ca.irr_dim in {3,4} and cb.irr_dim in {3,4}, cb <= ca
    if ca.irr_dim == 4 and cb.irr_dim == 4:
        return _rule_4x4(la, mu, nu, ca, cb)
    if ca.irr_dim == 4:  # 3 (x) 4, with b the 3-dim one
        return _rule_3x4(mu, la, nu, cb, ca)
    return _rule_3x3(la, mu, nu, ca, cb)


def _rule_3x8(la, mu, nu, P):
    # L3_la (x) L8_mu; la has odd indices {i, 3}, even index j
    i = classify(la).i
    j = 3 - i
    al = ALPHA
    sig = _sig(mu)
    m1, m2, m3 = sig
    mi, mj = sig[i - 1], sig[j - 1]
    if (m1, m2, m3) == ("e", "e", "e"):
        return DecompositionExpr([P(nu - al[3])])
    if mi == "e" and mj == "n" and m3 == "n":
        return DecompositionExpr([P(nu), P(nu - al[3])])
    if mj == "e" and mi == "n" and m3 == "n":
        return DecompositionExpr([P(nu - al[j]), P(nu - al[3])])
    if m3 == "e" and m1 == "n" and m2 == "n":
        return DecompositionExpr([P(nu - al[j]), P(nu - al[3])])
    if (m1, m2, m3) == ("n", "n", "n"):
        return DecompositionExpr([P(nu), P(nu - al[j]), P(nu - al[3])])
    raise UnsupportedCase(f"3x8 signature {sig}", sig)


def _rule_4x8(la, mu, nu, P):
    al = ALPHA
    cl = classify(la)
    if cl.i in (1, 2):
        i, j = cl.i, 3 - cl.i
        mi = _sig(mu)[i - 1]
        ss = _sumsig(la, mu)
        sj, s3 = ss[j - 1], ss[2]
        if mi == "e" and sj == "e" and s3 == "o":
            return DecompositionExpr([P(nu - al[3]), P(nu - al[j] - al[3])])
        if mi == "e" and s3 == "e" and sj == "o":
            return DecompositionExpr([P(nu), P(nu - al[j] - al[3])])
        if mi == "e" and sj == "n" and s3 == "n":
            return DecompositionExpr([P(nu), P(nu - al[3]), P(nu - al[j] - al[3])])
        if sj == "e" and mi == "n" and s3 == "n":
            return DecompositionExpr([P(nu - al[j]), P(nu - al[3]), P(nu - al[j] - al[3])])
        if sj == "o" and mi == "n" and s3 == "n":
            # the literal text has alpha_3 in the middle summand; it must be
            # alpha_j for the dimensions to add up to 32
            return DecompositionExpr([P(nu), P(nu - al[j]), P(nu - al[j] - al[3])])
        if s3 == "e" and mi == "n" and sj == "n":
            # the literal text has alpha_j in the middle summand; it must be
            # alpha_3 for the dimensions to add up to 32
            return DecompositionExpr([P(nu), P(nu - al[3]), P(nu - al[j] - al[3])])
        if s3 == "o" and mi == "n" and sj == "n":
            return DecompositionExpr([P(nu - al[j]), P(nu - al[3]), P(nu - al[j] - al[3])])
        if mi == "n" and sj == "n" and s3 == "n":
            return DecompositionExpr([P(nu), P(nu - al[j]), P(nu - al[3]), P(nu - al[j] - al[3])])
        raise UnsupportedCase(f"4x8 signature mi={mi} sj={sj} s3={s3}")
    # lambda_3 odd, lambda_1, lambda_2 noninteger
    m3 = _sig(mu)[2]
    ss = _sumsig(la, mu)
    s1, s2 = ss[0], ss[1]
    if m3 == "e" and {s1, s2} == {"e", "o"}:
        i, j = (1, 2) if s1 == "e" else (2, 1)
        return DecompositionExpr([P(nu - al[j]), P(nu - al[3])])
    if m3 == "e" and s1 == "n" and s2 == "n":
        return DecompositionExpr([P(nu - al[1]), P(nu - al[2]), P(nu - al[3])])
    if m3 == "n" and ("e" in (s1, s2)) and ("n" in (s1, s2)):
        i, j = (1, 2) if s1 == "e" else (2, 1)
        return DecompositionExpr([P(nu - al[i]), P(nu - al[j]), P(nu - al[3])])
    if m3 == "n" and ("o" in (s1, s2)) and ("n" in (s1, s2)):
        i, j = (1, 2) if s1 == "o" else (2, 1)
        return DecompositionExpr([P(nu), P(nu - al[i]), P(nu - al[3])])
    if m3 == "n" and s1 == "n" and s2 == "n":
        return DecompositionExpr([P(nu), P(nu - al[1]), P(nu - al[2]), P(nu - al[3])])
    raise UnsupportedCase(f"4'x8 signature m3={m3} s=({s1},{s2})")


def _rule_8x8(la, mu, nu, P):
    al = ALPHA
    s1, s2, s3 = _sumsig(la, mu)
    if (s1, s2, s3) == ("e", "e", "e"):
        return DecompositionExpr([(P(nu - al[3]), 2), P(nu - 2 * al[3])])
    if {s1, s2} == {"e", "o"} and s3 == "o":
        i, j = (1, 2) if s1 == "e" else (2, 1)
        return DecompositionExpr(
            [P(nu - al[j]), P(nu - al[i] - al[3]), P(nu - al[3]), P(nu - 2 * al[3])]
        )
    if (s1, s2, s3) == ("o", "o", "e"):
        return DecompositionExpr(
            [P(nu), P(nu - al[1] - al[3]), P(nu - al[2] - al[3]), P(nu - 2 * al[3])]
        )
    if ("e" in (s1, s2)) and ("n" in (s1, s2)) and s3 == "n":
        i, j = (1, 2) if s1 == "e" else (2, 1)
        return DecompositionExpr(
            [P(nu - al[i]), P(nu - al[j]), (P(nu - al[3]), 2), P(nu - al[i] - al[3]), P(nu - 2 * al[3])]
        )
    if ("o" in (s1, s2)) and ("n" in (s1, s2)) and s3 == "n":
        # the literal text has alpha_1 in the second summand; it must be
        # alpha_i for the weight to be typical
        i, j = (1, 2) if s1 == "o" else (2, 1)
        return DecompositionExpr(
            [P(nu), P(nu - al[i]), P(nu - al[3]), P(nu - al[i] - al[3]), P(nu - al[j] - al[3]), P(nu - 2 * al[3])]
        )
    if s3 == "e" and s1 == "n" and s2 == "n":
        return DecompositionExpr(
            [P(nu), (P(nu - al[3]), 2), P(nu - al[1] - al[3]), P(nu - al[2] - al[3]), P(nu - 2 * al[3])]
        )
    if s3 == "o" and s1 == "n" and s2 == "n":
        return DecompositionExpr(
            [P(nu - al[1]), P(nu - al[2]), P(nu - al[3]), P(nu - al[1] - al[3]), P(nu - al[2] - al[3]), P(nu - 2 * al[3])]
        )
    if (s1, s2, s3) == ("n", "n", "n"):
        return DecompositionExpr(
            [P(nu), P(nu - al[1]), P(nu - al[2]), (P(nu - al[3]), 2), P(nu - al[1] - al[3]), P(nu - al[2] - al[3]), P(nu - 2 * al[3])]
        )
    raise UnsupportedCase(f"8x8 signature {(s1, s2, s3)}")


def _rule_4x4(la, mu, nu, ca, cb):
    al = ALPHA
    L, P = (lambda w: ModuleLabel("L", w)), (lambda w: ModuleLabel("P", w))
    cn = classify(nu)
    if cn.tag == "typical":
        if ca.i == cb.i == 3:
            return DecompositionExpr([P(nu), L(nu - al[1]), L(nu - al[2])])
        if ca.i == cb.i:
            # unreachable: lambda_i, mu_i odd forces (lambda+mu)_i odd
            raise UnsupportedCase("4x4 same-index pair with typical sum", _sumsig(la, mu))
        k = ({1, 2, 3} - {ca.i, cb.i}).pop()
        return DecompositionExpr([P(nu), P(nu - al[k])])
    if cn.tag == "atyp1":
        if ca.i == cb.i and ca.i in (1, 2):
            j = 3 - ca.i
            return DecompositionExpr([L(nu), P(nu - al[j]), L(nu - al[j] - al[3])])
        if ca.i == cb.i == 3:
            # unreachable: nu_3 is even and nu_1, nu_2 share integrality and
            # parity, so the sum is typical or atypical of degree 2
            raise UnsupportedCase("4x4 index-3 pair with degree-1 atypical sum", _sumsig(la, mu))
        # distinct indices with the sum atypical via the third index k: the
        # product is indecomposable, the 16-dimensional projective at nu-alpha_k
        k = ({1, 2, 3} - {ca.i, cb.i}).pop()
        return DecompositionExpr([P(nu - al[k])])
    # sum atypical of degree 2
    if ca.i == cb.i and ca.i in (1, 2):
        j = 3 - ca.i
        if cn.tag == "atyp2-root3-even":
            return DecompositionExpr([ModuleLabel("K", nu - al[j])])
        # atyp2-root3-odd with odd indices {i, 3}
        return DecompositionExpr(
            [ModuleLabel("R", nu - al[j] - al[3], variant=j), P(nu - al[j])]
        )
    if ca.i == cb.i == 3:
        return DecompositionExpr([ModuleLabel("S", nu)])
    raise UnsupportedCase(f"4x4 degenerate signature i={ca.i}, i'={cb.i}, sum {cn.tag}")


def _rule_3x4(la, mu, nu, c3, c4):
    # la the 3-dim weight (odd indices {i,3}), mu atypical of degree 1
    al = ALPHA
    L, P = (lambda w: ModuleLabel("L", w)), (lambda w: ModuleLabel("P", w))
    i, m = c3.i, c4.i
    if m == i:
        j = 3 - i
        return DecompositionExpr([L(nu), P(nu - al[j])])
    k = ({1, 2, 3} - {i, m}).pop()
    return DecompositionExpr([P(nu), L(nu - al[k])])


def _rule_3x3(la, mu, nu, ca, cb):
    al = ALPHA
    L, P = (lambda w: ModuleLabel("L", w)), (lambda w: ModuleLabel("P", w))
    if ca.i != cb.i:
        return DecompositionExpr([P(nu), L(nu - al[3])])
    j = 3 - ca.i
    return DecompositionExpr([ModuleLabel("Q", nu - al[j])])


# -- extensions -------------------------------------------------------


def ext_exists(lam, mu):
    """Whether a non-split extension of L_lam by L_mu exists (symmetric)."""

    def cond(a, b):
        ca = classify(a)
        if ca.tag == "atyp1":
            return b in (a + ALPHA[ca.i], a - ALPHA[ca.i])
        if ca.tag == "atyp2-root3-even":
            return b in (
                a + ALPHA1, a - ALPHA1, a + ALPHA2, a - ALPHA2,
                a - ALPHA1 + 2 * ALPHA3, a - ALPHA2 + 2 * ALPHA3,
            )
        if ca.tag == "atyp2-root3-odd":
            i = ca.i
            return b in (a + ALPHA[i], a - ALPHA[i], a + ALPHA[i] - 2 * ALPHA3)
        return False

    return cond(lam, mu) or cond(mu, lam)


# -- static Loewy data ------------------------------------------------


@dataclass
class LoewyDiagram:
    """layers: top (head) first; each layer a sorted list of (label, mult).
    arrows: set of (upper layer index (1-based), from label, to label, tag)."""

    layers: list
    arrows: set

    def factor_multiset(self):
        out = {}
        for layer in self.layers:
            for lbl, m in layer:
                out[repr(lbl)] = out.get(repr(lbl), 0) + m
        return out

    def layer_lists(self):
        return [sorted((repr(l), m) for l, m in layer) for layer in self.layers]

    def arrow_triples(self, only_mult1=False):
        out = set()
        mults = [dict((repr(l), m) for l, m in layer) for layer in self.layers]
        for j, a, b, _tag in self.arrows:
            if only_mult1 and (mults[j - 1].get(a, 0) > 1 or mults[j].get(b, 0) > 1):
                continue
            out.add((j, a, b))
        return out

    def to_json(self):
        return {
            "layers": self.layer_lists(),
            "arrows": sorted([j, a, b, t] for j, a, b, t in self.arrows),
        }

    def to_dot(self, name="loewy"):
        colour = {"standard": "red", "costandard": "blue", "other": "green", "unresolved": "black"}
        lines = [f'digraph "{name}" {{', "  rankdir=TB;"]
        ids = {}
        for j, layer in enumerate(self.layers, 1):
            lines.append(f"  {{ rank=same;")
            for lbl, m in layer:
                nid = f"n{j}_{len(ids)}"
                ids[(j, repr(lbl))] = nid
                text = repr(lbl) + (f" x{m}" if m > 1 else "")
                lines.append(f'    {nid} [label="{text}"];')
            lines.append("  }")
        for j, a, b, tag in sorted(self.arrows):
            style = ' style=dashed' if tag == "unresolved" else ""
            lines.append(
                f'  {ids[(j, a)]} -> {ids[(j + 1, b)]} [color={colour[tag]}{style}];'
            )
        lines.append("}")
        return "\n".join(lines)


def _mklayer(labels):
    out = {}
    for l in labels:
        lbl, m = l if isinstance(l, tuple) else (l, 1)
        out[repr(lbl)] = (lbl, out.get(repr(lbl), (lbl, 0))[1] + m)
    return sorted(out.values(), key=lambda t: t[0].sort_key())


# The shape of every stated diagram, on the quantum side and on the coset,
# affine and octuplet sides it is transported to.  The first digit of a
# node's name is its layer; an arrow (a, b) under a tag runs from node a to
# node b one layer below.

SHAPES = {
    # irreducible
    "point": {},
    # atypical Verma of degree one
    "verma": {"other": [("1", "2")]},
    # the other Vermas, and the R modules, whose bottom is their top
    "diamond": {"other": [("1", "21"), ("1", "22"), ("21", "3"), ("22", "3")]},
    # Q: three middle nodes, bottom equal to top
    "loop": {
        "other": [("1", "21"), ("1", "22"), ("1", "23"), ("21", "3"), ("22", "3"), ("23", "3")],
    },
    # K and S: two heads, each with a private middle node and two shared ones
    "twin": {
        "other": [
            ("11", "21"), ("11", "22"), ("11", "23"), ("12", "22"), ("12", "23"), ("12", "24"),
            ("21", "31"), ("22", "31"), ("22", "32"), ("23", "31"), ("23", "32"), ("24", "32"),
        ],
    },
    # the 16-dimensional projective cover
    "square": {
        "standard": [("1", "21"), ("22", "3")],
        "costandard": [("1", "22"), ("21", "3")],
    },
    # the 24-dimensional projective cover
    "cover24": {
        "standard": [
            ("1", "22"), ("1", "23"), ("22", "34"), ("23", "34"),
            ("21", "32"), ("21", "33"), ("32", "43"), ("33", "43"),
            ("31", "41"), ("31", "42"), ("41", "5"), ("42", "5"),
        ],
        "costandard": [
            ("1", "21"), ("21", "31"), ("22", "31"), ("23", "32"), ("23", "33"),
            ("32", "41"), ("33", "41"), ("34", "42"), ("34", "43"), ("43", "5"),
        ],
        "other": [("22", "33"), ("33", "42")],
    },
    # the 48-dimensional projective cover
    "cover48": {
        "standard": [
            ("1", "25"), ("1", "26"), ("25", "37"), ("26", "37"),
            ("21", "32"), ("21", "34"), ("32", "43"), ("34", "43"),
            ("22", "33"), ("22", "34"), ("33", "44"), ("34", "44"),
            ("23", "34"), ("23", "35"), ("34", "45"), ("35", "45"),
            ("24", "34"), ("24", "36"), ("34", "46"), ("36", "46"),
            ("31", "41"), ("31", "42"), ("41", "5"), ("42", "5"),
        ],
        "costandard": [
            ("1", "21"), ("1", "22"), ("21", "31"), ("22", "31"),
            ("23", "32"), ("32", "41"), ("34", "41"),
            ("24", "33"), ("33", "42"), ("34", "42"),
            ("25", "34"), ("25", "35"), ("35", "43"),
            ("26", "34"), ("26", "36"), ("36", "44"),
            ("37", "45"), ("37", "46"), ("45", "5"), ("46", "5"),
        ],
        "other": [("1", "23"), ("1", "24"), ("43", "5"), ("44", "5")],
    },
    # the nine-dimensional octuplet loop: the middle node has multiplicity 3
    "loop9": {
        "standard": [("1", "2"), ("2", "3")],
        "costandard": [("1", "2"), ("2", "3")],
        "other": [("2", "3")],
    },
}


def shape_diagram(shape, nodes):
    """The diagram of the named shape with its nodes set to labels.

    nodes: {node name: label or (label, mult)}, one entry per node of the
    shape; the first digit of a name is the node's layer.
    """
    nodes = {name: lm if isinstance(lm, tuple) else (lm, 1) for name, lm in nodes.items()}
    depth = max(int(name[0]) for name in nodes)
    layers = [
        _mklayer([lm for name, lm in nodes.items() if int(name[0]) == j])
        for j in range(1, depth + 1)
    ]
    arrows = {
        (int(a[0]), repr(nodes[a][0]), repr(nodes[b][0]), tag)
        for tag, pairs in SHAPES[shape].items()
        for a, b in pairs
    }
    return LoewyDiagram(layers, arrows)


def static_loewy(label):
    """The parametric Loewy diagram of the cited figure, instantiated."""
    lam = label.weight
    cls = classify(lam)
    L = lambda w: ModuleLabel("L", w)
    al = ALPHA
    i = cls.i
    if label.family == "L" or (label.family in ("M", "P") and cls.tag == "typical"):
        return shape_diagram("point", {"1": L(lam)})
    if label.family == "M" and cls.tag == "atyp1":
        return shape_diagram("verma", {"1": L(lam), "2": L(lam - al[i])})
    if label.family == "M" and cls.tag == "atyp2-root3-odd":
        return shape_diagram("diamond", {
            "1": L(lam), "21": L(lam - al[i]), "22": L(lam + al[i] - 2 * al[3]),
            "3": L(lam - al[3]),
        })
    if label.family == "M":
        return shape_diagram("diamond", {
            "1": L(lam), "21": L(lam - al[1]), "22": L(lam - al[2]), "3": L(lam - 2 * al[3]),
        })
    if label.family == "P" and cls.tag == "atyp1":
        return shape_diagram("square", {
            "1": L(lam), "21": L(lam - al[i]), "22": L(lam + al[i]), "3": L(lam),
        })
    if label.family == "P" and cls.tag == "atyp2-root3-odd":
        return shape_diagram("cover24", {
            "1": L(lam),
            "21": L(lam + al[i]), "22": L(lam - al[i]), "23": L(lam + al[i] - 2 * al[3]),
            "31": L(lam + al[3]), "32": L(lam + 2 * al[i] - al[3]),
            "33": L(lam), "34": L(lam - al[3]),
            "41": L(lam + al[i]), "42": L(lam - al[i]), "43": L(lam + al[i] - 2 * al[3]),
            "5": L(lam),
        })
    if label.family == "P":
        # 48-dimensional projective; the four middle copies of L(lam) are
        # collapsed into a single multiplicity-4 node, as in the source figure
        return shape_diagram("cover48", {
            "1": L(lam),
            "21": L(lam + al[2] + al[3]), "22": L(lam + al[1] + al[3]), "23": L(lam + al[2]),
            "24": L(lam + al[1]), "25": L(lam - al[1]), "26": L(lam - al[2]),
            "31": L(lam + 2 * al[3]), "32": L(lam + 2 * al[2]), "33": L(lam + 2 * al[1]),
            "34": (L(lam), 4),
            "35": L(lam - 2 * al[1]), "36": L(lam - 2 * al[2]), "37": L(lam - 2 * al[3]),
            "41": L(lam + al[2] + al[3]), "42": L(lam + al[1] + al[3]), "43": L(lam + al[2]),
            "44": L(lam + al[1]), "45": L(lam - al[1]), "46": L(lam - al[2]),
            "5": L(lam),
        })
    if label.family == "Q":
        return shape_diagram("loop", {
            "1": L(lam),
            "21": L(lam + al[i]), "22": L(lam - al[i]), "23": L(lam + al[i] - 2 * al[3]),
            "3": L(lam),
        })
    if label.family == "K":
        return shape_diagram("twin", {
            "11": L(lam), "12": L(lam - al[3]),
            "21": L(lam + al[i]), "22": L(lam - al[i]),
            "23": L(lam + al[i] - 2 * al[3]), "24": L(lam - al[i] - 2 * al[3]),
            "31": L(lam), "32": L(lam - al[3]),
        })
    if label.family == "R":
        j = label.variant or 1
        return shape_diagram("diamond", {
            "1": L(lam), "21": L(lam + al[j] + al[3]), "22": L(lam - al[j]), "3": L(lam),
        })
    # S
    return shape_diagram("twin", {
        "11": L(lam - al[1]), "12": L(lam - al[2]),
        "21": L(lam - 2 * al[1]), "22": L(lam), "23": L(lam - 2 * al[3]), "24": L(lam - 2 * al[2]),
        "31": L(lam - al[1]), "32": L(lam - al[2]),
    })


def static_char(label):
    """Character from the cited figure (Verma sums for P; factor sums else)."""
    lam = label.weight
    cls = classify(lam)
    al = ALPHA
    if label.family == "L":
        return irreducible_character(lam)
    if label.family == "M":
        return verma_character(lam)
    if label.family == "P":
        if cls.tag == "typical":
            return verma_character(lam)
        if cls.tag == "atyp1":
            return verma_character(lam + al[cls.i]) + verma_character(lam)
        if cls.tag == "atyp2-root3-odd":
            return (
                verma_character(lam + al[3])
                + verma_character(lam + al[cls.i])
                + verma_character(lam)
            )
        return (
            verma_character(lam + 2 * al[3])
            + verma_character(lam + 2 * al[3] - al[1])
            + verma_character(lam + 2 * al[3] - al[2])
            + verma_character(lam + al[1])
            + verma_character(lam + al[2])
            + verma_character(lam)
        )
    diag = static_loewy(label)
    ch = Character({})
    for layer in diag.layers:
        for lbl, m in layer:
            ch = ch + m * irreducible_character(lbl.weight)
    return ch


# -- reference recipes ------------------------------------------------

# canonical small weights realising each typicality class with a given index
_CANON_3 = {1: Weight(0, 1), 2: Weight(1, 0)}  # indices (1,2,3) / (2,1,3)
_CANON_4 = {
    1: Weight(0, Fraction(-1, 2)),   # indices (1, 1/2, 3/2)
    2: Weight(Fraction(-1, 2), 0),   # indices (1/2, 1, 3/2)
    3: Weight(Fraction(-1, 2), Fraction(-1, 2)),  # indices (1/2, 1/2, 1)
}


def _partner(nu, lam0):
    """mu with lam0 + mu = nu."""
    return nu - lam0


def reference_recipe(label):
    """(left weight, right weight, full DecompositionExpr, target label).

    The tensor product of the irreducibles at the two weights decomposes as
    the expression; the reference copy of `label` is obtained by splitting
    off the other (always irreducible typical) summands.
    """
    lam = label.weight
    cls = classify(lam)
    al = ALPHA
    fam = label.family
    if fam == "P" and cls.tag == "atyp1":
        i = cls.i
        if i in (1, 2):
            lam0 = _CANON_3[i]
        else:
            lam0 = _CANON_3[1]
        mu0 = _partner(lam + al[3], lam0)
    elif fam == "P" and cls.tag == "atyp2-root3-odd":
        lam0 = _CANON_3[cls.i]
        mu0 = _partner(lam + al[3], lam0)
    elif fam == "P" and cls.tag == "atyp2-root3-even":
        lam0 = Weight(1, 1)  # rho, typical
        mu0 = _partner(lam + 2 * al[3], lam0)
    elif fam == "K":
        j = cls.i  # odd index of the K weight
        i = 3 - j
        lam0 = _CANON_4[i]
        mu0 = _partner(lam + al[j], lam0)
    elif fam == "R":
        j = label.variant or 1
        i = 3 - j
        lam0 = _CANON_4[i]
        mu0 = _partner(lam + al[j] + al[3], lam0)
    elif fam == "S":
        lam0 = _CANON_4[3]
        mu0 = _partner(lam, lam0)
    elif fam == "Q":
        i = cls.i
        ip = 3 - i
        lam0 = _CANON_3[ip]
        mu0 = _partner(lam + al[i], lam0)
    else:
        raise ValueError(f"no recipe needed for {label!r}")
    expr = tensor_rule(ModuleLabel("L", lam0), ModuleLabel("L", mu0))
    assert any(l.family == fam and l.weight == lam for l, _ in expr), (
        f"recipe failure: {label!r} not in {expr!r}"
    )
    return lam0, mu0, expr, label
