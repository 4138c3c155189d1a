"""Every stated Loewy diagram, drawn from the one shape table in `rules`,
against the hand-written arrow lists and per-module shapes it replaces,
kept here as a test-local reference: the quantum diagrams and characters,
the stated coset, affine and octuplet diagrams, and the transported ones."""

import json
from fractions import Fraction

from qsl3 import kl, rules
from qsl3.kl import (
    _LINE_INDEX,
    _OCT_COMPOSITE_BASE,
    AffineLabel,
    CosetLabel,
    _oct_at,
    atypical_lines,
    twist,
)
from qsl3.repmod import Character, irreducible_character, verma_character
from qsl3.rules import SHAPES, LoewyDiagram, ModuleLabel, _mklayer
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
    classify,
    phi,
    phi_inv,
)

HALF, H32 = Fraction(1, 2), Fraction(3, 2)


# -- the reference: the diagrams as the parent wrote them ---------------


def ref_static_loewy(label):
    """The parametric Loewy diagram of the cited figure, instantiated."""
    lam = label.weight
    cls = classify(lam)
    L = lambda w: ModuleLabel("L", w)
    al = ALPHA
    if label.family in ("L",) or (label.family in ("M", "P") and cls.tag == "typical"):
        return LoewyDiagram([_mklayer([L(lam)])], set())
    if label.family == "M":
        if cls.tag == "atyp1":
            i = cls.i
            layers = [[L(lam)], [L(lam - al[i])]]
            arrows = {(1, repr(L(lam)), repr(L(lam - al[i])), "other")}
        elif cls.tag == "atyp2-root3-odd":
            i = cls.i
            t, b = L(lam), L(lam - al[3])
            m1, m2 = L(lam - al[i]), L(lam + al[i] - 2 * al[3])
            layers = [[t], [m1, m2], [b]]
            arrows = {
                (1, repr(t), repr(m1), "other"), (1, repr(t), repr(m2), "other"),
                (2, repr(m1), repr(b), "other"), (2, repr(m2), repr(b), "other"),
            }
        else:
            t, b = L(lam), L(lam - 2 * al[3])
            m1, m2 = L(lam - al[1]), L(lam - al[2])
            layers = [[t], [m1, m2], [b]]
            arrows = {
                (1, repr(t), repr(m1), "other"), (1, repr(t), repr(m2), "other"),
                (2, repr(m1), repr(b), "other"), (2, repr(m2), repr(b), "other"),
            }
        return LoewyDiagram([_mklayer(x) for x in layers], arrows)
    if label.family == "P":
        return ref_static_proj(lam, cls)
    if label.family == "Q":
        assert cls.tag == "atyp2-root3-odd", "Q requires a 3-dim head weight"
        i = cls.i
        t = L(lam)
        mids = [L(lam + al[i]), L(lam - al[i]), L(lam + al[i] - 2 * al[3])]
        arrows = set()
        for m in mids:
            arrows.add((1, repr(t), repr(m), "other"))
            arrows.add((2, repr(m), repr(t), "other"))
        return LoewyDiagram([_mklayer([t]), _mklayer(mids), _mklayer([t])], arrows)
    if label.family == "K":
        assert cls.tag == "atyp2-root3-odd", "K requires a 3-dim head weight"
        i = cls.i
        t1, t2 = L(lam), L(lam - al[3])
        mids = [L(lam + al[i]), L(lam - al[i]), L(lam + al[i] - 2 * al[3]), L(lam - al[i] - 2 * al[3])]
        arrows = set()
        for m in (mids[1], mids[2]):
            arrows.add((1, repr(t1), repr(m), "other"))
            arrows.add((1, repr(t2), repr(m), "other"))
            arrows.add((2, repr(m), repr(t1), "other"))
            arrows.add((2, repr(m), repr(t2), "other"))
        arrows.add((1, repr(t1), repr(mids[0]), "other"))
        arrows.add((2, repr(mids[0]), repr(t1), "other"))
        arrows.add((1, repr(t2), repr(mids[3]), "other"))
        arrows.add((2, repr(mids[3]), repr(t2), "other"))
        return LoewyDiagram([_mklayer([t1, t2]), _mklayer(mids), _mklayer([t1, t2])], arrows)
    if label.family == "R":
        assert cls.tag == "atyp2-root3-even", "R requires a 1-dim head weight"
        j = label.variant or 1
        t = L(lam)
        mids = [L(lam + al[j] + al[3]), L(lam - al[j])]
        arrows = set()
        for m in mids:
            arrows.add((1, repr(t), repr(m), "other"))
            arrows.add((2, repr(m), repr(t), "other"))
        return LoewyDiagram([_mklayer([t]), _mklayer(mids), _mklayer([t])], arrows)
    if label.family == "S":
        assert cls.tag == "atyp2-root3-even", "S requires 1-dim-class weight"
        t1, t2 = L(lam - al[1]), L(lam - al[2])
        m_a, m_b = L(lam - 2 * al[1]), L(lam - 2 * al[2])
        m_c, m_d = L(lam), L(lam - 2 * al[3])
        arrows = set()
        for m in (m_c, m_d):
            arrows.add((1, repr(t1), repr(m), "other"))
            arrows.add((1, repr(t2), repr(m), "other"))
            arrows.add((2, repr(m), repr(t1), "other"))
            arrows.add((2, repr(m), repr(t2), "other"))
        arrows.add((1, repr(t1), repr(m_a), "other"))
        arrows.add((2, repr(m_a), repr(t1), "other"))
        arrows.add((1, repr(t2), repr(m_b), "other"))
        arrows.add((2, repr(m_b), repr(t2), "other"))
        return LoewyDiagram(
            [_mklayer([t1, t2]), _mklayer([m_a, m_c, m_d, m_b]), _mklayer([t1, t2])], arrows
        )
    raise ValueError(f"no static diagram for {label!r}")


def ref_static_proj(lam, cls):
    L = lambda w: ModuleLabel("L", w)
    al = ALPHA
    if cls.tag == "atyp1":
        i = cls.i
        t, b = L(lam), L(lam)
        lft, rgt = L(lam - al[i]), L(lam + al[i])
        layers = [[t], [lft, rgt], [b]]
        arrows = {
            (1, repr(t), repr(lft), "standard"),
            (1, repr(t), repr(rgt), "costandard"),
            (2, repr(lft), repr(b), "costandard"),
            (2, repr(rgt), repr(b), "standard"),
        }
        return LoewyDiagram([_mklayer(x) for x in layers], arrows)
    if cls.tag == "atyp2-root3-odd":
        i = cls.i
        n1 = L(lam)
        n21, n22, n23 = L(lam + al[i]), L(lam - al[i]), L(lam + al[i] - 2 * al[3])
        n31, n32 = L(lam + al[3]), L(lam + 2 * al[i] - al[3])
        n33, n34 = L(lam), L(lam - al[3])
        n41, n42, n43 = n21, n22, n23
        n5 = L(lam)
        layers = [[n1], [n21, n22, n23], [n31, n32, n33, n34], [n41, n42, n43], [n5]]
        red = [
            (1, n1, n22), (1, n1, n23), (2, n22, n34), (2, n23, n34),
            (2, n21, n32), (2, n21, n33), (3, n32, n43), (3, n33, n43),
            (3, n31, n41), (3, n31, n42), (4, n41, n5), (4, n42, n5),
        ]
        blue = [
            (1, n1, n21), (2, n21, n31), (2, n22, n31), (2, n23, n32), (2, n23, n33),
            (3, n32, n41), (3, n33, n41), (3, n34, n42), (3, n34, n43), (4, n43, n5),
        ]
        green = [(2, n22, n33), (3, n33, n42)]
        arrows = (
            {(j, repr(a), repr(b), "standard") for j, a, b in red}
            | {(j, repr(a), repr(b), "costandard") for j, a, b in blue}
            | {(j, repr(a), repr(b), "other") for j, a, b in green}
        )
        return LoewyDiagram([_mklayer(x) for x in layers], arrows)
    # 48-dimensional projective; the four middle copies of L(lam) are
    # collapsed into a single multiplicity-4 node, as in the source figure
    n1 = L(lam)
    n21, n22 = L(lam + al[2] + al[3]), L(lam + al[1] + al[3])
    n23, n24 = L(lam + al[2]), L(lam + al[1])
    n25, n26 = L(lam - al[1]), L(lam - al[2])
    n31, n32, n33 = L(lam + 2 * al[3]), L(lam + 2 * al[2]), L(lam + 2 * al[1])
    n34 = L(lam)  # multiplicity 4, collapsed
    n35, n36, n37 = L(lam - 2 * al[1]), L(lam - 2 * al[2]), L(lam - 2 * al[3])
    n5 = L(lam)
    layers = [
        [n1],
        [n21, n22, n23, n24, n25, n26],
        [n31, n32, n33, (n34, 4), n35, n36, n37],
        [n21, n22, n23, n24, n25, n26],
        [n5],
    ]
    red = [
        (1, n1, n25), (1, n1, n26), (2, n25, n37), (2, n26, n37),
        (2, n21, n32), (2, n21, n34), (3, n32, n23), (3, n34, n23),
        (2, n22, n33), (2, n22, n34), (3, n33, n24), (3, n34, n24),
        (2, n23, n34), (2, n23, n35), (3, n34, n25), (3, n35, n25),
        (2, n24, n34), (2, n24, n36), (3, n34, n26), (3, n36, n26),
        (3, n31, n21), (3, n31, n22), (4, n21, n5), (4, n22, n5),
    ]
    blue = [
        (1, n1, n21), (1, n1, n22), (2, n21, n31), (2, n22, n31),
        (2, n23, n32), (3, n32, n21), (3, n34, n21),
        (2, n24, n33), (3, n33, n22), (3, n34, n22),
        (2, n25, n34), (2, n25, n35), (3, n35, n23),
        (2, n26, n34), (2, n26, n36), (3, n36, n24),
        (3, n37, n25), (3, n37, n26), (4, n25, n5), (4, n26, n5),
    ]
    green = [(1, n1, n23), (1, n1, n24), (4, n23, n5), (4, n24, n5)]
    arrows = (
        {(j, repr(a), repr(b), "standard") for j, a, b in red}
        | {(j, repr(a), repr(b), "costandard") for j, a, b in blue}
        | {(j, repr(a), repr(b), "other") for j, a, b in green}
    )
    return LoewyDiagram([_mklayer(x) for x in layers], arrows)


def ref_static_char(label):
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
    diag = ref_static_loewy(label)
    ch = Character({})
    for layer in diag.layers:
        for lbl, m in layer:
            ch = ch + m * irreducible_character(lbl.weight)
    return ch


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


def ref_coset_static_loewy(c):
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
    h3 = Fraction(3, 2) * OMEGA3
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


def ref_affine_static_loewy(a):
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


def ref_oct_static_loewy(l):
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


# -- the grid -----------------------------------------------------------

# one or more weights of every typicality class, each moved over 5 x 5
# root-lattice shifts (a shift changes the class of some of them)
BASES = [
    Weight(Fraction(1, 3), Fraction(1, 5)), Weight(1, 1), Weight(0, -HALF), Weight(-HALF, 0),
    Weight(-HALF, -HALF), Weight(HALF, 0), Weight(0, 1), Weight(1, 0), Weight(0, 0),
]
SHIFTS = [a * ALPHA1 + b * ALPHA2 for a in range(-2, 3) for b in range(-2, 3)]
LINES = {1: (-H32 * OMEGA1, ALPHA1), 2: (-H32 * OMEGA1, ALPHA3), 3: (-H32 * OMEGA3, ALPHA2)}
LINE_POINTS = (Fraction(1, 5), Fraction(2, 7), Fraction(3, 5), Fraction(6, 5), Fraction(-4, 7))


def quantum_labels():
    out = []
    for base in BASES:
        for shift in SHIFTS:
            w = base + shift
            tag = classify(w).tag
            out += [ModuleLabel(f, w) for f in "LMP"]
            if tag == "atyp2-root3-odd":
                out += [ModuleLabel(f, w) for f in "KQ"]
            if tag == "atyp2-root3-even":
                out += [ModuleLabel("R", w, variant=v) for v in (1, 2)] + [ModuleLabel("S", w)]
    return out


def coset_labels():
    out = []
    for base, step in LINES.values():
        for t in LINE_POINTS:
            out += [CosetLabel("P16", base + t * step), CosetLabel("I4", base + t * step)]
    for shift in SHIFTS:
        out += [CosetLabel(f, -HALF * RHO + shift) for f in ("P24", "P24bar", "I3", "I3bar")]
        out += [CosetLabel(f, shift) for f in ("P48", "I1")]
        out.append(CosetLabel("I8", Weight(Fraction(1, 3), Fraction(1, 5)) + shift))
    return out


def affine_labels():
    out = [AffineLabel.make("PE", "", -H32 * OMEGA1 + t * ALPHA1) for t in LINE_POINTS]
    return out + [AffineLabel.make("PL"), AffineLabel.make("PVac")]


def oct_labels():
    fams = ("Q9oct", "Q9barOct", "P24oct", "P24barOct", "P48oct")
    return [_oct_at(fam, k) for fam in fams for k in (0, 1, 2)]


def dump(diag):
    return json.dumps(diag.to_json()), diag.to_dot(name="d")


def char_dump(ch):
    return sorted((repr(w), m) for w, m in ch.terms.items())


# -- the tests ----------------------------------------------------------


def test_quantum_diagrams_and_characters_equal_the_reference():
    labels = quantum_labels()
    assert {l.family for l in labels} == set(rules.FAMILIES)
    for lbl in labels:
        assert dump(rules.static_loewy(lbl)) == dump(ref_static_loewy(lbl)), (lbl, lbl.variant)
        assert char_dump(rules.static_char(lbl)) == char_dump(ref_static_char(lbl)), lbl


def test_stated_coset_affine_and_octuplet_diagrams_equal_the_reference():
    for new, ref, labels in (
        (kl.coset_static_loewy, ref_coset_static_loewy, coset_labels()),
        (kl.affine_static_loewy, ref_affine_static_loewy, affine_labels()),
        (kl.oct_static_loewy, ref_oct_static_loewy, oct_labels()),
    ):
        for lbl in labels:
            assert dump(new(lbl)) == dump(ref(lbl)), lbl


def test_transported_diagrams_equal_the_reference(monkeypatch):
    cases = (
        [(kl.coset_loewy, l) for l in coset_labels()]
        + [(kl.affine_loewy, a) for a in affine_labels()]
        + [(kl.oct_loewy_transport, o) for o in oct_labels()]
    )
    new = [dump(fn(lbl)) for fn, lbl in cases]
    monkeypatch.setattr(kl, "static_loewy", ref_static_loewy)
    assert [dump(fn(lbl)) for fn, lbl in cases] == new


def test_every_shape_arrow_joins_one_layer_to_the_next():
    for name, shape in SHAPES.items():
        for tag, pairs in shape.items():
            assert tag in ("standard", "costandard", "other"), (name, tag)
            for a, b in pairs:
                assert int(b[0]) == int(a[0]) + 1, (name, a, b)


def shape_nodes(shape):
    return {n for pairs in SHAPES[shape].values() for pair in pairs for n in pair} or {"1"}


def test_every_node_map_supplies_exactly_the_nodes_of_its_shape(monkeypatch):
    calls = []

    def recording(shape, nodes):
        calls.append((shape, set(nodes)))
        return rules_shape_diagram(shape, nodes)

    rules_shape_diagram = rules.shape_diagram
    monkeypatch.setattr(rules, "shape_diagram", recording)
    monkeypatch.setattr(kl, "shape_diagram", recording)
    for lbl in quantum_labels():
        rules.static_loewy(lbl)
    for lbl in coset_labels():
        kl.coset_static_loewy(lbl)
    for lbl in affine_labels():
        kl.affine_static_loewy(lbl)
    for lbl in oct_labels():
        kl.oct_static_loewy(lbl)
    assert {shape for shape, _ in calls} == set(SHAPES)
    for shape, names in calls:
        assert names == shape_nodes(shape), (shape, sorted(names))
