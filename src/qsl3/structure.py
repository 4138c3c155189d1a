"""Module structure analysis: composition factors, radical/socle series,
Loewy diagrams with arrows, reference copies of the named indecomposables,
and direct-sum verification certificates.

Submodules of a WeightRep are handled as graded subspaces
{Weight: [block vectors]} in the coordinates of the ambient module.
"""

import math

from .exact import InternalInconsistency
from .linalg import nullspace, rank as mat_rank
from .weights import Weight, classify
from .algebra import echelon_basis, express_in_basis, sub_rep, quotient_rep, tensor_action
from .repmod import (
    Character,
    character,
    default_order,
    hom_space,
    image_columns,
    irreducible,
    irreducible_character,
    verma,
)
from .rules import ModuleLabel, LoewyDiagram, _mklayer, reference_recipe, static_char


class VerificationFailure(Exception):
    """A claimed decomposition failed its certificate."""


# -- composition factors ----------------------------------------------


def composition_factors(v):
    """Multiset of irreducible factors [(Weight, mult)] by character peeling."""
    ch = v if isinstance(v, Character) else character(v)
    rem = Character(dict(ch.terms))
    out = {}
    while rem.terms:
        w = rem.max_weight()
        if rem.terms[w] < 0:
            raise InternalInconsistency(f"negative multiplicity at {w!r}")
        out[w] = out.get(w, 0) + 1
        rem = rem - irreducible_character(w)
    return sorted(out.items(), key=lambda t: t[0].sort_key())


def _factor_weights(v):
    return [w for w, _ in composition_factors(v)]


# -- graded subspace helpers ------------------------------------------


def subspace_dim(sub):
    return sum(len(v) for v in sub.values())


_IRR_CACHE = {}


def _irr_cache(order):
    def get(w):
        key = (w, order)
        if key not in _IRR_CACHE:
            _IRR_CACHE[key] = irreducible(w, order)
        return _IRR_CACHE[key]

    return get


def radical_subspace(v, irr=None):
    """rad V = intersection of kernels of all maps V -> irreducible."""
    irr = irr or _irr_cache(v.order)
    homs = []
    for w in _factor_weights(v):
        homs.extend(hom_space(v, irr(w)))
    out = {}
    for lam in v.weights_sorted():
        rows = [r for h in homs for r in h.get(lam, ()) if any(r)]
        basis = nullspace(rows, v.dims[lam], v.zero())
        if basis:
            out[lam] = basis
    return out


def socle_subspace(v, irr=None):
    """soc V = sum of images of all maps irreducible -> V."""
    irr = irr or _irr_cache(v.order)
    images = {}
    for w in _factor_weights(v):
        L = irr(w)
        for h in hom_space(L, v):
            for lam, col in image_columns(h):
                images.setdefault(lam, []).append(col)
    return echelon_basis(v, images)


def _compose_basis(outer, inner, zero):
    """Vectors of `inner` (coords of the module whose basis is `outer`)
    re-expressed in the ambient coordinates."""
    out = {}
    for lam, vecs in inner.items():
        amb = outer.get(lam)
        if amb is None:
            raise InternalInconsistency("subspace escapes ambient support")
        res = []
        for x in vecs:
            acc = None
            for c, bv in zip(x, amb):
                if c:
                    term = [c * y for y in bv]
                    acc = term if acc is None else [p + q for p, q in zip(acc, term)]
            res.append(acc if acc is not None else [zero] * len(amb[0]))
        out[lam] = res
    return out


_CHAIN_CACHE = {}  # id(v) -> (v, chain); the strong ref keeps the id valid


def radical_chain(v):
    """[(subspace of rad^j V in V coords, rep of rad^j V)] for j = 1, 2, ...

    Stops when the radical vanishes.  Entry j-1 describes rad^j V.
    """
    hit = _CHAIN_CACHE.get(id(v))
    if hit is not None and hit[0] is v:
        return hit[1]
    chain = _radical_chain(v)
    _CHAIN_CACHE[id(v)] = (v, chain)
    return chain


def _radical_chain(v):
    irr = _irr_cache(v.order)
    chain = []
    cur, amb_basis = v, None  # amb_basis: coords of cur inside v
    while True:
        sub = radical_subspace(cur, irr)
        if not sub:
            break
        in_v = sub if amb_basis is None else _compose_basis(amb_basis, sub, v.zero())
        in_v = echelon_basis(v, in_v)
        w, basis = sub_rep(v, in_v)
        chain.append((in_v, w))
        cur, amb_basis = w, basis
    return chain


def socle_chain(v):
    """[(subspace of soc^j V in V coords)] for the ascending socle series."""
    irr = _irr_cache(v.order)
    chain = []
    cur, project = v, None
    while cur.dim:
        sub = socle_subspace(cur, irr)
        if not sub:
            raise InternalInconsistency("socle of a nonzero module vanished")
        # soc^j V is soc^{j-1} V plus the preimage of soc(V / soc^{j-1} V)
        acc = echelon_basis(v, sub) if not chain else _lift_into(v, chain[-1], project, sub)
        chain.append(acc)
        if subspace_dim(acc) == v.dim:
            break
        cur, project = quotient_rep(v, acc)
    return chain


def _lift_into(v, acc, project, sub):
    """acc (an echelon basis in v coords) plus lifts of the vectors `sub` of
    the quotient V / acc.  That quotient keeps the non-pivot coordinates of
    acc's echelon basis, so a vector lifts by placing its entries there."""
    out = {lam: list(vs) for lam, vs in acc.items()}
    for lam, vecs in sub.items():
        piv = {next(j for j, c in enumerate(row) if c) for row in acc.get(lam, ())}
        free = [j for j in range(v.dims[lam]) if j not in piv]
        for q in vecs:
            x = [v.zero()] * v.dims[lam]
            for j, c in zip(free, q):
                x[j] = c
            if project(lam, x) != list(q):
                raise InternalInconsistency("could not lift quotient vector")
            out.setdefault(lam, []).append(x)
    return echelon_basis(v, out)


def radical_layers(v):
    """Characters of rad_j V = rad^{j-1} V / rad^j V, head first."""
    chain = radical_chain(v)
    reps = [v] + [w for _, w in chain]
    layers = []
    for k in range(len(reps)):
        top = character(reps[k])
        bot = character(reps[k + 1]) if k + 1 < len(reps) else Character({})
        layers.append(top - bot)
    return layers


def socle_layers(v):
    """Characters of the socle series layers, socle (bottom) first."""
    chain = socle_chain(v)
    layers = []
    prev = Character({})
    for sub in chain:
        cur = Character({lam: len(vs) for lam, vs in sub.items()})
        layers.append(cur - prev)
        prev = cur
    top = character(v) - prev
    if top.terms:
        layers.append(top)
    return layers


def layer_factors(layer_char):
    """Factor multiset of a semisimple layer as [(label, mult)]."""
    return [
        (ModuleLabel("L", w), m) for w, m in composition_factors(layer_char)
    ]


# -- Loewy diagrams ---------------------------------------------------


def loewy(v):
    """Loewy diagram of v: radical layers plus subquotient-derived arrows.

    An arrow X -> Y between adjacent layers j, j+1 is detected on the
    two-layer subquotient M = rad^{j-1}V / rad^{j+1}V: quotient away every
    non-Y isotypic component of rad M, and count Hom(L_X, -); copies of X in
    the head that attach to Y leave the socle, lowering the count below
    mult_X (+ mult_Y when X = Y).  Arrows touching a node of multiplicity
    greater than one are tagged "unresolved".
    """
    irr = _irr_cache(v.order)
    chain = radical_chain(v)
    subspaces = [None] + [s for s, _ in chain]  # rad^0 .. rad^n, in v coords
    layers_ch = radical_layers(v)
    layers = [layer_factors(ch) for ch in layers_ch]
    arrows = set()
    for j in range(1, len(layers)):
        upper, lower = layers[j - 1], layers[j]
        mj = _two_layer_quotient(v, subspaces, j)
        bot_sub = _image_in(mj, v, subspaces[j])
        for y, my in lower:
            n, mults_seen = _strip_other_isotypics(mj, bot_sub, y.weight, irr)
            for x, mx in upper:
                hom_cnt = len(hom_space(irr(x.weight), n))
                expected_detached = mx + (my if x.weight == y.weight else 0)
                if hom_cnt < expected_detached:
                    tag = "unresolved" if (mx > 1 or my > 1) else "other"
                    arrows.add((j, repr(x), repr(y), tag))
    return LoewyDiagram([_mklayer(l) for l in layers], arrows)


def _two_layer_quotient(v, subspaces, j):
    """rad^{j-1} V / rad^{j+1} V as a WeightRep (with its v-coordinate data).

    Returns (rep, project, ambient) where ambient is the sub_rep of
    rad^{j-1}V and project maps its coords onto the quotient.
    """
    if subspaces[j - 1] is None:
        amb, amb_basis = v, None
    else:
        amb, amb_basis = sub_rep(v, subspaces[j - 1])
    deep = subspaces[j + 1] if j + 1 < len(subspaces) else None
    if deep is None:
        return amb, (lambda lam, x: list(x)), (amb, amb_basis)
    # express rad^{j+1} in amb coords
    if amb_basis is None:
        deep_in = deep
    else:
        deep_in = _express_subspace(amb, amb_basis, deep, v.zero())
    q, project = quotient_rep(amb, deep_in)
    return q, project, (amb, amb_basis)


def _express_subspace(sub_rep_obj, basis, subspace, zero):
    """Rewrite v-coordinate vectors as coordinates in the sub_rep basis."""
    out = {}
    for lam, vecs in subspace.items():
        if lam not in basis:
            raise InternalInconsistency("subspace outside submodule support")
        res = []
        for x in vecs:
            c = express_in_basis(basis[lam], x, zero)
            if c is None:
                raise InternalInconsistency("subspace not inside submodule")
            res.append(c)
        out[lam] = res
    return out


def _image_in(mj_tuple, v, subspace):
    """Image of a v-coordinate subspace inside the two-layer quotient."""
    mj, project, (amb, amb_basis) = mj_tuple
    if subspace is None:
        return {}
    if amb_basis is None:
        inside = subspace
    else:
        inside = _express_subspace(amb, amb_basis, subspace, v.zero())
    out = {}
    for lam, vecs in inside.items():
        if lam not in mj.dims:
            continue
        for x in vecs:
            y = project(lam, list(x))
            if any(y):
                out.setdefault(lam, []).append(y)
    return echelon_basis(mj, out)


def _strip_other_isotypics(mj_tuple, bot_sub, keep_weight, irr):
    """Quotient the two-layer module by non-keep isotypics of its bottom."""
    mj = mj_tuple[0]
    if not bot_sub:
        return mj, None
    bot, bot_basis = sub_rep(mj, bot_sub)
    kill = {}
    for w in _factor_weights(bot):
        if w == keep_weight:
            continue
        L = irr(w)
        for h in hom_space(L, bot):
            for lam, col in image_columns(h):
                kill.setdefault(lam, []).append(col)
    if not kill:
        return mj, None
    # map kill (bot coords) back to mj coords
    kill_in_mj = _compose_basis(bot_basis, echelon_basis(bot, kill), mj.zero())
    q, _ = quotient_rep(mj, echelon_basis(mj, kill_in_mj))
    return q, None


# -- reference modules ------------------------------------------------

_REF_CACHE = {}


def build_reference(label, order=None):
    """An explicit WeightRep isomorphic to the module named by `label`."""
    if order is None:
        order = default_order(label.weight)
    key = (repr(label), getattr(label, "variant", None), order)
    if key in _REF_CACHE:
        return _REF_CACHE[key]
    lam = label.weight
    cls = classify(lam)
    if label.family == "L" or (label.family == "P" and cls.tag == "typical"):
        out = irreducible(lam, order)
    elif label.family == "M":
        out = verma(lam, order)
    else:
        lam0, mu0, expr, _ = reference_recipe(label)
        o = default_order(lam0, mu0, lam)
        o = math.lcm(o, order)
        t = tensor_action(irreducible(lam0, o), irreducible(mu0, o))
        kill = {}
        for other, mult in expr:
            if other.family == label.family and other.weight == lam:
                continue
            ref = irreducible(other.weight, o)
            for h in hom_space(ref, t):
                for lw, col in image_columns(h):
                    kill.setdefault(lw, []).append(col)
        out = quotient_rep(t, kill)[0] if kill else t
        if character(out).terms != static_char(label).terms:
            raise InternalInconsistency(f"reference for {label!r} has wrong character")
    out.label = repr(label)
    _REF_CACHE[key] = out
    return out


# -- decomposition verification ---------------------------------------


def verify_decomposition(t, expr, order=None):
    """Certify that the module t is isomorphic to the direct sum `expr`.

    Checks, exactly: (1) character equality; (2) for every summand X with
    multiplicity m, there are maps X -> t and t -> X whose pairwise
    composites have rank >= m on the (one-dimensional) top weight space of
    X, which splits off X^m by locality of End(X); (3) the images of all
    maps X -> t over all summands jointly span t.  Raises
    VerificationFailure with a reason, or returns a report dict.
    """
    report = {"summands": []}
    total = Character({})
    for lbl, m in expr:
        total = total + m * static_char(lbl)
    if character(t).terms != total.terms:
        raise VerificationFailure("character mismatch")
    refs = [build_reference(lbl, order or t.order) for lbl, _ in expr]
    common = math.lcm(t.order, *(ref.order for ref in refs))
    t = t.embed(common)
    images = {}
    for (lbl, m), ref in zip(expr, refs):
        ref = ref.embed(common)
        into = hom_space(ref, t)
        onto = hom_space(t, ref)
        if len(into) < m or len(onto) < m:
            raise VerificationFailure(
                f"{lbl!r}: hom counts {len(into)}/{len(onto)} below multiplicity {m}"
            )
        top = max(ref.weights_sorted(), key=Weight.sort_key)
        if ref.dims[top] != 1:
            raise InternalInconsistency(f"{lbl!r}: top weight space not one-dimensional")
        # the composites X -> t -> X on the top weight space of X
        cols = [[row[0] for row in q[top]] for q in into]
        smat = []
        for p in onto:
            (prow,) = p[top]
            row = []
            for col in cols:
                acc = t.zero()
                for x, y in zip(prow, col):
                    if x and y:
                        acc = acc + x * y
                row.append(acc)
            smat.append(row)
        r = mat_rank(smat, len(into)) if smat else 0
        if r < m:
            raise VerificationFailure(
                f"{lbl!r}: split rank {r} below multiplicity {m}"
            )
        for q in into:
            for lam, col in image_columns(q):
                images.setdefault(lam, []).append(col)
        report["summands"].append((repr(lbl), m, len(into), len(onto), r))
    span = echelon_basis(t, images)
    for lam, d in t.dims.items():
        if len(span.get(lam, ())) != d:
            raise VerificationFailure(f"images do not span weight {lam!r}")
    report["spanned"] = True
    return report
