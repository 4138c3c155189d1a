"""Module structure analysis: composition factors, radical/socle series,
Loewy diagrams with arrows, reference copies of the named indecomposables,
and direct-sum verification certificates.

Submodules of a WeightRep are handled as graded subspaces
{Weight: [block vectors]} in the coordinates of the ambient module.

Every Hom space computed here spins the small side: `hom_space(A, B)`
spins A, and A is always an irreducible or a reference module, never the
module under study.  The socle is the sum of the images of maps L -> V, the
radical is read through the dual module's socle, rad V = (soc V^#)^perp,
and a decomposition is certified by maps X -> t alone.

The memo dicts (`_IRR_CACHE`, `_CHAIN_CACHE`, `_REF_CACHE`) each keep their
`CACHE_SIZE` most recently used entries.
"""

import math

from .exact import CycNum, InternalInconsistency
from .linalg import nullspace
from .weights import classify
from .algebra import (
    dual_rep,
    echelon_basis,
    express_in_basis,
    graded_echelons,
    sub_rep,
    quotient_rep,
    tensor_action,
)
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


# Entries kept by each memo dict.  The Loewy diagrams of 18 modules (about
# 50 irreducibles) fit well inside it; longer use evicts the least recent.
CACHE_SIZE = 128


def _memo(cache, key, build):
    """cache[key], from build() on a miss.  The dict is kept in order of
    last use, and its least recently used entry goes once it holds
    CACHE_SIZE entries."""
    if key in cache:
        value = cache.pop(key)
    else:
        value = build()
        if len(cache) >= CACHE_SIZE:
            del cache[next(iter(cache))]
    cache[key] = value
    return value


_IRR_CACHE = {}


def _irr_cache(order):
    return lambda w: _memo(_IRR_CACHE, (w, order), lambda: irreducible(w, order))


def radical_subspace(v, irr=None):
    """rad V = (soc V^#)^perp, for V^# = dual_rep(V).

    V^# has the weights of V, and its basis at each weight is the dual
    basis, with every generator acting by a scaled transpose.  So a graded
    subspace W of V is a submodule exactly when its annihilator W^perp is a
    submodule of V^#, and the maximal submodules of V are the annihilators
    of the simple submodules of V^#.  Their intersection rad V is therefore
    the annihilator of soc V^#, which `socle_subspace` finds by spinning the
    irreducibles alone.  Each weight's basis is the `nullspace` of the socle
    vectors there: the reduced echelon basis of the annihilator, the same
    basis that the kernels of all maps V -> L give.
    """
    irr = irr or _irr_cache(v.order)
    soc = socle_subspace(dual_rep(v), irr)
    out = {}
    for lam in v.weights_sorted():
        basis = nullspace(soc.get(lam, ()), v.dims[lam], v.zero())
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
    return _memo(_CHAIN_CACHE, id(v), lambda: (v, _radical_chain(v)))[1]


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
    return _memo(_REF_CACHE, key, lambda: _build_reference(label, order))


def _build_reference(label, order):
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
    return out


# -- decomposition verification ---------------------------------------


def verify_decomposition(t, expr, order=None):
    """Certify that the module t is isomorphic to the direct sum `expr`.

    The characters must be equal, so dim t = sum m dim X, and a surjective
    module map from the sum of the X^m onto t is an isomorphism.  The
    certificate is such a map, built from maps X -> t alone.  For a summand
    X of multiplicity m, with basis h_0 .. h_{d-1} of Hom(X, t), attempt
    s = 1, 2, ... takes the m combinations sum_i x^i h_i at the points
    x = s (first copy) and x = (s+1)^(d^k) (copy k >= 1), so every
    coefficient is a nonzero integer.  It passes when the images of all
    combinations, over all summands, span every weight space of t.

    A false claim fails every attempt, and VerificationFailure is raised
    after attempt 1 + sum d^m.  A true claim passes before that.  Write
    t = sum X^m with the X pairwise non-isomorphic indecomposables; End(X)
    is local, and acts on the one-dimensional top weight space of X by
    scalars, so it is the ground field modulo its radical.  Maps between
    different summands lie in the radical of the category, so the combined
    map is invertible exactly when, for each X, the m x m matrix V R is:
    R (d x m, rank m) holds the classes of the h_i modulo the radical, V
    (m x d) the coefficients x_k^i.  By Cauchy-Binet, det(V R) is a nonzero
    polynomial in independent x_0 .. x_{m-1}, of degree below d in each.
    With u = s + 1 it becomes sum_a P_a(u - 1) u^(d N_a), deg P_a < d, the
    N_a distinct (base-d digits): nonzero in s, of degree below d^m.  So
    fewer than sum d^m attempts fail; for m = 1, sum d + 1 points suffice.

    Returns a report: "summands" lists (label, m, dim Hom(X, t)), and
    "attempts" the number of attempts used.
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
    into = []
    for (lbl, m), ref in zip(expr, refs):
        maps = hom_space(ref.embed(common), t)
        if len(maps) < m:
            raise VerificationFailure(
                f"{lbl!r}: {len(maps)} maps into the module, below multiplicity {m}"
            )
        into.append((m, maps))
        report["summands"].append((repr(lbl), m, len(maps)))
    bound = 1 + sum(len(maps) ** m for m, maps in into)
    for s in range(1, bound + 1):
        images = {}
        for m, maps in into:
            d = len(maps)
            for x in [s] + [(s + 1) ** (d**k) for k in range(1, m)]:
                coeffs = [CycNum.from_rat(x**i, common) for i in range(d)]
                for lam, col in image_columns(_combination(maps, coeffs, t.zero())):
                    images.setdefault(lam, []).append(col)
        spans = graded_echelons(t, images)
        if all(lam in spans and spans[lam].rank == n for lam, n in t.dims.items()):
            report["attempts"] = s
            report["spanned"] = True
            return report
    raise VerificationFailure(f"no combination of the maps into the module spans it ({bound} tried)")


def _combination(maps, coeffs, zero):
    """The module map sum_i coeffs[i] maps[i], block by block."""
    out = {}
    for lam, blk in maps[0].items():
        acc = [[zero] * len(blk[0]) for _ in blk]
        for h, c in zip(maps, coeffs):
            for arow, hrow in zip(acc, h[lam]):
                for j, x in enumerate(hrow):
                    if x:
                        arow[j] = arow[j] + c * x
        out[lam] = acc
    return out
