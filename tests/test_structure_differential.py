"""The radical and Loewy engines and the certificate from maps into t, each
against the direct computation it replaces, kept here as a test-local
reference; and the bound on the structure memo dicts."""

import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qsl3 import structure
from qsl3.algebra import GENS, dual_rep, echelon_basis, express_in_basis, quotient_rep, sub_rep, tensor_action
from qsl3.exact import CycNum
from qsl3.linalg import Echelon, nullspace, rank as mat_rank
from qsl3.repmod import Character, character, hom_space, image_columns, irreducible, verma
from qsl3.rules import DecompositionExpr, ModuleLabel, static_loewy, tensor_rule
from qsl3.structure import (
    VerificationFailure,
    build_reference,
    composition_factors,
    layer_factors,
    loewy,
    radical_chain,
    radical_layers,
    socle_chain,
    socle_layers,
    socle_subspace,
    verify_decomposition,
)
from qsl3.weights import Weight

from conftest import TAGS, TENSOR_BRANCHES, W, branch_pairs, from_indices, sample_class

HALF = Fraction(1, 2)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


# -- the radical --------------------------------------------------------


def direct_radical(v):
    """rad V as the intersection of the kernels of all maps V -> L, over
    the composition factors L of V."""
    homs = [h for w, _ in composition_factors(v) for h in hom_space(v, irreducible(w, v.order))]
    out = {}
    for lam in v.weights_sorted():
        rows = [r for h in homs for r in h.get(lam, ()) if any(r)]
        basis = nullspace(rows, v.dims[lam], v.zero())
        if basis:
            out[lam] = basis
    return out


def generated_submodule(v, lam, vec):
    """The submodule of v generated by one vector, as a WeightRep."""
    span = {mu: Echelon(d) for mu, d in v.dims.items()}
    span[lam].add(vec)
    queue = [(lam, vec)]
    while queue:
        mu, x = queue.pop()
        for g in GENS:
            img = v.apply_block(g, mu, x)
            if img is not None and any(img[1]) and span[img[0]].add(list(img[1])):
                queue.append(img)
    return sub_rep(v, {mu: e.basis() for mu, e in span.items() if e.rank})[0]


def random_submodules(n, seed):
    """Submodules of random tensor products, each generated by a random
    vector with small integer entries in a random weight space."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        lam = sample_class(rng.choice(TAGS[1:]), 1, seed=rng.randrange(10**6))[0]
        mu = sample_class(rng.choice(TAGS[2:]), 1, seed=rng.randrange(10**6))[0]
        t = tensor_action(irreducible(lam), irreducible(mu))
        wt = rng.choice(t.weights_sorted())
        vec = [CycNum.from_rat(rng.randrange(-3, 4), t.order) for _ in range(t.dims[wt])]
        if any(vec):
            sub = generated_submodule(t, wt, vec)
            if sub.dim < t.dim:
                out.append(sub)
    return out


REFERENCES = [
    ModuleLabel("P", W(0, -HALF)),
    ModuleLabel("P", W(0, 1)),
    ModuleLabel("P", W(0, 0)),
    ModuleLabel("K", W(1, 0)),
    ModuleLabel("R", W(0, 0), variant=2),
    ModuleLabel("S", W(0, 0)),
    ModuleLabel("Q", W(0, 1)),
]


def radical_cases():
    vermas = [verma(lam) for tag in TAGS[1:] for lam in sample_class(tag, 2, seed=60)]
    refs = [build_reference(label) for label in REFERENCES]
    subs = random_submodules(4, seed=61)
    cases = vermas + refs + subs
    # every module again over Q(zeta_24), where the duality must still hold
    return cases + [v.embed(24) for v in vermas[::2] + refs[:2] + subs[:2]]


def test_radical_by_duality_equals_the_kernels_of_maps_to_irreducibles():
    orders = set()
    for v in radical_cases():
        chain = radical_chain(v)
        assert (chain[0] if chain else {}) == echelon_basis(v, direct_radical(v))
        orders.add(v.order)
    assert {4, 8, 24} <= orders


# -- the radical series and the arrows, as before one chain engine -------


def iterated_radical(v):
    """rad V as the annihilator of soc V^#, one module at a time."""
    soc = socle_subspace(dual_rep(v))
    out = {}
    for lam in v.weights_sorted():
        basis = nullspace(soc.get(lam, ()), v.dims[lam], v.zero())
        if basis:
            out[lam] = basis
    return out


def compose_basis(outer, inner, zero):
    """Vectors of `inner`, in the coordinates of the module whose basis is
    `outer`, re-expressed in the ambient coordinates."""
    out = {}
    for lam, vecs in inner.items():
        res = []
        for x in vecs:
            acc = [zero] * len(outer[lam][0])
            for c, bv in zip(x, outer[lam]):
                acc = [p + c * q for p, q in zip(acc, bv)]
            res.append(acc)
        out[lam] = res
    return out


def reference_radical_chain(v):
    """[rad^1 V, rad^2 V, ...]: the radical of the sub_rep of each term,
    composed back to V coordinates."""
    chain = []
    cur, basis = v, None
    while True:
        sub = iterated_radical(cur)
        if not sub:
            return chain
        in_v = echelon_basis(v, sub if basis is None else compose_basis(basis, sub, v.zero()))
        chain.append(in_v)
        cur, basis = sub_rep(v, in_v)


def reference_layers(v, chain):
    """Radical layers, head first, from the characters of the terms."""
    chars = [character(v)] + [character(sub_rep(v, sub)[0]) for sub in chain] + [Character({})]
    return [top - bot for top, bot in zip(chars, chars[1:])]


def reference_socle_layers(v):
    layers, prev = [], Character({})
    for sub in socle_chain(v):
        cur = Character({lam: len(vs) for lam, vs in sub.items()})
        layers.append(cur - prev)
        prev = cur
    return layers


def in_coords(basis, sub, zero):
    return {lam: [express_in_basis(basis[lam], x, zero) for x in vecs] for lam, vecs in sub.items()}


def reference_arrows(v, chain):
    """The arrows of the Loewy diagram, each lower factor Y on its own: the
    two-layer module M, its bottom as a sub_rep, and M modulo every isotypic
    component of the bottom but Y's."""
    layers = [layer_factors(ch) for ch in reference_layers(v, chain)]
    subs = [None] + chain + [None]
    arrows = set()
    for j in range(1, len(layers)):
        amb, basis = (v, None) if j == 1 else sub_rep(v, subs[j - 1])

        def inside(sub):
            return sub if basis is None else in_coords(basis, sub, v.zero())

        if subs[j + 1] is None:
            m, project = amb, lambda lam, x: list(x)
        else:
            m, project = quotient_rep(amb, inside(subs[j + 1]))
        bot = {}
        for lam, vecs in inside(subs[j]).items():
            for x in vecs:
                q = project(lam, x)
                if any(q):
                    bot.setdefault(lam, []).append(q)
        bot = echelon_basis(m, bot)
        for y, my in layers[j]:
            bot_rep, bot_basis = sub_rep(m, bot)
            kill = {}
            for w, _ in composition_factors(bot_rep):
                if w != y.weight:
                    for h in hom_space(irreducible(w, v.order), bot_rep):
                        for lam, col in image_columns(h):
                            kill.setdefault(lam, []).append(col)
            n = m
            if kill:
                kill = compose_basis(bot_basis, echelon_basis(bot_rep, kill), v.zero())
                n = quotient_rep(m, echelon_basis(m, kill))[0]
            for x, mx in layers[j - 1]:
                if len(hom_space(irreducible(x.weight, v.order), n)) < mx + (my if x.weight == y.weight else 0):
                    arrows.add((j, repr(x), repr(y), "unresolved" if (mx > 1 or my > 1) else "other"))
    return arrows


def loewy_slot_modules(monkeypatch, seed):
    """The reference modules of the 17 loewy-structure slots of one seed."""
    workloads = load_workloads(monkeypatch)
    (shift,) = workloads.lattice_shift(random.Random(f"loewy-structure|{seed}"), 1)
    return [
        build_reference(ModuleLabel(family, workloads.shifted(base, shift), variant=variant))
        for _, family, base, variant in workloads.LOEWY_SLOTS
    ]


def assert_one_engine_matches_the_reference(v):
    chain = reference_radical_chain(v)
    assert radical_chain(v) == chain
    layers = [layer.terms for layer in reference_layers(v, chain)]
    assert [layer.terms for layer in radical_layers(v)] == layers
    assert [layer.terms for layer in socle_layers(v)] == [layer.terms for layer in reference_socle_layers(v)]
    diagram = loewy(v)
    assert diagram.layer_lists() == [
        sorted((repr(lbl), m) for lbl, m in layer_factors(Character(terms))) for terms in layers
    ]
    assert diagram.arrows == reference_arrows(v, chain)


def test_one_chain_engine_matches_the_iterated_radical_on_the_radical_cases():
    orders = set()
    for v in radical_cases():
        assert_one_engine_matches_the_reference(v)
        orders.add(v.order)
    assert {4, 8, 24} <= orders


@pytest.mark.parametrize("seed", [0, 1])
def test_one_chain_engine_matches_the_iterated_radical_on_the_loewy_slots(monkeypatch, seed):
    modules = loewy_slot_modules(monkeypatch, seed)
    assert len(modules) == 17
    for v in modules:
        assert_one_engine_matches_the_reference(v)


# -- the certificate ----------------------------------------------------


def old_certificate(t, expr):
    """The certificate that verify_decomposition replaced: maps into and
    onto each summand X, a split rank of at least m on the one-dimensional
    top weight space of X, and the images of all maps X -> t spanning t."""
    refs = [build_reference(lbl, t.order) for lbl, _ in expr]
    common = math.lcm(t.order, *(ref.order for ref in refs))
    t = t.embed(common)
    images = {}
    for (lbl, m), ref in zip(expr, refs):
        ref = ref.embed(common)
        into, onto = hom_space(ref, t), hom_space(t, ref)
        if len(into) < m or len(onto) < m:
            raise VerificationFailure(f"{lbl!r}: hom counts below multiplicity")
        top = max(ref.weights_sorted(), key=Weight.sort_key)
        assert ref.dims[top] == 1
        cols = [[row[0] for row in q[top]] for q in into]
        smat = [[sum((x * y for x, y in zip(p[top][0], col)), t.zero()) for col in cols]
                for p in onto]
        if mat_rank(smat, len(into)) < m:
            raise VerificationFailure(f"{lbl!r}: split rank below multiplicity")
        for q in into:
            for lam, col in image_columns(q):
                images.setdefault(lam, []).append(col)
    spans = structure.graded_echelons(t, images)
    if any(lam not in spans or spans[lam].rank != d for lam, d in t.dims.items()):
        raise VerificationFailure("images do not span")
    return True


def test_old_and_new_certificates_accept_every_criterion_5_pair():
    for name in sorted(TENSOR_BRANCHES):
        for lam, mu in branch_pairs(name):
            t = tensor_action(irreducible(lam), irreducible(mu))
            expr = tensor_rule(ModuleLabel("L", lam), ModuleLabel("L", mu))
            assert old_certificate(t, expr), (name, lam, mu)
            assert verify_decomposition(t, expr)["spanned"], (name, lam, mu)


def test_old_and_new_certificates_reject_the_negative_control():
    # perfbench/workloads.py::negative_control: a projective cover replaced
    # by its composition factors, same character, not isomorphic
    lam, mu = from_indices(1, HALF), from_indices(HALF, 1)
    t = tensor_action(irreducible(lam), irreducible(mu))
    ((proj, _m),) = tensor_rule(ModuleLabel("L", lam), ModuleLabel("L", mu))
    false_expr = DecompositionExpr(
        [(f, m) for layer in static_loewy(proj).layers for f, m in layer]
    )
    with pytest.raises(VerificationFailure):
        old_certificate(t, false_expr)
    with pytest.raises(VerificationFailure):
        verify_decomposition(t, false_expr)


def test_a_degenerate_first_combination_is_retried(monkeypatch):
    lam, mu = W(1, 0), W(0, 1)
    t = tensor_action(irreducible(lam), irreducible(mu))
    expr = tensor_rule(ModuleLabel("L", lam), ModuleLabel("L", mu))
    plain = verify_decomposition(t, expr)
    assert plain["attempts"] == 1

    def doubled(a, b):
        # the basis [h, -h, ...]: the all-ones first combination loses h
        maps = hom_space(a, b)
        if not maps:
            return maps
        first, *rest = maps
        negated = {k: [[-x for x in row] for row in blk] for k, blk in first.items()}
        return [first, negated] + rest

    monkeypatch.setattr(structure, "hom_space", doubled)
    report = verify_decomposition(t, expr)
    assert report["spanned"] and report["attempts"] == 2
    assert [d for _, _, d in report["summands"]] == [d + 1 for _, _, d in plain["summands"]]


def test_a_false_decomposition_fails_after_every_combination(monkeypatch):
    # the contravariant dual of a reducible Verma module has the Verma's
    # character and a map from it, whose image is only the irreducible head
    lam = sample_class("atyp1", 1, seed=62)[0]
    t = dual_rep(verma(lam))
    expr = DecompositionExpr([ModuleLabel("M", lam)])
    assert len(hom_space(verma(lam), t)) == 1
    tried = []
    real = structure.graded_echelons
    monkeypatch.setattr(structure, "graded_echelons", lambda *a: tried.append(1) or real(*a))
    with pytest.raises(VerificationFailure, match=r"\(2 tried\)"):
        verify_decomposition(t, expr)
    assert len(tried) == 2  # the bound 1 + sum d^m = 1 + 1


# -- bounded memo dicts -------------------------------------------------


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_memo_dicts_keep_the_most_recently_used(monkeypatch):
    monkeypatch.setattr(structure, "CACHE_SIZE", 2)
    cache = {}
    for key in ("a", "b", "a", "c"):
        structure._memo(cache, key, lambda: key.upper())
    assert cache == {"a": "A", "c": "C"}


def test_five_loewy_lists_stay_within_the_cache_bound(monkeypatch):
    workloads = load_workloads(monkeypatch)
    names = ("_IRR_CACHE", "_CHAIN_CACHE", "_REF_CACHE")
    for name in names:
        monkeypatch.setattr(structure, name, {})
    sizes = []
    for seed in range(5):
        for op in workloads.loewy_structure(seed):
            op.run()
        sizes.append([len(getattr(structure, name)) for name in names])
    bound = structure.CACHE_SIZE
    assert max(sizes[0]) < bound  # one benchmark list evicts nothing
    assert all(n <= bound for row in sizes for n in row)
    assert max(sizes[-1]) == bound  # five lists reach the bound
