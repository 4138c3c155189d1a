"""The radical by duality and the certificate from maps into t, each against
the direct computation it replaces, kept here as a test-local reference;
and the bound on the structure memo dicts."""

import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qsl3 import structure
from qsl3.algebra import GENS, dual_rep, sub_rep, tensor_action
from qsl3.exact import CycNum
from qsl3.linalg import Echelon, nullspace, rank as mat_rank
from qsl3.repmod import hom_space, image_columns, irreducible, verma
from qsl3.rules import DecompositionExpr, ModuleLabel, static_loewy, tensor_rule
from qsl3.structure import (
    VerificationFailure,
    build_reference,
    composition_factors,
    radical_subspace,
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
        assert radical_subspace(v) == direct_radical(v)
        orders.add(v.order)
    assert {4, 8, 24} <= orders


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
