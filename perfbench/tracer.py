"""Per-layer tracing of qsl3 for the traced benchmark run.

While installed, a Tracer replaces the public functions of each layer with
timing wrappers.  Every module-level binding of a wrapped function is
replaced, not only the defining one: `structure` imports `hom_space` by
name, so patching `repmod.hom_space` alone would miss its calls.  The
CycNum operators are replaced on the class, aliases (`__rmul__`,
`__radd__`) included, so `a * b` and `2 * a` are both seen.  Nothing under
`src/` is changed; `uninstall` puts every original binding back.

Self time is a span's duration minus the time covered by its child spans;
spans nest strictly in one thread, so a stack of child-time accumulators
gives it exactly.  The scalar operators and `Echelon.add` run up to
hundreds of thousands of times per operation, so they are aggregated
(counts and self time) instead of being kept as span records; every other
wrapped call is kept as a span of the current operation, with its parent,
and written out at the end of the run.
"""

import json
import time
from collections import defaultdict
from fractions import Fraction

# (module, function) pairs traced as spans, in the layer order of the
# ROADMAP: linalg, algebra + repmod, structure, rules, kl, qseries.
SPAN_FUNCTIONS = (
    ("linalg", "nullspace"),
    ("linalg", "invert"),
    ("repmod", "verma"),
    ("repmod", "irreducible"),
    ("repmod", "hom_space"),
    ("algebra", "tensor_action"),
    ("algebra", "sub_rep"),
    ("algebra", "quotient_rep"),
    ("structure", "radical_chain"),
    ("structure", "socle_chain"),
    ("structure", "loewy"),
    ("structure", "build_reference"),
    ("structure", "verify_decomposition"),
    ("rules", "tensor_rule"),
    ("rules", "static_loewy"),
    ("kl", "grothendieck_check"),
    ("kl", "coset_loewy"),
    ("kl", "affine_loewy"),
    ("kl", "oct_fuse"),
    ("qseries", "standard_char_identity"),
)

# functions whose result, when the same object was returned before, is a
# cache hit (build_reference memoises by label, radical_chain by module)
CACHED = ("structure.build_reference", "structure.radical_chain")

_EXACT_OPS = {
    "__mul__": "mul", "__rmul__": "mul",
    "__add__": "add", "__radd__": "add",
    "__sub__": "sub", "__rsub__": "sub",
    "inv": "inv",
}
ORDERS = (4, 8, 12, 24)


def qsl3_modules():
    """The qsl3 package modules, by short name."""
    from qsl3 import algebra, exact, kl, linalg, qseries, repmod, rules, structure, weights

    return {
        "exact": exact, "linalg": linalg, "weights": weights, "algebra": algebra,
        "repmod": repmod, "structure": structure, "rules": rules, "kl": kl,
        "qseries": qseries,
    }


class _Frame:
    __slots__ = ("child", "span_id", "gens")

    def __init__(self, span_id):
        self.child = 0.0         # time covered by child spans
        self.span_id = span_id   # index in the operation's span list, or None
        self.gens = None         # generators recorded inside a hom_space frame


class Tracer:
    """Counters, self times and spans of the traced operations of one run."""

    def __init__(self):
        self._mods = qsl3_modules()
        self._stack = []
        self._patches = []              # (owner, attribute, original value)
        self._seen = defaultdict(dict)  # cached fn -> {id: result}; keeps results alive
        self._zeta = {}                 # order -> normalised zeta^k coefficient tuples
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(int)   # accepts, hits, operand classes, Hom sizes
        self.spans = []                 # per operation: [name, start, dur, self, parent]
        self.op_kinds = []

    # -- installing ----------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = self._mods
        cyc = mods["exact"].CycNum
        for attr, kind in _EXACT_OPS.items():
            self._patch(cyc, attr, self._wrap_exact(kind, getattr(cyc, attr)))
        ech = mods["linalg"].Echelon
        self._patch(ech, "add", self._wrap_echelon_add(ech.add))
        for modname, fname in SPAN_FUNCTIONS:
            orig = getattr(mods[modname], fname)
            wrapper = self._wrap_span(f"{modname}.{fname}", orig)
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, wrapper)
        gen = mods["repmod"].generating_indices
        self._patch(mods["repmod"], "generating_indices", self._wrap_generating(gen))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- operations ----------------------------------------------------

    def begin_op(self, kind):
        """Open the root span of one benchmark operation."""
        self.spans.append([])
        self.op_kinds.append(kind)
        self._stack.append(self._open("op"))
        return time.perf_counter()

    def end_op(self, t0):
        frame = self._stack.pop()
        dt = time.perf_counter() - t0
        rec = self.spans[-1][frame.span_id]
        rec[1], rec[2], rec[3] = t0, dt, dt - frame.child

    def _open(self, name):
        spans = self.spans[-1] if self.spans else None
        if spans is None:
            return _Frame(None)
        parent = next((f.span_id for f in reversed(self._stack) if f.span_id is not None), None)
        spans.append([name, 0.0, 0.0, 0.0, parent])
        return _Frame(len(spans) - 1)

    # -- wrappers ------------------------------------------------------

    def _wrap_exact(self, kind, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter
        name = f"exact.{kind}"
        classify = self._mul_operands if kind == "mul" else None

        def wrapper(*args):
            if classify is not None:
                classify(*args)
            t0 = clock()
            out = fn(*args)
            dt = clock() - t0
            calls[f"{name}.o{getattr(out, 'order', '?')}" if classify else name] += 1
            self_s[name] += dt
            if stack:
                stack[-1].child += dt
            return out
        return wrapper

    def _mul_operands(self, a, b):
        """Count a product by the cheapest class of its operands."""
        if _is_rat(a) or _is_rat(b):
            self.extra["exact.mul.rat_operand"] += 1
        elif self._is_monomial(a) or self._is_monomial(b):
            self.extra["exact.mul.monomial_operand"] += 1

    def _is_monomial(self, x):
        """x = r * zeta^k for a rational r and some k."""
        order = getattr(x, "order", None)
        if order is None:
            return False
        table = self._zeta.get(order)
        if table is None:
            cyc = self._mods["exact"].CycNum
            table = self._zeta[order] = {
                _normalise(cyc.zeta(order, k).coeffs) for k in range(order)
            }
        return _normalise(x.coeffs) in table

    def _wrap_echelon_add(self, fn):
        def add(ech, vec):
            accepted = self._timed("linalg.echelon_add", fn, (ech, vec), {}, span=False)
            if accepted:
                self.extra["linalg.echelon_add.accepted"] += 1
            return accepted
        return add

    def _wrap_generating(self, fn):
        # only hom_space calls it: the generators fix the number of unknowns
        def generating_indices(rep):
            gens = fn(rep)
            if self._stack:
                self._stack[-1].gens = gens
            return gens
        return generating_indices

    def _wrap_span(self, name, fn):
        cached = name in CACHED
        hom = name == "repmod.hom_space"

        def wrapper(*args, **kwargs):
            out = self._timed(name, fn, args, kwargs, span=True, hom=hom)
            if cached:
                seen = self._seen[name]
                if seen.get(id(out)) is out:
                    self.extra[f"{name}.hits"] += 1
                seen[id(out)] = out
            return out
        return wrapper

    def _timed(self, name, fn, args, kwargs, span, hom=False):
        frame = self._open(name) if span else _Frame(None)
        stack = self._stack
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1].child += dt
            self_dt = dt - frame.child
            self.calls[name] += 1
            self.self_s[name] += self_dt
            if frame.span_id is not None:
                rec = self.spans[-1][frame.span_id]
                rec[1], rec[2], rec[3] = t0, dt, self_dt
        if hom:
            b = args[1]
            self.extra["repmod.hom_space.unknowns"] += sum(
                b.dims.get(lam, 0) for lam, _k in (frame.gens or ())
            )
            self.extra["repmod.hom_space.result_dim"] += len(out)
        return out

    # -- reporting -----------------------------------------------------

    def metrics(self):
        """Per-layer metrics: name -> (value, unit)."""
        c, s, x = self.calls, self.self_s, self.extra
        out = {}
        muls = sum(v for k, v in c.items() if k.startswith("exact.mul.o"))
        for o in ORDERS:
            out[f"exact.mul.calls.o{o}"] = (c[f"exact.mul.o{o}"], "count")
        out["exact.mul.self_s"] = (s["exact.mul"], "s")
        out["exact.mul.rat_operand_ratio"] = (_ratio(x["exact.mul.rat_operand"], muls), "ratio")
        out["exact.mul.monomial_operand_ratio"] = (
            _ratio(x["exact.mul.monomial_operand"], muls), "ratio")
        for kind in ("add", "sub", "inv"):
            out[f"exact.{kind}.calls"] = (c[f"exact.{kind}"], "count")
        out["linalg.echelon_add.calls"] = (c["linalg.echelon_add"], "count")
        out["linalg.echelon_add.accept_ratio"] = (
            _ratio(x["linalg.echelon_add.accepted"], c["linalg.echelon_add"]), "ratio")
        out["linalg.echelon_add.self_s"] = (s["linalg.echelon_add"], "s")
        for modname, fname in SPAN_FUNCTIONS:
            name = f"{modname}.{fname}"
            out[f"{name}.calls"] = (c[name], "count")
            out[f"{name}.self_s"] = (s[name], "s")
        out["repmod.hom_space.unknowns_sum"] = (x["repmod.hom_space.unknowns"], "count")
        out["repmod.hom_space.result_dim_sum"] = (x["repmod.hom_space.result_dim"], "count")
        for name in CACHED:
            out[f"{name}.hit_ratio"] = (_ratio(x[f"{name}.hits"], c[name]), "ratio")
        return out

    def write_spans(self, path):
        """One JSON line per span, times relative to the operation's start."""
        with open(path, "w") as fh:
            for op_id, (kind, spans) in enumerate(zip(self.op_kinds, self.spans)):
                base = spans[0][1] if spans else 0.0
                for span_id, (name, t0, dt, self_dt, parent) in enumerate(spans):
                    fh.write(json.dumps({
                        "op": op_id, "kind": kind, "span": span_id, "parent": parent,
                        "name": name, "start_s": t0 - base, "dur_s": dt, "self_s": self_dt,
                    }) + "\n")


def _is_rat(x):
    if isinstance(x, (int, Fraction)):
        return True
    coeffs = getattr(x, "coeffs", None)
    return coeffs is not None and not any(coeffs[1:])


def _normalise(coeffs):
    lead = next((c for c in coeffs if c), None)
    if lead is None:
        return None
    return tuple(c / lead for c in coeffs)


def _ratio(num, den):
    return num / den if den else 0.0
