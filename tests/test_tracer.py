"""The benchmark's traced run patches qsl3 by name: every binding it wraps
must exist, and hom_space must still reach it."""

import importlib.util
from pathlib import Path

from qsl3 import exact, linalg, repmod

from conftest import W

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_traces_hom_space_and_uninstalls():
    bindings = (repmod.hom_space, repmod.generating_indices, linalg.Echelon.add,
                exact.CycNum.__mul__, exact.CycNum.inv)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        rep = repmod.irreducible(W(0, 1))
        assert len(repmod.hom_space(rep, rep)) == 1
    finally:
        tracer.uninstall()
    assert (repmod.hom_space, repmod.generating_indices, linalg.Echelon.add,
            exact.CycNum.__mul__, exact.CycNum.inv) == bindings
    metrics = tracer.metrics()
    assert metrics["repmod.hom_space.calls"][0] == 1
    assert metrics["repmod.hom_space.unknowns_sum"][0] == 1  # seen via generating_indices
    assert metrics["repmod.hom_space.result_dim_sum"][0] == 1
    assert metrics["linalg.echelon_add.calls"][0] > 0


def test_tracer_counts_an_inverse_as_one_inv_and_no_product():
    x = exact.CycNum.zeta(24) + exact.CycNum.zeta(24, 5) * 3 - 2
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        y = x.inv()
    finally:
        tracer.uninstall()
    assert x * y == 1
    metrics = tracer.metrics()
    assert metrics["exact.inv.calls"][0] == 1
    assert all(metrics[f"exact.mul.calls.o{o}"][0] == 0 for o in (4, 8, 12, 24))
    assert metrics["exact.add.calls"][0] == metrics["exact.sub.calls"][0] == 0
