"""End-to-end CLI tests: outputs validate against the shipped schemas."""

import json
from importlib.resources import files

import jsonschema
import pytest

from qsl3 import cli, kl
from qsl3.cli import main
from qsl3.rules import ModuleLabel

from conftest import W


def schema(name):
    return json.loads((files("qsl3") / "schemas" / f"{name}.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_classify_text_and_json(capsys):
    code, out, _ = run(capsys, "classify", "--weight", "[1,1]")
    assert code == 0 and "Typical" in out and "dim L = 8" in out
    obj = run_json(capsys, "classify", "--weight", "[0,-1/2]", "--json")
    jsonschema.validate(obj, schema("classify"))
    assert obj["tag"] == "atyp1" and obj["dim"] == 4


def test_char_outputs(capsys):
    lbl = repr(ModuleLabel("P", W(0, 1)))
    obj = run_json(capsys, "char", "--label", lbl, "--json")
    assert obj["label"] == lbl
    assert sum(m for _, m in obj["character"]) == 24


def test_verma_and_irrep_summaries(capsys):
    obj = run_json(capsys, "verma", "--weight", "[0,0]", "--json")
    assert obj["dim"] == 8
    obj = run_json(capsys, "irrep", "--weight", "[0,-1/2]", "--dump", "--json")
    assert obj["dim"] == 4 and "blocks" in obj
    code, out, _ = run(capsys, "irrep", "--weight", "[1,1]", "--dump")
    assert code == 0 and "dim = 8" in out


def test_field_order_env(capsys, monkeypatch):
    monkeypatch.setenv("QSL3_FIELD_ORDER", "24")
    obj = run_json(capsys, "irrep", "--weight", "[1,1]", "--json")
    assert obj["field_order"] == 24


def test_a_field_order_that_cannot_hold_the_weight_exits_2(capsys, monkeypatch):
    for order, weight in (("6", "[1,0]"), ("4", "[1/3,0]"), ("x", "[1,0]")):
        monkeypatch.setenv("QSL3_FIELD_ORDER", order)
        code, _, err = run(capsys, "irrep", "--weight", weight)
        assert code == 2 and "usage error" in err, (order, weight)


def test_tensor_with_verification(capsys):
    a = repr(ModuleLabel("L", W(1, 0)))
    b = repr(ModuleLabel("L", W(0, -1)))
    obj = run_json(capsys, "tensor", "--left", a, "--right", b, "--verify", "--json")
    jsonschema.validate(obj, schema("decomposition"))
    assert obj["verified"] is True
    assert obj["dim"] == 9


def test_loewy_formats(capsys):
    lbl = repr(ModuleLabel("P", W(0, 1)))
    code, out, _ = run(capsys, "loewy", "--label", lbl, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schema("loewy"))
    assert len(obj["layers"]) == 5
    code, out, _ = run(capsys, "loewy", "--label", lbl, "--format", "dot")
    assert code == 0 and out.startswith("digraph") and "->" in out
    code, out, _ = run(capsys, "loewy", "--label", lbl)
    assert code == 0 and out.startswith("layer 1:")


def test_loewy_accepts_every_label_layer(capsys):
    for lbl in ("P48[0,0]", "PL", "P24oct[1/2,1/2]"):
        code, out, _ = run(capsys, "loewy", "--label", lbl, "--format", "json")
        assert code == 0, lbl
        jsonschema.validate(json.loads(out), schema("loewy"))


def test_loewy_computed_matches_static(capsys):
    lbl = repr(ModuleLabel("M", W(0, 1)))
    code, stat, _ = run(capsys, "loewy", "--label", lbl, "--format", "json")
    assert code == 0
    code, comp, _ = run(capsys, "loewy", "--label", lbl, "--format", "json", "--computed")
    assert code == 0
    assert json.loads(stat)["layers"] == json.loads(comp)["layers"]


def test_kl_round_trip(capsys):
    obj = run_json(capsys, "kl", "to-quantum", "--label", "P48[0,0]", "--json")
    jsonschema.validate(obj, schema("label"))
    back = run_json(capsys, "kl", "from-quantum", "--label", obj["label"], "--json")
    jsonschema.validate(back, schema("label"))
    assert back["label"] == "P48[0,0]"


def test_induce(capsys):
    obj = run_json(capsys, "induce", "--coset", "I1[0,0]", "--fock", "[0,0]", "--json")
    jsonschema.validate(obj, schema("label"))
    assert obj["label"] == "Vac"


def test_fuse_grothendieck_and_full(capsys):
    obj = run_json(capsys, "fuse", "--left", "L", "--right", "c*L",
                   "--level", "grothendieck", "--json")
    jsonschema.validate(obj, schema("decomposition"))
    obj = run_json(capsys, "fuse", "--left", "L", "--right", "c*L",
                   "--level", "full", "--json")
    jsonschema.validate(obj, schema("decomposition"))
    # full-level fusion with an unnamed indecomposable result is a usage error
    code, _, err = run(capsys, "fuse", "--left", "L", "--right", "L", "--level", "full")
    assert code == 2 and "usage error" in err


def test_gfuse_check(capsys):
    code, out, _ = run(capsys, "gfuse-check", "--rule", "4", "--samples", "2",
                       "--seed", "3", "--json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schema("gfuse_report"))
    assert obj["match"] and len(obj["samples"]) == 2
    code, out, _ = run(capsys, "gfuse-check", "--rule", "9", "--samples", "1")
    assert code == 0 and "PASS" in out


def test_octuplet_commands(capsys):
    obj = run_json(capsys, "octuplet", "table", "--json")
    jsonschema.validate(obj, schema("octuplet_table"))
    assert len(obj) == 12
    obj = run_json(capsys, "octuplet", "fuse", "--left", "W3[-1/2,-1/2]",
                   "--right", "W3bar[-1/2,-1/2]", "--json")
    assert obj["terms"]
    code, out, _ = run(capsys, "octuplet", "loewy", "--label", "P48oct[0,0]",
                       "--format", "dot")
    assert code == 0 and out.startswith("digraph")


def test_qchar(capsys):
    for family, weight in (("8", "[1,0]"), ("fock", "[1/2,1/2]")):
        obj = run_json(capsys, "qchar", "--family", family, "--weight", weight,
                       "--order", "6", "--json")
        jsonschema.validate(obj, schema("qchar"))
        assert len(obj["coefficients"]) == 6


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert all("checks passed" in line for line in out.strip().splitlines())
    code, out, _ = run(capsys, "selftest", "--suite", "qseries")
    assert code == 0 and out.startswith("qseries:")


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "classify", "--weight", "bogus")
    assert code == 2 and "usage error" in err
    code, _, err = run(capsys, "char", "--label", "X(8)[0,0]")
    assert code == 2
    code, _, err = run(capsys, "kl", "to-quantum", "--label", "I1[1/2,0]")
    assert code == 2  # weight not in the root lattice


def test_gfuse_check_rule_5_passes_at_degenerate_sums(capsys):
    # these seeds draw rule-5 pairs whose parameters sum to an integer
    for seed in (1, 3, 4, 5, 7, 9):
        code, out, err = run(capsys, "gfuse-check", "--rule", "5", "--samples", "10",
                             "--seed", str(seed))
        assert code == 0, err
        assert out.count("PASS") == 10


def test_inputs_outside_the_stated_cases_exit_2(capsys):
    for argv in (
        ("classify", "--weight", "[1/0,1]"),
        ("loewy", "--label", "K(16)[0,0]"),
        ("loewy", "--label", "R[1/5,2/5]"),
        ("octuplet", "loewy", "--label", "W1[0,0]"),
        ("tensor", "--left", "P(8)[1,1]", "--right", "L(8)[1,1]"),
        ("kl", "from-quantum", "--label", "Q(9)[0,1]"),
        ("fuse", "--left", "sf(1)*L", "--right", "L"),
        ("qchar", "--family", "8", "--weight", "[1,0]", "--order", "0"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "usage error" in err, argv


@pytest.mark.parametrize("target, name, fault, argv", [
    (cli, "classify", ValueError("fault"), ("classify", "--weight", "[1,1]")),
    (kl, "affine_fuse", KeyError("fault"), ("fuse", "--left", "L", "--right", "c*L")),
    (kl, "grothendieck_check", kl.InvalidCosetWeight("fault"),
     ("gfuse-check", "--rule", "4", "--samples", "1")),
])
def test_an_internal_fault_exits_3(capsys, monkeypatch, target, name, fault, argv):
    def raise_fault(*args):
        raise fault

    monkeypatch.setattr(target, name, raise_fault)
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "internal error" in err and "usage error" not in err
