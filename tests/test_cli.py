import argparse
import ast
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import loopmod
from loopmod import cli, errors, psi, realizer
from loopmod.cli import main
from loopmod.jsonio import parse_spec

ROOT = Path(__file__).resolve().parent.parent

SPEC_2Z = {
    "schema": 1,
    "algebra": {"series": "A", "rank": 1},
    "n": 1,
    "dims": [2],
    "weights": [
        {"index": [1], "coords": [1]},
        {"index": [2], "coords": [1]},
    ],
    "evals": [[1, -1]],
    "rho": [0],
}

SPEC_A = {
    "schema": 1,
    "algebra": {"series": "A", "rank": 1},
    "n": 1,
    "dims": [1],
    "weights": [{"index": [1], "coords": [1]}],
    "evals": [[2]],
    "rho": [0],
}

SPEC_B = dict(SPEC_A, evals=[[6]])
SPEC_C = dict(SPEC_A, weights=[{"index": [1], "coords": [2]}])

TWISTED = {
    "schema": 1,
    "algebra": {"series": "A", "rank": 2},
    "n": 1,
    "dims": [1],
    "weights": [{"index": [1], "coords": [1, 1]}],
    "evals": [[1]],
    "rho": [0],
    "aut": {"perm": [2, 1], "order": 2},
}


@pytest.fixture
def write(tmp_path):
    def _write(doc, name):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classify_report(write, capsys):
    path = write(SPEC_2Z, "s.json")
    code, doc = _run(capsys, ["classify", path])
    assert code == 0
    assert doc["schema"] == 1
    assert doc["command"] == "classify"
    assert doc["result"]["index"] == 2
    assert doc["result"]["support"]["lattice"]["basis"] == [[2]]
    assert len(doc["input_digest"]) == 64


def test_support_and_blocks(write, capsys):
    path = write(SPEC_2Z, "s.json")
    code, doc = _run(capsys, ["support", path])
    assert code == 0 and doc["result"]["periods"] == [2]
    code, doc = _run(capsys, ["blocks", path])
    assert code == 0
    assert doc["result"]["blocks"][0]["period"] == 2


def test_iso_witness_and_exit_codes(write, capsys):
    a = write(SPEC_A, "a.json")
    b = write(SPEC_B, "b.json")
    c = write(SPEC_C, "c.json")
    code, doc = _run(capsys, ["iso", a, b])
    assert code == 0
    assert doc["result"]["witness"]["scalings"][0]["num"] == 3
    code, doc = _run(capsys, ["iso", a, c])
    assert code == 1
    assert doc["result"]["reason"] == "weight-mismatch"


def test_iso_refutation_characters(write, capsys):
    a = write(SPEC_A, "a.json")
    c = write(SPEC_C, "c.json")
    code, doc = _run(capsys, ["iso", a, c, "--refute-box", "2"])
    assert code == 1
    assert doc["result"] == {
        "characters_differ": True, "isomorphic": False, "reason": "weight-mismatch", "witness": None,
    }


def test_characters_over_different_n_differ(write, capsys):
    # A₁ with n = 2 against SPEC_A's n = 1: characters graded by Z² and by
    # Z differ, whichever spec comes first.
    two = write(dict(SPEC_A, n=2, dims=[1, 1], weights=[{"index": [1, 1], "coords": [1]}],
                     evals=[[2], [3]], rho=[0, 0]), "two.json")
    one = write(SPEC_A, "one.json")
    for pair in ([two, one], [one, two]):
        code, doc = _run(capsys, ["iso", *pair, "--refute-box", "1"])
        assert code == 1
        assert doc["result"]["characters_differ"] is True, pair


def _scalar(num, order=1):
    return {"den": 1, "num": num, "zeta_order": order, "zeta_pow": 0}


# λ = (1, 0) at 2 against σ(λ) = (0, 1) at −2: a twisted witness with ε = −1.
TWISTED_FIRST = dict(TWISTED, weights=[{"index": [1], "coords": [1, 0]}], evals=[[2]])
TWISTED_FIRST_FLIPPED = dict(TWISTED, weights=[{"index": [1], "coords": [0, 1]}], evals=[[-2]])


@pytest.mark.parametrize(
    "command, docs, classified, result",
    [
        ("iso", (SPEC_A, SPEC_B), 1, {"isomorphic": True, "witness": {
            "scalings": [_scalar(3)], "shift": [0], "tau": [[1]]}}),
        ("iso", (SPEC_A, SPEC_C), 2, {"isomorphic": False, "reason": "weight-mismatch", "witness": None}),
        ("twisted-iso", (TWISTED_FIRST, TWISTED_FIRST_FLIPPED), 1, {"isomorphic": True, "witness": {
            "epsilons": [_scalar(-1, 2)], "scalings": [_scalar(1, 2)], "shift": [0], "tau": [[1]]}}),
        ("twisted-iso", (TWISTED_FIRST, TWISTED), 2, {
            "isomorphic": False, "reason": "type-mismatch", "witness": None}),
        # Γ = 2Z and a shift of 1; then Γ^μ = 2Z (m̂ = 2) and a shift of 1.
        ("iso", (SPEC_2Z, dict(SPEC_2Z, rho=[1])), 1, {
            "isomorphic": False, "reason": "grading-shift", "witness": None}),
        ("twisted-iso", (TWISTED, dict(TWISTED, rho=[1])), 1, {
            "isomorphic": False, "reason": "grading-shift", "witness": None}),
    ],
    ids=["iso-witness", "iso-refuted", "twisted-witness", "twisted-refuted",
         "iso-grading-shift", "twisted-grading-shift"],
)
def test_iso_classifies_the_right_spec_only_without_a_witness(
    write, capsys, monkeypatch, command, docs, classified, result
):
    # A witness, or a hit refuted only at the grading shift, fixes the right
    # spec's classification, so only a pair the search found no hit for
    # classifies it (for its errors); the search runs once either way.  A
    # grading-shift report is the same as when the right spec was classified
    # too, since that spec classifies without a diagnostic.
    names = ("classify", "decide_iso") if command == "iso" else (
        "twisted_classify", "decide_twisted_iso")
    calls = []
    for name in names:
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _n=name, _f=original: calls.append(_n) or _f(*a))
    paths = [write(doc, f"{i}.json") for i, doc in enumerate(docs)]
    code, doc = _run(capsys, [command, *paths])
    assert code == (0 if result["isomorphic"] else 1)
    assert (doc["diagnostics"], doc["result"]) == ([], result)
    assert (calls.count(names[0]), calls.count(names[1])) == (classified, 1)


def test_verify_checks_the_cap_before_the_support(write, capsys, monkeypatch):
    # V(2) ⊗ V(2) of A₁ has dimension 9, over --cap 8: the diagnostic comes
    # before any support is computed.
    calls = []
    # ``loopmod.classify`` is the function; the module is in sys.modules.
    for module in (psi, sys.modules["loopmod.classify"], cli):
        monkeypatch.setattr(module, "support_lattice", lambda *args: calls.append(args))
    doc = dict(SPEC_2Z, weights=[{"index": [1], "coords": [2]}, {"index": [2], "coords": [2]}])
    code, out = _run(capsys, ["verify", write(doc, "big.json"), "--box", "1", "--cap", "8"])
    assert code == 2 and not calls
    assert out["diagnostics"] == [{
        "type": "CapExceededError",
        "message": "tensor dimension exceeds the cap",
        "data": {"cap": 8, "dimension": 9},
    }]


def test_iso_reports_the_right_spec_error_without_a_witness(write, capsys):
    # The two-point spec plus a zero-weight point at 5 fails classification
    # (its period 2 does not divide 3); no witness relates it to the
    # two-point spec, so its diagnostic is the answer.
    three = dict(
        SPEC_2Z,
        dims=[3],
        weights=[{"index": [i], "coords": [c]} for i, c in ((1, 1), (2, 1), (3, 0))],
        evals=[[1, -1, 5]],
    )
    code, doc = _run(capsys, ["iso", write(SPEC_2Z, "two.json"), write(three, "three.json")])
    assert code == 3 and "result" not in doc
    assert doc["diagnostics"] == [{
        "type": "StructureViolationError",
        "message": "axis period does not divide the axis size",
        "data": {"axis": 1, "period": 2, "size": 3},
    }]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "a", "--box", "-1"],  # index 1: used to pass vacuously
        ["verify", "two", "--box", "-1"],  # index 2: used to blame the seed degree
        ["iso", "a", "d", "--refute-box", "-1"],  # used to report equal characters
    ],
)
def test_negative_box_radius_is_an_input_error(write, capsys, argv):
    paths = {
        "a": write(SPEC_A, "a.json"),
        "two": write(SPEC_2Z, "two.json"),
        "d": write(dict(SPEC_A, weights=[{"index": [1], "coords": [2]}], evals=[[3]]), "d.json"),
    }
    code, doc = _run(capsys, [paths.get(x, x) for x in argv])
    assert code == 2 and "result" not in doc
    (diag,) = doc["diagnostics"]
    assert diag["type"] == "InputError"
    assert diag["message"] == "degree box radius must be non-negative"
    assert diag["data"] == {"radius": -1}


def test_twisted_commands(write, capsys):
    t = write(TWISTED, "t.json")
    code, doc = _run(capsys, ["twisted-classify", t])
    assert code == 0
    assert doc["result"]["type"] == "second"
    assert doc["result"]["m_hat"] == 2
    code, doc = _run(capsys, ["twisted-iso", t, t])
    assert code == 0 and doc["result"]["isomorphic"]
    # λ = (1, 0) is not fixed by the flip (first type), λ = (1, 1) is (second).
    first = write(dict(TWISTED, weights=[{"index": [1], "coords": [1, 0]}]), "first.json")
    code, doc = _run(capsys, ["twisted-iso", first, t])
    assert code == 1
    assert doc["result"]["isomorphic"] is False
    assert doc["result"]["reason"] == "type-mismatch"
    code, doc = _run(capsys, ["reducibility", t])
    assert code == 0
    assert doc["result"] == {"completely_reducible": True, "reason": "image-equality"}


def test_twisted_command_needs_aut(write, capsys):
    path = write(SPEC_A, "a.json")
    code, doc = _run(capsys, ["twisted-classify", path])
    assert code == 2
    assert doc["diagnostics"][0]["type"] == "InputError"


def test_verify_passes(write, capsys):
    path = write(SPEC_2Z, "s.json")
    code, doc = _run(capsys, ["verify", path, "--box", "3"])
    assert code == 0
    assert doc["result"]["ok"]
    assert doc["result"]["components"] == 2
    assert all(doc["result"]["checks"].values())


# λ = (1) at a = (1, ζ₄, −1, −ζ₄): Γ = 4Z, and the coset representative 3
# lies outside the working box [−2, 2] of --box 1.
SPEC_4Z = dict(
    SPEC_2Z,
    dims=[4],
    weights=[{"index": [i], "coords": [1]} for i in range(1, 5)],
    evals=[[1, {"num": 1, "zeta_pow": 1, "zeta_order": 4}, -1,
            {"num": -1, "zeta_pow": 1, "zeta_order": 4}]],
)


def test_verify_seeds_a_coset_at_its_least_degree_in_the_working_box(write, capsys):
    # --box 1 seeds the coset 3 + 4Z at −1 and reports the --box 2 fiber
    # table on |d| ≤ 1; --box 0 has no degree of 2 + 4Z in [−1, 1].
    path = write(SPEC_4Z, "s.json")
    code, wide = _run(capsys, ["verify", path, "--box", "2"])
    assert code == 0 and wide["result"]["ok"]
    code, narrow = _run(capsys, ["verify", path, "--box", "1"])
    assert code == 0 and narrow["result"]["ok"] and narrow["result"]["components"] == 4
    assert narrow["result"]["fiber_dims"] == [
        row for row in wide["result"]["fiber_dims"] if abs(row["degree"][0]) <= 1
    ]
    code, doc = _run(capsys, ["verify", path, "--box", "0"])
    assert code == 2
    (diag,) = doc["diagnostics"]
    assert diag["type"] == "InputError"
    assert diag["data"] == {"box": 0, "working_box": 1, "coset": [2]}


@pytest.mark.parametrize(
    "fault, failing",
    [
        ("closures-reversed", {"top_weight_support"}),
        ("first-closure-twice", {"fibers_disjoint", "degree_sums"}),
        ("one-closure", {"component_count", "degree_sums"}),
        ("support-is-Z", {"support_periodicity", "degree_sums", "top_weight_support"}),
        ("component-1-aperiodic", {"support_periodicity"}),
    ],
)
def test_verify_exits_1_on_the_checks_a_wrong_decomposition_breaks(
    write, capsys, monkeypatch, fault, failing
):
    # λ = (1),(1), a = (1, −1): Γ = 2Z and p = 2, so two closures.  Each fault
    # hands verify a decomposition or a classification that is wrong in one
    # way, and exactly the checks that see that way fail.
    decompose, audit, classify = (
        realizer.component_decomposition, realizer.audit_decomposition, cli.classify
    )

    def decomposition(*args, **kwargs):
        boxes = decompose(*args, **kwargs)
        return {
            "closures-reversed": boxes[::-1],
            "first-closure-twice": boxes[:1] * 2,
            "one-closure": boxes[:1],
        }.get(fault, boxes)

    def aperiodic_audit(boxes):
        # Component 1 one rank up at the first degree, so its fibers differ
        # at two degrees of one coset of Γ while W₀'s do not.
        out = audit(boxes)
        deg, (r0, r1) = out.fiber_dims[0]
        out.fiber_dims[0] = deg, (r0, r1 + 1)
        return out

    whole = psi.support_lattice(parse_spec(dict(SPEC_2Z, evals=[[1, 2]])))
    assert whole.index == 1

    def index_one(spec):  # Γ = Z and p = 1, as for a = (1, 2)
        return dataclasses.replace(classify(spec), support=whole, p=1)

    monkeypatch.setattr(realizer, "component_decomposition", decomposition)
    if fault == "support-is-Z":
        monkeypatch.setattr(cli, "classify", index_one)
    if fault == "component-1-aperiodic":
        monkeypatch.setattr(realizer, "audit_decomposition", aperiodic_audit)
    code, doc = _run(capsys, ["verify", write(SPEC_2Z, "s.json"), "--box", "2"])
    assert code == 1 and not doc["result"]["ok"]
    assert {k for k, v in doc["result"]["checks"].items() if not v} == failing


def test_exit_code_structure_errors(write, capsys):
    trivial = dict(SPEC_A, weights=[{"index": [1], "coords": [0]}])
    path = write(trivial, "t.json")
    code, doc = _run(capsys, ["classify", path])
    assert code == 3
    assert doc["diagnostics"][0]["type"] == "TrivialModuleError"


_DUPLICATE = dict(SPEC_A, dims=[2], evals=[[2, 3]], weights=[
    {"index": [1], "coords": [1]}, {"index": [1], "coords": [2]},
])


@pytest.mark.parametrize("command, doc, message, data", [
    ("classify", dict(SPEC_A, rho=["x/2"]), "bad rational literal", {"value": "x/2"}),
    ("classify", dict(SPEC_A, rho=["1/0"]), "bad rational literal", {"value": "1/0"}),
    ("classify", _DUPLICATE, "duplicate weight table entry", {"index": [1]}),
    ("twisted-classify", dict(TWISTED, aut={"order": 2}), "aut needs a 'perm' node list", {}),
], ids=["bad-literal", "zero-denominator", "duplicate-index", "aut-without-perm"])
def test_spec_reader_diagnostics(write, capsys, command, doc, message, data):
    code, out = _run(capsys, [command, write(doc, "s.json")])
    assert code == 2
    assert out["diagnostics"] == [{"type": "InputError", "message": message, "data": data}]


@pytest.mark.parametrize("series, rank, message", [
    ("A", 0, "A series needs rank >= 1"),
    ("B", 1, "B series needs rank >= 2"),
    ("C", 1, "C series needs rank >= 2"),
    ("D", 2, "D series needs rank >= 3"),
    ("E", 5, "E series needs rank 6, 7 or 8"),
    ("F", 3, "F series needs rank 4"),
    ("G", 3, "G series needs rank 2"),
    ("H", 2, "unknown series"),
])
def test_series_rank_diagnostics(write, capsys, series, rank, message):
    doc = dict(SPEC_A, algebra={"series": series, "rank": rank},
               weights=[{"index": [1], "coords": [1] * rank}])
    code, out = _run(capsys, ["classify", write(doc, "s.json")])
    assert code == 2
    (diag,) = out["diagnostics"]
    assert (diag["type"], diag["message"]) == ("UnsupportedError", message)


def test_trivial_twisted_module_exits_3(write, capsys):
    trivial = dict(TWISTED, weights=[{"index": [1], "coords": [0, 0]}])
    code, out = _run(capsys, ["twisted-classify", write(trivial, "t.json")])
    assert code == 3
    assert out["diagnostics"][0]["type"] == "TrivialModuleError"


# The exit code of every engine error type, as the README lists them; a new
# type must be added here.
EXIT_CODES = {
    "EngineError": 2,
    "InputError": 2,
    "OrderMismatchError": 2,
    "TrivialModuleError": 3,
    "NoPeriodWithinBoundError": 3,
    "SupportNotSubgroupError": 3,
    "StructureViolationError": 3,
    "ImageMismatchError": 3,
    "InfiniteIndexError": 2,
    "CapExceededError": 2,
    "RealizationMismatchError": 2,
    "UnsupportedError": 2,
    "InternalError": 4,
}


def test_exit_code_table_names_every_error_type():
    names = {"EngineError"} | {c.__name__ for c in errors.EngineError.__subclasses__()}
    assert names == set(EXIT_CODES)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_engine_errors_exit_with_their_code(write, capsys, monkeypatch, name):
    error = getattr(errors, name)

    def raising(spec):
        raise error("raised for the test", where="support")

    monkeypatch.setattr(cli, "support_lattice", raising)
    code, doc = _run(capsys, ["support", write(SPEC_A, "a.json")])
    assert code == EXIT_CODES[name]
    assert doc["diagnostics"] == [
        {"type": name, "message": "raised for the test", "data": {"where": "support"}}
    ]


def test_other_exceptions_are_internal_errors(write, capsys, monkeypatch):
    def raising(spec):
        return 1 // 0

    monkeypatch.setattr(cli, "support_lattice", raising)
    code, doc = _run(capsys, ["support", write(SPEC_A, "a.json")])
    assert code == 4
    assert doc["command"] == "support" and "result" not in doc
    (diag,) = doc["diagnostics"]
    assert diag["type"] == "InternalError"
    assert diag["message"] == "ZeroDivisionError: integer division or modulo by zero"
    assert diag["data"]["exception"] == "ZeroDivisionError"
    assert diag["data"]["where"].startswith("test_cli.py:")
    assert diag["data"]["where"].endswith(" in raising")


def test_exit_code_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, doc = _run(capsys, ["classify", str(bad)])
    assert code == 2


def test_exit_code_cancellation_regime(write, capsys):
    doc_in = {
        "schema": 1,
        "algebra": {"series": "A", "rank": 1},
        "n": 1,
        "dims": [2],
        "weights": [
            {"index": [1], "coords": [1]},
            {"index": [2], "coords": [2]},
        ],
        "evals": [[2, -1]],
        "rho": [0],
    }
    path = write(doc_in, "cancel.json")
    code, doc = _run(capsys, ["support", path])
    assert code == 3
    assert doc["diagnostics"][0]["type"] == "SupportNotSubgroupError"


def test_reports_are_deterministic(write, capsys):
    path = write(SPEC_2Z, "s.json")
    main(["classify", path])
    first = capsys.readouterr().out
    main(["classify", path])
    second = capsys.readouterr().out
    assert first == second


def test_text_output(write, capsys):
    # The text result block is the JSON report's result, written the same way.
    path = write(SPEC_A, "a.json")
    code = main(["--output", "text", "support", path])
    out = capsys.readouterr().out
    _, doc = _run(capsys, ["support", path])
    assert code == 0
    assert out == "command: support\n" + json.dumps(doc["result"], sort_keys=True, indent=2) + "\n"


def test_an_integer_too_long_to_write_is_a_cap_diagnostic(write, capsys):
    # a = 1/10^3000 against 10^3000: the witness scales by 10^6000, whose
    # 6,001 digits are more than ``repr`` may write; the report keeps the
    # fields it can write.
    a = write(dict(SPEC_A, evals=[[{"num": 1, "den": 10**3000}]]), "a.json")
    b = write(dict(SPEC_A, evals=[[{"num": 10**3000, "den": 1}]]), "b.json")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or limit > 6000:
        pytest.skip("this interpreter writes a 6,001-digit int")
    diag = {
        "type": "CapExceededError",
        "message": "an integer in the report has more digits than the limit for writing one",
        "data": {"digit_limit": limit},
    }
    code, doc = _run(capsys, ["iso", a, b])
    assert code == 2
    assert doc["diagnostics"] == [diag]
    assert sorted(doc) == ["command", "diagnostics", "input_digest", "schema"]
    assert main(["--output", "text", "iso", a, b]) == 2
    assert capsys.readouterr().out == f"command: iso\nerror[CapExceededError]: {diag['message']}\n"


# Every subcommand's positionals and options, as the help names them.
GRAMMAR = {
    "support": ("spec",),
    "classify": ("spec",),
    "blocks": ("spec",),
    "iso": ("left", "right", "--refute-box"),
    "twisted-classify": ("spec",),
    "twisted-iso": ("left", "right"),
    "reducibility": ("spec",),
    "verify": ("spec", "--box", "--cap"),
}


@pytest.mark.parametrize("command", [None, *GRAMMAR])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_exits_0_and_names_the_grammar(capsys, command, flag):
    argv = [flag] if command is None else [command, flag]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: loopmod")
    words = (*GRAMMAR, "--output") if command is None else GRAMMAR[command]
    for word in ("--help", *words):
        assert word in out, word


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus", "f"],
        ["classify"],
        ["iso", "a"],
        ["classify", "a", "b"],
        ["iso", "a", "b", "c"],
        ["verify", "f", "--box", "x"],
        ["verify", "f", "--box"],
        ["verify", "f", "--box", "-1_0"],
        ["verify", "f", "--cap", "1.5"],
        ["iso", "a", "b", "--refute-box="],
        ["classify", "f", "--output", "json"],
        ["support", "f", "--box", "1"],
        ["--output", "xml", "classify", "f"],
        ["--output"],
        ["--bogus", "classify", "f"],
        ["--", "classify", "f"],
        ["verify", "f", "--box", "1", "--"],
        ["-hx"],
        ["verify", "--=1", "f"],
        pytest.param(["verify", "f", "--box", "1" * 5000], id="verify f --box 1x5000"),
    ],
    ids=lambda argv: " ".join(argv) or "empty",
)
def test_usage_errors_exit_2_before_any_report(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: loopmod")
    assert re.search(r"^loopmod( [a-z-]+)?: error: ", err, re.M), err


def test_an_option_value_of_two_dashes_is_a_usage_error(capsys):
    # Python 3.11's argparse strips "--" from ``--box=--`` and stores [];
    # the reader reads the value "--", which is no int.  (The property
    # below draws no "=--".)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "f", "--box=--"])
    assert exc.value.code == 2
    assert "invalid int value: '--'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["verify", "f"], ("json", "verify", ["f"], {"--box": 3, "--cap": 64})),
        (["--output=text", "verify", "--box=-1", "f"], ("text", "verify", ["f"], {"--box": -1, "--cap": 64})),
        (["--out", "text", "iso", "a", "--r", "2", "b"], ("text", "iso", ["a", "b"], {"--refute-box": 2})),
        (["verify", "f", "--bo", "1", "--box", "2", "--c=9"], ("json", "verify", ["f"], {"--box": 2, "--cap": 9})),
        (["verify", "--box", "-1", "f"], ("json", "verify", ["f"], {"--box": -1, "--cap": 64})),
        (["classify", "--", "-f"], ("json", "classify", ["-f"], {})),
        (["iso", "a", "--", "--box"], ("json", "iso", ["a", "--box"], {"--refute-box": None})),
        (["classify", "f", "--"], ("json", "classify", ["f"], {})),
        (["classify", "-1"], ("json", "classify", ["-1"], {})),
        (["classify", "--a b"], ("json", "classify", ["--a b"], {})),
        (["classify", "-x y"], ("json", "classify", ["-x y"], {})),
        (["iso", "a", "--", "--"], ("json", "iso", ["a", "--"], {"--refute-box": None})),
    ],
)
def test_reader_reads_the_argparse_forms(argv, expected):
    assert cli.read_argv(argv) == expected


@pytest.mark.parametrize("argv", [["-hhh"], ["-h=hh"], ["verify", "--he"], ["iso", "-hh", "a"]])
def test_help_spellings_exit_0(capsys, argv):
    # "-hh" is "-h -h", "-h=hh" gives "-h" the value "hh", which is "-h -h".
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: loopmod")


def build_parser() -> argparse.ArgumentParser:
    # The argparse grammar that ``read_argv`` replaced: the oracle below.
    parser = argparse.ArgumentParser(
        prog="loopmod",
        description="classify and compare graded loop-module evaluation data",
    )
    parser.add_argument("--output", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, nargs=1, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if nargs == 1:
            p.add_argument("spec", help="path to a spec JSON file")
        else:
            p.add_argument("left", help="path to the first spec JSON file")
            p.add_argument("right", help="path to the second spec JSON file")
        return p

    add("support", help="support lattice of the degree functional")
    add("classify", help="full untwisted classification")
    add("blocks", help="per-axis orbit block structure")
    iso = add("iso", nargs=2, help="untwisted isomorphism decision")
    iso.add_argument(
        "--refute-box",
        type=int,
        default=None,
        help="attach a graded-character comparison on this box when unsatisfied",
    )
    add("twisted-classify", help="twisted classification (needs an 'aut' block)")
    add("twisted-iso", nargs=2, help="twisted isomorphism decision")
    add("reducibility", help="complete-reducibility check of the restriction")
    verify = add("verify", help="realize components and audit the classification")
    verify.add_argument("--box", type=int, default=3, help="degree box radius")
    verify.add_argument("--cap", type=int, default=64, help="dimension cap")
    return parser


ORACLE = build_parser()


def _oracle(argv):
    # ``ORACLE.parse_args`` in the reader's (output, command, paths, options).
    ns = vars(ORACLE.parse_args(argv))
    output, command = ns.pop("output"), ns.pop("command")
    # Python 3.11's argparse strips "--" from a path too: a path [] is a
    # "--" read after the first, which the reader keeps.
    paths = [ns.pop(key) for key in ("spec", "left", "right") if key in ns]
    paths = ["--" if path == [] else path for path in paths]
    return output, command, paths, {"--" + key.replace("_", "-"): v for key, v in ns.items()}


def _outcome(read, argv):
    # The values read, or the exit status and which streams were written.
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return read(list(argv))
    except SystemExit as exc:
        return exc.code, bool(out.getvalue()), bool(err.getvalue())


# Words of the grammar, their abbreviations, and junk argparse reads in its
# own ways: "-" and "" are positionals, "-hh" is "-h -h", "--=1" is
# ambiguous.  No "=--" value: see the test above.
_ARGV_WORDS = st.sampled_from([
    *GRAMMAR, "bogus", "a.json", "b.json", "--", "-", "", "-x", "--foo", "---", "--=1",
    "-h", "--help", "--h", "--he", "-hh", "-hhh", "-h=h", "-h=hh", "-hx", "-h=", "--help=x",
    "--output", "--out", "--o", "json", "text", "xml",
    "--box", "--bo", "--b", "--cap", "--c", "--refute-box", "--ref", "--r", "--box 3", "-x y", "a b",
])
_INTS = st.integers(-12, 12).map(str) | st.sampled_from(["+2", "-0", "1.5", "-1.5", "0x1", " 7", "1_0", "-1_0"])
_OPTION_VALUES = st.builds(
    "{}={}".format,
    st.sampled_from(["--box", "--bo", "--cap", "--refute-box", "--r", "--output", "--out", "--o"]),
    _INTS | st.sampled_from(["json", "text", ""]),
)
_WORDS = _ARGV_WORDS | _INTS | _OPTION_VALUES
@st.composite
def _command_lines(draw):
    # A subcommand, its paths, and its options abbreviated, each with its
    # value in the next word or after "=", in any order; then, in a third of
    # the lines, one more word anywhere.
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    pieces = [[f"{word}.json"] for word in GRAMMAR[command] if not word.startswith("--")]
    options = [word for word in GRAMMAR[command] if word.startswith("--")]
    for _ in range(draw(st.integers(0, 3)) if options else 0):
        name = draw(st.sampled_from(options))
        name = name[:draw(st.integers(3, len(name)))]
        value = draw(_INTS)
        pieces.append(draw(st.sampled_from([[name, value], [f"{name}={value}"]])))
    words = [*draw(st.sampled_from([[], ["--output", "text"], ["--out=json"]])), command]
    words += [word for piece in draw(st.permutations(pieces)) for word in piece]
    if draw(st.sampled_from([False, False, True])):
        words.insert(draw(st.integers(0, len(words))), draw(_WORDS))
    return words


_ARGVS = st.lists(_WORDS, max_size=8) | _command_lines()

@given(_ARGVS)
@settings(max_examples=800, deadline=None)
def test_reader_agrees_with_argparse(argv):
    # The same values when argparse accepts; otherwise the same exit status,
    # help on stdout alone and usage errors on stderr alone.
    assert _outcome(cli.read_argv, argv) == _outcome(_oracle, argv)

_JSON_LEAVES = st.one_of(
    st.text(), st.integers(), st.booleans(), st.none(), st.floats(),
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=20,
)


def _nested(doc, depth):
    # ``doc`` inside ``depth`` containers, alternating lists, dicts and tuples.
    for k in range(depth):
        doc = ([doc, k], {"k": doc, "n": k}, (doc,))[k % 3]
    return doc


@given(st.one_of(_JSON_TREES, st.builds(_nested, _JSON_TREES, st.integers(20, 60))))
@settings(max_examples=300, deadline=None)
def test_report_emitter_matches_indented_json_dumps(doc):
    # Strings cover non-ASCII and control characters; floats cover NaN and
    # the infinities; empty lists and dicts come from max_size; tuples are
    # arrays; nesting goes 60 levels deep.
    assert cli._indented_json(doc) == json.dumps(doc, sort_keys=True, indent=2)


def test_scalar_json_round_trip(write, capsys):
    doc_in = dict(
        SPEC_A,
        evals=[[{"num": 1, "den": 2, "zeta_pow": 1, "zeta_order": 3}]],
    )
    path = write(doc_in, "z.json")
    code, doc = _run(capsys, ["support", path])
    assert code == 0


def test_fractional_rho(write, capsys):
    doc_in = dict(SPEC_A, rho=["1/2"])
    path = write(doc_in, "r.json")
    code, doc = _run(capsys, ["classify", path])
    assert code == 0


def test_wrong_declared_aut_order(write, capsys):
    doc_in = dict(TWISTED, aut={"perm": [2, 1], "order": 3})
    path = write(doc_in, "wrong.json")
    code, doc = _run(capsys, ["twisted-classify", path])
    assert code == 2
    assert doc["diagnostics"][0]["type"] == "InputError"


@pytest.mark.parametrize(
    "fields",
    [
        {"evals": [[{"num": 1, "den": 0}]]},
        {"evals": [[{"num": 1, "zeta_order": 0, "zeta_pow": 1}]]},
        {"evals": [[{"num": 1, "zeta_order": -4, "zeta_pow": 1}]]},
        {"evals": [[{"num": "x"}]]},
        {"evals": [[{"num": 1, "den": "x"}]]},
        {"evals": [[{"num": 1, "zeta_order": 4, "zeta_pow": "x"}]]},
        {"evals": [[{"num": 1, "zeta_order": "x", "zeta_pow": 1}]]},
        {"dims": ["x"]},
        {"n": "x"},
        {"evals": 5},
        {"evals": [3]},
        {"weights": 5},
        {"rho": 5},
        {"aut": 5},
        {"aut": {"perm": 5}},
        {"weights": [{"index": [1], "coords": [1.9]}]},
        {"evals": [[{"num": 2.7}]]},
        {"weights": [{"index": [1], "coords": [True]}]},
        {"evals": [[{"num": 1, "den": True}]]},
        {"dims": [1.0]},
        {"dims": "1"},
        {"weights": [{"index": "1", "coords": [1]}]},
        {"weights": [{"index": [1], "coords": "1"}]},
        {"n": 10 ** 19},
        {"algebra": {"series": "A", "rank": "1"}},
        {"n": "1"},
        {"dims": ["1"]},
        {"evals": [[{"num": "2"}]]},
        {"weights": [{"index": [1], "coords": ["0_1"]}]},
    ],
    ids=[
        "den-zero", "order-zero", "order-negative", "num-text", "den-text",
        "pow-text", "order-text", "dims-text", "n-text", "evals-scalar",
        "evals-axis-scalar", "weights-scalar", "rho-scalar", "aut-scalar",
        "perm-scalar", "coords-float", "num-float", "coords-bool", "den-bool",
        "dims-float", "dims-string", "index-string", "coords-string", "n-huge",
        "rank-numeric-string", "n-numeric-string", "dims-numeric-string",
        "num-numeric-string", "coords-numeric-string",
    ],
)
def test_bad_scalar_is_input_error(write, capsys, fields):
    path = write(dict(SPEC_A, **fields), "bad_scalar.json")
    code, doc = _run(capsys, ["classify", path])
    assert code == 2
    assert doc["diagnostics"][0]["type"] == "InputError"


@pytest.mark.parametrize(
    "raw",
    [
        json.dumps(dict(SPEC_A, evals=0)).replace('"evals": 0', '"evals": [[' + "1" * 5000 + "]]")
        .encode(),
        b'{"n": "\xff\xfe"}',
        b"[" * 100_000 + b"]" * 100_000,
    ],
    ids=["long-integer", "not-utf8", "deep-nesting"],
)
def test_undecodable_spec_is_input_error(tmp_path, capsys, raw):
    # json raises ValueError (not JSONDecodeError) for an integer literal over
    # its digit limit, UnicodeDecodeError for bytes that are not UTF-8, and
    # RecursionError for deep nesting.
    path = tmp_path / "raw.json"
    path.write_bytes(raw)
    code, doc = _run(capsys, ["classify", str(path)])
    assert code == 2
    assert doc["diagnostics"][0]["type"] == "InputError"
    assert doc["diagnostics"][0]["message"].startswith("spec file is not valid JSON: ")


@pytest.mark.parametrize("command", ["classify", "iso"])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unreadable_spec_is_input_error(write, tmp_path, capsys, command, target):
    # main reads every spec file, for the input digest, before it parses
    # any, and reports a file it cannot read as load_spec would.
    bad = str(tmp_path / "absent.json") if target == "missing" else str(tmp_path)
    argv = [command, bad] if command == "classify" else [command, write(SPEC_A, "a.json"), bad]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and not captured.err
    (diag,) = json.loads(captured.out)["diagnostics"]
    assert diag["type"] == "InputError"
    assert diag["message"].startswith("cannot read spec file: ")


@pytest.mark.parametrize("command", ["iso", "twisted-iso"])
def test_undecodable_right_spec_is_input_error(write, tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"{not json")
    code, doc = _run(capsys, [command, write(TWISTED, "t.json"), str(bad)])
    (diag,) = doc["diagnostics"]
    assert code == 2 and diag["type"] == "InputError"
    assert diag["message"].startswith("spec file is not valid JSON: ")


@pytest.mark.parametrize("command", ["iso", "twisted-iso"])
def test_unreadable_right_spec_is_reported_before_the_left_is_parsed(tmp_path, capsys, command):
    left = tmp_path / "left.json"
    left.write_bytes(b"{not json")
    code, doc = _run(capsys, [command, str(left), str(tmp_path / "absent.json")])
    (diag,) = doc["diagnostics"]
    assert code == 2 and "input_digest" not in doc
    assert diag["message"].startswith("cannot read spec file: ")


@pytest.mark.parametrize("command", ["classify", "iso", "twisted-iso"])
def test_main_reads_each_spec_file_once(write, capsys, monkeypatch, command):
    paths = [write(TWISTED, "t.json")] if command == "classify" else [
        write(TWISTED, "t.json"), write(TWISTED, "u.json")]
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    code, doc = _run(capsys, [command, *paths])
    monkeypatch.undo()
    assert code == 0 and not doc["diagnostics"]
    assert sorted(p for p in opened if p in paths) == sorted(paths)
    digest = hashlib.sha256(b"".join(open(p, "rb").read() for p in paths)).hexdigest()
    assert doc["input_digest"] == digest


def _traffic_lines() -> list:
    # Every CLI line of the bench corpora, each spec's name standing for its
    # path, and every line of the README's example block.
    lines = []
    for path in sorted((ROOT / "bench" / "corpus").glob("*.json")):
        if not path.name.endswith(".expected.json"):
            items = json.loads(path.read_text(encoding="utf-8"))["items"]
            lines += [[op["call"], *op["args"], *op["flags"]]
                      for versions in items for op in versions if op["call"] in cli._COMMANDS]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n")[1]
    return lines + [line.split("#")[0].split()[1:] for line in block.splitlines()]


@pytest.fixture(scope="module")
def traffic():
    # One fresh interpreter reads every traffic line with ``read_argv``.
    # Returns the lines, their readings, and whether ``argparse`` was
    # imported by then.
    lines = _traffic_lines()
    script = (
        "import json, sys\n"
        "from loopmod import cli\n"
        "readings = [cli.read_argv(line) for line in json.load(sys.stdin)]\n"
        "print(json.dumps([readings, 'argparse' in sys.modules]))\n"
    )
    src = os.path.dirname(os.path.dirname(loopmod.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps(lines),
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    readings, imported = json.loads(proc.stdout)
    return lines, readings, imported


def test_traffic_reads_as_argparse_without_importing_it(traffic):
    # The corpus and README lines all have the plain form: each reads as
    # argparse reads it, and reading them all imports no ``argparse``.
    lines, readings, imported = traffic
    assert len(lines) > 1000
    assert readings == json.loads(json.dumps([_oracle(line) for line in lines]))
    assert not imported


def test_main_builds_no_argparse_parser(write, capsys, monkeypatch, traffic):
    # ``main`` reads a plain line without argparse: no call of ``main`` on
    # one, the first included, builds an ``ArgumentParser``, and a fresh
    # interpreter that reads every traffic line never imports ``argparse``.
    cli._argparse.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = write(SPEC_A, "a.json")
    for argv in (["classify", path], ["support", path], ["verify", path, "--box", "1"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert built == []
    assert not traffic[2]


def test_verify_computes_the_support_once(write, capsys, monkeypatch):
    original = psi.support_lattice
    calls = []

    def counting(spec):
        calls.append(spec)
        return original(spec)

    # Callers import the name directly, so rebind it wherever it is bound.
    for name, module in list(sys.modules.items()):
        if name.startswith("loopmod") and getattr(module, "support_lattice", None) is original:
            monkeypatch.setattr(module, "support_lattice", counting)
    path = write(SPEC_2Z, "two.json")
    code, doc = _run(capsys, ["verify", path, "--box", "2"])
    assert code == 0 and doc["result"]["ok"]
    assert len(calls) == 1


def _run_capped(tmp_path, command, spec, timeout, cap=1 << 30):
    # `command` on `spec` in a fresh interpreter under an address-space cap
    # of `cap` bytes (1 GiB by default); returns the finished process.
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(spec))
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "from loopmod.cli import main\n"
        "sys.exit(main([sys.argv[1], sys.argv[2]]))\n"
    )
    src = os.path.dirname(os.path.dirname(loopmod.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", script, command, str(path)],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def _classify_two_entry(tmp_path, command, order, timeout):
    # `command` (`classify` or `verify`) of λ = (1),(1), a = (1, ζ_order)
    # under the 1 GiB cap; returns the result.
    spec = dict(
        SPEC_2Z,
        evals=[[1, {"num": 1, "zeta_order": order, "zeta_pow": 1}]],
    )
    proc = _run_capped(tmp_path, command, spec, timeout)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)["result"]


def test_incomplete_huge_table_is_input_error_in_bounded_memory(tmp_path):
    # A 10⁴ × 10⁴ table with one weight: the missing indices are found without
    # listing the 10⁸ indices, so the spec is refused within 1 GiB.
    spec = dict(
        SPEC_A,
        n=2,
        dims=[10_000, 10_000],
        weights=[{"index": [1, 1], "coords": [1]}],
        evals=[list(range(1, 10_001))] * 2,
        rho=[0, 0],
    )
    proc = _run_capped(tmp_path, "classify", spec, 60)
    assert proc.returncode == 2, proc.stderr[-2000:]
    (diag,) = json.loads(proc.stdout)["diagnostics"]
    assert diag["type"] == "InputError"
    assert diag["message"] == "weight table is incomplete"
    assert diag["data"]["missing"] == [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6]]


def test_huge_rank_with_short_weights_is_input_error_in_bounded_memory(tmp_path):
    # The weights' lengths are checked before the rank × rank Cartan matrix
    # is built, which at rank 10⁵ would take tens of GB.
    spec = dict(SPEC_A, algebra={"series": "A", "rank": 100_000})
    proc = _run_capped(tmp_path, "classify", spec, 30, cap=256 << 20)
    assert proc.returncode == 2, proc.stderr[-2000:]
    (diag,) = json.loads(proc.stdout)["diagnostics"]
    assert diag["type"] == "InputError"
    assert diag["message"] == "weight has wrong length"
    assert diag["data"] == {"index": [1], "expected": 100_000}


def test_high_rank_one_slot_classifies_quickly(tmp_path):
    # A₄₀₀ has 80,200 positive roots; classify never reads them, so it does
    # not build them.
    spec = dict(
        SPEC_A,
        algebra={"series": "A", "rank": 400},
        weights=[{"index": [1], "coords": [1] + [0] * 399}],
    )
    proc = _run_capped(tmp_path, "classify", spec, 30)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["result"]["support"]["certificate"] == "single-entry"


def test_large_prime_order_classifies_in_bounded_memory(tmp_path):
    # Elements take O(L) memory, so a two-entry table at L = 200003 fits in
    # 1 GiB of address space.
    assert _classify_two_entry(tmp_path, "classify", 200003, 300)["index"] == 1


def test_million_order_classifies_in_bounded_time(tmp_path):
    # Φ_L for L = 10⁶ = 2⁶·5⁶ is a Möbius product of four factors x^d − 1,
    # and the support decides the cosets the audit cube reaches from their
    # class sums, so a two-entry table classifies well within the timeout.
    assert _classify_two_entry(tmp_path, "classify", 10 ** 6, 30)["index"] == 1


def test_million_order_verifies_in_bounded_time(tmp_path):
    # The echelon keeps each row's pivot in Z[ζ_L] and reduces by
    # multiplying through, so no pivot at L = 10⁶ needs a Euclid inverse over
    # Q[x] and the realization check stays well within the timeout and the
    # memory cap.
    result = _classify_two_entry(tmp_path, "verify", 10 ** 6, 30)
    assert result["ok"] and all(result["checks"].values())


SPEC_ZETA = {
    "schema": 1,
    "algebra": {"series": "A", "rank": 2},
    "n": 2,
    "dims": [2, 1],
    "weights": [
        {"index": [1, 1], "coords": [1, 0]},
        {"index": [2, 1], "coords": [1, 1]},
    ],
    "evals": [[2, {"num": -1, "den": 2, "zeta_pow": 5, "zeta_order": 12}], ["1/3"]],
    "rho": [0, "1/2"],
}

_KEYS = (
    "schema", "algebra", "series", "rank", "n", "dims", "weights", "index", "coords",
    "evals", "num", "den", "zeta_pow", "zeta_order", "rho", "aut", "perm", "order",
)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(-3, 3),
    st.sampled_from(("", "x", "A", "D", "E", "-1", "3", "1/2", "1/0")),
)
_JUNK = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3)
    ),
    max_leaves=8,
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def _mangled_specs(draw):
    """A valid spec with one to three parts replaced by junk of any type (a
    zeta_order by an integer up to 60), deleted, or wrapped in a list."""
    doc = copy.deepcopy(draw(st.sampled_from((SPEC_2Z, SPEC_ZETA, TWISTED))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if path[-1:] == ("zeta_order",):
            junk = st.one_of(_JUNK, st.integers(-1, 60))
        else:
            junk = _JUNK
        if not path:
            doc = draw(junk)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(("replace", "delete", "wrap")))
        if action == "delete":
            del parent[path[-1]]
        elif action == "wrap":
            parent[path[-1]] = [parent[path[-1]]]
        else:
            parent[path[-1]] = draw(junk)
    return doc


@given(_mangled_specs(), _mangled_specs())
@settings(max_examples=200, deadline=None)
def test_malformed_specs_never_escape(tmp_path_factory, doc, other):
    # parse_spec raises only engine errors, and every command exits 0–3 with
    # a JSON report; the two-spec commands read ``other`` second.  ``verify``
    # and ``--refute-box`` run on a box of radius 1: with zeta_order at most
    # 60 and the default cap, the closures stay small, and no pivot is ever
    # inverted.
    try:
        parse_spec(doc)
    except errors.EngineError:
        pass
    folder = tmp_path_factory.mktemp("fuzz")
    path, second = folder / "spec.json", folder / "other.json"
    path.write_text(json.dumps(doc))
    second.write_text(json.dumps(other))
    for command, *args in (
        ("support",), ("classify",), ("blocks",), ("twisted-classify",), ("reducibility",),
        ("verify", "--box", "1"), ("iso", second, "--refute-box", "1"), ("twisted-iso", second),
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, str(path), *map(str, args)])
        report = json.loads(out.getvalue())
        assert 0 <= code <= 3, (command, report["diagnostics"])
        assert report["command"] == command


def test_runtime_imports_only_the_standard_library():
    # Every import in the package names a standard-library module or is
    # relative to ``loopmod``.
    root = os.path.dirname(loopmod.__file__)
    for folder, _, names in os.walk(root):
        for name in (n for n in names if n.endswith(".py")):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    tops = [alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    tops = [node.module.split(".")[0]]
                else:
                    continue
                for top in tops:
                    assert top in sys.stdlib_module_names or top == "loopmod", (name, top)


# What a module on the oracle side may import from ``loopmod``: the spec data
# and the exact arithmetic it stands on, and nothing of the engine it checks.
_LOCAL_IMPORTS = {
    "realizer.py": {"spec", "cyclotomic", "liealg", "errors"},
    "spec.py": {"cyclotomic", "liealg", "errors"},
}


def _local_imports(tree) -> set:
    # The ``loopmod`` modules that a module's imports name.
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            out |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("loopmod."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out |= {a.name.split(".")[1] for a in node.names if a.name.startswith("loopmod.")}
    return out


def test_oracles_import_no_engine_code():
    # The realizer imports no psi, twisted or classify, and the spec module
    # is data; only psi and twisted build an evaluator.
    root = os.path.dirname(loopmod.__file__)
    names = sorted(n for n in os.listdir(root) if n.endswith(".py"))
    assert set(_LOCAL_IMPORTS) <= set(names)
    for name in names:
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        if name in _LOCAL_IMPORTS:
            extra = _local_imports(tree) - _LOCAL_IMPORTS[name]
            assert not extra, (name, extra)
        built = {
            getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        if name not in ("psi.py", "twisted.py"):
            assert not {b for b in built if b and b.endswith("Evaluator")}, name
