"""Operations of a workload: selection by seed, execution, decision fields.

An operation is one in-process ``loopmod.cli.main(argv)`` call with stdout
captured, or one library call (``twisted_generate_component``, the one
realizer path no subcommand reaches).  Its outcome is reduced to *decision
fields*: the exit code, the diagnostic types, and the report fields that carry
an answer (lattice rows, periods, index, blocks, classes, witness or reason,
type, m̂ₙ, exponent, the verify checks, ...).  Fields a later version adds to
a report are ignored, so they never count as failures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CORPUS_DIR = BENCH_DIR / "corpus"

# Report keys whose whole value is an answer; other keys are descended into.
DECISION_KEYS = frozenset({
    "basis", "periods", "index", "blocks", "classes", "realization",
    "isomorphic", "witness", "reason", "characters_differ",
    "type", "m_hat", "marginal_index", "exponent",
    "checks", "ok", "components", "expected_components", "completely_reducible",
    "fibers",
})

LIBRARY_CALLS = ("twisted_generate_component",)


def load_bundle(workload: str) -> dict:
    with open(CORPUS_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def bundle_digest(workload: str) -> str:
    return hashlib.sha256((CORPUS_DIR / f"{workload}.json").read_bytes()).hexdigest()


def load_expected(workload: str) -> dict:
    """Frozen decision fields by operation id; refuses a stale file."""
    with open(CORPUS_DIR / f"{workload}.expected.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["corpus_sha256"] != bundle_digest(workload):
        raise RuntimeError(f"{workload}.expected.json was frozen from another corpus; "
                           "run bench/freeze.py")
    return doc["ops"]


class Schedule:
    """The operations of each pass, in the fixed item order.

    Pass 0, the warm-up, runs version 0 of every item for every seed, so that
    set-up does the same work in the same order whatever the seed.  ``seed``
    then orders the other versions of each item, and timed pass ``j`` runs the
    ``j``-th of them.  Every pass reads inputs no earlier pass read, so a cache
    keyed by an input cannot make a later pass cheaper than the first.
    """

    def __init__(self, bundle: dict, seed: int):
        rng = random.Random(seed)
        self.items = bundle["items"]
        self.order = [[0] + rng.sample(range(1, len(v)), len(v) - 1) for v in self.items]

    @property
    def passes(self) -> int:
        """Passes with unread inputs, the warm-up included."""
        return min(len(v) for v in self.items)

    def __len__(self) -> int:
        return len(self.items)

    def ops(self, j: int) -> list[dict]:
        return [v[order[j]] for v, order in zip(self.items, self.order)]

    def every_op(self) -> list[dict]:
        return [op for versions in self.items for op in versions]


def write_specs(bundle: dict, ops: list[dict], directory: Path) -> dict[str, str]:
    """Write the spec files the operations read; returns name → path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for op in ops:
        for name in op["args"]:
            if name not in paths:
                path = directory / f"{name}.json"
                path.write_text(json.dumps(bundle["specs"][name], indent=1), encoding="utf-8")
                paths[name] = str(path)
    return paths


def _flag(op: dict, name: str) -> int:
    flags = op["flags"]
    return int(flags[flags.index(name) + 1])


class Runner:
    """Executes operations against an imported ``loopmod``."""

    def __init__(self, paths: dict[str, str]):
        from loopmod import cli, jsonio, realizer

        self.cli = cli
        self.jsonio = jsonio
        self.realizer = realizer
        self.paths = paths

    def run(self, op: dict) -> tuple[float, int, str]:
        """Time one operation; returns (seconds, exit code, raw output)."""
        files = [self.paths[name] for name in op["args"]]
        if op["call"] in LIBRARY_CALLS:
            t0 = time.perf_counter()
            spec = self.jsonio.load_spec(files[0])
            box = self.realizer.twisted_generate_component(spec, _flag(op, "--box"))
            dims = box.dims()
            elapsed = time.perf_counter() - t0
            out = json.dumps({"result": {"fibers": [[list(d), r] for d, r in dims.items()]}})
            return elapsed, 0, out
        argv = [op["call"], *files, *op["flags"]]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - t0
        return elapsed, code, buf.getvalue()


def _collect(value, prefix: str, out: dict) -> None:
    if not isinstance(value, dict):
        return
    for key, sub in value.items():
        path = f"{prefix}{key}"
        if key in DECISION_KEYS:
            out[path] = sub
        else:
            _collect(sub, path + ".", out)


def decision(op: dict, code: int, output: str) -> dict:
    """Decision fields of one outcome, as flat dotted paths."""
    report = json.loads(output)
    fields = {"exit": code}
    if "diagnostics" in report:
        fields["diagnostics"] = [d["type"] for d in report["diagnostics"]]
    result = report.get("result")
    if op["call"] == "support" and result is not None:
        result = {"support": result}
    _collect(result, "", fields)
    return fields


def expectation(op: dict, frozen: dict) -> dict:
    """Frozen decision fields, overridden by independently known ones."""
    return {**frozen.get(op["id"], {}), **op.get("expect", {})}


def mismatches(expected: dict, actual: dict) -> list[str]:
    missing = object()
    return [k for k, v in expected.items() if actual.get(k, missing) != v]


def check(op: dict, expected: dict, code: int, output: str) -> list[str]:
    """Names of the decision fields that differ; empty when correct."""
    if not expected:
        return ["<no expected outcome>"]
    try:
        actual = decision(op, code, output)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"<unreadable report: {exc}>"]
    return mismatches(expected, actual)
