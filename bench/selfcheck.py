"""Smoke check of the benchmark itself (about three minutes).

    python3 bench/selfcheck.py

Checks that
- a fresh generation of the corpus with the default seed matches the files
  in ``bench/corpus`` byte for byte, and every expected-outcome file was
  frozen from the current corpus;
- a deliberately wrong expected outcome in this file's own fixture is
  counted as a failure, and a right one is not;
- runs of every workload print every metric of ``BENCHMARK.json`` by name
  with its unit: end-to-end metrics in a short ``--trace 0`` run, per-layer
  metrics in a whole ``--trace 1`` run;
- a second traced run of each workload, with the same seed, gives identical
  count metrics, and every count metric is positive on some workload, so
  that no compared count is trivially equal.
Exits with 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import ops as O  # noqa: E402
import worker  # noqa: E402

SMOKE_ITEMS = 3


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_corpus() -> None:
    expect(corpus.main(["--check"]) == 0, "corpus files differ from a fresh generation")
    for workload in corpus.WORKLOADS:
        O.load_expected(workload)


# The README's A₂ example: support Z, index 1.
FIXTURE_SPEC = {
    "schema": 1, "algebra": {"series": "A", "rank": 2}, "n": 1, "dims": [2],
    "weights": [{"index": [1], "coords": [1, 0]}, {"index": [2], "coords": [0, 1]}],
    "evals": [[1, {"num": 1, "den": 1, "zeta_pow": 1, "zeta_order": 3}]], "rho": [0],
}


def check_wrong_expectation_fails() -> None:
    right = {"id": "right", "tag": "fixture", "call": "support", "args": ["a"], "flags": [],
             "expect": {"exit": 0, "support.index": 1}}
    wrong = dict(right, id="wrong", expect={"exit": 0, "support.index": 2})
    expected = {op["id"]: op["expect"] for op in (right, wrong)}
    bundle = {"specs": {"a": FIXTURE_SPEC}}
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        runner = O.Runner(O.write_specs(bundle, [right], Path(tmp)))
        out = worker.Outcomes()
        worker.run_pass(runner, [right, wrong], expected, out)
    expect(out.attempted == 2, f"fixture ran {out.attempted} operations, not 2")
    expect(len(out.failures) == 1 and out.failures[0].startswith("wrong "),
           f"the wrong expectation was not the one failure: {out.failures}")


def run(workload: str, trace: int, items: int | None = None, seed: int = 1) -> tuple[str, dict]:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if items is not None:
        argv += ["--items", str(items)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    expect(proc.returncode == 0, f"{workload} --trace {trace} exited {proc.returncode}: "
                                 f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return "\n".join(lines[:-1]), json.loads(lines[-1])


def check_metrics(spec: dict, traced: dict) -> None:
    """Fills ``traced`` with each workload's per-layer metrics."""
    for workload in corpus.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            text, result = run(workload, trace, items=None if trace else SMOKE_ITEMS)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys are {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} --trace {trace}: {result['failed']} of "
                   f"{result['attempted']} operations failed")
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = result["metrics"]
            expect(set(got) == set(wanted),
                   f"{workload} --trace {trace}: metrics differ from BENCHMARK.json: "
                   f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}")
            for name, unit in wanted.items():
                expect(got[name]["unit"] == unit, f"{workload}: {name} has unit {got[name]['unit']}")
                expect(any(line.split()[:1] == [name] and line.split()[-1] == unit
                           for line in text.splitlines()),
                       f"{workload}: no printed line '{name} <value> {unit}'")
            if trace:
                traced[workload] = got
            print(f"  {workload} --trace {trace}: {len(got)} metrics ok")


def check_counts_repeat(spec: dict, traced: dict) -> None:
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload, first in traced.items():
        second = run(workload, 1)[1]["metrics"]
        differ = [n for n in counts if first[n]["value"] != second[n]["value"]]
        expect(not differ, f"{workload}: count metrics differ between two traced runs: {differ}")
        print(f"  {workload}: {len(counts)} counts repeat")
    zero = [n for n in counts if not any(m[n]["value"] > 0 for m in traced.values())]
    expect(not zero, f"count metrics that are 0 on every workload: {zero}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    traced: dict[str, dict] = {}
    checks = (
        ("corpus reproducible, expected outcomes current", check_corpus),
        ("wrong expected outcome counted as a failure", check_wrong_expectation_fails),
        ("every metric printed with its unit", lambda: check_metrics(spec, traced)),
        ("count metrics repeat between traced runs", lambda: check_counts_repeat(spec, traced)),
    )
    for title, check in checks:
        try:
            check()
        except CheckFailed as exc:
            print(f"FAIL {title}: {exc}")
            return 1
        print(f"ok   {title}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
