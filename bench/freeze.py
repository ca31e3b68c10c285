"""Freeze the engine's decision fields for every operation of the corpus.

    python3 bench/freeze.py [WORKLOAD ...]

Writes ``bench/corpus/<workload>.expected.json``: operation id → decision
fields.  Where an operation carries an independently known expectation and
the engine disagrees with it, only the independent fields are stored, so a
wrong answer is never frozen; such operations are listed as known defects.
Run it after regenerating the corpus, on a commit whose answers are trusted.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import corpus  # noqa: E402
import ops as O  # noqa: E402


def freeze(workload: str) -> list[str]:
    bundle = O.load_bundle(workload)
    every = [op for versions in bundle["items"] for op in versions] + bundle["probes"]
    defects = []
    frozen = {}
    total = 0.0
    with tempfile.TemporaryDirectory(dir=O.BENCH_DIR) as tmp:
        runner = O.Runner(O.write_specs(bundle, every, Path(tmp)))
        for op in every:
            elapsed, code, output = runner.run(op)
            total += elapsed
            fields = O.decision(op, code, output)
            independent = op.get("expect", {})
            if O.mismatches(independent, fields):
                defects.append(f"{workload} {op['id']} ({op['tag']}): expected "
                               f"{independent}, engine gave exit {code}")
                frozen[op["id"]] = dict(independent)
            else:
                frozen[op["id"]] = fields
    path = O.CORPUS_DIR / f"{workload}.expected.json"
    path.write_bytes(corpus.render({"corpus_sha256": O.bundle_digest(workload), "ops": frozen}))
    print(f"wrote {path.name}: {len(frozen)} operations, {total:.2f} s of engine time")
    return defects


def main(argv=None) -> int:
    workloads = (argv if argv is not None else sys.argv[1:]) or list(corpus.WORKLOADS)
    defects = [d for w in workloads for d in freeze(w)]
    for line in defects:
        print("known defect:", line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
