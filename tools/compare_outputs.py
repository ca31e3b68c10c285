"""Compare two source trees' answers on every operation of the bench corpus.

    python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR

Each tree runs every version of every corpus operation through its own
``bench/ops.Runner``, in one fresh interpreter per tree, and records each
operation's exit code and the SHA-256 of its stdout.  Operations are keyed
``workload/id``, since ids repeat across workloads.  The change tree then
runs again in a fresh interpreter with the whole sequence reversed (the
workloads and the operations within each), so that an answer that depends
on what ran before it, through a cache for instance, shows.  Prints the
operations whose exit code or digest differ between the trees, and those
whose reversed run differs from the change's forward run, and exits 0 only
if there are none.  No run writes bytecode, so both trees stay fit for
``tools/bench_pairs.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

# Runs inside one tree, in reverse order when its second argument is "1";
# prints {"workload/id": [exit code, stdout SHA-256]}.
_DIGESTS = r"""
import hashlib, json, sys, tempfile
from pathlib import Path

tree = Path(sys.argv[1]).resolve()
backward = sys.argv[2] == "1"
sys.path[:0] = [str(tree / "bench"), str(tree / "src")]
import corpus
import ops as O

def ordered(seq):
    return list(reversed(seq)) if backward else list(seq)

out = {}
for workload in ordered(corpus.WORKLOADS):
    bundle = O.load_bundle(workload)
    every = [op for versions in bundle["items"] for op in versions]
    with tempfile.TemporaryDirectory() as tmp:
        runner = O.Runner(O.write_specs(bundle, every, Path(tmp)))
        for op in ordered(every):
            _, code, output = runner.run(op)
            out[f"{workload}/{op['id']}"] = [code, hashlib.sha256(output.encode()).hexdigest()]
print(json.dumps(out))
"""


def digests(tree: str, backward: bool = False) -> dict[str, list]:
    proc = subprocess.run(
        [sys.executable, "-c", _DIGESTS, tree, "1" if backward else "0"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    if proc.returncode:
        raise SystemExit(f"{tree}: digest run failed\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = (digests(tree) for tree in argv)
    differ = []
    for key in sorted(parent.keys() | change.keys()):
        a, b = parent.get(key), change.get(key)
        if a != b:
            differ.append(key)
            print(f"{key}: parent {a}, change {b}")
    print(f"{len(differ)} of {len(parent.keys() | change.keys())} operations differ")
    reverse = digests(argv[1], backward=True)
    unstable = [key for key in sorted(change.keys() | reverse.keys())
                if change.get(key) != reverse.get(key)]
    for key in unstable:
        print(f"{key}: forward {change.get(key)}, reversed {reverse.get(key)}")
    print(f"{len(unstable)} of {len(change.keys() | reverse.keys())} operations "
          "depend on the order they run in")
    return 1 if differ or unstable else 0


if __name__ == "__main__":
    raise SystemExit(main())
