"""Time two source trees against each other in one interpreter.

    python3 tools/inprocess_ab.py PARENT_DIR CHANGE_DIR --workload W [--reps N] [--items N]

Each tree's ``src/loopmod`` is imported under its own package name
(``loopmod_parent``, ``loopmod_change``), so the two keep separate caches.
The operations are every version of every item of the workload (the first
``--items`` items only, when given), run through this repository's
``bench/ops.Runner``.  One untimed pass runs each operation on both trees and
compares exit code and stdout.  Then ``--reps`` timed rounds run each
operation on both trees in turn, the parent first in even rounds and the
change first in odd ones.  An operation's time is its minimum over the
rounds.  Prints each tree's total, p50 and p90 over the operations, in
unscaled milliseconds on this host, and the change-to-parent ratios; under
them, one line per (call, tag) pair of the operations, in sorted order, with
its operation count, each tree's total and the ratio, so that a saving shows
where it lands.  Exits 1 if any operation's exit code or stdout differs
between the trees.

Nothing here is scaled to a reference speed, so the ratios, not the
milliseconds, are the result; one interpreter sees one host speed at a time
for both trees.  No bytecode is written.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_tree(tree: Path, name: str):
    """``tree``'s ``src/loopmod`` as the package ``name``, with the modules
    ``bench/ops.Runner`` reads imported."""
    for loaded in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[loaded]
    init = tree / "src" / "loopmod" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("cli", "jsonio", "realizer"):
        importlib.import_module(f"{name}.{module}")
    return package


def runner_for(ops, package, paths):
    # ``ops.Runner`` imports ``loopmod`` by name; it gets ``package``.
    saved = sys.modules.get("loopmod")
    sys.modules["loopmod"] = package
    try:
        return ops.Runner(paths)
    finally:
        if saved is None:
            del sys.modules["loopmod"]
        else:
            sys.modules["loopmod"] = saved


def summary(times: list[float]) -> dict:
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {"total": 1000 * sum(times), "p50": 1000 * deciles[4], "p90": 1000 * deciles[8]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--items", type=int, default=None)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    import ops

    bundle = ops.load_bundle(args.workload)
    every = [op for versions in bundle["items"][:args.items] for op in versions]
    if len(every) < 2:
        parser.error("the workload needs at least two operations")
    with tempfile.TemporaryDirectory() as tmp:
        paths = ops.write_specs(bundle, every, Path(tmp))
        runners = {side: runner_for(ops, load_tree(getattr(args, side), f"loopmod_{side}"), paths)
                   for side in SIDES}
        differ = []
        for op in every:
            outcomes = {side: runners[side].run(op)[1:] for side in SIDES}
            if outcomes["parent"] != outcomes["change"]:
                differ.append(op["id"])
                print(f"{op['id']} ({op['tag']}): exit {outcomes['parent'][0]} vs "
                      f"{outcomes['change'][0]}, stdout differs", file=sys.stderr)
        best = {side: [float("inf")] * len(every) for side in SIDES}
        for rep in range(args.reps):
            order = SIDES if rep % 2 == 0 else SIDES[::-1]
            for k, op in enumerate(every):
                for side in order:
                    best[side][k] = min(best[side][k], runners[side].run(op)[0])
    stats = {side: summary(best[side]) for side in SIDES}
    print(f"workload {args.workload}: {len(every)} operations, minimum of {args.reps} "
          "rounds, unscaled ms")
    for name in ("total", "p50", "p90"):
        p, c = stats["parent"][name], stats["change"][name]
        print(f"  {name:6s} parent {p:10.3f}  change {c:10.3f}  change/parent {c / p:.4f}")
    groups: dict = {}
    for k, op in enumerate(every):
        groups.setdefault((op["call"], op["tag"]), []).append(k)
    print("total by call/tag:")
    for (call, tag), ks in sorted(groups.items()):
        p, c = (1000 * sum(best[side][k] for k in ks) for side in SIDES)
        print(f"  {call + '/' + tag:32s} {len(ks):5d} ops  parent {p:10.3f}  change {c:10.3f}  "
              f"change/parent {c / p:.4f}")
    print(f"{len(differ)} of {len(every)} operations differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
