"""Alternating parent/change benchmark pairs on one or more workloads.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seed S
        [--workload W2 ...] [--round R] [--out FILE]

Pair k runs ``bench/run.py --workload W --seed S+k --seconds 10 --trace 0`` in
each tree, one run at a time, each tree with its own ``bench/run.py``; the
parent runs first in even pairs and the change first in odd ones.  A run whose
``correct`` is false or whose ``failed`` is above 0 stops the tool.  For each
end-to-end metric of ``BENCHMARK.json`` it prints both trees' median and
quartiles, the change's wins (pairs where the change is strictly better;
ties count for neither) and two flags:

* ``claim_met``: the change wins at least nine tenths of the pairs and its
  median is better than the parent's by more than the parent's
  interquartile range, the rule a claimed gain must pass;
* ``within_bound``: the change's median is worse than the parent's by no
  more than the metric's ``bound`` in ``BENCHMARK.json``, as a fraction of
  the parent's median.

The summary is one ``rounds[]`` entry of the ``BENCH_<n>.json`` files,
written to ``--out`` when given.

Both trees must be free of ``__pycache__`` directories, and every run has
``PYTHONDONTWRITEBYTECODE=1`` in its environment: a tree that loads bytecode
against one that compiles every module in each worker skews ``setup_s`` and
``peak_rss_mb``.  The tool names the first such directory and stops before
any run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One run of ``tree``'s own benchmark; its metric values by name."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "10", "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    if proc.returncode or not proc.stdout.strip():
        raise SystemExit(f"{tree} {workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-4000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if not doc["correct"] or doc["failed"] > 0:
        raise SystemExit(f"{tree} {workload} seed {seed}: correct={doc['correct']}, "
                         f"failed={doc['failed']} of {doc['attempted']}\n{proc.stdout}")
    return {"seed": seed, "failed": doc["failed"], "attempted": doc["attempted"],
            "correct": doc["correct"],
            **{name: m["value"] for name, m in doc["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 6), "median": round(median, 6), "q3": round(q3, 6)}


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, sign = metric["name"], (1 if metric["better"] == "higher" else -1)
        a = [r[name] for r in parent]
        b = [r[name] for r in change]
        pq = quartiles(a)
        pm = statistics.median(a)
        gain = sign * (statistics.median(b) - pm)  # > 0: the change is better
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        out[name] = {
            "parent": pq,
            "change": quartiles(b),
            "change_wins": wins,
            "change_vs_parent_median": round((statistics.median(b) - pm) / pm, 6),
            "claim_met": wins >= 0.9 * len(a) and gain > pq["q3"] - pq["q1"],
            "within_bound": -gain <= metric["bound"] * abs(pm),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    for tree in (args.parent, args.change):
        cache = next(tree.rglob("__pycache__"), None)
        if cache is not None:
            parser.error(f"{cache} holds bytecode; compare trees free of __pycache__")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    entry: dict = {"round": args.round, "workloads": []}
    for workload in args.workload:
        seeds = [args.seed + k for k in range(args.pairs)]
        runs: dict = {"parent": [], "change": []}
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(getattr(args, side), workload, seed))
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{side} p90 {runs[side][-1]['latency_p90_ms']:.3f} ms "
                f"{runs[side][-1]['throughput_ops_s']:.0f} ops/s" for side in ("parent", "change")
            ), file=sys.stderr, flush=True)
        summary = summarize(runs["parent"], runs["change"], metrics)
        entry["workloads"].append({
            "name": workload,
            "seeds": seeds,
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
            "summary": summary,
            "runs": runs,
        })
        print(f"{workload}: {args.pairs} pairs, seeds {seeds[0]}-{seeds[-1]}")
        for name, s in summary.items():
            p, c = s["parent"], s["change"]
            print(f"  {name:18s} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
                  f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
                  f"{s['change_vs_parent_median']:+.1%}  wins {s['change_wins']}/{args.pairs}  "
                  f"claim {'met' if s['claim_met'] else 'not met'}  "
                  f"{'within' if s['within_bound'] else 'OUTSIDE'} bound")
    if args.out:
        args.out.write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
