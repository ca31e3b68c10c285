"""loopmod benchmark: one workload per call, in fresh interpreters.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: classify-corpus, decide, realize, wide-field (see bench/README.md).
Standard library only.  The command starts ``bench/worker.py`` three times:
once to set up and run the timed loop, and before and after that once each
to measure set-up alone.  The reported ``setup_s`` is the median of the three
set-ups.  ``peak_rss_mb`` is the smallest of their peak RSS once ready, or the
timed run's peak at its end if that is larger.  Times are scaled to the
reference speed of ``worker.REFERENCE_S``.  Every operation's decision fields
are checked against the expected outcome.

Human-readable lines come first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("classify-corpus", "decide", "realize", "wide-field")
# Every run must end within 180 s.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "trace.overhead":
        return "ratio"
    return "count"


class WorkerError(RuntimeError):
    pass


def start_worker(args, deadline: float, setup_only: bool = False) -> dict:
    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "items": args.items, "setup_only": setup_only,
           "started": time.time()}
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py")], cwd=ROOT,
                              input=json.dumps(job), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"the run exceeded its {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--items", type=int, default=None,
                        help="run only the first N operations of the workload (smoke checks)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "loopmod" / "__init__.py").is_file():
        print("bench: no loopmod sources under src/; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    corpus = BENCH_DIR / "corpus"
    for suffix in (".json", ".expected.json"):
        if not (corpus / f"{args.workload}{suffix}").is_file():
            print(f"bench: missing corpus file {args.workload}{suffix}", file=sys.stderr)
            return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            result = start_worker(args, deadline)
        else:
            # Set-up is measured in three fresh interpreters: one alone before
            # the run, the run's own, and one alone after it.
            ready = [start_worker(args, deadline, setup_only=True)]
            result = start_worker(args, deadline)
            ready += [result["ready"], start_worker(args, deadline, setup_only=True)]
            setups = [r["setup_s"] for r in ready]
            peaks = [r["peak_rss_mb"] for r in ready]
            final_rss = result["final_rss_mb"]
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        values = dict(result["layers"])
        values["trace.overhead"] = result["trace_overhead"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = {
            "throughput_ops_s": result["throughput_ops_s"],
            "latency_p50_ms": result["latency_p50_ms"],
            "latency_p90_ms": result["latency_p90_ms"],
            "setup_s": statistics.median(setups),
            # Allocator layout only ever adds to a peak; the smallest of three
            # identical interpreters is the steadiest reading at ready.  The
            # timed run's own peak at its end catches growth over the passes.
            "peak_rss_mb": max(min(peaks), final_rss),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']} x {result['ops_per_pass']} ops")
    if not args.trace:
        print(f"  timings: each operation's median of {result['passes']} passes at reference "
              f"speed; percentiles over {result['samples']} operations")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':34s} {failed / attempted:.6g} ratio  ({failed} of {attempted} ops)")
    print(f"  pass times (s): {', '.join(f'{s:.3f}' for s in result['pass_seconds'])}")
    if args.trace:
        print(f"  spans recorded: {result['spans']} (written to {result['span_file']}); "
              f"host speed (diagnostic, 1 = reference): {result['speed']:.3f}")
    else:
        raw = result["raw"]
        speeds = ", ".join(f"{r['speed']:.3f}" for r in ready)
        raw_setups = ", ".join(f"{r['raw_setup_s']:.3f}" for r in ready)
        print(f"  host speed (diagnostic, reference kernel; 1 = reference): timed passes "
              f"{result['speed']:.3f}, set-ups {speeds}")
        print(f"  unscaled (diagnostic): throughput {raw['throughput_ops_s']:.4g} ops/s, p50 "
              f"{raw['latency_p50_ms']:.4g} ms, p90 {raw['latency_p90_ms']:.4g} ms, "
              f"set-ups {raw_setups} s")
        print(f"  setup runs at reference speed (s): {', '.join(f'{s:.3f}' for s in setups)}; "
              f"peak RSS at ready (MB): {', '.join(f'{m:.1f}' for m in peaks)}; "
              f"at the end of the run: {final_rss:.1f}")
    for line in result["warmup_failures"] + result["failures"]:
        print(f"  FAILED {line}")
    for probe in result["probes"]:
        state = "ok" if probe["correct"] else "KNOWN DEFECT"
        print(f"  probe {probe['tag']}: expected {probe['expect']}, got exit {probe['exit']}: {state}")

    correct = failed == 0 and not result["warmup_failures"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
