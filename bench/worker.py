"""One workload in a fresh interpreter: set up, warm up, time, check.

Started by ``bench/run.py`` with a JSON job on stdin (``workload``, ``seed``,
``seconds``, ``trace``, ``items``, ``setup_only``, and ``started``, the time
just before the interpreter was started); prints one JSON object on its last
stdout line.  With ``setup_only`` it stops once set up and reports the set-up
time and peak RSS.

Set-up runs from interpreter start to ready: importing ``loopmod``, loading
the corpus, and one untimed warm-up pass over every operation, which fills
the engine's caches (irreps, Φ_L and the residue tables).  The timed part is
a closed loop with one client: whole passes over the operations in their
fixed order (see ``ops.Schedule``), as many as ``seconds`` buys (see
``PASS_SECONDS``), at least four.  A fixed reference kernel runs between
operations; its time around each operation gives the host's speed at that
moment, and every reported time is scaled to the reference speed (see
``REFERENCE_S``).  With ``trace`` set, one pass runs under the span recorder
and, before and after, untraced; the ratio of traced to untraced time is the
tracing overhead.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import ops as O  # noqa: E402

OUT_DIR = BENCH_DIR / "out"
# The reference kernel's time on a host at reference speed.  Every timing is
# reported at that speed: an operation's time is scaled by REFERENCE_S over
# the kernel's time measured around that operation.
REFERENCE_S = 0.0007


_REFERENCE_TABLE = {k: float(k) for k in range(64)}


def reference_kernel() -> None:
    """A fixed stdlib workload: interpreter dispatch, tuple packing, dict
    lookups and float arithmetic.  Its short-lived tuples and floats come from
    the interpreter's free lists, so it leaves the engine's heap, and with it
    the peak RSS, as it found it.  It is part of the benchmark, so no change
    to ``loopmod`` changes its cost."""
    acc = 0.5
    table = _REFERENCE_TABLE
    for i in range(120):
        for j in range(65):
            pair = (i, j)
            acc = acc * 0.999 + table[(pair[0] ^ pair[1]) & 63]


def reference_time() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class Outcomes:
    """Per-pass latencies, the reference time around each operation, and the
    failures of the operations run so far."""

    def __init__(self):
        self.passes: list[list[float]] = []
        self.references: list[list[float]] = []
        self.reference_s = 0.0  # time spent in the reference kernel
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return sum(len(p) for p in self.passes)

    def speed(self) -> float:
        """Host speed over the passes: 1 at reference speed, 0.5 at half."""
        return REFERENCE_S / statistics.median(r for refs in self.references for r in refs)


def run_pass(runner: O.Runner, ops, expected, out: Outcomes, tracer=None) -> float:
    """Run every operation once, with the reference kernel before the first
    and after each; returns the time spent inside operations."""
    latencies, references = [], []
    before = reference_time()
    out.reference_s += before
    for op in ops:
        if tracer is not None:
            tracer.op = out.attempted + len(latencies)
        start = time.perf_counter()
        try:
            elapsed, code, output = runner.run(op)
        except Exception as exc:  # an operation that raises counts as failed
            elapsed = time.perf_counter() - start
            where = traceback.extract_tb(exc.__traceback__)[-1]
            out.failures.append(f"{op['id']} ({op['tag']}): raised {type(exc).__name__}: {exc} "
                                f"at {where.filename}:{where.lineno}")
        else:
            bad = O.check(op, expected[op["id"]], code, output)
            if bad:
                out.failures.append(f"{op['id']} ({op['tag']}): {', '.join(bad)} differ")
        after = reference_time()
        latencies.append(elapsed)
        references.append((before + after) / 2)
        out.reference_s += after
        before = after
    out.passes.append(latencies)
    out.references.append(references)
    return sum(latencies)


MIN_PASSES = 4
# The timed passes are counted, not clocked: ``seconds`` buys one pass per
# PASS_SECONDS (a pass takes about that long at reference speed), up to one
# pass per unread version of the inputs (7 with 8 versions).
PASS_SECONDS = 2.5


def peak_rss_mb() -> float:
    # ru_maxrss carries over the parent's peak across fork and exec, so it is
    # a clean reading only in a process started by a small one (``run.py``).
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(out: Outcomes) -> dict:
    """Each operation's median time over the passes at reference speed, then
    statistics over the operations, so a summary is never one operation's
    time.  The raw figures, unscaled, are kept as a diagnostic."""
    def summary(passes):
        per_op = [statistics.median(times) for times in zip(*passes)]
        deciles = statistics.quantiles(per_op, n=10, method="inclusive")
        return len(per_op) / sum(per_op), 1000 * deciles[4], 1000 * deciles[8]

    scaled = [[t * REFERENCE_S / r for t, r in zip(times, refs)]
              for times, refs in zip(out.passes, out.references)]
    throughput, p50, p90 = summary(scaled)
    return {
        "samples": len(out.passes[0]),
        "throughput_ops_s": throughput,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "raw": dict(zip(("throughput_ops_s", "latency_p50_ms", "latency_p90_ms"),
                        summary(out.passes))),
        "speed": out.speed(),
    }


def traced_pass(runner, schedule, expected, out: Outcomes, span_file: Path) -> dict:
    """Pass 1 under the span recorder, between two untraced runs of pass 1.

    One fixed pass keeps every count identical between runs of one seed; the
    faster untraced run, both at reference speed, is the base of the tracing
    overhead.  The per-layer times are the recorder's own, unscaled."""
    import spans

    run_pass(runner, schedule.ops(1), expected, out)
    tracer = spans.Tracer()
    tracer.install()
    try:
        run_pass(runner, schedule.ops(1), expected, out, tracer)
    finally:
        tracer.uninstall()
    run_pass(runner, schedule.ops(1), expected, out)
    span_file.parent.mkdir(exist_ok=True)
    tracer.write(span_file)
    plain, traced, plain_again = (
        sum(t * REFERENCE_S / r for t, r in zip(times, refs))
        for times, refs in zip(out.passes, out.references))
    return {
        "layers": spans.layer_metrics(tracer),
        "trace_overhead": traced / min(plain, plain_again),
        "speed": out.speed(),
        "spans": tracer.span_count,
        "span_file": str(span_file.relative_to(BENCH_DIR.parent)),
    }


def main() -> int:
    # The job comes on stdin so that the command line, and with it the
    # process's initial memory layout, is the same for every run: the peak
    # RSS of one and the same set-up moves by about 15% with argv's length.
    job = json.loads(sys.stdin.read())
    bundle = O.load_bundle(job["workload"])
    bundle["items"] = bundle["items"][:job["items"]]
    frozen = O.load_expected(job["workload"])
    schedule = O.Schedule(bundle, job["seed"])
    every = schedule.every_op() + bundle["probes"]
    expected = {op["id"]: O.expectation(op, frozen) for op in every}
    run_dir = OUT_DIR / f"specs-{os.getpid()}"
    try:
        # Writing the spec files is the harness's work, not the engine's: a
        # user's spec files are on disk already.  Its time is left out of
        # set-up, as is the reference kernel's.
        start = time.perf_counter()
        needed = schedule.ops(0) if job["setup_only"] else every
        paths = O.write_specs(bundle, needed, run_dir)
        harness_s = time.perf_counter() - start
        runner = O.Runner(paths)
        warm = Outcomes()
        run_pass(runner, schedule.ops(0), expected, warm)
        # Ready: every operation has run once, so the peak RSS includes every
        # cache and every operation's own peak.  Set-up is scaled to reference
        # speed by the host speed over the warm-up.
        raw_setup = time.time() - job["started"] - harness_s - warm.reference_s
        ready = {"setup_s": raw_setup * warm.speed(),
                 "raw_setup_s": raw_setup, "speed": warm.speed(),
                 "peak_rss_mb": peak_rss_mb()}
        if job["setup_only"]:
            print(json.dumps(ready))
            return 0

        out = Outcomes()
        result = {"ops_per_pass": len(schedule), "ready": ready}
        if job["trace"]:
            span_file = OUT_DIR / f"spans-{job['workload']}-seed{job['seed']}.tsv.gz"
            result.update(traced_pass(runner, schedule, expected, out, span_file))
        else:
            passes = max(MIN_PASSES, round(job["seconds"] / PASS_SECONDS))
            for j in range(1, min(passes, schedule.passes - 1) + 1):
                run_pass(runner, schedule.ops(j), expected, out)
            result.update(end_to_end(out))
        result["passes"] = len(out.passes)
        result["pass_seconds"] = [sum(p) for p in out.passes]
        # Memory that grows over the timed passes shows in this reading.
        result["final_rss_mb"] = peak_rss_mb()

        probes = []
        for probe in bundle["probes"]:
            _, code, output = runner.run(probe)
            bad = O.check(probe, expected[probe["id"]], code, output)
            probes.append({"id": probe["id"], "tag": probe["tag"], "expect": probe["expect"],
                           "exit": code, "correct": not bad})
        result.update(
            attempted=out.attempted,
            failed=len(out.failures),
            failures=out.failures[:20],
            warmup_failures=warm.failures[:20],
            probes=probes,
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
