"""The benchmark's traced run wraps ``loopmod`` functions and methods by name
(``bench/spans.py``); renaming one of them would break ``--trace 1``.  The
metrics ``BENCHMARK.json`` declares and the frozen answers of each workload
must also match what the harness reports and reads."""

import importlib
import importlib.util
import json
from pathlib import Path

from helpers import A2, A2_FLIP, spec

ROOT = Path(__file__).resolve().parent.parent


def _bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    return _bench("spans")


def test_every_traced_function_exists():
    for _, module, attr in _spans().FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_traced_functions_are_distinct_objects():
    # The tracer rebinds by identity: an alias of another traced function
    # would be wrapped twice and its spans counted twice.
    targets = {}
    for _, module, attr in _spans().FUNCTIONS:
        fn = getattr(importlib.import_module(module), attr)
        assert targets.setdefault(id(fn), (module, attr)) == (module, attr), (module, attr)


def test_every_traced_method_is_defined_on_its_class():
    for _, module, cls_name, attr in _spans().METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        # The tracer replaces ``vars(cls)[attr]``, so an inherited method fails.
        assert attr in vars(cls), (module, cls_name, attr)


def test_tracer_installs_and_restores():
    spans = _spans()
    realizer = importlib.import_module("loopmod.realizer")
    add = realizer.FieldEchelon.add
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert realizer.FieldEchelon.add is not add
    finally:
        tracer.uninstall()
    assert realizer.FieldEchelon.add is add


def test_tracer_counts_the_twisted_axis1_candidates_too():
    # The twisted search draws its axis-1 candidates from
    # ``classify.axis_candidates`` too, with the k-th roots of unity; the
    # candidate counter must see those calls as well, and uninstalling must
    # restore the module-level binding it replaced.
    classify = importlib.import_module("loopmod.classify")
    twisted = importlib.import_module("loopmod.twisted")
    candidates = classify.axis_candidates
    t = twisted.TwistedSpec(base=spec(A2, (2,), {(1,): (1, 0), (2,): (0, 1)}, [(1, 2)]), aut=A2_FLIP)
    d = twisted.twisted_classify(t)
    tracer = _spans().Tracer()
    tracer.install()
    try:
        assert classify.axis_candidates is not candidates
        assert twisted.decide_twisted_iso(d, t)
    finally:
        tracer.uninstall()
    assert classify.axis_candidates is candidates
    assert tracer.calls["twisted.iso"] == 1
    assert tracer.counts["classify.iso_candidates"] >= 1


def test_declared_layer_metrics_are_the_ones_the_trace_reports():
    # ``BENCHMARK.json`` names the per-layer metrics; the traced run reports
    # ``layer_metrics`` plus the tracing overhead it measures itself.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spans = _spans()
    reported = set(spans.layer_metrics(spans.Tracer())) | {"trace.overhead"}
    assert {m["name"] for m in declared["per_layer"]} == reported


def test_every_workload_has_current_frozen_answers():
    # ``load_expected`` refuses answers frozen from another corpus.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ops = _bench("ops")
    for workload in declared["workloads"]:
        assert ops.load_expected(workload["name"]), workload["name"]
