"""The benchmark's traced run wraps ``loopmod`` functions and methods by name
(``bench/spans.py``); renaming one of them would break ``--trace 1``."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    # The twisted axis-1 candidates come from ``classify.axis_candidates``,
    # which ``twisted`` binds under the same name; the candidate counter must
    # see those calls as well.
    spans = _spans()
    classify = importlib.import_module("loopmod.classify")
    twisted = importlib.import_module("loopmod.twisted")
    candidates = classify.axis_candidates
    assert twisted.axis_candidates is candidates
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert twisted.axis_candidates is not candidates
        assert twisted.axis_candidates is classify.axis_candidates
    finally:
        tracer.uninstall()
    assert twisted.axis_candidates is candidates
    assert classify.axis_candidates is candidates
