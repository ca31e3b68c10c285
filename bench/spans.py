"""Span recorder for the traced run, installed from outside ``src/``.

``Tracer.install()`` wraps the public functions and methods that mark each
layer boundary of ``loopmod``.  A function is replaced in every loaded
``loopmod`` module that binds it, because callers import names directly
(``cli``, ``classify``, ``twisted`` and ``realizer`` each bind
``support_lattice``); a method is replaced once, on its class.

Every span records its name, start, end, parent span and operation id.  Spans
stay in memory until ``write`` is called at the end of the run.  A layer's
self time is its span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

# (span name, module, attribute) for functions; (span name, module, class,
# method) for methods.  Several entries may share one span name.
FUNCTIONS = (
    ("cli", "loopmod.cli", "main"),
    ("jsonio.load_spec", "loopmod.jsonio", "load_spec"),
    ("jsonio.report", "loopmod.jsonio", "support_to_json"),
    ("jsonio.report", "loopmod.jsonio", "blocks_to_json"),
    ("jsonio.report", "loopmod.jsonio", "descriptor_to_json"),
    ("jsonio.report", "loopmod.jsonio", "twisted_descriptor_to_json"),
    ("jsonio.report", "loopmod.jsonio", "iso_result_to_json"),
    ("psi.support", "loopmod.psi", "support_lattice"),
    ("classify.classify", "loopmod.classify", "classify"),
    ("classify.blocks", "loopmod.classify", "detect_blocks"),
    ("classify.iso", "loopmod.classify", "decide_iso"),
    ("twisted.classify", "loopmod.twisted", "twisted_classify"),
    ("twisted.support", "loopmod.twisted", "twisted_support"),
    ("twisted.iso", "loopmod.twisted", "decide_twisted_iso"),
    ("liealg.restrict_weight", "loopmod.liealg", "restrict_weight"),
    ("realizer.irrep", "loopmod.realizer", "irreducible_module"),
    ("realizer.closure", "loopmod.realizer", "generate_component"),
    ("realizer.closure", "loopmod.realizer", "twisted_generate_component"),
    ("realizer.character", "loopmod.realizer", "fiber_character"),
    ("realizer.character", "loopmod.realizer", "graded_character"),
)
METHODS = (
    ("psi.functional", "loopmod.psi", "Evaluator", "functional"),
    ("lattice.hnf", "loopmod.lattice", "Lattice", "from_generators"),
    ("lattice.contains", "loopmod.lattice", "Lattice", "contains"),
    ("lattice.coset_reps", "loopmod.lattice", "Lattice", "coset_reps"),
    ("twisted.restricted_eval", "loopmod.twisted", "TwistedEvaluator", "restricted_values"),
    ("realizer.echelon_add", "loopmod.realizer", "FieldEchelon", "add"),
    ("realizer.echelon_contains", "loopmod.realizer", "FieldEchelon", "contains"),
    ("cyclotomic.zero_test", "loopmod.cyclotomic", "CycVector", "is_zero"),
    ("cyclotomic.mul", "loopmod.cyclotomic", "CycVector", "__mul__"),
    ("cyclotomic.inverse", "loopmod.cyclotomic", "CycVector", "inverse"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span, in the order spans end.
        self.span_name = array("i")
        self.span_id = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # counters that are not spans
        self.op = -1
        self._next_id = 0
        self._stack: list[list] = []  # [span id, child time]
        self._restore: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, on_result=None):
        """``fn`` wrapped so that every call records one span named ``name``."""
        nid = self.name_id(name)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.self_time[name] += duration - frame[1]
                self.calls[name] += 1
                self.span_name.append(nid)
                self.span_id.append(sid)
                self.span_parent.append(parent)
                self.span_op.append(self.op)
                self.span_start.append(start)
                self.span_end.append(end)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _counted(fn, on_result):
        """``fn`` wrapped to pass each result to ``on_result``, without a span."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result)
            return result

        return wrapper

    def _rebind(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "loopmod" and not name.startswith("loopmod."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self) -> None:
        import loopmod  # noqa: F401  (loads every submodule)

        counts = self.counts

        def count_candidates(result):
            counts["classify.iso_candidates"] += len(result)

        def count_accepted(result):
            if result is not None:
                counts["realizer.echelon_accepted"] += 1

        def count_vector(_):
            counts["cyclotomic.vectors_built"] += 1

        hooks = {"realizer.echelon_add": count_accepted}
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            self._rebind(original, self.span(name, original, hooks.get(name)))
        candidates = sys.modules["loopmod.classify"].axis_candidates
        self._rebind(candidates, self._counted(candidates, count_candidates))
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.span(name, raw.__func__, hooks.get(name)))
            else:
                wrapped = self.span(name, raw, hooks.get(name))
            setattr(cls, attr, wrapped)
            self._restore.append((cls, attr, raw))
        cyc = sys.modules["loopmod.cyclotomic"].CycVector
        init = vars(cyc)["__init__"]
        # Construction is too hot to time; it is counted only.
        setattr(cyc, "__init__", self._counted(init, count_vector))
        self._restore.append((cyc, "__init__", init))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @property
    def span_count(self) -> int:
        return len(self.span_id)

    def write(self, path) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.span_id)):
                fh.write(
                    f"{self.span_id[i]}\t{self.span_parent[i]}\t{self.span_op[i]}\t"
                    f"{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the traced pass: counts and summed self times."""
    s = tracer.self_time
    n = tracer.calls
    c = tracer.counts
    inserts = n.get("realizer.echelon_add", 0)
    accepted = c.get("realizer.echelon_accepted", 0)
    return {
        "cli.self_s": s.get("cli", 0.0),
        "jsonio.load_spec_calls": n.get("jsonio.load_spec", 0),
        "jsonio.load_spec_s": s.get("jsonio.load_spec", 0.0),
        "jsonio.report_s": s.get("jsonio.report", 0.0),
        "psi.support_calls": n.get("psi.support", 0),
        "psi.support_s": s.get("psi.support", 0.0),
        "psi.functional_evals": n.get("psi.functional", 0),
        "psi.functional_s": s.get("psi.functional", 0.0),
        "lattice.hnf_calls": n.get("lattice.hnf", 0),
        "lattice.hnf_s": s.get("lattice.hnf", 0.0),
        "lattice.contains_calls": n.get("lattice.contains", 0),
        "lattice.contains_s": s.get("lattice.contains", 0.0),
        "lattice.coset_reps_s": s.get("lattice.coset_reps", 0.0),
        "classify.classify_s": s.get("classify.classify", 0.0),
        "classify.blocks_s": s.get("classify.blocks", 0.0),
        "classify.iso_s": s.get("classify.iso", 0.0),
        "classify.iso_candidates": c.get("classify.iso_candidates", 0),
        "twisted.classify_s": s.get("twisted.classify", 0.0),
        "twisted.support_s": s.get("twisted.support", 0.0),
        "twisted.restricted_evals": n.get("twisted.restricted_eval", 0),
        "twisted.restricted_eval_s": s.get("twisted.restricted_eval", 0.0),
        "twisted.iso_s": s.get("twisted.iso", 0.0),
        "liealg.restrict_weight_calls": n.get("liealg.restrict_weight", 0),
        "liealg.restrict_weight_s": s.get("liealg.restrict_weight", 0.0),
        "realizer.irrep_calls": n.get("realizer.irrep", 0),
        "realizer.irrep_s": s.get("realizer.irrep", 0.0),
        "realizer.closures": n.get("realizer.closure", 0),
        "realizer.closure_s": s.get("realizer.closure", 0.0),
        "realizer.echelon_inserts": inserts,
        "realizer.echelon_accepted": accepted,
        "realizer.echelon_accept_ratio": accepted / inserts if inserts else 0.0,
        "realizer.echelon_s": s.get("realizer.echelon_add", 0.0)
        + s.get("realizer.echelon_contains", 0.0),
        "realizer.character_s": s.get("realizer.character", 0.0),
        "cyclotomic.vectors_built": c.get("cyclotomic.vectors_built", 0),
        "cyclotomic.zero_tests": n.get("cyclotomic.zero_test", 0),
        "cyclotomic.zero_test_s": s.get("cyclotomic.zero_test", 0.0),
        "cyclotomic.muls": n.get("cyclotomic.mul", 0),
        "cyclotomic.mul_s": s.get("cyclotomic.mul", 0.0),
        "cyclotomic.inverses": n.get("cyclotomic.inverse", 0),
        "cyclotomic.inverse_s": s.get("cyclotomic.inverse", 0.0),
    }
