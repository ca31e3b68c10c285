"""Batch front-end: parse spec files, dispatch, emit deterministic reports.

Exit codes: 0 success or witness; 1 criteria not satisfied or verification
mismatch; otherwise the ``exit_code`` of the ``EngineError`` raised, which is
2 for malformed input or a resource cap and 3 for the typed structure errors
(trivial module, missing axis period, support closure failure, block or type
violations, restricted-image mismatch).  Any other exception is reported as
an ``InternalError`` diagnostic (exit 4), never as a traceback.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import traceback
from json.encoder import encode_basestring_ascii

from . import realizer
from .classify import classify, decide_iso, detect_blocks
from .errors import CapExceededError, EngineError, InputError, InternalError
from .jsonio import (
    blocks_to_json,
    descriptor_to_json,
    iso_result_to_json,
    load_spec,
    read_spec,
    support_to_json,
    twisted_descriptor_to_json,
)
from .psi import PsiSpec, support_lattice
from .twisted import (
    TwistedSpec,
    check_complete_reducibility,
    decide_twisted_iso,
    twisted_classify,
)

def _base(spec) -> PsiSpec:
    return spec.base if isinstance(spec, TwistedSpec) else spec


def _need_twisted(spec, command: str) -> TwistedSpec:
    if not isinstance(spec, TwistedSpec):
        raise InputError(f"'{command}' needs a spec with an 'aut' block")
    return spec


def _indented_json(x, level: int = 0) -> str:
    """``json.dumps(x, sort_keys=True, indent=2)``, nested ``level`` deep.
    With ``indent`` set, ``json`` runs its pure-Python encoder; this walks
    non-empty lists and dicts itself, quotes strings with the C
    ``encode_basestring_ascii``, writes ints with ``repr`` as ``json`` does, and
    hands every other value to ``json.dumps``, so floats and errors are
    exactly as there.  Every dict key is a string: report keys are literals
    or keyword names, and diagnostic data comes from JSON."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if type(x) is int:
        return repr(x)
    inner = "\n" + "  " * (level + 1)
    if isinstance(x, (list, tuple)) and x:
        return "[" + inner + ("," + inner).join(
            _indented_json(v, level + 1) for v in x
        ) + inner[:-2] + "]"
    if isinstance(x, dict) and x:
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": " + _indented_json(v, level + 1)
            for k, v in sorted(x.items())
        ) + inner[:-2] + "}"
    return json.dumps(x)


def _emit(report: dict, output: str) -> None:
    if output == "json":
        sys.stdout.write(_indented_json(report) + "\n")
        return
    sys.stdout.write(f"command: {report['command']}\n")
    for diag in report.get("diagnostics", []):
        sys.stdout.write(f"error[{diag['type']}]: {diag['message']}\n")
    result = report.get("result")
    if result is not None:
        sys.stdout.write(_indented_json(result) + "\n")


def _verify_report(spec: PsiSpec, box: int, cap: int) -> dict:
    descriptor = classify(spec)
    support = descriptor.support
    boxes = realizer.component_decomposition(spec, support, box, cap=cap)
    fin = boxes[0].fin
    audit = realizer.audit_decomposition(boxes)
    lat = support.lattice
    # An untwisted closure's classes are the weights, and the top weight's
    # class is the highest-weight vector alone.
    top = fin.basis_weights[fin.hw_index]
    table = []
    per_coset: dict = {}
    periodic_ok = top_ok = True
    for deg, ranks in audit.fiber_dims:
        table.extend(
            {"component": ci, "degree": list(deg), "dim": rank}
            for ci, rank in enumerate(ranks)
            if rank
        )
        periodic_ok &= per_coset.setdefault(lat.residue(deg), ranks[0]) == ranks[0]
        mult = dict(realizer.fiber_character(boxes[0], deg)).get(top, 0)
        top_ok &= mult == (1 if lat.contains(deg) else 0)

    checks = {
        "component_count": len(boxes) == descriptor.p,
        "fibers_disjoint": not audit.overlaps,
        "degree_sums": not audit.shortfalls,
        "support_periodicity": periodic_ok,
        "top_weight_support": top_ok,
    }
    return {
        "box": box,
        "module_dimension": fin.total,
        "expected_components": descriptor.p,
        "components": len(boxes),
        "support": support_to_json(support),
        "fiber_dims": table,
        "checks": checks,
        "ok": all(checks.values()),
    }


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    # One tree for every call: a fresh one per call is about 30 KB of cyclic
    # garbage, so batch callers' memory would follow the collector's timing.
    parser = argparse.ArgumentParser(
        prog="loopmod",
        description="classify and compare graded loop-module evaluation data",
    )
    parser.add_argument("--output", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, nargs=1, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if nargs == 1:
            p.add_argument("spec", help="path to a spec JSON file")
        else:
            p.add_argument("left", help="path to the first spec JSON file")
            p.add_argument("right", help="path to the second spec JSON file")
        return p

    add("support", help="support lattice of the degree functional")
    add("classify", help="full untwisted classification")
    add("blocks", help="per-axis orbit block structure")
    iso = add("iso", nargs=2, help="untwisted isomorphism decision")
    iso.add_argument(
        "--refute-box",
        type=int,
        default=None,
        help="attach a graded-character comparison on this box when unsatisfied",
    )
    add("twisted-classify", help="twisted classification (needs an 'aut' block)")
    add("twisted-iso", nargs=2, help="twisted isomorphism decision")
    add("reducibility", help="complete-reducibility check of the restriction")
    verify = add("verify", help="realize components and audit the classification")
    verify.add_argument("--box", type=int, default=3, help="degree box radius")
    verify.add_argument("--cap", type=int, default=64, help="dimension cap")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report: dict = {"schema": 1, "command": args.command, "diagnostics": []}
    exit_code = 0
    try:
        paths = [args.spec] if "spec" in args else [args.left, args.right]
        raws = [read_spec(p) for p in paths]
        report["input_digest"] = hashlib.sha256(b"".join(raws)).hexdigest()
        radius = vars(args).get("box", vars(args).get("refute_box"))
        if radius is not None and radius < 0:
            raise InputError("degree box radius must be non-negative", radius=radius)
        spec = load_spec(paths[0], raws[0])

        if args.command == "support":
            support = support_lattice(_base(spec))
            report["result"] = support_to_json(support)
        elif args.command == "classify":
            report["result"] = descriptor_to_json(classify(_base(spec)))
        elif args.command == "blocks":
            base = _base(spec)
            support = support_lattice(base)
            report["result"] = {
                "support": support_to_json(support),
                "blocks": blocks_to_json(detect_blocks(base, support)),
            }
        elif args.command == "iso":
            other = _base(load_spec(paths[1], raws[1]))
            # A witness fixes the right spec's classification (classify.py),
            # so it is classified only when there is none, for its errors.
            res = decide_iso(classify(_base(spec)), other)
            if not res:
                classify(other)
                exit_code = 1
            payload = iso_result_to_json(res)
            if not res and args.refute_box is not None:
                payload["characters_differ"] = _characters_differ(
                    _base(spec), other, args.refute_box
                )
            report["result"] = payload
        elif args.command == "twisted-classify":
            tspec = _need_twisted(spec, args.command)
            report["result"] = twisted_descriptor_to_json(twisted_classify(tspec))
        elif args.command == "twisted-iso":
            other = load_spec(paths[1], raws[1])
            t1 = _need_twisted(spec, args.command)
            t2 = _need_twisted(other, args.command)
            res = decide_twisted_iso(twisted_classify(t1), t2)
            if not res:
                twisted_classify(t2)
                exit_code = 1
            report["result"] = iso_result_to_json(res)
        elif args.command == "reducibility":
            tspec = _need_twisted(spec, args.command)
            ok, reason = check_complete_reducibility(tspec)
            report["result"] = {"completely_reducible": ok, "reason": reason}
        elif args.command == "verify":
            report["result"] = _verify_report(_base(spec), args.box, args.cap)
            if not report["result"]["ok"]:
                exit_code = 1
    except Exception as exc:
        if not isinstance(exc, EngineError):
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
            name = type(exc).__name__
            exc = InternalError(f"{name}: {exc}", exception=name, where=where)
        report["diagnostics"].append(_diag(exc))
        exit_code = exc.exit_code

    _emit(report, args.output)
    return exit_code


def _diag(exc: EngineError) -> dict:
    # ``_indented_json`` writes tuples as arrays and sorts keys; JSON has no sets.
    data = {k: list(v) if isinstance(v, set) else v for k, v in exc.data.items()}
    return {"type": type(exc).__name__, "message": str(exc), "data": data}


def _characters_differ(a: PsiSpec, b: PsiSpec, box: int):
    try:
        ca = realizer.graded_character(a, box)
        cb = realizer.graded_character(b, box)
    except CapExceededError:
        return None
    if ca == cb:
        return False
    # Characters are a necessary invariant up to a degree shift.
    deltas = set()
    for da in ca:
        for db in cb:
            deltas.add(tuple(x - y for x, y in zip(db, da)))
    for delta in sorted(deltas):
        shifted = {
            tuple(x + y for x, y in zip(deg, delta)): val for deg, val in ca.items()
        }
        overlap = set(shifted) & set(cb)
        if overlap and all(shifted[d] == cb[d] for d in overlap):
            return False
    return True


if __name__ == "__main__":
    raise SystemExit(main())
