"""Batch front-end: read the command line, parse spec files, dispatch, emit
deterministic reports.

A command line of the plain form ``COMMAND PATH... [--opt N]...`` is read
directly; argparse, imported on first use, reads every other form.

Exit codes: 0 success or witness; 1 criteria not satisfied or verification
mismatch; otherwise the ``exit_code`` of the ``EngineError`` raised, which is
2 for malformed input or a resource cap and 3 for the typed structure errors
(trivial module, missing axis period, support closure failure, block or type
violations, restricted-image mismatch).  Any other exception is reported as
an ``InternalError`` diagnostic (exit 4), never as a traceback.  A usage
error of the command line exits 2 before any report, with the usage on
stderr.
"""

from __future__ import annotations

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
from .psi import box_scan_order, support_lattice
from .spec import PsiSpec, TwistedSpec, table_indices
from .twisted import (
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


def _indented_json(x) -> str:
    """``json.dumps(x, sort_keys=True, indent=2)``.  With ``indent`` set,
    ``json`` runs its pure-Python encoder; this walks the lists and dicts
    itself and joins the pieces once.  Every dict key is a string: report
    keys are literals or keyword names, and diagnostic data comes from
    JSON."""
    out: list = []
    _write_json(x, out, "\n")
    return "".join(out)


_LITERALS = {None: "null", True: "true", False: "false"}


def _write_json(x, out: list, newline: str) -> None:
    # Appends ``x`` to ``out``, ``newline`` being the line break and indent
    # of its own level.  A member that is a str or an int is written inline,
    # with the C ``encode_basestring_ascii`` and with ``repr`` as ``json``
    # does; only containers recurse.  ``true``, ``false`` and ``null`` are
    # written here too, and ``json.dumps`` writes every other value, so
    # floats and errors are exactly as there.
    if isinstance(x, dict):
        brackets, members = "{}", sorted(x.items())
    elif isinstance(x, (list, tuple)):
        brackets, members = "[]", x
    else:
        out.append(encode_basestring_ascii(x) if isinstance(x, str)
                   else repr(x) if type(x) is int
                   else _LITERALS[x] if x is None or type(x) is bool
                   else json.dumps(x))
        return
    if not members:
        out.append(brackets)
        return
    inner = newline + "  "
    comma = "," + inner
    sep = brackets[0] + inner
    keyed = brackets == "{}"
    for v in members:
        if keyed:
            k, v = v
            head = sep + encode_basestring_ascii(k) + ": "
        else:
            head = sep
        if type(v) is int:
            out.append(head + repr(v))
        elif type(v) is str:
            out.append(head + encode_basestring_ascii(v))
        else:
            out.append(head)
            _write_json(v, out, inner)
        sep = comma
    out.append(newline + brackets[1])


def _render(report: dict, output: str) -> str:
    """The report as ``output`` writes it to stdout."""
    try:
        if output == "json":
            return _indented_json(report) + "\n"
        lines = [f"command: {report['command']}\n"]
        lines += [f"error[{d['type']}]: {d['message']}\n" for d in report["diagnostics"]]
        if report.get("result") is not None:
            lines.append(_indented_json(report["result"]) + "\n")
        return "".join(lines)
    except ValueError:
        # The one ValueError that dicts, lists, strings, numbers and None
        # raise on the way out: an int longer than ``repr`` may write.
        limit = sys.get_int_max_str_digits()
        raise CapExceededError(
            "an integer in the report has more digits than the limit for writing one",
            digit_limit=limit,
        ) from None


def _seeds(lat, box: int) -> list:
    """One seed degree per coset of ``lat`` inside the realizer's working box
    ``[-w, w]ⁿ``, w = box + ``realizer.MARGIN``: the coset representative
    when it lies there, and otherwise the coset's first degree in
    ``box_scan_order`` (least max-norm)."""
    work = box + realizer.MARGIN
    seeds, scan = [], None
    for rep in lat.coset_reps():
        if max(map(abs, rep)) <= work:
            seeds.append(rep)
            continue
        if scan is None:
            scan = box_scan_order(lat.n, work)
        residue = lat.residue(rep)
        seed = next((m for m in scan if lat.residue(m) == residue), None)
        if seed is None:
            raise InputError(
                "a coset of the support has no degree in the working box",
                box=box, working_box=work, coset=rep,
            )
        seeds.append(seed)
    return seeds


def _verify_report(spec: PsiSpec, box: int, cap: int) -> dict:
    # The cap is checked before the support, which can cost far more.
    realizer.check_tensor(spec.algebra, [spec.weights[I] for I in table_indices(spec.dims)], cap)
    descriptor = classify(spec)
    support = descriptor.support
    lat = support.lattice
    boxes = realizer.component_decomposition(spec, _seeds(lat, box), box, cap=cap)
    fin = boxes[0].fin
    audit = realizer.audit_decomposition(boxes)
    # An untwisted closure's classes are the weights, and the top weight's
    # class is the highest-weight vector alone, so its multiplicity at a
    # degree is the rank of that class's echelon.
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
        periodic_ok &= per_coset.setdefault(lat.residue(deg), ranks) == ranks
        ech = boxes[0].parts.get((deg, top))
        top_ok &= (ech.rank if ech else 0) == (1 if lat.contains(deg) else 0)

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


_PATH_HELP = {
    "spec": "path to a spec JSON file",
    "left": "path to the first spec JSON file",
    "right": "path to the second spec JSON file",
}
# Each subcommand: its help, its positional paths, and its options, each of
# which takes one int: name -> (default, help).
_COMMANDS = {
    "support": ("support lattice of the degree functional", ("spec",), {}),
    "classify": ("full untwisted classification", ("spec",), {}),
    "blocks": ("per-axis orbit block structure", ("spec",), {}),
    "iso": ("untwisted isomorphism decision", ("left", "right"), {
        "--refute-box": (None, "attach a graded-character comparison on this box when unsatisfied"),
    }),
    "twisted-classify": ("twisted classification (needs an 'aut' block)", ("spec",), {}),
    "twisted-iso": ("twisted isomorphism decision", ("left", "right"), {}),
    "reducibility": ("complete-reducibility check of the restriction", ("spec",), {}),
    "verify": ("realize components and audit the classification", ("spec",), {
        "--box": (3, "degree box radius (default: %(default)s)"),
        "--cap": (64, "dimension cap (default: %(default)s)"),
    }),
}


def _read_plain(argv: list):
    """``argv`` read when it has the plain form ``COMMAND PATH... [--opt
    N]...``: the command's paths, none starting with ``-``, then pairs of
    the full name of one of its options and an ASCII digit string.  None
    for any other form.  argparse reads a plain line the same way."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, positionals, defaults = _COMMANDS[argv[0]]
    end = 1 + len(positionals)
    paths = argv[1:end]
    if len(paths) < len(positionals) or (len(argv) - end) % 2 or any(p.startswith("-") for p in paths):
        return None
    options = {name: default for name, (default, _) in defaults.items()}
    for name, value in zip(argv[end::2], argv[end + 1::2]):
        if name not in options or not (value.isascii() and value.isdigit()):
            return None
        try:
            options[name] = int(value)
        except ValueError:  # more digits than ``int`` converts
            return None
    return "json", argv[0], paths, options


@functools.cache
def _argparse():
    """The argparse grammar of ``_COMMANDS``, built on first use: the top
    parser and each subcommand's parser by name."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="loopmod", description="classify and compare graded loop-module evaluation data")
    parser.add_argument("--output", choices=("json", "text"), default="json",
                        help="report format (default: %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, (text, paths, options) in _COMMANDS.items():
        commands[command] = cmd = sub.add_parser(command, help=text, description=text)
        for path in paths:
            cmd.add_argument(path, help=_PATH_HELP[path])
        for name, (default, info) in options.items():
            cmd.add_argument(name, type=int, default=default, help=info)
    return parser, commands


def read_argv(argv) -> tuple[str, str, list, dict]:
    """Read the command line ``[--output {json,text}] COMMAND PATH... [OPTION
    N]...`` into (output, command, paths, options), ``options`` mapping each
    of the command's options to its int value or default.

    A plain line (``_read_plain``) is read directly; argparse reads every
    other, with its help, usage errors (exit 2) and exit codes.  Unlike
    Python 3.11's argparse, which strips ``--`` from every value it reads,
    ``--opt=--`` is a usage error and a ``--`` after the first is a path."""
    argv = list(argv)
    plain = _read_plain(argv)
    if plain:
        return plain
    parser, commands = _argparse()
    ns = vars(parser.parse_args(argv))
    command = ns["command"]
    _, positionals, defaults = _COMMANDS[command]
    # A value argparse read as [] was a "--" it stripped.
    paths = ["--" if ns[path] == [] else ns[path] for path in positionals]
    options = {name: ns[name[2:].replace("-", "_")] for name in defaults}
    for name, value in options.items():
        if value == []:
            commands[command].error(f"argument {name}: invalid int value: '--'")
    return ns["output"], command, paths, options


def main(argv=None) -> int:
    output, command, paths, options = read_argv(sys.argv[1:] if argv is None else argv)
    report: dict = {"schema": 1, "command": command, "diagnostics": []}
    exit_code = 0
    try:
        raws = [read_spec(p) for p in paths]
        report["input_digest"] = hashlib.sha256(b"".join(raws)).hexdigest()
        radius = options.get("--box", options.get("--refute-box"))
        if radius is not None and radius < 0:
            raise InputError("degree box radius must be non-negative", radius=radius)
        spec = load_spec(paths[0], raws[0])

        if command == "support":
            support = support_lattice(_base(spec))
            report["result"] = support_to_json(support)
        elif command == "classify":
            report["result"] = descriptor_to_json(classify(_base(spec)))
        elif command == "blocks":
            base = _base(spec)
            support = support_lattice(base)
            report["result"] = {
                "support": support_to_json(support),
                "blocks": blocks_to_json(detect_blocks(base, support)),
            }
        elif command == "iso":
            other = _base(load_spec(paths[1], raws[1]))
            # A witness, or a hit refuted only at the grading shift, fixes the
            # right spec's classification (classify.py): it is classified,
            # for its errors, only when the search found no hit.
            res = decide_iso(classify(_base(spec)), other)
            if not res:
                if res.reason != "grading-shift":
                    classify(other)
                exit_code = 1
            payload = iso_result_to_json(res)
            if not res and options["--refute-box"] is not None:
                payload["characters_differ"] = _characters_differ(
                    _base(spec), other, options["--refute-box"]
                )
            report["result"] = payload
        elif command == "twisted-classify":
            tspec = _need_twisted(spec, command)
            report["result"] = twisted_descriptor_to_json(twisted_classify(tspec))
        elif command == "twisted-iso":
            other = load_spec(paths[1], raws[1])
            t1 = _need_twisted(spec, command)
            t2 = _need_twisted(other, command)
            res = decide_twisted_iso(twisted_classify(t1), t2)
            if not res:
                if res.reason != "grading-shift":
                    twisted_classify(t2)
                exit_code = 1
            report["result"] = iso_result_to_json(res)
        elif command == "reducibility":
            tspec = _need_twisted(spec, command)
            ok, reason = check_complete_reducibility(tspec)
            report["result"] = {"completely_reducible": ok, "reason": reason}
        elif command == "verify":
            report["result"] = _verify_report(_base(spec), options["--box"], options["--cap"])
            if not report["result"]["ok"]:
                exit_code = 1
        text = _render(report, output)
    except Exception as exc:
        if not isinstance(exc, EngineError):
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
            name = type(exc).__name__
            exc = InternalError(f"{name}: {exc}", exception=name, where=where)
        report.pop("result", None)
        report["diagnostics"].append(_diag(exc))
        exit_code = exc.exit_code
        text = _render(report, output)
    sys.stdout.write(text)
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
    if a.n != b.n:
        return True  # degrees in Z^n for different n: no shift matches them
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
