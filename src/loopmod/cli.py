"""Batch front-end: read the command line, parse spec files, dispatch, emit
deterministic reports.

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

import hashlib
import json
import os
import re
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


def _write_json(x, out: list, newline: str) -> None:
    # Appends ``x`` to ``out``, ``newline`` being the line break and indent
    # of its own level.  A member that is a str or an int is written inline,
    # with the C ``encode_basestring_ascii`` and with ``repr`` as ``json``
    # does; only containers recurse, and ``json.dumps`` writes every other
    # value, so floats and errors are exactly as there.
    if isinstance(x, dict):
        brackets, members = "{}", sorted(x.items())
    elif isinstance(x, (list, tuple)):
        brackets, members = "[]", x
    else:
        out.append(encode_basestring_ascii(x) if isinstance(x, str)
                   else repr(x) if type(x) is int else json.dumps(x))
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


_DESCRIPTION = "classify and compare graded loop-module evaluation data"
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
        "--box": (3, "degree box radius"),
        "--cap": (64, "dimension cap"),
    }),
}
_OUTPUTS = ("json", "text")
_TOP_OPTIONS = ("--help", "--output")
# argparse reads an argument that looks like a negative number, and one
# with a space in it, as a positional when no option matches it.
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _flag(name: str) -> str:
    return f"{name} {name[2:].upper().replace('-', '_')}"  # --refute-box REFUTE_BOX


def _usage(command) -> str:
    if command is None:
        return "usage: loopmod [-h] [--output {json,text}] COMMAND ...\n"
    _, paths, options = _COMMANDS[command]
    flags = "".join(f" [{_flag(name)}]" for name in options)
    return f"usage: loopmod {command} [-h]{flags} {' '.join(paths)}\n"


def _help(command):
    """Print the help of the top level (``command`` None) or of one
    subcommand to stdout, and exit 0."""
    rows = [("-h, --help", "show this help message and exit")]
    if command is None:
        text = _DESCRIPTION
        tables = [("commands", [(name, entry[0]) for name, entry in _COMMANDS.items()])]
        rows.append(("--output {json,text}", "report format (default: json)"))
    else:
        text, paths, options = _COMMANDS[command]
        tables = [("positional arguments", [(path, _PATH_HELP[path]) for path in paths])]
        rows += [
            (_flag(name), info if default is None else f"{info} (default: {default})")
            for name, (default, info) in options.items()
        ]
    tables.append(("options", rows))
    out = [_usage(command), "\n", text, "\n"]
    for title, table in tables:
        width = max(len(left) for left, _ in table)
        out += [f"\n{title}:\n"] + [f"  {left.ljust(width)}  {right}\n" for left, right in table]
    sys.stdout.write("".join(out))
    raise SystemExit(0)


def _fail(command, message: str):
    """Print the usage and ``message`` to stderr, and exit 2."""
    prog = "loopmod" if command is None else f"loopmod {command}"
    sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
    raise SystemExit(2)


def _option(arg: str, names) -> tuple | None:
    """How argparse reads ``arg``, met before any ``--``, against the
    long option ``names`` and ``-h``: None for a positional, else (the
    option, or None when none matches; the value given in the argument,
    or None).  A long option may be abbreviated to a prefix; no two of
    the grammar's long options share one but ``--``, and ``read_argv``
    rejects ``--=`` before it reads anything."""
    if len(arg) < 2 or arg[0] != "-":
        return None
    if arg[1] != "-":
        if arg[1] == "h":
            return "-h", None if len(arg) == 2 else arg[3:] if arg[2] == "=" else arg[2:]
        return None if _NEGATIVE.match(arg) or " " in arg else (None, None)
    prefix, eq, value = arg.partition("=")
    for name in names:
        if name.startswith(prefix):
            return name, value if eq else None
    return None if " " in arg else (None, None)


def _take_option(command, args: list, i: int, option: tuple, values: dict, extras: list) -> int:
    """Act on the ``option`` that ``args[i - 1]`` reads as: help exits 0,
    an unknown option joins ``extras``, and any other, a key of ``values``,
    takes its value from the argument or from ``args[i]``.  Returns the
    index after the value."""
    name, value = option
    if name is None:
        extras.append(args[i - 1])
        return i
    if name in ("-h", "--help"):
        # ``-hh`` is ``-h -h``; any other value given to help is an error.
        if value is None or (name == "-h" and value and not value.strip("h")):
            _help(command)
        _fail(command, f"argument -h/--help: ignored explicit argument {value!r}")
    if value is None:
        if i == len(args) or args[i] == "--" or _option(args[i], ("--help", *values)) is not None:
            _fail(command, f"argument {name}: expected one argument")
        value = args[i]
        i += 1
    if name == "--output":
        if value not in _OUTPUTS:
            choices = ", ".join(map(repr, _OUTPUTS))
            _fail(command, f"argument --output: invalid choice: {value!r} (choose from {choices})")
    else:
        try:
            value = int(value)
        except ValueError:
            _fail(command, f"argument {name}: invalid int value: {value!r}")
    values[name] = value
    return i


def read_argv(argv) -> tuple[str, str, list, dict]:
    """Read the command line ``[--output {json,text}] COMMAND PATH... [OPTION
    N]...`` into (output, command, paths, options), ``options`` mapping each
    of the command's options to its int value or default.

    Every argument list is read as ``argparse`` read this grammar: options
    before or after the paths, ``--opt=N``, unique prefixes of long options,
    ``-N`` as a value, the last of a repeated option, and ``--`` before
    positionals only; ``-h``/``--help`` print help and exit 0, and a usage
    error prints the usage and the error to stderr and exits 2.  Unlike
    Python 3.11's ``argparse``, which strips ``--`` from every value it
    reads, ``--opt=--`` gives the value ``--``, which no option accepts,
    and a ``--`` after the first is a path."""
    argv = list(argv)
    # argparse reads every argument against the top-level options before it
    # acts on any, and ``--=`` starts both ``--help`` and ``--output``.
    for arg in argv:
        if arg == "--":
            break
        if arg.startswith("--="):
            _fail(None, f"ambiguous option: {arg} could match --help, --output")
    top = {"--output": "json"}
    extras: list = []
    i = 0
    while True:
        if i == len(argv):
            _fail(None, "the following arguments are required: command")
        command = argv[i]
        i += 1
        option = None if command == "--" else _option(command, _TOP_OPTIONS)
        if option is None:
            break
        i = _take_option(None, argv, i, option, top, extras)
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")

    _, positionals, defaults = _COMMANDS[command]
    names = ("--help", *defaults)
    options = {name: default for name, (default, _) in defaults.items()}
    paths: list = []
    since_option = 0  # positionals read since the last option
    dashed = False  # past the first "--": every argument is a positional
    while i < len(argv):
        arg = argv[i]
        i += 1
        if arg == "--" and not dashed:
            # argparse matches the "--" with the positionals around it,
            # unless every path was read before the last option.
            dashed = True
            if len(paths) == len(positionals) and not since_option:
                extras.append(arg)
            continue
        option = None if dashed else _option(arg, names)
        if option is None:
            (paths if len(paths) < len(positionals) else extras).append(arg)
            since_option += 1
        else:
            since_option = 0
            i = _take_option(command, argv, i, option, options, extras)
    if len(paths) < len(positionals):
        _fail(command, "the following arguments are required: " + ", ".join(positionals[len(paths):]))
    if extras:
        _fail(None, "unrecognized arguments: " + " ".join(extras))
    return top["--output"], command, paths, options


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
            # A witness fixes the right spec's classification (classify.py),
            # so it is classified only when there is none, for its errors.
            res = decide_iso(classify(_base(spec)), other)
            if not res:
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
