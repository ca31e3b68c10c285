"""List the executable ``src/loopmod`` lines that neither tier-1 nor the bench
corpus reaches.

    python3 tools/line_trace.py [TREE]

TREE defaults to the repository that holds this script.  One ``sys.settrace``
tracer (standard library only) records every line that runs in a module of
``TREE/src/loopmod``, in this interpreter, over two passes:

* tier-1, in process: ``pytest`` on ``TREE/tests``.  A test that starts a
  subprocess runs code the tracer cannot follow; those tests are listed.
* the corpus, the way ``tools/compare_outputs.py`` runs it: every version of
  every operation of every workload through ``bench/ops.Runner``.

A line is executable when a code object of its module has an instruction on
it; docstrings are not counted.  Prints, per module, the executable lines
that neither pass reached, as ranges, then the total, then the subprocess
tests.  The traced tier-1 takes several times as long as the plain one.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import subprocess
import sys
import threading
from pathlib import Path

_TOOLS = Path(__file__).resolve().parent


def _docstring_lines(tree: ast.AST) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some instruction of its code objects is
    on, docstrings excepted."""
    source = path.read_text()
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines - _docstring_lines(ast.parse(source))


def ranges(lines) -> str:
    """``1-3, 7`` for the lines 1, 2, 3 and 7."""
    out, run = [], []
    for line in sorted(lines):
        if run and line != run[-1] + 1:
            out.append(run)
            run = []
        run.append(line)
    if run:
        out.append(run)
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in out)


class LineTracer:
    """Records the (file, line) pairs that run in the files ``paths``."""

    def __init__(self, paths):
        self.files = {str(p) for p in paths}
        self.hits: set[tuple[str, int]] = set()

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename in self.files:
            return self._local
        return None

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    @contextlib.contextmanager
    def active(self):
        previous, previous_threads = sys.gettrace(), threading.gettrace()
        sys.settrace(self._global)
        threading.settrace(self._global)
        try:
            yield self
        finally:
            threading.settrace(previous_threads)
            sys.settrace(previous)


class _SubprocessTests:
    """A pytest plugin that names each test that starts a subprocess."""

    def __init__(self):
        self.current = None
        self.tests: set[str] = set()

    def pytest_runtest_setup(self, item):
        self.current = item.nodeid

    @contextlib.contextmanager
    def watching(self):
        plugin, original = self, subprocess.Popen

        class Recorded(original):
            def __init__(self, *args, **kwargs):
                if plugin.current is not None:
                    plugin.tests.add(plugin.current)
                super().__init__(*args, **kwargs)

        subprocess.Popen = Recorded
        try:
            yield
        finally:
            subprocess.Popen = original


def _run_tier1(tree: Path, watcher: _SubprocessTests) -> int:
    import pytest

    with watcher.watching():
        return int(pytest.main(
            ["-q", "-p", "no:cacheprovider", "--rootdir", str(tree), str(tree / "tests")],
            plugins=[watcher],
        ))


def _run_corpus(tree: Path) -> None:
    spec = importlib.util.spec_from_file_location("compare_outputs", _TOOLS / "compare_outputs.py")
    compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare)
    argv = sys.argv
    sys.argv = ["-c", str(tree), "0"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(compare._DIGESTS, "<corpus>", "exec"), {"__name__": "__main__"})
    finally:
        sys.argv = argv


def report(package: Path, hits, subprocess_tests) -> tuple[str, int, int]:
    """The report text, and the missed and executable line counts."""
    out, missed, total = [], 0, 0
    for path in sorted(package.glob("*.py")):
        lines = executable_lines(path)
        left = {line for line in lines if (str(path), line) not in hits}
        total += len(lines)
        missed += len(left)
        if left:
            out.append(f"{path.name}: {ranges(left)}")
    out.append(f"{missed} of {total} executable lines reached by neither tier-1 nor the corpus")
    out.append(f"tests that start a subprocess, which the trace does not follow: {len(subprocess_tests)}")
    out.extend(f"  {name}" for name in sorted(subprocess_tests))
    return "\n".join(out), missed, total


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    tree = Path(argv[0] if argv else _TOOLS.parent).resolve()
    package = tree / "src" / "loopmod"
    sys.dont_write_bytecode = True
    tracer, watcher = LineTracer(package.glob("*.py")), _SubprocessTests()
    with tracer.active():
        code = _run_tier1(tree, watcher)
        _run_corpus(tree)
    text, _, _ = report(package, tracer.hits, watcher.tests)
    print(text)
    if code:
        print(f"tier-1 exited {code}", file=sys.stderr)
    return 1 if code else 0


if __name__ == "__main__":
    raise SystemExit(main())
