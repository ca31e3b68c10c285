"""Count the Python statements of each ``src/loopmod`` module in two trees.

    python3 tools/count_statements.py PARENT_DIR CHANGE_DIR

A statement is any node of the module's AST that is an ``ast.stmt``, at any
depth (a ``def`` and each statement in its body count separately).  Module,
class and function docstrings are not counted, and comments and blank lines
are not in the AST, so a change cannot lower its count by rewording or
deleting prose.  Prints, per module present in either tree, the count at the
parent, at the change and the net, then the same three for the module's
physical lines (as ``wc -l`` counts them, prose included), then the totals.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_PACKAGE = Path("src") / "loopmod"


def _docstrings(tree: ast.AST) -> set[int]:
    # ids of the Expr nodes that are docstrings.
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first))
    return out


def count_statements(path: Path) -> int:
    tree = ast.parse(path.read_text(), filename=str(path))
    skip = _docstrings(tree)
    return sum(isinstance(node, ast.stmt) and id(node) not in skip for node in ast.walk(tree))


def counts(root: Path) -> dict[str, int]:
    return {p.name: count_statements(p) for p in sorted((root / _PACKAGE).glob("*.py"))}


def line_counts(root: Path) -> dict[str, int]:
    return {p.name: len(p.read_text().splitlines()) for p in sorted((root / _PACKAGE).glob("*.py"))}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = (counts(Path(a)) for a in argv)
    parent_lines, change_lines = (line_counts(Path(a)) for a in argv)
    rows = [(m, parent.get(m, 0), change.get(m, 0), parent_lines.get(m, 0), change_lines.get(m, 0))
            for m in sorted(parent.keys() | change.keys())]
    rows.append(("total", *(sum(r[k] for r in rows) for k in range(1, 5))))
    print(f"{'module':<16}{'parent':>8}{'change':>8}{'net':>7}"
          f"{'parent_lines':>14}{'change_lines':>14}{'net_lines':>11}")
    for module, a, b, la, lb in rows:
        print(f"{module:<16}{a:>8}{b:>8}{b - a:>+7}{la:>14}{lb:>14}{lb - la:>+11}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
