"""The comparison tools under ``tools/`` keep both sides of a comparison on
equal terms."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_refuses_a_tree_with_bytecode(tmp_path, monkeypatch, capsys):
    bench_pairs = _tool("bench_pairs")
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    cache = change / "src" / "loopmod" / "__pycache__"
    cache.mkdir(parents=True)
    runs = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: runs.append(args))
    with pytest.raises(SystemExit) as info:
        bench_pairs.main([str(parent), str(change), "--workload", "realize", "--pairs", "2",
                          "--seed", "1"])
    assert info.value.code == 2 and not runs
    assert f"{cache} holds bytecode" in capsys.readouterr().err


def test_bench_pairs_runs_without_writing_bytecode(tmp_path, monkeypatch):
    bench_pairs = _tool("bench_pairs")
    envs = []

    def fake_run(command, **kwargs):
        envs.append(kwargs["env"])
        doc = {"correct": True, "failed": 0, "attempted": 1, "metrics": {}}
        return subprocess.CompletedProcess(command, 0, stdout=json.dumps(doc), stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    bench_pairs.run_once(tmp_path, "realize", 1)
    assert [env["PYTHONDONTWRITEBYTECODE"] for env in envs] == ["1"]


_METRICS = [
    {"name": "latency_p90_ms", "better": "lower", "bound": 0.25},
    {"name": "throughput_ops_s", "better": "higher", "bound": 0.25},
]


def _runs(p90s, throughputs):
    return [{"latency_p90_ms": a, "throughput_ops_s": b} for a, b in zip(p90s, throughputs)]


def test_bench_pairs_flags_a_claim_by_wins_and_the_parents_spread():
    bench_pairs = _tool("bench_pairs")
    parent = _runs([10, 11, 12, 10, 11, 12, 10, 11, 12, 11], [100] * 10)
    # p90: 9 wins of 10 and a median gap of 3 over the parent's IQR of 1.5.
    # Throughput: 8 wins of 10 only, though the median is far better.
    change = _runs([8, 8, 8, 8, 8, 8, 8, 8, 8, 13], [150] * 8 + [90, 90])
    out = bench_pairs.summarize(parent, change, _METRICS)
    p90, ops = out["latency_p90_ms"], out["throughput_ops_s"]
    assert (p90["change_wins"], p90["claim_met"], p90["within_bound"]) == (9, True, True)
    assert (ops["change_wins"], ops["claim_met"], ops["within_bound"]) == (8, False, True)
    # Every pair won, by less than the parent's spread.
    near = _runs([9.5, 10.5, 11.5, 9.5, 10.5, 11.5, 9.5, 10.5, 11.5, 10.5], [101] * 10)
    out = bench_pairs.summarize(parent, near, _METRICS)
    assert out["latency_p90_ms"]["change_wins"] == 10
    assert not out["latency_p90_ms"]["claim_met"]


def test_bench_pairs_flags_a_median_past_the_bound():
    bench_pairs = _tool("bench_pairs")
    parent = _runs([10] * 4, [100] * 4)
    # p90 25% worse is at the bound; throughput 26% worse is past it.
    change = _runs([12.5] * 4, [74] * 4)
    out = bench_pairs.summarize(parent, change, _METRICS)
    assert out["latency_p90_ms"]["within_bound"]
    assert not out["throughput_ops_s"]["within_bound"]
    assert not out["latency_p90_ms"]["claim_met"] and not out["throughput_ops_s"]["claim_met"]


def test_compare_outputs_leaves_no_bytecode(tmp_path, monkeypatch, capsys):
    # Two trees whose bench modules import the engine but list no workloads:
    # every digest run imports them, and none may write bytecode.
    compare_outputs = _tool("compare_outputs")
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    trees = [tmp_path / "parent", tmp_path / "change"]
    for tree in trees:
        shutil.copytree(ROOT / "src" / "loopmod", tree / "src" / "loopmod",
                        ignore=shutil.ignore_patterns("__pycache__"))
        (tree / "bench").mkdir()
        (tree / "bench" / "corpus.py").write_text("import loopmod.cli\nWORKLOADS = ()\n")
        (tree / "bench" / "ops.py").write_text("import loopmod.realizer\n")
    assert compare_outputs.main([str(tree) for tree in trees]) == 0
    assert "0 of 0 operations differ" in capsys.readouterr().out
    assert not [p for tree in trees for p in tree.rglob("__pycache__")]


def test_inprocess_ab_times_two_trees_and_compares_their_stdout(tmp_path, monkeypatch, capsys):
    inprocess_ab = _tool("inprocess_ab")
    # The tool sets these for its own process; the test process gets them back.
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setattr(sys, "path", list(sys.path))
    argv = ["--workload", "classify-corpus", "--items", "2", "--reps", "2"]
    assert inprocess_ab.main([str(ROOT), str(ROOT), *argv]) == 0
    out = capsys.readouterr().out
    assert "0 of 16 operations differ" in out
    lines = out.splitlines()
    assert [line.split()[0] for line in lines[1:4]] == ["total", "p50", "p90"]
    # Under the totals, one line per (call, tag) pair: its operation count,
    # both trees' totals and their ratio.  The two items are one random spec
    # in eight versions, each version run by ``support`` and ``classify``.
    assert lines[4] == "total by call/tag:"
    rows = [line.split() for line in lines[5:7]]
    assert [row[:3] for row in rows] == [["classify/random", "8", "ops"], ["support/random", "8", "ops"]]
    for row in rows:
        assert row[3::2] == ["parent", "change", "change/parent"]
        parent, change, ratio = map(float, row[4::2])
        assert ratio == pytest.approx(change / parent, abs=2e-3)  # totals print to 1 µs
    assert lines[7] == "0 of 16 operations differ"
    # A tree whose reports end in one more blank line differs on every
    # operation, and neither tree writes bytecode.
    change = tmp_path / "change"
    shutil.copytree(ROOT / "src" / "loopmod", change / "src" / "loopmod",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = change / "src" / "loopmod" / "cli.py"
    source = cli.read_text()
    assert source.count('_indented_json(report) + "\\n"') == 1
    cli.write_text(source.replace('_indented_json(report) + "\\n"', '_indented_json(report) + "\\n\\n"'))
    assert inprocess_ab.main([str(ROOT), str(change), *argv]) == 1
    assert "16 of 16 operations differ" in capsys.readouterr().out
    assert not list(change.rglob("__pycache__"))


_MODULE = '''"""A module docstring."""


class Box:
    """A class docstring."""

    def size(self, xs):
        """A method docstring."""
        total = 0
        for x in xs:
            total += x
        return total
'''


def _tree(root, source):
    package = root / "src" / "loopmod"
    package.mkdir(parents=True)
    (package / "box.py").write_text(source)
    return root


def test_count_statements_ignores_docstrings_and_comments(tmp_path):
    count_statements = _tool("count_statements")
    reworded = (_MODULE.replace("A method docstring.", "Reworded, over\n        two lines.")
                .replace("        total = 0\n", "        # a comment\n        total = 0\n\n"))
    assert reworded != _MODULE
    a, b = (tmp_path / name for name in ("a.py", "b.py"))
    a.write_text(_MODULE)
    b.write_text(reworded)
    # class, def, assignment, for, augmented assignment, return.
    assert count_statements.count_statements(a) == count_statements.count_statements(b) == 6


def test_count_statements_counts_a_nested_statement(tmp_path, capsys):
    count_statements = _tool("count_statements")
    nested = _MODULE.replace("            total += x\n",
                             "            if x:\n                total += x\n")
    parent, change = _tree(tmp_path / "parent", _MODULE), _tree(tmp_path / "change", nested)
    assert count_statements.counts(change) == {"box.py": 7}
    # The new ``if`` is one more line; the docstrings and blank lines count.
    assert count_statements.line_counts(parent) == {"box.py": 12}
    assert count_statements.line_counts(change) == {"box.py": 13}
    assert count_statements.main([str(parent), str(change)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["module", "parent", "change", "net",
                               "parent_lines", "change_lines", "net_lines"]
    assert rows[1].split() == ["box.py", "6", "7", "+1", "12", "13", "+1"]
    assert rows[-1].split() == ["total", "6", "7", "+1", "12", "13", "+1"]


@pytest.mark.parametrize("argv", [[], ["one"], ["one", "two", "three"]])
def test_count_statements_wants_two_trees(argv, capsys):
    count_statements = _tool("count_statements")
    assert count_statements.main(argv) == 2
    assert "PARENT_DIR CHANGE_DIR" in capsys.readouterr().err
