"""The comparison tools under ``tools/`` keep both sides of a comparison on
equal terms."""

import importlib.util
import json
import shutil
import subprocess
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
