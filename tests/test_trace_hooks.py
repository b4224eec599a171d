"""The benchmark's layer trace wraps comclust functions by name; each name it
lists must still resolve to a callable, and each span must still be called,
so a refactor cannot silently drop a trace hook."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from comclust.cli import main

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace():
    """perfbench/layertrace.py as a module, read from the file without
    writing its bytecode next to it."""
    spec = importlib.util.spec_from_file_location("_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _hook_targets() -> list:
    """Every "module:attribute" target of layertrace.HOOKS."""
    return [t for targets in _load_layertrace().HOOKS.values()
            for t in targets]


@pytest.mark.parametrize("target", _hook_targets())
def test_hook_target_is_callable(target):
    module_name, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_every_span_is_called(tmp_path):
    """Tiny runs of every command call each span's hooks at least once, so
    a hook that resolves but is no longer called shows up too."""
    layertrace = _load_layertrace()
    tracer = layertrace.Tracer()
    data = str(tmp_path / "blobs.csv")
    train = ["--data", data, "--epochs", "1", "--hidden", "16",
             "--embedding-dim", "8"]
    commands = [
        ["synth", "--maj", "60", "--min", "20", "--dim", "4",
         "--separation", "6", "--out", data],
        ["train-sdc", *train, "--out", str(tmp_path / "sdc.json")],
        ["train-udc", *train, "--out", str(tmp_path / "udc.json")],
        ["train-classifier", *train, "--out", str(tmp_path / "clf.json")],
        ["eval", "--checkpoint", str(tmp_path / "sdc.json"), "--data", data,
         "--split", "all", "--out", str(tmp_path / "eval.json")],
        ["sweep-imbalance", "--ratios", "60:20,60:10", "--seeds", "0",
         "--dim", "4", "--epochs", "1", "--batch-size", "10",
         "--out", str(tmp_path / "sweep.csv")],
    ]
    for argv in commands:
        with tracer.command():
            assert main(argv) == 0, argv
    assert tracer.missing == []
    called = {name for c in tracer.commands for name in c["calls"]}
    assert sorted(set(layertrace.HOOKS) - called) == []
