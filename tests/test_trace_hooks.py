"""The benchmark's layer trace wraps comclust functions by name; each name it
lists must still resolve to a callable, so a refactor cannot silently drop
a trace hook."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _hook_targets() -> list:
    """Every "module:attribute" target of layertrace.HOOKS, read from the
    file without writing its bytecode next to it."""
    spec = importlib.util.spec_from_file_location("_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return [t for targets in module.HOOKS.values() for t in targets]


@pytest.mark.parametrize("target", _hook_targets())
def test_hook_target_is_callable(target):
    module_name, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module_name), attr, None))
