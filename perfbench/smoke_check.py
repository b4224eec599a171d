"""Self-test of the benchmark, on the tiny inputs of its ``--smoke`` mode.

    python3 -m pytest -q perfbench/smoke_check.py

The file name keeps it out of the repository's default test collection;
each case starts the benchmark as a subprocess and takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd, workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_with_its_unit(workload, trace):
    result = result_of(bench(ROOT, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), (m["name"], got)
        if not trace:
            assert got["value"] > 0, m["name"]


def test_traced_counts_repeat_exactly():
    # iter_samples sums over a run's traced commands, so it grows with the
    # number of commands; every other count is per command
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"
              and m["name"] != "training.iter_samples"]
    runs = [result_of(bench(ROOT, "sdc-blobs", 1))["metrics"] for _ in "ab"]
    assert {c: runs[0][c] for c in counts} == {c: runs[1][c] for c in counts}
    assert runs[0]["autodiff.nodes_per_backward"]["value"] > 0


def test_missing_hook_is_named_not_zero(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import layertrace
    from comclust.cli import main
    monkeypatch.setitem(layertrace.HOOKS, "losses.loss",
                        ["comclust.training:no_such_loss"])
    tracer = layertrace.Tracer()
    with tracer.command():
        assert main(["synth", "--maj", "20", "--min", "5",
                     "--out", str(tmp_path / "d.csv")]) == 0
    metrics = tracer.metrics({False: [1.0], True: [1.0]}, 1.0)
    assert tracer.missing == ["comclust.training:no_such_loss"]
    assert metrics["losses.loss_s"] == {
        "value": None, "unit": "s",
        "missing": ["comclust.training:no_such_loss"]}
    assert metrics["autodiff.backward_s"]["value"] == 0.0
    assert tracer.self_sum_error() < 1e-9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert "cannot load the program" in proc.stderr
