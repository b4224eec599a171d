"""The four benchmark workloads: inputs made from the seed, the CLI command
each operation runs, and the checks on its output files.

Inputs are written by the benchmark itself, with the same construction as
``comclust.dataio.synth_imbalanced`` (two isotropic blobs on orthogonal mean
directions, ``separation`` sigma apart), so the program receives only files
and a change to its own generator cannot change what is measured.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


# Operations cycle through this many training seeds per run and report the
# median quality over them, as criteria 6-8 take medians over seeds: single
# UDC seeds fail outright about one time in eight (best-permutation accuracy
# 0.53-0.83 against 0.91-1.0), which would swamp any bound on one seed.
SEEDS_PER_RUN = 3


def cli_seed(ctx, index: int) -> str:
    """The training seed of the run's ``index``-th seed slot."""
    return str(SEEDS_PER_RUN * ctx["seed"] + index)


class BadOutput(Exception):
    """An operation's output is missing, unparsable or wrong; ``reason`` is
    the failure class counted in the result."""

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason


def write_blobs(path: Path, n_maj: int, n_min: int, dim: int,
                separation: float, seed) -> None:
    """CSV `f0,...,f{D-1},label` of two unit-sigma blobs whose means sit on
    the first and last axis, ``separation`` apart."""
    rng = np.random.default_rng(seed)
    radius = separation / np.sqrt(2.0)
    x = rng.normal(0.0, 1.0, size=(n_maj + n_min, dim))
    x[:n_maj, 0] += radius
    x[n_maj:, -1] += radius
    y = np.r_[np.zeros(n_maj), np.ones(n_min)]
    header = ",".join([f"f{i}" for i in range(dim)] + ["label"])
    np.savetxt(path, np.column_stack([x, y]), delimiter=",", header=header,
               comments="", fmt=["%.17g"] * dim + ["%d"])


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise BadOutput("missing_output", str(path)) from None
    except (ValueError, UnicodeDecodeError) as exc:
        raise BadOutput("unparsable_output", f"{path}: {exc}") from None


def _number(value, what: str) -> float:
    if not isinstance(value, (int, float)) or not np.isfinite(value):
        raise BadOutput("unparsable_output", f"{what} is {value!r}")
    return float(value)


def _split_quality(results: dict, best_permutation: bool) -> dict:
    """test_auc / test_acc of a training command's results record; with
    ``best_permutation`` the unsupervised labels may be swapped."""
    try:
        test = results["metrics"]["test"]
        auc, acc = test["auc"], test["accuracy"]
    except (KeyError, TypeError) as exc:
        raise BadOutput("unparsable_output", f"results lack {exc}") from None
    auc, acc = _number(auc, "test auc"), _number(acc, "test accuracy")
    if best_permutation:
        auc, acc = max(auc, 1.0 - auc), max(acc, 1.0 - acc)
    return {"test_auc": auc, "test_acc": acc}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json records why each exists."""
    name: str
    # (work dir, seed, smoke, cli main) -> ctx dict; ctx["rows"] is the
    # number of input rows one operation processes
    setup: Callable
    argv: Callable           # (ctx, seed index) -> CLI argv of one operation
    outputs: Callable        # ctx -> output paths the operation writes
    quality: Callable        # ctx -> quality figures parsed from the outputs
    floors: dict             # quality figure -> lowest accepted value
    seeds: int = SEEDS_PER_RUN   # training seeds the operations cycle through


# -- shared blob inputs ------------------------------------------------------

BLOBS = dict(n_maj=800, n_min=80, dim=8, separation=6.0)   # criterion 6/7
SMOKE_BLOBS = dict(n_maj=120, n_min=40, dim=8, separation=6.0)
SMOKE_TRAIN = ["--epochs", "1", "--hidden", "16", "--embedding-dim", "8"]


def _blob_setup(work: Path, seed: int, smoke: bool, main) -> dict:
    spec = SMOKE_BLOBS if smoke else BLOBS
    data = work / "blobs.csv"
    write_blobs(data, seed=[seed, 0], **spec)
    return {"work": work, "seed": seed, "smoke": smoke, "data": data,
            "rows": spec["n_maj"] + spec["n_min"]}


def _train_argv(command: str, extra: list) -> Callable:
    def argv(ctx, index):
        return [command, "--data", str(ctx["data"]), "--seed", cli_seed(ctx, index),
                "--out", str(ctx["work"] / "model.json"),
                "--results", str(ctx["work"] / "model.results.json"),
                *(SMOKE_TRAIN if ctx["smoke"] else extra)]
    return argv


def _train_outputs(ctx):
    return [ctx["work"] / "model.json", ctx["work"] / "model.results.json"]


def _train_quality(best_permutation: bool) -> Callable:
    def quality(ctx):
        _load_json(ctx["work"] / "model.json")
        return _split_quality(_load_json(ctx["work"] / "model.results.json"),
                              best_permutation)
    return quality


# -- sweep-tail ----------------------------------------------------------------

SWEEP_FLAGS = ["--ratios", "900:225,900:15", "--methods", "sdc-com,classifier-lw",
               "--dim", "32", "--batch-size", "60", "--lr", "1e-4"]
SMOKE_SWEEP_FLAGS = ["--ratios", "60:20,60:6", "--methods", "sdc-com,classifier-lw",
                     "--dim", "4", "--epochs", "1", "--batch-size", "10"]


def _sweep_setup(work: Path, seed: int, smoke: bool, main) -> dict:
    flags = SMOKE_SWEEP_FLAGS if smoke else SWEEP_FLAGS
    ratios = flags[flags.index("--ratios") + 1].split(",")
    methods = flags[flags.index("--methods") + 1].split(",")
    rows = len(methods) * sum(int(a) + int(b) for a, b in
                              (r.split(":") for r in ratios))
    return {"work": work, "seed": seed, "smoke": smoke, "flags": flags,
            "rows": rows, "cells": len(ratios) * len(methods),
            "quality_ratio": ratios[0]}


def _sweep_argv(ctx, index):
    return ["sweep-imbalance", *ctx["flags"], "--seeds", cli_seed(ctx, index),
            "--out", str(ctx["work"] / "sweep.csv"),
            "--summary-out", str(ctx["work"] / "sweep.summary.csv")]


def _sweep_outputs(ctx):
    return [ctx["work"] / "sweep.csv", ctx["work"] / "sweep.summary.csv"]


def _read_csv(path: Path) -> list:
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except FileNotFoundError:
        raise BadOutput("missing_output", str(path)) from None
    except (csv.Error, UnicodeDecodeError) as exc:
        raise BadOutput("unparsable_output", f"{path}: {exc}") from None


def _sweep_quality(ctx):
    """Quality of the less imbalanced ratio's cells. The 900:15 test split
    holds about two minority rows, so its AUC spans 0.18-0.98 across seeds
    0-11 and would swamp any bound; it is still trained, timed and checked."""
    rows = _read_csv(ctx["work"] / "sweep.csv")
    _read_csv(ctx["work"] / "sweep.summary.csv")
    if len(rows) != ctx["cells"]:
        raise BadOutput("unparsable_output",
                        f"{len(rows)} sweep rows, expected {ctx['cells']}")
    cells = {}
    for row in rows:
        if row.get("status") != "ok":
            raise BadOutput("sweep_status",
                            f"{row.get('ratio')} {row.get('method')}: "
                            f"{row.get('status')!r}")
        try:
            auc, acc = float(row["auc"]), float(row["accuracy"])
        except (KeyError, ValueError) as exc:
            raise BadOutput("unparsable_output", f"sweep row: {exc}") from None
        cells[row["ratio"], row["method"]] = (_number(auc, "auc"),
                                              _number(acc, "accuracy"))
    try:
        com = cells[ctx["quality_ratio"], "sdc-com"]
        clf = cells[ctx["quality_ratio"], "classifier-lw"]
    except KeyError as exc:
        raise BadOutput("unparsable_output", f"no {exc} cell") from None
    return {"test_auc": com[0], "test_acc": com[1], "clf_auc": clf[0]}


# -- eval-bulk -----------------------------------------------------------------

BULK = dict(n_maj=90_000, n_min=10_000, dim=8, separation=6.0)
SMOKE_BULK = dict(n_maj=1_800, n_min=200, dim=8, separation=6.0)
# the checkpoint only has to score the bulk rows, so it trains for 3 of the
# default 15 epochs to keep set-up short
CKPT_FLAGS = ["--epochs", "3"]


def _eval_setup(work: Path, seed: int, smoke: bool, main) -> dict:
    ctx = _blob_setup(work, seed, smoke, main)
    spec = SMOKE_BULK if smoke else BULK
    ctx["bulk"] = work / "bulk.csv"
    write_blobs(ctx["bulk"], seed=[seed, 1], **spec)
    ctx["rows"] = spec["n_maj"] + spec["n_min"]
    ctx["checkpoint"] = work / "sdc.json"
    argv = ["train-sdc", "--data", str(ctx["data"]), "--seed", str(seed),
            "--out", str(ctx["checkpoint"]),
            *(SMOKE_TRAIN if smoke else CKPT_FLAGS)]
    if main(argv) != 0:
        raise RuntimeError(f"set-up command failed: {' '.join(argv)}")
    return ctx


def _eval_argv(ctx, index):
    return ["eval", "--checkpoint", str(ctx["checkpoint"]),
            "--data", str(ctx["bulk"]), "--split", "all",
            "--out", str(ctx["work"] / "eval.json")]


def _eval_outputs(ctx):
    return [ctx["work"] / "eval.json"]


def _eval_quality(ctx):
    record = _load_json(ctx["work"] / "eval.json")
    try:
        metrics, scores = record["metrics"], record["scores"]
    except (KeyError, TypeError) as exc:
        raise BadOutput("unparsable_output", f"eval lacks {exc}") from None
    if len(scores) != ctx["rows"]:
        raise BadOutput("unparsable_output",
                        f"{len(scores)} scores for {ctx['rows']} rows")
    return {"test_auc": _number(metrics.get("auc"), "auc"),
            "test_acc": _number(metrics.get("accuracy"), "accuracy")}


# Per-run floors: criterion 6's accuracy (0.95), with its AUC (0.98, a median
# over five seeds) relaxed to 0.90 for a single seed, where one misranked
# minority row of ten costs 0.05. Seeds 0-19 of sdc-blobs and of eval-bulk
# all pass. UDC and the sweep get no floor: criteria 7 and 8 bound
# only medians over seeds, and valid seeds reach chance level (udc-blobs
# seed 4: best-permutation accuracy 0.545), so their quality is gated by the
# end-to-end medians alone.
CRITERION_6_FLOORS = {"test_auc": 0.90, "test_acc": 0.95}

WORKLOADS = {w.name: w for w in (
    Workload("sdc-blobs",
             _blob_setup, _train_argv("train-sdc", []), _train_outputs,
             _train_quality(best_permutation=False), CRITERION_6_FLOORS),
    Workload("udc-blobs",
             _blob_setup,
             _train_argv("train-udc", ["--embedding-dim", "16", "--hidden",
                                       "64", "--lr", "1e-4"]),
             _train_outputs, _train_quality(best_permutation=True), {}),
    Workload("sweep-tail",
             _sweep_setup, _sweep_argv, _sweep_outputs, _sweep_quality, {}),
    Workload("eval-bulk",
             _eval_setup, _eval_argv, _eval_outputs, _eval_quality,
             CRITERION_6_FLOORS, seeds=1),
)}
