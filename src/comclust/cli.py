"""Command-line interface: dataset synthesis, the three training commands,
checkpoint evaluation, and the imbalance-sweep harness.

Every command is deterministic given its flags; repeated runs produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from collections import defaultdict

import numpy as np

from . import checkpoint as ckpt
from . import dataio, training
from .dataio import BlobSpec, LabeledDataset, load_csv, save_csv, save_results
from .encoder import AdamConfig
from .errors import (ComclustError, InvalidSpecError, NonFiniteLossError,
                     ShapeMismatchError, TooFewSamplesError)
from .metrics import METRIC_NAMES
from .training import (EQUAL, INVERSE_FREQUENCY, LOSS_COM, LOSS_TRIPLET,
                       TrainConfig, evaluate_classifier, evaluate_prototypes)

DEFAULT_RATIOS = "900:900,900:450,900:225,900:60,900:25,900:15"
# method -> (training mode, its train function's keywords): the loss kind
# of SDC and UDC, or a classifier's class weighting
SWEEP_METHODS = {
    "sdc-com": ("sdc", {"loss_kind": LOSS_COM}),
    "sdc-triplet": ("sdc", {"loss_kind": LOSS_TRIPLET}),
    "classifier": ("classifier", {"weighting": EQUAL}),
    "classifier-lw": ("classifier", {"weighting": INVERSE_FREQUENCY}),
    "udc-com": ("udc", {"loss_kind": LOSS_COM}),
    "udc-triplet": ("udc", {"loss_kind": LOSS_TRIPLET}),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_paths(args)
        # weights that overflow end in a non-finite loss, gradient, GMM input
        # or score, each an error; numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            args.func(args)
    except (ComclustError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# the flags naming a file a command writes, and the suffix an unset
# --results or --summary-out adds to --out to write beside it
OUTPUT_FLAGS = ("out", "results", "log", "summary_out")
BESIDE_OUT = {"results": ".results.json", "summary_out": ".summary.csv"}
INPUT_FLAGS = ("data", "checkpoint")


def _path(args, name: str):
    """The file a command's flag ``name`` names, a defaulted output
    included; None when the command has no such file."""
    path = getattr(args, name, None)
    if path is None and name in BESIDE_OUT and hasattr(args, name):
        path = args.out + BESIDE_OUT[name]
    return path


def _check_paths(args) -> None:
    """Refuse, before the command does any work or writes any file, an
    output whose directory does not exist or that is a directory, and an
    output that is the same file as another output or an input."""
    seen = {}                       # resolved path -> flag, inputs first
    for name in INPUT_FLAGS + OUTPUT_FLAGS:
        path = _path(args, name)
        if path is None:
            continue
        flag = "--" + name.replace("_", "-")
        if name in OUTPUT_FLAGS:
            directory = os.path.dirname(path) or "."
            if not os.path.isdir(directory):
                raise FileNotFoundError(f"{flag} {path}: directory "
                                        f"{directory} does not exist")
            if os.path.isdir(path):
                raise IsADirectoryError(f"{flag} {path} is a directory")
        resolved = os.path.realpath(path)
        if name in OUTPUT_FLAGS and resolved in seen:
            raise InvalidSpecError(f"{seen[resolved]} and {flag} name the "
                                   f"same file {path}")
        seen.setdefault(resolved, flag)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comclust",
        description="Deep clustering for imbalanced binary classification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic imbalanced dataset")
    p.add_argument("--maj", type=int, required=True)
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--separation", type=float, default=2.5,
                   help="class-mean distance in sigma units")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    for name in ("train-sdc", "train-udc", "train-classifier"):
        p = sub.add_parser(name, help=f"run {name.replace('-', ' ')}")
        _add_train_flags(p)
        if name == "train-classifier":
            p.add_argument("--weighting", choices=(EQUAL, INVERSE_FREQUENCY),
                           default=INVERSE_FREQUENCY)
        else:
            p.add_argument("--loss", choices=(LOSS_COM, LOSS_TRIPLET),
                           default=LOSS_COM,
                           help="margin-free COM-triplet, or the traditional "
                                "triplet with a constant 0.2 margin")
        p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "test", "all"),
                   default="test",
                   help="re-splits with the checkpoint's seed unless 'all'")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-imbalance",
                       help="benchmark methods across imbalance ratios")
    p.add_argument("--ratios", default=DEFAULT_RATIOS,
                   help="comma list of maj:min pairs (need at least two)")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--methods", default="sdc-com,classifier-lw",
                   help=f"comma subset of {','.join(SWEEP_METHODS)}")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--separation", type=float, default=2.5)
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--batch-size", type=int, default=60)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--out", required=True, help="per-run CSV path")
    p.add_argument("--summary-out", default=None,
                   help="median-AUC aggregate path (default OUT.summary.csv)")
    p.set_defaults(func=cmd_sweep)
    return parser


def _add_train_flags(p):
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--results", default=None,
                   help="results record path (default OUT.results.json)")
    p.add_argument("--log", default=None, help="per-iteration log path")
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--batch-size", type=int, default=15)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--hidden", default="64,64")
    p.add_argument("--embedding-dim", type=int, default=32)
    p.add_argument("--dropout", type=float, default=0.3)


def _comma_list(text: str, flag: str, convert=str) -> list:
    """The entries of a comma-list flag, each through ``convert``. Empty
    text gives no entries; an empty or malformed entry is an
    InvalidSpecError naming ``flag``."""
    entries = text.split(",") if text else []
    try:
        if "" in entries:
            raise ValueError("empty entry")
        return [convert(entry) for entry in entries]
    except ValueError:
        raise InvalidSpecError(f"bad {flag} entry in {text!r}") from None


def _config_echo(config: TrainConfig, loss) -> dict:
    """The settings a run read, with ``loss`` None for a classifier."""
    return {
        "batch_size": config.batch_size,
        "epochs": config.epochs,
        **({} if loss is None else {"loss": loss}),
        "learning_rate": config.adam.learning_rate,
        "hidden": list(config.hidden),
        "embedding_dim": config.embedding_dim,
        "dropout_rate": config.dropout_rate,
    }


def cmd_synth(args) -> None:
    spec = BlobSpec(n_maj=args.maj, n_min=args.min, dim=args.dim,
                    separation=args.separation, sigma=args.sigma,
                    seed=args.seed)
    save_csv(args.out, dataio.synth_imbalanced(spec))


def _write_train_log(path, result: training.TrainLog) -> None:
    """One row per iteration: the loss, then the prototype separation and
    the GMM NLL where the mode logged them."""
    columns = {"loss": result.losses, "separation": result.separations,
               "gmm_nll": result.gmm_nlls}
    columns = {name: values for name, values in columns.items() if values}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", *columns])
        for i, row in enumerate(zip(*columns.values())):
            writer.writerow([i, *map(repr, row)])


def _fit(mode: str, dataset: LabeledDataset, config: TrainConfig,
         **keywords) -> training.TrainLog:
    """Train one mode, "sdc", "udc" or "classifier", by its train function
    with that mode's own setting as ``keywords``; the function is looked up
    when called, so a wrapped or patched one is the one that runs."""
    return getattr(training, f"train_{mode}")(dataset, config, **keywords)


def _evaluate(params, encoder_config, prototypes, x, y) -> dict:
    """Prototype inference for a clustering model; a classifier, which has
    no prototypes, is scored by its softmax head."""
    if prototypes is None:
        return evaluate_classifier(params, encoder_config, x, y)
    return evaluate_prototypes(params, encoder_config, prototypes, x, y)


def _check_splits(dataset: LabeledDataset, splits: tuple) -> None:
    """Refuse a split to be scored that has no samples."""
    for split in splits:
        if not np.any(dataset.splits == split):
            raise TooFewSamplesError(f"the {split} split of "
                                     f"{dataset.n_samples} samples is empty")


def _score(result: training.TrainLog, dataset: LabeledDataset,
           splits: tuple) -> tuple:
    """The metrics of each of ``splits`` by name, and the prototype
    separation (None for a classifier)."""
    proto = result.prototypes
    metrics = {split: _evaluate(result.params, result.encoder_config, proto,
                                *dataset.subset(split))["metrics"]
               for split in splits}
    return metrics, None if proto is None else proto.separation


def cmd_train(args) -> None:
    """train-sdc, train-udc and train-classifier: train, save the
    checkpoint, evaluate val and test, write the results record and the
    optional per-iteration log."""
    dataset = dataio.split_dataset(load_csv(args.data), args.seed)
    hidden = tuple(_comma_list(args.hidden, "--hidden", int))
    config = TrainConfig(batch_size=args.batch_size, epochs=args.epochs,
                         seed=args.seed,
                         adam=AdamConfig(learning_rate=args.lr),
                         hidden=hidden, embedding_dim=args.embedding_dim,
                         dropout_rate=args.dropout)
    # the mode's own setting: train-sdc's and train-udc's loss kind, or
    # train-classifier's weighting, which the record adds beside the seed
    loss = getattr(args, "loss", None)
    keywords = {"loss_kind": loss} if loss else {"weighting": args.weighting}
    record = {"command": args.command, "config": _config_echo(config, loss),
              "seed": args.seed, **({} if loss else keywords)}
    _check_splits(dataset, (dataio.VAL, dataio.TEST))
    result = _fit(args.command[len("train-"):], dataset, config, **keywords)
    ckpt.save_checkpoint(args.out, result.params, result.encoder_config,
                         result.prototypes, args.seed, record["config"])
    record["metrics"], record["prototype_separation"] = _score(
        result, dataset, (dataio.VAL, dataio.TEST))
    save_results(_path(args, "results"), record)
    if args.log:
        _write_train_log(args.log, result)


def cmd_eval(args) -> None:
    doc = ckpt.load_checkpoint(args.checkpoint)
    dataset = load_csv(args.data)
    if dataset.n_features != doc["encoder_config"].input_dim:
        raise ShapeMismatchError(
            f"checkpoint expects {doc['encoder_config'].input_dim} features, "
            f"data has {dataset.n_features}")
    if args.split == "all":
        x, y = dataset.features, dataset.labels
    else:
        dataset = dataio.split_dataset(dataset, doc["seed"])
        _check_splits(dataset, (args.split,))
        x, y = dataset.subset(args.split)
    try:
        evaluation = _evaluate(doc["params"], doc["encoder_config"],
                               doc["prototypes"], x, y)
    except NonFiniteLossError as exc:
        # load_csv admits only finite rows: this checkpoint's weights overflowed
        raise NonFiniteLossError(f"{args.checkpoint}: {exc}") from None
    record = {"command": "eval", "checkpoint": args.checkpoint,
              "split": args.split, "seed": doc["seed"],
              "config": doc["config"],
              "metrics": evaluation["metrics"],
              "labels": y,
              "predictions": evaluation["predictions"],
              "scores": evaluation["scores"]}
    save_results(args.out, record)


def _ratio(part: str) -> tuple:
    """A MAJ:MIN --ratios entry as (maj, min)."""
    maj, minc = part.split(":")
    return int(maj), int(minc)


def sweep_cell_seeds(run_seed: int, ratio_index: int) -> tuple:
    """Deterministic (data, split, train) seeds for one sweep cell."""
    state = np.random.SeedSequence([run_seed, ratio_index]).generate_state(3)
    return tuple(int(s) for s in state)


def _sweep_config(method: str, seed: int, epochs: int, batch_size: int,
                  lr: float) -> tuple:
    """The training mode, config and train keywords of one sweep method."""
    if method not in SWEEP_METHODS:
        raise InvalidSpecError(f"unknown method {method!r}")
    mode, keywords = SWEEP_METHODS[method]
    config = TrainConfig(batch_size=batch_size, epochs=epochs, seed=seed,
                         adam=AdamConfig(learning_rate=lr))
    if mode == "udc":
        training.udc_batch_rows(config)
    return mode, config, keywords


def run_sweep_cell(n_maj: int, n_min: int, method: str, seed: int,
                   ratio_index: int, dim: int, separation: float,
                   epochs: int, batch_size: int, lr: float) -> dict:
    """Generate, split, train, and evaluate a single (ratio, method, seed)
    cell; returns the metrics of the test split."""
    data_seed, split_seed, train_seed = sweep_cell_seeds(seed, ratio_index)
    spec = BlobSpec(n_maj=n_maj, n_min=n_min, dim=dim,
                    separation=separation, seed=data_seed)
    dataset = dataio.split_dataset(dataio.synth_imbalanced(spec), split_seed)
    _check_splits(dataset, (dataio.TEST,))
    mode, config, keywords = _sweep_config(method, train_seed, epochs,
                                           batch_size, lr)
    metrics, proto_separation = _score(_fit(mode, dataset, config, **keywords),
                                       dataset, (dataio.TEST,))
    return {"metrics": metrics[dataio.TEST],
            "prototype_separation": proto_separation}


def cmd_sweep(args) -> None:
    ratios = _comma_list(args.ratios, "--ratios", _ratio)
    seeds = _comma_list(args.seeds, "--seeds", int)
    methods = _comma_list(args.methods, "--methods")
    if len(ratios) < 2:
        raise InvalidSpecError("sweep needs at least two ratios")
    if not seeds or not methods:
        raise InvalidSpecError("--seeds and --methods each need an entry")
    if min(seeds) < 0:
        raise InvalidSpecError(f"seeds must be non-negative, got {min(seeds)}")
    # a repeat would run a cell twice and pool its results under one label
    for flag, entries in (("--ratios", ratios), ("--seeds", seeds),
                          ("--methods", methods)):
        if len(set(entries)) < len(entries):
            raise InvalidSpecError(f"{flag} repeats an entry")
    # an unknown method, a bad shared setting or a bad ratio fails here,
    # before any cell runs
    for method in methods:
        _sweep_config(method, 0, args.epochs, args.batch_size, args.lr)
    for n_maj, n_min in ratios:
        BlobSpec(n_maj=n_maj, n_min=n_min, dim=args.dim,
                 separation=args.separation)

    fieldnames = ["ratio", "method", "seed", "status", "auc", *METRIC_NAMES,
                  "prototype_separation"]
    rows = []
    ok_aucs = defaultdict(list)   # (ratio, method) -> AUC or None per ok cell
    for ratio_index, (n_maj, n_min) in enumerate(ratios):
        for method in methods:
            for seed in seeds:
                row = {"ratio": f"{n_maj}:{n_min}", "method": method,
                       "seed": seed}
                try:
                    cell = run_sweep_cell(
                        n_maj, n_min, method, seed, ratio_index,
                        args.dim, args.separation, args.epochs,
                        args.batch_size, args.lr)
                except ComclustError as exc:
                    # one diverging cell must not kill the whole sweep
                    row.update(status=f"error: {exc}")
                else:
                    ok_aucs[row["ratio"], method].append(cell["metrics"]["auc"])
                    values = {**cell["metrics"], "prototype_separation":
                              cell["prototype_separation"]}
                    # a test split with one class has no AUC, a classifier
                    # no prototypes: their cells stay empty
                    row.update({k: "" if v is None else repr(v)
                                for k, v in values.items()}, status="ok")
                rows.append(row)

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(rows)

    with open(_path(args, "summary_out"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ratio", "method", "median_auc", "n_ok"])
        for n_maj, n_min in ratios:
            label = f"{n_maj}:{n_min}"
            for method in methods:
                cells = ok_aucs[label, method]
                aucs = [auc for auc in cells if auc is not None]
                median = repr(float(np.median(aucs))) if aucs else ""
                writer.writerow([label, method, median, len(cells)])


if __name__ == "__main__":
    sys.exit(main())
