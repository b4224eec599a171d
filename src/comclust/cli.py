"""Command-line interface: dataset synthesis, the three training commands,
checkpoint evaluation, and the imbalance-sweep harness.

Every command is deterministic given its flags; repeated runs produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import checkpoint as ckpt
from . import dataio, training
from .dataio import BlobSpec, LabeledDataset, load_csv, save_csv, save_results
from .encoder import AdamConfig
from .errors import ComclustError, DimensionMismatchError, InvalidSpecError
from .losses import MarginSpec
from .training import (EQUAL, INVERSE_FREQUENCY, TrainConfig,
                       evaluate_classifier, evaluate_prototypes)

DEFAULT_RATIOS = "900:900,900:450,900:225,900:60,900:25,900:15"
SWEEP_METHODS = ("sdc-com", "sdc-triplet", "classifier", "classifier-lw",
                 "udc-com", "udc-triplet")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ComclustError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


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
            p.add_argument("--weighting",
                           choices=("equal", "inverse-frequency"),
                           default="inverse-frequency")
        p.set_defaults(func={"train-sdc": cmd_train_sdc,
                             "train-udc": cmd_train_udc,
                             "train-classifier": cmd_train_classifier}[name])

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
    p.add_argument("--margin", default="adaptive",
                   help="'adaptive' or a constant value in [0, 2]")
    p.add_argument("--loss", choices=("com", "triplet"), default="com")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--hidden", default="64,64")
    p.add_argument("--embedding-dim", type=int, default=32)
    p.add_argument("--dropout", type=float, default=0.3)


def _parse(text: str, convert, what: str):
    """convert(text), reporting malformed flag text as InvalidSpecError."""
    try:
        return convert(text)
    except ValueError:
        raise InvalidSpecError(f"bad {what}: {text!r}") from None


def _margin_spec(text: str, loss_kind: str) -> MarginSpec:
    if text == "adaptive":
        if loss_kind == "triplet":
            # the traditional triplet baseline needs a constant margin
            return MarginSpec("constant", 0.2)
        return MarginSpec("adaptive")
    alpha = _parse(text, float, "--margin (want 'adaptive' or a number)")
    return MarginSpec("constant", alpha)


def _train_config(args) -> TrainConfig:
    hidden = tuple(_parse(h, int, "--hidden width")
                   for h in args.hidden.split(",") if h)
    return TrainConfig(
        batch_size=args.batch_size,
        epochs=args.epochs,
        margin=_margin_spec(args.margin, args.loss),
        loss_kind=args.loss,
        seed=args.seed,
        adam=AdamConfig(learning_rate=args.lr),
        hidden=hidden,
        embedding_dim=args.embedding_dim,
        dropout_rate=args.dropout,
    )


def _config_echo(config: TrainConfig) -> dict:
    return {
        "batch_size": config.batch_size,
        "epochs": config.epochs,
        "margin": ({"mode": "adaptive"} if config.margin.mode == "adaptive"
                   else {"mode": "constant", "alpha": config.margin.alpha}),
        "loss": config.loss_kind,
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


def _load_split(path: str, seed: int) -> LabeledDataset:
    return dataio.split_dataset(load_csv(path), seed)


def _write_train_log(path, result: training.TrainLog) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["iteration", "loss", "separation"]
        if result.gmm_nlls:
            header.append("gmm_nll")
        writer.writerow(header)
        for i, (loss, sep) in enumerate(zip(result.losses, result.separations)):
            row = [i, repr(loss), repr(sep)]
            if result.gmm_nlls:
                row.append(repr(result.gmm_nlls[i]))
            writer.writerow(row)


def _train_clustering(args, command: str, runner) -> None:
    dataset = _load_split(args.data, args.seed)
    config = _train_config(args)
    result = runner(dataset, config)
    ckpt.save_checkpoint(args.out, ckpt.KIND_CLUSTERING, result.params,
                         result.encoder_config, result.prototypes,
                         args.seed, _config_echo(config))
    metrics = {}
    for split in (dataio.VAL, dataio.TEST):
        x, y = dataset.subset(split)
        metrics[split] = evaluate_prototypes(
            result.params, result.encoder_config, result.prototypes,
            x, y)["metrics"]
    record = {"command": command, "config": _config_echo(config),
              "seed": args.seed, "metrics": metrics,
              "prototype_separation": result.prototypes.separation}
    save_results(args.results or args.out + ".results.json", record)
    if args.log:
        _write_train_log(args.log, result)


def cmd_train_sdc(args) -> None:
    _train_clustering(args, "train-sdc", training.train_sdc)


def cmd_train_udc(args) -> None:
    _train_clustering(args, "train-udc", training.train_udc)


def cmd_train_classifier(args) -> None:
    dataset = _load_split(args.data, args.seed)
    config = _train_config(args)
    weighting = (INVERSE_FREQUENCY if args.weighting == "inverse-frequency"
                 else EQUAL)
    model, result = training.train_classifier(dataset, config, weighting)
    ckpt.save_checkpoint(args.out, ckpt.KIND_CLASSIFIER, result.params,
                         result.encoder_config, None,
                         args.seed, _config_echo(config))
    metrics = {}
    for split in (dataio.VAL, dataio.TEST):
        x, y = dataset.subset(split)
        metrics[split] = evaluate_classifier(model, x, y)["metrics"]
    record = {"command": "train-classifier", "config": _config_echo(config),
              "seed": args.seed, "weighting": args.weighting,
              "metrics": metrics, "prototype_separation": None}
    save_results(args.results or args.out + ".results.json", record)
    if args.log:
        _write_train_log(args.log, result)


def cmd_eval(args) -> None:
    doc = ckpt.load_checkpoint(args.checkpoint)
    dataset = load_csv(args.data)
    if dataset.n_features != doc["encoder_config"].input_dim:
        raise DimensionMismatchError(
            f"checkpoint expects {doc['encoder_config'].input_dim} features, "
            f"data has {dataset.n_features}")
    if args.split == "all":
        x, y = dataset.features, dataset.labels
    else:
        x, y = dataio.split_dataset(dataset, doc["seed"]).subset(args.split)
    if doc["kind"] == ckpt.KIND_CLUSTERING:
        evaluation = evaluate_prototypes(doc["params"], doc["encoder_config"],
                                         doc["prototypes"], x, y)
    else:
        evaluation = evaluate_classifier(
            ckpt.classifier_from_checkpoint(doc), x, y)
    record = {"command": "eval", "checkpoint": args.checkpoint,
              "split": args.split, "seed": doc["seed"],
              "config": doc["config"],
              "metrics": evaluation["metrics"],
              "labels": [int(v) for v in y],
              "predictions": evaluation["predictions"],
              "scores": evaluation["scores"]}
    save_results(args.out, record)


def _ratio(part: str) -> tuple:
    maj, minc = part.split(":")
    return int(maj), int(minc)


def _parse_ratios(text: str) -> list:
    ratios = [_parse(part, _ratio, "--ratios entry (want MAJ:MIN)")
              for part in text.split(",")]
    if len(ratios) < 2:
        raise ComclustError("sweep needs at least two ratios")
    return ratios


def sweep_cell_seeds(run_seed: int, ratio_index: int) -> tuple:
    """Deterministic (data, split, train) seeds for one sweep cell."""
    state = np.random.SeedSequence([run_seed, ratio_index]).generate_state(3)
    return tuple(int(s) for s in state)


def run_sweep_cell(n_maj: int, n_min: int, method: str, seed: int,
                   ratio_index: int, dim: int, separation: float,
                   epochs: int, batch_size: int, lr: float) -> dict:
    """Generate, split, train, and evaluate a single (ratio, method, seed)
    cell; returns the metrics of the test split."""
    data_seed, split_seed, train_seed = sweep_cell_seeds(seed, ratio_index)
    spec = BlobSpec(n_maj=n_maj, n_min=n_min, dim=dim,
                    separation=separation, seed=data_seed)
    dataset = dataio.split_dataset(dataio.synth_imbalanced(spec), split_seed)
    base = dict(batch_size=batch_size, epochs=epochs, seed=train_seed,
                adam=AdamConfig(learning_rate=lr))
    x_test, y_test = dataset.subset(dataio.TEST)

    if method in ("sdc-com", "sdc-triplet", "udc-com", "udc-triplet"):
        com = method.endswith("com")
        config = TrainConfig(margin=(MarginSpec("adaptive") if com
                                     else MarginSpec("constant", 0.2)),
                             loss_kind="com" if com else "triplet", **base)
        runner = (training.train_sdc if method.startswith("sdc")
                  else training.train_udc)
        result = runner(dataset, config)
        evaluation = evaluate_prototypes(result.params, result.encoder_config,
                                         result.prototypes, x_test, y_test)
        separation_out = result.prototypes.separation
    elif method in ("classifier", "classifier-lw"):
        config = TrainConfig(**base)
        weighting = INVERSE_FREQUENCY if method == "classifier-lw" else EQUAL
        model, _ = training.train_classifier(dataset, config, weighting)
        evaluation = evaluate_classifier(model, x_test, y_test)
        separation_out = None
    else:
        raise ComclustError(f"unknown method {method!r}")
    return {"metrics": evaluation["metrics"],
            "prototype_separation": separation_out}


def cmd_sweep(args) -> None:
    ratios = _parse_ratios(args.ratios)
    seeds = [_parse(s, int, "--seeds entry")
             for s in args.seeds.split(",") if s]
    methods = [m for m in args.methods.split(",") if m]
    for m in methods:
        if m not in SWEEP_METHODS:
            raise ComclustError(f"unknown method {m!r}")

    fieldnames = ["ratio", "method", "seed", "status", "auc", "recall",
                  "precision", "specificity", "accuracy", "f1",
                  "prototype_separation"]
    rows = []
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
                    metrics = cell["metrics"]
                    row.update(status="ok",
                               auc=repr(metrics["auc"]),
                               prototype_separation=(
                                   "" if cell["prototype_separation"] is None
                                   else repr(cell["prototype_separation"])))
                    for k in ("recall", "precision", "specificity",
                              "accuracy", "f1"):
                        row[k] = repr(metrics[k])
                rows.append(row)

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(rows)

    summary_path = args.summary_out or args.out + ".summary.csv"
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ratio", "method", "median_auc", "n_ok"])
        for n_maj, n_min in ratios:
            label = f"{n_maj}:{n_min}"
            for method in methods:
                aucs = [float(r["auc"]) for r in rows
                        if r["ratio"] == label and r["method"] == method
                        and r["status"] == "ok" and r.get("auc")]
                median = repr(float(np.median(aucs))) if aucs else ""
                writer.writerow([label, method, median, len(aucs)])


if __name__ == "__main__":
    sys.exit(main())
