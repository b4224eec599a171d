import ast
import contextlib
import copy
import csv
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comclust import checkpoint as ckpt
from comclust import training
from comclust.cli import main, run_sweep_cell, sweep_cell_seeds
from comclust.dataio import load_csv, load_results, split_dataset
from comclust.encoder import MAX_PARAMETERS, embed
from comclust.errors import ParseError
from comclust.prototypes import malignancy_score
from comclust.training import evaluate_prototypes


@pytest.fixture(scope="module")
def blob_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "blobs.csv"
    rc = main(["synth", "--maj", "120", "--min", "40", "--dim", "8",
               "--separation", "6.0", "--seed", "3", "--out", str(path)])
    assert rc == 0
    return path


def _train_sdc(blob_csv, tmp_path, **extra):
    out = tmp_path / "model.json"
    args = ["train-sdc", "--data", str(blob_csv), "--seed", "1",
            "--out", str(out)]
    for k, v in extra.items():
        args += [f"--{k}", str(v)]
    assert main(args) == 0
    return out


class TestSynth:
    def test_row_count(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["synth", "--maj", "900", "--min", "15",
                     "--seed", "1", "--out", str(out)]) == 0
        assert load_csv(out).n_samples == 915

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ["synth", "--maj", "30", "--min", "10", "--seed", "5"]
        assert main(flags + ["--out", str(a)]) == 0
        assert main(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--maj", "10", "--min", "5"])
        assert err.value.code != 0

    def test_invalid_spec_exits_nonzero(self, tmp_path):
        assert main(["synth", "--maj", "5", "--min", "10",
                     "--out", str(tmp_path / "d.csv")]) == 1


class TestTrainCommands:
    def test_sdc_results_record(self, blob_csv, tmp_path):
        out = _train_sdc(blob_csv, tmp_path)
        record = load_results(str(out) + ".results.json")
        assert record["command"] == "train-sdc"
        assert record["seed"] == 1
        assert record["metrics"]["test"]["accuracy"] >= 0.95
        assert record["prototype_separation"] > 0.0

    def test_seed_repeat_identical_results(self, blob_csv, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = _train_sdc(blob_csv, tmp_path / "a", **{"results": tmp_path / "ra.json"})
        b = _train_sdc(blob_csv, tmp_path / "b", **{"results": tmp_path / "rb.json"})
        assert (tmp_path / "ra.json").read_bytes() == \
            (tmp_path / "rb.json").read_bytes()
        assert a.read_bytes() == b.read_bytes()

    def test_training_log(self, blob_csv, tmp_path):
        _train_sdc(blob_csv, tmp_path, log=tmp_path / "log.csv")
        with open(tmp_path / "log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) > 0
        seps = [float(r["separation"]) for r in rows]
        assert np.all(np.diff(seps) >= 0.0)

    def test_corrupt_csv_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,label\n1.0,7\n")
        assert main(["train-sdc", "--data", str(bad), "--out",
                     str(tmp_path / "m.json")]) == 1

    def test_udc_smoke(self, blob_csv, tmp_path):
        out = tmp_path / "udc.json"
        assert main(["train-udc", "--data", str(blob_csv), "--seed", "2",
                     "--out", str(out), "--epochs", "1",
                     "--hidden", "16", "--embedding-dim", "8",
                     "--log", str(tmp_path / "udc_log.csv")]) == 0
        with open(tmp_path / "udc_log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert "gmm_nll" in rows[0]

    def test_classifier_smoke(self, blob_csv, tmp_path):
        out = tmp_path / "clf.json"
        assert main(["train-classifier", "--data", str(blob_csv),
                     "--seed", "2", "--out", str(out),
                     "--epochs", "2", "--weighting", "equal"]) == 0
        record = load_results(str(out) + ".results.json")
        assert record["weighting"] == "equal"
        assert record["prototype_separation"] is None

    @pytest.mark.parametrize("flags", [
        ["train-sdc", "--margin", "0.2"],
        ["train-udc", "--margin", "adaptive"],
        ["train-classifier", "--loss", "triplet"],
    ], ids=["sdc-margin", "udc-margin", "classifier-loss"])
    def test_loss_flag_is_sdc_and_udc_only(self, flags, blob_csv, tmp_path):
        """--loss alone picks the loss, and the classifier has none."""
        with pytest.raises(SystemExit) as err:
            main([*flags, "--data", str(blob_csv),
                  "--out", str(tmp_path / "m.json")])
        assert err.value.code == 2
        assert not (tmp_path / "m.json").exists()

    def test_config_echo_holds_what_the_mode_reads(self, blob_csv, tmp_path):
        sdc = _train_sdc(blob_csv, tmp_path, loss="triplet", epochs=1)
        clf = tmp_path / "clf.json"
        assert main(["train-classifier", "--data", str(blob_csv),
                     "--out", str(clf), "--epochs", "1"]) == 0
        for path, loss in ((sdc, "triplet"), (clf, None)):
            for doc in (load_results(path),
                        load_results(str(path) + ".results.json")):
                assert "margin" not in doc["config"]
                assert doc["config"].get("loss") == loss

    def test_classifier_log_has_a_row_per_iteration(self, blob_csv,
                                                    tmp_path):
        log = tmp_path / "clf_log.csv"
        assert main(["train-classifier", "--data", str(blob_csv),
                     "--seed", "2", "--out", str(tmp_path / "clf.json"),
                     "--epochs", "2", "--log", str(log)]) == 0
        with open(log) as fh:
            rows = list(csv.DictReader(fh))
        n_train = len(split_dataset(load_csv(blob_csv), 2).subset("train")[1])
        assert len(rows) == 2 * (n_train // 15)
        assert list(rows[0]) == ["iteration", "loss"]
        assert [int(r["iteration"]) for r in rows] == list(range(len(rows)))


class TestEval:
    def test_self_consistency_with_training_record(self, blob_csv, tmp_path):
        model = _train_sdc(blob_csv, tmp_path)
        out = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(model), "--data",
                     str(blob_csv), "--split", "test",
                     "--out", str(out)]) == 0
        evaluation = load_results(out)
        record = load_results(str(model) + ".results.json")
        assert evaluation["metrics"] == record["metrics"]["test"]

    def test_scores_match_direct_recomputation(self, blob_csv, tmp_path):
        model = _train_sdc(blob_csv, tmp_path)
        out = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(model), "--data",
                     str(blob_csv), "--split", "all",
                     "--out", str(out)]) == 0
        evaluation = load_results(out)
        doc = ckpt.load_checkpoint(model)
        emb = embed(doc["params"], doc["encoder_config"],
                    load_csv(blob_csv).features)
        for row, score in zip(emb, evaluation["scores"]):
            assert score == malignancy_score(row, doc["prototypes"])

    def test_dimension_mismatch(self, blob_csv, tmp_path):
        model = _train_sdc(blob_csv, tmp_path)
        narrow = tmp_path / "narrow.csv"
        assert main(["synth", "--maj", "20", "--min", "10", "--dim", "4",
                     "--seed", "1", "--out", str(narrow)]) == 0
        assert main(["eval", "--checkpoint", str(model), "--data",
                     str(narrow), "--out", str(tmp_path / "e.json")]) == 1

    def test_classifier_checkpoint_eval(self, blob_csv, tmp_path):
        model = tmp_path / "clf.json"
        assert main(["train-classifier", "--data", str(blob_csv),
                     "--seed", "4", "--out", str(model),
                     "--epochs", "2"]) == 0
        out = tmp_path / "eval.json"
        assert main(["eval", "--checkpoint", str(model), "--data",
                     str(blob_csv), "--out", str(out)]) == 0
        evaluation = load_results(out)
        record = load_results(str(model) + ".results.json")
        assert evaluation["metrics"] == record["metrics"]["test"]


class TestCheckpointRoundTrip:
    def test_inference_outputs_preserved_exactly(self, blob_csv, tmp_path):
        model = _train_sdc(blob_csv, tmp_path)
        doc = ckpt.load_checkpoint(model)
        dataset = split_dataset(load_csv(blob_csv), doc["seed"])
        x, y = dataset.subset("test")
        first = evaluate_prototypes(doc["params"], doc["encoder_config"],
                                    doc["prototypes"], x, y)
        again = ckpt.load_checkpoint(model)
        second = evaluate_prototypes(again["params"], again["encoder_config"],
                                     again["prototypes"], x, y)
        assert first["scores"] == second["scores"]
        assert first["predictions"] == second["predictions"]

    def test_version_field_present(self, blob_csv, tmp_path):
        model = _train_sdc(blob_csv, tmp_path)
        raw = load_results(model)
        assert raw["version"] == ckpt.FORMAT_VERSION

    def test_does_not_import_training_or_cli(self):
        tree = ast.parse(Path(ckpt.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[-1])
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[-1]
                                for alias in node.names)
        assert not imported & {"training", "cli"}

    def test_only_the_encoder_reads_layer_dims(self):
        """The parameter layout is stated once, in encoder.param_shapes."""
        readers = {path.name for path in Path(ckpt.__file__).parent.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Attribute)
                   and node.attr == "layer_dims"}
        assert readers == {"encoder.py"}

    def test_only_autodiff_decides_what_is_recorded(self):
        """The tape rule lives in autodiff.node: no other module tests for a
        Var or builds an interior Var (one with parents)."""
        def decides(call):
            name = ast.unparse(call.func)
            return ((name == "isinstance"
                     and "Var" in ast.unparse(call.args[-1]))
                    or (name.split(".")[-1] == "Var"
                        and len(call.args) + len(call.keywords) > 1))

        offenders = [(path.name, ast.unparse(node))
                     for path in Path(ckpt.__file__).parent.glob("*.py")
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Call) and decides(node)]
        assert {name for name, _ in offenders} <= {"autodiff.py"}, offenders


class TestEncoderSizeCap:
    """An encoder above MAX_PARAMETERS is refused before anything is
    allocated for it."""

    def test_train_reports_error(self, blob_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["train-sdc", "--data", str(blob_csv), "--hidden",
                     "1000000000", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(MAX_PARAMETERS) in err
        assert not out.exists()

    def test_checkpoint_claiming_a_huge_width_is_a_parse_error(
            self, sdc_checkpoint_doc, tmp_path):
        doc = copy.deepcopy(sdc_checkpoint_doc)
        doc["encoder"]["hidden"] = [1000000000]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=str(MAX_PARAMETERS)):
            ckpt.load_checkpoint(path)


@pytest.fixture(scope="module")
def sdc_checkpoint_doc(blob_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt") / "model.json"
    assert main(["train-sdc", "--data", str(blob_csv), "--seed", "1",
                 "--epochs", "1", "--hidden", "16", "--embedding-dim", "8",
                 "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _drop(key):
    def mutate(doc):
        del doc[key]
    return mutate


def _set(key, value):
    def mutate(doc):
        doc[key] = value
    return mutate


def _short_data(doc):
    doc["params"][0]["data"].pop()


def _wide_bias(doc):
    bias = doc["params"][1]
    bias["data"].append(0.0)
    bias["shape"] = [len(bias["data"])]


def _short_prototype(doc):
    doc["prototypes"]["cl_min"].pop()


def _long_mask(doc):
    doc["prototypes"]["feature_mask"].append(1)


def _huge_int_data(doc):
    doc["params"][0]["data"][0] = 10 ** 400


def _float_input_dim(doc):
    doc["encoder"]["input_dim"] = float(doc["encoder"]["input_dim"])


def _numeric_string_data(doc):
    doc["params"][0]["data"] = [str(v) for v in doc["params"][0]["data"]]


def _bool_data(doc):
    doc["params"][1]["data"] = [True] * len(doc["params"][1]["data"])


class TestBadCheckpoint:
    """A malformed checkpoint ends in 'error: <path>: ...' and exit code 1."""

    @pytest.mark.parametrize("corrupt", [
        "not json {",
        "[1, 2]",
        '{"version": 1, "kind": "clustering"}',
        _drop("kind"), _drop("encoder"), _drop("params"), _drop("seed"),
        _set("kind", "regressor"),
        _short_data,
        _wide_bias,
        _set("kind", "classifier"),
        _drop("prototypes"),
        _short_prototype,
        _long_mask,
        "[" * 100000,
        _huge_int_data,
        _float_input_dim,
        _numeric_string_data,
        _bool_data,
    ], ids=["non-json", "not-object", "no-params", "no-kind", "no-encoder",
            "no-params-key", "no-seed", "unknown-kind", "data-length",
            "bias-shape", "classifier-without-head", "no-prototypes",
            "prototype-length", "mask-length", "deep-nesting",
            "data-huge-int", "input-dim-float", "data-numeric-string",
            "data-bool"])
    def test_eval_reports_error(self, corrupt, sdc_checkpoint_doc, blob_csv,
                                tmp_path, capsys):
        path = tmp_path / "bad.json"
        if isinstance(corrupt, str):
            path.write_text(corrupt)
        else:
            doc = copy.deepcopy(sdc_checkpoint_doc)
            corrupt(doc)
            path.write_text(json.dumps(doc))
        assert main(["eval", "--checkpoint", str(path), "--data",
                     str(blob_csv), "--out", str(tmp_path / "e.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err


@pytest.fixture(scope="module")
def checkpoint_docs(blob_csv, sdc_checkpoint_doc, tmp_path_factory):
    """One valid checkpoint document of each kind."""
    out = tmp_path_factory.mktemp("ckpt") / "classifier.json"
    assert main(["train-classifier", "--data", str(blob_csv), "--seed", "1",
                 "--epochs", "1", "--hidden", "16", "--embedding-dim", "8",
                 "--out", str(out)]) == 0
    return {"clustering": sdc_checkpoint_doc,
            "classifier": json.loads(out.read_text())}


# hypothesis draws early entries most often, so the values most likely to
# break a loader come first
JUNK = st.sampled_from([10 ** 400, 2 ** 63, float("nan"), float("inf"), None,
                        "x", "1.5", True, False, [], {}, 0, -1, 3, 1.5, 1e308,
                        -1e308, [1.0], {"a": 1}])


def _slots(node) -> list:
    """Every (container, key) slot below ``node``; a long list of numbers
    offers only its first, middle and last slots."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = list(range(len(node)))
        if len(node) > 3 and all(isinstance(v, (int, float)) for v in node):
            keys = [0, len(node) // 2, len(node) - 1]
    else:
        return []
    return [slot for k in keys
            for slot in [(node, k), *_slots(node[k])]]


def _mutate(data, doc) -> None:
    """One random edit: drop a slot, retype it, or change a list's length
    or an integer's value by one (shapes, sizes)."""
    container, key = data.draw(st.sampled_from(_slots(doc)))
    value = container[key]
    op = data.draw(st.sampled_from(["drop", "retype", "grow", "shrink"]))
    if op == "drop":
        del container[key]
    elif op == "retype":
        container[key] = copy.deepcopy(data.draw(JUNK))
    elif isinstance(value, list) and value:
        if op == "grow":
            value.append(copy.deepcopy(value[-1]))
        else:
            del value[len(value) // 2:]
    elif isinstance(value, int) and not isinstance(value, bool):
        container[key] = value + (1 if op == "grow" else -1)


@pytest.mark.parametrize("kind", ["clustering", "classifier"])
def test_eval_rejects_weights_that_overflow(kind, checkpoint_docs, blob_csv,
                                            tmp_path, capsys):
    """Finite weights whose forward pass overflows give non-finite scores,
    which eval reports instead of ranking."""
    doc = copy.deepcopy(checkpoint_docs[kind])
    doc["params"][0]["data"] = [1e308] * len(doc["params"][0]["data"])
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", "--checkpoint", str(path), "--data", str(blob_csv),
                 "--split", "all", "--out", str(tmp_path / "e.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "not finite" in err
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("kind", ["clustering", "classifier"])
def test_eval_overflow_gives_the_error_line_alone(kind, checkpoint_docs,
                                                  blob_csv, tmp_path, capsys):
    """The overflow is reported once, by the error line: no numpy warning
    comes ahead of it (each would be an exception under this filter)."""
    doc = copy.deepcopy(checkpoint_docs[kind])
    doc["params"][0]["data"] = [1e308] * len(doc["params"][0]["data"])
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["eval", "--checkpoint", str(path), "--data", str(blob_csv),
                   "--split", "all", "--out", str(tmp_path / "e.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


class TestCheckpointFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_eval_succeeds_or_names_the_checkpoint(self, data,
                                                   checkpoint_docs, blob_csv,
                                                   tmp_path_factory):
        kind = data.draw(st.sampled_from(sorted(checkpoint_docs)))
        doc = copy.deepcopy(checkpoint_docs[kind])
        for _ in range(data.draw(st.integers(1, 3))):
            _mutate(data, doc)
        text = json.dumps(doc)
        if data.draw(st.booleans()):
            text = text[:data.draw(st.integers(0, len(text) - 1))]
        work = tmp_path_factory.getbasetemp()
        path = work / "fuzzed.json"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["eval", "--checkpoint", str(path), "--data",
                       str(blob_csv), "--out", str(work / "fuzzed-eval.json")])
        err = err.getvalue()
        assert ((rc, err) == (0, "")
                or (rc == 1 and err.startswith(f"error: {path}: ")))


class TestSweep:
    FAST = ["--ratios", "60:20,60:6", "--seeds", "0,1", "--dim", "4",
            "--epochs", "1", "--batch-size", "10", "--lr", "1e-3"]

    def test_row_counts_and_summary(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-imbalance", *self.FAST,
                     "--methods", "sdc-com,classifier",
                     "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 2   # ratios x methods x seeds
        assert all(r["status"] == "ok" for r in rows)
        with open(str(out) + ".summary.csv") as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == 4
        assert all(s["n_ok"] == "2" for s in summary)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ["sweep-imbalance", *self.FAST, "--methods", "classifier-lw"]
        assert main(flags + ["--out", str(a)]) == 0
        assert main(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_one_class_test_split_leaves_auc_empty(self, tmp_path):
        """At 30:5 the test split of seed 0 holds no minority row: the cell
        is scored without an AUC, which the median skips; it still counts
        as ok."""
        out = tmp_path / "s.csv"
        assert main(["sweep-imbalance", "--ratios", "30:10,30:5", "--seeds",
                     "0", "--dim", "4", "--epochs", "1", "--batch-size", "16",
                     "--separation", "16", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = [r for r in csv.DictReader(fh) if r["ratio"] == "30:5"]
        assert rows and all(r["status"] == "ok" and r["auc"] == ""
                            for r in rows)
        with open(str(out) + ".summary.csv") as fh:
            summary = [r for r in csv.DictReader(fh) if r["ratio"] == "30:5"]
        assert all(r["median_auc"] == "" and r["n_ok"] == "1"
                   for r in summary)

    def test_single_ratio_rejected(self, tmp_path):
        assert main(["sweep-imbalance", "--ratios", "60:20",
                     "--out", str(tmp_path / "s.csv")]) == 1

    def test_unknown_method_rejected(self, tmp_path):
        assert main(["sweep-imbalance", *self.FAST, "--methods", "magic",
                     "--out", str(tmp_path / "s.csv")]) == 1

    @pytest.mark.parametrize("flags", [
        ["--batch-size", "0"], ["--epochs", "0"], ["--dim", "0"],
        ["--dim", "1"], ["--ratios", "10:20,60:6"], ["--seeds", "-1"],
        ["--seeds", "0,-1"], ["--seeds", ","], ["--methods", ","],
        ["--lr", "nan"], ["--separation", "nan"],
        ["--ratios", "60:20,60:20"], ["--seeds", "0,0"],
        ["--methods", "classifier,classifier"],
    ], ids=["--batch-size", "--epochs", "--dim-0", "--dim-1",
            "--ratios-min-above-maj", "--seeds-negative",
            "--seeds-one-negative", "--seeds-empty", "--methods-empty",
            "--lr-nan", "--separation-nan", "--ratios-repeated",
            "--seeds-repeated", "--methods-repeated"])
    def test_bad_shared_flag_fails_before_any_cell(self, flags, tmp_path,
                                                   capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep-imbalance", *self.FAST, "--methods", "classifier",
                     *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    METHOD_CASES = [
        ("sdc-com", "train_sdc", "com", None),
        ("sdc-triplet", "train_sdc", "triplet", None),
        ("classifier", "train_classifier", None, training.EQUAL),
        ("classifier-lw", "train_classifier", None,
         training.INVERSE_FREQUENCY),
        ("udc-com", "train_udc", "com", None),
        ("udc-triplet", "train_udc", "triplet", None),
    ]

    @pytest.mark.parametrize("method, train, loss, weighting", METHOD_CASES,
                             ids=[case[0] for case in METHOD_CASES])
    def test_cell_trains_its_method(self, method, train, loss, weighting,
                                    monkeypatch):
        """Each sweep method reaches its training mode with its loss kind
        (a classifier has none to set) or class weighting, and the cell's
        shared settings."""
        calls = []

        class Stop(Exception):
            pass

        def capture(name):
            def fake(dataset, config, *rest):
                calls.append((name, config, *rest))
                raise Stop
            return fake

        for name in ("train_sdc", "train_udc", "train_classifier"):
            monkeypatch.setattr(training, name, capture(name))
        with pytest.raises(Stop):
            run_sweep_cell(n_maj=60, n_min=20, method=method, seed=3,
                           ratio_index=1, dim=4, separation=2.5, epochs=2,
                           batch_size=10, lr=1e-3)
        [(name, config, *rest)] = calls
        assert name == train
        if loss is not None:
            assert config.loss_kind == loss
        assert rest == ([] if weighting is None else [weighting])
        assert (config.seed, config.epochs, config.batch_size,
                config.adam.learning_rate) == (sweep_cell_seeds(3, 1)[2], 2,
                                               10, 1e-3)

    def test_cell_seeds_differ_across_ratios(self):
        assert sweep_cell_seeds(0, 0) != sweep_cell_seeds(0, 1)
        assert sweep_cell_seeds(0, 0) == sweep_cell_seeds(0, 0)


class TestBadInput:
    """Malformed flag values end in 'error: ...' and exit code 1."""

    @pytest.mark.parametrize("flags", [
        ["train-sdc", "--batch-size", "0"],
        ["train-sdc", "--hidden", "64,x"],
        ["sweep-imbalance", "--ratios", "60-10"],
        ["train-sdc", "--hidden", "0"],
        ["train-sdc", "--hidden", "64,0"],
        ["train-sdc", "--seed", "-1"],
        ["synth", "--maj", "30", "--min", "10", "--seed", "-1"],
        ["train-sdc", "--lr", "nan"],
        ["synth", "--maj", "30", "--min", "10", "--separation", "nan"],
        ["synth", "--maj", "30", "--min", "10", "--sigma", "inf"],
        ["synth", "--maj", "20", "--min", "10", "--sigma", "1e308",
         "--separation", "6"],
        ["synth", "--maj", "20", "--min", "10", "--sigma", "1e300",
         "--separation", "1e10"],
        ["synth", "--maj", "20", "--min", "10", "--sigma", "1e308",
         "--separation", "1"],
    ], ids=["batch-size-0", "hidden-64-x", "ratios-60-10", "hidden-0",
            "hidden-64-0", "train-seed-negative", "synth-seed-negative",
            "train-lr-nan", "synth-separation-nan", "synth-sigma-inf",
            "synth-sigma-overflow", "synth-separation-overflow",
            "synth-draw-overflow"])
    def test_reported_as_error(self, flags, blob_csv, tmp_path, capsys):
        data = ["--data", str(blob_csv)] if flags[0].startswith("train") else []
        assert main([*flags, *data, "--out", str(tmp_path / "o.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "tiny.csv"
    assert main(["synth", "--maj", "40", "--min", "12", "--dim", "4",
                 "--seed", "1", "--out", str(path)]) == 0
    return path


def test_udc_overflow_into_the_gmm_is_an_error(tiny_csv, tmp_path, capsys):
    """A step this large overflows the embeddings before any loss is
    formed, so the GMM fit is the first to see them."""
    assert main(["train-udc", "--data", str(tiny_csv), "--lr", "1e308",
                 "--epochs", "1", "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: ") and "finite" in err


# Flag values for the argument fuzz. Sizes stay small (widths, dims and
# batch sizes up to 64, class counts up to 200), so no case allocates more
# than a few MB; very large sizes are left untested.
FUZZ_VALUES = ["0", "-1", "-7", "1", "2", "3", "5", "16", "64", "nan", "inf",
               "-inf", "", "abc", "1e308", "-0", "0.5", "1.5"]
_VALUE = st.sampled_from(FUZZ_VALUES)
_LIST = st.lists(_VALUE, max_size=3).map(",".join)
_EPOCHS = st.sampled_from(["0", "-1", "1", "nan", "", "x"])
# flag -> (what parses: a type or the allowed choices, values to draw)
_TRAIN_FLAGS = {
    "--seed": (int, _VALUE), "--epochs": (int, _EPOCHS),
    "--batch-size": (int, _VALUE), "--lr": (float, _VALUE),
    "--loss": (("com", "triplet"), st.sampled_from(["com", "triplet", "x"])),
    "--hidden": (str, _LIST), "--embedding-dim": (int, _VALUE),
    "--dropout": (float, _VALUE)}
_COUNT = st.sampled_from([*FUZZ_VALUES, "200"])
FUZZ_FLAGS = {
    "synth": {"--maj": (int, _COUNT), "--min": (int, _COUNT),
              "--dim": (int, _VALUE), "--separation": (float, _VALUE),
              "--sigma": (float, _VALUE), "--seed": (int, _VALUE)},
    "train-sdc": _TRAIN_FLAGS,
    "train-udc": _TRAIN_FLAGS,
    "sweep-imbalance": {
        "--ratios": (str, st.lists(st.tuples(_VALUE, _VALUE).map(":".join),
                                   max_size=3).map(",".join)),
        "--seeds": (str, st.lists(_VALUE, max_size=2).map(",".join)),
        "--methods": (str, st.lists(st.sampled_from(
            ["sdc-com", "udc-com", "udc-triplet", "classifier-lw", "x", ""]),
            max_size=2, unique=True).map(",".join)),
        "--dim": (int, _VALUE), "--separation": (float, _VALUE),
        "--epochs": (int, _EPOCHS), "--batch-size": (int, _VALUE),
        "--lr": (float, _VALUE)},
}
# values a case gets for the flags it does not draw: one epoch, small data
FUZZ_DEFAULTS = {
    "synth": {"--maj": "20", "--min": "20"},
    "train-sdc": {"--epochs": "1"},
    "train-udc": {"--epochs": "1"},
    "sweep-imbalance": {"--epochs": "1", "--ratios": "30:10,30:5",
                        "--seeds": "0", "--dim": "4"},
}


def _parses(kind, text: str) -> bool:
    if isinstance(kind, tuple):
        return text in kind
    try:
        kind(text)
    except ValueError:
        return False
    return True


class TestArgumentFuzz:
    @pytest.mark.parametrize("command", sorted(FUZZ_FLAGS))
    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_exit_0_or_error_line(self, command, data, tiny_csv,
                                  tmp_path_factory):
        """Random flag values end in exit 0, or in exit 1 whose last
        stderr line is 'error: ...', never a traceback; argparse's usage
        exit (2) only for a value that does not parse as its flag's type."""
        flags = FUZZ_FLAGS[command]
        values = dict(FUZZ_DEFAULTS[command])
        parses = True
        for flag in data.draw(st.lists(st.sampled_from(sorted(flags)),
                                       min_size=1, unique=True)):
            kind, strategy = flags[flag]
            values[flag] = data.draw(strategy)
            parses &= _parses(kind, values[flag])
        work = tmp_path_factory.getbasetemp()
        argv = [command, *(f"{flag}={v}" for flag, v in values.items()),
                "--out", str(work / "fuzzed.out")]
        if command.startswith("train"):
            argv += ["--data", str(tiny_csv)]
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                rc = main(argv)
        except SystemExit as exc:
            assert exc.code == 2 and not parses, argv
            return
        err = err.getvalue()
        assert rc in (0, 1) and "Traceback" not in err, argv
        if rc == 1:
            assert err.splitlines()[-1].startswith("error: "), (argv, err)
