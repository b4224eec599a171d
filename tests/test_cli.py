import ast
import contextlib
import copy
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import comclust
from comclust import checkpoint as ckpt
from comclust import cli, training
from comclust.autodiff import make_rng
from comclust.cli import main, run_sweep_cell, sweep_cell_seeds
from comclust.dataio import load_csv, split_dataset
from comclust.encoder import (MAX_PARAMETERS, EncoderConfig, embed,
                              init_encoder_params)
from comclust.errors import ParseError, TooFewSamplesError
from comclust.prototypes import (infer_label, malignancy_score,
                                 update_prototypes)
from comclust.training import evaluate_prototypes

from helpers import assert_same_text, load_results


@pytest.fixture(scope="module")
def blob_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "blobs.csv"
    rc = main(["synth", "--maj", "120", "--min", "40", "--dim", "8",
               "--separation", "6.0", "--seed", "3", "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def four_four_csv(tmp_path_factory):
    """4:4 blobs: round(0.125 * 4) = 0 rows of either class go to val."""
    path = tmp_path_factory.mktemp("data") / "four_four.csv"
    assert main(["synth", "--maj", "4", "--min", "4", "--dim", "2",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def collapse_csv(tmp_path_factory):
    """9000:1000 blobs on which a 9-unit, 3-wide encoder embeds a row of
    the first batch to zero."""
    path = tmp_path_factory.mktemp("collapse") / "data.csv"
    assert main(["synth", "--maj", "9000", "--min", "1000", "--dim", "8",
                 "--separation", "3", "--seed", "5",
                 "--out", str(path)]) == 0
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
        assert_same_text((tmp_path / "ra.json").read_bytes(),
                         (tmp_path / "rb.json").read_bytes())
        assert_same_text(a.read_bytes(), b.read_bytes())

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

    def test_empty_val_split_fails_before_training(
            self, four_four_csv, tmp_path, monkeypatch, capsys):
        def no_training(*args):
            raise AssertionError("trained despite an empty split")

        monkeypatch.setattr(training, "train_sdc", no_training)
        out = tmp_path / "m.json"
        assert main(["train-sdc", "--data", str(four_four_csv),
                     "--batch-size", "2", "--epochs", "1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: the val split of 8 samples is empty\n")
        assert list(tmp_path.iterdir()) == []

    def test_udc_smoke(self, blob_csv, tmp_path):
        out = tmp_path / "udc.json"
        assert main(["train-udc", "--data", str(blob_csv), "--seed", "2",
                     "--out", str(out), "--epochs", "1",
                     "--hidden", "16", "--embedding-dim", "8",
                     "--log", str(tmp_path / "udc_log.csv")]) == 0
        with open(tmp_path / "udc_log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert "gmm_nll" in rows[0]

    def test_udc_batch_size_1_fails_before_training(
            self, blob_csv, tmp_path, monkeypatch, capsys):
        """A UDC batch of 3 rows is below the 4 that ``fit_em`` needs: the
        batch size is refused by name before any GMM is fitted."""
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted a GMM despite the batch size")

        monkeypatch.setattr(training.gmm_mod, "fit_em", no_fit)
        assert main(["train-udc", "--data", str(blob_csv), "--batch-size",
                     "1", "--out", str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().err == (
            "error: batch_size 1 gives UDC's GMM 3 rows, below fit_em's 4\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, norms", [("train-udc", "(0, 1.87828)"),
                                                ("train-sdc", "(0, 1.46431)")])
    def test_collapsed_embedding_row_is_named(self, collapse_csv, tmp_path,
                                              capsys, command, norms):
        """A narrow encoder embeds some row to zero, whose cosine distance
        is undefined: the error says so and names the iteration."""
        out = tmp_path / "m.json"
        assert main([command, "--data", str(collapse_csv), "--epochs", "1",
                     "--hidden", "9", "--embedding-dim", "3",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: an embedding row collapsed to zero at iteration 0: "
            f"vector norm below 1e-12 {norms}\n")
        assert not out.exists()

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

    def test_single_sample_class_is_warned_about_once(self, tmp_path):
        """The warning reaches stderr once per run, not once per anchor
        that draws P = A."""
        data, out = tmp_path / "single.csv", tmp_path / "m.json"
        assert main(["synth", "--maj", "40", "--min", "1", "--seed", "7",
                     "--out", str(data)]) == 0
        src = str(Path(comclust.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "comclust.cli", "train-sdc", "--data",
             str(data), "--seed", "0", "--out", str(out)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True)
        assert run.returncode == 0
        assert run.stderr == ("class 1 has a single training sample; "
                              "using P = A\n")

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
        emb = embed(doc["params"].arrays, doc["encoder_config"],
                    load_csv(blob_csv).features)
        for row, score in zip(emb, evaluation["scores"]):
            _, d_min, d_maj = infer_label(row, doc["prototypes"])
            assert score == malignancy_score(d_min, d_maj)

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

    def test_empty_split_is_named(self, four_four_csv, tmp_path, capsys):
        model, wide = tmp_path / "model.json", tmp_path / "wide.csv"
        assert main(["synth", "--maj", "40", "--min", "10", "--dim", "2",
                     "--out", str(wide)]) == 0
        assert main(["train-sdc", "--data", str(wide), "--epochs", "1",
                     "--out", str(model)]) == 0
        capsys.readouterr()
        out = tmp_path / "eval.json"
        eval_args = ["eval", "--checkpoint", str(model), "--data",
                     str(four_four_csv), "--out", str(out), "--split"]
        assert main([*eval_args, "val"]) == 1
        assert capsys.readouterr().err == (
            "error: the val split of 8 samples is empty\n")
        assert not out.exists()
        assert main([*eval_args, "test"]) == 0
        assert len(load_results(out)["scores"]) == 2

    @pytest.mark.parametrize("block", [7, 53])   # 160 = 3 * 53 + 1
    @pytest.mark.parametrize("command", ["train-sdc", "train-classifier"])
    def test_eval_bytes_do_not_depend_on_the_block_size(
            self, command, block, blob_csv, tmp_path):
        model = tmp_path / "model.json"
        assert main([command, "--data", str(blob_csv), "--seed", "2",
                     "--epochs", "2", "--out", str(model)]) == 0
        outputs = []
        for rows in (training.INFER_BLOCK_ROWS, block):
            out = tmp_path / f"eval-{rows}.json"
            with mock.patch.object(training, "INFER_BLOCK_ROWS", rows):
                assert main(["eval", "--checkpoint", str(model), "--data",
                             str(blob_csv), "--split", "all",
                             "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert_same_text(*outputs)

    @pytest.mark.parametrize("centers", [
        ([1.0] + [0.5] * 7, [-1.0] + [0.5] * 7),
        ([0.0, 1.0] + [0.0] * 6, [2.0] + [0.0] * 7),
    ], ids=["gap-on-one-coordinate", "cl-min-zero-on-selected"])
    def test_scores_use_every_coordinate(self, centers, sdc_checkpoint_doc,
                                         blob_csv, tmp_path):
        """Center pairs whose gap reaches the mean per-center spread on
        feature 0 alone. Scored on that feature, each row would be at
        distance 0 or 2 from each center, so at most two distinct scores;
        the second pair's cl_min is 0 there and would give none."""
        doc = copy.deepcopy(sdc_checkpoint_doc)
        doc["prototypes"]["cl_min"], doc["prototypes"]["cl_maj"] = centers
        path, out = tmp_path / "model.json", tmp_path / "eval.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", "--checkpoint", str(path), "--data",
                     str(blob_csv), "--split", "all",
                     "--out", str(out)]) == 0
        assert len(set(load_results(out)["scores"])) > 2

    def test_a_one_row_file_scores_its_row_as_the_full_file_does(
            self, blob_csv, tmp_path):
        model = _train_sdc(blob_csv, tmp_path, epochs=2)
        lines = blob_csv.read_text().splitlines(keepends=True)
        one_row = tmp_path / "one.csv"
        one_row.write_text(lines[0] + lines[5])
        scores = []
        for data in (blob_csv, one_row):
            out = tmp_path / "eval.json"
            assert main(["eval", "--checkpoint", str(model), "--data",
                         str(data), "--split", "all",
                         "--out", str(out)]) == 0
            scores.append(load_results(out)["scores"])
        assert scores[1] == [scores[0][4]]

    def test_a_one_row_file_gives_a_classifier_row_the_full_file_bits(
            self, blob_csv, tmp_path):
        """Each of 20 rows, scored from a one-row file, gets the score bytes
        it gets in the whole file, although the 2-logit head's width is not
        a multiple of 8."""
        model = tmp_path / "clf.json"
        assert main(["train-classifier", "--data", str(blob_csv), "--seed",
                     "1", "--epochs", "2", "--out", str(model)]) == 0
        lines = blob_csv.read_text().splitlines(keepends=True)

        def scores(data):
            out = tmp_path / "eval.json"
            assert main(["eval", "--checkpoint", str(model), "--data",
                         str(data), "--split", "all",
                         "--out", str(out)]) == 0
            return load_results(out)["scores"]

        full, one_row = scores(blob_csv), tmp_path / "one.csv"
        for i in range(1, 21):
            one_row.write_text(lines[0] + lines[i])
            assert scores(one_row) == [full[i - 1]]


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
        for key in ("predictions", "scores"):
            assert first[key].dtype == second[key].dtype
            assert first[key].tobytes() == second[key].tobytes()

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


def _zero_center(key):
    def mutate(doc):
        doc["prototypes"][key] = [0.0] * len(doc["prototypes"][key])
    return mutate


def _huge_int_data(doc):
    doc["params"][0]["data"][0] = 10 ** 400


def _float_input_dim(doc):
    doc["encoder"]["input_dim"] = float(doc["encoder"]["input_dim"])


def _numeric_string_data(doc):
    doc["params"][0]["data"] = [str(v) for v in doc["params"][0]["data"]]


def _bool_data(doc):
    doc["params"][1]["data"] = [True] * len(doc["params"][1]["data"])


def _float_shape(doc):
    doc["params"][1]["shape"] = [float(n) for n in doc["params"][1]["shape"]]


def _bool_dropout(doc):
    doc["encoder"]["dropout_rate"] = False


class TestBadCheckpoint:
    """A malformed checkpoint ends in 'error: <path>: ...' and exit code 1."""

    @pytest.mark.parametrize("corrupt", [
        "not json {",
        "[1, 2]",
        '{"version": 1, "kind": "clustering"}',
        _drop("encoder"), _drop("params"), _drop("seed"),
        _short_data,
        _wide_bias,
        _drop("prototypes"),
        _short_prototype,
        "[" * 100000,
        _huge_int_data,
        _float_input_dim,
        _numeric_string_data,
        _bool_data,
        _set("version", True),
        _set("version", 1.0),
        _float_shape,
        _bool_dropout,
        _zero_center("cl_min"), _zero_center("cl_maj"),
        _set("config", 5), _set("config", "x"), _set("config", None),
        _set("config", [1]),
    ], ids=["non-json", "not-object", "no-params", "no-encoder",
            "no-params-key", "no-seed", "data-length", "bias-shape",
            "no-prototypes", "prototype-length", "deep-nesting",
            "data-huge-int", "input-dim-float", "data-numeric-string",
            "data-bool", "version-true", "version-float", "shape-float",
            "dropout-bool", "cl-min-zero", "cl-maj-zero",
            "config-int", "config-string", "config-null", "config-list"])
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


CENTER = hnp.arrays(np.float64, 6, elements=st.floats(-1e6, 1e6)).filter(
    lambda v: np.linalg.norm(v) >= 1e-12)


class TestCheckpointFormat:
    """Format 2 stores the two centers; loading derives the rest."""

    def test_a_clustering_checkpoint_stores_the_centers_alone(
            self, checkpoint_docs):
        common = {"version", "encoder", "params", "seed", "config"}
        assert set(checkpoint_docs["classifier"]) == common
        doc = checkpoint_docs["clustering"]
        assert set(doc) == common | {"prototypes"}
        assert set(doc["prototypes"]) == {"cl_min", "cl_maj"}
        assert doc["version"] == ckpt.FORMAT_VERSION == 2

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(cl_min=CENTER, cl_maj=CENTER)
    def test_loading_derives_what_training_does(self, cl_min, cl_maj,
                                                tmp_path_factory):
        """The separation bits of loaded centers are those
        update_prototypes gives the saved ones."""
        want = update_prototypes(None, cl_min, cl_maj)
        config = EncoderConfig(3, (4,), 6, 0.0)
        path = tmp_path_factory.getbasetemp() / "round-trip.json"
        ckpt.save_checkpoint(path, init_encoder_params(config, make_rng(0)),
                             config, want, 0, {})
        got = ckpt.load_checkpoint(path)["prototypes"]
        for field in ("cl_min", "cl_maj"):
            assert getattr(got, field).tobytes() == \
                getattr(want, field).tobytes()
        assert np.float64(got.separation).tobytes() == \
            np.float64(want.separation).tobytes()

    @pytest.mark.parametrize("kind", ["clustering", "classifier"])
    def test_a_version_1_document_evaluates_to_the_same_bytes(
            self, kind, checkpoint_docs, blob_csv, tmp_path):
        """Version 1 also stored the kind and, for a clustering model, the
        centers' separation and a feature mask (as 0/1 integers). A stored
        mask is not read: one that keeps a single feature scores as the
        version-2 file does, on every feature."""
        old = copy.deepcopy(checkpoint_docs[kind])
        old["version"], old["kind"] = 1, kind
        if kind == "clustering":
            proto = update_prototypes(None, old["prototypes"]["cl_min"],
                                      old["prototypes"]["cl_maj"])
            old["prototypes"]["separation"] = proto.separation
            dim = len(proto.cl_min)
            old["prototypes"]["feature_mask"] = [1] + [0] * (dim - 1)
        path, out = tmp_path / "model.json", tmp_path / "eval.json"
        evals = []
        for doc in (checkpoint_docs[kind], old):
            path.write_text(json.dumps(doc))
            assert main(["eval", "--checkpoint", str(path), "--data",
                         str(blob_csv), "--split", "all",
                         "--out", str(out)]) == 0
            evals.append(out.read_bytes())
        assert_same_text(*evals)


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
        ["--methods", "udc-com,sdc-com", "--batch-size", "1"],
    ], ids=["--batch-size", "--epochs", "--dim-0", "--dim-1",
            "--ratios-min-above-maj", "--seeds-negative",
            "--seeds-one-negative", "--seeds-empty", "--methods-empty",
            "--lr-nan", "--separation-nan", "--ratios-repeated",
            "--seeds-repeated", "--methods-repeated", "--batch-size-udc"])
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

    def test_cell_scores_only_its_test_split(self, monkeypatch):
        """A 4:4 cell has an empty val split, which it does not score; a
        5:5 cell has an empty test split and fails before it trains."""
        cell = dict(method="sdc-com", seed=0, ratio_index=0, dim=2,
                    separation=6.0, epochs=1, batch_size=2, lr=1e-3)
        metrics = run_sweep_cell(n_maj=4, n_min=4, **cell)["metrics"]
        assert 0.0 <= metrics["accuracy"] <= 1.0

        def no_training(*args):
            raise AssertionError("trained despite an empty split")

        monkeypatch.setattr(training, "train_sdc", no_training)
        with pytest.raises(TooFewSamplesError,
                           match="^the test split of 10 samples is empty$"):
            run_sweep_cell(n_maj=5, n_min=5, **cell)

    def test_cell_seeds_differ_across_ratios(self):
        assert sweep_cell_seeds(0, 0) != sweep_cell_seeds(0, 1)
        assert sweep_cell_seeds(0, 0) == sweep_cell_seeds(0, 0)


# a small sweep, so a flag that is wrongly accepted costs seconds
SWEEP_FAST = ["--ratios", "60:20,60:6", "--dim", "4", "--epochs", "1"]


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
        ["train-sdc", "--hidden", "16,,16"],
        ["sweep-imbalance", *SWEEP_FAST, "--seeds", "0,,1"],
        ["sweep-imbalance", *SWEEP_FAST, "--methods", "classifier,,"],
        ["sweep-imbalance", *SWEEP_FAST[2:], "--ratios", "60:20,60:6,"],
        ["synth", "--maj", "10000000000", "--min", "1", "--dim",
         "1000000000"],
        ["sweep-imbalance", *SWEEP_FAST[2:], "--ratios",
         "60:20,10000000000:1"],
    ], ids=["batch-size-0", "hidden-64-x", "ratios-60-10", "hidden-0",
            "hidden-64-0", "train-seed-negative", "synth-seed-negative",
            "train-lr-nan", "synth-separation-nan", "synth-sigma-inf",
            "synth-sigma-overflow", "synth-separation-overflow",
            "synth-draw-overflow", "hidden-empty-entry", "seeds-empty-entry",
            "methods-empty-entry", "ratios-empty-entry",
            "synth-too-many-values", "sweep-too-many-values"])
    def test_reported_as_error(self, flags, blob_csv, tmp_path, capsys):
        data = ["--data", str(blob_csv)] if flags[0].startswith("train") else []
        assert main([*flags, *data, "--out", str(tmp_path / "o.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_empty_hidden_means_no_hidden_layer(self, blob_csv, tmp_path):
        out = _train_sdc(blob_csv, tmp_path, hidden="", epochs=1)
        assert json.loads(out.read_text())["encoder"]["hidden"] == []


class TestMissingOutputDirectory:
    """An output path in a directory that does not exist ends in
    'error: ...' naming its flag, with exit code 1, before the command
    trains, evaluates, sweeps or writes any file."""

    @staticmethod
    def _refused(argv, tmp_path, capsys, flag, work):
        with mock.patch.object(cli, work,
                               side_effect=AssertionError("work began")):
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert flag in err and "does not exist" in err
        assert sorted(tmp_path.rglob("*")) == []

    @staticmethod
    def _outputs(tmp_path, flags: dict, missing: str) -> list:
        """Each flag's file in tmp_path, the one named ``missing`` in a
        directory that does not exist, as argv."""
        return [part for flag, name in flags.items()
                for part in (flag, str(tmp_path / ("gone" if flag == missing
                                                   else "") / name))]

    @pytest.mark.parametrize("command", ["train-sdc", "train-udc",
                                         "train-classifier"])
    @pytest.mark.parametrize("missing", ["--out", "--results", "--log"])
    def test_train(self, command, missing, blob_csv, tmp_path, capsys):
        outputs = self._outputs(tmp_path, {"--out": "m.json",
                                           "--results": "r.json",
                                           "--log": "log.csv"}, missing)
        self._refused([command, "--data", str(blob_csv), "--epochs", "1",
                       *outputs], tmp_path, capsys, missing, "_fit")

    def test_train_default_results_beside_out(self, blob_csv, tmp_path,
                                              capsys):
        self._refused(["train-sdc", "--data", str(blob_csv),
                       "--out", str(tmp_path / "gone" / "m.json")],
                      tmp_path, capsys, "--out", "_fit")

    def test_eval(self, sdc_checkpoint_doc, blob_csv, tmp_path_factory,
                  tmp_path, capsys):
        checkpoint = tmp_path_factory.mktemp("ckpt") / "model.json"
        checkpoint.write_text(json.dumps(sdc_checkpoint_doc))
        self._refused(["eval", "--checkpoint", str(checkpoint),
                       "--data", str(blob_csv), "--split", "all",
                       "--out", str(tmp_path / "gone" / "e.json")],
                      tmp_path, capsys, "--out", "_evaluate")

    @pytest.mark.parametrize("missing", ["--out", "--summary-out"])
    def test_sweep(self, missing, tmp_path, capsys):
        outputs = self._outputs(tmp_path, {"--out": "s.csv",
                                           "--summary-out": "s.summary.csv"},
                                missing)
        self._refused(["sweep-imbalance", *SWEEP_FAST, "--seeds", "0",
                       *outputs], tmp_path, capsys, missing,
                      "run_sweep_cell")

    def test_synth(self, tmp_path, capsys):
        with mock.patch.object(cli.dataio, "synth_imbalanced",
                               side_effect=AssertionError("work began")):
            assert main(["synth", "--maj", "30", "--min", "10",
                         "--out", str(tmp_path / "gone" / "d.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--out" in err
        assert sorted(tmp_path.rglob("*")) == []


TRAIN_COMMANDS = ["train-sdc", "train-udc", "train-classifier"]
TRAIN_OUTPUTS = {"--out": "m.json", "--results": "r.json", "--log": "log.csv"}
SWEEP_OUTPUTS = {"--out": "s.csv", "--summary-out": "s.summary.csv"}


class TestOutputPathClash:
    """An output that is an existing directory, or that is the same file as
    another output or as an input, ends in 'error: ...' naming its flags,
    with exit code 1, before the command does any work or writes or
    changes any file. Defaulted outputs count."""

    @staticmethod
    def _files(tmp_path) -> dict:
        return {p: p.read_bytes() if p.is_file() else None
                for p in tmp_path.rglob("*")}

    def _refused(self, argv, tmp_path, capsys, work, words):
        before = self._files(tmp_path)
        with mock.patch.object(cli, work,
                               side_effect=AssertionError("work began")):
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        for word in words:
            assert word in err
        assert self._files(tmp_path) == before

    @staticmethod
    def _argv(tmp_path, names: dict) -> list:
        return [part for flag, name in names.items()
                for part in (flag, str(tmp_path / name))]

    @pytest.mark.parametrize("command", TRAIN_COMMANDS)
    @pytest.mark.parametrize("flag", [*TRAIN_OUTPUTS, "default --results"])
    def test_train_output_is_a_directory(self, command, flag, blob_csv,
                                         tmp_path, capsys):
        names = dict(TRAIN_OUTPUTS)
        if flag == "default --results":
            del names["--results"]
            (tmp_path / "m.json.results.json").mkdir()
        else:
            (tmp_path / names[flag]).mkdir()
        self._refused([command, "--data", str(blob_csv), "--epochs", "1",
                       *self._argv(tmp_path, names)], tmp_path, capsys,
                      "_fit", [flag.split()[-1], "is a directory"])

    @pytest.mark.parametrize("command", TRAIN_COMMANDS)
    @pytest.mark.parametrize("first, second", [
        ("--out", "--results"), ("--out", "--log"), ("--results", "--log"),
        ("--data", "--out"), ("--data", "--results"), ("--data", "--log")])
    def test_train_same_file(self, command, first, second, blob_csv,
                             tmp_path, capsys):
        names = {"--data": "d.csv", **TRAIN_OUTPUTS}
        names[second] = names[first]
        (tmp_path / "d.csv").write_bytes(blob_csv.read_bytes())
        self._refused([command, "--epochs", "1", *self._argv(tmp_path, names)],
                      tmp_path, capsys, "_fit",
                      [first, second, "same file"])

    def test_train_default_results_is_the_log(self, blob_csv, tmp_path,
                                              capsys):
        self._refused(["train-sdc", "--data", str(blob_csv),
                       *self._argv(tmp_path, {
                           "--out": "m.json",
                           "--log": "m.json.results.json"})],
                      tmp_path, capsys, "_fit",
                      ["--results", "--log", "same file"])

    def test_paths_are_compared_resolved(self, blob_csv, tmp_path, capsys):
        (tmp_path / "sub").mkdir()
        self._refused(["train-sdc", "--data", str(blob_csv),
                       *self._argv(tmp_path, {
                           "--out": "m.json",
                           "--results": os.path.join("sub", "..", "m.json")})],
                      tmp_path, capsys, "_fit",
                      ["--out", "--results", "same file"])

    @pytest.fixture
    def eval_inputs(self, sdc_checkpoint_doc, blob_csv, tmp_path):
        (tmp_path / "model.json").write_text(json.dumps(sdc_checkpoint_doc))
        (tmp_path / "d.csv").write_bytes(blob_csv.read_bytes())
        return {"--checkpoint": "model.json", "--data": "d.csv"}

    def test_eval_output_is_a_directory(self, eval_inputs, tmp_path, capsys):
        (tmp_path / "e.json").mkdir()
        self._refused(["eval", "--split", "all", *self._argv(
                           tmp_path, {**eval_inputs, "--out": "e.json"})],
                      tmp_path, capsys, "_evaluate",
                      ["--out", "is a directory"])

    @pytest.mark.parametrize("source", ["--checkpoint", "--data"])
    def test_eval_same_file(self, source, eval_inputs, tmp_path, capsys):
        self._refused(["eval", "--split", "all", *self._argv(
                           tmp_path,
                           {**eval_inputs, "--out": eval_inputs[source]})],
                      tmp_path, capsys, "_evaluate",
                      [source, "--out", "same file"])

    @pytest.mark.parametrize("flag", [*SWEEP_OUTPUTS,
                                      "default --summary-out"])
    def test_sweep_output_is_a_directory(self, flag, tmp_path, capsys):
        names = dict(SWEEP_OUTPUTS)
        if flag == "default --summary-out":
            del names["--summary-out"]
            (tmp_path / "s.csv.summary.csv").mkdir()
        else:
            (tmp_path / names[flag]).mkdir()
        self._refused(["sweep-imbalance", *SWEEP_FAST, "--seeds", "0",
                       *self._argv(tmp_path, names)], tmp_path, capsys,
                      "run_sweep_cell", [flag.split()[-1], "is a directory"])

    def test_sweep_same_file(self, tmp_path, capsys):
        self._refused(["sweep-imbalance", *SWEEP_FAST, "--seeds", "0",
                       *self._argv(tmp_path, {"--out": "s.csv",
                                              "--summary-out": "s.csv"})],
                      tmp_path, capsys, "run_sweep_cell",
                      ["--out", "--summary-out", "same file"])

    def test_synth_output_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "d.csv").mkdir()
        with mock.patch.object(cli.dataio, "synth_imbalanced",
                               side_effect=AssertionError("work began")):
            assert main(["synth", "--maj", "30", "--min", "10",
                         "--out", str(tmp_path / "d.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--out" in err
        assert "is a directory" in err
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "d.csv"]


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


@pytest.mark.parametrize("command, message", [
    ("train-udc", "non-finite value among the points to cluster"),
    ("train-sdc", "non-finite gradient for parameter 0 of shape (4, 64)"),
], ids=["udc-kmeans", "sdc-adam"])
def test_failure_inside_training_names_the_iteration(tmp_path, capsys,
                                                     command, message):
    """The first step at this rate overflows the weights, so iteration 1
    fails: in UDC's k-means, in SDC's Adam update."""
    data = str(tmp_path / "d.csv")
    assert main(["synth", "--maj", "60", "--min", "20", "--dim", "4",
                 "--separation", "6", "--out", data]) == 0
    assert main([command, "--data", data, "--out", str(tmp_path / "m.json"),
                 "--epochs", "1", "--lr", "1e308"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"error: {message} at iteration 1"


def test_udc_overflowing_distances_are_an_error(tiny_csv, tmp_path, capsys):
    """Finite features this large overflow the squared distances that
    k-means++ draws its seeds by."""
    huge = tmp_path / "huge.csv"
    rows = tiny_csv.read_text().splitlines()
    huge.write_text("\n".join(
        [rows[0]] + [",".join([repr(float(v) * 1e300) for v in r[:-1]]
                              + [r[-1]])
                     for r in (row.split(",") for row in rows[1:])]) + "\n")
    assert main(["train-udc", "--data", str(huge), "--epochs", "1",
                 "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: ") and "overflow" in err
    assert "Traceback" not in err


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
