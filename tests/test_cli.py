import csv

import numpy as np
import pytest

from comclust import checkpoint as ckpt
from comclust.cli import main, sweep_cell_seeds
from comclust.dataio import load_csv, load_results, split_dataset
from comclust.encoder import embed
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

    def test_single_ratio_rejected(self, tmp_path):
        assert main(["sweep-imbalance", "--ratios", "60:20",
                     "--out", str(tmp_path / "s.csv")]) == 1

    def test_unknown_method_rejected(self, tmp_path):
        assert main(["sweep-imbalance", *self.FAST, "--methods", "magic",
                     "--out", str(tmp_path / "s.csv")]) == 1

    def test_cell_seeds_differ_across_ratios(self):
        assert sweep_cell_seeds(0, 0) != sweep_cell_seeds(0, 1)
        assert sweep_cell_seeds(0, 0) == sweep_cell_seeds(0, 0)


class TestBadInput:
    """Malformed flag values end in 'error: ...' and exit code 1."""

    @pytest.mark.parametrize("flags", [
        ["train-sdc", "--batch-size", "0"],
        ["train-sdc", "--margin", "foo"],
        ["sweep-imbalance", "--ratios", "60-10"],
    ], ids=["batch-size-0", "margin-foo", "ratios-60-10"])
    def test_reported_as_error(self, flags, blob_csv, tmp_path, capsys):
        data = ["--data", str(blob_csv)] if flags[0] != "sweep-imbalance" else []
        assert main([*flags, *data, "--out", str(tmp_path / "o.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
