"""Acceptance suite: one test per release criterion.

Each criterion gets a single pass/fail test. End-to-end runs (SDC, UDC, the
imbalance sweep) are shared through module-scoped fixtures so their runtime
budgets are measured once.
"""

import time

import numpy as np
import pytest

from comclust import autodiff as ad
from comclust import encoder as enc
from comclust.autodiff import Var, backward, cosine_distance, grad_of, make_rng
from comclust.cli import main, run_sweep_cell
from comclust.dataio import TEST, BlobSpec, split_dataset, synth_imbalanced
from comclust.encoder import AdamConfig, EncoderConfig
from comclust.gmm import fit_em
from comclust.losses import (C_MIN, ClassWeights, com_adaptive_margin,
                             com_dist_wa, com_triplet_loss, triplet_loss,
                             udc_com_loss, weighted_cross_entropy)
from comclust.training import (TrainConfig, best_permutation_accuracy,
                               evaluate_prototypes, train_sdc, train_udc)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
E1N = np.array([-1.0, 0.0])

N_SEEDS = 5


def _blobs(seed):
    """The separable construction shared by the SDC and UDC criteria:
    800:80 samples (600:60 train after the 75/12.5/12.5 split), two blobs
    six sigma apart on orthogonal mean directions."""
    ds = synth_imbalanced(BlobSpec(n_maj=800, n_min=80, dim=8,
                                   separation=6.0, seed=100 + seed))
    return split_dataset(ds, seed=200 + seed)


@pytest.fixture(scope="module")
def sdc_runs():
    t0 = time.perf_counter()
    runs = []
    for seed in range(N_SEEDS):
        dataset = _blobs(seed)
        result = train_sdc(dataset, TrainConfig(seed=seed))
        x, y = dataset.subset(TEST)
        metrics = evaluate_prototypes(result.params, result.encoder_config,
                                      result.prototypes, x, y)["metrics"]
        runs.append({"log": result, "metrics": metrics})
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def udc_runs():
    t0 = time.perf_counter()
    runs = []
    config_kw = dict(batch_size=15, embedding_dim=16, hidden=(64,),
                     adam=AdamConfig(learning_rate=1e-4))
    for seed in range(N_SEEDS):
        dataset = _blobs(seed)
        result = train_udc(dataset, TrainConfig(seed=seed, **config_kw))
        x, y = dataset.subset(TEST)
        out = evaluate_prototypes(result.params, result.encoder_config,
                                  result.prototypes, x, y)
        acc = best_permutation_accuracy(y, np.asarray(out["predictions"]))
        runs.append({"log": result, "accuracy": acc})
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def sweep_results():
    """Six ratios, methods sdc-com and classifier-lw everywhere plus
    sdc-triplet at the most imbalanced ratio, five seeds each."""
    ratios = [(900, 900), (900, 450), (900, 225), (900, 60), (900, 25),
              (900, 15)]
    t0 = time.perf_counter()
    medians = {}
    for ratio_index, (n_maj, n_min) in enumerate(ratios):
        methods = ["sdc-com", "classifier-lw"]
        if (n_maj, n_min) == (900, 15):
            methods.append("sdc-triplet")
        for method in methods:
            aucs = [run_sweep_cell(n_maj, n_min, method, seed, ratio_index,
                                   dim=32, separation=2.5, epochs=15,
                                   batch_size=60, lr=1e-4)["metrics"]["auc"]
                    for seed in range(N_SEEDS)]
            medians[(f"{n_maj}:{n_min}", method)] = float(np.median(aucs))
    return {"medians": medians, "elapsed": time.perf_counter() - t0}


def test_criterion_01_loss_analytics():
    """Hand-computed loss values, tolerance 1e-9, under one second."""
    t0 = time.perf_counter()
    tol = 1e-9
    assert triplet_loss(E1, E1, E2, 0.2) == pytest.approx(0.0, abs=tol)
    assert triplet_loss(E1, E1, E1, 0.2) == pytest.approx(0.2, abs=tol)
    assert com_dist_wa(E1, E1, E2) == pytest.approx(-1.0, abs=tol)
    assert com_dist_wa(E1, E1, E1) == pytest.approx(0.0, abs=tol)
    assert com_adaptive_margin(E1, E1) == pytest.approx(1.0, abs=tol)
    assert com_adaptive_margin(E1, E2) == pytest.approx(0.0, abs=tol)
    assert com_adaptive_margin(E1, E1N) == pytest.approx(-1.0, abs=tol)
    assert com_triplet_loss(E1[None], E1[None],
                            E1[None]) == pytest.approx(1.0, abs=tol)
    assert com_triplet_loss(E1[None], E1[None],
                            E2[None]) == pytest.approx(0.0, abs=tol)
    w = ClassWeights(1.0, 1.0)
    assert weighted_cross_entropy([1.0], [1.0 - 1e-12], w) == \
        pytest.approx(0.0, abs=tol)
    assert weighted_cross_entropy([1.0], [0.5], w) == \
        pytest.approx(np.log(2.0), abs=tol)
    assert time.perf_counter() - t0 < 1.0


def _as_row(v):
    return ad.take_rows(ad.Var(v.value[None, :], (v,), lambda g: (g[0],)),
                        [0])


def _fd_check(build, arrays, h=1e-4, rel_tol=1e-3):
    """Analytic vs central-difference gradients over every array entry."""
    leaves = [Var(a.copy()) for a in arrays]
    loss = build(leaves)
    backward(loss)
    for k, base in enumerate(arrays):
        analytic = grad_of(leaves[k]).ravel()
        flat = base.ravel()
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            vals = []
            for delta in (h, -h):
                flat[i] = orig + delta
                vals.append(build([Var(a.copy()) for a in arrays]).item())
            flat[i] = orig
            num[i] = (vals[0] - vals[1]) / (2 * h)
        denom = np.maximum.reduce([np.abs(analytic), np.abs(num),
                                   np.full_like(num, 1e-8)])
        assert np.max(np.abs(analytic - num) / denom) < rel_tol


def test_criterion_02_gradient_correctness():
    """200 random configurations per loss, h=1e-4, 1e-3 relative error,
    hinge kinks excluded. Runtime < 30 s."""
    t0 = time.perf_counter()
    rng = make_rng(202)
    kink_tol = 1e-3

    checked = 0
    while checked < 200:     # traditional triplet
        a, p, n = rng.normal(size=(3, 4))
        alpha = float(rng.uniform(0.0, 0.5))
        arg = cosine_distance(a, p) - cosine_distance(a, n) + alpha
        if abs(arg) < kink_tol:
            continue
        _fd_check(lambda lv, alpha=alpha: triplet_loss(*lv, alpha), [a, p, n])
        checked += 1

    checked = 0
    while checked < 200:     # COM-triplet, adaptive margin
        a, p, n = rng.normal(size=(3, 4))
        arg = com_dist_wa(a, p, n) + com_adaptive_margin(p, n)
        if abs(arg) < kink_tol:
            continue
        _fd_check(lambda lv: com_triplet_loss(
            _as_row(lv[0]), _as_row(lv[1]), _as_row(lv[2])), [a, p, n])
        checked += 1

    checked = 0
    while checked < 200:     # unsupervised variant on cluster means
        mu_min, mu_maj, a = rng.normal(size=(3, 4))
        cls = int(rng.integers(0, 2))
        own, other = ((mu_min, mu_maj) if cls == C_MIN
                      else (mu_maj, mu_min))
        arg = com_dist_wa(a, own, other) + com_adaptive_margin(mu_min, mu_maj)
        if abs(arg) < kink_tol:
            continue
        _fd_check(lambda lv, cls=cls, mn=mu_min, mj=mu_maj: udc_com_loss(
            _as_row(lv[0]), [cls], mn, mj), [a])
        checked += 1

    config = EncoderConfig(input_dim=3, hidden=(4,), embedding_dim=2,
                           dropout_rate=0.0)
    for _ in range(200):     # weighted cross-entropy through the encoder
        store = enc.init_encoder_params(config, rng, enc.HEAD_OUTPUTS)
        x = rng.normal(size=(4, 3))
        y = rng.integers(0, 2, size=4).astype(float)
        weights = ClassWeights(float(rng.uniform(0.5, 3.0)),
                               float(rng.uniform(0.5, 3.0)))

        def build(leaves, x=x, y=y, weights=weights):
            emb = enc.forward(leaves[:4], config, x, train_mode=False)
            probs = enc.minority_probability(leaves[4:], emb)
            return weighted_cross_entropy(y, probs, weights)

        _fd_check(build, store.arrays)

    assert time.perf_counter() - t0 < 30.0


def test_criterion_03_em_soundness():
    """NLL monotone on 50 random datasets; parameter recovery at 6-sigma
    separation with N=2000, median of 10 seeds. Runtime < 30 s."""
    t0 = time.perf_counter()
    rng = make_rng(303)
    for trial in range(50):
        n0, n1 = int(rng.integers(10, 60)), int(rng.integers(10, 60))
        x = np.vstack([rng.normal(rng.normal(scale=3), rng.uniform(0.5, 2),
                                  size=(n0, 2)),
                       rng.normal(rng.normal(scale=3), rng.uniform(0.5, 2),
                                  size=(n1, 2))])
        model = fit_em(x, seed=trial)
        assert np.all(np.diff(model.nll_trace) <= 1e-9)

    sigma = 0.8
    mu0 = np.zeros(3)
    mu1 = np.full(3, 6.0 * sigma / np.sqrt(3))   # exactly 6 sigma apart
    mean_errors, weight_errors = [], []
    for seed in range(10):
        gen = make_rng(7000 + seed)
        x = np.vstack([gen.normal(mu0, sigma, size=(1200, 3)),
                       gen.normal(mu1, sigma, size=(800, 3))])
        model = fit_em(x, seed=seed)
        order = np.argsort(model.means[:, 0])
        mean_errors.append(max(
            np.linalg.norm(model.means[order][0] - mu0),
            np.linalg.norm(model.means[order][1] - mu1)))
        weight_errors.append(np.max(np.abs(model.weights[order]
                                           - np.array([0.6, 0.4]))))
    assert np.median(mean_errors) < 0.1 * sigma
    assert np.median(weight_errors) < 0.05
    assert time.perf_counter() - t0 < 30.0


def test_criterion_04_prototype_monotonicity(sdc_runs, udc_runs):
    """Separation sequences non-decreasing over every training log,
    asserted exactly."""
    for bundle in (sdc_runs, udc_runs):
        for run in bundle["runs"]:
            seps = np.asarray(run["log"].separations)
            assert np.all(np.diff(seps) >= 0.0)


def test_criterion_05_metrics_oracles():
    """Weighted metrics and AUC against brute-force oracles to 1e-12 on
    1000 random instances of size <= 1000. Runtime < 30 s."""
    from comclust.metrics import roc_auc, weighted_metrics
    t0 = time.perf_counter()
    rng = make_rng(505)
    for trial in range(1000):
        n = int(rng.integers(2, 1001))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        preds = rng.integers(0, 2, size=n)
        if trial % 2:
            scores = rng.integers(0, 8, size=n) / 7.0   # plenty of ties
        else:
            scores = rng.normal(size=n)

        got = weighted_metrics(labels, preds)
        total = len(labels)
        oracle = dict.fromkeys(("recall", "precision", "specificity", "f1"),
                               0.0)
        for cls in (0, 1):
            support = np.sum(labels == cls)
            tp = np.sum((labels == cls) & (preds == cls))
            fp = np.sum((labels != cls) & (preds == cls))
            tn = np.sum((labels != cls) & (preds != cls))
            fn = support - tp
            rec = tp / (tp + fn) if tp + fn else 0.0
            prec = tp / (tp + fp) if tp + fp else 0.0
            spec = tn / (tn + fp) if tn + fp else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            for key, val in (("recall", rec), ("precision", prec),
                             ("specificity", spec), ("f1", f1)):
                oracle[key] += (support / total) * val
        oracle["accuracy"] = float(np.mean(labels == preds))
        for key, val in oracle.items():
            assert abs(got[key] - val) <= 1e-12
        assert abs(got["recall"] - got["accuracy"]) <= 1e-12

        pos = scores[labels == 1][:, None]
        neg = scores[labels == 0][None, :]
        pairwise = (np.sum(pos > neg) + 0.5 * np.sum(pos == neg)) \
            / (pos.size * neg.size)
        assert abs(roc_auc(labels, scores) - pairwise) <= 1e-12
    assert time.perf_counter() - t0 < 30.0


def test_criterion_06_sdc_end_to_end(sdc_runs):
    """Supervised training on separable blobs: median held-out accuracy
    >= 0.95 and AUC >= 0.98 over five seeds. Runtime < 60 s."""
    accs = [run["metrics"]["accuracy"] for run in sdc_runs["runs"]]
    aucs = [run["metrics"]["auc"] for run in sdc_runs["runs"]]
    assert np.median(accs) >= 0.95
    assert np.median(aucs) >= 0.98
    assert sdc_runs["elapsed"] < 60.0


def test_criterion_07_udc_end_to_end(udc_runs):
    """Unsupervised training on the same blobs with labels hidden: median
    best-permutation held-out accuracy >= 0.95 over five seeds.
    Runtime < 120 s."""
    accs = [run["accuracy"] for run in udc_runs["runs"]]
    assert np.median(accs) >= 0.95
    assert udc_runs["elapsed"] < 120.0


def test_criterion_08_sweep_trend(sweep_results):
    """Imbalance sweep: the deep-clustering method degrades no more than
    the weighted classifier from balanced to 900:15 and wins outright at
    900:15. Runtime < 5 min."""
    med = sweep_results["medians"]
    com_drop = med[("900:900", "sdc-com")] - med[("900:15", "sdc-com")]
    clf_drop = (med[("900:900", "classifier-lw")]
                - med[("900:15", "classifier-lw")])
    assert com_drop <= clf_drop
    assert med[("900:15", "sdc-com")] >= med[("900:15", "classifier-lw")]
    assert sweep_results["elapsed"] < 300.0


def test_criterion_09_com_vs_traditional_triplet(sweep_results):
    """At 900:15 the adaptive-margin loss is at least as good as the
    constant-margin triplet baseline (median AUC, five seeds)."""
    med = sweep_results["medians"]
    assert med[("900:15", "sdc-com")] >= med[("900:15", "sdc-triplet")]


def test_criterion_10_determinism(tmp_path):
    """Every command repeated with identical flags produces byte-identical
    result files."""
    data = tmp_path / "data.csv"
    flags = ["synth", "--maj", "120", "--min", "40", "--dim", "8",
             "--separation", "6.0", "--seed", "3"]
    data_b = tmp_path / "data_b.csv"
    assert main(flags + ["--out", str(data)]) == 0
    assert main(flags + ["--out", str(data_b)]) == 0
    assert data.read_bytes() == data_b.read_bytes()

    fast = ["--data", str(data), "--seed", "1", "--epochs", "2",
            "--hidden", "16", "--embedding-dim", "8"]
    for command, extra in (("train-sdc", []),
                           ("train-udc", []),
                           ("train-classifier", ["--weighting",
                                                 "inverse-frequency"])):
        outputs = []
        for tag in ("a", "b"):
            model = tmp_path / f"{command}-{tag}.json"
            results = tmp_path / f"{command}-{tag}.results.json"
            assert main([command, *fast, *extra, "--out", str(model),
                         "--results", str(results)]) == 0
            outputs.append((model.read_bytes(), results.read_bytes()))
        assert outputs[0] == outputs[1]

    model = tmp_path / "train-sdc-a.json"
    evals = []
    for tag in ("a", "b"):
        out = tmp_path / f"eval-{tag}.json"
        assert main(["eval", "--checkpoint", str(model), "--data", str(data),
                     "--out", str(out)]) == 0
        evals.append(out.read_bytes())
    assert evals[0] == evals[1]

    sweeps = []
    for tag in ("a", "b"):
        out = tmp_path / f"sweep-{tag}.csv"
        assert main(["sweep-imbalance", "--ratios", "60:20,60:6",
                     "--seeds", "0", "--methods", "sdc-com,classifier-lw",
                     "--dim", "4", "--epochs", "1", "--batch-size", "10",
                     "--out", str(out)]) == 0
        sweeps.append((out.read_bytes(),
                       (tmp_path / f"sweep-{tag}.csv.summary.csv").read_bytes()))
    assert sweeps[0] == sweeps[1]
