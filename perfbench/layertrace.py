"""Outside-in layer trace for the comclust CLI.

Hooks wrap comclust's public functions at the names their callers resolve
them through (``comclust.training.backward``, ``comclust.gmm.kmeans``, ...),
so the program itself is not edited. Each call becomes a span (name, start,
end, parent) kept in memory; when a command ends its spans are folded into
per-layer self times: a span's duration minus the time its child spans cover.
A hook whose target no longer exists is reported by name as missing, never
as a zero.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time
from contextlib import contextmanager

# span name -> the "module:attribute" names it wraps. The layer is the part
# of the span name before the dot.
HOOKS = {
    "cli.sweep_cell": ["comclust.cli:run_sweep_cell"],
    "dataio.load_csv": ["comclust.cli:load_csv"],
    "dataio.save_results": ["comclust.cli:save_results"],
    "checkpoint.save": ["comclust.checkpoint:save_checkpoint"],
    "checkpoint.load": ["comclust.checkpoint:load_checkpoint"],
    "training.train": ["comclust.training:train_sdc",
                       "comclust.training:train_udc",
                       "comclust.training:train_classifier"],
    "training.evaluate": ["comclust.cli:evaluate_prototypes",
                          "comclust.cli:evaluate_classifier"],
    "training.sample_triplets": ["comclust.training:sample_triplets"],
    "encoder.forward": ["comclust.encoder:forward"],
    "encoder.embed": ["comclust.encoder:embed"],
    "encoder.head": ["comclust.encoder:minority_probability"],
    "encoder.adam": ["comclust.encoder:adam_step"],
    "losses.loss": ["comclust.training:com_triplet_loss",
                    "comclust.training:triplet_loss_batch",
                    "comclust.training:udc_com_loss",
                    "comclust.training:weighted_cross_entropy"],
    "autodiff.backward": ["comclust.training:backward"],
    "gmm.fit_em": ["comclust.gmm:fit_em"],
    "gmm.kmeans": ["comclust.gmm:kmeans"],
    "gmm.responsibilities": ["comclust.gmm:responsibilities"],
    "prototypes.infer": ["comclust.training:infer_label",
                         "comclust.training:malignancy_score"],
    "prototypes.update": ["comclust.training:update_prototypes"],
    "prototypes.batch_centers": ["comclust.training:batch_centers"],
    "metrics.auc": ["comclust.training:roc_auc"],
    "metrics.weighted": ["comclust.training:weighted_metrics"],
}

ROOT = "cli.command"
# Node counting walks the graph before each backward; its span keeps that
# cost out of the program's layers.
COUNT = "trace.count_nodes"

# per-layer metric -> unit; derived by Tracer.metrics()
PER_LAYER = {
    "autodiff.backward_s": "s",
    "autodiff.nodes_per_backward": "count",
    "losses.loss_s": "s",
    "losses.loss_calls": "count",
    "gmm.fit_em_s": "s",
    "gmm.kmeans_s": "s",
    "gmm.responsibilities_s": "s",
    "gmm.fits": "count",
    "gmm.kmeans_per_fit": "ratio",
    "gmm.em_iters_per_fit": "count",
    "prototypes.infer_s": "s",
    "prototypes.infer_calls": "count",
    "prototypes.update_s": "s",
    "prototypes.batch_centers_s": "s",
    "prototypes.accept_ratio": "ratio",
    "prototypes.offered": "count",
    "encoder.forward_s": "s",
    "encoder.adam_s": "s",
    "encoder.embed_s": "s",
    "encoder.head_s": "s",
    "training.train_self_s": "s",
    "training.evaluate_s": "s",
    "training.sample_triplets_s": "s",
    "training.iterations": "count",
    "training.iter_ms_p50": "ms",
    "training.iter_ms_p95": "ms",
    "training.iter_samples": "count",
    "dataio.load_csv_s": "s",
    "dataio.save_results_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.load_s": "s",
    "metrics.auc_s": "s",
    "metrics.weighted_s": "s",
    "cli.command_s": "s",
    "cli.sweep_cell_s": "s",
    "cli.sweep_cells": "count",
    "trace.overhead_frac": "ratio",
    "machine.calib_s": "s",
}

# per-layer time metric -> the span whose summed self time it reports
SELF_TIME = {
    "autodiff.backward_s": "autodiff.backward",
    "losses.loss_s": "losses.loss",
    "gmm.fit_em_s": "gmm.fit_em",
    "gmm.kmeans_s": "gmm.kmeans",
    "gmm.responsibilities_s": "gmm.responsibilities",
    "prototypes.infer_s": "prototypes.infer",
    "prototypes.update_s": "prototypes.update",
    "prototypes.batch_centers_s": "prototypes.batch_centers",
    "encoder.forward_s": "encoder.forward",
    "encoder.adam_s": "encoder.adam",
    "encoder.embed_s": "encoder.embed",
    "encoder.head_s": "encoder.head",
    "training.train_self_s": "training.train",
    "training.evaluate_s": "training.evaluate",
    "training.sample_triplets_s": "training.sample_triplets",
    "dataio.load_csv_s": "dataio.load_csv",
    "dataio.save_results_s": "dataio.save_results",
    "checkpoint.save_s": "checkpoint.save",
    "checkpoint.load_s": "checkpoint.load",
    "metrics.auc_s": "metrics.auc",
    "metrics.weighted_s": "metrics.weighted",
}

# per-command call counts -> span name
CALLS = {
    "losses.loss_calls": "losses.loss",
    "gmm.fits": "gmm.fit_em",
    "prototypes.infer_calls": "prototypes.infer",
    "prototypes.offered": "prototypes.update",
    "cli.sweep_cells": "cli.sweep_cell",
}

# metric -> the hooks it is derived from; a missing hook voids the metric
NEEDS = {m: [s] for m, s in {**SELF_TIME, **CALLS}.items()}
NEEDS.update({
    "autodiff.nodes_per_backward": ["autodiff.backward", "Var._parents"],
    "gmm.kmeans_per_fit": ["gmm.fit_em", "gmm.kmeans"],
    "gmm.em_iters_per_fit": ["gmm.fit_em", "GaussianMixture.nll_trace"],
    "prototypes.accept_ratio": ["prototypes.update"],
    "training.iterations": ["encoder.forward", "training.train"],
    "training.iter_ms_p50": ["encoder.forward", "training.train"],
    "training.iter_ms_p95": ["encoder.forward", "training.train"],
    "training.iter_samples": ["encoder.forward", "training.train"],
    "cli.sweep_cell_s": ["cli.sweep_cell"],
})


def _resolve(target: str):
    module_name, attr = target.split(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, None
    return module, getattr(module, attr, None)


def _count_nodes(root) -> int | None:
    """Distinct graph nodes reachable from ``root`` through ``_parents``;
    None when the graph does not expose its parents."""
    if not hasattr(root, "_parents"):
        return None
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _train_mode(args, kwargs) -> bool:
    # encoder.forward(param_vars, config, x_batch, train_mode=False, rng=None)
    if "train_mode" in kwargs:
        return bool(kwargs["train_mode"])
    return len(args) > 3 and bool(args[3])


class Tracer:
    """Span recorder. ``command()`` wraps the hooks around one CLI command
    and folds its spans into per-command figures when it ends."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.missing = []        # hook names whose target is gone
        self.commands = []       # per-command summaries
        self._counts = {}
        self._iter_gaps = []     # ms between consecutive train-mode forwards
        self._train_starts = []  # train-mode forward starts in this train span

    # -- hooks -------------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, kwargs, out)
            return out
        return wrapper

    def _bump(self, key, n=1):
        self._counts[key] = self._counts.get(key, 0) + n

    def _after(self, name):
        """Per-hook counters, taken where the work happens."""
        if name == "encoder.forward":
            def after(idx, args, kwargs, out):
                if _train_mode(args, kwargs):
                    self._bump("train_forwards")
                    self._train_starts.append(self.spans[idx][1])
            return after
        if name == "gmm.fit_em":
            def after(idx, args, kwargs, out):
                trace = getattr(out, "nll_trace", None)
                if trace is None:
                    self._note_missing("GaussianMixture.nll_trace")
                else:
                    self._bump("em_iters", len(trace))
            return after
        if name == "prototypes.update":
            def after(idx, args, kwargs, out):
                current = args[0] if args else kwargs.get("current")
                self._bump("accepted", int(out is not current))
            return after
        if name == "training.train":
            def after(idx, args, kwargs, out):
                self._close_train_span()
            return after
        return None

    def _wrap_backward(self, fn):
        traced = self._span("autodiff.backward", fn)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(loss, *args, **kwargs):
            idx = len(spans)
            spans.append([COUNT, clock(), 0.0, stack[-1] if stack else -1])
            n = _count_nodes(loss)
            spans[idx][2] = clock()
            if n is None:
                self._note_missing("Var._parents")
            else:
                self._bump("backwards")
                self._bump("nodes", n)
            return traced(loss, *args, **kwargs)
        return wrapper

    def _note_missing(self, name):
        if name not in self.missing:
            self.missing.append(name)

    def _close_train_span(self):
        starts = self._train_starts
        self._iter_gaps.extend(1e3 * (b - a) for a, b in zip(starts, starts[1:]))
        self._train_starts = []

    @contextmanager
    def _installed(self):
        """Wrap every hook target; restore the originals on exit."""
        saved = []
        try:
            for name, targets in HOOKS.items():
                for target in targets:
                    module, fn = _resolve(target)
                    if fn is None:
                        self._note_missing(target)
                        continue
                    if name == "autodiff.backward":
                        wrapper = self._wrap_backward(fn)
                    else:
                        wrapper = self._span(name, fn, self._after(name))
                    attr = target.split(":")[1]
                    saved.append((module, attr, fn))
                    setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def missing_for(self, hook) -> list:
        """Missing targets behind a span name or a named attribute."""
        return [t for t in HOOKS.get(hook, [hook]) if t in self.missing]

    # -- commands ----------------------------------------------------------

    @contextmanager
    def command(self):
        """Hooks installed and a root span open for one CLI command."""
        self.spans.clear()
        self._counts = {}
        self._train_starts = []
        with self._installed():
            self.spans.append([ROOT, time.perf_counter(), 0.0, -1])
            self.stack.append(0)
            try:
                yield
            finally:
                self.spans[0][2] = time.perf_counter()
                self.stack.pop()
        self.commands.append(self._summarise())

    def _summarise(self) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_time, calls = {}, {}
        for (name, start, end, _), c in zip(spans, child):
            self_time[name] = self_time.get(name, 0.0) + (end - start - c)
            calls[name] = calls.get(name, 0) + 1
        root = spans[0][2] - spans[0][1]
        cells = [end - start for name, start, end, _ in spans
                 if name == "cli.sweep_cell"]
        return {"root_s": root, "self": self_time, "calls": calls,
                "counts": dict(self._counts), "cells": cells,
                "self_sum_s": sum(self_time.values())}

    # -- results -----------------------------------------------------------

    def self_sum_error(self) -> float:
        """Largest |sum of self times - root duration| over the commands."""
        return max((abs(c["self_sum_s"] - c["root_s"]) for c in self.commands),
                   default=0.0)

    def layer_shares(self) -> dict:
        """Share of traced command time per layer (self time), all commands."""
        total = sum(c["root_s"] for c in self.commands)
        shares = {}
        for c in self.commands:
            for name, t in c["self"].items():
                layer = name.split(".")[0]
                shares[layer] = shares.get(layer, 0.0) + t / total
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

    def metrics(self, scaled_s: dict, calib_s: float) -> dict:
        """Every per-layer metric; a metric whose hook is missing has value
        None and names the missing hooks. ``scaled_s`` maps traced? to the
        run's command times scaled to one host speed."""
        cmds = self.commands

        def med(values):
            return float(statistics.median(values))

        def total(key):
            return sum(c["counts"].get(key, 0) for c in cmds)

        def ratio(num, den):
            return num / den if den else 0.0

        values = {m: med([c["self"].get(s, 0.0) for c in cmds])
                  for m, s in SELF_TIME.items()}
        values.update({m: med([c["calls"].get(s, 0) for c in cmds])
                       for m, s in CALLS.items()})
        gaps = sorted(self._iter_gaps)
        cells = [t for c in cmds for t in c["cells"]]
        fits = sum(c["calls"].get("gmm.fit_em", 0) for c in cmds)
        values.update({
            "autodiff.nodes_per_backward": ratio(total("nodes"),
                                                 total("backwards")),
            "gmm.kmeans_per_fit": ratio(
                sum(c["calls"].get("gmm.kmeans", 0) for c in cmds), fits),
            "gmm.em_iters_per_fit": ratio(total("em_iters"), fits),
            "prototypes.accept_ratio": ratio(
                total("accepted"),
                sum(c["calls"].get("prototypes.update", 0) for c in cmds)),
            "training.iterations": med([c["counts"].get("train_forwards", 0)
                                        for c in cmds]),
            "training.iter_ms_p50": _percentile(gaps, 0.50),
            "training.iter_ms_p95": _percentile(gaps, 0.95),
            "training.iter_samples": len(gaps),
            "cli.command_s": med([c["root_s"] for c in cmds]),
            "cli.sweep_cell_s": med(cells) if cells else 0.0,
            "trace.overhead_frac": (med(scaled_s[True])
                                    / med(scaled_s[False]) - 1.0),
            "machine.calib_s": calib_s,
        })
        out = {}
        for name, unit in PER_LAYER.items():
            gone = [t for h in NEEDS.get(name, []) for t in self.missing_for(h)]
            if gone:
                out[name] = {"value": None, "unit": unit, "missing": gone}
            else:
                out[name] = {"value": values[name], "unit": unit}
        return out


def _percentile(sorted_values, q) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples (the sample
    count is reported beside it)."""
    if not sorted_values:
        return 0.0
    return float(sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1])
