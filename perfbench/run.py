"""Benchmark of the comclust CLI, run in-process from the root of a checkout.

    python3 perfbench/run.py --workload sdc-blobs --seed 0 --seconds 25 --trace 0

Each operation is one ``comclust.cli.main([...])`` command on inputs the
benchmark generates from ``--seed``. A run sets up (import, input files, and
for eval-bulk a checkpoint) at least three times, then repeats the operation for about
``--seconds`` seconds, cycling through the run's training seeds, and checks
every output. Times are scaled to one host speed by a SpeedProbe. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced commands and prints the per-layer metrics
from the traced ones. The last line of standard output is the result JSON;
the line before it holds the details (machine, raw and scaled samples,
quality per seed, failures, layer shares).
"""

import os

# Pinned before numpy loads: BLAS threads made UDC repeats spread 17%
# instead of 3%.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up repeats until both hold: at least this many, and this long in all
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
CLF_NOT_APPLICABLE = 1.0
# The host this was built on (2-core Xeon VM) flips between a fast phase
# and one about 1.6x slower, for seconds to tens of seconds at a time, and
# CPU time slows with wall time. Raw command times then spread 23-27%
# between runs. A SpeedProbe burst takes REF_BURST_S of CPU in the fast
# phase; times are scaled by REF_BURST_S / (mean burst while they ran), so
# they read as fast-phase seconds whatever phase the host is in. Scaled
# times spread 3-8% between runs, eval-bulk up to 18%: its memory-bound work
# slows more in the slow phase than the bursts do.
REF_BURST_S = 0.0003
PROBE_PERIOD_S = 0.1
_BURST_MATRIX = np.linspace(0.0, 1.0, 32 * 32).reshape(32, 32)

# end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "command_s": "s",
    "rows_per_s": "rows/s",
    "test_auc": "auc",
    "test_acc": "frac",
    "clf_auc": "auc",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import comclust afresh from this checkout's ``src`` and return its
    CLI entry point. Raises ImportError when the checkout has no program."""
    src = ROOT / "src"
    if not (src / "comclust" / "__init__.py").is_file():
        raise ImportError(f"no comclust package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m.split(".")[0] == "comclust"]:
        del sys.modules[name]
    import comclust.cli
    if Path(comclust.cli.__file__).resolve().parent != src / "comclust":
        raise ImportError(f"comclust imported from {comclust.cli.__file__}, "
                          f"not {src}")
    return comclust.cli.main


def calibrate() -> float:
    """Seconds for a fixed loop that does not use comclust: Python bytecode
    plus small numpy calls, the mix comclust itself runs. It runs at the
    start and end of a run, so host speed drift shows apart from code
    change."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i % 7
    a = _BURST_MATRIX
    for _ in range(10_000):
        a = np.tanh(a @ a.T / 32.0)
    return time.perf_counter() - t0


def burst() -> float:
    """CPU seconds of this thread for a small slice of the calibration mix.
    Thread CPU time leaves out waits for the interpreter lock."""
    t0 = time.thread_time()
    acc = 0
    for i in range(2_000):
        acc += i * i % 7
    a = _BURST_MATRIX
    for _ in range(20):
        a = np.tanh(a @ a.T / 32.0)
    return time.thread_time() - t0


class SpeedProbe:
    """Samples host speed while a block runs: a thread times a burst every
    PROBE_PERIOD_S (at least once), costing about 0.4% of the block."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while True:
            self.samples.append(burst())
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, seconds: float) -> float:
        """``seconds`` as they would read in the host's fast phase. Host
        phases differ by about 1.7x, so a burst over 2.5x the median caught
        a stall (seen under contention: 18-28 ms against 0.5 ms) and is
        dropped."""
        cap = 2.5 * statistics.median(self.samples)
        kept = [t for t in self.samples if t <= cap]
        return seconds * REF_BURST_S / statistics.mean(kept)


def pin_cpu() -> int:
    """Pin this process, and the probe threads it starts, to its lowest
    allowed CPU, so that a SpeedProbe samples the core the command runs on:
    the two vCPUs' phases correlate only 0.56, and for minutes at a time one
    ran bursts 1.5-3x slower than the other."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def machine_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "cpus": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name,
            "threads": {k: os.environ.get(k) for k in THREAD_PINS},
            "platform": platform.platform()}


def run_cli(main, argv) -> int:
    """Exit code of one in-process CLI command; a traceback or argparse exit
    counts as a non-zero exit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the CLI must not raise; count it as a failure
        print(f"command raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def digest(paths) -> list:
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]


class Operations:
    """Runs one workload's operation repeatedly and checks each result."""

    def __init__(self, workload, ctx, main, smoke):
        self.workload, self.ctx, self.main = workload, ctx, main
        self.floors = {} if smoke else workload.floors
        self.first = {}     # seed index -> output digests of its first run
        self.qualities = {}  # seed index -> quality figures
        self.attempted = 0
        self.failures = {}           # reason -> count
        # traced? -> wall seconds, and the same scaled by a SpeedProbe
        self.durations = {False: [], True: []}
        self.scaled = {False: [], True: []}

    def run(self, index, tracer=None) -> None:
        """One operation with the run's ``index``-th training seed."""
        from workloads import BadOutput
        outputs = self.workload.outputs(self.ctx)
        for path in outputs:
            path.unlink(missing_ok=True)
        argv = self.workload.argv(self.ctx, index)
        self.attempted += 1
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            if tracer is None:
                rc = run_cli(self.main, argv)
            else:
                with tracer.command():
                    rc = run_cli(self.main, argv)
            elapsed = time.perf_counter() - t0
        try:
            if rc != 0:
                raise BadOutput("nonzero_exit", f"exit code {rc}")
            quality = self.workload.quality(self.ctx)
            sums = digest(outputs)
            if index not in self.first:
                self.first[index], self.qualities[index] = sums, quality
            elif sums != self.first[index]:
                raise BadOutput("bytes_differ", "output differs from the "
                                "first repeat of this command")
            low = [f"{name} {quality[name]} < {floor}"
                   for name, floor in self.floors.items()
                   if quality[name] < floor]
            if low:
                raise BadOutput("below_floor", ", ".join(low))
        except BadOutput as exc:
            print(f"operation failed: {exc}", file=sys.stderr)
            self.failures[exc.reason] = self.failures.get(exc.reason, 0) + 1
        self.durations[tracer is not None].append(elapsed)
        self.scaled[tracer is not None].append(probe.scale(elapsed))

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def quality(self) -> dict:
        """Median of each quality figure over the seeds run."""
        runs = list(self.qualities.values())
        return {name: statistics.median(q[name] for q in runs)
                for name in (runs[0] if runs else {})}


def measure(ops, seconds, tracer=None) -> None:
    """Repeat the operation until another one would end past ``seconds``.
    Untraced runs cycle through the workload's training seeds and make at
    least one operation more than there are seeds, so every seed runs and
    one output is checked against an earlier run of the same command.
    Traced runs alternate untraced and traced operations on the first seed,
    at least one of each."""
    t0 = time.perf_counter()
    n_seeds = ops.workload.seeds
    min_ops = 2 if tracer is not None else n_seeds + 1
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        ops.run(0 if tracer is not None else i % n_seeds,
                tracer if traced else None)
        i += 1
        if i >= min_ops:
            kind = tracer is not None and i % 2 == 1
            next_s = statistics.median(ops.durations[kind] or
                                       ops.durations[not kind])
            if time.perf_counter() - t0 + next_s > seconds:
                return


def setup(workload, work, seed, smoke):
    """Import the program and set up the workload, at least SETUP_REPEATS
    times and for at least SETUP_MIN_S; returns (cli main, ctx, median wall
    seconds)."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        main = load_program()
        ctx = workload.setup(work, seed, smoke, main)
        times.append(time.perf_counter() - t0)
    return main, ctx, statistics.median(times)


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and no quality floors (self-test)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    pin_cpu()
    calib = [calibrate()]
    try:
        try:
            with SpeedProbe() as setup_probe:
                cli_main, ctx, setup_wall = setup(workload, work, args.seed,
                                                  args.smoke)
        except ImportError as exc:
            print(f"error: cannot load the program: {exc}", file=sys.stderr)
            return 2
        setup_s = setup_probe.scale(setup_wall)
        ops = Operations(workload, ctx, cli_main, args.smoke)
        tracer = None
        if args.trace:
            from layertrace import Tracer
            tracer = Tracer()
        measure(ops, args.seconds, tracer)
        calib.append(calibrate())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    command_s = statistics.median(ops.scaled[False])
    details = {"workload": args.workload, "seed": args.seed,
               "smoke": args.smoke, "machine": machine_info(),
               "ref_burst_s": REF_BURST_S, "calib_s": calib,
               "setup_wall_s": setup_wall,
               "command_wall_s": ops.durations[False],
               "command_scaled_s": ops.scaled[False],
               "traced_wall_s": ops.durations[True],
               "traced_scaled_s": ops.scaled[True],
               "quality_by_seed": ops.qualities, "failures": ops.failures}
    sums_ok = True
    if args.trace:
        sum_error = tracer.self_sum_error()
        details.update(missing_hooks=tracer.missing,
                       self_sum_error_s=sum_error,
                       layer_shares=tracer.layer_shares())
        for name in tracer.missing:
            print(f"missing hook: {name}", file=sys.stderr)
        if sum_error > 1e-6:
            print(f"span self times miss the command time by {sum_error} s",
                  file=sys.stderr)
            sums_ok = False
        metrics = tracer.metrics(ops.scaled, statistics.median(calib))
    else:
        quality = ops.quality
        if "clf_auc" not in quality and quality:
            quality["clf_auc"] = CLF_NOT_APPLICABLE
            details["not_applicable"] = ["clf_auc"]
        values = {
            "setup_s": setup_s,
            "command_s": command_s,
            "rows_per_s": ctx["rows"] / command_s,
            **quality,
            "ok_frac": 1.0 - ops.failed / ops.attempted,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        metrics = {name: {"value": values.get(name), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps(details))
    print(json.dumps({"correct": ops.failed == 0 and sums_ok,
                      "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
