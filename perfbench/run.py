#!/usr/bin/env python3
"""Benchmark of the `lau` package: one workload per process, one closed-loop caller.

Run from the repository root:

    python3 perfbench/run.py --workload train_off --seed 1 --seconds 35 --trace 0

Workloads (see WORKLOADS for why each exists):

* train_off       `lau train` at the default config (lau upsampler, loss=off),
                  two epochs per training run, repeated until time is up.
* train_bilinear  the same with upsampler=bilinear, loss=ce.
* gradcheck       the end-to-end FD checks of criterion 6 (network_gradcheck for
                  ce, off and reg) plus lau_gradcheck, as one pass.

The seed makes the inputs: the config seed of the training runs, the sampler
cases of the gradient checks (the network checks use criterion 6's instance). BLAS is pinned to one thread before numpy loads.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries per-layer metrics from spans around every public function
of lau.core, samplers, losses, net, synth and checks (see tracer.py), per work
unit: one epoch on the training workloads, one pass on gradcheck. The traced
run first does one untraced unit, so it can report the tracing overhead.

The lines before the last one repeat every metric with its unit, the
environment, failed/attempted operations and an outputs digest. The digest
is recorded, not gated. The exit code is nonzero, and no result is printed,
when lau cannot be imported from this checkout.
"""

from __future__ import annotations

import os

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
TRACE_DIR = os.path.join(ROOT, ".perfbench_trace")

sys.path.insert(0, HERE)
from tracer import Bindings, Tracer, per_layer_units  # noqa: E402

clock = time.perf_counter

TRAIN_EPOCHS = 2  # per training run; every run of one seed must give the same digest
SETUP_FIRST = 3  # set-ups before the measured loop; more follow during it
SETUP_EVERY_S = {"train": 2.5, "gradcheck": 0.5}  # seconds between set-ups in the loop
NETWORK_KINDS = ("ce", "off", "reg")
# The network checks run criterion 6's instance (seed 0) whatever --seed is:
# at other instance seeds (3 and 4, for example) network_gradcheck reports
# entries near 1e-8 whose central difference is rounding noise, because it
# has no FD_FLOOR filter like the op-level checks. --seed picks the sampler
# cases instead, which lau_gradcheck filters for conditioning.
NETWORK_SEED = 0
LAU_CASES = 20  # of the 100 the sampler criterion checks, to keep a pass near 30 s

WORKLOADS = {
    "train_off": {
        "why": "the paper's method at default shapes: offset branch, lau sampler, guided loss and "
               "evaluate all run; half of the training criterion",
        "config": {"upsampler": "lau", "loss": "off"},
    },
    "train_bilinear": {
        "why": "the plain-bilinear baseline bypasses the offset branch, lau sampler and guided loss, "
               "so changes there must not move it; other half of the training criterion",
        "config": {"upsampler": "bilinear", "loss": "ce"},
    },
    "gradcheck": {
        "why": "thousands of FD probes on tiny tensors, so per-call overhead dominates; the only "
               "workload covering reg candidates and corner samplers",
        "config": None,
    },
}

# End-to-end metrics (BENCHMARK.json) and their units. `unit_s`, `step_ms.p90`,
# `work_per_s` and `loss` mean epoch_s, train iteration, train_samples_per_s
# and val_loss on the training workloads, and gradcheck_s, FD evaluation,
# fd_evals_per_s and the loss at the checked point on gradcheck. step_ms.p50
# is printed but not bounded: this machine alternates between a fast and a
# slow state every few seconds, and the median step flips between the two
# from run to run (quartile spread 0.25 over ten gradcheck runs, against 0.14
# for fd_evals_per_s, a total over total time).
END_TO_END = {
    "setup_s": "s",
    "unit_s": "s",
    "step_ms.p90": "ms",
    "work_per_s": "1/s",
    "loss": "nats",
    "peak_rss_mb": "MB",
}


def import_lau():
    """Import lau from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, SRC)
    import lau
    import lau.checks
    import lau.cli
    import lau.net

    if not os.path.abspath(lau.__file__).startswith(SRC + os.sep):
        raise ImportError(f"lau was imported from {lau.__file__}, not from {SRC}")
    return lau


def environment(np) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def median(values):
    return statistics.median(values) if values else float("nan")


def p90(values):
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


class SetupSampler:
    """Repeats a workload's set-up through the run; setup_s is their median.

    This machine switches between a fast and a slow state every few seconds,
    so set-ups done back to back all land in one state and their median jumps
    from run to run. Spread over the run, they sample both states in the
    proportion the rest of the run sees. A caller in the measured loop asks
    `due()` at points where a pause does not distort what it times, and
    leaves the returned seconds out of its own timings.
    """

    def __init__(self, setup, every: float):
        self.setup = setup
        self.every = every
        self.samples: list[float] = []
        self._next = 0.0

    def take(self) -> float:
        t0 = clock()
        self.setup()
        spent = clock() - t0
        self.samples.append(spent)
        self._next = clock() + self.every
        return spent

    def due(self) -> float:
        """Set up once if `every` seconds have passed since the last; returns the seconds spent."""
        return self.take() if clock() >= self._next else 0.0


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.metrics: dict = {}  # name -> (value, unit) for the last stdout line
        self.details: dict = {}  # name -> (value, unit, note) printed above it
        self.samples: dict = {}  # name -> raw measurements behind a median

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and len(self.digests) == 1


# ---------------------------------------------------------------------------
# training workloads


class TrainProbe:
    """Epoch, iteration and evaluate timings, and step-loss checks, from lau.net.

    An epoch runs from the end of `build_net` (first epoch) or of the previous
    epoch's second `evaluate` call to the end of its own second one. An
    iteration runs from the previous `sgd_step` (or epoch start) to the end of
    its own `sgd_step`, so it includes assembling its batch. Losses passed
    through `reduce_loss` outside `evaluate` are the training steps' losses.
    A due set-up runs after an `sgd_step` and is left out of both timings.
    """

    def __init__(self, lau, outcome: Outcome):
        self.lau = lau
        self.outcome = outcome
        self.epochs: list[tuple[float, float]] = []  # (epoch s, of which evaluate s)
        self.steps: list[float] = []
        self.step_losses = 0
        self.builds = 0
        self.sampler: SetupSampler | None = None
        self._bindings = Bindings()
        self._epoch_start = self._mark = clock()
        self._eval_s = 0.0
        self._evals_in_epoch = 0
        self._in_eval = False

    def _start_epoch(self, now: float) -> None:
        self._epoch_start = self._mark = now
        self._eval_s = 0.0
        self._evals_in_epoch = 0

    def install(self) -> None:
        net = self.lau.net
        build_net, sgd_step, evaluate, reduce_loss = (
            net.build_net, net.sgd_step, net.evaluate, net.reduce_loss)

        def built(*args, **kwargs):
            result = build_net(*args, **kwargs)
            self.builds += 1
            self._start_epoch(clock())
            return result

        def stepped(*args, **kwargs):
            result = sgd_step(*args, **kwargs)
            now = clock()
            self.steps.append(now - self._mark)
            self._mark = now
            if self.sampler is not None:
                paused = self.sampler.due()
                self._mark += paused
                self._epoch_start += paused
            return result

        def evaluated(*args, **kwargs):
            t0 = clock()
            self._in_eval = True
            try:
                result = evaluate(*args, **kwargs)
            finally:
                self._in_eval = False
            now = clock()
            self.outcome.attempted += 1
            if not all(math.isfinite(v) for v in result.values()):
                self.outcome.fail(f"evaluate returned non-finite metrics {result}")
            self._eval_s += now - t0
            self._evals_in_epoch += 1
            if self._evals_in_epoch == 2:  # train split, then val split
                self.epochs.append((now - self._epoch_start, self._eval_s))
                self._start_epoch(now)
            return result

        def reduced(*args, **kwargs):
            result = reduce_loss(*args, **kwargs)
            if not self._in_eval:
                self.step_losses += 1
                self.outcome.attempted += 1
                if not math.isfinite(result):
                    self.outcome.fail(f"training step loss {result}")
            return result

        for current, wrapper in ((build_net, built), (sgd_step, stepped),
                                 (evaluate, evaluated), (reduce_loss, reduced)):
            self._bindings.replace(current, wrapper)

    def uninstall(self) -> None:
        self._bindings.restore()


def train_setup(lau, config: dict):
    """Generate both splits and build the network, bypassing the probe's hooks."""
    cfg = lau.cli.ExperimentConfig.from_json(config)
    build_net = lau.net.build_net  # bound before the probe wraps it

    def setup():
        cfg.datasets()
        tc = cfg.to_train_config()
        build_net(
            tc.in_channels, tc.num_classes, tc.decoder_channels, tc.reduced_channels,
            tc.lau_ratio, tc.total_upsample, tc.offset_groups, tc.slope,
            lau.core.Rng(tc.seed), tc.weight_decay, with_predictor=(tc.upsampler == "lau"),
        )

    return setup


def train_once(lau, config_path: str, out_dir: str):
    """One `lau train` run; returns (outputs digest, metrics.csv rows)."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = lau.cli.main(["train", "--config", config_path, "--out", out_dir])
    if code != 0:
        raise RuntimeError(f"lau train exited with code {code}")
    with open(os.path.join(out_dir, "metrics.csv"), "rb") as fh:
        metrics = fh.read()
    with open(os.path.join(out_dir, "checkpoint.bin"), "rb") as fh:
        checkpoint = fh.read()
    rows = list(csv.DictReader(io.StringIO(metrics.decode("ascii"))))
    return hashlib.sha256(metrics + checkpoint).hexdigest(), rows


def run_train(lau, spec: dict, seed: int, seconds: float, trace: bool, work: str):
    outcome = Outcome()
    config = dict(spec["config"], seed=seed, epochs=TRAIN_EPOCHS)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    defaults = lau.cli.ExperimentConfig()
    sampler = SetupSampler(train_setup(lau, config), SETUP_EVERY_S["train"])
    if not trace:
        for _ in range(SETUP_FIRST):
            sampler.take()

    probe = TrainProbe(lau, outcome)
    probe.sampler = None if trace else sampler
    probe.install()
    tracer = Tracer() if trace else None
    traced_epochs: list = []
    plain_epochs: list = []
    runs = 0
    val_loss = float("nan")
    last = 0.0
    begin = clock()
    try:
        while runs < (2 if trace else 1) or clock() - begin + last <= seconds:
            on = trace and runs % 2 == 1
            if on:
                switch_tracer(probe, tracer, True, unit=runs)
            first = len(probe.epochs)
            t0 = clock()
            try:
                digest, rows = train_once(lau, config_path, os.path.join(work, f"run{runs}"))
            except Exception:  # noqa: BLE001 - report any failure of the run, then stop
                outcome.attempted += 1
                outcome.fail(traceback.format_exc(limit=4))
                break
            finally:
                if on:
                    switch_tracer(probe, tracer, False)
            last = clock() - t0
            runs += 1
            (traced_epochs if on else plain_epochs).extend(probe.epochs[first:])
            outcome.digests.add(digest)
            val_loss = float([r for r in rows if r["split"] == "val"][-1]["loss"])
    finally:
        probe.uninstall()

    if len(probe.epochs) != runs * TRAIN_EPOCHS or probe.builds != runs:
        outcome.problems.append(f"saw {probe.builds} nets and {len(probe.epochs)} epochs in {runs} runs")
    if probe.step_losses < len(probe.steps):
        outcome.problems.append(f"checked {probe.step_losses} losses for {len(probe.steps)} steps")
    if not math.isfinite(val_loss):
        outcome.problems.append(f"final validation loss {val_loss}")

    if trace:
        overhead = median([e for e, _ in traced_epochs]) - median([e for e, _ in plain_epochs])
        outcome.metrics = tracer_metrics(tracer, len(traced_epochs), overhead * 1e3)
        write_spans(tracer, spec["name"], seed)
        return outcome

    epochs = probe.epochs
    epoch_s = median([e for e, _ in epochs])
    # Throughputs are total work over total time, not medians: this machine
    # switches between a fast and a slow state every few seconds, and a
    # median flips between the two where a total moves smoothly.
    train_phase = sum(e - ev for e, ev in epochs)
    eval_phase = sum(ev for _, ev in epochs)
    steps_ms = [s * 1e3 for s in probe.steps]
    n_steps = len(steps_ms)
    setups = sampler.samples
    d = outcome.details
    d["setup_s"] = (median(setups), "s",
                    f"median of {len(setups)} set-ups through the run: datasets + build_net")
    d["epoch_s"] = (epoch_s, "s", f"median of {len(epochs)} epochs over {runs} runs")
    d["step_ms.p50"] = (median(steps_ms), "ms", f"{n_steps} train iterations, batch {defaults.batch}")
    d["step_ms.p90"] = (p90(steps_ms), "ms", f"{n_steps} train iterations, batch {defaults.batch}")
    d["train_samples_per_s"] = (len(epochs) * defaults.train_count / train_phase, "1/s",
                                "train split over the SGD phases of all epochs")
    d["eval_samples_per_s"] = (len(epochs) * (defaults.train_count + defaults.val_count)
                               / eval_phase, "1/s",
                               "both splits over the evaluate phases of all epochs")
    d["val_loss"] = (val_loss, "nats", f"after {TRAIN_EPOCHS} epochs")
    d["peak_rss_mb"] = (peak_rss_mb(), "MB", "ru_maxrss of the process")
    outcome.samples = {"setup_s": setups, "epoch_s": [e for e, _ in epochs], "step_ms": steps_ms}
    aliases = {"unit_s": "epoch_s", "work_per_s": "train_samples_per_s", "loss": "val_loss"}
    outcome.metrics = end_to_end(d, aliases)
    return outcome


# ---------------------------------------------------------------------------
# gradient-check workload


class GradcheckProbe:
    """Times every FD evaluation and counts checked entries through `gradcheck`.

    A due set-up runs before an FD evaluation; `paused` sums the seconds spent
    in them, for callers to leave out of their timings.
    """

    def __init__(self, lau, outcome: Outcome):
        self.lau = lau
        self.outcome = outcome
        self.sampler: SetupSampler | None = None
        self.paused = 0.0
        self.subject = ""
        self.evals: dict[str, list[float]] = {}  # subject -> seconds per evaluation
        self.point_losses: dict[str, float] = {}  # subject -> loss at the checked point
        self._bindings = Bindings()

    def install(self) -> None:
        gradcheck = self.lau.checks.gradcheck

        def checked(fn, points, *args, **kwargs):
            times = self.evals.setdefault(self.subject, [])
            subject = self.subject

            def timed(x):
                if self.sampler is not None:
                    self.paused += self.sampler.due()
                t0 = clock()
                result = fn(x)
                times.append(clock() - t0)
                self.point_losses.setdefault(subject, float(result[0]))
                return result

            report = gradcheck(timed, points, *args, **kwargs)
            self.outcome.attempted += sum(len(p) for p in points)
            for line in report.failures:
                self.outcome.fail(f"{subject}: {line}")
            return report

        self._bindings.replace(gradcheck, checked)

    def uninstall(self) -> None:
        self._bindings.restore()


def gradcheck_setup(lau):
    """Find a kink-free instance for each network check."""

    def setup():
        for kind in NETWORK_KINDS:
            lau.checks._network_instance(NETWORK_SEED, kind)

    return setup


def gradcheck_pass(lau, seed: int, probe: GradcheckProbe, network_s: list):
    """The checks of one pass; returns their report lines."""
    reports = []
    for kind in NETWORK_KINDS:
        probe.subject = kind
        t0, p0 = clock(), probe.paused
        reports.append(lau.checks.network_gradcheck(seed=NETWORK_SEED, loss_kind=kind))
        network_s.append(clock() - t0 - (probe.paused - p0))
    probe.subject = "lau"
    reports.append(lau.checks.lau_gradcheck(seed=seed, cases=LAU_CASES))
    return [f"{r.subject},{r.cases},{r.max_rel_err:.17g},{len(r.failures)}" for r in reports]


def run_gradcheck(lau, spec: dict, seed: int, seconds: float, trace: bool, work: str):
    outcome = Outcome()
    sampler = SetupSampler(gradcheck_setup(lau), SETUP_EVERY_S["gradcheck"])
    if not trace:
        for _ in range(SETUP_FIRST):
            sampler.take()
    probe = GradcheckProbe(lau, outcome)
    probe.sampler = None if trace else sampler
    probe.install()
    tracer = Tracer() if trace else None
    passes: list[float] = []
    traced_passes: list[float] = []
    network_s: list[float] = []
    last = 0.0
    begin = clock()
    try:
        while len(passes) + len(traced_passes) < (2 if trace else 1) or clock() - begin + last <= seconds:
            on = trace and len(passes) > len(traced_passes)
            if on:
                switch_tracer(probe, tracer, True, unit=len(traced_passes))
            t0, p0 = clock(), probe.paused
            try:
                lines = gradcheck_pass(lau, seed, probe, network_s)
            except Exception:  # noqa: BLE001 - report any failure of the pass, then stop
                outcome.attempted += 1
                outcome.fail(traceback.format_exc(limit=4))
                break
            finally:
                if on:
                    switch_tracer(probe, tracer, False)
            last = clock() - t0 - (probe.paused - p0)
            (traced_passes if on else passes).append(last)
            outcome.digests.add(hashlib.sha256("\n".join(lines).encode()).hexdigest())
    finally:
        probe.uninstall()

    if trace:
        overhead = median(traced_passes) - median(passes)
        outcome.metrics = tracer_metrics(tracer, len(traced_passes), overhead * 1e3)
        write_spans(tracer, spec["name"], seed)
        return outcome

    network = [t * 1e3 for kind in NETWORK_KINDS for t in probe.evals.get(kind, [])]
    n_lau = len(probe.evals.get("lau", []))
    losses = [probe.point_losses[k] for k in NETWORK_KINDS if k in probe.point_losses]
    setups = sampler.samples
    d = outcome.details
    d["setup_s"] = (median(setups), "s",
                    f"median of {len(setups)} instance searches (ce, off, reg) through the run")
    d["gradcheck_s"] = (median(passes), "s",
                        f"median of {len(passes)} passes: network ce/off/reg + lau x{LAU_CASES}")
    d["step_ms.p50"] = (median(network), "ms", f"{len(network)} network FD evaluations")
    d["step_ms.p90"] = (p90(network), "ms", f"{len(network)} network FD evaluations")
    d["fd_evals_per_s"] = (len(network) / sum(network_s) if network_s else 0.0, "1/s",
                           f"network checks only; plus {n_lau} sampler evaluations")
    d["point_loss"] = (statistics.fmean(losses) if losses else float("nan"), "nats",
                       "mean toy-net loss at the checked points")
    d["peak_rss_mb"] = (peak_rss_mb(), "MB", "ru_maxrss of the process")
    outcome.samples = {"setup_s": setups, "gradcheck_s": passes, "network_check_s": network_s}
    aliases = {"unit_s": "gradcheck_s", "work_per_s": "fd_evals_per_s", "loss": "point_loss"}
    outcome.metrics = end_to_end(d, aliases)
    return outcome


# ---------------------------------------------------------------------------
# output


def switch_tracer(probe, tracer: Tracer, on: bool, unit: int = 0) -> None:
    """Turn tracing on or off under the probe, which must wrap whatever is bound."""
    probe.uninstall()  # the tracer wraps and restores the original functions
    if on:
        tracer.unit = unit
        tracer.install()
    else:
        tracer.uninstall()
    probe.install()


def end_to_end(details: dict, aliases: dict) -> dict:
    return {name: (details[aliases.get(name, name)][0], unit) for name, unit in END_TO_END.items()}


def tracer_metrics(tracer: Tracer, units: int, overhead_ms: float) -> dict:
    values = tracer.summary(units, overhead_ms)
    return {name: (values[name], unit) for name, unit in per_layer_units().items()}


def write_spans(tracer: Tracer, workload: str, seed: int) -> None:
    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.write(os.path.join(TRACE_DIR, f"{workload}-seed{seed}.csv"))


RUNNERS = {"train_off": run_train, "train_bilinear": run_train, "gradcheck": run_gradcheck}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="a non-negative integer")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be > 0 and --seed >= 0")

    try:
        lau = import_lau()
    except ImportError as exc:
        print(f"perfbench: cannot import lau from {SRC}: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    spec = dict(WORKLOADS[args.workload], name=args.workload)
    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        outcome = RUNNERS[args.workload](lau, spec, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)

    for name, (value, unit) in outcome.metrics.items():
        if not math.isfinite(value):  # JSON has no NaN; the run is wrong anyway
            outcome.problems.append(f"metric {name} is {value}")
            outcome.metrics[name] = (0.0, unit)
    env = environment(np)
    digest = ",".join(sorted(outcome.digests)) or "none"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {spec['why']}")
    print("env: " + " | ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, note) in outcome.details.items():
        print(f"  {name:<22} {value:>14.6g} {unit:<5} {note}")
    if args.trace:
        for name, (value, unit) in outcome.metrics.items():
            print(f"  {name:<48} {value:>14.6g} {unit}")
    print(f"failed_ops {outcome.failed}/{outcome.attempted} ops")
    print(f"outputs_digest {digest}")
    for problem in outcome.problems:
        print(f"problem: {problem}", file=sys.stderr)
    info = {"workload": args.workload, "why": spec["why"], "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "env": env,
            "outputs_digest": digest, "failed_ops": [outcome.failed, outcome.attempted],
            "details": {k: {"value": v, "unit": u, "note": n}
                        for k, (v, u, n) in outcome.details.items()},
            "samples": outcome.samples}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
