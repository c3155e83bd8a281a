"""Command-line entry point: gradient checks, sampler demos, training, sweeps.

All outputs (CSV, PPM, checkpoints) are pure functions of the configuration
and the input files, so re-running a command overwrites its artifacts with
byte-identical content. The CSVs and the checkpoint are written through
core.atomic_write, so an interrupted run never leaves one half written.
Sweep points run side by side, one process per CPU this process may use
(`taskset` limits them), each process with one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .checks import standard_suite
from .core import ConfigError, atomic_write, read_tensor
from .net import TrainConfig, _check_fields, _json_key, evaluate, network_forward, save_checkpoint, train
from .samplers import CORNERS, _check_ratio, bilinear_upsample, corner_upsample, pixel_shuffle
from .synth import gen_sample

__all__ = ["ExperimentConfig", "main", "write_ppm"]

# offset applied to the per-sample index stream so validation data never
# overlaps training data generated from the same seed
_VAL_INDEX_BASE = 1 << 20

PALETTE = np.array(
    [
        (0, 0, 0), (230, 25, 75), (60, 180, 75), (255, 225, 25),
        (0, 130, 200), (245, 130, 48), (145, 30, 180), (70, 240, 240),
        (240, 50, 230), (210, 245, 60), (250, 190, 212), (0, 128, 128),
        (220, 190, 255), (170, 110, 40), (255, 250, 200), (128, 0, 0),
    ],
    dtype=np.uint8,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """JSON-configurable experiment description, checked when built; unknown keys are an error."""

    seed: int = 0
    classes: int = 4
    image_size: int = 64
    output_stride: int = 8
    lau_ratio: int = 4
    lam: float = 0.3  # JSON key "lambda"
    gamma: float = 0.1
    loss: str = "off"
    upsampler: str = "lau"
    lr: float = 0.001
    power: float = 0.9
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs: int = 30
    batch: int = 8
    m_channels: int = 1
    hidden_channels: int = 64
    leaky_slope: float = 0.01
    noise_std: float = 0.25
    train_count: int = 256
    val_count: int = 64

    def __post_init__(self):
        self.validate()

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        names = {_json_key(f.name): f.name for f in fields(cls)}
        for key in obj:
            if key not in names:
                raise ConfigError(key, "unknown configuration key")
        return cls(**{names[k]: v for k, v in obj.items()})

    def validate(self) -> None:
        """Field types and finite floats, training rules (by building a TrainConfig), then the rest."""
        _check_fields(self)
        self.to_train_config()
        for name, ok, message in (
            ("image_size", self.image_size >= self.output_stride
             and self.image_size % self.output_stride == 0,
             f"must be a positive multiple of output_stride {self.output_stride}"),
            ("image_size", self.image_size >= 3, "must be >= 3: the speckle rate needs 3x3 label maps"),
            ("noise_std", self.noise_std >= 0, "must be >= 0"),
            ("train_count", self.train_count >= 1, "must be >= 1"),
            ("val_count", self.val_count >= 1, "must be >= 1"),
        ):
            if not ok:
                raise ConfigError(name, message)

    def to_train_config(self) -> TrainConfig:
        """The TrainConfig of this run: each field read from the field with its JSON key."""
        by_key = {_json_key(f.name): getattr(self, f.name) for f in fields(self)}
        return TrainConfig(**{f.name: by_key[_json_key(f.name)] for f in fields(TrainConfig)})

    def datasets(self):
        args = (self.image_size, self.image_size, self.classes, self.output_stride, self.noise_std)
        train_set = [gen_sample(self.seed, i, *args) for i in range(self.train_count)]
        val_set = [gen_sample(self.seed, _VAL_INDEX_BASE + i, *args) for i in range(self.val_count)]
        return train_set, val_set


def _read_json(path) -> dict:
    """The config file's top-level JSON object."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ConfigError("config", "top-level JSON value must be an object")
    return obj


def _parse_list(flag: str, text: str, kind) -> list:
    """The non-empty entries of a comma-separated flag value, each read by kind."""
    out = []
    for entry in filter(None, text.split(",")):
        try:
            out.append(kind(entry))
        except ValueError:
            raise ConfigError(flag, f"{entry!r} is not a valid {kind.__name__}") from None
    return out


def write_ppm(path, labels: np.ndarray) -> None:
    """Write one (h, w) label map as binary PPM with the fixed 16-color palette."""
    if labels.ndim != 2:
        raise ValueError(f"expected a single (h, w) map, got shape {labels.shape}")
    rgb = PALETTE[labels.astype(np.intp) % len(PALETTE)]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{labels.shape[1]} {labels.shape[0]}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def _fmt(v: float) -> str:
    return f"{v:.17g}"


# ---------------------------------------------------------------------------
# subcommands

def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise ConfigError("--seed", f"must be a non-negative integer, got {args.seed}")
    os.makedirs(args.out, exist_ok=True)  # before the suite's seconds of work, which a bad --out would waste
    reports = standard_suite(args.seed)
    path = os.path.join(args.out, "gradcheck.csv")
    with atomic_write(path) as fh:
        fh.write("subject,cases,max_rel_err,failures\n")
        for r in reports:
            fh.write(f"{r.subject},{r.cases},{_fmt(r.max_rel_err)},{len(r.failures)}\n")
    total_failures = sum(len(r.failures) for r in reports)
    for r in reports:
        status = "ok" if not r.failures else f"{len(r.failures)} FAILURES"
        print(f"{r.subject}: {r.cases} cases, max rel err {r.max_rel_err:.3e}, {status}")
    print(f"report written to {path}")
    return 0 if total_failures == 0 else 1


_CORNER_NAMES = {f"corner-{c}": c for c in CORNERS}


def cmd_demo(args) -> int:
    k = args.ratio
    if args.infile:
        u = read_tensor(args.infile)
    else:
        sample = gen_sample(args.seed, 0, args.size, args.size, args.classes, k, 0.25)
        u = sample.features
    k = _check_ratio(k)  # the output shape below needs a checked ratio
    if args.upsampler != "pixelshuffle" and math.prod(u.shape) * k * k * 8 > np.iinfo(np.intp).max:
        raise ValueError(f"ratio {k}: the {u.shape[2]}x{u.shape[3]} input would upsample to "
                         f"{k * u.shape[2]}x{k * u.shape[3]}, more than numpy can index")
    if args.upsampler == "bilinear":
        v = bilinear_upsample(u, k)
    elif args.upsampler == "pixelshuffle":
        v = pixel_shuffle(u, k)
    else:
        v = corner_upsample(u, k, _CORNER_NAMES[args.upsampler])
    os.makedirs(args.out, exist_ok=True)
    before = os.path.join(args.out, "before.ppm")
    after = os.path.join(args.out, "after.ppm")
    write_ppm(before, np.argmax(u[0], axis=0))
    write_ppm(after, np.argmax(v[0], axis=0))
    print(f"wrote {before} and {after}")
    return 0


def cmd_train(args) -> int:
    cfg = ExperimentConfig.from_json(_read_json(args.config))
    os.makedirs(args.out, exist_ok=True)
    train_set, val_set = cfg.datasets()
    tc = cfg.to_train_config()
    rows = ["epoch,split,loss,pixacc,miou,speckle\n"]
    for epoch, net in enumerate(train(tc, train_set)):
        for split, samples in (("train", train_set), ("val", val_set)):
            m = evaluate(net, tc, samples)
            rows.append(f"{epoch},{split},{_fmt(m['loss'])},{_fmt(m['pixacc'])},"
                        f"{_fmt(m['miou'])},{_fmt(m['speckle'])}\n")
    metrics_path = os.path.join(args.out, "metrics.csv")
    with atomic_write(metrics_path) as fh:
        fh.writelines(rows)
    save_checkpoint(os.path.join(args.out, "checkpoint.bin"), net)
    shown = min(4, len(val_set))
    for i in range(shown):
        logits, _ = network_forward(net, val_set[i].features)
        write_ppm(os.path.join(args.out, f"pred_{i}.ppm"), np.argmax(logits[0], axis=0))
        write_ppm(os.path.join(args.out, f"gt_{i}.ppm"), val_set[i].labels.labels[0])
    for i in range(shown, 4):  # left by an earlier run into this directory with more val samples
        for name in (f"pred_{i}.ppm", f"gt_{i}.ppm"):
            path = os.path.join(args.out, name)
            if os.path.exists(path):
                os.remove(path)
    print(f"metrics written to {metrics_path}")
    print(f"final val: loss={m['loss']:.4f} pixacc={m['pixacc']:.4f} miou={m['miou']:.4f}")
    return 0


def _sweep_point(task):
    """One sweep run, evaluated once, on the final val split; module-level so process pools can pickle it."""
    base_json, param, value, seed = task
    obj = dict(base_json)
    obj["seed"] = seed
    if param == "lambda":
        obj["lambda"] = value
    else:
        if not math.isfinite(value) or value != int(value):
            return (param, value, seed, None, None, f"ratio must be an integer, got {value}")
        obj["lau_ratio"] = int(value)
    try:
        cfg = ExperimentConfig.from_json(obj)
        train_set, val_set = cfg.datasets()
        tc = cfg.to_train_config()
        *_, net = train(tc, train_set)
        final = evaluate(net, tc, val_set)
    except (ConfigError, ValueError, MemoryError) as exc:
        return (param, value, seed, None, None, str(exc))
    return (param, value, seed, final["miou"], final["pixacc"], None)


def cmd_sweep(args) -> int:
    base_json = _read_json(args.config)
    ExperimentConfig.from_json(base_json)  # fail fast on a broken base config
    values = _parse_list("values", args.values, float)
    if not values:
        raise ConfigError("values", "need at least one value")
    if args.seeds:
        seeds = _parse_list("seeds", args.seeds, int)
    else:
        seeds = [int(base_json.get("seed", 0))]
    tasks = [(base_json, args.param, v, s) for v in values for s in seeds]

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, len(tasks))
    if workers == 1:  # a pool would only add start-up time
        results = [_sweep_point(t) for t in tasks]
    else:  # imported here: the other commands need neither module
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        # A worker re-running a script with no __main__ guard, still importing it,
        # stops here with one line: a pool of its own would leave semaphores, or a
        # traceback, for the parent to cut off when it kills its broken pool.
        if getattr(multiprocessing.current_process(), "_inheriting", False):
            print("error: a sweep worker cannot start a pool of its own", file=sys.stderr)
            return 1
        try:
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
                # workers start at submit and load numpy with one BLAS thread each
                saved = os.environ.copy()
                os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
                try:
                    futures = [pool.submit(_sweep_point, t) for t in tasks]
                finally:
                    os.environ.clear()
                    os.environ.update(saved)
                results = [f.result() for f in futures]
        except BrokenProcessPool:
            print("error: a sweep worker died (killed, out of memory, or started from a script "
                  "with no `if __name__ == '__main__':` guard); no sweep.csv written", file=sys.stderr)
            return 1

    results.sort(key=lambda r: (r[0], r[1], r[2]))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    errors = []
    with atomic_write(path) as fh:
        fh.write("param,value,seed,final_miou,final_pixacc\n")
        for param, value, seed, miou_v, pixacc_v, err in results:
            if err is None:
                fh.write(f"{param},{value:g},{seed},{_fmt(miou_v)},{_fmt(pixacc_v)}\n")
            else:
                fh.write(f"{param},{value:g},{seed},,\n")
                errors.append(f"{param}={value:g} seed={seed}: {err}")
    errors_path = os.path.join(args.out, "errors.txt")
    if errors:
        with atomic_write(errors_path) as fh:
            fh.write("\n".join(errors) + "\n")
    elif os.path.exists(errors_path):  # left by an earlier sweep into this directory
        os.remove(errors_path)
    for e in errors:
        print(f"failed: {e}", file=sys.stderr)
    print(f"sweep written to {path} ({len(results)} rows, {len(errors)} failed)")
    return 0 if not errors else 1


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: flags are spelled out, so no prefix stands for a flag (--h for --help)
    parser = argparse.ArgumentParser(prog="lau", description="location-aware upsampling experiments",
                                     allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference checks of every backward pass", allow_abbrev=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="directory for gradcheck.csv")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("demo", help="upsample a feature map and dump label images", allow_abbrev=False)
    p.add_argument("--upsampler", default="bilinear",
                   choices=["bilinear", "pixelshuffle"] + sorted(_CORNER_NAMES))
    p.add_argument("--ratio", type=int, default=2)
    p.add_argument("--in", dest="infile", default=None, help="tensor dump to upsample")
    p.add_argument("--out", default="demo", help="output directory for PPMs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--size", type=int, default=32, help="synthetic image size when no --in")
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("train", help="train on the synthetic benchmark", allow_abbrev=False)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sweep", help="one training run per parameter value", allow_abbrev=False)
    p.add_argument("--param", required=True, choices=["lambda", "ratio"])
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default=None, help="comma-separated seeds (default: config seed)")
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"invalid config - {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
