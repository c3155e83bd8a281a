"""Outside-in instrumentation of the `lau` package: bindings, spans, work counts.

A module that did `from .samplers import lau_forward` holds its own reference
to the function, so replacing `lau.samplers.lau_forward` alone would miss the
calls made from `lau.net` and `lau.losses`. `Bindings` therefore replaces a
function under every module attribute of the package that refers to it, and
puts every original back on `restore`.

`Tracer` wraps each public function of the six layer modules and records one
span per call (name, parent span, start, end, work unit) in memory. Self time
is a span's duration minus the durations of its direct children; calls are
nested and single-threaded, so the children never overlap.

The work counts (FLOPs, bytes, elements) are computed from argument and result
shapes, not measured: they ignore caches and temporaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("core", "samplers", "losses", "net", "synth", "checks")

# Spans reported as calls / total_ms / self_ms per work unit.
SPANS = (
    "net.conv2d_forward",
    "net.conv2d_backward",
    "samplers.lau_forward",
    "samplers.lau_backward",
    "samplers.pixel_shuffle",
    "samplers.bilinear_upsample",
    "samplers.bilinear_upsample_backward",
    "samplers.corner_upsample",
    "losses.cross_entropy_map",
    "losses.cross_entropy_backward",
    "losses.guided_weight",
    "losses.build_candidate_set",
    "net.evaluate",
    "net.sgd_step",
    "synth.gen_sample",
)

# Samplers whose gathered or scattered element counts are reported.
SAMPLER_COUNTS = (
    "samplers.lau_forward",
    "samplers.lau_backward",
    "samplers.bilinear_upsample",
    "samplers.bilinear_upsample_backward",
    "samplers.corner_upsample",
    "samplers.pixel_shuffle",
)

SYNTH_METRICS = ("synth.pix_acc", "synth.miou", "synth.speckle_rate")


def per_layer_units() -> dict:
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.total_ms"] = "ms"
        units[f"{span}.self_ms"] = "ms"
    units["net.conv.gflop"] = "GFLOP"
    units["net.conv.mb_moved"] = "MB"
    units["net.conv.gflop_per_s"] = "GFLOP/s"
    units["synth.metrics.ms"] = "ms"
    units["core.as_tensor4.calls"] = "count"
    units["core.as_tensor4.mb_scanned"] = "MB"
    for span in SAMPLER_COUNTS:
        units[f"{span}.melem"] = "Melem"
    units["net.gradcheck.backward_used_ratio"] = "ratio"
    units["trace.units"] = "count"
    units["trace.spans"] = "count"
    units["trace.overhead_ms"] = "ms"
    return units


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lau" or name.startswith("lau."))]


class Bindings:
    """Replace functions under every `lau` module attribute bound to them."""

    def __init__(self):
        self._saved = []  # (module, attribute, original)

    def replace(self, current, wrapper) -> None:
        """Bind `wrapper` wherever `current` is bound."""
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                if obj is current:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()


def _size(a) -> int:
    return int(getattr(a, "size", 0))


def _conv_forward(args, kwargs, result):
    layer, x = args[0], args[1]
    n, _, h, w = x.shape
    macs = n * layer.out_ch * layer.in_ch * layer.kernel ** 2 * h * w
    return {"flop": 2 * macs, "bytes": 8 * (x.size + layer.weights.size + result.size)}


def _conv_backward(args, kwargs, result):
    layer, x, dy = args[0], args[1], args[2]
    n, _, h, w = x.shape
    macs = n * layer.out_ch * layer.in_ch * layer.kernel ** 2 * h * w
    dx, dw, db = result
    moved = x.size + dy.size + layer.weights.size + dx.size + dw.size + db.size
    return {"flop": 4 * macs, "bytes": 8 * moved}


def _bilinear_elems(in_rows: int, out_shape) -> int:
    # separable: two column gathers at input height, then two row gathers
    n, c, hh, ww = out_shape
    return 2 * n * c * in_rows * ww + 2 * n * c * hh * ww


COUNTERS = {
    "core.as_tensor4": lambda a, k, r: {"bytes": r.nbytes},
    "net.conv2d_forward": _conv_forward,
    "net.conv2d_backward": _conv_backward,
    # four lattice corners read per output element
    "samplers.lau_forward": lambda a, k, r: {"elem": 4 * r.size},
    # four scatters of dV plus four gathers of U for the offset slopes
    "samplers.lau_backward": lambda a, k, r: {"elem": 8 * _size(a[3])},
    "samplers.bilinear_upsample": lambda a, k, r: {
        "elem": _bilinear_elems(r.shape[2] // a[1], r.shape)},
    "samplers.bilinear_upsample_backward": lambda a, k, r: {
        "elem": _bilinear_elems(a[0][2], a[2].shape)},
    "samplers.corner_upsample": lambda a, k, r: {"elem": r.size},
    "samplers.pixel_shuffle": lambda a, k, r: {"elem": r.size},
    "net.gradcheck": lambda a, k, r: {"points": len(a[1])},
}


class Tracer:
    """In-memory span recorder over the public functions of the layer modules."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.units: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[int, dict] = {}  # span index -> computed work counts
        self.unit = 0
        self._stack: list[int] = []
        self._bindings = Bindings()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        names, parents, units = self.names, self.parents, self.units
        starts, ends, stack, clock = self.starts, self.ends, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            units.append(self.unit)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                self.counts[idx] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"lau.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                self._bindings.replace(obj, self._wrap(f"{layer}.{attr}", obj))

    def uninstall(self) -> None:
        self._bindings.restore()

    def _has_ancestor(self, idx: int, name: str) -> bool:
        idx = self.parents[idx]
        while idx >= 0:
            if self.names[idx] == name:
                return True
            idx = self.parents[idx]
        return False

    def summary(self, units: int, overhead_ms: float) -> dict:
        """Per-layer metrics, each divided by the number of traced work units."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        agg = {}  # name -> [calls, total s, self s]
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            row = agg.setdefault(self.names[i], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        work = {}  # name -> summed counts
        for i, c in self.counts.items():
            into = work.setdefault(self.names[i], {})
            for key, v in c.items():
                into[key] = into.get(key, 0) + v

        per = 1.0 / max(units, 1)
        out = {}
        for span in SPANS:
            calls, total, own = agg.get(span, (0, 0.0, 0.0))
            out[f"{span}.calls"] = calls * per
            out[f"{span}.total_ms"] = total * 1e3 * per
            out[f"{span}.self_ms"] = own * 1e3 * per
        conv = [work.get(s, {}) for s in ("net.conv2d_forward", "net.conv2d_backward")]
        flop = sum(c.get("flop", 0) for c in conv)
        conv_s = sum(agg.get(s, (0, 0.0, 0.0))[1]
                     for s in ("net.conv2d_forward", "net.conv2d_backward"))
        out["net.conv.gflop"] = flop * 1e-9 * per
        out["net.conv.mb_moved"] = sum(c.get("bytes", 0) for c in conv) * 1e-6 * per
        out["net.conv.gflop_per_s"] = flop * 1e-9 / conv_s if conv_s > 0 else 0.0
        out["synth.metrics.ms"] = sum(agg.get(s, (0, 0.0, 0.0))[1] for s in SYNTH_METRICS) * 1e3 * per
        out["core.as_tensor4.calls"] = agg.get("core.as_tensor4", (0, 0.0, 0.0))[0] * per
        out["core.as_tensor4.mb_scanned"] = work.get("core.as_tensor4", {}).get("bytes", 0) * 1e-6 * per
        for span in SAMPLER_COUNTS:
            out[f"{span}.melem"] = work.get(span, {}).get("elem", 0) * 1e-6 * per
        # Backward passes whose gradient gradcheck uses (one per checked point)
        # over backward passes run, inside the end-to-end network checks.
        used = sum(c.get("points", 0) for i, c in self.counts.items()
                   if self.names[i] == "net.gradcheck"
                   and self._has_ancestor(i, "checks.network_gradcheck"))
        ran = sum(1 for i in range(n) if self.names[i] == "net.network_backward"
                  and self._has_ancestor(i, "checks.network_gradcheck"))
        out["net.gradcheck.backward_used_ratio"] = used / ran if ran else 0.0
        out["trace.units"] = float(units)
        out["trace.spans"] = n * per
        out["trace.overhead_ms"] = overhead_ms
        return out

    def write(self, path: str) -> None:
        """Dump every span as CSV: index, parent, unit, name, start and duration."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("span,parent,unit,name,start_us,dur_us\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.parents[i]},{self.units[i]},{name},"
                         f"{(self.starts[i] - t0) * 1e6:.1f},"
                         f"{(self.ends[i] - self.starts[i]) * 1e6:.1f}\n")
