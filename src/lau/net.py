"""Toy segmentation network with explicit backpropagation and SGD training.

The network is deliberately small: a two-layer conv decoder produces a
feature map F, a 1x1 head turns F into low-resolution class logits, and an
offset branch (1x1 conv + leaky ReLU + 3x3 conv + pixel shuffle) predicts
one sub-pixel displacement pair per output position of the offset-refined
upsampler. The refined map is brought to full label resolution by a final
plain bilinear stage covering the remaining factor.

No autograd framework: every forward op has a hand-written adjoint, and
`gradcheck` verifies them against central finite differences.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .core import ConfigError, LabelMap, Rng, ShapeError, _read_dump, _write_dump, as_tensor4, atomic_write
from .losses import (
    LossMap,
    _candidate_set,
    _valid_mean,
    build_candidate_set,
    cross_entropy_backward,
    cross_entropy_map,
    guided_terms,
    reduce_loss,
    regression_terms,
)
from .samplers import (
    OffsetField,
    bilinear_upsample,
    bilinear_upsample_backward,
    lau_backward,
    lau_forward,
    pixel_shuffle,
    pixel_unshuffle,
)
from . import synth

__all__ = [
    "ConvLayer",
    "GradcheckReport",
    "OffsetPredictor",
    "SegNet",
    "TrainConfig",
    "build_net",
    "conv2d_backward",
    "conv2d_forward",
    "decoder_forward",
    "evaluate",
    "gradcheck",
    "leaky_relu",
    "leaky_relu_backward",
    "load_checkpoint",
    "loss_and_grads",
    "net_for",
    "network_forward",
    "offset_predictor_forward",
    "poly_lr",
    "save_checkpoint",
    "sgd_step",
    "train",
]


@dataclass
class ConvLayer:
    """2-D cross-correlation layer; 3x3 kernels use zero padding 1, 1x1 none."""

    in_ch: int
    out_ch: int
    kernel: int
    weights: np.ndarray  # (out_ch, in_ch, kernel, kernel)
    bias: np.ndarray  # (out_ch,)
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.kernel not in (1, 3):
            raise ValueError(f"kernel must be 1 or 3, got {self.kernel}")
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        self.bias = np.ascontiguousarray(self.bias, dtype=np.float64)
        want = (self.out_ch, self.in_ch, self.kernel, self.kernel)
        if self.weights.shape != want:
            raise ShapeError(f"weights shape {self.weights.shape} != {want}")
        if self.bias.shape != (self.out_ch,):
            raise ShapeError(f"bias shape {self.bias.shape} != ({self.out_ch},)")

    @classmethod
    def init(cls, in_ch, out_ch, kernel, rng: Rng, weight_decay=0.0, zero=False):
        shape = (out_ch, in_ch, kernel, kernel)
        if zero:
            w = np.zeros(shape)
            b = np.zeros(out_ch)
        else:
            bound = 1.0 / np.sqrt(in_ch * kernel * kernel)
            w = rng.uniforms(shape) * (2 * bound) - bound
            b = rng.uniforms((out_ch,)) * (2 * bound) - bound
        return cls(in_ch, out_ch, kernel, w, b, weight_decay)


# The convs run one np.matmul per kernel tap, each operand in the layout
# np.einsum(optimize=True) gives matmul for the same per-tap contraction:
# input patches as NHWC rows (n*h*w, cin) or CNHW columns (cin, n*h*w), dY as
# NHWO rows (n*h*w, out), and the weight tap as the strided (out, cin) view
# or its transpose. BLAS results depend on operand layout and order, so this
# keeps every output byte equal to the per-tap einsum reference kept in
# tests/_oracles.py, without einsum's per-call path planning. That holds for
# layers with two or more input and output channels; with one channel,
# einsum drops the size-1 axis and takes a product that can differ in the
# last bit.


def _taps(kernel: int):
    return [(dy, dx) for dy in range(kernel) for dx in range(kernel)]


def _padded(x: np.ndarray, kernel: int) -> np.ndarray:
    """x zero-padded by (kernel - 1) // 2 on both spatial axes.

    A copy into a zeroed buffer: the same bytes as np.pad, without its
    per-call cost, which on small maps exceeds the conv's own matmuls.
    """
    pad = (kernel - 1) // 2
    if not pad:
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + w] = x
    return xp


def conv2d_forward(layer: ConvLayer, x: np.ndarray) -> np.ndarray:
    x = as_tensor4(x)
    n, cin, h, w = x.shape
    if cin != layer.in_ch:
        raise ShapeError(f"input channels {cin} != layer in_ch {layer.in_ch}")
    xp = _padded(x, layer.kernel).transpose(0, 2, 3, 1)  # NHWC view
    out = np.zeros((n * h * w, layer.out_ch))
    for dy, dx in _taps(layer.kernel):
        out += xp[:, dy : dy + h, dx : dx + w].reshape(-1, cin) @ layer.weights[:, :, dy, dx].T
    out += layer.bias
    return np.ascontiguousarray(out.reshape(n, h, w, layer.out_ch).transpose(0, 3, 1, 2))


def _weight_grads(layer: ConvLayer, x: np.ndarray, dy_out: np.ndarray):
    """dW and db of conv2d_forward, plus dY as (n*h*w, out) rows for dX.

    conv2d_backward builds on it; the network's input layer calls it alone,
    since nothing reads the gradient of the network input.
    """
    x = as_tensor4(x)
    dy_out = as_tensor4(dy_out)
    n, cin, h, w = x.shape
    if cin != layer.in_ch:
        raise ShapeError(f"input channels {cin} != layer in_ch {layer.in_ch}")
    if dy_out.shape != (n, layer.out_ch, h, w):
        raise ShapeError(f"dY shape {dy_out.shape} != ({n},{layer.out_ch},{h},{w})")
    xp = _padded(x, layer.kernel).transpose(1, 0, 2, 3)  # CNHW view
    g = dy_out.transpose(0, 2, 3, 1).reshape(-1, layer.out_ch)
    dw = np.empty_like(layer.weights)
    for dy, dx in _taps(layer.kernel):
        dw[:, :, dy, dx] = (xp[:, :, dy : dy + h, dx : dx + w].reshape(cin, -1) @ g).T
    return dw, dy_out.sum(axis=(0, 2, 3)), g


def conv2d_backward(layer: ConvLayer, x: np.ndarray, dy_out: np.ndarray):
    """Exact adjoints of conv2d_forward: returns (dX, dW, db)."""
    dw, db, g = _weight_grads(layer, x, dy_out)
    n, cin, h, w = np.shape(x)
    pad = (layer.kernel - 1) // 2
    dxp = np.zeros((n, h + 2 * pad, w + 2 * pad, cin))  # NHWC
    for dy, dx in _taps(layer.kernel):
        dxp[:, dy : dy + h, dx : dx + w] += (g @ layer.weights[:, :, dy, dx]).reshape(n, h, w, cin)
    dxin = dxp[:, pad : pad + h, pad : pad + w].transpose(0, 3, 1, 2)
    return np.ascontiguousarray(dxin), dw, db


def leaky_relu(x: np.ndarray, alpha: float) -> np.ndarray:
    """x where x >= 0, else alpha * x. Zero counts as nonnegative."""
    return np.where(x >= 0, x, alpha * x)


def leaky_relu_backward(x: np.ndarray, dy: np.ndarray, alpha: float) -> np.ndarray:
    return dy * np.where(x >= 0, 1.0, alpha)


@dataclass
class OffsetPredictor:
    """Offset branch: 1x1 reduce, leaky ReLU, 3x3 expand, pixel shuffle.

    The expand layer starts at exactly zero so the first forward pass emits
    zero offsets and the refined upsampler degenerates to plain bilinear.
    The shuffled channels interleave the displacement pairs: channel 2g is
    the x shift of group g, channel 2g+1 its y shift.
    """

    reduce: ConvLayer
    expand: ConvLayer
    ratio: int
    groups: int
    slope: float

    def __post_init__(self):
        if self.reduce.out_ch != self.expand.in_ch:
            raise ShapeError(f"reduce out_ch {self.reduce.out_ch} != expand in_ch {self.expand.in_ch}")
        want = 2 * self.groups * self.ratio * self.ratio
        if self.expand.out_ch != want:
            raise ShapeError(f"expand out_ch {self.expand.out_ch} != 2*m*k^2 = {want}")

    @classmethod
    def init(cls, in_ch, reduced_ch, ratio, groups, slope, rng: Rng):
        # no weight decay on either conv: the offsets must stay free to grow
        reduce = ConvLayer.init(in_ch, reduced_ch, 1, rng, weight_decay=0.0)
        expand = ConvLayer.init(
            reduced_ch, 2 * groups * ratio * ratio, 3, rng, weight_decay=0.0, zero=True
        )
        return cls(reduce, expand, ratio, groups, slope)


def offset_predictor_forward(pred: OffsetPredictor, f: np.ndarray):
    """Offset branch forward; returns (offsets, cache for the backward)."""
    ar = conv2d_forward(pred.reduce, f)
    hr = leaky_relu(ar, pred.slope)
    return _expand_offsets(pred, hr), (ar, hr)


def _expand_offsets(pred: OffsetPredictor, hr: np.ndarray) -> OffsetField:
    """The offsets that the expand conv and the pixel shuffle make of the activated reduce output hr."""
    o = pixel_shuffle(conv2d_forward(pred.expand, hr), pred.ratio)
    return OffsetField(o[:, 0::2], o[:, 1::2])


def _predictor_backward(pred: OffsetPredictor, f: np.ndarray, cache, doff: OffsetField):
    ar, hr = cache
    do = np.empty((doff.n, 2 * doff.m, doff.h_out, doff.w_out))
    do[:, 0::2] = doff.dx
    do[:, 1::2] = doff.dy
    dae = pixel_unshuffle(do, pred.ratio)
    dhr, dwe, dbe = conv2d_backward(pred.expand, hr, dae)
    dar = leaky_relu_backward(ar, dhr, pred.slope)
    df, dwr, dbr = conv2d_backward(pred.reduce, f, dar)
    return df, {"reduce": (dwr, dbr), "expand": (dwe, dbe)}


@dataclass
class SegNet:
    """Decoder, logits head, and (optionally) the offset branch.

    With no predictor the pipeline is the plain-bilinear baseline at the
    same total upsampling factor.
    """

    conv1: ConvLayer
    conv2: ConvLayer
    head: ConvLayer
    predictor: OffsetPredictor | None
    lau_ratio: int
    total_ratio: int
    slope: float

    def __post_init__(self):
        """Raise ShapeError unless each layer takes the channels the one before it gives."""
        layers = dict(self.named_layers())
        links = [("conv1", "conv2"), ("conv2", "head")]
        if self.predictor is not None:
            links.append(("conv2", "reduce"))
            if self.predictor.ratio != self.lau_ratio:
                raise ShapeError(f"predictor ratio {self.predictor.ratio} != lau_ratio {self.lau_ratio}")
        for src, dst in links:
            if layers[src].out_ch != layers[dst].in_ch:
                raise ShapeError(f"{src} out_ch {layers[src].out_ch} != {dst} in_ch {layers[dst].in_ch}")

    def named_layers(self):
        layers = [("conv1", self.conv1), ("conv2", self.conv2), ("head", self.head)]
        if self.predictor is not None:
            layers += [("reduce", self.predictor.reduce), ("expand", self.predictor.expand)]
        return layers


def build_net(
    in_channels: int,
    num_classes: int,
    decoder_channels: int,
    reduced_channels: int,
    lau_ratio: int,
    total_ratio: int,
    offset_groups: int,
    slope: float,
    rng: Rng,
    weight_decay: float,
    with_predictor: bool = True,
) -> SegNet:
    conv1 = ConvLayer.init(in_channels, decoder_channels, 3, rng, weight_decay)
    conv2 = ConvLayer.init(decoder_channels, decoder_channels, 3, rng, weight_decay)
    head = ConvLayer.init(decoder_channels, num_classes, 1, rng, weight_decay)
    pred = None
    if with_predictor:
        pred = OffsetPredictor.init(decoder_channels, reduced_channels, lau_ratio, offset_groups, slope, rng)
    return SegNet(conv1, conv2, head, pred, lau_ratio, total_ratio, slope)


def net_for(cfg: TrainConfig, rng: Rng) -> SegNet:
    """The network cfg describes, with its parameters drawn from rng."""
    return build_net(cfg.in_channels, cfg.num_classes, cfg.decoder_channels, cfg.reduced_channels,
                     cfg.lau_ratio, cfg.total_upsample, cfg.offset_groups, cfg.slope, rng,
                     cfg.weight_decay, with_predictor=cfg.upsampler == "lau")


def decoder_forward(net: SegNet, x: np.ndarray):
    """Two 3x3 conv + leaky ReLU stages, then the 1x1 logits head.

    Returns (F, U, cache): the shared feature map that also feeds the offset
    branch, the low-resolution class logits, and the input and
    pre-activations the backward pass needs.
    """
    a1 = conv2d_forward(net.conv1, x)
    h1 = leaky_relu(a1, net.slope)
    a2 = conv2d_forward(net.conv2, h1)
    f = leaky_relu(a2, net.slope)
    u = conv2d_forward(net.head, f)
    return f, u, {"x": x, "a1": a1, "h1": h1, "a2": a2}


def network_forward(net: SegNet, x: np.ndarray):
    """Full pipeline forward; returns (full-res logits, cache for backward)."""
    f, u, cache = decoder_forward(net, x)
    off, pcache = (None, None) if net.predictor is None else offset_predictor_forward(net.predictor, f)
    rest = net.total_ratio // net.lau_ratio
    v1, logits = _upsample(net, u, off, rest)
    cache.update(f=f, u=u, off=off, pcache=pcache, v1=v1, rest=rest)
    return logits, cache


def _upsample(net: SegNet, u: np.ndarray, off: OffsetField | None, rest: int):
    """The pipeline after the decoder and offset branch: (sampler output, full-res logits).

    The refined sampler at offsets `off` (plain bilinear without an offset
    branch) takes u up by lau_ratio, and plain bilinear covers the rest.
    """
    v1 = bilinear_upsample(u, net.lau_ratio) if off is None else lau_forward(u, off, net.lau_ratio)
    return v1, bilinear_upsample(v1, rest)


def _forward_from(net: SegNet, cache: dict, layer: str):
    """network_forward's logits, and the cache entries the loss reads, after `layer` changed.

    `layer` is one after the decoder (head, reduce or expand). The layers
    before it still hold the weights `cache` was computed with, so their
    activations are read from it, and `layer` and the layers after it run
    again: the head gives new logits u; reduce or expand, new offsets.
    """
    u, off, rest = cache["u"], cache["off"], cache["rest"]
    if layer == "head":
        u = conv2d_forward(net.head, cache["f"])
    elif layer == "reduce":
        off = offset_predictor_forward(net.predictor, cache["f"])[0]
    else:
        off = _expand_offsets(net.predictor, cache["pcache"][1])  # pcache[1] is the activated reduce output
    return _upsample(net, u, off, rest)[1], {"u": u, "off": off, "rest": rest}


def network_backward(net: SegNet, cache, dlogits: np.ndarray, doff_extra: OffsetField | None = None):
    """Backpropagate dlogits (plus any direct offset gradient) to all layers."""
    dv1 = bilinear_upsample_backward(cache["v1"].shape, cache["rest"], dlogits)
    del dlogits  # its last read: freed here, since loss_and_grads keeps no other reference
    grads = {}
    if net.predictor is not None:
        du, doff = lau_backward(cache["u"], cache["off"], net.lau_ratio, dv1)
        if doff_extra is not None:
            doff = OffsetField(doff.dx + doff_extra.dx, doff.dy + doff_extra.dy)
        df_pred, pgrads = _predictor_backward(net.predictor, cache["f"], cache["pcache"], doff)
        grads.update(pgrads)
    else:
        du = bilinear_upsample_backward(cache["u"].shape, net.lau_ratio, dv1)
        df_pred = 0.0
    df_head, dwh, dbh = conv2d_backward(net.head, cache["f"], du)
    grads["head"] = (dwh, dbh)
    df = df_head + df_pred
    da2 = leaky_relu_backward(cache["a2"], df, net.slope)
    dh1, dw2, db2 = conv2d_backward(net.conv2, cache["h1"], da2)
    grads["conv2"] = (dw2, db2)
    da1 = leaky_relu_backward(cache["a1"], dh1, net.slope)
    grads["conv1"] = _weight_grads(net.conv1, cache["x"], da1)[:2]
    return grads


def poly_lr(base: float, iteration: int, total: int, power: float) -> float:
    """Polynomial decay: base * (1 - iteration/total) ** power."""
    if not 0 <= iteration <= total:
        raise ValueError(f"iteration {iteration} outside [0, {total}]")
    return base * (1.0 - iteration / total) ** power


def sgd_step(params, grads, velocities, lr: float, momentum: float, decays) -> None:
    """One momentum-SGD update, in place: v <- mu*v + (g + wd*w); w <- w - lr*v."""
    lengths = [len(params), len(grads), len(velocities), len(decays)]
    if len(set(lengths)) != 1:
        raise ShapeError(f"params/grads/velocities/decays lengths differ: {lengths}")
    for w, g, v, wd in zip(params, grads, velocities, decays):
        if w.shape != g.shape or w.shape != v.shape:
            raise ShapeError(f"parameter/gradient/buffer shapes differ: {w.shape}")
        v *= momentum
        v += g + wd * w
        w -= lr * v


# JSON keys of the config fields named otherwise. ExperimentConfig's fields are its keys, but lam
# ("lambda" is a keyword); a TrainConfig field is read from the ExperimentConfig field of its key.
_JSON_KEYS = {"num_classes": "classes", "in_channels": "classes", "decoder_channels": "hidden_channels",
              "reduced_channels": "hidden_channels", "offset_groups": "m_channels", "slope": "leaky_slope",
              "total_upsample": "output_stride", "loss_kind": "loss", "base_lr": "lr", "lam": "lambda"}


def _json_key(name: str) -> str:
    """The JSON config key of the field `name` of either config class."""
    return _JSON_KEYS.get(name, name)


def _check_fields(cfg) -> None:
    """Raise ConfigError, naming the JSON key, at a config field of the wrong type or a non-finite float."""
    types = {"int": int, "float": (int, float), "str": str}
    for f in fields(cfg):
        key, value = _json_key(f.name), getattr(cfg, f.name)
        # JSON's true/false load as bool, which is an int subclass
        if isinstance(value, bool) or not isinstance(value, types[f.type]):
            raise ConfigError(key, f"must be of type {f.type}")
        # JSON's Infinity and NaN pass every range rule, and an int beyond float range
        # overflows on first use; the exact int/float compare rejects all three
        if f.type == "float" and not abs(value) <= sys.float_info.max:
            raise ConfigError(key, "must be a finite number")


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run needs; checked when built, then immutable."""

    num_classes: int
    in_channels: int
    decoder_channels: int
    reduced_channels: int
    offset_groups: int
    slope: float
    lau_ratio: int
    total_upsample: int
    upsampler: str  # "lau" | "bilinear"
    loss_kind: str  # "ce" | "off" | "reg"
    lam: float
    gamma: float
    base_lr: float
    power: float
    momentum: float
    weight_decay: float
    epochs: int
    batch: int
    seed: int

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise ConfigError at the first bad field type or broken rule, named by its JSON config key."""
        _check_fields(self)

        def need(ok, name, message):
            if not ok:
                raise ConfigError(_json_key(name), message)

        need(self.num_classes >= 2, "num_classes", "must be >= 2")
        need(self.in_channels >= 1, "in_channels", "input channels must be >= 1")
        need(self.total_upsample >= 1, "total_upsample", "must be >= 1")
        need(self.lau_ratio >= 1, "lau_ratio", "must be >= 1")
        need(self.total_upsample % self.lau_ratio == 0, "lau_ratio",
             f"{self.lau_ratio} does not divide output_stride {self.total_upsample}")
        need(self.lam >= 0, "lam", "must be >= 0")
        need(self.gamma >= 0, "gamma", "must be >= 0")
        need(self.loss_kind in ("ce", "off", "reg"), "loss_kind", "must be one of ce, off, reg")
        need(self.upsampler in ("lau", "bilinear"), "upsampler", "must be lau or bilinear")
        if self.upsampler == "bilinear":
            need(self.loss_kind == "ce", "loss_kind", "bilinear baseline supports only loss=ce")
        need(self.base_lr > 0, "base_lr", "must be > 0")
        need(self.power >= 0, "power", "must be >= 0")
        need(0 <= self.momentum < 1, "momentum", "must be in [0, 1)")
        need(self.weight_decay >= 0, "weight_decay", "must be >= 0")
        need(self.epochs >= 1, "epochs", "must be >= 1")
        need(self.batch >= 1, "batch", "must be >= 1")
        need(self.offset_groups in (1, self.num_classes), "offset_groups",
             f"must be 1 (shared) or the class count {self.num_classes}")
        if self.loss_kind == "reg":
            need(self.offset_groups == 1, "offset_groups", "loss=reg needs shared offsets (m=1)")
        need(min(self.decoder_channels, self.reduced_channels) >= 1, "decoder_channels", "must be >= 1")
        need(0 <= self.slope < 1, "slope", "must be in [0, 1)")


def _batches(count: int, batch: int):
    return [(i, min(i + batch, count)) for i in range(0, count, batch)]


def _stack_features(samples, idx):
    return np.concatenate([samples[i].features for i in idx], axis=0)


def _stack_labels(samples, idx, num_classes):
    return LabelMap(np.concatenate([samples[i].labels.labels for i in idx], axis=0), num_classes)


def _bilinear_ce(u, k: int, rest: int, labels: LabelMap) -> LossMap:
    """CE of the plain-bilinear prediction the guided loss compares against.

    It upsamples the same low-resolution logits with plain bilinear over
    the whole factor, in the same two stages as the refined pipeline.
    """
    return cross_entropy_map(bilinear_upsample(bilinear_upsample(u, k), rest), labels)


def _loss_forward(net: SegNet, cfg: TrainConfig, logits, cache, labels: LabelMap, kept=None):
    """Per-pixel loss map, a thunk for what only the backward pass reads, and the loss's u-only part.

    The thunk returns (per-pixel CE weights at label resolution, direct
    offset gradient or None), so a caller that wants only the value never
    builds them. Every map entry depends on its own sample alone, so the
    maps of consecutive sample chunks concatenate to the map of their union.

    The u-only part is what the loss reads of the low-resolution logits
    cache["u"] and the labels alone: the plain-bilinear CE under off, the
    candidate set, whose four corner entries are that part, under reg, and
    None under ce. A caller that kept the part from a step at the same u and
    labels passes it as `kept`, and it is reused, not computed; training and
    evaluate pass none.
    """
    ce = cross_entropy_map(logits, labels)
    if cfg.loss_kind == "ce" or net.predictor is None:
        return ce, lambda: (np.where(ce.valid, 1.0 / int(ce.valid.sum()), 0.0), None), None
    u, k, rest = cache["u"], net.lau_ratio, cache["rest"]
    if cfg.loss_kind == "off":
        aux = _bilinear_ce(u, k, rest, labels) if kept is None else kept
        loss, weights = guided_terms(ce, aux, cfg.lam)
        return loss, lambda: (weights(), None), aux
    # "reg": candidate 0 is the network's own refined prediction, so reuse its CE
    if kept is None:
        cs = build_candidate_set(u, cache["off"], k, rest, labels, ce)
    else:
        cs = _candidate_set(kept.losses[1:], kept.coords[1:], cache["off"], k, rest, ce)
    loss, grad = regression_terms(cs, cfg.gamma, cfg.lam)
    return loss, lambda: grad(rest, labels), cs


def _params(net: SegNet) -> list:
    """Every trainable array: weights then bias, layer by layer."""
    return [arr for _, layer in net.named_layers() for arr in (layer.weights, layer.bias)]


def loss_and_grads(net: SegNet, cfg: TrainConfig, features, labels: LabelMap):
    """The configured loss at (features, labels), the logits, and a backward thunk.

    The one loss step behind training and the end-to-end gradient check;
    evaluate builds its loss maps with the same _loss_forward. Returns
    (scalar, logits, backward); backward() runs the backward pass and
    returns the parameter gradients in _params order, so a caller that
    needs only the value never pays for it. It reads the layer weights when
    called: call it before changing any parameter, and call it at most
    once. Until then it holds the logits and the forward cache. It drops
    the logits and the CE weight map once the logits' gradient exists and
    keeps no reference to that gradient, so unless the caller kept the
    logits they are freed before the network's backward pass, and their
    gradient after its first stage.
    """
    return _loss_step(net, cfg, features, labels)[:3]


def _loss_step(net: SegNet, cfg: TrainConfig, features, labels: LabelMap):
    """loss_and_grads' (scalar, logits, backward), then the forward cache and the loss's u-only part.

    network_gradcheck keeps the last two of its checked point for its
    probes; loss_and_grads drops them.
    """
    logits, cache = network_forward(net, features)
    loss, grad_terms, kept = _loss_forward(net, cfg, logits, cache, labels)
    scalar = reduce_loss(loss)  # rejects a batch with no valid pixels
    held = [logits]  # popped at its last use, so the thunk keeps no reference past it

    def backward():
        weights, doff_extra = grad_terms()
        held.append(cross_entropy_backward(held.pop(), labels, weights))  # dlogits replaces the logits
        del weights
        grads = network_backward(net, cache, held.pop(), doff_extra)
        return [g for name, _ in net.named_layers() for g in grads[name]]

    return scalar, logits, backward, cache, kept


# Samples per evaluate forward. At the default config one chunk's
# full-resolution map takes 1 MiB, where a 64-sample forward's took 8 MiB,
# plus as much again in lau tap indices and gathered values. A chunk's maps
# are freed before the next chunk's forward; only its valid pixels' loss
# values, at most 32 KiB a sample, wait for the group's reduction. On a
# 2-core Xeon with 4 MiB of L2 per core and one BLAS thread, the forward,
# loss and argmax over 256 lau/off samples took 0.77-0.83 s in chunks of
# 64, 0.64-0.67 s in 32, 0.39-0.44 s in 8 and 0.43-0.48 s in 4
# (bilinear/ce: 0.45 s in 64, 0.26-0.29 s in 8).
_EVAL_CHUNK = 8


def _evaluate_chunk(net: SegNet, cfg: TrainConfig, samples, idx):
    """One forward's valid loss values as a 1-D array, its count of valid labels and its tally.

    The loss reads only the cache entries _loss_forward needs, and the
    logits and cache go when this returns, before the next chunk's forward.
    """
    labels = _stack_labels(samples, idx, cfg.num_classes)
    logits, cache = network_forward(net, _stack_features(samples, idx))
    cache = {key: cache[key] for key in ("u", "off", "rest")}
    loss = _loss_forward(net, cfg, logits, cache, labels)[0]
    tally = synth.Tally.of(LabelMap(np.argmax(logits, axis=1), cfg.num_classes), labels)
    # valid labels, not loss-map pixels: under reg the map is at stage resolution
    return loss.values[loss.valid], int(labels.valid.sum()), tally


def evaluate(net: SegNet, cfg: TrainConfig, samples) -> dict:
    """Split-level loss and metrics with the current parameters.

    The loss is reduced over groups of max(cfg.batch, 64) samples, each
    weighted by its count of valid labels. A group is forwarded in chunks
    of _EVAL_CHUNK samples, each of which keeps only its valid pixels' loss
    values; their concatenation is the 1-D array reduce_loss would pick
    from the group's whole loss map, so the result does not depend on the
    chunk size. The metrics come from the sum of each chunk's synth.Tally.
    So at most one chunk's maps are held at a time, and no map the size of
    a group or of the split is ever built.
    """
    if not samples:
        raise ValueError("evaluate needs at least one sample")
    loss_sum = 0.0
    loss_count = 0
    tally = None
    for lo, hi in _batches(len(samples), max(cfg.batch, 64)):
        values = []
        nv = 0
        for start in range(lo, hi, _EVAL_CHUNK):
            chunk_values, chunk_nv, chunk = _evaluate_chunk(net, cfg, samples,
                                                            range(start, min(start + _EVAL_CHUNK, hi)))
            values.append(chunk_values)
            nv += chunk_nv
            tally = chunk if tally is None else tally + chunk
        loss_sum += _valid_mean(np.concatenate(values)) * nv
        loss_count += nv
    return {
        "loss": loss_sum / loss_count,
        "pixacc": tally.pix_acc(),
        "miou": tally.miou(cfg.num_classes),
        "speckle": tally.speckle_rate(),
    }


def train(cfg: TrainConfig, train_samples):
    """Run the configured training loop; yield the same SegNet, updated in place, after each epoch.

    Deterministic given cfg.seed. evaluate reads no RNG and writes no
    parameter, so evaluating between epochs leaves the run unchanged.
    """
    if not train_samples:
        raise ConfigError("train_count", "empty training set")
    rng = Rng(cfg.seed)
    net = net_for(cfg, rng)
    params = _params(net)
    decays = [layer.weight_decay for _, layer in net.named_layers() for _ in (0, 1)]
    velocities = [np.zeros_like(p) for p in params]
    batches = _batches(len(train_samples), cfg.batch)
    total = cfg.epochs * len(batches)
    it = 0
    order = list(range(len(train_samples)))
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        for lo, hi in batches:
            idx = order[lo:hi]
            features = _stack_features(train_samples, idx)
            labels = _stack_labels(train_samples, idx, cfg.num_classes)
            grads = loss_and_grads(net, cfg, features, labels)[2]()
            lr = poly_lr(cfg.base_lr, it, total, cfg.power)
            sgd_step(params, grads, velocities, lr, cfg.momentum, decays)
            it += 1
        yield net


# ---------------------------------------------------------------------------
# gradient checking

@dataclass
class GradcheckReport:
    subject: str
    cases: int
    max_rel_err: float
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def gradcheck(fn, points, h: float, tolerance: float) -> GradcheckReport:
    """Compare fn's analytic gradient with central differences at each point.

    fn maps a flat float64 vector x to (scalar value, grad_fn), where
    grad_fn() returns the gradient vector at x. grad_fn runs once per point,
    right after fn(point) and before the next fn call (fn may keep state,
    as network_gradcheck does: it sets the net's parameters in place and
    keeps the point's activations for its probes); the 2 * x.size probes
    read only the value and never call it, so a probe's fn may return None
    for it. The relative error is |a - n| / max(1e-8, |a| + |n|), at most 1;
    entries above the tolerance are recorded as failures, never raised. The
    step h must be finite and > 0 and the tolerance in (0, 1), else
    ValueError.
    """
    if not (np.isfinite(h) and h > 0 and 0 < tolerance < 1):
        raise ValueError(f"need a finite step h > 0 and 0 < tolerance < 1, got h={h}, tolerance={tolerance}")
    max_rel = 0.0
    failures = []
    for pi, x in enumerate(points):
        x = np.asarray(x, dtype=np.float64)
        grad = np.asarray(fn(x)[1](), dtype=np.float64)
        if grad.shape != x.shape:
            raise ShapeError(f"gradient shape {grad.shape} != point shape {x.shape}")
        for j in range(x.size):
            xp = x.copy()
            xp[j] += h
            xm = x.copy()
            xm[j] -= h
            num = (fn(xp)[0] - fn(xm)[0]) / (2.0 * h)
            a = grad[j]
            rel = abs(a - num) / max(1e-8, abs(a) + abs(num))
            if rel > max_rel:
                max_rel = rel
            if rel > tolerance:
                failures.append(f"point {pi} coord {j}: analytic {a:.6e} numeric {num:.6e} rel {rel:.3e}")
    return GradcheckReport("fn", len(points), max_rel, failures)


# ---------------------------------------------------------------------------
# checkpoints: one text manifest line, then weight+bias dumps per layer

def _manifest(net: SegNet) -> bytes:
    return (" ".join(f"{name}:{','.join(map(str, layer.weights.shape))}"
                     for name, layer in net.named_layers()) + "\n").encode("ascii")


def _checkpoint_entries(net: SegNet):
    """(array, dump dims) of every stored tensor, in file order."""
    return [(arr, dims) for _, layer in net.named_layers()
            for arr, dims in ((layer.weights, layer.weights.shape), (layer.bias, (1, layer.out_ch, 1, 1)))]


def save_checkpoint(path, net: SegNet) -> None:
    with atomic_write(path, "wb") as fh:
        fh.write(_manifest(net))
        for arr, dims in _checkpoint_entries(net):
            _write_dump(fh, arr, dims)


def load_checkpoint(path, net: SegNet) -> None:
    """Load a checkpoint saved for a network of net's shapes; on any error net is unchanged."""
    with open(path, "rb") as fh:
        line = _manifest(net)
        head = fh.readline(len(line))  # bounded: a hostile file may hold no newline
        if head != line:
            raise IOError(f"checkpoint manifest {head[:24]!r} does not match this network")
        tensors = []
        for _, dims in _checkpoint_entries(net):
            tensors.append(_read_dump(fh, path))
            if tensors[-1].shape != tuple(dims):
                raise IOError(f"checkpoint tensor dims {tensors[-1].shape} != {tuple(dims)}")
        if fh.read(1):
            raise IOError("trailing bytes after the last checkpoint tensor")
    for (arr, _), t in zip(_checkpoint_entries(net), tensors):
        arr[...] = t.reshape(arr.shape)
