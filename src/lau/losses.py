"""Per-pixel losses that reward offsets for moving toward well-classified points.

Two mechanisms are built on plain cross-entropy:

* guided weighting: compare the loss of the offset-refined prediction with
  the loss of a plain-bilinear prediction (no gradient) pixel by pixel and
  multiply by 1 + lambda wherever the refined one is not strictly better.
  Staying put is therefore always penalized.
* coordinate regression: build five candidate samplings per pixel (the
  offset-refined one plus the four floor/ceil lattice corners), pick the
  coordinates of whichever classifies best, and pull the predicted offset
  toward them with a smooth-L1 term of strength gamma.

Auxiliary losses and selected targets are constants under differentiation;
gradient reaches the network only through the refined prediction's own loss
and through the predicted coordinates inside the smooth-L1 term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabelMap, ShapeError, as_tensor4
from .samplers import (
    CORNERS,
    OffsetField,
    bilinear_upsample,
    corner_source_coords,
    corner_upsample,
    lau_source_coords,
)

__all__ = [
    "CandidateSet",
    "CoordinateMap",
    "LossMap",
    "build_candidate_set",
    "cross_entropy_backward",
    "cross_entropy_map",
    "guided_terms",
    "guided_weight",
    "offset_guided_loss",
    "reduce_loss",
    "regression_loss",
    "regression_terms",
    "regression_weight",
    "select_theta_opt",
    "smooth_l1",
    "smooth_l1_grad",
    "SMOOTH_L1_BETA",
]

# Quadratic/linear transition of the smooth-L1 kernel, the bounding-box
# regression convention.
SMOOTH_L1_BETA = 1.0


@dataclass
class LossMap:
    """Nonnegative per-pixel loss values with a validity mask.

    Invalid pixels (ignored labels) carry value 0 and weight 0 everywhere
    downstream.
    """

    values: np.ndarray  # (n, h, w) float64
    valid: np.ndarray  # (n, h, w) bool

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        self.valid = np.ascontiguousarray(self.valid, dtype=bool)
        if self.values.ndim != 3 or self.values.shape != self.valid.shape:
            raise ShapeError(
                f"values/valid must be matching (n, h, w), got {self.values.shape} and {self.valid.shape}"
            )

    @property
    def shape(self):
        return self.values.shape


@dataclass
class CoordinateMap:
    """Per-pixel source coordinates (px, py) in input-grid units."""

    px: np.ndarray
    py: np.ndarray

    def __post_init__(self):
        self.px = np.ascontiguousarray(self.px, dtype=np.float64)
        self.py = np.ascontiguousarray(self.py, dtype=np.float64)
        if self.px.ndim != 3 or self.px.shape != self.py.shape:
            raise ShapeError(
                f"px/py must be matching (n, h, w), got {self.px.shape} and {self.py.shape}"
            )
        if not (np.isfinite(self.px).all() and np.isfinite(self.py).all()):
            raise ValueError("coordinates must be finite")

    @property
    def shape(self):
        return self.px.shape


@dataclass
class CandidateSet:
    """Aligned 5-way loss and coordinate candidates.

    Index 0 is the offset-refined sampler's own entry; indices 1..4 are the
    lattice corners in the order (floor,floor), (ceil,floor), (floor,ceil),
    (ceil,ceil) of (x, y) rounding. The four corner entries carry no
    gradient by contract.
    """

    losses: list  # 5 LossMaps
    coords: list  # 5 CoordinateMaps

    def __post_init__(self):
        if len(self.losses) != 5 or len(self.coords) != 5:
            raise ShapeError("candidate set needs exactly 5 losses and 5 coordinate maps")
        shape = self.losses[0].shape
        for lm in self.losses:
            if lm.shape != shape:
                raise ShapeError("all candidate loss maps must share one shape")
        for cm in self.coords:
            if cm.shape != shape:
                raise ShapeError("coordinate maps must match the loss-map shape")

    @property
    def shape(self):
        return self.losses[0].shape

    def loss_stack(self) -> np.ndarray:
        return np.stack([lm.values for lm in self.losses])


def _true_class(logits: np.ndarray, labels: LabelMap):
    """Check labels against (n, c, h, w) logits; return (valid mask, true-class flat index).

    The index is (sample * c + label) * h * w + pixel, with class 0 where
    ignored; indexing the raveled logits with it is far cheaper than numpy's
    along-axis helpers.
    """
    n, c, h, w = logits.shape
    if c != labels.num_classes:
        raise ShapeError(f"logit channels {c} != num_classes {labels.num_classes}")
    if (n, h, w) != (labels.n, labels.h, labels.w):
        raise ShapeError(
            f"logit spatial dims {(n, h, w)} != labels {(labels.n, labels.h, labels.w)}"
        )
    valid = labels.valid
    safe = np.where(valid, labels.labels, 0)
    flat = (np.arange(n).reshape(n, 1, 1) * c + safe) * (h * w) + np.arange(h * w).reshape(1, h, w)
    return valid, flat


def cross_entropy_map(logits: np.ndarray, labels: LabelMap) -> LossMap:
    """-log softmax probability of the true class per valid pixel, max-shifted to stay finite."""
    logits = as_tensor4(logits)
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    # checked and indexed once the exp temporaries are freed: done first, peak RSS rose 2-5 MB
    valid, flat = _true_class(logits, labels)
    picked = z.ravel()[flat]
    values = np.where(valid, lse - picked, 0.0)
    # Guard against tiny negative round-off on saturated pixels.
    return LossMap(np.maximum(values, 0.0), valid)


def cross_entropy_backward(
    logits: np.ndarray, labels: LabelMap, weights: np.ndarray
) -> np.ndarray:
    """Gradient of sum_i weights_i * CE_i w.r.t. the logits.

    weights is (n, h, w), the labels' shape (anything else, even if it would
    broadcast, is a ShapeError); invalid pixels contribute nothing regardless
    of their weight entry.
    """
    logits = as_tensor4(logits)
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    softmax = ez / ez.sum(axis=1, keepdims=True)
    valid, flat = _true_class(logits, labels)
    if np.shape(weights) != valid.shape:
        raise ShapeError(f"weights shape {np.shape(weights)} != labels {valid.shape}")
    onehot = np.zeros_like(logits)
    onehot.ravel()[flat] = 1.0
    wmap = np.where(valid, weights, 0.0)[:, None]
    return (softmax - onehot) * wmap


def _huber(d: np.ndarray) -> np.ndarray:
    ad = np.abs(d)
    return np.where(ad < SMOOTH_L1_BETA, 0.5 * d * d / SMOOTH_L1_BETA, ad - 0.5 * SMOOTH_L1_BETA)


def _huber_grad(d: np.ndarray) -> np.ndarray:
    return np.where(np.abs(d) < SMOOTH_L1_BETA, d / SMOOTH_L1_BETA, np.sign(d))


def smooth_l1(pred: CoordinateMap, target: CoordinateMap) -> LossMap:
    """Smooth-L1 distance between coordinate pairs, summed over x and y."""
    if pred.shape != target.shape:
        raise ShapeError(f"coordinate shapes differ: {pred.shape} vs {target.shape}")
    values = _huber(pred.px - target.px) + _huber(pred.py - target.py)
    return LossMap(values, np.ones(values.shape, dtype=bool))


def smooth_l1_grad(pred: CoordinateMap, target: CoordinateMap):
    """d smooth_l1 / d pred, per pixel and axis, with target held constant."""
    if pred.shape != target.shape:
        raise ShapeError(f"coordinate shapes differ: {pred.shape} vs {target.shape}")
    return _huber_grad(pred.px - target.px), _huber_grad(pred.py - target.py)


def guided_weight(loss: LossMap, aux: LossMap, lam: float) -> np.ndarray:
    """1 where the refined loss is strictly smaller than the plain one, else 1+lambda."""
    if loss.shape != aux.shape:
        raise ShapeError(f"loss shapes differ: {loss.shape} vs {aux.shape}")
    return np.where(loss.values < aux.values, 1.0, 1.0 + lam)


def offset_guided_loss(loss: LossMap, aux: LossMap, lam: float) -> LossMap:
    """Reweight the per-pixel loss by 1+lambda wherever it failed to beat `aux`.

    Ties count as failures, so a zero offset is always penalized. `aux`
    carries no gradient; differentiating this op scales the incoming
    gradient by the weight only.
    """
    return guided_terms(loss, aux, lam)[0]


def guided_terms(ce: LossMap, aux: LossMap, lam: float):
    """offset_guided_loss(ce, aux, lam) and a thunk for its gradient.

    The thunk returns the derivative of reduce_loss(loss map) with respect
    to ce.values: the per-pixel CE weights, at the resolution of `ce`. The
    guided weight is computed once, for the value and the gradient.
    """
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    w = guided_weight(ce, aux, lam)
    valid = ce.valid & aux.valid
    out = LossMap(np.where(valid, ce.values * w, 0.0), valid)
    return out, lambda: np.where(valid, w / int(valid.sum()), 0.0)


def _pool_mean(values: np.ndarray, valid: np.ndarray, r: int) -> LossMap:
    """Mean over each r-by-r block's valid pixels; a block is valid if any are."""
    n, hh, ww = values.shape
    vsum = values.reshape(n, hh // r, r, ww // r, r).sum(axis=(2, 4))
    count = valid.reshape(n, hh // r, r, ww // r, r).sum(axis=(2, 4))
    ok = count > 0
    mean = np.where(ok, vsum / np.maximum(count, 1), 0.0)
    return LossMap(mean, ok)


def build_candidate_set(u: np.ndarray, off: OffsetField, k: int, rest: int,
                        labels: LabelMap, refined: LossMap) -> CandidateSet:
    """Assemble the 5-way candidate losses and coordinates for one batch.

    Each candidate runs its sampler at ratio k, brings the result to label
    resolution with the plain bilinear stage over the remaining factor
    `rest`, and scores it with cross-entropy against `labels`. `refined` is
    that CE for the offset-refined sampler, which every caller has already
    computed for its own loss. The per-pixel losses are averaged back over
    each rest-by-rest block so losses and coordinates agree on the
    sampler's output grid. Corner entries are constants; only the index-0
    path is meant to carry gradient.
    """
    u = as_tensor4(u)
    if off.m != 1:
        raise ShapeError("candidate machinery needs shared offsets (m = 1)")
    n, c, h, w = u.shape

    losses = [_pool_mean(refined.values, refined.valid, rest)]
    for corner in CORNERS:
        lm = cross_entropy_map(bilinear_upsample(corner_upsample(u, k, corner), rest), labels)
        losses.append(_pool_mean(lm.values, lm.valid, rest))

    qx, qy = lau_source_coords(off, k)
    coords = [CoordinateMap(qx[:, 0], qy[:, 0])]
    for corner in CORNERS:
        xs, ys = corner_source_coords(h, w, k, corner)
        px = np.broadcast_to(xs[None, None, :], (n, off.h_out, off.w_out))
        py = np.broadcast_to(ys[None, :, None], (n, off.h_out, off.w_out))
        coords.append(CoordinateMap(px, py))
    return CandidateSet(losses, coords)


def select_theta_opt(cs: CandidateSet) -> CoordinateMap:
    """Coordinates of the minimum-loss candidate per pixel.

    Ties go to the lowest index, so the refined sampler (index 0) wins any
    tie against a corner.
    """
    best = cs.loss_stack().argmin(axis=0)  # argmin takes the first minimum
    # candidate j's entry of pixel i sits at flat index j * size + i of the stack
    flat = best * best.size + np.arange(best.size).reshape(best.shape)
    px = np.stack([cm.px for cm in cs.coords]).ravel()
    py = np.stack([cm.py for cm in cs.coords]).ravel()
    return CoordinateMap(px[flat], py[flat])


def regression_weight(cs: CandidateSet, lam: float) -> np.ndarray:
    """1 where the refined loss is <= every candidate, else 1+lambda."""
    stack = cs.loss_stack()
    return np.where(stack[0] <= stack.min(axis=0), 1.0, 1.0 + lam)


def regression_loss(cs: CandidateSet, gamma: float, lam: float) -> LossMap:
    """Coordinate-regression loss: gamma * smooth-L1 to the best candidate
    plus the weighted refined loss.

    The smooth-L1 target and the candidate losses are constants under
    differentiation; gradient flows through the refined loss (scaled by its
    weight) and through the predicted coordinates only.
    """
    return regression_terms(cs, gamma, lam)[0]


def regression_terms(cs: CandidateSet, gamma: float, lam: float):
    """regression_loss(cs, gamma, lam) and a thunk for its gradient.

    The thunk, grad(rest, labels), takes the bilinear factor and labels the
    candidate set was built with and returns (per-pixel CE weights at label
    resolution, smooth-L1 gradient on the offsets as an OffsetField). It
    reuses the target and weight the loss selected, so neither is computed
    twice.
    """
    if gamma < 0 or lam < 0:
        raise ValueError(f"gamma and lambda must be >= 0, got {gamma}, {lam}")
    theta_opt = select_theta_opt(cs)
    pred = cs.coords[0]
    sl1 = smooth_l1(pred, theta_opt)
    w = regression_weight(cs, lam)
    main = cs.losses[0]
    valid = main.valid
    out = LossMap(np.where(valid, gamma * sl1.values + main.values * w, 0.0), valid)

    def grad(rest: int, labels: LabelMap):
        ns = int(valid.sum())
        # CE gradient: each full-res pixel inherits its stage block's weight
        # over (stage count * block valid count).
        n, sh, sw = out.shape
        counts = labels.valid.reshape(n, sh, rest, sw, rest).sum(axis=(2, 4))
        per_block = np.where(valid, w / (ns * np.maximum(counts, 1)), 0.0)
        weights = np.repeat(np.repeat(per_block, rest, axis=1), rest, axis=2)
        weights = np.where(labels.valid, weights, 0.0)
        # direct offset gradient from the smooth-L1 pull toward theta_opt
        gx, gy = smooth_l1_grad(pred, theta_opt)
        scale = np.where(valid, gamma / ns, 0.0)
        return weights, OffsetField((gx * scale)[:, None], (gy * scale)[:, None])

    return out, grad


def reduce_loss(lm: LossMap) -> float:
    """Mean loss over valid pixels."""
    count = int(lm.valid.sum())
    if count == 0:
        raise ValueError("loss reduction over zero valid pixels")
    return float(lm.values[lm.valid].sum() / count)
