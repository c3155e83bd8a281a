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

from dataclasses import dataclass, field

import numpy as np

from .core import LabelMap, ShapeError, as_tensor4
from .samplers import (
    CORNERS,
    OffsetField,
    _check_ratio,
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
    "reduce_loss",
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
    """Per-pixel source coordinates (px, py) in input-grid units.

    float64 inputs are kept as given, so a read-only broadcast view stays a
    view rather than a full copy.
    """

    px: np.ndarray
    py: np.ndarray

    def __post_init__(self):
        self.px = np.asarray(self.px, dtype=np.float64)
        self.py = np.asarray(self.py, dtype=np.float64)
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
    gradient by contract. The loss values are stacked once, when the set is
    built, so the entries are not meant to change afterwards.
    """

    losses: list  # 5 LossMaps
    coords: list  # 5 CoordinateMaps
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

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
        self._stack = np.stack([lm.values for lm in self.losses])
        self._stack.setflags(write=False)

    @property
    def shape(self):
        return self.losses[0].shape

    def loss_stack(self) -> np.ndarray:
        """The five loss maps' values as one read-only (5, n, h, w) array."""
        return self._stack


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
    safe = np.where(valid, labels.labels, 0)  # the labels' narrow type; the intp terms widen it
    rows = np.arange(n, dtype=np.intp).reshape(n, 1, 1) * c
    flat = (rows + safe) * (h * w) + np.arange(h * w, dtype=np.intp).reshape(1, h, w)
    return valid, flat


def cross_entropy_map(logits: np.ndarray, labels: LabelMap) -> LossMap:
    """-log softmax probability of the true class per valid pixel, max-shifted to stay finite."""
    logits = as_tensor4(logits)
    z = logits - logits.max(axis=1, keepdims=True)
    valid, flat = _true_class(logits, labels)
    picked = z.ravel()[flat]
    del flat
    # the true class is picked, so z can take exp(z) in place: one logits-sized buffer in all
    lse = np.exp(z, out=z).sum(axis=1)
    del z
    np.log(lse, out=lse)
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
    # one array, updated in place: z, then exp(z), then the softmax
    softmax = logits - logits.max(axis=1, keepdims=True)
    np.exp(softmax, out=softmax)
    softmax /= softmax.sum(axis=1, keepdims=True)
    valid, flat = _true_class(logits, labels)
    if np.shape(weights) != valid.shape:
        raise ShapeError(f"weights shape {np.shape(weights)} != labels {valid.shape}")
    # (softmax - onehot) * w, without the one-hot: s * w off the true class,
    # which equals (s - 0) * w, and (s - 1) * w on it (class 0 where ignored)
    wmap = np.where(valid, weights, 0.0)
    true = (softmax.ravel()[flat] - 1.0) * wmap
    softmax *= wmap[:, None]
    softmax.ravel()[flat] = true
    return softmax


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


def guided_terms(ce: LossMap, aux: LossMap, lam: float):
    """The guided loss map and a thunk for its gradient.

    The map is `ce` reweighted by 1+lambda wherever it failed to beat `aux`.
    Ties count as failures, so a zero offset is always penalized. `aux`
    carries no gradient. The thunk returns the derivative of
    reduce_loss(loss map) with respect to ce.values: the per-pixel CE
    weights, at the resolution of `ce`. The guided weight is computed once,
    for the value and the gradient.
    """
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    w = guided_weight(ce, aux, lam)
    valid = ce.valid & aux.valid
    out = LossMap(np.where(valid, ce.values * w, 0.0), valid)
    return out, lambda: np.where(valid, w / int(valid.sum()), 0.0)


def _block_sums(values: np.ndarray, r: int) -> np.ndarray:
    """Sum of each r-by-r block of (n, hh, ww) values."""
    n, hh, ww = values.shape
    return values.reshape(n, hh // r, r, ww // r, r).sum(axis=(2, 4))


def _stacked_labels(labels: LabelMap, start: int, rows: int) -> LabelMap:
    """Labels of rows start..start + rows of a corner-major stack, whose row r is sample r mod n."""
    if rows == labels.n:  # the rows are one whole corner
        return labels
    return LabelMap(labels.labels[np.arange(start, start + rows) % labels.n], labels.num_classes)


def build_candidate_set(u: np.ndarray, off: OffsetField, k: int, rest: int,
                        labels: LabelMap, refined: LossMap) -> CandidateSet:
    """Assemble the 5-way candidate losses and coordinates for one batch.

    Each candidate runs its sampler at ratio k, brings the result to label
    resolution with the plain bilinear stage over the remaining factor
    `rest`, and scores it with cross-entropy against `labels`. `refined` is
    that CE for the offset-refined sampler, which every caller has already
    computed for its own loss, so its valid mask is the labels'. The
    per-pixel losses are averaged back over each rest-by-rest block's valid
    pixels so losses and coordinates agree on the sampler's output grid.
    Corner entries are constants; only the index-0 path is meant to carry
    gradient.

    The four corner outputs are stacked on the batch axis, corner-major, and
    go through the bilinear stage and CE in chunks of max(n, 4) rows: one
    call per corner from batch 4 up, all four corners in one call below.
    Each block's valid count is taken once and shared by the five means,
    and the corner coordinates are read-only broadcasts of the corner axes.
    """
    u = as_tensor4(u)
    rest = _check_ratio(rest)  # the refined loss is pooled by it before any sampler runs
    if off.m != 1:
        raise ShapeError("candidate machinery needs shared offsets (m = 1)")
    n, c, h, w = u.shape
    grid = (n, k * h, k * w)
    if (off.n, off.h_out, off.w_out) != grid:
        raise ShapeError(f"offset dims {off.dx.shape} != sampler output ({n}, 1, {k * h}, {k * w})")
    if labels.n != n:  # the stacked rows read sample r mod n of the labels
        raise ShapeError(f"labels batch {labels.n} != tensor batch {n}")
    if refined.shape != (labels.n, labels.h, labels.w):
        raise ShapeError(f"refined loss {refined.shape} != labels {(labels.n, labels.h, labels.w)}")
    valid = labels.valid
    if not np.array_equal(refined.valid, valid):
        raise ValueError("refined loss must be valid exactly where the labels are")

    sums = np.empty((5,) + grid)
    sums[0] = _block_sums(refined.values, rest)
    corner_sums = sums[1:].reshape((4 * n,) + grid[1:])  # a view: row r is corner r // n, sample r % n
    stack = np.concatenate([corner_upsample(u, k, corner) for corner in CORNERS])
    rows = max(n, 4)
    for start in range(0, 4 * n, rows):
        ce = cross_entropy_map(bilinear_upsample(stack[start:start + rows], rest),
                               _stacked_labels(labels, start, rows))
        corner_sums[start:start + rows] = _block_sums(ce.values, rest)
    count = _block_sums(valid, rest)
    ok = count > 0
    means = np.where(ok, sums / np.maximum(count, 1), 0.0)
    losses = [LossMap(m, ok) for m in means]

    qx, qy = lau_source_coords(off, k)
    axes = [corner_source_coords(h, w, k, corner) for corner in CORNERS]
    # one read-only broadcast per axis for all four corners; indexing it gives each corner's view
    px = np.broadcast_to(np.array([xs for xs, _ in axes], dtype=np.float64)[:, None, None, :], (4,) + grid)
    py = np.broadcast_to(np.array([ys for _, ys in axes], dtype=np.float64)[:, None, :, None], (4,) + grid)
    coords = [CoordinateMap(qx[:, 0], qy[:, 0])] + [CoordinateMap(x, y) for x, y in zip(px, py)]
    return CandidateSet(losses, coords)


def select_theta_opt(cs: CandidateSet) -> CoordinateMap:
    """Coordinates of the minimum-loss candidate per pixel.

    Ties go to the lowest index, so the refined sampler (index 0) wins any
    tie against a corner.
    """
    best = cs.loss_stack().argmin(axis=0)  # argmin takes the first minimum
    return CoordinateMap(np.choose(best, [cm.px for cm in cs.coords]),
                         np.choose(best, [cm.py for cm in cs.coords]))


def regression_weight(cs: CandidateSet, lam: float) -> np.ndarray:
    """1 where the refined loss is <= every candidate, else 1+lambda."""
    stack = cs.loss_stack()
    return np.where(stack[0] <= stack.min(axis=0), 1.0, 1.0 + lam)


def regression_terms(cs: CandidateSet, gamma: float, lam: float):
    """The coordinate-regression loss map and a thunk for its gradient.

    The loss is gamma * smooth-L1 to the best candidate plus the weighted
    refined loss. The smooth-L1 target and the candidate losses carry no
    gradient: it flows through the refined loss, scaled by its weight, and
    through the predicted coordinates only.

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
        counts = _block_sums(labels.valid, rest)
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
    return _valid_mean(lm.values[lm.valid])


def _valid_mean(values: np.ndarray) -> float:
    """Mean of the valid pixels' loss values, picked out as one 1-D array; ValueError if there are none.

    evaluate reduces the concatenation of its chunks' picks with it, the
    same array, and so the same sum, as the pick from their joined map.
    """
    if values.size == 0:
        raise ValueError("loss reduction over zero valid pixels")
    return float(values.sum() / values.size)
