"""Synthetic segmentation benchmark: deterministic data and evaluation metrics.

Each sample is a full-resolution label map of random rectangles and discs
on a background class, paired with the low-resolution feature map a real
encoder would produce at that output stride: a one-hot encoding of the
majority class per pooling cell plus Gaussian noise. Majority pooling makes
cells that straddle a boundary genuinely ambiguous, which is exactly the
regime where moving the sampling point can help.

Samples are regenerable bit-exactly from (seed, index) alone, so datasets
never need to be stored to be reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LabelMap, Rng, ShapeError, mix_seed

# Label maps drawn per sample before giving up on finding two classes. Seeds
# 0-10 need at most 3 redraws at 64 px and 35 at 2 px; a 1 px map never has
# two classes.
MAX_REDRAWS = 1000

__all__ = [
    "SynthSample",
    "gen_sample",
    "miou",
    "pix_acc",
    "speckle_rate",
]


@dataclass
class SynthSample:
    features: np.ndarray  # (1, C, H/K, W/K)
    labels: LabelMap  # (1, H, W)


def _draw_labels(rng: Rng, height: int, width: int, num_classes: int) -> np.ndarray:
    # Shapes are large on purpose: they keep the class distribution roughly
    # balanced, which a from-scratch net needs to learn every class within
    # the default iteration budget.
    labels = np.zeros((height, width), dtype=np.int64)
    yy, xx = np.ogrid[0:height, 0:width]
    for _ in range(rng.randint(2, 6)):
        cls = rng.randint(0, num_classes)
        if rng.uniform() < 0.5:
            # axis-aligned rectangle
            h_ext = rng.randint(max(2, height * 3 // 8), max(3, height * 7 // 8))
            w_ext = rng.randint(max(2, width * 3 // 8), max(3, width * 7 // 8))
            y0 = rng.randint(0, max(1, height - h_ext))
            x0 = rng.randint(0, max(1, width - w_ext))
            labels[y0 : y0 + h_ext, x0 : x0 + w_ext] = cls
        else:
            radius = rng.randint(max(2, height // 5), max(3, height * 2 // 5))
            cy = rng.randint(radius, max(radius + 1, height - radius))
            cx = rng.randint(radius, max(radius + 1, width - radius))
            labels[(yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius] = cls
    return labels


def _majority_pool(labels: np.ndarray, num_classes: int, k: int) -> np.ndarray:
    """Most frequent class per k-by-k cell; ties go to the smallest class."""
    h, w = labels.shape
    onehot = labels[None] == np.arange(num_classes)[:, None, None]
    counts = onehot.reshape(num_classes, h // k, k, w // k, k).sum(axis=(2, 4))
    return counts.argmax(axis=0)


def gen_sample(seed: int, index: int, height: int, width: int, num_classes: int,
               stride: int, noise_std: float) -> SynthSample:
    """Sample `index` of the dataset keyed by `seed`; order-independent.

    Raises ValueError naming the argument when num_classes < 2 or beyond
    int64 labels, stride < 1, height or width is not a positive multiple of
    stride, or noise_std is not finite and >= 0, and when no label map with
    two classes turns up in MAX_REDRAWS draws.
    """
    if not 2 <= num_classes < 2**63:
        raise ValueError(f"num_classes must be >= 2 and fit int64 labels, got {num_classes}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    for name, size in (("height", height), ("width", width)):
        if size < stride or size % stride:
            raise ValueError(f"{name} must be a positive multiple of stride {stride}, got {size}")
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    rng = Rng(mix_seed(seed, index))
    for _ in range(MAX_REDRAWS):
        labels = _draw_labels(rng, height, width, num_classes)
        if (labels != labels.flat[0]).any():
            break
    else:
        raise ValueError(f"no {height}x{width} label map with two classes in {MAX_REDRAWS} draws")
    pooled = _majority_pool(labels, num_classes, stride)
    features = (pooled[None] == np.arange(num_classes)[:, None, None]).astype(np.float64)
    if noise_std > 0:
        features = features + rng.normals(features.shape, 0.0, noise_std)
    return SynthSample(features[None], LabelMap(labels[None], num_classes))


def _check_pair(pred: LabelMap, gt: LabelMap):
    if (pred.n, pred.h, pred.w) != (gt.n, gt.h, gt.w):
        raise ShapeError(
            f"prediction dims {(pred.n, pred.h, pred.w)} != ground truth {(gt.n, gt.h, gt.w)}"
        )


def pix_acc(pred: LabelMap, gt: LabelMap) -> float:
    """Fraction of valid pixels predicted correctly."""
    _check_pair(pred, gt)
    valid = gt.valid
    total = int(valid.sum())
    if total == 0:
        raise ValueError("no valid pixels")
    return float((pred.labels[valid] == gt.labels[valid]).sum() / total)


def miou(pred: LabelMap, gt: LabelMap, num_classes: int) -> float:
    """Mean per-class intersection over union.

    Classes absent from both maps (among valid pixels) are excluded from
    the mean, since empty classes would contribute undefined ratios.
    """
    _check_pair(pred, gt)
    valid = gt.valid
    p = pred.labels[valid]
    g = gt.labels[valid]
    ious = []
    for cls in range(num_classes):
        inter = int(((p == cls) & (g == cls)).sum())
        union = int(((p == cls) | (g == cls)).sum())
        if union:
            ious.append(inter / union)
    if not ious:
        raise ValueError("no classes present")
    return float(np.mean(ious))


def speckle_rate(pred: LabelMap) -> float:
    """Fraction of interior pixels whose label differs from all 4 neighbors.

    Isolated single-pixel predictions are the signature of checkerboard-style
    upsampling artifacts; smooth label maps score 0.
    """
    if pred.h < 3 or pred.w < 3:
        raise ShapeError(f"need at least 3x3 maps, got {pred.h}x{pred.w}")
    x = pred.labels
    mid = x[:, 1:-1, 1:-1]
    isolated = (
        (mid != x[:, :-2, 1:-1])
        & (mid != x[:, 2:, 1:-1])
        & (mid != x[:, 1:-1, :-2])
        & (mid != x[:, 1:-1, 2:])
    )
    return float(isolated.sum() / mid.size)
