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

from .core import IGNORE, LabelMap, Rng, ShapeError, label_dtype, mix_seed

# Label maps drawn per sample before giving up on finding two classes. Seeds
# 0-10 need at most 3 redraws at 64 px and 35 at 2 px; a 1 px map never has
# two classes.
MAX_REDRAWS = 1000

__all__ = [
    "SynthSample",
    "Tally",
    "gen_sample",
]


@dataclass
class SynthSample:
    features: np.ndarray  # (1, C, H/K, W/K)
    labels: LabelMap  # (1, H, W)


def _draw_labels(rng: Rng, height: int, width: int, num_classes: int) -> np.ndarray:
    # Shapes are large on purpose: they keep the class distribution roughly
    # balanced, which a from-scratch net needs to learn every class within
    # the default iteration budget.
    labels = np.zeros((height, width), dtype=label_dtype(num_classes))
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

    Raises ValueError naming the argument when num_classes < 2 or too large
    for a one-hot height x width map, stride < 1, height or width is not a
    positive multiple of stride, or noise_std is not finite and >= 0, and
    when no label map with two classes turns up in MAX_REDRAWS draws.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    for name, size in (("height", height), ("width", width)):
        if size < stride or size % stride:
            raise ValueError(f"{name} must be a positive multiple of stride {stride}, got {size}")
    # numpy cannot index larger one-hot maps and fails in its own terms
    # (np.arange(2**63 - 1) is even empty); this also keeps every class
    # within int64, the widest label type
    if num_classes * height * width * 8 > np.iinfo(np.intp).max:
        raise ValueError(f"num_classes {num_classes} x height {height} x width {width}: one-hot map too large")
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


def _ascending(*arrays) -> np.ndarray:
    """The distinct values of integer arrays, ascending, as intp.

    Python's set and sort: np.unique imports numpy.ma the first time it
    runs, which would add half a MiB of modules (under tracemalloc) to
    every process that evaluates.
    """
    return np.array(sorted(set().union(*(a.tolist() for a in arrays))), dtype=np.intp)


@dataclass(frozen=True, eq=False)
class Tally:
    """Exact integer counts behind pix_acc, miou and speckle_rate.

    Per class, among valid pixels: hits (of the class and predicted so),
    predicted (a predicted IGNORE is no class) and true, the diagonal and
    margins of the confusion matrix; then the prediction's isolated pixels
    out of its interior ones. Tallies of disjoint samples add up to their
    union's, so a split is scored chunk by chunk, dividing the same integers.
    """

    # (K,) intp counts, whatever the labels' type, one per entry of classes.
    # So are predicted and true.
    hits: np.ndarray
    predicted: np.ndarray
    true: np.ndarray
    isolated: int
    interior: int
    # The ascending classes counted: of builds 0 up to the largest class
    # that occurs or, where that would outnumber the pixels, only the
    # classes that occur, so any class count is scored. None means 0..K-1.
    classes: np.ndarray | None = None

    def __post_init__(self):
        if self.classes is None:
            object.__setattr__(self, "classes", np.arange(len(self.hits)))

    @classmethod
    def of(cls, pred: LabelMap, gt: LabelMap) -> Tally:
        if (pred.n, pred.h, pred.w) != (gt.n, gt.h, gt.w):
            raise ShapeError(f"prediction dims {(pred.n, pred.h, pred.w)} != ground truth {(gt.n, gt.h, gt.w)}")
        valid = gt.valid
        p, g = pred.labels[valid], gt.labels[valid]
        top = max(int(p.max(initial=IGNORE)), int(g.max(initial=IGNORE)))
        if top < g.size:
            classes = np.arange(top + 1)
        else:  # each label becomes its position among the classes that occur; IGNORE stays -1
            classes = _ascending(p[p != IGNORE], g)
            p = np.where(p == IGNORE, IGNORE, np.searchsorted(classes, p))
            g = np.searchsorted(classes, g)
        k = classes.size
        x = pred.labels
        mid = x[:, 1:-1, 1:-1]
        isolated = ((mid != x[:, :-2, 1:-1]) & (mid != x[:, 2:, 1:-1])
                    & (mid != x[:, 1:-1, :-2]) & (mid != x[:, 1:-1, 2:]))
        # widened first: an int8 prediction of class 127 plus 1 would wrap to -128
        predicted = np.bincount(p.astype(np.intp) + 1, minlength=k + 1)[1:]
        return cls(np.bincount(g[p == g], minlength=k), predicted,
                   np.bincount(g, minlength=k), isolated.sum(), mid.size, classes)

    def __add__(self, other: Tally) -> Tally:
        """The two tallies' counts added class by class, over the classes of either."""
        classes = _ascending(self.classes, other.classes)

        def spread(t: Tally, name: str) -> np.ndarray:  # t's counts padded out to every class of the sum
            out = np.zeros(classes.size, np.intp)
            out[np.searchsorted(classes, t.classes)] = getattr(t, name)
            return out

        counts = [spread(self, name) + spread(other, name) for name in ("hits", "predicted", "true")]
        return Tally(*counts, self.isolated + other.isolated, self.interior + other.interior, classes)

    def pix_acc(self) -> float:
        """Fraction of valid pixels predicted correctly."""
        total = int(self.true.sum())
        if total == 0:
            raise ValueError("no valid pixels")
        return float(self.hits.sum() / total)

    def miou(self, num_classes: int) -> float:
        """Mean IoU over the classes below num_classes; a class in neither map has no ratio and is left out."""
        union = self.predicted + self.true - self.hits
        kept = self.classes < num_classes
        ious = [int(i) / int(u) for i, u in zip(self.hits[kept], union[kept]) if u]
        if not ious:
            raise ValueError("no classes present")
        return float(np.mean(ious))

    def speckle_rate(self) -> float:
        """Fraction of interior pixels whose predicted label differs from all 4 neighbors.

        Isolated pixels are the signature of checkerboard-style upsampling
        artifacts; smooth label maps score 0. It reads the prediction only,
        so Tally.of(pred, pred) scores a map with no ground truth.
        """
        if not self.interior:
            raise ShapeError("no interior pixels: need a map of at least 3x3")
        return float(self.isolated / self.interior)
