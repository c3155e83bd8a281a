"""Spatial upsampling kernels and the offset-refined sampler with its adjoints.

Every sampler maps an input feature map U of shape (n, c, h, w) to an output
V of shape (n, c, k*h, k*w). Output pixel (y, x) reads the source point
(x/k, y/k) in input-grid units; the kernels differ in how they weight the
source lattice around that point:

* bilinear: triangular kernel max(0, 1 - |j - p|) in each axis.
* location-aware (lau): the same kernel, but the source point is first
  shifted by a learned per-pixel offset (dx, dy) and then clamped into the
  grid (border replication).
* pixel shuffle: a data-independent permutation moving k*k channel groups
  into k-by-k spatial blocks.
* corner samplers: indicator kernels picking one of the four integer
  lattice corners (floor/ceil per axis) around the source point.

All operations are pure; the backward passes accumulate in a fixed order so
results are deterministic. A lau call reads each of its four taps once, and
its dU adds the taps' contributions in tap order in a single scatter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ShapeError, as_tensor4

__all__ = [
    "Corner",
    "CORNERS",
    "OffsetField",
    "bilinear_upsample",
    "bilinear_upsample_backward",
    "corner_upsample",
    "corner_source_coords",
    "lau_forward",
    "lau_backward",
    "lau_source_coords",
    "pixel_shuffle",
    "pixel_unshuffle",
]


@dataclass(frozen=True)
class Corner:
    """One of the four floor/ceil rounding patterns, keyed per axis."""

    x_mode: str
    y_mode: str

    def __post_init__(self):
        for mode in (self.x_mode, self.y_mode):
            if mode not in ("floor", "ceil"):
                raise ValueError(f"corner mode must be 'floor' or 'ceil', got {mode!r}")

    def __str__(self) -> str:
        return f"{self.x_mode[0]}{self.y_mode[0]}"


# Candidate order used by the loss machinery: x rounds (floor, ceil, floor,
# ceil) while y rounds (floor, floor, ceil, ceil).
CORNERS = (
    Corner("floor", "floor"),
    Corner("ceil", "floor"),
    Corner("floor", "ceil"),
    Corner("ceil", "ceil"),
)


@dataclass
class OffsetField:
    """Per-output-pixel sub-pixel displacements in input-grid units.

    dx and dy are (n, m, h_out, w_out) float64 arrays. m is the number of
    offset groups: 1 shares one displacement across all channels, otherwise
    m must equal the channel count of the feature map being sampled.
    Magnitudes are unconstrained; only finiteness is required.
    """

    dx: np.ndarray
    dy: np.ndarray

    def __post_init__(self):
        self.dx = np.ascontiguousarray(self.dx, dtype=np.float64)
        self.dy = np.ascontiguousarray(self.dy, dtype=np.float64)
        if self.dx.ndim != 4 or self.dx.shape != self.dy.shape:
            raise ShapeError(
                f"dx/dy must be equal rank-4 shapes, got {self.dx.shape} and {self.dy.shape}"
            )
        if not (np.all(np.isfinite(self.dx)) and np.all(np.isfinite(self.dy))):
            raise ValueError("offsets must be finite")

    @property
    def n(self) -> int:
        return self.dx.shape[0]

    @property
    def m(self) -> int:
        return self.dx.shape[1]

    @property
    def h_out(self) -> int:
        return self.dx.shape[2]

    @property
    def w_out(self) -> int:
        return self.dx.shape[3]

    @classmethod
    def zeros(cls, n: int, m: int, h_out: int, w_out: int) -> "OffsetField":
        shape = (n, m, h_out, w_out)
        return cls(np.zeros(shape), np.zeros(shape))


def _check_ratio(k: int) -> int:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"upsampling ratio must be an integer >= 1, got {k!r}")
    return int(k)


def _cells(px, py, h: int, w: int):
    """Clamp source points into the h-by-w grid and find their bilinear cells.

    Returns (x0, x1, fx, y0, y1, fy): the lattice columns and rows around
    each clamped point and its fractional position from x0 (y0). On the
    last column (row) x1 == x0 (y1 == y0), which replicates the border.
    The bilinear and lau samplers and both adjoints share this geometry, so
    zero-offset lau reads exactly the taps and weights bilinear reads.
    """
    px = np.clip(px, 0.0, w - 1.0)
    py = np.clip(py, 0.0, h - 1.0)
    x0 = np.floor(px).astype(np.intp)
    y0 = np.floor(py).astype(np.intp)
    return x0, np.minimum(x0 + 1, w - 1), px - x0, y0, np.minimum(y0 + 1, h - 1), py - y0


def _upsample_cells(h: int, w: int, k: int):
    """_cells of the unshifted k-fold output grid, as one 1-D array per axis."""
    gx = np.arange(k * w, dtype=np.float64) / k
    gy = np.arange(k * h, dtype=np.float64) / k
    return _cells(gx, gy, h, w)


def bilinear_upsample(u: np.ndarray, k: int) -> np.ndarray:
    """Upsample by k with the triangular kernel; border-replicating at edges.

    Output pixel (y, x) interpolates U at (x/k, y/k) clamped into
    [0, w-1] x [0, h-1], so the rightmost/bottom output columns replicate
    the border rows/columns for k > 1. k = 1 returns its (validated) input.
    """
    u = as_tensor4(u)
    k = _check_ratio(k)
    if k == 1:
        return u
    n, c, h, w = u.shape
    x0, x1, fx, y0, y1, fy = _upsample_cells(h, w, k)
    # Separable: columns first, then rows.
    t = u[:, :, :, x0] * (1.0 - fx) + u[:, :, :, x1] * fx
    v = t[:, :, y0, :] * (1.0 - fy)[:, None] + t[:, :, y1, :] * fy[:, None]
    return np.ascontiguousarray(v)


def bilinear_upsample_backward(in_shape, k: int, dv: np.ndarray) -> np.ndarray:
    """Adjoint of bilinear_upsample: scatter dV back onto the input grid."""
    k = _check_ratio(k)
    n, c, h, w = in_shape
    dv = as_tensor4(dv)
    if dv.shape != (n, c, k * h, k * w):
        raise ShapeError(f"dv shape {dv.shape} does not match output ({n},{c},{k*h},{k*w})")
    if k == 1:
        return dv
    x0, x1, fx, y0, y1, fy = _upsample_cells(h, w, k)
    dt = np.zeros((n, c, h, k * w))
    np.add.at(dt, (slice(None), slice(None), y0), dv * (1.0 - fy)[:, None])
    np.add.at(dt, (slice(None), slice(None), y1), dv * fy[:, None])
    du = np.zeros(tuple(in_shape))
    np.add.at(du.transpose(3, 0, 1, 2), x0, (dt * (1.0 - fx)).transpose(3, 0, 1, 2))
    np.add.at(du.transpose(3, 0, 1, 2), x1, (dt * fx).transpose(3, 0, 1, 2))
    return du


def lau_source_coords(off: OffsetField, k: int):
    """Raw source points (qx, qy) = (x/k + dx, y/k + dy), unclamped.

    Returns (n, m, h_out, w_out) arrays matching the offset-group layout.
    """
    gx = np.arange(off.w_out, dtype=np.float64) / k
    gy = np.arange(off.h_out, dtype=np.float64) / k
    return gx[None, None, None, :] + off.dx, gy[None, None, :, None] + off.dy


def _lau_taps(u: np.ndarray, off: OffsetField, k: int):
    """Validate one lau call and read its four bilinear taps, once.

    Returns (u, qx, qy, fx, fy, idx, taps): the validated input, the raw
    source points and cell fractions in the offset-group layout, and the
    flat indices into U and values of the (y0,x0), (y0,x1), (y1,x0), (y1,x1)
    taps, each stacked as (4, n, c, k*h, k*w) for m = 1 and m = c alike.
    """
    u = as_tensor4(u)
    k = _check_ratio(k)
    n, c, h, w = u.shape
    if off.n != n:
        raise ShapeError(f"offset batch {off.n} != tensor batch {n}")
    if off.m not in (1, c):
        raise ShapeError(f"offset groups must be 1 or {c}, got {off.m}")
    if (off.h_out, off.w_out) != (k * h, k * w):
        raise ShapeError(f"offset resolution {(off.h_out, off.w_out)} != output ({k * h}, {k * w})")
    qx, qy = lau_source_coords(off, k)
    x0, x1, fx, y0, y1, fy = _cells(qx, qy, h, w)
    plane = np.arange(n * c).reshape(n, c, 1, 1) * h
    row0, row1 = (plane + y0) * w, (plane + y1) * w
    idx = np.stack([row0 + x0, row0 + x1, row1 + x0, row1 + x1])
    return u, qx, qy, fx, fy, idx, u.ravel()[idx]


def lau_forward(u: np.ndarray, off: OffsetField, k: int) -> np.ndarray:
    """Upsample by k, shifting each output pixel's source point by its offset.

    Source points are clamped into the grid before interpolation. Taps are
    blended x first, then y, as in bilinear_upsample, so an all-zero offset
    field reproduces it bit for bit.
    """
    *_, fx, fy, _, t = _lau_taps(u, off, k)
    return (t[0] * (1.0 - fx) + t[1] * fx) * (1.0 - fy) + (t[2] * (1.0 - fx) + t[3] * fx) * fy


def lau_backward(u: np.ndarray, off: OffsetField, k: int, dv: np.ndarray):
    """Adjoints of lau_forward: (dU, dOffsetField) for upstream gradient dV.

    dU is the exact transpose of the linear-in-U forward map. The offset
    gradient uses the kernel's slope: for the x axis it is +1 where the
    source point sits left of a lattice column inside the kernel support,
    -1 where it sits right, and 0 at exact lattice hits, at support edges,
    and wherever the raw (unclamped) point fell outside the grid.
    """
    u, qx, qy, fx, fy, idx, t = _lau_taps(u, off, k)
    dv = as_tensor4(dv)
    if dv.shape != t.shape[1:]:
        raise ShapeError(f"dv shape {dv.shape} != output {t.shape[1:]}")

    # One scatter in tap order: bincount adds in input order, so each dU
    # entry sums its contributions exactly as four sequential passes would.
    weights = np.stack([(1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx])
    du = np.bincount(idx.ravel(), (dv * weights).ravel(), u.size).reshape(u.shape)

    # Kernel slope terms. At fx == 0 the point sits exactly on a column (or
    # on the replicated border), where the symmetric subgradient is 0; the
    # (fx > 0) mask also guarantees x1 = x0 + 1 is a genuine neighbor.
    sx = (t[1] - t[0]) * (1 - fy) + (t[3] - t[2]) * fy
    sy = (t[2] - t[0]) * (1 - fx) + (t[3] - t[1]) * fx
    live_x = (fx > 0.0) & (qx >= 0.0) & (qx <= u.shape[3] - 1.0)
    live_y = (fy > 0.0) & (qy >= 0.0) & (qy <= u.shape[2] - 1.0)
    gx = dv * sx * live_x
    gy = dv * sy * live_y
    if off.m == 1:
        gx, gy = gx.sum(axis=1, keepdims=True), gy.sum(axis=1, keepdims=True)
    return du, OffsetField(gx, gy)


def pixel_shuffle(u: np.ndarray, k: int) -> np.ndarray:
    """Rearrange k*k channel groups into k-by-k spatial blocks.

    V[n, g, y, x] = U[n, g*k*k + k*(y mod k) + (x mod k), y//k, x//k]:
    the kernel is a Kronecker delta, so this is a bijective permutation of
    the elements, channel-group-major then row-major within each block.
    """
    u = as_tensor4(u)
    k = _check_ratio(k)
    n, c, h, w = u.shape
    if c % (k * k) != 0:
        raise ShapeError(f"channels {c} not divisible by k^2 = {k * k}")
    g = c // (k * k)
    v = u.reshape(n, g, k, k, h, w).transpose(0, 1, 4, 2, 5, 3).reshape(n, g, h * k, w * k)
    return np.ascontiguousarray(v)


def pixel_unshuffle(v: np.ndarray, k: int) -> np.ndarray:
    """Exact inverse of pixel_shuffle."""
    v = as_tensor4(v)
    k = _check_ratio(k)
    n, g, hh, ww = v.shape
    if hh % k != 0 or ww % k != 0:
        raise ShapeError(f"spatial dims ({hh}, {ww}) not divisible by k = {k}")
    h, w = hh // k, ww // k
    u = v.reshape(n, g, h, k, w, k).transpose(0, 1, 3, 5, 2, 4).reshape(n, g * k * k, h, w)
    return np.ascontiguousarray(u)


def corner_source_coords(h: int, w: int, k: int, corner: Corner):
    """Clipped integer source coordinates (xs, ys) the corner sampler reads."""
    roundx = np.floor if corner.x_mode == "floor" else np.ceil
    roundy = np.floor if corner.y_mode == "floor" else np.ceil
    xs = np.clip(roundx(np.arange(k * w, dtype=np.float64) / k), 0, w - 1).astype(np.intp)
    ys = np.clip(roundy(np.arange(k * h, dtype=np.float64) / k), 0, h - 1).astype(np.intp)
    return xs, ys


def corner_upsample(u: np.ndarray, k: int, corner: Corner) -> np.ndarray:
    """Upsample by k reading the floor/ceil lattice corner per the pattern."""
    u = as_tensor4(u)
    k = _check_ratio(k)
    n, c, h, w = u.shape
    xs, ys = corner_source_coords(h, w, k, corner)
    return np.ascontiguousarray(u[:, :, ys[:, None], xs[None, :]])
