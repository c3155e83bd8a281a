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

Plain bilinear upsampling needs no gather. On the unshifted grid, output
column k*j + p (phase p, 0 <= p < k) always reads input columns j and j + 1
(clamped at the border), so the output splits into k phase slices
[..., p::k], each a weighted sum of the input and its one-column shift, the
periodic-shuffling view of sub-pixel convolution (Shi et al. 2016, arXiv
1609.05158). Rows work the same way. The phase weights are the fractions
_cells gives for those columns, so zero-offset lau still equals bilinear bit
for bit, and the adjoint adds each input entry's terms in the order a
scatter over the output would.

The geometry that depends only on shapes (the unshifted output grid, its
bilinear fractions and the corner samplers' clipped source indices) is
computed once per shape and served from a bounded cache as read-only
arrays, so a caller that tried to modify one gets an error rather than
corrupting later calls.
"""

from __future__ import annotations

import functools
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
        if not (np.isfinite(self.dx).all() and np.isfinite(self.dy).all()):
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
    zero-offset lau uses exactly the weights bilinear uses.
    """
    px = np.clip(px, 0.0, w - 1.0)
    py = np.clip(py, 0.0, h - 1.0)
    x0 = np.floor(px).astype(np.intp)
    y0 = np.floor(py).astype(np.intp)
    return x0, np.minimum(x0 + 1, w - 1), px - x0, y0, np.minimum(y0 + 1, h - 1), py - y0


# Per-shape geometry cache size: training touches a handful of shapes, the
# FD suites a few dozen.
_GEOMETRY_CACHE = 256


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=_GEOMETRY_CACHE)
def _grid(size: int, k: int) -> np.ndarray:
    """Unshifted source positions i/k of an output axis of `size` entries."""
    return _frozen(np.arange(size, dtype=np.float64) / k)


@functools.lru_cache(maxsize=_GEOMETRY_CACHE)
def _upsample_fractions(h: int, w: int, k: int):
    """_cells' (fx, fy) on the unshifted k-fold output grid, one 1-D array per axis."""
    _, _, fx, _, _, fy = _cells(_grid(k * w, k), _grid(k * h, k), h, w)
    return _frozen(fx), _frozen(fy)


def _along(axis: int, index):
    """An index expression applying `index` to one axis of a rank-4 array."""
    return (slice(None),) * axis + (index,)


def _phase_stage(a: np.ndarray, f: np.ndarray, k: int, axis: int) -> np.ndarray:
    """One separable bilinear stage, k-fold along axis 2 (rows) or 3 (columns).

    Output phase p, the slice [p::k] of the upsampled axis, blends each input
    line j with line j + 1 (the last line replicated) by the fraction
    f[k*j + p] from _upsample_fractions: the products a gather of _cells' taps
    would give, without the gather.
    """
    m = a.shape[axis]
    out = np.empty(a.shape[:axis] + (k * m,) + a.shape[axis + 1 :])
    nxt = np.concatenate([a[_along(axis, slice(1, None))], a[_along(axis, slice(-1, None))]], axis=axis)
    for p in range(k):
        fp = f[p::k].reshape((-1,) + (1,) * (3 - axis))
        out[_along(axis, slice(p, None, k))] = a * (1.0 - fp) + nxt * fp
    return out


def _phase_adjoint(d: np.ndarray, f: np.ndarray, k: int, axis: int) -> np.ndarray:
    """Adjoint of _phase_stage: the gradient d of its output, scattered back
    onto its input with the same fractions f.

    Each output's first tap (line j) takes d * (1 - f) and its second tap
    (line j + 1, clamped) d * f, formed one phase slice at a time, so no
    weighted copy of d is held whole. Input line j adds, in this order: its
    own k first-tap terms, the k second-tap terms of line j - 1, and on the
    last line its own k second-tap terms (the replicated border). That is
    the order of a scatter of every first-tap term in output order followed
    by every second-tap term, so each entry's sum rounds the same way.
    """
    m = d.shape[axis] // k
    f = f.reshape((-1,) + (1,) * (3 - axis))
    out = np.zeros(d.shape[:axis] + (m,) + d.shape[axis + 1 :])
    for p in range(k):
        out += d[_along(axis, slice(p, None, k))] * (1.0 - f[p::k])
    for p in range(k):
        inner = slice(p, (m - 1) * k, k)
        out[_along(axis, slice(1, None))] += d[_along(axis, inner)] * f[inner]
    for p in range(k):
        last = (m - 1) * k + p
        out[_along(axis, -1)] += d[_along(axis, last)] * f[last]
    return out


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
    fx, fy = _upsample_fractions(u.shape[2], u.shape[3], k)
    # Separable: columns first, then rows.
    return _phase_stage(_phase_stage(u, fx, k, 3), fy, k, 2)


def bilinear_upsample_backward(in_shape, k: int, dv: np.ndarray) -> np.ndarray:
    """Adjoint of bilinear_upsample: scatter dV back onto the input grid."""
    k = _check_ratio(k)
    n, c, h, w = in_shape
    dv = as_tensor4(dv)
    if dv.shape != (n, c, k * h, k * w):
        raise ShapeError(f"dv shape {dv.shape} does not match output ({n},{c},{k*h},{k*w})")
    if k == 1:
        return dv
    fx, fy = _upsample_fractions(h, w, k)
    return _phase_adjoint(_phase_adjoint(dv, fy, k, 2), fx, k, 3)


def lau_source_coords(off: OffsetField, k: int):
    """Raw source points (qx, qy) = (x/k + dx, y/k + dy), unclamped.

    Returns (n, m, h_out, w_out) arrays matching the offset-group layout.
    """
    gx, gy = _grid(off.w_out, k), _grid(off.h_out, k)
    return gx[None, None, None, :] + off.dx, gy[None, None, :, None] + off.dy


def _lau_taps(u: np.ndarray, off: OffsetField, k: int):
    """Validate one lau call and read its four bilinear taps, once.

    Returns (u, fx, fy, plane, pixels, taps): the validated input, the cell
    fractions of the clamped source points in the offset-group layout, each
    channel plane's offset into the raveled U, the (y0,x0), (y0,x1),
    (y1,x0), (y1,x1) taps' pixels within a plane, stacked (4, n, m, k*h,
    k*w), and the taps' values, each (n, c, k*h, k*w) for m = 1 and m = c
    alike. A tap's flat indices, plane + pixels[i], are built one tap at a
    time, so a forward pass holds at most one at full size.
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
    plane = np.arange(n * c).reshape(n, c, 1, 1) * (h * w)
    pixels = np.stack([row + col for row in (y0 * w, y1 * w) for col in (x0, x1)])
    flat = u.ravel()
    return u, fx, fy, plane, pixels, [flat[plane + p] for p in pixels]


def lau_forward(u: np.ndarray, off: OffsetField, k: int) -> np.ndarray:
    """Upsample by k, shifting each output pixel's source point by its offset.

    Source points are clamped into the grid before interpolation. Taps are
    blended x first, then y, as in bilinear_upsample, so an all-zero offset
    field reproduces it bit for bit.
    """
    _, fx, fy, _, _, t = _lau_taps(u, off, k)
    return (t[0] * (1.0 - fx) + t[1] * fx) * (1.0 - fy) + (t[2] * (1.0 - fx) + t[3] * fx) * fy


def lau_backward(u: np.ndarray, off: OffsetField, k: int, dv: np.ndarray):
    """Adjoints of lau_forward: (dU, dOffsetField) for upstream gradient dV.

    dU is the exact transpose of the linear-in-U forward map. The offset
    gradient uses the kernel's slope: for the x axis it is +1 where the
    source point sits left of a lattice column inside the kernel support,
    -1 where it sits right, and 0 at exact lattice hits, at support edges,
    and wherever the raw (unclamped) point fell outside the grid.
    """
    u, fx, fy, plane, pixels, t = _lau_taps(u, off, k)
    dv = as_tensor4(dv)
    if dv.shape != t[0].shape:
        raise ShapeError(f"dv shape {dv.shape} != output {t[0].shape}")

    # Kernel slope terms. fx == 0 on a column hit, where the symmetric
    # subgradient is 0, and on every point clamped from outside the grid;
    # the (fx > 0) mask also guarantees x1 = x0 + 1 is a genuine neighbor.
    sx = (t[1] - t[0]) * (1 - fy) + (t[3] - t[2]) * fy
    sy = (t[2] - t[0]) * (1 - fx) + (t[3] - t[1]) * fx
    del t  # their last read: the scatter's indices and values are each as large as all four
    gx = dv * sx * (fx > 0.0)
    gy = dv * sy * (fy > 0.0)
    del sx, sy
    if off.m == 1:
        gx, gy = gx.sum(axis=1, keepdims=True), gy.sum(axis=1, keepdims=True)

    # One scatter in tap order: bincount adds in input order, so each dU
    # entry sums its contributions exactly as four sequential passes would.
    weights = np.stack([(1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx])
    du = np.bincount((plane + pixels).ravel(), (dv * weights).ravel(), u.size).reshape(u.shape)
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


@functools.lru_cache(maxsize=_GEOMETRY_CACHE)
def _corner_axis(size: int, k: int, mode: str) -> np.ndarray:
    """Source indices of one k-fold output axis over `size` inputs, rounded by `mode`."""
    rounding = np.floor if mode == "floor" else np.ceil
    return _frozen(np.clip(rounding(_grid(k * size, k)), 0, size - 1).astype(np.intp))


def corner_source_coords(h: int, w: int, k: int, corner: Corner):
    """Clipped integer source coordinates (xs, ys) the corner sampler reads.

    Both are cached read-only arrays.
    """
    return _corner_axis(w, k, corner.x_mode), _corner_axis(h, k, corner.y_mode)


def corner_upsample(u: np.ndarray, k: int, corner: Corner) -> np.ndarray:
    """Upsample by k reading the floor/ceil lattice corner per the pattern."""
    u = as_tensor4(u)
    k = _check_ratio(k)
    n, c, h, w = u.shape
    xs, ys = corner_source_coords(h, w, k, corner)
    return np.ascontiguousarray(u[:, :, ys[:, None], xs[None, :]])
