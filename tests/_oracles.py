"""Independent brute-force oracles shared by the unit and acceptance tests.

Everything here is written directly from the mathematical definitions, with
none of the gather/scatter shortcuts the library uses, so agreement is
meaningful.
"""

import math

import numpy as np

from lau.samplers import OffsetField


def oracle_kernel_sum(u, k, dx=None, dy=None, m=1):
    """Triangular-kernel sum over every source pixel at the (possibly
    shifted, then clamped) source point."""
    n, c, h, w = u.shape
    out = np.zeros((n, c, k * h, k * w))
    for ni in range(n):
        for ci in range(c):
            g = 0 if m == 1 else ci
            for y in range(k * h):
                for x in range(k * w):
                    qx = x / k + (dx[ni, g, y, x] if dx is not None else 0.0)
                    qy = y / k + (dy[ni, g, y, x] if dy is not None else 0.0)
                    px = min(max(qx, 0.0), w - 1.0)
                    py = min(max(qy, 0.0), h - 1.0)
                    acc = 0.0
                    for jy in range(h):
                        for jx in range(w):
                            acc += (
                                max(0.0, 1.0 - abs(jx - px))
                                * max(0.0, 1.0 - abs(jy - py))
                                * u[ni, ci, jy, jx]
                            )
                    out[ni, ci, y, x] = acc
    return out


def oracle_pixel_shuffle(u, k):
    """Per-element enumeration of the delta-kernel form (slow, tiny inputs)."""
    n, c, h, w = u.shape
    g = c // (k * k)
    out = np.zeros((n, g, h * k, w * k))
    for ni in range(n):
        for gi in range(g):
            for y in range(h * k):
                for x in range(w * k):
                    hits = []
                    for ci in range(c):
                        for jy in range(h):
                            for jx in range(w):
                                if (
                                    ci == gi * k * k + k * (y % k) + (x % k)
                                    and jy == y // k
                                    and jx == x // k
                                ):
                                    hits.append(u[ni, ci, jy, jx])
                    assert len(hits) == 1
                    out[ni, gi, y, x] = hits[0]
    return out


def oracle_pixel_shuffle_delta_tensor(u, k):
    """Materialize the full 0/1 delta kernel over all (output, input) index
    pairs and contract it with the input; the vectorized form of the same
    enumeration, fast enough to cover every shape in the acceptance grid."""
    n, c, h, w = u.shape
    g = c // (k * k)
    gi = np.arange(g)[:, None, None, None, None, None]
    y = np.arange(h * k)[None, :, None, None, None, None]
    x = np.arange(w * k)[None, None, :, None, None, None]
    ci = np.arange(c)[None, None, None, :, None, None]
    jy = np.arange(h)[None, None, None, None, :, None]
    jx = np.arange(w)[None, None, None, None, None, :]
    kernel = (
        (ci == gi * k * k + k * (y % k) + (x % k)) & (jy == y // k) & (jx == x // k)
    ).astype(np.float64)
    return np.einsum("gyxcij,ncij->ngyx", kernel, u)


def oracle_corner(u, k, corner):
    """Indicator-kernel evaluation with explicit floor/ceil and clipping."""
    n, c, h, w = u.shape
    out = np.zeros((n, c, k * h, k * w))
    fx = math.floor if corner.x_mode == "floor" else math.ceil
    fy = math.floor if corner.y_mode == "floor" else math.ceil
    for ni in range(n):
        for ci in range(c):
            for y in range(k * h):
                for x in range(k * w):
                    jx = min(max(fx(x / k), 0), w - 1)
                    jy = min(max(fy(y / k), 0), h - 1)
                    out[ni, ci, y, x] = u[ni, ci, jy, jx]
    return out


def oracle_guided(l_vals, aux_vals, lam):
    out = np.zeros_like(l_vals)
    for idx in np.ndindex(l_vals.shape):
        weight = 1.0 if l_vals[idx] < aux_vals[idx] else 1.0 + lam
        out[idx] = l_vals[idx] * weight
    return out


def oracle_smooth_l1_pair(dx, dy, beta=1.0):
    def huber(d):
        return 0.5 * d * d / beta if abs(d) < beta else abs(d) - 0.5 * beta

    return huber(dx) + huber(dy)


def oracle_regression(cs, gamma, lam):
    stack = np.stack([lm.values for lm in cs.losses])
    out = np.zeros(cs.shape)
    for idx in np.ndindex(cs.shape):
        column = stack[(slice(None),) + idx]
        best = 0
        for j in range(5):
            if column[j] < column[best]:
                best = j
        tx = cs.coords[best].px[idx]
        ty = cs.coords[best].py[idx]
        sl1 = oracle_smooth_l1_pair(cs.coords[0].px[idx] - tx, cs.coords[0].py[idx] - ty)
        weight = 1.0 if all(column[0] <= column[j] for j in range(5)) else 1.0 + lam
        out[idx] = gamma * sl1 + column[0] * weight
    return out


def random_safe_offsets(rng, n, m, h, w, k, spread=1.5, margin=1e-3):
    """Offsets whose source points stay `margin` away from every kernel kink
    (integer lattice coordinates) and from the clamp boundaries."""
    shape = (n, m, k * h, k * w)
    gx = np.arange(k * w) / k
    gy = np.arange(k * h) / k
    while True:
        dx = rng.uniform(-spread, spread, shape)
        dy = rng.uniform(-spread, spread, shape)
        qx = gx[None, None, None, :] + dx
        qy = gy[None, None, :, None] + dy
        ok = True
        for q, hi in ((qx, w - 1.0), (qy, h - 1.0)):
            ok &= bool((np.abs(q - np.round(q)) > margin).all())
            ok &= bool((np.abs(q) > margin).all() and (np.abs(q - hi) > margin).all())
        if ok:
            return OffsetField(dx, dy)


def assert_adjoint(x, ax, y, aty):
    """Dot-product test <Ax, y> = <x, A^T y> for a linear map A.

    Both sides sum the same products in a different order, so they agree up
    to rounding: the bound is 1e-12 * |Ax| * |y|.
    """
    lhs = float((ax * y).sum())
    rhs = float((x * aty).sum())
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(ax) * np.linalg.norm(y)
