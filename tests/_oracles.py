"""Independent brute-force oracles shared by the unit and acceptance tests.

Everything here is written directly from the mathematical definitions, with
none of the gather/scatter shortcuts the library uses, so agreement is
meaningful. The exception is the reference kernels at the end: per-tap
einsum convs, a gather/np.add.at bilinear stage, np.pad zero padding and a
np.take_along_axis cross-entropy, the byte baseline that the library's
matmul, phase-sliced, buffer-padding and flat-index paths must reproduce
exactly.
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


# ---------------------------------------------------------------------------
# reference kernels: the byte baseline of the library's conv, bilinear and CE paths

def np_pad_reference(x, kernel):
    """Zero padding by (kernel - 1) // 2 on both spatial axes, through np.pad."""
    pad = (kernel - 1) // 2
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x


def take_along_axis_cross_entropy(logits, labels):
    """Per-pixel CE values with the true class picked by np.take_along_axis."""
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    safe = np.where(labels.valid, labels.labels, 0)
    picked = np.take_along_axis(z, safe[:, None], axis=1)[:, 0]
    return np.maximum(np.where(labels.valid, lse - picked, 0.0), 0.0)


def put_along_axis_cross_entropy_backward(logits, labels, weights):
    """Weighted CE gradient with the true-class one-hot set by np.put_along_axis."""
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    softmax = ez / ez.sum(axis=1, keepdims=True)
    safe = np.where(labels.valid, labels.labels, 0)
    onehot = np.zeros_like(logits)
    np.put_along_axis(onehot, safe[:, None], 1.0, axis=1)
    return (softmax - onehot) * np.where(labels.valid, weights, 0.0)[:, None]


def einsum_conv2d_forward(layer, x):
    """Per-tap einsum cross-correlation (zero padding (kernel - 1) // 2)."""
    n, cin, h, w = x.shape
    kk = layer.kernel
    xp = np_pad_reference(x, kk)
    out = np.zeros((n, layer.out_ch, h, w))
    for dy in range(kk):
        for dx in range(kk):
            out += np.einsum("oc,nchw->nohw", layer.weights[:, :, dy, dx],
                             xp[:, :, dy : dy + h, dx : dx + w], optimize=True)
    out += layer.bias[None, :, None, None]
    return out


def einsum_conv2d_backward(layer, x, dy_out):
    """Per-tap einsum adjoints of einsum_conv2d_forward: (dX, dW, db)."""
    n, cin, h, w = x.shape
    kk = layer.kernel
    pad = (kk - 1) // 2
    xp = np_pad_reference(x, kk)
    db = dy_out.sum(axis=(0, 2, 3))
    dw = np.zeros_like(layer.weights)
    dxp = np.zeros_like(xp)
    for dy in range(kk):
        for dx in range(kk):
            patch = xp[:, :, dy : dy + h, dx : dx + w]
            dw[:, :, dy, dx] = np.einsum("nohw,nchw->oc", dy_out, patch, optimize=True)
            dxp[:, :, dy : dy + h, dx : dx + w] += np.einsum(
                "oc,nohw->nchw", layer.weights[:, :, dy, dx], dy_out, optimize=True)
    return dxp[:, :, pad : pad + h, pad : pad + w], dw, db


def _reference_cells(size, k):
    """Clamped source points of the k-fold grid on one axis: (i0, i1, frac)."""
    p = np.clip(np.arange(k * size, dtype=np.float64) / k, 0.0, size - 1.0)
    i0 = np.floor(p).astype(np.intp)
    return i0, np.minimum(i0 + 1, size - 1), p - i0


def gather_bilinear_upsample(u, k):
    """Separable bilinear upsampling by fancy-index gathers, columns first."""
    if k == 1:
        return u
    n, c, h, w = u.shape
    x0, x1, fx = _reference_cells(w, k)
    y0, y1, fy = _reference_cells(h, k)
    t = u[:, :, :, x0] * (1.0 - fx) + u[:, :, :, x1] * fx
    return t[:, :, y0, :] * (1.0 - fy)[:, None] + t[:, :, y1, :] * fy[:, None]


def add_at_bilinear_upsample_backward(in_shape, k, dv):
    """Adjoint of gather_bilinear_upsample by np.add.at scatters, rows first."""
    if k == 1:
        return dv
    n, c, h, w = in_shape
    x0, x1, fx = _reference_cells(w, k)
    y0, y1, fy = _reference_cells(h, k)
    dt = np.zeros((n, c, h, k * w))
    np.add.at(dt, (slice(None), slice(None), y0), dv * (1.0 - fy)[:, None])
    np.add.at(dt, (slice(None), slice(None), y1), dv * fy[:, None])
    du = np.zeros(tuple(in_shape))
    np.add.at(du.transpose(3, 0, 1, 2), x0, (dt * (1.0 - fx)).transpose(3, 0, 1, 2))
    np.add.at(du.transpose(3, 0, 1, 2), x1, (dt * fx).transpose(3, 0, 1, 2))
    return du
