"""Independent brute-force oracles shared by the unit and acceptance tests.

Everything here is written directly from the mathematical definitions, with
none of the gather/scatter shortcuts the library uses, so agreement is
meaningful. The exception is the reference code at the end: per-tap einsum
convs, a gather/np.add.at bilinear stage, np.pad zero padding, a
np.take_along_axis cross-entropy, an evaluate with one forward per loss
group that scores whole-split masks, a network-check closure that runs the
whole loss step per evaluation, and a regression candidate set built one
corner at a time: the byte baseline that the library's matmul,
phase-sliced, buffer-padding, flat-index, chunked, tallied, probe-reusing
and stacked paths must reproduce exactly. The scalar Box-Muller draw is the
reference for Rng.normals, and traced_peak is the one tracemalloc reading
that the memory bounds share.
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np

from lau.core import IGNORE, LabelMap, ShapeError
from lau.losses import CandidateSet, CoordinateMap, LossMap, cross_entropy_map, smooth_l1, smooth_l1_grad
from lau.net import loss_and_grads
from lau.samplers import (
    CORNERS,
    OffsetField,
    bilinear_upsample,
    corner_source_coords,
    corner_upsample,
    lau_source_coords,
)


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc counted while fn ran).

    Only blocks allocated during the call count, so inputs built before it
    do not, and the result is alive at the peak's reading.
    """
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


def scalar_normal(rng, mean=0.0, std=1.0):
    """One Box-Muller Gaussian from rng's next two uniforms, in scalar math:
    the reference that Rng.normals must equal draw for draw."""
    u1 = rng.uniform()
    u2 = rng.uniform()
    r = math.sqrt(-2.0 * math.log1p(-u1))
    return mean + std * (r * math.cos(2.0 * math.pi * u2))


def int64_labels(labels):
    """`labels` with its labels widened to int64, which LabelMap itself never stores below
    2**63 classes: the attributes the references read, for any class count."""
    wide = labels.labels.astype(np.int64)
    n, h, w = wide.shape
    return SimpleNamespace(labels=wide, num_classes=labels.num_classes, n=n, h=h, w=w, valid=wide != IGNORE)


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


def one_forward_evaluate(net, cfg, samples):
    """evaluate as one loss_and_grads forward per group of max(cfg.batch, 64)
    samples, each group's loss weighted by its count of valid labels."""
    loss_sum = 0.0
    loss_count = 0
    preds = []
    gts = []
    group = max(cfg.batch, 64)
    for lo in range(0, len(samples), group):
        chunk = samples[lo : lo + group]
        features = np.concatenate([s.features for s in chunk])
        labels = LabelMap(np.concatenate([s.labels.labels for s in chunk]), cfg.num_classes)
        scalar, logits = loss_and_grads(net, cfg, features, labels)[:2]
        nv = int(labels.valid.sum())
        loss_sum += scalar * nv
        loss_count += nv
        preds.append(np.argmax(logits, axis=1))
        gts.append(labels.labels)
    pred_map = LabelMap(np.concatenate(preds), cfg.num_classes)
    gt_map = LabelMap(np.concatenate(gts), cfg.num_classes)
    return {
        "loss": loss_sum / loss_count,
        "pixacc": mask_pix_acc(pred_map, gt_map),
        "miou": mask_miou(pred_map, gt_map, cfg.num_classes),
        "speckle": mask_speckle_rate(pred_map),
    }


def whole_step_fn(net, cfg, features, labels):
    """network_gradcheck's closure with no reuse: every evaluation sets each
    parameter from the flat vector (layer by layer, weights then bias) and
    runs one whole loss_and_grads step. Returns the loss only."""
    params = [arr for _, layer in net.named_layers() for arr in (layer.weights, layer.bias)]

    def fn(vec):
        pos = 0
        for arr in params:
            arr[...] = vec[pos : pos + arr.size].reshape(arr.shape)
            pos += arr.size
        return loss_and_grads(net, cfg, features, labels)[0]

    return fn


def _check_pair(pred, gt):
    if (pred.n, pred.h, pred.w) != (gt.n, gt.h, gt.w):
        raise ShapeError(
            f"prediction dims {(pred.n, pred.h, pred.w)} != ground truth {(gt.n, gt.h, gt.w)}"
        )


def mask_pix_acc(pred, gt):
    """Tally's pix_acc over the whole maps at once: one boolean mask of valid pixels."""
    _check_pair(pred, gt)
    valid = gt.valid
    total = int(valid.sum())
    if total == 0:
        raise ValueError("no valid pixels")
    return float((pred.labels[valid] == gt.labels[valid]).sum() / total)


def mask_miou(pred, gt, num_classes):
    """Tally's miou with one pair of class masks over the whole maps per class that occurs.

    The classes are Python ints taken from the maps, so any class count
    works; a class in neither map would add no IoU to the mean.
    """
    _check_pair(pred, gt)
    valid = gt.valid
    p = pred.labels[valid]
    g = gt.labels[valid]
    ious = []
    for cls in sorted(c for c in {*p.tolist(), *g.tolist()} if 0 <= c < num_classes):
        inter = int(((p == cls) & (g == cls)).sum())
        union = int(((p == cls) | (g == cls)).sum())
        if union:
            ious.append(inter / union)
    if not ious:
        raise ValueError("no classes present")
    return float(np.mean(ious))


def mask_speckle_rate(pred):
    """Tally's speckle_rate as one neighbor comparison over the whole map."""
    if pred.h < 3 or pred.w < 3:
        raise ShapeError("no interior pixels: need a map of at least 3x3")
    x = pred.labels
    mid = x[:, 1:-1, 1:-1]
    isolated = (
        (mid != x[:, :-2, 1:-1])
        & (mid != x[:, 2:, 1:-1])
        & (mid != x[:, 1:-1, :-2])
        & (mid != x[:, 1:-1, 2:])
    )
    return float(isolated.sum() / mid.size)


def _pool_mean(values, valid, r):
    """Mean over each r-by-r block's valid pixels, counted from this map's own mask."""
    n, hh, ww = values.shape
    vsum = values.reshape(n, hh // r, r, ww // r, r).sum(axis=(2, 4))
    count = valid.reshape(n, hh // r, r, ww // r, r).sum(axis=(2, 4))
    ok = count > 0
    return LossMap(np.where(ok, vsum / np.maximum(count, 1), 0.0), ok)


def per_corner_candidate_set(u, off, k, rest, labels, refined):
    """build_candidate_set as one corner -> bilinear -> CE -> pool pipeline per
    corner, each pooled mean counting its own valid pixels, and the corner
    coordinates copied out to full float64 maps."""
    n, c, h, w = u.shape
    losses = [_pool_mean(refined.values, refined.valid, rest)]
    for corner in CORNERS:
        lm = cross_entropy_map(bilinear_upsample(corner_upsample(u, k, corner), rest), labels)
        losses.append(_pool_mean(lm.values, lm.valid, rest))
    qx, qy = lau_source_coords(off, k)
    coords = [CoordinateMap(qx[:, 0], qy[:, 0])]
    for corner in CORNERS:
        xs, ys = corner_source_coords(h, w, k, corner)
        px = np.broadcast_to(xs[None, None, :], (n, k * h, k * w))
        py = np.broadcast_to(ys[None, :, None], (n, k * h, k * w))
        coords.append(CoordinateMap(np.ascontiguousarray(px, dtype=np.float64),
                                    np.ascontiguousarray(py, dtype=np.float64)))
    return CandidateSet(losses, coords)


def flat_index_theta_opt(cs):
    """select_theta_opt by flat indices into the stacked losses and coordinates."""
    best = np.stack([lm.values for lm in cs.losses]).argmin(axis=0)
    flat = best * best.size + np.arange(best.size).reshape(best.shape)
    px = np.stack([cm.px for cm in cs.coords]).ravel()
    py = np.stack([cm.py for cm in cs.coords]).ravel()
    return CoordinateMap(px[flat], py[flat])


def restacked_regression_terms(cs, gamma, lam, rest, labels):
    """regression_terms' loss map and both gradient terms, with the losses
    stacked again for the target and for the weight.

    Returns (loss values, loss valid, CE weights, offset gradient dx, dy).
    """
    theta_opt = flat_index_theta_opt(cs)
    stack = np.stack([lm.values for lm in cs.losses])
    w = np.where(stack[0] <= stack.min(axis=0), 1.0, 1.0 + lam)
    pred, main = cs.coords[0], cs.losses[0]
    valid = main.valid
    values = np.where(valid, gamma * smooth_l1(pred, theta_opt).values + main.values * w, 0.0)
    ns = int(valid.sum())
    n, sh, sw = cs.shape
    counts = labels.valid.reshape(n, sh, rest, sw, rest).sum(axis=(2, 4))
    per_block = np.where(valid, w / (ns * np.maximum(counts, 1)), 0.0)
    weights = np.repeat(np.repeat(per_block, rest, axis=1), rest, axis=2)
    weights = np.where(labels.valid, weights, 0.0)
    gx, gy = smooth_l1_grad(pred, theta_opt)
    scale = np.where(valid, gamma / ns, 0.0)
    return values, valid, weights, (gx * scale)[:, None], (gy * scale)[:, None]
