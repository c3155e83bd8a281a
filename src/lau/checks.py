"""Prepared finite-difference check suites for every differentiable op.

Each case generator draws random instances deterministically from a seed
and rejects draws whose evaluation point sits too close to a kink: integer
lattice hits of the sampling kernel, clamp boundaries, leaky-ReLU zeros,
loss-branch switches, or the smooth-L1 transition. Central differences are
meaningless across those, and the margins (default 1e-3 in coordinate
space, 1e-4 in loss space) keep every probe on one smooth piece.

Probe scalars are reduced with exact summation (math.fsum): at step 1e-6
ordinary float64 accumulation over a few hundred terms already costs more
relative error than the 1e-5 tolerance leaves room for.
"""

from __future__ import annotations

import math

import numpy as np

from .core import LabelMap, Rng
from .losses import (
    build_candidate_set,
    cross_entropy_backward,
    cross_entropy_map,
    guided_weight,
    offset_guided_loss,
    reduce_loss,
    select_theta_opt,
)
from .net import (
    ConvLayer,
    GradcheckReport,
    TrainConfig,
    _guided_terms,
    _regression_terms,
    build_net,
    conv2d_backward,
    conv2d_forward,
    flatten_params,
    gradcheck,
    network_forward,
    network_loss_fn,
)
from .samplers import OffsetField, lau_backward, lau_forward, lau_source_coords

__all__ = [
    "conv_gradcheck",
    "guided_loss_gradcheck",
    "lau_gradcheck",
    "network_gradcheck",
    "regression_loss_gradcheck",
    "standard_suite",
]

COORD_MARGIN = 1e-3
BRANCH_MARGIN = 1e-4
# Smallest nonzero derivative a float64 central difference at h=1e-6 can
# certify to 1e-5 relative error: the two probe evaluations each carry
# ~1e-15 rounding on the affected elements, i.e. ~1e-9 after dividing by
# 2h. Components below the floor are pure noise measurements; exact zeros
# are fine (both probes then agree bit for bit).
FD_FLOOR = 2e-4


def _well_conditioned(*grads) -> bool:
    probe = np.abs(np.concatenate([g.ravel() for g in grads]))
    return not ((probe > 0.0) & (probe < FD_FLOOR)).any()


def _np_rng(seed: int) -> np.random.Generator:
    # numpy's generator is fine here: check inputs only need to be arbitrary,
    # not cross-language reproducible.
    return np.random.default_rng(seed)


def _coords_safe(u_shape, off: OffsetField, k: int, margin: float = COORD_MARGIN) -> bool:
    _, _, h, w = u_shape
    qx, qy = lau_source_coords(h, w, off, k)
    for q, hi in ((qx, w - 1.0), (qy, h - 1.0)):
        if (np.abs(q - np.round(q)) <= margin).any():
            return False
        if (np.abs(q) <= margin).any() or (np.abs(q - hi) <= margin).any():
            return False
    return True


def _safe_offsets(rng, n, m, h, w, k, spread=1.5, margin: float = COORD_MARGIN) -> OffsetField:
    shape = (n, m, k * h, k * w)
    while True:
        off = OffsetField(rng.uniform(-spread, spread, shape), rng.uniform(-spread, spread, shape))
        if _coords_safe((n, 1, h, w), off, k, margin):
            return off


def lau_gradcheck(seed: int = 0, cases: int = 100, h: float = 1e-6, tolerance: float = 1e-5) -> GradcheckReport:
    """Check dU and the offset gradients of the refined sampler against FD."""
    rng = _np_rng(seed)
    failures = []
    max_rel = 0.0
    for _ in range(cases):
        for _attempt in range(100):
            n = int(rng.integers(1, 3))
            c = int(rng.integers(1, 4))
            hh = int(rng.integers(2, 4))
            ww = int(rng.integers(2, 4))
            k = int(rng.choice([1, 2, 3, 4]))
            m = c if rng.random() < 0.3 else 1
            u = rng.normal(size=(n, c, hh, ww))
            off = _safe_offsets(rng, n, m, hh, ww, k)
            dv = rng.normal(size=(n, c, k * hh, k * ww))
            du0, doff0 = lau_backward(u, off, k, dv)
            if _well_conditioned(du0, doff0.dx, doff0.dy):
                break
        else:
            raise RuntimeError("no well-conditioned sampler case found")
        nu = u.size
        ndx = off.dx.size

        def fn(vec):
            uu = vec[:nu].reshape(u.shape)
            o = OffsetField(
                vec[nu : nu + ndx].reshape(off.dx.shape),
                vec[nu + ndx :].reshape(off.dy.shape),
            )
            val = math.fsum((lau_forward(uu, o, k) * dv).ravel())
            du, doff = lau_backward(uu, o, k, dv)
            return val, np.concatenate([du.ravel(), doff.dx.ravel(), doff.dy.ravel()])

        point = np.concatenate([u.ravel(), off.dx.ravel(), off.dy.ravel()])
        rep = gradcheck(fn, [point], h=h, tolerance=tolerance)
        max_rel = max(max_rel, rep.max_rel_err)
        failures += rep.failures
    return GradcheckReport("lau_backward", cases, max_rel, failures)


def conv_gradcheck(seed: int = 0, cases: int = 20, h: float = 1e-6, tolerance: float = 1e-5) -> GradcheckReport:
    """Check conv input/weight/bias gradients against FD."""
    rng = _np_rng(seed)
    failures = []
    max_rel = 0.0
    for _ in range(cases):
        for _attempt in range(100):
            n = int(rng.integers(1, 3))
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            kk = int(rng.choice([1, 3]))
            hh = int(rng.integers(2, 5))
            ww = int(rng.integers(2, 5))
            x = rng.normal(size=(n, cin, hh, ww))
            w = rng.normal(size=(cout, cin, kk, kk))
            b = rng.normal(size=cout)
            dy = rng.normal(size=(n, cout, hh, ww))
            layer0 = ConvLayer(cin, cout, kk, w, b)
            dx0, dw0, db0 = conv2d_backward(layer0, x, dy)
            if _well_conditioned(dx0, dw0, db0):
                break
        else:
            raise RuntimeError("no well-conditioned conv case found")
        nx, nw = x.size, w.size

        def fn(vec):
            layer = ConvLayer(
                cin, cout, kk,
                vec[nx : nx + nw].reshape(w.shape),
                vec[nx + nw :],
            )
            xx = vec[:nx].reshape(x.shape)
            val = math.fsum((conv2d_forward(layer, xx) * dy).ravel())
            dx, dw, db = conv2d_backward(layer, xx, dy)
            return val, np.concatenate([dx.ravel(), dw.ravel(), db.ravel()])

        point = np.concatenate([x.ravel(), w.ravel(), b.ravel()])
        rep = gradcheck(fn, [point], h=h, tolerance=tolerance)
        max_rel = max(max_rel, rep.max_rel_err)
        failures += rep.failures
    return GradcheckReport("conv2d_backward", cases, max_rel, failures)


def guided_loss_gradcheck(seed: int = 0, cases: int = 20, h: float = 1e-6, tolerance: float = 1e-5) -> GradcheckReport:
    """FD check of the guided loss gradient w.r.t. the logits.

    The comparison weight is constant on each smooth piece, so away from
    switching points the analytic gradient is weight * plain CE gradient.
    """
    rng = _np_rng(seed)
    lam = 0.3
    failures = []
    max_rel = 0.0
    done = 0
    while done < cases:
        n, c, hh, ww = 1, int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
        logits = rng.normal(size=(n, c, hh, ww))
        aux_logits = rng.normal(size=(n, c, hh, ww))
        raw = rng.integers(-1, c, size=(n, hh, ww))
        if (raw < 0).all():
            continue
        labels = LabelMap(raw, c)
        ce = cross_entropy_map(logits, labels)
        ce_aux = cross_entropy_map(aux_logits, labels)
        gap = np.abs(ce.values - ce_aux.values)[labels.valid]
        if (gap <= BRANCH_MARGIN).any():
            continue
        done += 1
        nv = int(labels.valid.sum())

        def fn(vec):
            lg = vec.reshape(logits.shape)
            m = cross_entropy_map(lg, labels)
            lam_w = guided_weight(m, ce_aux, lam)
            grad = cross_entropy_backward(lg, labels, np.where(labels.valid, lam_w / nv, 0.0))
            return reduce_loss(offset_guided_loss(m, ce_aux, lam)), grad.ravel()

        rep = gradcheck(fn, [logits.ravel()], h=h, tolerance=tolerance)
        max_rel = max(max_rel, rep.max_rel_err)
        failures += rep.failures
    return GradcheckReport("offset_guided_loss", cases, max_rel, failures)


def _candidate_margins_ok(cs) -> bool:
    # Only the refined entry moves under perturbation; the corner entries
    # are constants. The one branch that must not flip is the refined loss
    # crossing the best corner loss (it selects both the weight and the
    # smooth-L1 target), plus the smooth-L1 transition itself.
    valid = cs.losses[0].valid
    stack = cs.loss_stack()
    others = stack[1:].min(axis=0)
    if ((np.abs(stack[0] - others) <= BRANCH_MARGIN) & valid).any():
        return False
    theta = select_theta_opt(cs)
    for d in (cs.coords[0].px - theta.px, cs.coords[0].py - theta.py):
        if ((np.abs(np.abs(d) - 1.0) <= COORD_MARGIN) & valid).any():
            return False
    return True


def regression_loss_gradcheck(seed: int = 0, cases: int = 20, h: float = 1e-6, tolerance: float = 1e-5) -> GradcheckReport:
    """FD check of the regression loss gradient w.r.t. the offsets.

    Gradient reaches the offsets on two paths: through the refined sampler
    into the weighted cross-entropy term, and directly through the
    smooth-L1 pull toward the selected candidate.
    """
    rng = _np_rng(seed)
    gamma, lam = 0.1, 0.3
    failures = []
    max_rel = 0.0
    done = 0
    while done < cases:
        n, c, hh, ww = 1, int(rng.integers(2, 5)), 2, 2
        k = int(rng.choice([1, 2]))
        u = rng.normal(size=(n, c, hh, ww))
        labels = LabelMap(rng.integers(0, c, size=(n, k * hh, k * ww)), c)
        off = _safe_offsets(rng, n, 1, hh, ww, k)
        cs = build_candidate_set(u, off, k, lambda v: v, labels)
        if not _candidate_margins_ok(cs):
            continue
        done += 1
        ndx = off.dx.size
        shape = off.dx.shape

        def fn(vec):
            o = OffsetField(vec[:ndx].reshape(shape), vec[ndx:].reshape(shape))
            out, weights, direct, _ = _regression_terms(u, o, k, 1, labels, gamma, lam)
            dlogits = cross_entropy_backward(lau_forward(u, o, k), labels, weights)
            _, doff = lau_backward(u, o, k, dlogits)
            ddx = doff.dx + direct.dx
            ddy = doff.dy + direct.dy
            return reduce_loss(out), np.concatenate([ddx.ravel(), ddy.ravel()])

        point = np.concatenate([off.dx.ravel(), off.dy.ravel()])
        rep = gradcheck(fn, [point], h=h, tolerance=tolerance)
        max_rel = max(max_rel, rep.max_rel_err)
        failures += rep.failures
    return GradcheckReport("regression_loss", cases, max_rel, failures)


def _toy_config(loss_kind: str, seed: int) -> TrainConfig:
    return TrainConfig(
        num_classes=3,
        in_channels=3,
        decoder_channels=6,
        reduced_channels=5,
        offset_groups=1,
        slope=0.1,
        lau_ratio=2,
        total_upsample=4,
        upsampler="lau",
        loss_kind=loss_kind,
        lam=0.3,
        gamma=0.1,
        base_lr=0.001,
        power=0.9,
        momentum=0.9,
        weight_decay=1e-4,
        epochs=1,
        batch=1,
        seed=seed,
    )


def _network_instance(seed: int, loss_kind: str):
    """A 4x4-input instance whose evaluation point clears every kink margin."""
    cfg = _toy_config(loss_kind, seed)
    for attempt in range(200):
        rng = _np_rng(seed * 1000 + attempt)
        net = build_net(
            cfg.in_channels, cfg.num_classes, cfg.decoder_channels, cfg.reduced_channels,
            cfg.lau_ratio, cfg.total_upsample, cfg.offset_groups, cfg.slope,
            Rng(seed * 1000 + attempt), cfg.weight_decay,
        )
        # randomize the zero-initialized expand layer: gradcheck needs live,
        # generic offsets rather than the degenerate starting state
        net.predictor.expand.weights[...] = rng.normal(scale=0.5, size=net.predictor.expand.weights.shape)
        net.predictor.expand.bias[...] = rng.normal(scale=0.5, size=net.predictor.expand.bias.shape)
        features = rng.normal(size=(1, cfg.in_channels, 4, 4))
        # sparse supervision: every ignored pixel is one fewer place where a
        # loss-branch tie could sit inside the finite-difference step
        full = rng.integers(0, cfg.num_classes, size=(1, 4 * cfg.total_upsample, 4 * cfg.total_upsample))
        keep = rng.random(full.shape) < 0.15
        if keep.sum() < 8:
            continue
        labels = LabelMap(np.where(keep, full, -1), cfg.num_classes)
        logits, cache = network_forward(net, features)
        pre_acts = [cache["a1"], cache["a2"], cache["pcache"][0]]
        if any((np.abs(a) <= BRANCH_MARGIN).any() for a in pre_acts):
            continue
        if not _coords_safe(cache["u"].shape, cache["off"], cfg.lau_ratio):
            continue
        if loss_kind == "off":
            ce = cross_entropy_map(logits, labels)
            _, _, ce_aux = _guided_terms(cache["u"], cfg.lau_ratio, cache["rest"], ce, labels, cfg.lam)
            if (np.abs(ce.values - ce_aux.values)[labels.valid] <= BRANCH_MARGIN).any():
                continue
        if loss_kind == "reg":
            *_, cs = _regression_terms(cache["u"], cache["off"], cfg.lau_ratio, cache["rest"],
                                       labels, cfg.gamma, cfg.lam)
            if not _candidate_margins_ok(cs):
                continue
        return net, cfg, features, labels
    raise RuntimeError(f"no margin-safe instance found for seed {seed} / {loss_kind}")


def network_gradcheck(seed: int = 0, loss_kind: str = "ce", h: float = 1e-5, tolerance: float = 1e-4) -> GradcheckReport:
    """End-to-end FD check over every trainable parameter of the toy net."""
    net, cfg, features, labels = _network_instance(seed, loss_kind)
    fn = network_loss_fn(net, cfg, features, labels)
    point = flatten_params(net)
    rep = gradcheck(fn, [point], h=h, tolerance=tolerance)
    rep.subject = f"network/{loss_kind}"
    return rep


def standard_suite(seed: int = 0, h: float = 1e-6, tolerance: float = 1e-5):
    """The suite behind the gradcheck command: sampler, conv, and both losses."""
    return [
        lau_gradcheck(seed, cases=100, h=h, tolerance=tolerance),
        conv_gradcheck(seed, cases=20, h=h, tolerance=tolerance),
        guided_loss_gradcheck(seed, cases=20, h=h, tolerance=tolerance),
        regression_loss_gradcheck(seed, cases=20, h=h, tolerance=tolerance),
    ]
