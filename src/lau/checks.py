"""Prepared finite-difference check suites for every differentiable op.

Every op suite runs through one loop, `_suite`: it asks the op's `draw`
for a random instance, deterministically from a seed, and passes each
accepted instance to `gradcheck` at one point. Each instance's `fn` returns
the value and a thunk for the analytic gradient, so the finite-difference
probes evaluate only the forward pass; the backward pass runs once per
checked point, as it does in `network_gradcheck`.

The loss suites assemble their value and gradient with the same
`guided_terms` / `regression_terms` of `lau.losses` that the training step
calls, so they check the loss step's own assembly, not a copy of it.

A draw is rejected when its evaluation point sits too close to a kink:
integer lattice hits of the sampling kernel (its clamp edges are lattice
points too), leaky-ReLU zeros, loss-branch switches, or the smooth-L1
transition. Central differences are meaningless across those, and the
margins (1e-3 in coordinate space, 1e-4 in loss space) keep every probe on
one smooth piece. After 100 rejections in a row, of a case or of its
offset field, the suite raises RuntimeError instead of looping on.

Every op suite checks at FD_STEP to FD_TOLERANCE, the regime FD_FLOOR and
the margins are derived for. Probe scalars are summed exactly (math.fsum): a
float64 sum of a few hundred terms costs more than FD_TOLERANCE leaves.
"""

from __future__ import annotations

import math

import numpy as np

from .core import LabelMap, Rng
from .losses import (
    build_candidate_set,
    cross_entropy_backward,
    cross_entropy_map,
    guided_terms,
    reduce_loss,
    regression_terms,
    select_theta_opt,
)
from .net import (
    ConvLayer,
    GradcheckReport,
    TrainConfig,
    _bilinear_ce,
    _params,
    conv2d_backward,
    conv2d_forward,
    gradcheck,
    loss_and_grads,
    net_for,
    network_forward,
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
MAX_REJECTIONS = 100
FD_STEP = 1e-6
FD_TOLERANCE = 1e-5
# Smallest nonzero derivative a float64 central difference at FD_STEP can
# certify to FD_TOLERANCE: the two probe evaluations each carry ~1e-15
# rounding on the affected elements, i.e. ~1e-9 after dividing by 2 *
# FD_STEP. Components below the floor are pure noise measurements; exact
# zeros are fine (both probes then agree bit for bit).
FD_FLOOR = 2e-4


def _flat(*arrays) -> np.ndarray:
    return np.concatenate([a.ravel() for a in arrays])


def _split(vec: np.ndarray, *shapes) -> list:
    """Inverse of _flat: consecutive views of vec reshaped to `shapes`.

    Plain slicing: np.split costs about 5% of a small sampler probe.
    """
    parts, pos = [], 0
    for shape in shapes:
        size = math.prod(shape)
        parts.append(vec[pos : pos + size].reshape(shape))
        pos += size
    return parts


def _well_conditioned(*grads) -> bool:
    probe = np.abs(_flat(*grads))
    return not ((probe > 0.0) & (probe < FD_FLOOR)).any()


def _np_rng(seed: int) -> np.random.Generator:
    # numpy's generator is fine here: check inputs only need to be arbitrary,
    # not cross-language reproducible.
    return np.random.default_rng(seed)


def _suite(subject: str, draw, seed: int, cases: int) -> GradcheckReport:
    """FD-check `cases` accepted draws; draw(rng) gives (fn, point) or None."""
    rng = _np_rng(seed)
    failures = []
    max_rel = 0.0
    for _ in range(cases):
        for _attempt in range(MAX_REJECTIONS):
            case = draw(rng)
            if case is not None:
                break
        else:
            raise RuntimeError(f"{subject}: {MAX_REJECTIONS} draws in a row sat too close to a kink")
        rep = gradcheck(case[0], [case[1]], FD_STEP, FD_TOLERANCE)
        max_rel = max(max_rel, rep.max_rel_err)
        failures += rep.failures
    return GradcheckReport(subject, cases, max_rel, failures)


def _coords_safe(off: OffsetField, k: int) -> bool:
    for q in lau_source_coords(off, k):
        if (np.abs(q - np.round(q)) <= COORD_MARGIN).any():
            return False
    return True


def _safe_offsets(rng, n, m, h, w, k) -> OffsetField:
    shape = (n, m, k * h, k * w)
    for _attempt in range(MAX_REJECTIONS):
        off = OffsetField(rng.uniform(-1.5, 1.5, shape), rng.uniform(-1.5, 1.5, shape))
        if _coords_safe(off, k):
            return off
    raise RuntimeError(f"{MAX_REJECTIONS} offset draws in a row sat too close to a kink")


def _lau_draw(rng):
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
    if not _well_conditioned(du0, doff0.dx, doff0.dy):
        return None

    def fn(vec):
        uu, dx, dy = _split(vec, u.shape, off.dx.shape, off.dy.shape)
        o = OffsetField(dx, dy)

        def grad():
            du, doff = lau_backward(uu, o, k, dv)
            return _flat(du, doff.dx, doff.dy)

        return math.fsum((lau_forward(uu, o, k) * dv).ravel()), grad

    return fn, _flat(u, off.dx, off.dy)


def lau_gradcheck(seed: int = 0, cases: int = 100) -> GradcheckReport:
    """Check dU and the offset gradients of the refined sampler against FD."""
    return _suite("lau_backward", _lau_draw, seed, cases)


def _conv_draw(rng):
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
    if not _well_conditioned(*conv2d_backward(ConvLayer(cin, cout, kk, w, b), x, dy)):
        return None

    def fn(vec):
        xv, wv, bv = _split(vec, x.shape, w.shape, b.shape)
        layer = ConvLayer(cin, cout, kk, wv, bv)
        val = math.fsum((conv2d_forward(layer, xv) * dy).ravel())
        return val, lambda: _flat(*conv2d_backward(layer, xv, dy))

    return fn, _flat(x, w, b)


def conv_gradcheck(seed: int = 0, cases: int = 20) -> GradcheckReport:
    """Check conv input/weight/bias gradients against FD."""
    return _suite("conv2d_backward", _conv_draw, seed, cases)


def _guided_draw(rng):
    lam = 0.3
    n, c, hh, ww = 1, int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
    logits = rng.normal(size=(n, c, hh, ww))
    aux_logits = rng.normal(size=(n, c, hh, ww))
    raw = rng.integers(-1, c, size=(n, hh, ww))
    if (raw < 0).all():
        return None
    labels = LabelMap(raw, c)
    ce = cross_entropy_map(logits, labels)
    ce_aux = cross_entropy_map(aux_logits, labels)
    if not _guided_margins_ok(ce, ce_aux, labels):
        return None

    def fn(vec):
        lg = vec.reshape(logits.shape)
        out, weights = guided_terms(cross_entropy_map(lg, labels), ce_aux, lam)
        return reduce_loss(out), lambda: cross_entropy_backward(lg, labels, weights()).ravel()

    return fn, logits.ravel()


def guided_loss_gradcheck(seed: int = 0, cases: int = 20) -> GradcheckReport:
    """FD check of the guided loss gradient w.r.t. the logits.

    The comparison weight is constant on each smooth piece, so away from
    switching points the analytic gradient is weight * plain CE gradient.
    """
    return _suite("offset_guided_loss", _guided_draw, seed, cases)


def _guided_margins_ok(ce, ce_aux, labels) -> bool:  # the guided weight switches where the two CEs cross
    return not (np.abs(ce.values - ce_aux.values)[labels.valid] <= BRANCH_MARGIN).any()


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


def _regression_draw(rng):
    gamma, lam = 0.1, 0.3
    n, c, hh, ww = 1, int(rng.integers(2, 5)), 2, 2
    k = int(rng.choice([1, 2]))
    u = rng.normal(size=(n, c, hh, ww))
    labels = LabelMap(rng.integers(0, c, size=(n, k * hh, k * ww)), c)
    off = _safe_offsets(rng, n, 1, hh, ww, k)
    refined = cross_entropy_map(lau_forward(u, off, k), labels)
    if not _candidate_margins_ok(build_candidate_set(u, off, k, 1, labels, refined)):
        return None

    def fn(vec):
        o = OffsetField(*_split(vec, off.dx.shape, off.dy.shape))
        # the labels sit at the sampler's resolution (rest = 1), so its
        # output is the refined logits, shared by the value and the gradient
        v = lau_forward(u, o, k)
        out, grad_terms = regression_terms(
            build_candidate_set(u, o, k, 1, labels, cross_entropy_map(v, labels)), gamma, lam)

        def grad():
            weights, direct = grad_terms(1, labels)
            _, doff = lau_backward(u, o, k, cross_entropy_backward(v, labels, weights))
            return _flat(doff.dx + direct.dx, doff.dy + direct.dy)

        return reduce_loss(out), grad

    return fn, _flat(off.dx, off.dy)


def regression_loss_gradcheck(seed: int = 0, cases: int = 20) -> GradcheckReport:
    """FD check of the regression loss gradient w.r.t. the offsets.

    Gradient reaches the offsets on two paths: through the refined sampler
    into the weighted cross-entropy term, and directly through the
    smooth-L1 pull toward the selected candidate.
    """
    return _suite("regression_loss", _regression_draw, seed, cases)


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
        net = net_for(cfg, Rng(seed * 1000 + attempt))
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
        if not _coords_safe(cache["off"], cfg.lau_ratio):
            continue
        if loss_kind == "off":
            ce_aux = _bilinear_ce(cache["u"], cfg.lau_ratio, cache["rest"], labels)
            if not _guided_margins_ok(cross_entropy_map(logits, labels), ce_aux, labels):
                continue
        if loss_kind == "reg":
            cs = build_candidate_set(cache["u"], cache["off"], cfg.lau_ratio, cache["rest"], labels,
                                     cross_entropy_map(logits, labels))
            if not _candidate_margins_ok(cs):
                continue
        return net, cfg, features, labels
    raise RuntimeError(f"no margin-safe instance found for seed {seed} / {loss_kind}")


def network_gradcheck(seed: int = 0, loss_kind: str = "ce") -> GradcheckReport:
    """End-to-end FD check over every trainable parameter of the toy net."""
    net, cfg, features, labels = _network_instance(seed, loss_kind)
    params = _params(net)

    def fn(vec):
        for arr, part in zip(params, _split(vec, *(p.shape for p in params))):
            arr[...] = part
        scalar, _, backward = loss_and_grads(net, cfg, features, labels)
        return scalar, lambda: _flat(*backward())

    rep = gradcheck(fn, [_flat(*params)], h=1e-5, tolerance=1e-4)
    rep.subject = f"network/{loss_kind}"
    return rep


def standard_suite(seed: int = 0):
    """The suite behind the gradcheck command: sampler, conv, and both losses."""
    return [lau_gradcheck(seed), conv_gradcheck(seed), guided_loss_gradcheck(seed), regression_loss_gradcheck(seed)]
