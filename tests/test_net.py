"""Network tests: conv adjoints, offset branch, schedule, SGD, training loop."""

import dataclasses
import hashlib
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lau.net
from lau.checks import (
    _toy_config,
    conv_gradcheck,
    guided_loss_gradcheck,
    network_gradcheck,
    regression_loss_gradcheck,
)
from lau.cli import ExperimentConfig
from lau.core import IGNORE, ConfigError, LabelMap, Rng, ShapeError
from lau.net import (
    ConvLayer,
    OffsetPredictor,
    SegNet,
    TrainConfig,
    build_net,
    conv2d_backward,
    conv2d_forward,
    evaluate,
    gradcheck,
    leaky_relu,
    leaky_relu_backward,
    load_checkpoint,
    loss_and_grads,
    network_forward,
    poly_lr,
    save_checkpoint,
    sgd_step,
    train,
)
from lau.losses import cross_entropy_map
from lau.samplers import OffsetField, bilinear_upsample_backward, lau_backward, pixel_shuffle
from lau.synth import SynthSample, gen_sample

from _oracles import (
    assert_adjoint,
    einsum_conv2d_backward,
    einsum_conv2d_forward,
    np_pad_reference,
    one_forward_evaluate,
    traced_peak,
    whole_step_fn,
)


def toy_config(**overrides):
    base = dict(
        num_classes=3, in_channels=3, decoder_channels=6, reduced_channels=4,
        offset_groups=1, slope=0.01, lau_ratio=2, total_upsample=4,
        upsampler="lau", loss_kind="ce", lam=0.3, gamma=0.1,
        base_lr=0.001, power=0.9, momentum=0.9, weight_decay=1e-4,
        epochs=2, batch=4, seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def net_for(cfg):
    return lau.net.net_for(cfg, Rng(cfg.seed))


def param_bytes(net) -> bytes:
    """Every parameter's bytes, layer by layer."""
    return b"".join(arr.tobytes() for _, layer in net.named_layers() for arr in (layer.weights, layer.bias))


# (train config, side of the conv input) for every configuration the
# acceptance suite trains or checks; bilinear/ce uses a subset of the
# default layers.
CONV_CONFIGS = {
    "default": (ExperimentConfig().to_train_config(), 8),
    "m_classes": (ExperimentConfig(m_channels=4).to_train_config(), 8),
    "criterion_6": (_toy_config("ce", 0), 4),
    "criterion_8": (ExperimentConfig(image_size=16, output_stride=4, lau_ratio=2, classes=3,
                                     hidden_channels=8).to_train_config(), 4),
}


class TestConv:
    def test_1x1_identity(self):
        x = np.random.default_rng(0).normal(size=(1, 3, 4, 4))
        layer = ConvLayer(3, 3, 1, np.eye(3).reshape(3, 3, 1, 1), np.zeros(3))
        assert np.allclose(conv2d_forward(layer, x), x)

    def test_zero_kernel_gives_bias(self):
        layer = ConvLayer(2, 2, 3, np.zeros((2, 2, 3, 3)), np.array([1.5, -2.0]))
        y = conv2d_forward(layer, np.random.default_rng(1).normal(size=(1, 2, 3, 3)))
        assert np.allclose(y[0, 0], 1.5)
        assert np.allclose(y[0, 1], -2.0)

    def test_matches_sliding_window(self):
        rng = np.random.default_rng(2)
        layer = ConvLayer(2, 1, 3, rng.normal(size=(1, 2, 3, 3)), rng.normal(size=1))
        x = rng.normal(size=(1, 2, 3, 3))
        y = conv2d_forward(layer, x)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for i in range(3):
            for j in range(3):
                ref = (xp[0, :, i : i + 3, j : j + 3] * layer.weights[0]).sum() + layer.bias[0]
                assert y[0, 0, i, j] == pytest.approx(ref)

    @pytest.mark.parametrize("kernel", [1, 3])
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 5), st.integers(1, 5), st.integers(1, 6),
           st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_dx_adjoint_identity(self, kernel, n, cin, cout, h, w, seed):
        # zero bias makes the forward linear in x
        rng = np.random.default_rng(seed)
        layer = ConvLayer(cin, cout, kernel, rng.normal(size=(cout, cin, kernel, kernel)), np.zeros(cout))
        x = rng.normal(size=(n, cin, h, w))
        dy = rng.normal(size=(n, cout, h, w))
        dx, _, _ = conv2d_backward(layer, x, dy)
        assert_adjoint(x, conv2d_forward(layer, x), dy, dx)

    @pytest.mark.parametrize("batch", [1, 8, 64])
    @pytest.mark.parametrize("config", sorted(CONV_CONFIGS))
    def test_bytes_match_einsum_reference(self, config, batch):
        # every layer shape the configurations run gives the same bytes as
        # the per-tap einsum reference
        cfg, side = CONV_CONFIGS[config]
        rng = np.random.default_rng(batch)
        for _, layer in net_for(cfg).named_layers():
            layer.weights[...] = rng.normal(size=layer.weights.shape)
            layer.bias[...] = rng.normal(size=layer.bias.shape)
            x = rng.normal(size=(batch, layer.in_ch, side, side))
            dy = rng.normal(size=(batch, layer.out_ch, side, side))
            assert np.array_equal(conv2d_forward(layer, x), einsum_conv2d_forward(layer, x))
            for got, want in zip(conv2d_backward(layer, x, dy), einsum_conv2d_backward(layer, x, dy)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("kernel", [1, 3])
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 6), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    def test_padding_bytes_match_np_pad(self, kernel, n, c, h, w, seed):
        from lau.net import _padded

        x = np.random.default_rng(seed).normal(size=(n, c, h, w))
        assert np.array_equal(_padded(x, kernel), np_pad_reference(x, kernel))

    def test_gradcheck(self):
        rep = conv_gradcheck(seed=0, cases=10)
        assert rep.max_rel_err <= 1e-5
        assert not rep.failures

    def test_zero_upstream(self):
        rng = np.random.default_rng(3)
        layer = ConvLayer(2, 2, 3, rng.normal(size=(2, 2, 3, 3)), rng.normal(size=2))
        x = rng.normal(size=(1, 2, 3, 3))
        dx, dw, db = conv2d_backward(layer, x, np.zeros((1, 2, 3, 3)))
        assert not dx.any() and not dw.any() and not db.any()

    def test_linear_in_upstream(self):
        rng = np.random.default_rng(4)
        layer = ConvLayer(2, 2, 1, rng.normal(size=(2, 2, 1, 1)), rng.normal(size=2))
        x = rng.normal(size=(1, 2, 3, 3))
        d1 = rng.normal(size=(1, 2, 3, 3))
        d2 = rng.normal(size=(1, 2, 3, 3))
        outs = [conv2d_backward(layer, x, d) for d in (d1, d2, 2 * d1 + d2)]
        for i in range(3):
            assert np.allclose(outs[2][i], 2 * outs[0][i] + outs[1][i], atol=1e-12)

    def test_channel_mismatch(self):
        layer = ConvLayer(2, 2, 1, np.zeros((2, 2, 1, 1)), np.zeros(2))
        with pytest.raises(ShapeError):
            conv2d_forward(layer, np.zeros((1, 3, 2, 2)))

    def test_backward_channel_mismatch_names_the_channels(self):
        # checked before any work: a 1-channel patch would broadcast into
        # every input channel's dW before dX failed in a numpy reshape
        layer = ConvLayer(3, 2, 3, np.zeros((2, 3, 3, 3)), np.zeros(2))
        with pytest.raises(ShapeError, match="input channels 1 != layer in_ch 3"):
            conv2d_backward(layer, np.zeros((1, 1, 4, 4)), np.zeros((1, 2, 4, 4)))

    def test_kernel_size_validation(self):
        with pytest.raises(ValueError):
            ConvLayer(1, 1, 2, np.zeros((1, 1, 2, 2)), np.zeros(1))


class TestLeakyRelu:
    def test_alpha_zero_is_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.array_equal(leaky_relu(x, 0.0), [0.0, 0.0, 2.0])

    def test_negative_slope(self):
        assert leaky_relu(np.array([-2.0]), 0.01)[0] == pytest.approx(-0.02)

    def test_zero_counts_as_nonnegative(self):
        assert leaky_relu_backward(np.array([0.0]), np.array([1.0]), 0.3)[0] == 1.0

    def test_gradcheck_away_from_zero(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=20)
        x = np.where(np.abs(x) < 0.1, x + 0.5, x)

        def fn(v):
            return float(leaky_relu(v, 0.01).sum()), lambda: leaky_relu_backward(v, np.ones_like(v), 0.01)

        rep = gradcheck(fn, [x], h=1e-6, tolerance=1e-6)
        assert not rep.failures


class TestInitialization:
    def test_default_net_is_pinned(self):
        # weights come from uniform draws scaled by a correctly rounded sqrt,
        # no libm or BLAS, so these bytes hold on any IEEE-754 platform
        digest = hashlib.sha256()
        for _, layer in lau.net.net_for(ExperimentConfig().to_train_config(), Rng(0)).named_layers():
            digest.update(layer.weights.astype("<f8").tobytes())
            digest.update(layer.bias.astype("<f8").tobytes())
        assert digest.hexdigest() == (
            "e8bbc9a58429c16b855844116cda42b6c3c011881a36eb1a33ff0b2b80ce804d"
        )


class TestOffsetPredictor:
    def test_zero_init_gives_zero_offsets(self):
        net = build_net(3, 3, 6, 4, 2, 4, 1, 0.01, Rng(0), 1e-4)
        x = np.random.default_rng(6).normal(size=(2, 3, 3, 3))
        off = network_forward(net, x)[1]["off"]
        assert not off.dx.any() and not off.dy.any()
        assert off.m == 1 and (off.h_out, off.w_out) == (6, 6)

    def test_initial_pipeline_equals_bilinear(self):
        cfg = toy_config()
        net = build_net(3, 3, 6, 4, 2, 4, 1, 0.01, Rng(1), 1e-4)
        x = np.random.default_rng(7).normal(size=(1, 3, 4, 4))
        logits, _ = network_forward(net, x)
        baseline = SegNet(net.conv1, net.conv2, net.head, None, 2, 4, 0.01)
        ref, _ = network_forward(baseline, x)
        assert np.array_equal(logits, ref)

    def test_matches_layer_by_layer_composition(self):
        net = build_net(3, 3, 5, 4, 2, 4, 1, 0.1, Rng(2), 1e-4)
        pred = net.predictor
        gen = np.random.default_rng(8)
        pred.expand.weights[...] = gen.normal(size=pred.expand.weights.shape)
        pred.expand.bias[...] = gen.normal(size=pred.expand.bias.shape)
        _, cache = network_forward(net, gen.normal(size=(1, 3, 3, 3)))
        shuffled = pixel_shuffle(
            conv2d_forward(pred.expand, leaky_relu(conv2d_forward(pred.reduce, cache["f"]), 0.1)), 2
        )
        assert np.array_equal(cache["off"].dx, shuffled[:, 0::2])
        assert np.array_equal(cache["off"].dy, shuffled[:, 1::2])

    def test_expand_width_validated(self):
        rng = Rng(3)
        with pytest.raises(ShapeError):
            OffsetPredictor(
                ConvLayer.init(4, 4, 1, rng),
                ConvLayer.init(4, 6, 3, rng),  # 6 != 2*1*2*2
                ratio=2, groups=1, slope=0.01,
            )

    def test_reduce_expand_channel_mismatch_raises_shape_error(self):
        # built before, and failed only at the first forward, inside the expand conv
        rng = Rng(3)
        with pytest.raises(ShapeError, match=re.escape("reduce out_ch 2 != expand in_ch 5")):
            OffsetPredictor(ConvLayer.init(3, 2, 1, rng), ConvLayer.init(5, 8, 3, rng), 2, 1, 0.1)

    def test_offset_branch_carries_no_weight_decay(self):
        pred = OffsetPredictor.init(6, 4, 2, 1, 0.01, Rng(4))
        assert pred.reduce.weight_decay == 0.0
        assert pred.expand.weight_decay == 0.0


class TestSegNetChannels:
    @staticmethod
    def parts(**changes):
        """The layers of build_net(3, 3, 6, 4, 2, 4, ...) as SegNet arguments, some replaced."""
        net = build_net(3, 3, 6, 4, 2, 4, 1, 0.01, Rng(0), 1e-4)
        parts = dict(conv1=net.conv1, conv2=net.conv2, head=net.head, predictor=net.predictor,
                     lau_ratio=2, total_ratio=4, slope=0.01)
        parts.update(changes)
        return parts

    def test_consistent_layers_build(self):
        SegNet(**self.parts())
        SegNet(**self.parts(predictor=None))

    @pytest.mark.parametrize("changes, message", [
        (dict(conv2=ConvLayer.init(5, 6, 3, Rng(1))), "conv1 out_ch 6 != conv2 in_ch 5"),
        (dict(conv2=ConvLayer.init(6, 4, 3, Rng(1))), "conv2 out_ch 4 != head in_ch 6"),
        (dict(head=ConvLayer.init(4, 3, 1, Rng(1))), "conv2 out_ch 6 != head in_ch 4"),
        (dict(predictor=OffsetPredictor.init(5, 4, 2, 1, 0.01, Rng(1))), "conv2 out_ch 6 != reduce in_ch 5"),
        (dict(predictor=OffsetPredictor.init(6, 4, 4, 1, 0.01, Rng(1)), total_ratio=8),
         "predictor ratio 4 != lau_ratio 2"),
    ], ids=["conv1-conv2", "conv2-head", "head", "conv2-reduce", "predictor-ratio"])
    def test_layer_chain_mismatch_raises_shape_error(self, changes, message):
        # each of these built before, and a channel mismatch failed only at the first forward
        with pytest.raises(ShapeError, match=re.escape(message)):
            SegNet(**self.parts(**changes))


class TestToyDecoder:
    def test_decoder_returns_shared_features_and_logits(self):
        # the decoder output F feeds both the logits head and the offset branch
        net = build_net(3, 4, 6, 4, 2, 4, 1, 0.01, Rng(21), 0.0)
        x = np.random.default_rng(22).normal(size=(2, 3, 4, 4))
        _, cache = network_forward(net, x)
        f = leaky_relu(conv2d_forward(net.conv2, leaky_relu(conv2d_forward(net.conv1, x), 0.01)), 0.01)
        assert cache["f"].shape == (2, 6, 4, 4) and np.array_equal(cache["f"], f)
        assert cache["u"].shape == (2, 4, 4, 4) and np.array_equal(cache["u"], conv2d_forward(net.head, f))
        assert np.array_equal(cache["ar"], conv2d_forward(net.predictor.reduce, f))

    def test_expand_gradient_flows_only_through_sampler_path(self):
        # at the zero-offset starting state the expand layer still receives
        # gradient, and it can only arrive via the sampler's offset adjoint
        from lau.losses import cross_entropy_backward
        from lau.net import _loss_forward, network_backward

        cfg = toy_config(loss_kind="ce")
        net = build_net(3, 3, 6, 4, 2, 4, 1, 0.01, Rng(31), 1e-4)
        rng = np.random.default_rng(32)
        x = rng.normal(size=(1, 3, 4, 4))
        labels = LabelMap(rng.integers(0, 3, (1, 16, 16)), 3)
        logits, cache = network_forward(net, x)
        weights, doff_extra = _loss_forward(net, cfg, logits, cache, labels)[1]()
        grads = network_backward(net, cache, cross_entropy_backward(logits, labels, weights),
                                 doff_extra)
        assert np.abs(grads["expand"][0]).max() > 0

    def test_zero_weights_give_constant_bias_logits(self):
        net = build_net(3, 3, 6, 4, 2, 4, 1, 0.01, Rng(5), 0.0)
        for _, layer in net.named_layers():
            layer.weights[...] = 0.0
            layer.bias[...] = 0.0
        net.head.bias[...] = np.array([0.5, -1.0, 2.0])
        x = np.random.default_rng(9).normal(size=(1, 3, 4, 4))
        logits, cache = network_forward(net, x)
        for c, b in enumerate([0.5, -1.0, 2.0]):
            assert np.allclose(logits[0, c], b)

    def test_single_pixel_hand_forward(self):
        # D=1, 1x1 input: each 3x3 conv sees only its center tap
        net = build_net(1, 2, 1, 1, 1, 1, 1, 0.5, Rng(6), 0.0)
        x = np.array([[[[2.0]]]])
        w1 = net.conv1.weights[0, 0, 1, 1]
        b1 = float(net.conv1.bias[0])
        a1 = w1 * 2.0 + b1
        h1 = a1 if a1 >= 0 else 0.5 * a1
        w2 = net.conv2.weights[0, 0, 1, 1]
        b2 = float(net.conv2.bias[0])
        a2 = w2 * h1 + b2
        f = a2 if a2 >= 0 else 0.5 * a2
        expected = net.head.weights[:, 0, 0, 0] * f + net.head.bias
        logits, _ = network_forward(net, x)
        assert np.allclose(logits[0, :, 0, 0], expected)


class TestHotPath:
    STEPS = {"lau/off": ("lau", "off"), "lau/reg": ("lau", "reg"), "bilinear/ce": ("bilinear", "ce")}

    def step(self, name):
        upsampler, loss = self.STEPS[name]
        cfg = toy_config(upsampler=upsampler, loss_kind=loss)
        rng = np.random.default_rng(41)
        x = rng.normal(size=(2, 3, 4, 4))
        labels = LabelMap(rng.integers(0, 3, (2, 16, 16)), 3)
        return loss_and_grads(net_for(cfg), cfg, x, labels)

    @pytest.mark.parametrize("name", sorted(STEPS))
    def test_step_runs_without_einsum(self, monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError("np.einsum called on the hot path")

        monkeypatch.setattr(np, "einsum", refuse)
        grads = self.step(name)[2]()
        assert all(np.isfinite(g).all() for g in grads)

    @pytest.mark.parametrize("name, calls", [("lau/off", 4), ("bilinear/ce", 2)])
    def test_input_layer_skips_its_input_gradient(self, monkeypatch, name, calls):
        # conv1's dX has no reader: its backward computes only dW and db
        import lau.net

        real = lau.net.conv2d_backward
        seen = []

        def counting(*args):
            seen.append(args[0].kernel)
            return real(*args)

        backward = self.step(name)[2]
        monkeypatch.setattr(lau.net, "conv2d_backward", counting)
        backward()
        assert len(seen) == calls

    @pytest.mark.parametrize("name", sorted(STEPS))
    def test_step_runs_without_pad_or_take_along_axis(self, monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError("np.pad or np.take_along_axis called on the hot path")

        monkeypatch.setattr(np, "pad", refuse)
        monkeypatch.setattr(np, "take_along_axis", refuse)
        grads = self.step(name)[2]()
        assert all(np.isfinite(g).all() for g in grads)

    def count_calls(self, monkeypatch, *names):
        """Count calls to each named function made through lau.net or lau.losses."""
        import lau.losses

        seen = dict.fromkeys(names, 0)
        for name in names:
            # the real function, from the module that defines it
            bound = next(getattr(mod, name) for mod in (lau.net, lau.losses) if hasattr(mod, name))
            real = getattr(sys.modules[bound.__module__], name)

            def counting(*args, _name=name, _real=real):
                seen[_name] += 1
                return _real(*args)

            for mod in (lau.net, lau.losses):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counting)
        return seen

    def test_reg_value_samples_once(self, monkeypatch):
        # candidate 0 of the regression candidate set reuses the network's
        # refined CE instead of running the sampler a second time
        seen = self.count_calls(monkeypatch, "lau_forward")
        self.step("lau/reg")
        assert seen == {"lau_forward": 1}

    def test_reg_step_selects_once(self, monkeypatch):
        # the backward pass reuses the loss's target and weight
        seen = self.count_calls(monkeypatch, "select_theta_opt", "regression_weight")
        self.step("lau/reg")[2]()
        assert seen == {"select_theta_opt": 1, "regression_weight": 1}

    def test_off_step_weighs_once(self, monkeypatch):
        # the backward pass reuses the guided weight the loss computed
        seen = self.count_calls(monkeypatch, "guided_weight")
        self.step("lau/off")[2]()
        assert seen == {"guided_weight": 1}

    @pytest.mark.parametrize("name", sorted(STEPS))
    def test_no_valid_pixels_raise_before_any_backward(self, name):
        # reduce_loss owns the rule, so the step raises its error before
        # it returns a backward thunk, and without a warning on the way
        upsampler, loss = self.STEPS[name]
        cfg = toy_config(upsampler=upsampler, loss_kind=loss)
        x = np.random.default_rng(41).normal(size=(2, 3, 4, 4))
        labels = LabelMap(np.full((2, 16, 16), IGNORE), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="zero valid pixels"):
                loss_and_grads(net_for(cfg), cfg, x, labels)


def _skew_guided(real):
    """guided_terms whose CE weights are off by a relative 1e-3."""
    def skewed(*args):
        out, weights = real(*args)
        return out, lambda: weights() * (1 + 1e-3)
    return skewed


def _skew_regression(real):
    """regression_terms whose CE weights are off by a relative 1e-3."""
    def skewed(*args):
        out, grad = real(*args)

        def skewed_grad(rest, labels):
            weights, direct = grad(rest, labels)
            return weights * (1 + 1e-3), direct

        return out, skewed_grad
    return skewed


class TestSuitesCheckTheLossStep:
    @pytest.mark.parametrize("kind, name, skew, suite", [
        ("off", "guided_terms", _skew_guided, guided_loss_gradcheck),
        ("reg", "regression_terms", _skew_regression, regression_loss_gradcheck),
    ], ids=["off", "reg"])
    def test_skewed_ce_weights_fail_both_checks(self, monkeypatch, kind, name, skew, suite):
        # the op suite and the network check build the loss with the same
        # *_terms function the training step calls, so an error in its
        # gradient terms cannot hide behind a private copy
        import lau.checks
        import lau.losses
        import lau.net

        skewed = skew(getattr(lau.losses, name))
        for mod in (lau.losses, lau.net, lau.checks):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, skewed)
        assert not suite(seed=0, cases=2).passed
        assert not network_gradcheck(seed=0, loss_kind=kind).passed


class TestGradcheckHarness:
    def test_linear_subject_is_exact(self):
        # dyadic coefficients, points, and step keep every FD evaluation
        # exactly representable, so the central difference is error-free
        rng = np.random.default_rng(40)
        a = rng.integers(-8, 9, size=12) / 16.0

        def fn(x):
            return float(a @ x), lambda: a

        points = [rng.integers(-32, 33, size=12) / 16.0 for _ in range(3)]
        rep = gradcheck(fn, points, h=2.0**-20, tolerance=1e-10)
        assert rep.max_rel_err <= 1e-10
        assert not rep.failures

    def test_gradient_runs_once_per_point_before_its_probes(self):
        calls = []

        def fn(x):
            calls.append(("value", x.copy()))

            def grad_fn():
                calls.append(("grad", x.copy()))
                return 2.0 * x

            return float(x @ x), grad_fn

        points = [np.array([1.0, -2.0]), np.array([0.5, 3.0, 4.0])]
        assert gradcheck(fn, points, h=1e-6, tolerance=1e-5).passed
        # per point: its value, its gradient, then 2 * size value-only probes
        want = [kind for p in points for kind in ["value", "grad"] + ["value"] * (2 * p.size)]
        assert [kind for kind, _ in calls] == want
        at = [x for kind, x in calls if kind == "grad"]
        assert all(np.array_equal(x, p) for x, p in zip(at, points))

    def test_network_check_runs_one_backward_pass(self, monkeypatch):
        import lau.net
        from lau.checks import network_gradcheck

        calls = []
        backward = lau.net.network_backward

        def counted(*args, **kwargs):
            calls.append(None)
            return backward(*args, **kwargs)

        monkeypatch.setattr(lau.net, "network_backward", counted)
        assert network_gradcheck(seed=0, loss_kind="ce").passed
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["ce", "off", "reg"])
    def test_probe_values_equal_whole_steps(self, monkeypatch, kind):
        # the probes recompute only the layers their perturbation reaches,
        # so every value they return must still be the whole step's, bit for bit
        import lau.checks

        seen = []
        real = lau.checks.gradcheck

        def recording(fn, points, *args, **kwargs):
            def recorded(x):
                result = fn(x)
                seen.append((x.copy(), result[0]))
                return result

            return real(recorded, points, *args, **kwargs)

        monkeypatch.setattr(lau.checks, "gradcheck", recording)
        assert network_gradcheck(seed=0, loss_kind=kind).passed
        reference = whole_step_fn(*lau.checks._network_instance(0, kind))
        assert len(seen) == 1845
        differ = [i for i, (x, value) in enumerate(seen) if value != reference(x)]
        assert not differ, f"{len(differ)} values differ, first at evaluation {differ[0]}"

    def test_each_probe_reruns_only_the_layers_it_reaches(self, monkeypatch):
        # a probe reruns its layer and every layer after it, except that the
        # head feeds no other layer: the counts are conv2d_forward calls
        import lau.checks

        captured = []

        def capture(fn, points, *args, **kwargs):
            captured.append((fn, points[0]))
            return lau.net.GradcheckReport("fn", 1, 0.0)

        monkeypatch.setattr(lau.checks, "gradcheck", capture)
        network_gradcheck(seed=0, loss_kind="ce")
        (fn, point), = captured
        calls = []
        conv = lau.net.conv2d_forward
        monkeypatch.setattr(lau.net, "conv2d_forward", lambda *a: calls.append(None) or conv(*a))

        def count(vec):
            calls.clear()
            fn(vec)
            return len(calls)

        counts = {"point": count(point)}
        start = 0
        for name, layer in lau.checks._network_instance(0, "ce")[0].named_layers():
            moved = point.copy()
            moved[start] += 1e-5
            counts[name] = count(moved)
            start += layer.weights.size + layer.bias.size
        assert counts == {"point": 5, "conv1": 5, "conv2": 4, "head": 1, "reduce": 2, "expand": 1}

    @pytest.mark.parametrize("kind, layer", [("ce", "conv1"), ("ce", "conv2"), ("ce", "head"),
                                             ("ce", "reduce"), ("ce", "expand"), ("off", "expand"),
                                             ("reg", "expand")])
    def test_skewed_layer_gradient_fails(self, monkeypatch, kind, layer):
        # each layer's probes rerun the forward from their own layer (the
        # whole forward for conv1, from the kept h1 for conv2, u alone from
        # the kept F for the head, the offsets from the kept F or reduce
        # activation), so each must still see a relative 1e-3 error in its
        # layer's weight gradient
        real = lau.net.network_backward

        def skewed(*args, **kwargs):
            grads = real(*args, **kwargs)
            dw, db = grads[layer]
            grads[layer] = (dw * (1 + 1e-3), db)
            return grads

        monkeypatch.setattr(lau.net, "network_backward", skewed)
        assert not network_gradcheck(seed=0, loss_kind=kind).passed

    def test_report_deterministic_given_seed(self):
        from lau.checks import lau_gradcheck

        r1 = lau_gradcheck(seed=5, cases=3)
        r2 = lau_gradcheck(seed=5, cases=3)
        assert r1.max_rel_err == r2.max_rel_err
        assert r1.failures == r2.failures

    @pytest.mark.parametrize("streak, raises", [(99, False), (100, True)])
    def test_suite_gives_up_after_100_rejections_in_a_row(self, streak, raises):
        from lau.checks import _suite

        calls = []

        def draw(rng):
            calls.append(None)
            if len(calls) <= streak:
                return None
            return (lambda x: (float(x @ x), lambda: 2.0 * x)), np.ones(2)

        if raises:
            with pytest.raises(RuntimeError):
                _suite("toy", draw, 0, 1)
        else:
            assert _suite("toy", draw, 0, 1).passed

    def test_offset_draw_gives_up_after_100_rejections(self, monkeypatch):
        import lau.checks as checks

        calls = []

        def reject(*args):
            calls.append(None)
            assert len(calls) <= checks.MAX_REJECTIONS, "offset draws are unbounded"
            return False

        monkeypatch.setattr(checks, "_coords_safe", reject)
        with pytest.raises(RuntimeError):
            checks._safe_offsets(np.random.default_rng(0), 1, 1, 2, 2, 2)
        assert len(calls) == checks.MAX_REJECTIONS

    @pytest.mark.parametrize("h, tolerance", [
        (0.0, 1e-5), (float("nan"), 1e-5), (float("inf"), 1e-5),
        (1e-6, 0.0), (1e-6, float("nan")), (1e-6, 1.0),
    ])
    def test_rejects_degenerate_step_or_tolerance(self, h, tolerance):
        # a gradient 1.5x too large must never pass: nan comparisons are
        # all False, so a nan step or tolerance would record no failure, and
        # the relative error never exceeds 1, so neither would a tolerance of 1
        def fn(x):
            return float(x @ x), lambda: 3.0 * x

        with pytest.raises(ValueError):
            gradcheck(fn, [np.ones(3)], h=h, tolerance=tolerance)


class TestPolySchedule:
    def test_endpoints(self):
        assert poly_lr(0.004, 0, 100, 0.9) == 0.004
        assert poly_lr(0.004, 100, 100, 0.9) == 0.0

    def test_halfway_value(self):
        # frozen from direct evaluation: 0.001 * 0.5**0.9
        assert poly_lr(0.001, 500, 1000, 0.9) == pytest.approx(5.3589e-4, abs=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.1, 3.0), st.integers(2, 50))
    def test_monotone_nonincreasing(self, power, total):
        values = [poly_lr(1.0, i, total, power) for i in range(total + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            poly_lr(0.001, 11, 10, 0.9)


class TestSgd:
    def test_plain_gradient_descent(self):
        w = np.array([1.0, 2.0])
        g = np.array([0.5, -1.0])
        v = np.zeros(2)
        sgd_step([w], [g], [v], lr=0.1, momentum=0.0, decays=[0.0])
        assert np.allclose(w, [0.95, 2.1])

    def test_velocity_decays_geometrically(self):
        w = np.zeros(1)
        v = np.array([1.0])
        for step in range(3):
            sgd_step([w], [np.zeros(1)], [v], lr=0.0, momentum=0.5, decays=[0.0])
            assert v[0] == pytest.approx(0.5 ** (step + 1))

    def test_two_steps_match_hand_unroll(self):
        w = np.array([1.0])
        v = np.zeros(1)
        g1, g2 = np.array([0.3]), np.array([-0.2])
        lr, mu, wd = 0.1, 0.9, 0.01
        # hand unroll
        v1 = mu * 0.0 + (g1[0] + wd * 1.0)
        w1 = 1.0 - lr * v1
        v2 = mu * v1 + (g2[0] + wd * w1)
        w2 = w1 - lr * v2
        sgd_step([w], [g1], [v], lr=lr, momentum=mu, decays=[wd])
        sgd_step([w], [g2], [v], lr=lr, momentum=mu, decays=[wd])
        assert w[0] == pytest.approx(w2, abs=1e-15)

    def test_zero_decay_layers_hold_still(self):
        w = np.array([3.0, -4.0])
        v = np.zeros(2)
        for _ in range(2):
            sgd_step([w], [np.zeros(2)], [v], lr=0.5, momentum=0.0, decays=[0.0])
        assert np.array_equal(w, [3.0, -4.0])

    @pytest.mark.parametrize("longer", range(4), ids=["params", "grads", "velocities", "decays"])
    def test_mismatched_lists_raise_before_any_update(self, longer):
        # zip would update the shortest prefix and drop the rest silently
        lists = [[np.ones(2)], [np.ones(2)], [np.zeros(2)], [0.1]]
        lists[longer] = lists[longer] * 2
        lengths = [1, 1, 1, 1]
        lengths[longer] = 2
        with pytest.raises(ShapeError, match=re.escape(f"lengths differ: {lengths}")):
            sgd_step(lists[0], lists[1], lists[2], lr=0.5, momentum=0.9, decays=lists[3])
        assert np.array_equal(lists[0][0], [1.0, 1.0]) and np.array_equal(lists[2][0], [0.0, 0.0])


class TestTraining:
    def make_data(self, cfg, count=8, val=4):
        h = 4 * cfg.total_upsample
        args = (h, h, cfg.num_classes, cfg.total_upsample, 0.25)
        train_set = [gen_sample(cfg.seed, i, *args) for i in range(count)]
        val_set = [gen_sample(cfg.seed + 999, i, *args) for i in range(val)]
        return train_set, val_set

    def metrics(self, cfg, tr, va):
        """The per-epoch rows `lau train` writes: both splits evaluated after every epoch."""
        return [dict(epoch=epoch, split=split, **evaluate(net, cfg, samples))
                for epoch, net in enumerate(train(cfg, tr))
                for split, samples in (("train", tr), ("val", va))]

    def test_deterministic_trajectories(self):
        cfg = toy_config(loss_kind="off")
        tr, va = self.make_data(cfg)
        m1 = self.metrics(cfg, tr, va)
        m2 = self.metrics(cfg, tr, va)
        assert m1 == m2

    def test_lambda_zero_matches_plain_ce(self):
        tr, va = self.make_data(toy_config())
        m_off = self.metrics(toy_config(loss_kind="off", lam=0.0), tr, va)
        m_ce = self.metrics(toy_config(loss_kind="ce"), tr, va)
        for a, b in zip(m_off, m_ce):
            assert a["pixacc"] == b["pixacc"] and a["miou"] == b["miou"]
            assert a["loss"] == pytest.approx(b["loss"], abs=1e-12)

    def test_single_step_descends(self):
        cfg = toy_config(epochs=1, batch=8, loss_kind="ce", base_lr=1e-3, momentum=0.0)
        tr, _ = self.make_data(cfg, count=8)
        before = evaluate(net_for(cfg), cfg, tr)["loss"]
        after = self.metrics(cfg, tr, tr)[0]["loss"]
        assert after < before

    def test_reg_loss_trains(self):
        cfg = toy_config(loss_kind="reg", epochs=1)
        tr, va = self.make_data(cfg)
        metrics = self.metrics(cfg, tr, va)
        assert len(metrics) == 2
        assert np.isfinite(metrics[-1]["loss"])

    def test_bilinear_baseline_trains(self):
        cfg = toy_config(upsampler="bilinear", loss_kind="ce", epochs=1)
        tr, va = self.make_data(cfg)
        metrics = self.metrics(cfg, tr, va)
        assert len(metrics) == 2

    def test_invalid_ratio_rejected_before_training(self):
        tr, _ = self.make_data(toy_config())
        with pytest.raises(ConfigError) as exc:
            train(toy_config(lau_ratio=3), tr)
        assert "lau_ratio" in str(exc.value)

    def test_negative_lambda_rejected(self):
        tr, _ = self.make_data(toy_config())
        with pytest.raises(ConfigError):
            train(toy_config(lam=-0.1), tr)

    def test_yields_one_net_per_epoch_updated_in_place(self):
        cfg = toy_config(epochs=3)
        tr, _ = self.make_data(cfg)
        nets = [(net, param_bytes(net)) for net in train(cfg, tr)]
        assert len(nets) == 3 and all(net is nets[0][0] for net, _ in nets)
        assert len({params for _, params in nets}) == 3

    @pytest.mark.parametrize("setup", [
        dict(loss_kind="off"), dict(loss_kind="reg"), dict(loss_kind="off", offset_groups=3),
        dict(upsampler="bilinear", loss_kind="ce"),
    ], ids=["lau/off", "lau/reg", "lau/off/m=classes", "bilinear/ce"])
    def test_evaluating_between_epochs_leaves_the_parameters_byte_equal(self, setup):
        cfg = toy_config(epochs=3, **setup)
        tr, va = self.make_data(cfg)
        evaluated = []
        for net in train(cfg, tr):
            evaluate(net, cfg, tr)
            evaluate(net, cfg, va)
            evaluated.append(param_bytes(net))
        assert [param_bytes(net) for net in train(cfg, tr)] == evaluated

    def test_empty_training_set_names_train_count(self):
        with pytest.raises(ConfigError) as exc:
            next(train(toy_config(), []))
        assert exc.value.field_name == "train_count"

    def test_config_cannot_change(self):
        cfg = toy_config()
        for f in dataclasses.fields(cfg):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))

    @pytest.mark.parametrize("patch,key", [
        ({"offset_groups": 2}, "m_channels"),
        ({"loss_kind": "reg", "offset_groups": 3}, "m_channels"),
        ({"slope": 1.0}, "leaky_slope"),
        ({"power": -1.0}, "power"),
        ({"total_upsample": 0}, "output_stride"),
        ({"in_channels": 0}, "classes"),
    ])
    def test_validate_names_the_json_key(self, patch, key):
        toy_config().validate()
        with pytest.raises(ConfigError) as exc:
            toy_config(**patch).validate()
        assert exc.value.field_name == key

    @pytest.mark.parametrize("patch,key,message", [
        ({"epochs": True}, "epochs", "must be of type int"),
        ({"batch": 2.5}, "batch", "must be of type int"),
        ({"num_classes": 3.0}, "classes", "must be of type int"),
        ({"momentum": False}, "momentum", "must be of type float"),
        ({"loss_kind": 3}, "loss", "must be of type str"),
        ({"base_lr": float("inf")}, "lr", "must be a finite number"),
        ({"lam": float("inf")}, "lambda", "must be a finite number"),
        ({"gamma": float("nan")}, "gamma", "must be a finite number"),
        ({"slope": 10**400}, "leaky_slope", "must be a finite number"),
    ], ids=["bool-int", "float-int", "float-classes", "bool-float", "int-str",
            "inf-lr", "inf-lambda", "nan", "int-beyond-float"])
    def test_field_types_and_finite_floats_name_the_json_key(self, patch, key, message):
        # the same field check ExperimentConfig runs on a JSON config
        with pytest.raises(ConfigError) as exc:
            toy_config(**patch)
        assert exc.value.field_name == key and message in str(exc.value)


def eval_samples(count, seed=0):
    """Toy-config samples with a fifth of the pixels IGNORE and sample 3 wholly so."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(count):
        labels = rng.integers(0, 3, (1, 16, 16))
        labels[(rng.random((1, 16, 16)) < 0.2) | (i == 3)] = IGNORE
        samples.append(SynthSample(rng.normal(size=(1, 3, 4, 4)), LabelMap(labels, 3)))
    return samples


class TestEvaluate:
    SETUPS = {
        "bilinear/ce": dict(upsampler="bilinear", loss_kind="ce"),
        "lau/ce": dict(loss_kind="ce"),
        "lau/off": dict(loss_kind="off"),
        "lau/reg": dict(loss_kind="reg"),
        "lau/off/m=classes": dict(loss_kind="off", offset_groups=3),
    }

    def net(self, cfg):
        net = net_for(cfg)
        if net.predictor is not None:  # nonzero offsets, so the lau taps move
            expand = net.predictor.expand.weights
            expand[...] = np.random.default_rng(5).normal(scale=0.5, size=expand.shape)
        return net

    @pytest.mark.parametrize("count, batch", [(1, 4), (7, 4), (70, 4), (129, 4), (129, 100)])
    @pytest.mark.parametrize("setup", sorted(SETUPS))
    def test_equals_one_forward_per_loss_group(self, setup, count, batch):
        # chunks of at most 8 samples, concatenated back into the groups of
        # max(batch, 64) that the loss is reduced over, give the same floats
        cfg = toy_config(batch=batch, **self.SETUPS[setup])
        net = self.net(cfg)
        samples = eval_samples(count)
        got = evaluate(net, cfg, samples)
        assert got == one_forward_evaluate(net, cfg, samples)
        assert all(np.isfinite(v) for v in got.values())

    def test_forwards_chunks_and_reduces_once_per_group(self, monkeypatch):
        cfg = toy_config(loss_kind="off")
        real_forward, real_reduce = lau.net.network_forward, lau.net._valid_mean
        sizes, reduced = [], []

        def forward(net, x):
            sizes.append(len(x))
            return real_forward(net, x)

        def reduce(values):
            reduced.append(values.shape)
            return real_reduce(values)

        monkeypatch.setattr(lau.net, "network_forward", forward)
        monkeypatch.setattr(lau.net, "_valid_mean", reduce)
        samples = eval_samples(70)
        evaluate(self.net(cfg), cfg, samples)
        assert max(sizes) <= 8 and sum(sizes) == 70
        # one reduction per group, of its valid pixels' values: the guided loss is valid where the labels are
        groups = (samples[:64], samples[64:])
        assert reduced == [(sum(int(s.labels.valid.sum()) for s in group),) for group in groups]

    def test_no_samples_raise_value_error_before_any_forward(self, monkeypatch):
        # numpy's "need at least one array to concatenate" escaped before
        cfg = toy_config()
        net = net_for(cfg)
        monkeypatch.setattr(lau.net, "network_forward", None)
        with pytest.raises(ValueError, match="at least one sample"):
            evaluate(net, cfg, [])

    @pytest.mark.parametrize("upsampler, loss", [("lau", "off"), ("lau", "reg"), ("bilinear", "ce")])
    def test_default_config_peak_memory_is_bounded(self, upsampler, loss):
        # one 64-sample forward peaked at 54-58 MiB (lau) and 38.5 MiB
        # (bilinear); chunks of 8 samples stay near 20 MiB
        ec = ExperimentConfig(upsampler=upsampler, loss=loss, train_count=64, val_count=1)
        cfg = ec.to_train_config()
        samples = ec.datasets()[0]
        net = lau.net.net_for(cfg, Rng(0))
        peak = traced_peak(lambda: evaluate(net, cfg, samples))[1]
        assert peak < 32 << 20, f"{peak / 2**20:.1f} MiB"

    def test_peak_memory_does_not_grow_with_split_length(self):
        # metrics come from per-chunk tallies, so a split 8x longer holds no
        # more. Whole-split int64 prediction and label maps grew by 2 x 8
        # bytes a pixel per sample, 56 chunks' worth here; with labels in
        # int8, one whole-split map of the 448 extra samples is 112 KiB
        cfg = toy_config(loss_kind="off")
        net = self.net(cfg)
        samples = eval_samples(512)
        evaluate(net, cfg, samples[:8])  # geometry caches
        peaks = [traced_peak(lambda: evaluate(net, cfg, split))[1] for split in (samples[:64], samples)]
        chunk_share = 2 * lau.net._EVAL_CHUNK * 16 * 16 * 8  # one chunk's prediction and label maps in int64
        assert peaks[1] - peaks[0] < chunk_share, peaks


class TestPeakMemory:
    # tracemalloc peaks in MiB at the default shapes, where a full-resolution
    # (8, 4, 64, 64) map takes 1 MiB. Each bound sits between the peak of code
    # that frees each such buffer at its last use and the peak of code that
    # held them to the end of their functions, measured with this numpy:
    # step lau/off 8.37 -> 6.49, lau/reg 8.60 -> 7.87, bilinear/ce 6.48 -> 4.64;
    # evaluate of 64 samples 9.89 -> 6.76, 8.63 -> 6.59, 8.82 -> 6.13. The
    # lau/reg step bound sits between 7.87, the peak of a candidate set that
    # samples all four corners before its first bilinear stage, and 7.05, of
    # one that samples each chunk's corners when the chunk runs (its
    # evaluate then peaks at 5.78)
    STEP_AND_EVALUATE = {("lau", "off"): (7.25, 8.0), ("lau", "reg"): (7.5, 7.5),
                         ("bilinear", "ce"): (5.5, 7.25)}
    # the same for one op: lau_backward 3.69 -> 2.82, cross_entropy_map
    # 2.28 -> 1.66, bilinear_upsample_backward 2.68 -> 1.13
    OPS = {"lau_backward": 3.25, "cross_entropy_map": 1.9, "bilinear_upsample_backward": 1.75}

    @pytest.mark.parametrize("part", ["step", "evaluate"])
    @pytest.mark.parametrize("upsampler, loss", sorted(STEP_AND_EVALUATE))
    def test_default_config_peaks(self, upsampler, loss, part):
        ec = ExperimentConfig(upsampler=upsampler, loss=loss, train_count=64, val_count=1)
        cfg = ec.to_train_config()
        net = lau.net.net_for(cfg, Rng(0))
        samples = ec.datasets()[0]
        features = lau.net._stack_features(samples, range(cfg.batch))
        labels = lau.net._stack_labels(samples, range(cfg.batch), cfg.num_classes)
        run = {"step": lambda: loss_and_grads(net, cfg, features, labels)[2](),
               "evaluate": lambda: evaluate(net, cfg, samples)}[part]
        run()  # the shape caches fill once, outside the traced call
        peak = traced_peak(run)[1] / 2**20
        bound = self.STEP_AND_EVALUATE[upsampler, loss][part == "evaluate"]
        assert peak < bound, f"{part} {peak:.2f} MiB"

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_default_shape_op_peaks(self, name):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(8, 4, 8, 8))
        off = OffsetField(*rng.normal(scale=0.5, size=(2, 8, 1, 32, 32)))
        dv = rng.normal(size=(8, 4, 32, 32))  # the lau stage's output gradient
        logits = rng.normal(size=(8, 4, 64, 64))
        labels = LabelMap(rng.integers(0, 4, (8, 64, 64)), 4)
        op = {"lau_backward": lambda: lau_backward(u, off, 4, dv),
              "cross_entropy_map": lambda: cross_entropy_map(logits, labels),
              "bilinear_upsample_backward": lambda: bilinear_upsample_backward(dv.shape, 2, logits)}[name]
        op()
        peak = traced_peak(op)[1] / 2**20
        assert peak < self.OPS[name], f"{name} {peak:.2f} MiB"


class TestLabelStorage:
    # a 4-class label takes one byte, where int64 took eight

    def test_default_datasets_hold_under_3_mib(self):
        # int64 labels held 10.9 MiB: 320 maps of 64 x 64 at 8 bytes. The
        # peak bounds what the splits hold, and what building them took
        splits, peak = traced_peak(lambda: ExperimentConfig().datasets())
        assert sum(len(split) for split in splits) == 320
        assert peak < 3 << 20, f"{peak / 2**20:.1f} MiB"

    def test_default_batch_labels_take_32_kib(self):
        ec = ExperimentConfig(train_count=8, val_count=1)
        cfg = ec.to_train_config()
        samples = ec.datasets()[0]
        labels = lau.net._stack_labels(samples, range(cfg.batch), cfg.num_classes)
        assert labels.labels.dtype == np.int8 and labels.labels.nbytes == 32 << 10
        wide = np.concatenate([s.labels.labels.astype(np.int64) for s in samples])
        assert np.array_equal(labels.labels, wide)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = build_net(3, 4, 6, 4, 2, 4, 1, 0.01, Rng(10), 1e-4)
        gen = np.random.default_rng(20)
        for _, layer in net.named_layers():
            layer.weights[...] = gen.normal(size=layer.weights.shape)
            layer.bias[...] = gen.normal(size=layer.bias.shape)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, net)
        other = build_net(3, 4, 6, 4, 2, 4, 1, 0.01, Rng(11), 1e-4)
        load_checkpoint(path, other)
        for (_, a), (_, b) in zip(net.named_layers(), other.named_layers()):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_manifest_mismatch(self, tmp_path):
        net = build_net(3, 4, 6, 4, 2, 4, 1, 0.01, Rng(12), 1e-4)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, net)
        smaller = build_net(3, 4, 5, 4, 2, 4, 1, 0.01, Rng(13), 1e-4)
        with pytest.raises(IOError):
            load_checkpoint(path, smaller)

    @pytest.mark.parametrize("hostile", ["no_newline_50mb", "non_ascii"])
    def test_hostile_manifest_fails_cleanly(self, tmp_path, hostile):
        # the manifest read is bounded, so neither file is read whole or
        # quoted whole, and a non-ASCII byte is an IOError like any mismatch
        net = build_net(3, 4, 6, 4, 2, 4, 1, 0.01, Rng(18), 1e-4)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, net)
        if hostile == "non_ascii":
            path.write_bytes(b"\xff" + path.read_bytes()[1:])
        else:
            with open(path, "wb") as fh:
                fh.truncate(50 << 20)  # 50 MB of NUL bytes, no newline
        def load():
            with pytest.raises(IOError) as exc:
                load_checkpoint(path, net)
            return exc

        exc, peak = traced_peak(load)
        assert "manifest" in str(exc.value) and len(str(exc.value)) < 200
        assert peak < 1 << 20

    def test_trailing_bytes_rejected(self, tmp_path):
        net = build_net(3, 4, 6, 4, 2, 4, 1, 0.01, Rng(15), 1e-4)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, net)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(IOError, match="trailing"):
            load_checkpoint(path, net)

    def test_truncation_rejected(self, tmp_path):
        net = build_net(3, 4, 6, 4, 2, 4, 1, 0.01, Rng(16), 1e-4)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, net)
        raw = path.read_bytes()
        last = 8 * net.predictor.expand.out_ch  # payload of the final bias dump
        for cut in (len(raw) - 8, len(raw) - last - 8):  # mid payload, mid header
            path.write_bytes(raw[:cut])
            with pytest.raises(IOError):
                load_checkpoint(path, net)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import lau.net

        net = build_net(3, 4, 6, 4, 2, 4, 1, 0.01, Rng(17), 1e-4)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, net)
        before = path.read_bytes()

        class Unwritable:
            def astype(self, dtype):
                raise OSError("disk full")

        entries = lau.net._checkpoint_entries(net)
        # the manifest, one whole tensor and the next header reach the file first
        monkeypatch.setattr(lau.net, "_checkpoint_entries",
                            lambda _: entries[:1] + [(Unwritable(), (1, 1, 1, 1))])
        net.conv1.weights[...] += 1.0
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, net)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]

    def test_failed_load_changes_no_parameter(self, tmp_path):
        source = build_net(3, 4, 6, 4, 2, 4, 1, 0.01, Rng(19), 1e-4)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, source)
        raw = path.read_bytes()
        # where each entry starts: after the manifest line, then after each header and payload
        starts = [raw.index(b"\n") + 1]
        for _, layer in source.named_layers():
            for arr in (layer.weights, layer.bias):
                starts.append(starts[-1] + 16 + 8 * arr.size)
        assert starts.pop() == len(raw)
        damaged = [raw[:start] for start in starts[1:]] + [raw[:-8]]
        for start in starts:
            bad = bytearray(raw)
            bad[start] += 1  # the low byte of the entry's first dim (little-endian u32)
            damaged.append(bytes(bad))
        net = build_net(3, 4, 6, 4, 2, 4, 1, 0.01, Rng(20), 1e-4)

        def state():
            return [(layer.weights.tobytes(), layer.bias.tobytes()) for _, layer in net.named_layers()]

        before = state()
        for data in damaged:
            path.write_bytes(data)
            with pytest.raises(IOError):
                load_checkpoint(path, net)
            assert state() == before

    def test_starts_with_text_manifest(self, tmp_path):
        net = build_net(2, 3, 4, 4, 2, 2, 1, 0.01, Rng(14), 0.0)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, net)
        first_line = path.read_bytes().split(b"\n", 1)[0].decode("ascii")
        assert first_line.startswith("conv1:4,2,3,3")
        assert "expand:" in first_line
