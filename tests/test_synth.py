"""Synthetic benchmark tests: generator determinism and metric fixtures."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lau.core import LabelMap, ShapeError
from lau.synth import (
    gen_sample,
    miou,
    pix_acc,
    speckle_rate,
)


class TestGenerator:
    def test_bytewise_determinism(self):
        a = [gen_sample(42, i, 32, 32, 4, 8, 0.25) for i in range(6)]
        b = [gen_sample(42, i, 32, 32, 4, 8, 0.25) for i in range(6)]
        for s, t in zip(a, b):
            assert np.array_equal(s.features, t.features)
            assert np.array_equal(s.labels.labels, t.labels.labels)

    def test_order_invariance(self):
        full = [gen_sample(7, i, 32, 32, 4, 8, 0.1) for i in range(5)]
        third = gen_sample(7, 3, 32, 32, 4, 8, 0.1)
        assert np.array_equal(full[3].features, third.features)
        assert np.array_equal(full[3].labels.labels, third.labels.labels)

    def test_noiseless_features_are_exact_one_hot(self):
        sample = gen_sample(3, 0, 32, 32, 4, 8, 0.0)
        f = sample.features[0]
        assert set(np.unique(f)) <= {0.0, 1.0}
        assert np.array_equal(f.sum(axis=0), np.ones((4, 4)))

    def test_label_maps_are_pinned(self):
        # label maps come from integer draws and uniform floats only, no libm
        # or BLAS, so these bytes hold on any IEEE-754 platform
        digest = hashlib.sha256()
        for i in range(8):
            digest.update(gen_sample(0, i, 32, 32, 4, 8, 0.0).labels.labels.astype("<i8").tobytes())
        assert digest.hexdigest() == (
            "adfd4ffd46c79a40c8fc7d0378977fb3b1e4417f15c0ddab8228789b83869fd0"
        )

    def test_every_sample_has_classes_and_boundaries(self):
        for sample in (gen_sample(11, i, 32, 32, 4, 8, 0.25) for i in range(20)):
            labels = sample.labels.labels[0]
            assert len(np.unique(labels)) >= 2
            boundary = (labels[:, 1:] != labels[:, :-1]).any() or (
                labels[1:, :] != labels[:-1, :]
            ).any()
            assert boundary

    @pytest.mark.parametrize("args, name", [
        ((32, 32, 1, 8, 0.25), "num_classes"),
        ((32, 32, 4, 0, 0.25), "stride"),
        ((30, 32, 4, 4, 0.25), "height"),
        ((32, 4, 4, 8, 0.25), "width"),
        ((32, 32, 4, 8, -0.25), "noise_std"),
        ((32, 32, 4, 8, float("nan")), "noise_std"),
        ((32, 32, 4, 8, float("inf")), "noise_std"),
    ])
    def test_bad_arguments_name_the_argument(self, args, name, monkeypatch):
        import lau.synth as synth

        monkeypatch.setattr(synth, "_draw_labels", None)  # rejected before any draw
        with pytest.raises(ValueError, match=name):
            gen_sample(0, 0, *args)

    @pytest.mark.parametrize("classes", [2**63, 10**30])
    def test_class_count_beyond_int64_labels_is_rejected_before_any_draw(self, classes, monkeypatch):
        # a rectangle's class was assigned into the int64 label map as an OverflowError
        import lau.synth as synth

        monkeypatch.setattr(synth, "_draw_labels", None)
        with pytest.raises(ValueError, match="num_classes"):
            gen_sample(0, 0, 8, 8, classes, 2, 0.25)

    def test_redraws_are_bounded(self, monkeypatch):
        # a 1x1 map holds one class whatever is drawn
        import lau.synth as synth

        draws = []
        draw_labels = synth._draw_labels
        monkeypatch.setattr(synth, "MAX_REDRAWS", 5)
        monkeypatch.setattr(synth, "_draw_labels", lambda *a: draws.append(None) or draw_labels(*a))
        with pytest.raises(ValueError, match="two classes"):
            gen_sample(0, 0, 1, 1, 4, 1, 0.25)
        assert len(draws) == 5

    def test_shapes(self):
        sample = gen_sample(0, 0, 64, 64, 5, 8, 0.25)
        assert sample.features.shape == (1, 5, 8, 8)
        assert sample.labels.labels.shape == (1, 64, 64)


class TestPixAcc:
    def test_perfect(self):
        gt = LabelMap(np.array([[[0, 1], [2, 3]]]), 4)
        assert pix_acc(gt, gt) == 1.0

    def test_complement(self):
        a = LabelMap(np.zeros((1, 2, 2), int), 2)
        b = LabelMap(np.ones((1, 2, 2), int), 2)
        assert pix_acc(a, b) == 0.0

    def test_three_of_four(self):
        pred = LabelMap(np.array([[[0, 1], [1, 1]]]), 2)
        gt = LabelMap(np.array([[[0, 1], [1, 0]]]), 2)
        assert pix_acc(pred, gt) == 0.75

    def test_ignores_masked_pixels(self):
        pred = LabelMap(np.array([[[0, 1]]]), 2)
        gt = LabelMap(np.array([[[0, -1]]]), 2)
        assert pix_acc(pred, gt) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            pix_acc(LabelMap(np.zeros((1, 2, 2), int), 2), LabelMap(np.zeros((1, 2, 3), int), 2))


class TestMiou:
    def test_perfect(self):
        gt = LabelMap(np.array([[[0, 1], [2, 0]]]), 3)
        assert miou(gt, gt, 3) == 1.0

    def test_hand_confusion(self):
        pred = LabelMap(np.zeros((1, 2, 2), int), 2)
        gt = LabelMap(np.array([[[0, 0], [1, 1]]]), 2)
        # class 0: inter 2, union 4 -> 0.5; class 1: inter 0, union 2 -> 0
        assert miou(pred, gt, 2) == pytest.approx(0.25)

    def test_disjoint_single_classes(self):
        pred = LabelMap(np.zeros((1, 2, 2), int), 2)
        gt = LabelMap(np.ones((1, 2, 2), int), 2)
        assert miou(pred, gt, 2) == 0.0

    def test_absent_classes_excluded(self):
        pred = LabelMap(np.zeros((1, 2, 2), int), 8)
        gt = LabelMap(np.zeros((1, 2, 2), int), 8)
        assert miou(pred, gt, 8) == 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_range_and_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 4, (1, 5, 5))
        gt = rng.integers(0, 4, (1, 5, 5))
        base = miou(LabelMap(pred, 4), LabelMap(gt, 4), 4)
        assert 0.0 <= base <= 1.0
        perm = rng.permutation(4)
        permuted = miou(LabelMap(perm[pred], 4), LabelMap(perm[gt], 4), 4)
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_pix_acc_range(self):
        rng = np.random.default_rng(0)
        pred = LabelMap(rng.integers(0, 3, (2, 4, 4)), 3)
        gt = LabelMap(rng.integers(0, 3, (2, 4, 4)), 3)
        assert 0.0 <= pix_acc(pred, gt) <= 1.0


class TestSpeckle:
    def test_constant_map(self):
        assert speckle_rate(LabelMap(np.zeros((1, 5, 5), int), 2)) == 0.0

    def test_perfect_checkerboard(self):
        grid = (np.arange(6)[:, None] + np.arange(6)[None, :]) % 2
        assert speckle_rate(LabelMap(grid[None], 2)) == 1.0

    def test_planted_isolated_pixel(self):
        labels = np.zeros((1, 5, 5), int)
        labels[0, 2, 2] = 1
        assert speckle_rate(LabelMap(labels, 2)) == pytest.approx(1 / 9)

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            labels = LabelMap(rng.integers(0, 3, (1, 6, 6)), 3)
            assert 0.0 <= speckle_rate(labels) <= 1.0

    def test_too_small(self):
        with pytest.raises(ShapeError):
            speckle_rate(LabelMap(np.zeros((1, 2, 5), int), 2))
