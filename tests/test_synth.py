"""Synthetic benchmark tests: generator determinism and metric fixtures."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lau.core import IGNORE, LabelMap, ShapeError
from lau.synth import Tally, gen_sample

from _oracles import mask_miou, mask_pix_acc, mask_speckle_rate


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
        assert Tally.of(gt, gt).pix_acc() == 1.0

    def test_complement(self):
        a = LabelMap(np.zeros((1, 2, 2), int), 2)
        b = LabelMap(np.ones((1, 2, 2), int), 2)
        assert Tally.of(a, b).pix_acc() == 0.0

    def test_three_of_four(self):
        pred = LabelMap(np.array([[[0, 1], [1, 1]]]), 2)
        gt = LabelMap(np.array([[[0, 1], [1, 0]]]), 2)
        assert Tally.of(pred, gt).pix_acc() == 0.75

    def test_ignores_masked_pixels(self):
        pred = LabelMap(np.array([[[0, 1]]]), 2)
        gt = LabelMap(np.array([[[0, -1]]]), 2)
        assert Tally.of(pred, gt).pix_acc() == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tally.of(LabelMap(np.zeros((1, 2, 2), int), 2), LabelMap(np.zeros((1, 2, 3), int), 2))


class TestMiou:
    def test_perfect(self):
        gt = LabelMap(np.array([[[0, 1], [2, 0]]]), 3)
        assert Tally.of(gt, gt).miou(3) == 1.0

    def test_hand_confusion(self):
        pred = LabelMap(np.zeros((1, 2, 2), int), 2)
        gt = LabelMap(np.array([[[0, 0], [1, 1]]]), 2)
        # class 0: inter 2, union 4 -> 0.5; class 1: inter 0, union 2 -> 0
        assert Tally.of(pred, gt).miou(2) == pytest.approx(0.25)

    def test_disjoint_single_classes(self):
        pred = LabelMap(np.zeros((1, 2, 2), int), 2)
        gt = LabelMap(np.ones((1, 2, 2), int), 2)
        assert Tally.of(pred, gt).miou(2) == 0.0

    def test_absent_classes_excluded(self):
        pred = LabelMap(np.zeros((1, 2, 2), int), 8)
        gt = LabelMap(np.zeros((1, 2, 2), int), 8)
        assert Tally.of(pred, gt).miou(8) == 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_range_and_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, 4, (1, 5, 5))
        gt = rng.integers(0, 4, (1, 5, 5))
        base = Tally.of(LabelMap(pred, 4), LabelMap(gt, 4)).miou(4)
        assert 0.0 <= base <= 1.0
        perm = rng.permutation(4)
        permuted = Tally.of(LabelMap(perm[pred], 4), LabelMap(perm[gt], 4)).miou(4)
        assert permuted == pytest.approx(base, abs=1e-12)

    def test_pix_acc_range(self):
        rng = np.random.default_rng(0)
        pred = LabelMap(rng.integers(0, 3, (2, 4, 4)), 3)
        gt = LabelMap(rng.integers(0, 3, (2, 4, 4)), 3)
        assert 0.0 <= Tally.of(pred, gt).pix_acc() <= 1.0


class TestSpeckle:
    def test_constant_map(self):
        const = LabelMap(np.zeros((1, 5, 5), int), 2)
        assert Tally.of(const, const).speckle_rate() == 0.0

    def test_perfect_checkerboard(self):
        grid = (np.arange(6)[:, None] + np.arange(6)[None, :]) % 2
        checker = LabelMap(grid[None], 2)
        assert Tally.of(checker, checker).speckle_rate() == 1.0

    def test_planted_isolated_pixel(self):
        labels = np.zeros((1, 5, 5), int)
        labels[0, 2, 2] = 1
        planted = LabelMap(labels, 2)
        assert Tally.of(planted, planted).speckle_rate() == pytest.approx(1 / 9)

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            labels = LabelMap(rng.integers(0, 3, (1, 6, 6)), 3)
            assert 0.0 <= Tally.of(labels, labels).speckle_rate() <= 1.0

    def test_too_small(self):
        thin = LabelMap(np.zeros((1, 2, 5), int), 2)
        with pytest.raises(ShapeError):
            Tally.of(thin, thin).speckle_rate()


def _draw_map(rng, shape, classes, kind):
    if kind == "single":
        labels = np.full(shape, rng.integers(0, classes))
    elif kind == "ignored":
        labels = np.full(shape, IGNORE)
    else:
        labels = rng.integers(IGNORE, classes, shape)
    return LabelMap(labels, classes)


def _outcome(fn, *args):
    """The float a metric returns, or the type and text of what it raises."""
    try:
        return fn(*args)
    except ValueError as exc:  # ShapeError included
        return type(exc), str(exc)


KINDS = st.sampled_from(["mixed", "single", "ignored"])


class TestTally:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 6), st.integers(2, 5), st.integers(2, 5),
           KINDS, KINDS, st.integers(-1, 7), st.booleans(), st.integers(0, 4), st.integers(0, 2**32 - 1))
    def test_metrics_equal_the_mask_references(self, n, h, w, pred_classes, gt_classes, pred_kind, gt_kind,
                                               miou_classes, mismatch, cut, seed):
        # the same float (==, not approx) or the same error, on the whole
        # maps and on two chunks whose tallies are added
        rng = np.random.default_rng(seed)
        pred = _draw_map(rng, (n, h, w), pred_classes, pred_kind)
        gt = _draw_map(rng, (n, h, w + mismatch), gt_classes, gt_kind)
        expected = (_outcome(mask_pix_acc, pred, gt), _outcome(mask_miou, pred, gt, miou_classes),
                    _outcome(mask_speckle_rate, pred))
        assert (_outcome(lambda: Tally.of(pred, gt).pix_acc()),
                _outcome(lambda: Tally.of(pred, gt).miou(miou_classes)),
                _outcome(lambda: Tally.of(pred, pred).speckle_rate())) == expected
        if mismatch or h < 3 or w < 3:
            return
        cut = min(cut, n)
        parts = [Tally.of(LabelMap(pred.labels[s], pred_classes), LabelMap(gt.labels[s], gt_classes))
                 for s in (slice(0, cut), slice(cut, n))]
        tally = parts[0] + parts[1]
        assert (_outcome(tally.pix_acc), _outcome(tally.miou, miou_classes),
                _outcome(tally.speckle_rate)) == expected

    def test_counts_are_confusion_diagonal_and_margins(self):
        pred = LabelMap(np.array([[[0, 0, 1], [2, IGNORE, 1], [1, 1, 2]]]), 3)
        gt = LabelMap(np.array([[[0, 1, 1], [2, 2, IGNORE], [0, 1, 2]]]), 3)
        tally = Tally.of(pred, gt)
        assert tally.hits.tolist() == [1, 2, 2]
        assert tally.predicted.tolist() == [2, 3, 2]  # the IGNORE prediction is no class
        assert tally.true.tolist() == [2, 3, 3]
        assert (tally.isolated, tally.interior) == (1, 1)

    def test_empty_maps_have_no_interior(self):
        # the whole-map speckle rate divided 0 by 0 here, a nan and a RuntimeWarning
        empty = LabelMap(np.zeros((0, 5, 5), int), 2)
        with pytest.raises(ShapeError, match="no interior pixels"):
            Tally.of(empty, empty).speckle_rate()
