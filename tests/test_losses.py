"""Loss tests: frozen scalar cases, brute-force recomputation oracles, and
the gradient-stopping contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lau.core import LabelMap, ShapeError
from lau.losses import (
    CandidateSet,
    CoordinateMap,
    LossMap,
    build_candidate_set,
    cross_entropy_backward,
    cross_entropy_map,
    guided_terms,
    reduce_loss,
    regression_terms,
    select_theta_opt,
    smooth_l1,
    smooth_l1_grad,
)
from lau.samplers import CORNERS, OffsetField, bilinear_upsample, corner_upsample, lau_forward


def all_valid(values):
    values = np.asarray(values, dtype=np.float64)
    return LossMap(values, np.ones(values.shape, dtype=bool))


def coords(px, py):
    return CoordinateMap(np.asarray(px, dtype=np.float64), np.asarray(py, dtype=np.float64))


def refined_ce(u, off, k, rest, labels):
    """The refined prediction's CE at label resolution, as the loss step has it."""
    return cross_entropy_map(bilinear_upsample(lau_forward(u, off, k), rest), labels)


def random_candidate_set(rng, n=1, h=3, w=3):
    losses = [all_valid(rng.uniform(0, 3, (n, h, w))) for _ in range(5)]
    cs_coords = [
        coords(rng.uniform(-2, 5, (n, h, w)), rng.uniform(-2, 5, (n, h, w))) for _ in range(5)
    ]
    return CandidateSet(losses, cs_coords)


from _oracles import (
    flat_index_theta_opt,
    oracle_guided,
    oracle_regression,
    per_corner_candidate_set,
    put_along_axis_cross_entropy_backward,
    restacked_regression_terms,
    take_along_axis_cross_entropy,
)


class TestCrossEntropy:
    def test_uniform_logits(self):
        for c in (2, 3, 7):
            logits = np.zeros((1, c, 2, 2))
            labels = LabelMap(np.zeros((1, 2, 2), dtype=int), c)
            lm = cross_entropy_map(logits, labels)
            assert np.abs(lm.values - math.log(c)).max() <= 1e-12

    def test_saturated_correct_class(self):
        logits = np.zeros((1, 3, 1, 1))
        logits[0, 1] = 1000.0
        lm = cross_entropy_map(logits, LabelMap(np.array([[[1]]]), 3))
        assert lm.values[0, 0, 0] < 1e-12

    def test_three_class_value(self):
        # frozen from direct log-sum-exp evaluation:
        # log(e^1 + e^2 + e^0.5) - 2.0
        logits = np.array([1.0, 2.0, 0.5]).reshape(1, 3, 1, 1)
        lm = cross_entropy_map(logits, LabelMap(np.array([[[1]]]), 3))
        assert lm.values[0, 0, 0] == pytest.approx(0.4643687841079449, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(2, 4, 3, 3)) * 10
        labels = LabelMap(rng.integers(0, 4, (2, 3, 3)), 4)
        assert (cross_entropy_map(logits, labels).values >= 0).all()

    def test_ignored_pixels_masked(self):
        logits = np.zeros((1, 3, 1, 2))
        labels = LabelMap(np.array([[[1, -1]]]), 3)
        lm = cross_entropy_map(logits, labels)
        assert lm.valid[0, 0, 1] == False  # noqa: E712
        assert lm.values[0, 0, 1] == 0.0

    def test_class_count_mismatch(self):
        with pytest.raises(ShapeError):
            cross_entropy_map(np.zeros((1, 4, 2, 2)), LabelMap(np.zeros((1, 2, 2), int), 3))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 5), st.integers(1, 6), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    def test_bytes_match_take_along_axis_reference(self, n, c, h, w, seed):
        # the flat-index pick reads the same true-class logits, ignored
        # pixels and large logits included
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=10.0, size=(n, c, h, w))
        labels = LabelMap(rng.integers(-1, c, size=(n, h, w)), c)
        lm = cross_entropy_map(logits, labels)
        assert np.array_equal(lm.values, take_along_axis_cross_entropy(logits, labels))
        assert np.array_equal(lm.valid, labels.valid)

    @pytest.mark.parametrize("logits_shape, label_shape, num_classes", [
        ((1, 3, 4, 4), (2, 4, 4), 3),  # batch mismatch, which broadcasting hid
        ((1, 3, 4, 4), (1, 2, 2), 3),  # spatial mismatch
        ((1, 3, 4, 4), (1, 4, 4), 4),  # more classes than logit channels
    ])
    def test_label_mismatch_raises_in_both_halves(self, logits_shape, label_shape, num_classes):
        logits = np.zeros(logits_shape)
        labels = LabelMap(np.zeros(label_shape, int), num_classes)
        with pytest.raises(ShapeError):
            cross_entropy_map(logits, labels)
        with pytest.raises(ShapeError):
            cross_entropy_backward(logits, labels, np.ones(label_shape))

    @pytest.mark.parametrize("weight_shape", [(1, 4, 4), (4,), (2, 1, 1)])
    def test_backward_rejects_broadcastable_weights(self, weight_shape):
        logits = np.zeros((2, 3, 4, 4))
        labels = LabelMap(np.zeros((2, 4, 4), int), 3)
        with pytest.raises(ShapeError, match="weights"):
            cross_entropy_backward(logits, labels, np.ones(weight_shape))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 5), st.integers(1, 6), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    def test_backward_bytes_match_put_along_axis_reference(self, n, c, h, w, seed):
        # (softmax - onehot) * w to the sign bit: the flat-index write sets
        # the same true-class entries, ignored pixels included, whose class-0
        # entry stays -0.0, and so does a zero-weight pixel's true class
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=10.0, size=(n, c, h, w))
        labels = LabelMap(rng.integers(-1, c, size=(n, h, w)), c)
        weights = np.where(rng.random((n, h, w)) < 0.3, 0.0, rng.uniform(0.5, 2.0, (n, h, w)))
        got = cross_entropy_backward(logits, labels, weights)
        assert got.tobytes() == put_along_axis_cross_entropy_backward(logits, labels, weights).tobytes()

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(1, 3, 2, 2))
        labels = LabelMap(rng.integers(0, 3, (1, 2, 2)), 3)
        weights = rng.uniform(0.5, 2.0, (1, 2, 2))
        grad = cross_entropy_backward(logits, labels, weights)
        h = 1e-6
        for idx in np.ndindex(logits.shape):
            lp, lm_ = logits.copy(), logits.copy()
            lp[idx] += h
            lm_[idx] -= h
            fp = float((cross_entropy_map(lp, labels).values * weights).sum())
            fm = float((cross_entropy_map(lm_, labels).values * weights).sum())
            num = (fp - fm) / (2 * h)
            assert abs(grad[idx] - num) <= 1e-6 + 1e-5 * abs(num)


class TestSmoothL1:
    def test_zero_residual(self):
        c = coords(np.full((1, 1, 1), 1.3), np.full((1, 1, 1), -0.4))
        assert smooth_l1(c, c).values[0, 0, 0] == 0.0

    def test_quadratic_branch(self):
        pred = coords([[[0.5]]], [[[0.0]]])
        target = coords([[[0.0]]], [[[0.0]]])
        assert smooth_l1(pred, target).values[0, 0, 0] == pytest.approx(0.125)

    def test_linear_branch(self):
        pred = coords([[[2.0]]], [[[0.0]]])
        target = coords([[[0.0]]], [[[0.0]]])
        assert smooth_l1(pred, target).values[0, 0, 0] == pytest.approx(1.5)

    def test_sums_both_axes(self):
        pred = coords([[[0.5]]], [[[2.0]]])
        target = coords([[[0.0]]], [[[0.0]]])
        assert smooth_l1(pred, target).values[0, 0, 0] == pytest.approx(0.125 + 1.5)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(2)
        pred = coords(rng.uniform(-3, 3, (1, 2, 2)), rng.uniform(-3, 3, (1, 2, 2)))
        target = coords(rng.uniform(-3, 3, (1, 2, 2)), rng.uniform(-3, 3, (1, 2, 2)))
        gx, gy = smooth_l1_grad(pred, target)
        h = 1e-6
        for idx in np.ndindex(pred.px.shape):
            p2 = coords(pred.px.copy(), pred.py.copy())
            p2.px[idx] += h
            fp = smooth_l1(p2, target).values[idx]
            p2.px[idx] -= 2 * h
            fm = smooth_l1(p2, target).values[idx]
            num = (fp - fm) / (2 * h)
            assert abs(gx[idx] - num) <= 1e-6


class TestOffsetGuided:
    def test_strictly_better_keeps_loss(self):
        out = guided_terms(all_valid([[[0.5]]]), all_valid([[[0.7]]]), 0.3)[0]
        assert out.values[0, 0, 0] == pytest.approx(0.5)

    def test_tie_is_penalized(self):
        out = guided_terms(all_valid([[[0.5]]]), all_valid([[[0.5]]]), 0.3)[0]
        assert out.values[0, 0, 0] == pytest.approx(0.65)

    def test_lambda_zero_collapse(self):
        rng = np.random.default_rng(3)
        l_map = all_valid(rng.uniform(0, 2, (1, 3, 3)))
        aux = all_valid(rng.uniform(0, 2, (1, 3, 3)))
        out = guided_terms(l_map, aux, 0.0)[0]
        assert np.array_equal(out.values, l_map.values)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            l_map = all_valid(rng.uniform(0, 2, (1, 3, 3)))
            aux = all_valid(rng.uniform(0, 2, (1, 3, 3)))
            lam = float(rng.uniform(0, 0.5))
            out = guided_terms(l_map, aux, lam)[0]
            assert np.abs(out.values - oracle_guided(l_map.values, aux.values, lam)).max() <= 1e-12

    def test_output_dominates_input(self):
        rng = np.random.default_rng(5)
        l_map = all_valid(rng.uniform(0, 2, (1, 4, 4)))
        aux = all_valid(rng.uniform(0, 2, (1, 4, 4)))
        out = guided_terms(l_map, aux, 0.3)[0]
        assert (out.values >= l_map.values - 1e-15).all()
        equal = np.isclose(out.values, l_map.values)
        strictly_less = l_map.values < aux.values
        assert np.array_equal(equal, strictly_less)


class TestCandidateSet:
    def test_needs_five_entries(self):
        with pytest.raises(ShapeError):
            CandidateSet([all_valid(np.zeros((1, 1, 1)))] * 4, [coords([[[0.0]]], [[[0.0]]])] * 4)

    def test_composition_oracle(self):
        rng = np.random.default_rng(6)
        n, c, h, w, k = 1, 3, 2, 2, 2
        u = rng.normal(size=(n, c, h, w))
        off = OffsetField(rng.uniform(-1, 1, (n, 1, k * h, k * w)),
                          rng.uniform(-1, 1, (n, 1, k * h, k * w)))
        labels = LabelMap(rng.integers(0, c, (n, k * h, k * w)), c)
        cs = build_candidate_set(u, off, k, 1, labels, refined_ce(u, off, k, 1, labels))
        ref0 = cross_entropy_map(lau_forward(u, off, k), labels)
        assert np.array_equal(cs.losses[0].values, ref0.values)
        for i, corner in enumerate(CORNERS):
            ref = cross_entropy_map(corner_upsample(u, k, corner), labels)
            assert np.array_equal(cs.losses[i + 1].values, ref.values)

    def test_refined_coords_are_raw_source_points(self):
        off = OffsetField(np.full((1, 1, 2, 2), 0.25), np.full((1, 1, 2, 2), -0.5))
        u = np.zeros((1, 2, 1, 1))
        labels = LabelMap(np.zeros((1, 2, 2), int), 2)
        cs = build_candidate_set(u, off, 2, 1, labels, refined_ce(u, off, 2, 1, labels))
        assert cs.coords[0].px[0, 0, 1] == pytest.approx(0.5 + 0.25)
        assert cs.coords[0].py[0, 1, 0] == pytest.approx(0.5 - 0.5)

    def test_corner_coords_clipped_integers(self):
        u = np.zeros((1, 2, 2, 2))
        off = OffsetField.zeros(1, 1, 4, 4)
        labels = LabelMap(np.zeros((1, 4, 4), int), 2)
        cs = build_candidate_set(u, off, 2, 1, labels, refined_ce(u, off, 2, 1, labels))
        # ceil of 3/2 = 2 clips to w-1 = 1
        assert cs.coords[2].px[0, 0, 3] == 1.0
        assert cs.coords[1].px[0, 0, 3] == 1.0  # floor(1.5) = 1

    def test_corner_coords_coincide_at_integer_aligned_pixels(self):
        u = np.zeros((1, 2, 3, 3))
        k = 3
        off = OffsetField.zeros(1, 1, 9, 9)
        labels = LabelMap(np.zeros((1, 9, 9), int), 2)
        cs = build_candidate_set(u, off, k, 1, labels, refined_ce(u, off, k, 1, labels))
        for y in range(0, 9, k):
            for x in range(0, 9, k):
                px = {cs.coords[i].px[0, y, x] for i in range(1, 5)}
                py = {cs.coords[i].py[0, y, x] for i in range(1, 5)}
                assert len(px) == 1 and len(py) == 1

    def test_constant_block_labels_equalize_losses(self):
        rng = np.random.default_rng(7)
        k, h, w, c = 2, 2, 2, 3
        u = rng.normal(size=(1, c, h, w))
        block_labels = rng.integers(0, c, (h, w))
        labels_arr = np.repeat(np.repeat(block_labels, k, 0), k, 1)[None]
        labels = LabelMap(labels_arr, c)
        cs = build_candidate_set(u, OffsetField.zeros(1, 1, k * h, k * w), k, 1, labels,
                                 refined_ce(u, OffsetField.zeros(1, 1, k * h, k * w), k, 1, labels))
        # with zero offsets at integer-aligned pixels every sampler reads the
        # same source pixel of a block-constant class map
        for y in range(0, k * h, k):
            for x in range(0, k * w, k):
                vals = [lm.values[0, y, x] for lm in cs.losses]
                assert np.ptp(vals) <= 1e-12

    def test_pooled_bridge_matches_manual_mean(self):
        rng = np.random.default_rng(8)
        from lau.samplers import bilinear_upsample

        n, c, h, w, k, rest = 1, 3, 2, 2, 2, 2
        u = rng.normal(size=(n, c, h, w))
        off = OffsetField(rng.uniform(-1, 1, (n, 1, k * h, k * w)),
                          rng.uniform(-1, 1, (n, 1, k * h, k * w)))
        labels = LabelMap(rng.integers(0, c, (n, rest * k * h, rest * k * w)), c)
        cs = build_candidate_set(u, off, k, rest, labels, refined_ce(u, off, k, rest, labels))
        full = cross_entropy_map(bilinear_upsample(lau_forward(u, off, k), rest), labels)
        manual = full.values.reshape(n, k * h, rest, k * w, rest).mean(axis=(2, 4))
        assert np.allclose(cs.losses[0].values, manual, atol=1e-12)
        assert cs.losses[0].shape == (n, k * h, k * w)

    def test_offsets_off_the_sampler_grid_raise_shape_error(self):
        # checked up front: unchecked, one offset row too many dies in numpy's
        # broadcast_to while the corner coordinates are built
        u = np.zeros((1, 2, 1, 1))
        labels = LabelMap(np.zeros((1, 2, 2), int), 2)
        off = OffsetField.zeros(1, 1, 3, 2)
        with pytest.raises(ShapeError, match="offset dims"):
            build_candidate_set(u, off, 2, 1, labels, all_valid(np.zeros((1, 2, 2))))

    def test_refined_loss_off_the_label_grid_raises_shape_error(self):
        # checked up front: unchecked, at rest 2 one refined row too many dies
        # in numpy's reshape while its blocks are pooled
        u = np.zeros((1, 2, 1, 1))
        labels = LabelMap(np.zeros((1, 4, 4), int), 2)
        refined = all_valid(np.zeros((1, 5, 4)))
        with pytest.raises(ShapeError, match="refined loss"):
            build_candidate_set(u, OffsetField.zeros(1, 1, 2, 2), 2, 2, labels, refined)


    @pytest.mark.parametrize("rest", [0, -1, 2.5])
    def test_bad_bilinear_factor_names_the_ratio(self, rest):
        # the refined loss was pooled before any sampler checked `rest`:
        # a ZeroDivisionError at 0, numpy's "can only specify one unknown
        # dimension" at -1 and a TypeError at 2.5
        u = np.zeros((1, 2, 2, 2))
        labels = LabelMap(np.zeros((1, 4, 4), int), 2)
        with pytest.raises(ValueError, match="upsampling ratio must be an integer >= 1"):
            build_candidate_set(u, OffsetField.zeros(1, 1, 4, 4), 2, rest, labels,
                                all_valid(np.zeros((1, 4, 4))))

    def test_refined_valid_off_the_labels_raises(self):
        # one count per block serves all five means, so the refined loss
        # must be valid exactly where the labels are
        u = np.zeros((1, 2, 1, 1))
        labels = LabelMap(np.array([[[0, -1], [1, 0]]]), 2)
        with pytest.raises(ValueError, match="valid exactly where the labels are"):
            build_candidate_set(u, OffsetField.zeros(1, 1, 2, 2), 2, 1, labels,
                                all_valid(np.zeros((1, 2, 2))))


class TestCandidateSetMatchesPerCornerReference:
    """The stacked, chunked build equals one pipeline per corner, byte for byte.

    Batches 1-9 put the max(n, 4)-row chunks on both sides of a corner
    boundary (n = 2 holds two corners per chunk, n = 3 cuts every chunk
    across two), and the ignored labels leave blocks with every count from
    zero to rest * rest valid pixels.
    """

    @pytest.mark.parametrize("rest", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_output_is_byte_identical(self, n, k, rest):
        rng = np.random.default_rng(1000 * n + 10 * k + rest)
        c, h, w = 3, 2, 3
        u = rng.normal(size=(n, c, h, w))
        shape = (n, 1, k * h, k * w)
        off = OffsetField(rng.uniform(-1.5, 1.5, shape), rng.uniform(-1.5, 1.5, shape))
        full = rng.integers(0, c, (n, rest * k * h, rest * k * w))
        labels = LabelMap(np.where(rng.random(full.shape) < 0.3, -1, full), c)
        refined = refined_ce(u, off, k, rest, labels)

        cs = build_candidate_set(u, off, k, rest, labels, refined)
        ref = per_corner_candidate_set(u, off, k, rest, labels, refined)
        for got, want in zip(cs.losses, ref.losses):
            assert np.array_equal(got.values, want.values) and np.array_equal(got.valid, want.valid)
        for got, want in zip(cs.coords, ref.coords):
            assert np.array_equal(got.px, want.px) and np.array_equal(got.py, want.py)
        assert np.array_equal(cs.loss_stack(), ref.loss_stack())

        theta, theta_ref = select_theta_opt(cs), flat_index_theta_opt(ref)
        assert np.array_equal(theta.px, theta_ref.px) and np.array_equal(theta.py, theta_ref.py)

        out, grad = regression_terms(cs, 0.1, 0.3)
        weights, direct = grad(rest, labels)
        values, valid, ref_weights, ref_dx, ref_dy = restacked_regression_terms(ref, 0.1, 0.3, rest, labels)
        assert np.array_equal(out.values, values) and np.array_equal(out.valid, valid)
        assert np.array_equal(weights, ref_weights)
        assert np.array_equal(direct.dx, ref_dx) and np.array_equal(direct.dy, ref_dy)


class TestThetaOpt:
    def test_refined_wins_when_smallest(self):
        losses = [all_valid([[[0.1]]])] + [all_valid([[[0.5]]]) for _ in range(4)]
        cmaps = [coords([[[float(i)]]], [[[0.0]]]) for i in range(5)]
        sel = select_theta_opt(CandidateSet(losses, cmaps))
        assert sel.px[0, 0, 0] == 0.0

    def test_tie_goes_to_refined(self):
        losses = [all_valid([[[0.5]]]) for _ in range(5)]
        cmaps = [coords([[[float(i)]]], [[[0.0]]]) for i in range(5)]
        sel = select_theta_opt(CandidateSet(losses, cmaps))
        assert sel.px[0, 0, 0] == 0.0

    def test_corner_tie_goes_to_lower_index(self):
        losses = [all_valid([[[0.9]]])] + [all_valid([[[0.2]]]) for _ in range(4)]
        cmaps = [coords([[[float(i)]]], [[[0.0]]]) for i in range(5)]
        sel = select_theta_opt(CandidateSet(losses, cmaps))
        assert sel.px[0, 0, 0] == 1.0

    def test_matches_exhaustive_argmin(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            cs = random_candidate_set(rng)
            sel = select_theta_opt(cs)
            stack = cs.loss_stack()
            for idx in np.ndindex(cs.shape):
                column = stack[(slice(None),) + idx]
                best = 0
                for j in range(5):
                    if column[j] < column[best]:
                        best = j
                assert sel.px[idx] == cs.coords[best].px[idx]
                assert sel.py[idx] == cs.coords[best].py[idx]

    def test_selected_loss_bounds_all(self):
        rng = np.random.default_rng(10)
        cs = random_candidate_set(rng)
        stack = cs.loss_stack()
        best = stack.argmin(axis=0)
        chosen = np.take_along_axis(stack, best[None], axis=0)[0]
        assert (chosen[None] <= stack + 1e-15).all()


class TestRegressionLoss:
    def test_refined_minimum_reduces_to_plain_loss(self):
        losses = [all_valid([[[0.3]]])] + [all_valid([[[0.8]]]) for _ in range(4)]
        cmaps = [coords([[[1.25]]], [[[0.75]]])] + [
            coords([[[float(i)]]], [[[float(i)]]]) for i in range(1, 5)
        ]
        out = regression_terms(CandidateSet(losses, cmaps), 0.1, 0.3)[0]
        assert out.values[0, 0, 0] == pytest.approx(0.3)

    def test_hand_case(self):
        # refined not minimal, selected corner differs by (0.5, 0):
        # 0.1 * 0.125 + 1.0 * 1.3 = 1.3125
        losses = [all_valid([[[1.0]]]), all_valid([[[0.4]]])] + [
            all_valid([[[0.9]]]) for _ in range(3)
        ]
        cmaps = [coords([[[0.5]]], [[[0.0]]])] + [
            coords([[[0.0]]], [[[0.0]]]) for _ in range(4)
        ]
        out = regression_terms(CandidateSet(losses, cmaps), 0.1, 0.3)[0]
        assert out.values[0, 0, 0] == pytest.approx(1.3125)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            cs = random_candidate_set(rng)
            gamma = float(rng.uniform(0, 0.5))
            lam = float(rng.uniform(0, 0.5))
            out = regression_terms(cs, gamma, lam)[0]
            assert np.abs(out.values - oracle_regression(cs, gamma, lam)).max() <= 1e-12

    def test_infinite_corners_collapse(self):
        rng = np.random.default_rng(12)
        main = all_valid(rng.uniform(0, 2, (1, 3, 3)))
        inf = LossMap(np.full((1, 3, 3), np.inf), np.ones((1, 3, 3), bool))
        cmaps = [coords(rng.uniform(-1, 1, (1, 3, 3)), rng.uniform(-1, 1, (1, 3, 3)))
                 for _ in range(5)]
        out = regression_terms(CandidateSet([main, inf, inf, inf, inf], cmaps), 0.0, 0.3)[0]
        assert np.allclose(out.values, main.values)


class TestReduce:
    def test_constant(self):
        assert reduce_loss(all_valid(np.full((1, 3, 3), 2.5))) == pytest.approx(2.5)

    def test_respects_mask(self):
        values = np.array([[[1.0, 1.0], [7.0, 7.0]]])
        valid = np.array([[[True, True], [False, False]]])
        assert reduce_loss(LossMap(np.where(valid, values, 0.0), valid)) == pytest.approx(1.0)

    def test_mean(self):
        values = np.array([[[1.0, 2.0], [3.0, 6.0]]])
        assert reduce_loss(all_valid(values)) == pytest.approx(3.0)

    def test_empty_reduction(self):
        with pytest.raises(ValueError):
            reduce_loss(LossMap(np.zeros((1, 1, 1)), np.zeros((1, 1, 1), bool)))
