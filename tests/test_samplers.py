"""Sampler tests: every kernel against a brute-force oracle, every backward
against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lau.core import ShapeError
from lau.samplers import (
    CORNERS,
    Corner,
    OffsetField,
    bilinear_upsample,
    bilinear_upsample_backward,
    corner_upsample,
    lau_backward,
    lau_forward,
    pixel_shuffle,
    pixel_unshuffle,
)

from _oracles import (
    add_at_bilinear_upsample_backward,
    assert_adjoint,
    gather_bilinear_upsample,
    oracle_corner,
    oracle_kernel_sum,
    oracle_pixel_shuffle,
    random_safe_offsets,
)


class TestBilinear:
    def test_identity_ratio(self):
        u = np.random.default_rng(0).normal(size=(2, 3, 4, 5))
        assert np.array_equal(bilinear_upsample(u, 1), u)

    def test_constant_field(self):
        u = np.full((1, 2, 3, 4), 5.0)
        for k in (1, 2, 3, 5):
            assert np.abs(bilinear_upsample(u, k) - 5.0).max() <= 1e-12

    def test_2x2_hand_case(self):
        u = np.array([[[[0.0, 1.0], [2.0, 3.0]]]])
        v = bilinear_upsample(u, 2)
        assert v[0, 0, 1, 1] == pytest.approx(1.5)
        assert np.allclose(v, oracle_kernel_sum(u, 2), atol=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_kernel_sum_oracle(self, k):
        rng = np.random.default_rng(10 + k)
        u = rng.normal(size=(2, 2, 3, 4))
        assert np.allclose(bilinear_upsample(u, k), oracle_kernel_sum(u, k), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4))
    def test_partition_of_unity(self, k, c, h, w):
        u = np.full((1, c, h, w), 3.7)
        assert np.abs(bilinear_upsample(u, k) - 3.7).max() <= 1e-12


class TestLauForward:
    def test_zero_offsets_degenerate_to_bilinear(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            n, c = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            k = int(rng.choice([1, 2, 4, 8]))
            u = rng.normal(size=(n, c, h, w))
            for m in (1, c):
                off = OffsetField.zeros(n, m, k * h, k * w)
                assert np.array_equal(lau_forward(u, off, k), bilinear_upsample(u, k))

    def test_exact_lattice_hit(self):
        # offset chosen so the source point lands exactly on input pixel (1, 0)
        u = np.arange(4.0).reshape(1, 1, 2, 2)
        off = OffsetField.zeros(1, 1, 4, 4)
        off.dx[0, 0, 1, 1] = -0.5  # x: 1/2 - 1/2 = 0
        off.dy[0, 0, 1, 1] = 0.5  # y: 1/2 + 1/2 = 1
        v = lau_forward(u, off, 2)
        assert v[0, 0, 1, 1] == u[0, 0, 1, 0]

    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_kernel_sum_oracle(self, m):
        rng = np.random.default_rng(2)
        u = rng.normal(size=(1, 2, 2, 2))
        off = OffsetField(rng.uniform(-1, 1, (1, m, 4, 4)), rng.uniform(-1, 1, (1, m, 4, 4)))
        v = lau_forward(u, off, 2)
        assert np.allclose(v, oracle_kernel_sum(u, 2, off.dx, off.dy, m), atol=1e-12)

    def test_linear_in_features(self):
        rng = np.random.default_rng(3)
        u1 = rng.normal(size=(1, 2, 3, 3))
        u2 = rng.normal(size=(1, 2, 3, 3))
        off = OffsetField(rng.uniform(-1, 1, (1, 1, 6, 6)), rng.uniform(-1, 1, (1, 1, 6, 6)))
        lhs = lau_forward(2.0 * u1 - 3.0 * u2, off, 2)
        rhs = 2.0 * lau_forward(u1, off, 2) - 3.0 * lau_forward(u2, off, 2)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_resolution_mismatch(self):
        u = np.zeros((1, 1, 2, 2))
        with pytest.raises(ShapeError):
            lau_forward(u, OffsetField.zeros(1, 1, 3, 4), 2)

    def test_bad_group_count(self):
        u = np.zeros((1, 3, 2, 2))
        with pytest.raises(ShapeError):
            lau_forward(u, OffsetField.zeros(1, 2, 4, 4), 2)


class TestLauBackward:
    def fd_scalar(self, u, off, k, dv):
        return float((lau_forward(u, off, k) * dv).sum())

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        hstep = 1e-6
        for trial in range(10):
            n, c, m = 1, int(rng.integers(1, 3)), 1
            h, w = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            k = int(rng.choice([1, 2, 3]))
            u = rng.normal(size=(n, c, h, w))
            off = random_safe_offsets(rng, n, m, h, w, k)
            dv = rng.normal(size=(n, c, k * h, k * w))
            du, doff = lau_backward(u, off, k, dv)
            for idx in np.ndindex(u.shape):
                up, um = u.copy(), u.copy()
                up[idx] += hstep
                um[idx] -= hstep
                num = (self.fd_scalar(up, off, k, dv) - self.fd_scalar(um, off, k, dv)) / (2 * hstep)
                assert abs(du[idx] - num) / max(1e-8, abs(du[idx]) + abs(num)) <= 1e-5
            for arr, grad in ((off.dx, doff.dx), (off.dy, doff.dy)):
                for idx in np.ndindex(arr.shape):
                    orig = arr[idx]
                    arr[idx] = orig + hstep
                    fp = self.fd_scalar(u, off, k, dv)
                    arr[idx] = orig - hstep
                    fm = self.fd_scalar(u, off, k, dv)
                    arr[idx] = orig
                    num = (fp - fm) / (2 * hstep)
                    a = grad[idx]
                    assert abs(a - num) / max(1e-8, abs(a) + abs(num)) <= 1e-5

    def test_far_offsets_zero_gradient(self):
        # source point >= 1 away from every column: no kernel support, no slope
        u = np.ones((1, 1, 2, 2))
        off = OffsetField.zeros(1, 1, 2, 2)
        off.dx[...] = 5.0  # q far right of the grid, clamped regime
        dv = np.ones((1, 1, 2, 2))
        _, doff = lau_backward(u, off, 1, dv)
        assert np.all(doff.dx == 0.0)

    def test_zero_upstream_gradient(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=(1, 2, 3, 3))
        off = OffsetField(rng.uniform(-1, 1, (1, 1, 6, 6)), rng.uniform(-1, 1, (1, 1, 6, 6)))
        du, doff = lau_backward(u, off, 2, np.zeros((1, 2, 6, 6)))
        assert np.all(du == 0) and np.all(doff.dx == 0) and np.all(doff.dy == 0)

    def test_linear_in_upstream_gradient(self):
        rng = np.random.default_rng(6)
        u = rng.normal(size=(1, 2, 3, 3))
        off = OffsetField(rng.uniform(-1, 1, (1, 1, 6, 6)), rng.uniform(-1, 1, (1, 1, 6, 6)))
        dv1 = rng.normal(size=(1, 2, 6, 6))
        dv2 = rng.normal(size=(1, 2, 6, 6))
        du_a, doff_a = lau_backward(u, off, 2, 2.0 * dv1 + dv2)
        du_1, doff_1 = lau_backward(u, off, 2, dv1)
        du_2, doff_2 = lau_backward(u, off, 2, dv2)
        assert np.allclose(du_a, 2.0 * du_1 + du_2, atol=1e-12)
        assert np.allclose(doff_a.dx, 2.0 * doff_1.dx + doff_2.dx, atol=1e-12)

    @pytest.mark.parametrize("m", ["shared", "per-channel"])
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
           st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
    def test_du_adjoint_identity(self, m, n, c, h, w, k, zero, seed):
        rng = np.random.default_rng(seed)
        groups = 1 if m == "shared" else c
        shape = (n, groups, k * h, k * w)
        if zero:
            off = OffsetField.zeros(*shape)
        else:
            off = OffsetField(rng.uniform(-1.5, 1.5, shape), rng.uniform(-1.5, 1.5, shape))
        u = rng.normal(size=(n, c, h, w))
        dv = rng.normal(size=(n, c, k * h, k * w))
        du, _ = lau_backward(u, off, k, dv)
        assert_adjoint(u, lau_forward(u, off, k), dv, du)

    def test_per_channel_groups(self):
        rng = np.random.default_rng(7)
        c = 3
        u = rng.normal(size=(1, c, 2, 2))
        off = random_safe_offsets(rng, 1, c, 2, 2, 2)
        dv = rng.normal(size=(1, c, 4, 4))
        du, doff = lau_backward(u, off, 2, dv)
        assert doff.dx.shape == (1, c, 4, 4)
        hstep = 1e-6
        idx = (0, 1, 2, 3)
        orig = off.dx[idx]
        off.dx[idx] = orig + hstep
        fp = self.fd_scalar(u, off, 2, dv)
        off.dx[idx] = orig - hstep
        fm = self.fd_scalar(u, off, 2, dv)
        off.dx[idx] = orig
        num = (fp - fm) / (2 * hstep)
        a = doff.dx[idx]
        assert abs(a - num) / max(1e-8, abs(a) + abs(num)) <= 1e-5


class TestPixelShuffle:
    def test_k2_channel_block(self):
        u = np.arange(4.0).reshape(1, 4, 1, 1)
        v = pixel_shuffle(u, 2)
        assert np.array_equal(v[0, 0], [[0.0, 1.0], [2.0, 3.0]])

    def test_identity_ratio(self):
        u = np.random.default_rng(0).normal(size=(2, 3, 2, 2))
        assert np.array_equal(pixel_shuffle(u, 1), u)
        assert np.array_equal(pixel_unshuffle(u, 1), u)

    def test_matches_delta_kernel_oracle(self):
        rng = np.random.default_rng(8)
        u = rng.normal(size=(1, 9, 2, 2))
        assert np.array_equal(pixel_shuffle(u, 3), oracle_pixel_shuffle(u, 3))

    def test_round_trips(self):
        rng = np.random.default_rng(9)
        u = rng.normal(size=(2, 8, 3, 2))
        assert np.array_equal(pixel_unshuffle(pixel_shuffle(u, 2), 2), u)
        v = rng.normal(size=(2, 2, 6, 4))
        assert np.array_equal(pixel_shuffle(pixel_unshuffle(v, 2), 2), v)

    def test_unshuffle_is_adjoint(self):
        rng = np.random.default_rng(10)
        u = rng.normal(size=(2, 8, 3, 2))
        v = rng.normal(size=(2, 2, 6, 4))
        assert_adjoint(u, pixel_shuffle(u, 2), v, pixel_unshuffle(v, 2))

    def test_rejects_indivisible_channels(self):
        with pytest.raises(ShapeError):
            pixel_shuffle(np.zeros((1, 3, 2, 2)), 2)

    def test_rejects_indivisible_spatial(self):
        with pytest.raises(ShapeError):
            pixel_unshuffle(np.zeros((1, 1, 3, 4)), 2)


class TestCorner:
    def test_floor_floor_hand_case(self):
        u = np.array([[[[0.0, 1.0], [2.0, 3.0]]]])
        v = corner_upsample(u, 2, Corner("floor", "floor"))
        expected = [[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]]
        assert np.array_equal(v[0, 0], expected)

    def test_identity_ratio(self):
        u = np.random.default_rng(0).normal(size=(1, 2, 3, 3))
        for corner in CORNERS:
            assert np.array_equal(corner_upsample(u, 1, corner), u)

    def test_corners_agree_on_integer_points(self):
        rng = np.random.default_rng(11)
        u = rng.normal(size=(1, 1, 3, 3))
        k = 2
        outs = [corner_upsample(u, k, c) for c in CORNERS]
        for y in range(0, 3 * k, k):
            for x in range(0, 3 * k, k):
                vals = {float(o[0, 0, y, x]) for o in outs}
                assert len(vals) == 1

    @pytest.mark.parametrize("corner", CORNERS, ids=str)
    def test_matches_indicator_oracle(self, corner):
        rng = np.random.default_rng(12)
        for _ in range(10):
            h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            k = int(rng.choice([1, 2, 3, 4]))
            u = rng.normal(size=(1, 2, h, w))
            assert np.array_equal(corner_upsample(u, k, corner), oracle_corner(u, k, corner))

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            Corner("floor", "round")


class TestBilinearBackward:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 2), st.integers(1, 3), st.integers(1, 6),
           st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_adjoint_identity(self, k, n, c, h, w, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(n, c, h, w))
        dv = rng.normal(size=(n, c, k * h, k * w))
        assert_adjoint(u, bilinear_upsample(u, k), dv, bilinear_upsample_backward(u.shape, k, dv))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
    def test_bytes_match_gather_reference(self, k):
        # the phase-sliced forward and its adjoint give the same bytes as the
        # gather / np.add.at reference, one-pixel edges included
        rng = np.random.default_rng(k)
        for shape in ((2, 3, 1, 1), (1, 2, 1, 5), (3, 1, 4, 1), (2, 3, 5, 7), (8, 4, 8, 8),
                      (64, 4, 8, 8), (8, 4, 32, 32)):
            u = rng.normal(size=shape)
            dv = rng.normal(size=shape[:2] + (k * shape[2], k * shape[3]))
            assert np.array_equal(bilinear_upsample(u, k), gather_bilinear_upsample(u, k))
            assert np.array_equal(bilinear_upsample_backward(shape, k, dv),
                                  add_at_bilinear_upsample_backward(shape, k, dv))

    def test_matches_lau_backward_at_zero_offsets(self):
        rng = np.random.default_rng(14)
        u = rng.normal(size=(1, 2, 3, 3))
        dv = rng.normal(size=(1, 2, 6, 6))
        du_direct = bilinear_upsample_backward(u.shape, 2, dv)
        du_lau, _ = lau_backward(u, OffsetField.zeros(1, 1, 6, 6), 2, dv)
        assert np.allclose(du_direct, du_lau, atol=1e-12)
