"""Tensor plumbing, RNG, and binary dump tests."""

import numpy as np
import pytest

from lau.core import (
    LabelMap,
    Rng,
    ShapeError,
    as_tensor4,
    atomic_write,
    mix_seed,
    read_tensor,
    write_tensor,
)


def reference_splitmix64(seed, count):
    """Independent reference: textbook SplitMix64, written from the constants."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestRng:
    def test_splitmix_reference_first_output(self):
        # frozen from the reference oracle below at seed 0
        assert Rng(0).next_u64() == 0xE220A8397B1DCDAF

    def test_splitmix_reference_sequences(self):
        for seed in (0, 1, 42, 2**63):
            rng = Rng(seed)
            assert [rng.next_u64() for _ in range(64)] == reference_splitmix64(seed, 64)

    def test_same_seed_same_draws(self):
        a, b = Rng(7), Rng(7)
        assert [a.uniform() for _ in range(1000)] == [b.uniform() for _ in range(1000)]

    def test_uniform_range(self):
        rng = Rng(3)
        draws = [rng.uniform() for _ in range(10_000)]
        assert all(0.0 <= u < 1.0 for u in draws)

    def test_normal_zero_std_is_mean(self):
        rng = Rng(5)
        assert rng.normal(2.5, 0.0) == 2.5

    def test_normal_sample_mean(self):
        # statistical oracle: at n=1e5 the standard error is ~0.0032
        rng = Rng(123)
        total = sum(rng.normal() for _ in range(100_000))
        assert abs(total / 100_000) < 0.02

    def test_normal_affine_property(self):
        a, b = Rng(9), Rng(9)
        for _ in range(100):
            z = a.normal(0.0, 1.0)
            assert b.normal(1.5, 2.0) == 1.5 + 2.0 * z

    def test_normal_finite(self):
        rng = Rng(11)
        assert np.isfinite(rng.normals((5000,))).all()

    def test_uniforms_match_published_stream(self):
        # the first five published SplitMix64 outputs for seed 0, each shifted
        # right 11 and scaled by 2^-53; integer arithmetic only, so this holds
        # on any IEEE-754 platform
        published = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
                     0xF88BB8A8724C81EC, 0x1B39896A51A8749B]
        want = [7956156453446585, 3886858653415212, 238094247788840,
                8744927430068624, 957885841028366]
        assert [z >> 11 for z in published] == want
        assert Rng(0).uniforms((5,)).tolist() == [m * 2.0**-53 for m in want]

    def test_mix_seed_order_free(self):
        assert mix_seed(4, 10) == mix_seed(4, 10)
        assert mix_seed(4, 10) != mix_seed(4, 11)
        assert mix_seed(5, 10) != mix_seed(4, 10)


SEEDS = (0, 1, 2**63, 2**64 - 1)
SHAPES = ((1,), (7,), (4, 8, 8), (64, 64, 3, 3))


class TestArrayDraws:
    """Array draws are the scalar stream, byte for byte, state included."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_uniforms_equal_scalar_loop(self, seed, shape):
        bulk, scalar = Rng(seed), Rng(seed)
        got = bulk.uniforms(shape)
        want = np.array([scalar.uniform() for _ in range(int(np.prod(shape)))]).reshape(shape)
        assert got.dtype == np.float64 and got.shape == shape
        assert np.array_equal(got, want)
        assert bulk.state == scalar.state

    @pytest.mark.parametrize("mean, std", [(0.0, 1.0), (0.0, 0.25), (1.5, 2.0)])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_normals_equal_scalar_loop(self, seed, shape, mean, std):
        bulk, scalar = Rng(seed), Rng(seed)
        got = bulk.normals(shape, mean, std)
        want = np.array(
            [scalar.normal(mean, std) for _ in range(int(np.prod(shape)))]
        ).reshape(shape)
        assert got.dtype == np.float64 and got.shape == shape
        assert np.array_equal(got, want)
        assert bulk.state == scalar.state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_interleaved_with_scalar_draws(self, seed):
        bulk, scalar = Rng(seed), Rng(seed)
        got = [bulk.next_u64(), bulk.uniform(), *bulk.uniforms((3, 5)).ravel(), bulk.normal(),
               *bulk.normals((2, 3), 0.5, 3.0).ravel(), bulk.randint(0, 1000), bulk.uniform()]
        want = [scalar.next_u64(), scalar.uniform(), *(scalar.uniform() for _ in range(15)),
                scalar.normal(), *(scalar.normal(0.5, 3.0) for _ in range(6)),
                scalar.randint(0, 1000), scalar.uniform()]
        assert got == want
        assert bulk.state == scalar.state

    def test_normals_call_no_numpy_transcendental(self, monkeypatch):
        # the noise keeps the C library's log1p and cos, as the scalar draw
        want = Rng(5).normals((3, 4), 0.0, 0.25)
        for name in ("log1p", "cos", "exp", "log"):
            monkeypatch.setattr(np, name, None)
        assert np.array_equal(Rng(5).normals((3, 4), 0.0, 0.25), want)

    def test_empty_shapes_draw_nothing(self):
        rng = Rng(3)
        assert rng.uniforms((0,)).shape == (0,)
        assert rng.normals((2, 0)).shape == (2, 0)
        assert rng.state == 3

    @pytest.mark.parametrize("shape", [(-1,), (3, -2)])
    def test_negative_dimension_rejected(self, shape):
        rng = Rng(3)
        for draw in (rng.uniforms, rng.normals):
            with pytest.raises(ValueError):
                draw(shape)
        assert rng.state == 3


class TestTensor4:
    def test_validates_rank(self):
        with pytest.raises(ShapeError):
            as_tensor4(np.zeros((2, 3)))

    def test_rejects_nan(self):
        bad = np.zeros((1, 1, 2, 2))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            as_tensor4(bad)

    def test_dump_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(2, 3, 4, 5))
        path = tmp_path / "t.bin"
        write_tensor(path, u)
        back = read_tensor(path)
        assert back.shape == u.shape
        assert np.array_equal(back, u)

    def test_dump_header_layout(self, tmp_path):
        u = np.arange(6.0).reshape(1, 1, 2, 3)
        path = tmp_path / "t.bin"
        write_tensor(path, u)
        raw = path.read_bytes()
        assert len(raw) == 16 + 8 * 6
        assert np.array_equal(np.frombuffer(raw[:16], dtype="<u4"), [1, 1, 2, 3])
        assert np.array_equal(np.frombuffer(raw[16:], dtype="<f8"), np.arange(6.0))

    def test_truncated_dump(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensor(path, np.zeros((1, 1, 2, 2)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(IOError):
            read_tensor(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensor(path, np.zeros((1, 1, 1, 1)))
        path.write_bytes(path.read_bytes() + b"\0" * 7)
        with pytest.raises(IOError, match="trailing"):
            read_tensor(path)

    def test_huge_header_rejected_before_reading(self, tmp_path):
        # dims 65535^4 claim about 1.5e20 bytes; the size check must fire
        # before any read of that length is attempted
        path = tmp_path / "t.bin"
        path.write_bytes(np.array([65535] * 4, dtype="<u4").tobytes())
        with pytest.raises(IOError, match="truncated"):
            read_tensor(path)


class TestLabelMap:
    def test_valid_mask(self):
        lm = LabelMap(np.array([[[0, -1], [2, 1]]]), 3)
        assert lm.valid.tolist() == [[[True, False], [True, True]]]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LabelMap(np.array([[[5]]]), 3)


class TestAtomicWrite:
    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("old\n")
        with atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_bytes(b"epoch,split\n0,train\n")
        with pytest.raises(RuntimeError, match="midway"):
            with atomic_write(path) as fh:
                fh.write("epoch,split\n")
                fh.flush()
                raise RuntimeError("midway")
        assert path.read_bytes() == b"epoch,split\n0,train\n"
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]
