"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Runtime note: criterion 7 trains ten full default-scale models, two at a
time in worker processes, and dominates the suite's wall time (minutes). It
is marked `slow`, so `pytest -m "not slow"` runs everything else.
"""

import multiprocessing
import time

import numpy as np
import pytest

from _oracles import (
    oracle_corner,
    oracle_guided,
    oracle_pixel_shuffle_delta_tensor,
    oracle_regression,
)
from lau.checks import lau_gradcheck, network_gradcheck
from lau.cli import ExperimentConfig, main
from lau.core import LabelMap
from lau.losses import (
    CandidateSet,
    CoordinateMap,
    LossMap,
    guided_terms,
    regression_terms,
    select_theta_opt,
)
from lau.net import evaluate, poly_lr, train
from lau.samplers import (
    CORNERS,
    OffsetField,
    bilinear_upsample,
    corner_upsample,
    lau_forward,
    pixel_shuffle,
    pixel_unshuffle,
)
from lau.synth import Tally


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


class Stopwatch:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.seconds = time.monotonic() - self.t0


def test_criterion_1_zero_offset_degeneration():
    rng = np.random.default_rng(101)
    with Stopwatch() as sw:
        worst = 0.0
        for trial in range(50):
            n = int(rng.integers(1, 3))
            c = int(rng.integers(1, 5))
            h = int(rng.integers(1, 6))
            w = int(rng.integers(1, 6))
            k = int(rng.choice([1, 2, 4, 8]))
            u = rng.normal(size=(n, c, h, w))
            off = OffsetField.zeros(n, 1, k * h, k * w)
            diff = float(np.abs(lau_forward(u, off, k) - bilinear_upsample(u, k)).max())
            worst = max(worst, diff)
    report(1, "zero-offset degeneration", worst <= 1e-12 and sw.seconds < 5.0,
           f"max abs diff {worst:.2e} in {sw.seconds:.1f}s")


def test_criterion_2_sampler_gradients():
    with Stopwatch() as sw:
        rep = lau_gradcheck(seed=2026, cases=100)
    ok = rep.max_rel_err <= 1e-5 and not rep.failures and sw.seconds < 30.0
    report(2, "sampler gradient correctness", ok,
           f"max rel err {rep.max_rel_err:.2e} over {rep.cases} configs in {sw.seconds:.1f}s")


def test_criterion_3_pixel_shuffle():
    rng = np.random.default_rng(103)
    with Stopwatch() as sw:
        for _ in range(20):
            k = int(rng.choice([1, 2, 3]))
            g = int(rng.integers(1, 4))
            h = int(rng.integers(1, 4))
            w = int(rng.integers(1, 4))
            u = rng.normal(size=(2, g * k * k, h, w))
            assert np.array_equal(pixel_unshuffle(pixel_shuffle(u, k), k), u)
            v = rng.normal(size=(1, g, h * k, w * k))
            assert np.array_equal(pixel_shuffle(pixel_unshuffle(v, k), k), v)
        for k in (1, 2, 3):
            for n in (1, 2):
                for c in range(1, 19):
                    if c % (k * k):
                        continue
                    for h in (1, 2, 3):
                        for w in (1, 2, 3):
                            u = rng.normal(size=(n, c, h, w))
                            got = pixel_shuffle(u, k)
                            want = oracle_pixel_shuffle_delta_tensor(u, k)
                            assert np.array_equal(got, want), (n, c, h, w, k)
    report(3, "pixel shuffle bijection + delta-kernel oracle", sw.seconds < 5.0,
           f"in {sw.seconds:.1f}s")


def test_criterion_4_corner_samplers():
    rng = np.random.default_rng(104)
    with Stopwatch() as sw:
        for trial in range(50):
            n = int(rng.integers(1, 3))
            c = int(rng.integers(1, 3))
            # include w=1/h=1 and large k so ceil indices clip at the border
            h = int(rng.integers(1, 4))
            w = int(rng.integers(1, 4))
            k = int(rng.choice([1, 2, 3, 4, 5]))
            corner = CORNERS[int(rng.integers(0, 4))]
            u = rng.normal(size=(n, c, h, w))
            assert np.array_equal(corner_upsample(u, k, corner), oracle_corner(u, k, corner))
    report(4, "corner samplers vs indicator oracle", sw.seconds < 5.0, f"in {sw.seconds:.1f}s")


def test_criterion_5_losses():
    rng = np.random.default_rng(105)
    with Stopwatch() as sw:
        worst = 0.0
        for _ in range(100):
            shape = (1, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            valid = np.ones(shape, dtype=bool)
            l_map = LossMap(rng.uniform(0, 3, shape), valid)
            aux = LossMap(rng.uniform(0, 3, shape), valid)
            lam = float(rng.uniform(0, 0.5))
            got = guided_terms(l_map, aux, lam)[0].values
            want = oracle_guided(l_map.values, aux.values, lam)
            worst = max(worst, float(np.abs(got - want).max()))

            losses = [LossMap(rng.uniform(0, 3, shape), valid) for _ in range(5)]
            coords = [
                CoordinateMap(rng.uniform(-2, 5, shape), rng.uniform(-2, 5, shape))
                for _ in range(5)
            ]
            cs = CandidateSet(losses, coords)
            gamma = float(rng.uniform(0, 0.5))
            got = regression_terms(cs, gamma, lam)[0].values
            want = oracle_regression(cs, gamma, lam)
            worst = max(worst, float(np.abs(got - want).max()))
        # constructed ties: equal losses everywhere -> refined (index 0) wins;
        # ties among corners only -> lowest corner index wins
        ones = np.ones((1, 1, 1))
        valid = np.ones((1, 1, 1), dtype=bool)
        tied = CandidateSet(
            [LossMap(ones.copy(), valid) for _ in range(5)],
            [CoordinateMap(np.full((1, 1, 1), float(i)), ones * 0) for i in range(5)],
        )
        tie_ok = select_theta_opt(tied).px[0, 0, 0] == 0.0
        corner_tied = CandidateSet(
            [LossMap(ones * 2, valid)] + [LossMap(ones.copy(), valid) for _ in range(4)],
            [CoordinateMap(np.full((1, 1, 1), float(i)), ones * 0) for i in range(5)],
        )
        tie_ok &= select_theta_opt(corner_tied).px[0, 0, 0] == 1.0
    report(5, "loss brute-force recomputation", worst <= 1e-12 and tie_ok and sw.seconds < 10.0,
           f"max abs diff {worst:.2e}, tie-break ok={bool(tie_ok)}, in {sw.seconds:.1f}s")


def test_criterion_6_end_to_end_gradients():
    with Stopwatch() as sw:
        reports = [network_gradcheck(seed=0, loss_kind=kind) for kind in ("ce", "off", "reg")]
    worst = max(r.max_rel_err for r in reports)
    ok = worst <= 1e-4 and all(not r.failures for r in reports) and sw.seconds < 60.0
    detail = ", ".join(f"{r.subject}={r.max_rel_err:.2e}" for r in reports)
    report(6, "end-to-end parameter gradients", ok, f"{detail} in {sw.seconds:.1f}s")


def _criterion_7_run(task):
    """One criterion-7 training run: (final val mIoU, its wall time in seconds).

    Only the final val split is evaluated: evaluating between epochs leaves
    the trained parameters byte-equal, so the mIoU is the one `lau train`
    writes in its last metrics.csv row.
    """
    seed, upsampler, loss = task
    cfg = ExperimentConfig(seed=seed, upsampler=upsampler, loss=loss)
    cfg.validate()
    train_set, val_set = cfg.datasets()
    tc = cfg.to_train_config()
    with Stopwatch() as sw:
        *_, net = train(tc, train_set)
        miou = evaluate(net, tc, val_set)["miou"]
    return miou, sw.seconds


@pytest.mark.slow
def test_criterion_7_directional_training_claim(monkeypatch):
    seeds = [0, 1, 2, 3, 4]
    tasks = [(seed, upsampler, loss) for seed in seeds
             for upsampler, loss in (("bilinear", "ce"), ("lau", "off"))]
    # The runs are independent, so two worker processes share them. Spawned
    # workers load numpy under this environment, each with one BLAS thread;
    # training bytes do not depend on the BLAS thread count.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        # a hung worker fails the test; ten runs in a row within the bound fit
        runs = pool.map_async(_criterion_7_run, tasks, chunksize=1).get(timeout=len(tasks) * 300.0)
    mious = {task: miou for task, (miou, _) in zip(tasks, runs)}
    base_scores = [mious[seed, "bilinear", "ce"] for seed in seeds]
    lau_scores = [mious[seed, "lau", "off"] for seed in seeds]
    slowest = max(seconds for _, seconds in runs)
    mean_lau = float(np.mean(lau_scores))
    mean_base = float(np.mean(base_scores))
    ok = mean_lau >= mean_base and slowest < 300.0
    # default-run feasibility: the toy task must be solidly learnable
    ok &= all(s > 0.5 for s in lau_scores)
    report(7, "directional training claim", ok,
           f"mean val mIoU lau_off={mean_lau:.4f} vs bilinear={mean_base:.4f} "
           f"(per-seed lau {[f'{s:.3f}' for s in lau_scores]}), slowest run {slowest:.0f}s")


def test_criterion_8_sweep_plumbing(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        '{"image_size": 16, "output_stride": 4, "lau_ratio": 2, "classes": 3,'
        ' "epochs": 1, "batch": 4, "train_count": 8, "val_count": 4,'
        ' "hidden_channels": 8, "seed": 0}'
    )
    out = tmp_path / "sweep"
    rc = main(["sweep", "--param", "lambda", "--values", "0,0.1,0.2,0.3,0.4",
               "--config", str(cfg_path), "--out", str(out), "--seeds", "0,1"])
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    ok = rc == 0 and lines[0] == "param,value,seed,final_miou,final_pixacc"
    per_seed = {}
    for line in lines[1:]:
        param, value, seed, miou_v, pixacc_v = line.split(",")
        ok &= param == "lambda" and miou_v != "" and pixacc_v != ""
        per_seed.setdefault(seed, []).append(value)
    ok &= all(vals == ["0", "0.1", "0.2", "0.3", "0.4"] for vals in per_seed.values())
    ok &= len(per_seed) == 2
    report(8, "sweep plumbing", ok, f"{len(lines) - 1} rows, exit {rc}")


def test_criterion_9_poly_schedule():
    halfway = poly_lr(0.001, 500, 1000, 0.9)
    ok = abs(halfway - 5.3589e-4) <= 1e-8
    ok &= poly_lr(0.001, 0, 1000, 0.9) == 0.001
    ok &= poly_lr(0.001, 1000, 1000, 0.9) == 0.0
    report(9, "poly schedule", ok, f"halfway {halfway:.6e}")


def test_criterion_10_checkerboard_detector():
    grid = (np.arange(7)[:, None] + np.arange(7)[None, :]) % 2
    planted = np.zeros((1, 5, 5), int)
    planted[0, 2, 2] = 1
    maps = [LabelMap(np.zeros((1, 5, 5), int), 2), LabelMap(grid[None], 2), LabelMap(planted, 2)]
    const, checker, fixture = (Tally.of(m, m).speckle_rate() for m in maps)
    ok = const == 0.0 and checker == 1.0 and abs(fixture - 1 / 9) <= 1e-12
    report(10, "checkerboard detector", ok,
           f"const={const} checker={checker} planted={fixture:.4f}")
