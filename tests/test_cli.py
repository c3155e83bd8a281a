"""CLI tests: config validation, command outputs, schemas, determinism."""

import argparse
import concurrent.futures
import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

import lau.cli
import lau.net
from lau.cli import ExperimentConfig, main, write_ppm
from lau.core import ConfigError, write_tensor
from lau.samplers import OffsetField, pixel_shuffle

TINY = {
    "image_size": 16,
    "output_stride": 4,
    "lau_ratio": 2,
    "classes": 3,
    "epochs": 2,
    "batch": 4,
    "train_count": 8,
    "val_count": 4,
    "hidden_channels": 8,
    "seed": 1,
}


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(args, timeout=60, **env):
    """`python -m lau.cli args` in a fresh interpreter; a hang fails the test."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]), **env)
    return subprocess.run([sys.executable, "-m", "lau.cli", *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


# every float-typed config key, by its JSON name
FLOAT_KEYS = ["lambda" if f.name == "lam" else f.name for f in fields(ExperimentConfig) if f.type == "float"]
# every int- or float-typed config key, by its JSON name
NUMBER_KEYS = ["lambda" if f.name == "lam" else f.name for f in fields(ExperimentConfig)
               if f.type in ("int", "float")]


def write_config(tmp_path, **overrides):
    obj = dict(TINY)
    obj.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    return str(path)


class TestConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig()
        cfg.validate()
        assert cfg.lau_ratio == 4 and cfg.output_stride == 8 and cfg.lam == 0.3

    def test_config_cannot_change(self):
        cfg = ExperimentConfig()
        for f in fields(cfg):
            with pytest.raises(FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))

    def test_construction_is_checked(self):
        # no from_json and no validate() call: building the config runs the rules
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(lau_ratio=3)
        assert exc.value.field_name == "lau_ratio"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_json({"learnig_rate": 0.1})
        assert "learnig_rate" in str(exc.value)

    def test_lambda_json_key(self):
        cfg = ExperimentConfig.from_json({"lambda": 0.2})
        assert cfg.lam == 0.2

    @pytest.mark.parametrize(
        "patch,field",
        [
            ({"lau_ratio": 3}, "lau_ratio"),
            ({"image_size": 30}, "image_size"),
            ({"lambda": -1}, "lambda"),
            ({"loss": "dice"}, "loss"),
            ({"momentum": 1.0}, "momentum"),
            ({"classes": 1}, "classes"),
            ({"m_channels": 2}, "m_channels"),
            ({"upsampler": "nearest"}, "upsampler"),
            ({"upsampler": "bilinear", "loss": "off"}, "loss"),
        ],
    )
    def test_invalid_values_name_the_field(self, patch, field):
        obj = dict(TINY)
        obj.update(patch)
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_json(obj)
        assert field in str(exc.value)

    @pytest.mark.parametrize("size", [1, 2])
    def test_image_size_below_3_names_the_key(self, tmp_path, capsys, size):
        # a 2x2 run trained a whole epoch, then died in speckle_rate's "need at least 3x3 maps"
        cfg = write_config(tmp_path, image_size=size, output_stride=1, lau_ratio=1)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid config - ") and "image_size" in err and ">= 3" in err, err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key,value", [("lambda", "0.3"), ("lr", None), ("epochs", 1.5), ("loss", 3)])
    def test_wrong_type_names_the_field(self, key, value):
        obj = dict(TINY, **{key: value})
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_json(obj)
        assert exc.value.field_name == key


class TestDemo:
    def test_lau_zero_offsets_matches_bilinear_bytes(self, tmp_path):
        out_b = tmp_path / "b"
        out_l = tmp_path / "l"
        assert main(["demo", "--upsampler", "bilinear", "--ratio", "2",
                     "--out", str(out_b), "--seed", "5"]) == 0
        assert main(["demo", "--upsampler", "lau", "--ratio", "2",
                     "--out", str(out_l), "--seed", "5"]) == 0
        assert (out_b / "after.ppm").read_bytes() == (out_l / "after.ppm").read_bytes()

    def test_ratio_one_is_identity(self, tmp_path):
        out = tmp_path / "d"
        assert main(["demo", "--upsampler", "bilinear", "--ratio", "1",
                     "--out", str(out), "--seed", "2"]) == 0
        assert (out / "before.ppm").read_bytes() == (out / "after.ppm").read_bytes()

    def test_pixelshuffle_known_rearrangement(self, tmp_path):
        # 8 channels, ratio 2 -> 2 output channels; argmax map follows the
        # periodic-shuffle mapping formula evaluated directly here
        u = np.zeros((1, 8, 2, 2))
        u[0, 0:4] = 5.0  # group 0 dominates everywhere
        u[0, 5] = 9.0  # except group 1, block position (0,1)
        infile = tmp_path / "in.t4"
        write_tensor(infile, u)
        out = tmp_path / "ps"
        assert main(["demo", "--upsampler", "pixelshuffle", "--ratio", "2",
                     "--in", str(infile), "--out", str(out)]) == 0
        expected = np.argmax(pixel_shuffle(u, 2)[0], axis=0)
        raw = (out / "after.ppm").read_bytes()
        header_end = raw.index(b"255\n") + 4
        rgb = np.frombuffer(raw[header_end:], dtype=np.uint8).reshape(4, 4, 3)
        from lau.cli import PALETTE

        assert np.array_equal(rgb, PALETTE[expected])

    def test_hostile_dump_fails_cleanly(self, tmp_path, capsys):
        # a bare header claiming 65535^4 float64s must be refused by size,
        # not read, and reported as an error rather than a traceback
        infile = tmp_path / "huge.t4"
        infile.write_bytes(np.array([65535] * 4, dtype="<u4").tobytes())
        rc = main(["demo", "--upsampler", "bilinear", "--in", str(infile), "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("args, named", [
        (["--classes", "1"], "num_classes"),  # one class never gives a two-class map
        (["--size", "1", "--ratio", "1"], "two classes"),  # nor does a 1x1 image
        (["--ratio", "0"], "stride"),
        (["--size", "30", "--ratio", "4"], "height"),
    ], ids=["classes1", "size1", "ratio0", "size30-ratio4"])
    def test_bad_synthetic_arguments_fail_cleanly(self, tmp_path, args, named):
        proc = run_cli(["demo", *args, "--out", str(tmp_path / "d")])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and named in proc.stderr, proc.stderr

    def test_class_count_beyond_int64_fails_cleanly(self, tmp_path, capsys):
        # found by the demo property: an OverflowError escaped main
        assert main(["demo", "--classes", str(10**30), "--size", "8", "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: num_classes") and err.count("\n") == 1, err

    def test_negative_ratio_on_a_dump_names_the_ratio(self, tmp_path, capsys):
        # the lau path built its zero offsets from k * h before the sampler
        # checked k: "error: negative dimensions are not allowed"
        infile = tmp_path / "in.t4"
        write_tensor(infile, np.zeros((1, 3, 4, 4)))
        assert main(["demo", "--upsampler", "lau", "--in", str(infile), "--ratio", "-1",
                     "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: upsampling ratio must be an integer >= 1") and err.count("\n") == 1, err

    def test_class_count_beyond_numpy_arrays_names_num_classes(self, tmp_path, capsys):
        # np.arange(2**63 - 1) is empty, so the majority pool died in
        # "cannot reshape array of size 0 into shape (9223372036854775807,2,2,2,2)"
        assert main(["demo", "--classes", str(2**63 - 1), "--size", "4", "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: num_classes") and err.count("\n") == 1, err

    @pytest.mark.parametrize("upsampler", ["lau", "bilinear"])
    def test_ratio_beyond_numpy_arrays_names_the_ratio(self, tmp_path, capsys, upsampler):
        # an integer ratio >= 1 passed the sampler's check, and numpy refused
        # the k * h output: "Maximum allowed dimension exceeded" (lau) or
        # "Maximum allowed size exceeded" (bilinear)
        infile = tmp_path / "in.t4"
        write_tensor(infile, np.zeros((1, 3, 4, 4)))
        assert main(["demo", "--upsampler", upsampler, "--in", str(infile), "--ratio", str(2**62),
                     "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ratio {2**62}: ") and "numpy can index" in err, err
        assert err.count("\n") == 1, err
        assert not (tmp_path / "d").exists()

    def test_corner_variant_runs(self, tmp_path):
        out = tmp_path / "c"
        assert main(["demo", "--upsampler", "corner-fc", "--ratio", "2",
                     "--out", str(out), "--seed", "1"]) == 0
        assert (out / "after.ppm").exists()


class TestTrainCommand:
    def test_metrics_schema_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["train", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["train", "--config", cfg, "--out", str(out2)]) == 0
        m1 = (out1 / "metrics.csv").read_bytes()
        assert m1 == (out2 / "metrics.csv").read_bytes()
        lines = m1.decode().strip().split("\n")
        assert lines[0] == "epoch,split,loss,pixacc,miou,speckle"
        assert len(lines) == 1 + 2 * TINY["epochs"]
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 6
            assert parts[1] in ("train", "val")
            float(parts[2]), float(parts[3]), float(parts[4]), float(parts[5])
        assert (out1 / "checkpoint.bin").exists()
        assert (out1 / "pred_0.ppm").exists()
        assert (out1 / "checkpoint.bin").read_bytes() == (out2 / "checkpoint.bin").read_bytes()

    def test_reg_loss_same_schema(self, tmp_path):
        cfg = write_config(tmp_path, loss="reg")
        out = tmp_path / "r"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,split,loss,pixacc,miou,speckle"
        assert len(lines) == 1 + 2 * TINY["epochs"]

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # default width and 8x8 feature maps: the conv GEMMs are then above
        # the size at which OpenBLAS splits work across threads
        cfg = write_config(tmp_path, image_size=32, epochs=1, batch=8, hidden_channels=64)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            proc = run_cli(["train", "--config", cfg, "--out", str(out)], timeout=600,
                           OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_bytes() for name in ("metrics.csv", "checkpoint.bin")])
        assert outputs[0] == outputs[1]

    def test_single_pixel_images_fail_cleanly(self, tmp_path):
        # refused by the config check, before gen_sample's label-map redraws
        cfg = write_config(tmp_path, image_size=1, output_stride=1, lau_ratio=1)
        proc = run_cli(["train", "--config", cfg, "--out", str(tmp_path / "x")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("invalid config - image_size") and ">= 3" in proc.stderr, proc.stderr

    def test_evaluates_both_splits_after_every_epoch(self, tmp_path, monkeypatch):
        # train split then val split, on the parameters each epoch left
        calls = []

        def evaluate(net, cfg, samples):
            calls.append((len(samples), net.conv1.weights.tobytes()))
            return real_evaluate(net, cfg, samples)

        real_evaluate = lau.cli.evaluate
        monkeypatch.setattr(lau.cli, "evaluate", evaluate)
        cfg = write_config(tmp_path, epochs=3)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        assert [n for n, _ in calls] == [TINY["train_count"], TINY["val_count"]] * 3
        weights = [w for _, w in calls]
        assert weights[0::2] == weights[1::2] and len(set(weights)) == 3

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_names_the_key(self, tmp_path, capsys, key):
        # json writes inf as Infinity, which json.load reads back as a float
        cfg = write_config(tmp_path, **{key: float("inf")})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert key in err and "finite" in err, err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("key", NUMBER_KEYS)
    def test_boolean_names_the_key(self, tmp_path, capsys, key, value):
        # JSON's true/false load as bool, an int subclass: {"epochs": true}
        # would otherwise train one epoch and {"lambda": true} at lambda 1.0
        cfg = write_config(tmp_path, **{key: value})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert key in err and "must be of type" in err, err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key, value", [
        ("gamma", float("nan")), ("lr", float("-inf")), ("noise_std", 10**400),
    ], ids=["nan", "-inf", "int-beyond-float"])
    def test_nan_infinity_and_overflow_rejected(self, tmp_path, key, value):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_json(dict(TINY, **{key: value}))
        assert exc.value.field_name == key and "finite" in str(exc.value)

    def test_invalid_config_nonzero_exit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lau_ratio=3)
        rc = main(["train", "--config", cfg, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "lau_ratio" in capsys.readouterr().err


class TestSweepCommand:
    def test_lambda_grid_five_rows_per_seed(self, tmp_path):
        cfg = write_config(tmp_path, epochs=1, train_count=4, val_count=2)
        out = tmp_path / "sw"
        rc = main(["sweep", "--param", "lambda", "--values", "0,0.1,0.2,0.3,0.4",
                   "--config", cfg, "--out", str(out), "--seeds", "1,2"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "param,value,seed,final_miou,final_pixacc"
        assert len(lines) == 1 + 5 * 2
        for seed in ("1", "2"):
            rows = [l for l in lines[1:] if l.split(",")[2] == seed]
            assert len(rows) == 5
            assert [r.split(",")[1] for r in rows] == ["0", "0.1", "0.2", "0.3", "0.4"]

    def test_ratio_rejections_recorded(self, tmp_path):
        cfg = write_config(tmp_path, epochs=1, train_count=4, val_count=2)
        out = tmp_path / "sw"
        rc = main(["sweep", "--param", "ratio", "--values", "2,3,4,5",
                   "--config", cfg, "--out", str(out)])
        assert rc == 1
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 5
        by_value = {l.split(",")[1]: l for l in lines[1:]}
        assert by_value["3"].endswith(",,") and by_value["5"].endswith(",,")
        assert not by_value["2"].endswith(",,")
        assert "lau_ratio" in (out / "errors.txt").read_text()

    @pytest.mark.parametrize("param, value, named", [
        ("ratio", "inf", "ratio must be an integer"),
        ("ratio", "nan", "ratio must be an integer"),
        ("lambda", "inf", "lambda"),
    ])
    def test_non_finite_value_is_a_failed_row(self, tmp_path, param, value, named):
        cfg = write_config(tmp_path, epochs=1, train_count=4, val_count=2)
        out = tmp_path / "sw"
        proc = run_cli(["sweep", "--param", param, "--values", value, "--config", cfg, "--out", str(out)])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr, proc.stderr
        assert named in (out / "errors.txt").read_text()
        assert (out / "sweep.csv").read_text().strip().split("\n")[1].endswith(",,")

    def test_clean_sweep_removes_stale_errors(self, tmp_path):
        cfg = write_config(tmp_path, epochs=1, train_count=4, val_count=2)
        out = tmp_path / "sw"
        args = ["sweep", "--param", "ratio", "--config", cfg, "--out", str(out)]
        first = run_cli(args + ["--values", "2,3"])
        assert first.returncode == 1 and "ratio=3" in (out / "errors.txt").read_text()
        second = run_cli(args + ["--values", "2"])
        assert second.returncode == 0 and "0 failed" in second.stdout
        assert not (out / "errors.txt").exists()
        assert sorted(p.name for p in out.iterdir()) == ["sweep.csv"]

    @pytest.mark.parametrize("flag, text, entry", [
        ("--values", "0.1,abc", "'abc'"),
        ("--seeds", "1,x", "'x'"),
        ("--seeds", "1,2.5", "'2.5'"),
    ])
    def test_bad_list_entry_names_its_flag(self, tmp_path, capsys, flag, text, entry):
        cfg = write_config(tmp_path, epochs=1, train_count=4, val_count=2)
        args = ["sweep", "--param", "lambda", "--values", "0.3", "--config", cfg,
                "--out", str(tmp_path / "sw"), flag, text]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"{flag[2:]}: {entry}" in err, err
        assert not (tmp_path / "sw").exists()

    def test_single_value_matches_train(self, tmp_path):
        cfg = write_config(tmp_path, epochs=1, train_count=4, val_count=2)
        out_t = tmp_path / "t"
        out_s = tmp_path / "s"
        assert main(["train", "--config", cfg, "--out", str(out_t)]) == 0
        assert main(["sweep", "--param", "lambda", "--values", "0.3",
                     "--config", cfg, "--out", str(out_s)]) == 0
        final_val = (out_t / "metrics.csv").read_text().strip().split("\n")[-1].split(",")
        sweep_row = (out_s / "sweep.csv").read_text().strip().split("\n")[1].split(",")
        assert sweep_row[3] == final_val[4]  # miou
        assert sweep_row[4] == final_val[3]  # pixacc

    def test_point_evaluates_the_final_val_split_once(self, tmp_path, monkeypatch):
        calls = []

        def evaluate(net, cfg, samples):
            calls.append(len(samples))
            return real_evaluate(net, cfg, samples)

        real_evaluate = lau.cli.evaluate
        monkeypatch.setattr(lau.cli, "evaluate", evaluate)
        cfg = write_config(tmp_path, epochs=2, train_count=4, val_count=2)
        assert main(["sweep", "--param", "lambda", "--values", "0.3",
                     "--config", cfg, "--out", str(tmp_path / "s")]) == 0
        assert calls == [2]
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "t")]) == 0
        final_val = (tmp_path / "t" / "metrics.csv").read_text().strip().split("\n")[-1].split(",")
        sweep_row = (tmp_path / "s" / "sweep.csv").read_text().strip().split("\n")[1].split(",")
        assert sweep_row[3:] == [final_val[4], final_val[3]]  # miou, pixacc

    def test_parallel_matches_sequential(self, tmp_path, monkeypatch):
        # one usable CPU runs the points in-process, two run them in a pool
        cfg = write_config(tmp_path, epochs=1, train_count=4, val_count=2)
        outputs = {}
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
            for param, values, rc in (("lambda", "0,0.3", 0), ("ratio", "2,3", 1)):
                out = tmp_path / f"{param}{cpus}"
                assert main(["sweep", "--param", param, "--values", values,
                             "--config", cfg, "--out", str(out)]) == rc
                outputs[param, cpus] = sorted((f.name, f.read_bytes()) for f in out.iterdir())
            assert multiprocessing.active_children() == []
        assert outputs["lambda", 1] == outputs["lambda", 2]
        assert outputs["ratio", 1] == outputs["ratio", 2]
        assert [name for name, _ in outputs["ratio", 2]] == ["errors.txt", "sweep.csv"]

    def test_pool_workers_start_on_one_blas_thread(self, tmp_path, monkeypatch):
        asked = []

        class AskingExecutor(concurrent.futures.ProcessPoolExecutor):
            """Before the first sweep point, asks a worker what it read as it started."""

            def submit(self, fn, *args):
                if not asked:
                    asked.append(super().submit(os.getenv, "OPENBLAS_NUM_THREADS"))
                return super().submit(fn, *args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", AskingExecutor)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        before = dict(os.environ)
        cfg = write_config(tmp_path, epochs=1, train_count=4, val_count=2)
        assert main(["sweep", "--param", "lambda", "--values", "0,0.3",
                     "--config", cfg, "--out", str(tmp_path / "sw")]) == 0
        assert [f.result() for f in asked] == ["1"]
        assert dict(os.environ) == before
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_one_error_line(self, tmp_path):
        # Spawned workers re-import the calling script. Without a __main__
        # guard, each one re-runs the sweep while bootstrapping, which
        # multiprocessing refuses, so both workers die before any point runs.
        cfg = write_config(tmp_path, epochs=1, train_count=4, val_count=2)
        out = tmp_path / "sw"
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import os, sys\n"
            "from lau.cli import main\n"
            "os.sched_getaffinity = lambda pid: {0, 1}  # a 2-worker pool on any machine\n"
            f"sys.exit(main(['sweep', '--param', 'lambda', '--values', '0,0.3', "
            f"'--config', {cfg!r}, '--out', {str(out)!r}]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.strip().splitlines()[-1].startswith("error:"), proc.stderr
        assert "BrokenProcessPool" not in proc.stderr, proc.stderr
        assert not (out / "sweep.csv").exists()


class TestOversizedRequests:
    # Every request is for 700 TiB or more, beyond the 128 TiB (256 TiB on
    # some arm64 kernels) that a process's address space spans by default,
    # so numpy's allocation fails before it touches memory, on any machine.
    @pytest.mark.parametrize("command, overrides", [
        (["demo", "--size", "20000000", "--ratio", "1"], None),
        (["train"], {"hidden_channels": 10**13}),
        (["train"], {"classes": 10**14}),
    ], ids=["demo-size", "train-hidden-channels", "train-classes"])
    def test_one_error_line(self, tmp_path, command, overrides):
        if overrides is not None:
            command = command + ["--config", write_config(tmp_path, **overrides)]
        proc = run_cli(command + ["--out", str(tmp_path / "x")])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "allocate" in proc.stderr, proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr

    def test_sweep_point_is_a_failed_row(self, tmp_path):
        cfg = write_config(tmp_path, hidden_channels=10**13)
        out = tmp_path / "sw"
        proc = run_cli(["sweep", "--param", "lambda", "--values", "0.3", "--config", cfg, "--out", str(out)])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "allocate" in (out / "errors.txt").read_text()
        assert (out / "sweep.csv").read_text().strip().split("\n")[1].endswith(",,")


class TestGradcheckCommand:
    @staticmethod
    def refuse_to_run_suite(monkeypatch):
        def suite(seed):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(lau.cli, "standard_suite", suite)

    def test_negative_seed_names_the_flag_before_any_check(self, tmp_path, monkeypatch, capsys):
        # numpy's default_rng refused it, in its own words, after the
        # command had started: "error: expected non-negative integer"
        self.refuse_to_run_suite(monkeypatch)
        assert main(["gradcheck", "--seed", "-1", "--out", str(tmp_path / "g")]) == 2
        err = capsys.readouterr().err
        assert "--seed: must be a non-negative integer, got -1" in err and err.count("\n") == 1, err
        assert not (tmp_path / "g").exists()

    def test_out_that_is_a_file_fails_before_the_suite(self, tmp_path, monkeypatch, capsys):
        # the whole suite ran before os.makedirs refused the path
        self.refuse_to_run_suite(monkeypatch)
        target = tmp_path / "report"
        target.write_text("kept\n")
        assert main(["gradcheck", "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File exists" in err and err.count("\n") == 1, err
        assert target.read_text() == "kept\n"

    def test_default_run_passes(self, tmp_path):
        rc = main(["gradcheck", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "gradcheck.csv").read_text().strip().split("\n")
        assert lines[0] == "subject,cases,max_rel_err,failures"
        rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
        assert set(rows) == {"lau_backward", "conv2d_backward",
                             "offset_guided_loss", "regression_loss"}
        assert float(rows["lau_backward"][2]) <= 1e-5
        assert all(r[3] == "0" for r in rows.values())

    def test_seed_variation_same_verdict(self, tmp_path):
        assert main(["gradcheck", "--seed", "7", "--out", str(tmp_path)]) == 0

    def test_skewed_offset_gradient_is_reported(self, tmp_path, monkeypatch, capsys):
        # a lau_backward whose offset gradient is off by a relative 1e-3
        # fails the command and is counted on its row of the report
        import lau.checks

        real = lau.checks.lau_backward

        def skewed(*args):
            du, doff = real(*args)
            return du, OffsetField(doff.dx * (1 + 1e-3), doff.dy * (1 + 1e-3))

        monkeypatch.setattr(lau.checks, "lau_backward", skewed)
        assert main(["gradcheck", "--out", str(tmp_path)]) == 1
        lines = (tmp_path / "gradcheck.csv").read_text().strip().split("\n")
        failures = {l.split(",")[0]: int(l.split(",")[3]) for l in lines[1:]}
        assert failures["lau_backward"] > 0
        assert failures["conv2d_backward"] == 0 and failures["offset_guided_loss"] == 0
        assert "lau_backward: 100 cases" in capsys.readouterr().out


class TestKnobCensus:
    """Every option and config key, listed: adding or removing one is a test edit."""

    OPTIONS = {
        "gradcheck": ["-h", "--help", "--seed", "--out"],
        "demo": ["-h", "--help", "--upsampler", "--ratio", "--in", "--out", "--seed", "--classes", "--size"],
        "train": ["-h", "--help", "--config", "--out"],
        "sweep": ["-h", "--help", "--param", "--values", "--config", "--out", "--seeds"],
    }
    CONFIG_KEYS = [
        "seed", "classes", "image_size", "output_stride", "lau_ratio", "lambda", "gamma", "loss",
        "upsampler", "lr", "power", "momentum", "weight_decay", "epochs", "batch", "m_channels",
        "hidden_channels", "leaky_slope", "noise_std", "train_count", "val_count",
    ]

    @staticmethod
    def subparsers():
        parser = lau.cli.build_parser()
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return parser, action.choices

    def test_options(self):
        parser, commands = self.subparsers()
        assert [s for a in parser._actions for s in a.option_strings] == ["-h", "--help"]
        assert list(commands) == list(self.OPTIONS)
        for name, sub in commands.items():
            assert [s for a in sub._actions for s in a.option_strings] == self.OPTIONS[name], name
        assert all(p.allow_abbrev is False for p in [parser, *commands.values()])

    def test_config_keys(self):
        assert [lau.net._json_key(f.name) for f in fields(ExperimentConfig)] == self.CONFIG_KEYS

    @pytest.mark.parametrize("argv", [["-h"], ["--help"]] + [[c, f] for c in OPTIONS for f in ("-h", "--help")],
                             ids=" ".join)
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: lau")

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--h", "1e-6"],  # no step flag, and not read as --help
        ["gradcheck", "--tolerance", "1"],  # no tolerance flag
        ["train", "--conf", "c.json"],  # not read as --config
    ], ids=["h", "tolerance", "prefix"])
    def test_removed_or_abbreviated_flags_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "d"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestPpm:
    def test_format(self, tmp_path):
        path = tmp_path / "img.ppm"
        write_ppm(path, np.array([[0, 1], [2, 3]]))
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n2 2\n255\n")
        assert len(raw) == len(b"P6\n2 2\n255\n") + 12
