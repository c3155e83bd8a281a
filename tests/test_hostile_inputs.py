"""Hostile input at the file, config and command-line boundaries fails cleanly.

Each reader property feeds one reader inputs drawn by Hypothesis and requires
that the call either succeeds or raises one of the errors the CLI reports as
a single line (ConfigError, IOError, ShapeError, ValueError). Anything else,
such as a TypeError, OverflowError or MemoryError, is a bug. The `lau demo`
property runs the command itself and requires exit 0, 1 or 2 with at most one
error line, and so do the `lau train` and `lau sweep` properties, on tiny
configs; the `lau gradcheck` property draws only argument lists argparse
refuses, since a valid run takes seconds. The `LabelMap` property is
stricter: a drawn array builds a map of exactly its values exactly when every
value is a label, raises ValueError otherwise, and never warns. The runs are
derandomized with fixed example counts, so every run tries the same inputs.
"""

import argparse
import contextlib
import io
import json
import math
import os
import warnings
from unittest import mock
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lau.cli import ExperimentConfig, build_parser, main
from lau.core import IGNORE, ConfigError, LabelMap, Rng, ShapeError, read_tensor, write_tensor
from lau.net import build_net, load_checkpoint, save_checkpoint

CLEAN_ERRORS = (ConfigError, IOError, ShapeError, ValueError)

FIXED = dict(derandomize=True, database=None, deadline=None)

JSON_KEYS = sorted({"lambda" if f.name == "lam" else f.name for f in fields(ExperimentConfig)})

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


def clean_or_ok(call) -> None:
    try:
        call()
    except CLEAN_ERRORS:
        pass


def run_main(argv):
    """main's exit code, which must be 0, 1 or 2, and its stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error, or -h
            code = exc.code
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), (argv, code, err.getvalue())
    return code, err.getvalue().splitlines()


def error_lines(stderr: list) -> list:
    return [line for line in stderr if "error:" in line or line.startswith("invalid config")]


@settings(max_examples=200, **FIXED)
@given(st.dictionaries(st.sampled_from(JSON_KEYS) | st.text(max_size=8), json_values, max_size=6))
def test_config_from_arbitrary_json_object(obj):
    # a round trip through json gives exactly what json.load hands from_json
    obj = json.loads(json.dumps(obj))
    clean_or_ok(lambda: ExperimentConfig.from_json(obj))


@settings(max_examples=200, **FIXED)
@given(st.binary(max_size=96))
def test_read_tensor_on_arbitrary_bytes(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "arbitrary.t4"
    path.write_bytes(raw)
    clean_or_ok(lambda: read_tensor(path))


@settings(max_examples=200, **FIXED)
@given(
    st.lists(st.integers(0, 3) | st.integers(0, 2**32 - 1), min_size=4, max_size=4),
    st.integers(-2, 2),
)
def test_read_tensor_on_forged_headers(tmp_path_factory, dims, slack):
    # a payload sized for the header when that is small, give or take slack values
    count = math.prod(dims)
    values = max(0, (count if count <= 64 else 3) + slack)
    path = tmp_path_factory.getbasetemp() / "forged.t4"
    path.write_bytes(np.array(dims, dtype="<u4").tobytes() + np.arange(values, dtype="<f8").tobytes())
    try:
        u = read_tensor(path)
    except CLEAN_ERRORS:
        return
    assert u.shape == tuple(dims) and values == count


def stored_label_type(num_classes):
    """The type LabelMap stores labels in, from the rule rather than the library."""
    for dtype in (np.int8, np.int16, np.int32):
        if num_classes <= np.iinfo(dtype).max + 1:
            return dtype
    return np.int64


def is_label(value, num_classes) -> bool:
    """IGNORE, or an exact integer class below num_classes that int64 can hold."""
    if value == IGNORE:
        return True
    return math.isfinite(value) and value == int(value) and 0 <= value < min(num_classes, 2**63)


LABEL_DTYPES = [np.bool_, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64,
                np.float16, np.float32, np.float64]


@st.composite
def label_arrays(draw):
    """A rank-3 array of one of LABEL_DTYPES, often holding valid labels, maybe a transposed view."""
    dtype = np.dtype(draw(st.sampled_from(LABEL_DTYPES)))
    elements = hnp.from_dtype(dtype)
    if dtype.kind != "b":
        elements = elements | st.integers(0 if dtype.kind == "u" else IGNORE, 3)
    shape = draw(hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=3))
    arr = draw(hnp.arrays(dtype, shape, elements=elements))
    return arr.transpose(draw(st.permutations(range(3))))


@settings(max_examples=400, **FIXED)
@given(label_arrays(), st.integers(2, 5) | st.integers(-2, 2**70)
       | st.sampled_from([127, 128, 129, 32768, 32769, 2**31, 2**31 + 1, 2**63, 2**63 + 1]))
def test_label_map_on_arbitrary_arrays(arr, num_classes):
    # a map of exactly the input's values in the narrow type, or a
    # ValueError (ShapeError is one), and never a numpy warning on the way
    values = arr.ravel().tolist()
    ok = num_classes >= 2 and all(is_label(v, num_classes) for v in values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            lm = LabelMap(arr, num_classes)
        except ValueError:
            assert not ok, (arr, num_classes)
            return
    assert ok, (arr, num_classes)
    assert lm.labels.dtype == stored_label_type(num_classes) and lm.labels.flags.c_contiguous
    assert lm.labels.shape == arr.shape and lm.labels.ravel().tolist() == values


@pytest.mark.parametrize("raw", [
    np.array([[[2**64 - 1]]], dtype=np.uint64),  # read as IGNORE when cast to int64
    np.array([[[2.7]]]),  # read as class 2
    np.array([[[1e30]]]),  # refused, after numpy's "invalid value encountered in cast"
    np.array([[[np.nan, 1.0]]]),
    np.array([[[-np.inf]]]),
    np.array([[[-2]]], dtype=np.int8),
], ids=["uint64_max", "fraction", "huge_float", "nan", "minus_inf", "below_ignore"])
def test_label_map_refuses_what_is_no_label_without_a_warning(raw):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="ignored"):
            LabelMap(raw, 4)


@pytest.mark.parametrize("raw", [
    np.array([[[2**70]]], dtype=object),  # an OverflowError when cast to int64
    np.array([[[1 + 0j]]]),
    np.array([[["1"]]]),
], ids=["object", "complex", "str"])
def test_label_map_refuses_non_numeric_dtypes(raw):
    with pytest.raises(ValueError, match="dtype"):
        LabelMap(raw, 4)


def test_label_map_accepts_valid_bool_unsigned_and_float_labels():
    assert LabelMap(np.array([[[True, False]]]), 2).labels.tolist() == [[[1, 0]]]
    assert LabelMap(np.array([[[0, 3]]], dtype=np.uint64), 4).labels.tolist() == [[[0, 3]]]
    lm = LabelMap(np.array([[[-1.0, -0.0, 3.0]]], dtype=np.float32), 4)
    assert lm.labels.dtype == np.int8 and lm.labels.tolist() == [[[-1, 0, 3]]]


def _net():
    return build_net(3, 4, 6, 4, 2, 4, 1, 0.01, Rng(10), 1e-4)


@settings(max_examples=200, **FIXED)
@given(st.data())
def test_load_checkpoint_on_damaged_files(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "ckpt.bin"
    save_checkpoint(path, _net())
    raw = bytearray(path.read_bytes())
    damage = data.draw(st.sampled_from(["truncate", "extend", "flip"]))
    if damage == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
    elif damage == "extend":
        raw += data.draw(st.binary(min_size=1, max_size=32))
    else:
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    path.write_bytes(bytes(raw))
    clean_or_ok(lambda: load_checkpoint(path, _net()))


# Ints refused before any allocation whichever flag they reach: past int64, or
# negative. The other draws stay in small ranges, since a --size, a --ratio on a
# dump or a --classes between those ranges and these can commit gigabytes.
REFUSED = st.sampled_from([2**63, 2**64, 10**30, -(10**30)])
NOT_INTS = st.sampled_from(["", "abc", "1.5", "0x10", "1e3", "-"])
# the demo's --upsampler choices, read off the parser, so a removed choice is never drawn
(_COMMANDS,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
UPSAMPLERS = next(a.choices for a in _COMMANDS["demo"]._actions if "--upsampler" in a.option_strings)


def _damaged_dump(data, path) -> str:
    """A real dump of a small drawn shape, then truncated, extended, bit-flipped or left whole."""
    dims = [data.draw(st.integers(1, hi)) for hi in (2, 4, 3, 3)]
    write_tensor(path, np.random.default_rng(0).normal(size=dims))
    raw = bytearray(path.read_bytes())
    damage = data.draw(st.sampled_from(["none", "truncate", "extend", "flip"]))
    if damage == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
    elif damage == "extend":
        raw += data.draw(st.binary(min_size=1, max_size=16))
    elif damage == "flip":
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    path.write_bytes(bytes(raw))
    return str(path)


@settings(max_examples=600, **FIXED)
@given(st.data())
def test_demo_command_on_hostile_arguments(tmp_path_factory, data):
    base = tmp_path_factory.getbasetemp()
    flags = {
        "ratio": st.integers(-3, 8) | REFUSED,
        "size": st.integers(-3, 64) | REFUSED,
        "classes": st.integers(-3, 20) | REFUSED,
        "seed": st.integers(-(2**70), 2**70),
        "upsampler": st.sampled_from(UPSAMPLERS),
    }
    argv = ["demo", f"--out={base / 'demo'}"]
    for flag, values in flags.items():
        if data.draw(st.booleans()):
            argv.append(f"--{flag}={data.draw(values)}")
    if data.draw(st.booleans()):
        argv.append(f"--in={_damaged_dump(data, base / 'demo.t4')}")
    if data.draw(st.integers(0, 3)) == 0:  # one flag garbled; argparse reads its last value
        flag = data.draw(st.sampled_from(sorted(flags)))
        argv.append(f"--{flag}={data.draw(st.text(max_size=6) if flag == 'upsampler' else NOT_INTS)}")
    code, stderr = run_main(argv)
    assert len(error_lines(stderr)) == (code != 0), (argv, code, stderr)


# A two-sample, one-epoch run on 8x8 images. A drawn key value is small, or
# refused by its type or range, so no draw can ask for a long run.
TINY_RUN = {"image_size": 8, "output_stride": 4, "lau_ratio": 2, "classes": 2, "epochs": 1, "batch": 2,
            "train_count": 2, "val_count": 1, "hidden_channels": 2, "seed": 1}
key_values = (
    st.integers(-2, 4)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([None, True, "ce", "off", "reg", "lau", "bilinear", "x", [], {}])
)


def _config_file(data, path) -> str:
    """TINY_RUN with up to two keys redrawn (unknown keys too), or a file that is not a config."""
    kind = data.draw(st.sampled_from(["config"] * 6 + ["array", "garbled", "missing"]))
    if kind == "missing":
        return str(path.parent / "no-such-config.json")
    obj = dict(TINY_RUN)
    for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]))):
        obj[data.draw(st.sampled_from(JSON_KEYS + ["unknown"]))] = data.draw(key_values)
    text = {"config": json.dumps(obj), "array": "[1, 2]", "garbled": json.dumps(obj)[:-1]}[kind]
    path.write_text(text)
    return str(path)


def _shuffled_flags(data, flags: dict) -> list:
    """argv entries for the flags, in drawn order; one in seven draws drops a flag, a usage error if required."""
    dropped = data.draw(st.sampled_from([None] * (6 * len(flags)) + list(flags)))
    order = data.draw(st.permutations([f for f in flags if f != dropped]))
    return [arg for f in order for arg in (f, flags[f])]


@settings(max_examples=200, **FIXED)
@given(st.data())
def test_train_command_on_hostile_arguments(tmp_path_factory, data):
    base = tmp_path_factory.getbasetemp()
    flags = {"--config": _config_file(data, base / "train.json"), "--out": str(base / "train")}
    argv = ["train"] + _shuffled_flags(data, flags)
    if data.draw(st.integers(0, 5)) == 0:  # an unknown flag, or a prefix of a real one
        argv += [data.draw(st.sampled_from(["--conf", "--ou", "--epochs", "--h"])), "1"]
    code, stderr = run_main(argv)
    assert len(error_lines(stderr)) == (code != 0), (argv, code, stderr)


@settings(max_examples=100, **FIXED)
@given(st.data())
def test_sweep_command_on_hostile_arguments(tmp_path_factory, data):
    base = tmp_path_factory.getbasetemp()
    # each entry valid or not about half the time, and a list is up to 3 entries
    values = (st.sampled_from(["0", "0.3", "1", "2", "4"])
              | st.sampled_from(["3", "2.5", "-1", "inf", "nan", "x", ""]))
    seeds = st.sampled_from(["0", "1", "7"]) | st.sampled_from(["-5", "2.5", "y"])
    flags = {
        "--param": data.draw(st.sampled_from(["lambda", "ratio"] * 3 + ["gamma"])),
        "--values": ",".join(data.draw(st.lists(values, min_size=1, max_size=3))),
        "--config": _config_file(data, base / "sweep.json"),
        "--out": str(base / "sweep"),
        "--seeds": ",".join(data.draw(st.lists(seeds, min_size=1, max_size=2))),
    }
    argv = ["sweep"] + _shuffled_flags(data, flags)
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):  # points in-process
        code, stderr = run_main(argv)
    if code == 1 and not error_lines(stderr):  # failed points: rows of sweep.csv, one `failed:` line each
        assert stderr and all(line.startswith("failed: ") for line in stderr), (argv, stderr)
    else:
        assert len(error_lines(stderr)) == (code != 0), (argv, code, stderr)


@settings(max_examples=100, **FIXED)
@given(st.data())
def test_gradcheck_command_on_refused_arguments(tmp_path_factory, data):
    # a valid run takes seconds, so every draw holds at least one argument argparse refuses
    out = tmp_path_factory.getbasetemp() / "gradcheck"
    valid = [["--seed", str(data.draw(st.integers(-5, 5)))], ["--out", str(out)]]
    refused = st.sampled_from([
        ["--seed", data.draw(NOT_INTS)], [f"--seed={data.draw(NOT_INTS)}"],
        ["--h", "1e-6"], ["--tolerance", "1"], ["--h=0.01"], ["--step", "1e-6"],  # no step or tolerance flag
        ["--se", "1"], ["--ou", str(out)], ["--o=x"],  # prefixes of real flags
    ])
    parts = data.draw(st.lists(refused, min_size=1, max_size=2)) + valid[: data.draw(st.integers(0, 2))]
    argv = ["gradcheck"] + [arg for part in data.draw(st.permutations(parts)) for arg in part]
    code, stderr = run_main(argv)
    assert code == 2 and len(error_lines(stderr)) == 1, (argv, code, stderr)
    assert not out.exists()
