"""Hostile input at the file, config and command-line boundaries fails cleanly.

Each reader property feeds one reader inputs drawn by Hypothesis and requires
that the call either succeeds or raises one of the errors the CLI reports as
a single line (ConfigError, IOError, ShapeError, ValueError). Anything else,
such as a TypeError, OverflowError or MemoryError, is a bug. The `lau demo`
property runs the command itself and requires exit 0, 1 or 2 with at most one
error line. The runs are derandomized with fixed example counts, so every run
tries the same inputs.
"""

import contextlib
import io
import json
import math
from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lau.cli import ExperimentConfig, main
from lau.core import ConfigError, Rng, ShapeError, read_tensor, write_tensor
from lau.net import build_net, load_checkpoint, save_checkpoint
from lau.samplers import CORNERS

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
UPSAMPLERS = ["bilinear", "lau", "pixelshuffle"] + [f"corner-{c}" for c in CORNERS]


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
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    lines = [line for line in err.getvalue().splitlines()
             if "error:" in line or line.startswith("invalid config")]
    assert code in (0, 1, 2) and len(lines) == (code != 0), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
