"""Hostile input at the file and config boundaries fails cleanly.

Each property feeds one reader inputs drawn by Hypothesis and requires that
the call either succeeds or raises one of the errors the CLI reports as a
single line (ConfigError, IOError, ShapeError, ValueError). Anything else,
such as a TypeError, OverflowError or MemoryError, is a bug. The runs are
derandomized with fixed example counts, so every run tries the same inputs.
"""

import json
import math
from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lau.cli import ExperimentConfig
from lau.core import ConfigError, Rng, ShapeError, read_tensor
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
