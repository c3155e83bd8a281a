"""Mis-shaped arguments to the public ops raise ShapeError; nothing broadcasts.

Each example draws the dims of a well-formed call to one op `lau` exports
and checks that it succeeds. Then it changes the shape of each array
argument in turn, in every way: each axis that the op's contract ties to
another argument, or to the op itself, grows by one, and the array loses
its last axis or gains a leading one. Each such call must raise ShapeError.
A return means the mismatch broadcast silently; numpy's own ValueError
("cannot reshape", "could not be broadcast") means a check is missing and
work ran on the wrong shapes first. The runs are derandomized with fixed
example counts, so every run tries the same inputs.
"""

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

import lau
from lau import CoordinateMap, LabelMap, LossMap, OffsetField, ShapeError


def _labels(a, c):
    return LabelMap(np.zeros(a.shape, dtype=np.int64), c)


def _loss(a):
    return LossMap(np.abs(a), np.ones(a.shape, dtype=bool))


def _coords(a):
    return CoordinateMap(a, -a)


def _layer(a, c, kernel):
    return lau.ConvLayer(c, 2, kernel, a["weights"], a["bias"])


def _predictor(c, k):
    rng = lau.Rng(0)
    reduce, expand = lau.ConvLayer.init(c, 2, 1, rng), lau.ConvLayer.init(2, 2 * k * k, 3, rng)
    return lau.OffsetPredictor(reduce, expand, k, 1, 0.1)


def _gradcheck(a):
    return lau.gradcheck(lambda x: (0.0, lambda: a["grad"]), [a["point"]], 1e-6, 1e-5)


def op_specs(n, c, h, w, k, m, rest, kernel):
    """op name -> (argument shapes, the (argument, axis) pairs free to change, call).

    c >= 2, since a LabelMap needs two classes; m is 1 or c. Every axis not
    listed as free is tied: growing it must raise ShapeError.
    """
    hk, wk, out = k * h, k * w, 2  # out: the conv specs' output channels
    free_m = {("off", 1)} if m + 1 == c else set()  # m = 1 -> 2 is legal when c == 2
    img, lbl = (n, c, h, w), (n, h, w)
    return {
        "as_tensor4": ({"u": img}, {("u", i) for i in range(4)}, lambda a: lau.as_tensor4(a["u"])),
        "LabelMap": ({"labels": lbl}, {("labels", i) for i in range(3)}, lambda a: _labels(a["labels"], c)),
        "LossMap": ({"values": lbl, "valid": lbl}, set(), lambda a: LossMap(a["values"], a["valid"] > 0)),
        "CoordinateMap": ({"px": lbl, "py": lbl}, set(), lambda a: CoordinateMap(a["px"], a["py"])),
        "OffsetField": ({"dx": img, "dy": img}, set(), lambda a: OffsetField(a["dx"], a["dy"])),
        "CandidateSet": ({"loss": lbl, "odd_loss": lbl, "coord": lbl, "odd_coord": lbl}, set(),
                         lambda a: lau.CandidateSet([_loss(a["loss"])] * 4 + [_loss(a["odd_loss"])],
                                                    [_coords(a["coord"])] * 4 + [_coords(a["odd_coord"])])),
        "cross_entropy_map": ({"logits": img, "labels": lbl}, set(),
                              lambda a: lau.cross_entropy_map(a["logits"], _labels(a["labels"], c))),
        "guided_terms": ({"loss": lbl, "aux": lbl}, set(),
                         lambda a: lau.guided_terms(_loss(a["loss"]), _loss(a["aux"]), 0.3)),
        "smooth_l1": ({"pred": lbl, "target": lbl}, set(),
                      lambda a: lau.smooth_l1(_coords(a["pred"]), _coords(a["target"]))),
        "build_candidate_set": (
            {"u": img, "off": (n, 1, hk, wk), "labels": (n, hk * rest, wk * rest),
             "refined": (n, hk * rest, wk * rest)}, set(),
            lambda a: lau.build_candidate_set(a["u"], OffsetField(a["off"], -a["off"]), k, rest,
                                              _labels(a["labels"], c), _loss(a["refined"]))),
        "bilinear_upsample": ({"u": img}, {("u", i) for i in range(4)},
                              lambda a: lau.bilinear_upsample(a["u"], k)),
        "corner_upsample": ({"u": img}, {("u", i) for i in range(4)},
                            lambda a: lau.corner_upsample(a["u"], k, lau.CORNERS[1])),
        "lau_forward": ({"u": img, "off": (n, m, hk, wk)}, free_m | ({("u", 1)} if m == 1 else set()),
                        lambda a: lau.lau_forward(a["u"], OffsetField(a["off"], -a["off"]), k)),
        "lau_backward": ({"u": img, "off": (n, m, hk, wk), "dv": (n, c, hk, wk)}, free_m,
                         lambda a: lau.lau_backward(a["u"], OffsetField(a["off"], -a["off"]), k, a["dv"])),
        "pixel_shuffle": ({"u": (n, c * k * k, h, w)},
                          {("u", 0), ("u", 2), ("u", 3)} | ({("u", 1)} if k == 1 else set()),
                          lambda a: lau.pixel_shuffle(a["u"], k)),
        "pixel_unshuffle": ({"u": (n, c, hk, wk)},
                            {("u", 0), ("u", 1)} | ({("u", 2), ("u", 3)} if k == 1 else set()),
                            lambda a: lau.pixel_unshuffle(a["u"], k)),
        "conv2d_forward": ({"weights": (out, c, kernel, kernel), "bias": (out,), "x": img},
                           {("x", 0), ("x", 2), ("x", 3)},
                           lambda a: lau.conv2d_forward(_layer(a, c, kernel), a["x"])),
        "conv2d_backward": ({"weights": (out, c, kernel, kernel), "bias": (out,), "x": img,
                             "dy": (n, out, h, w)}, set(),
                            lambda a: lau.conv2d_backward(_layer(a, c, kernel), a["x"], a["dy"])),
        "offset_predictor_forward": ({"f": img}, {("f", 0), ("f", 2), ("f", 3)},
                                     lambda a: lau.offset_predictor_forward(_predictor(c, k), a["f"])),
        "sgd_step": ({"w": (c, h), "g": (c, h), "v": (c, h)}, set(),
                     lambda a: lau.sgd_step([a["w"]], [a["g"]], [a["v"]], 0.1, 0.9, [0.0])),
        "gradcheck": ({"point": (c,), "grad": (c,)}, set(), _gradcheck),
        "Tally": ({"pred": lbl, "gt": lbl}, set(),
                  lambda a: lau.Tally.of(_labels(a["pred"], c), _labels(a["gt"], c)).miou(c)),
    }


OPS = sorted(op_specs(1, 2, 1, 1, 1, 1, 1, 1))


def test_every_public_op_with_array_arguments_is_covered():
    # the rest take no arrays, one elementwise or lone array with no shape to
    # match, or objects already checked when built; ConvLayer and
    # OffsetPredictor are built, and their arrays changed, by the conv specs
    untested = {"ConfigError", "ShapeError", "Corner", "Rng", "SegNet", "SynthSample", "TrainConfig",
                "leaky_relu", "poly_lr", "reduce_loss", "regression_terms", "select_theta_opt",
                "train", "ConvLayer", "OffsetPredictor"}
    exported = {name for name in dir(lau) if not name.startswith("_") and callable(getattr(lau, name))}
    assert exported - untested == set(OPS)


@pytest.mark.parametrize("op", OPS)
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mis_shaped_argument_raises_shape_error(op, data):
    draw = data.draw
    c = draw(st.integers(2, 3), "c")
    dims = dict(n=draw(st.integers(1, 2)), c=c, h=draw(st.integers(1, 3)), w=draw(st.integers(1, 3)),
                k=draw(st.integers(1, 3)), m=draw(st.sampled_from([1, c])), rest=draw(st.integers(1, 2)),
                kernel=draw(st.sampled_from([1, 3])))
    shapes, free, call = op_specs(**dims)[op]
    rng = np.random.default_rng(0)
    args = {name: rng.normal(size=shape) + 2.0 for name, shape in shapes.items()}
    call(args)  # the well-formed call succeeds
    for name, shape in shapes.items():
        grown = [shape[:axis] + (shape[axis] + 1,) + shape[axis + 1 :]
                 for axis in range(len(shape)) if (name, axis) not in free]
        for bad in [shape[:-1], (1,) + shape] + grown:
            note(f"{name}: {shape} -> {bad}")
            with pytest.raises(ShapeError):
                call(dict(args, **{name: rng.normal(size=bad) + 2.0}))
