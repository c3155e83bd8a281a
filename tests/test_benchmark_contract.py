"""The library hooks the benchmark in perfbench/ relies on still resolve and
still see what its probes expect.

perfbench/run.py wraps functions of lau.net and lau.checks and builds its
set-ups from lau.cli and lau.core; a rename there would otherwise surface
only when the benchmark runs. Its probes also rely on invariants of the
training loop and the FD checks (one `reduce_loss` per training step, the
loss as `fn(x)[0]`, one timed `fn` call per point and per probe), and its
tracer on spans that nest on one thread, so a little real work goes through
them too. The checks run in a fresh interpreter because run.py pins the
BLAS thread count before numpy is first imported.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HOOKS = """
import runpy
ns = runpy.run_path("perfbench/run.py")
lau = ns["import_lau"]()
outcome = ns["Outcome"]()
for probe in (ns["TrainProbe"](lau, outcome), ns["GradcheckProbe"](lau, outcome), ns["Tracer"]()):
    probe.install()
    probe.uninstall()
ns["train_setup"](lau, {})()
ns["gradcheck_setup"](lau)()
print("contract ok")
"""

# the training config of the scripts below, passed as JSON in argv[2]
TINY = {"image_size": 16, "output_stride": 4, "lau_ratio": 2, "classes": 3, "batch": 4,
        "train_count": 8, "val_count": 4, "hidden_channels": 8}

PROBES = """
import json, math, os, runpy, sys
ns = runpy.run_path("perfbench/run.py")
lau = ns["import_lau"]()
work = sys.argv[1]
tiny = json.loads(sys.argv[2])
for name, config in (("off", {"upsampler": "lau", "loss": "off"}),
                     ("bilinear", {"upsampler": "bilinear", "loss": "ce"})):
    os.makedirs(os.path.join(work, name))
    spec = {"name": name, "config": dict(tiny, **config)}
    outcome = ns["run_train"](lau, spec, 1, 0.0, False, os.path.join(work, name))
    assert outcome.correct and outcome.failed == 0, (name, outcome.problems)

def probed(subject, check):
    outcome = ns["Outcome"]()
    probe = ns["GradcheckProbe"](lau, outcome)
    probe.subject = subject
    probe.install()
    try:
        report = check()
    finally:
        probe.uninstall()
    assert report.passed and outcome.failed == 0 and not outcome.problems, outcome.problems
    assert outcome.attempted > 0 and math.isfinite(probe.point_losses[subject])
    return probe

probed("lau", lambda: lau.checks.lau_gradcheck(seed=1, cases=1))
# criterion 6's ce check: the point plus two probes per parameter of the
# 922-parameter toy net, each one FD evaluation that fd_evals_per_s counts
probe = probed("ce", lambda: lau.checks.network_gradcheck(seed=0, loss_kind="ce"))
assert len(probe.evals["ce"]) == 1845, len(probe.evals["ce"])
print("contract ok")
"""

# The tracer wraps only plain public functions (inspect.isfunction), so a
# cache decorator on one of these would silently drop its span. The candidate
# set runs the four corners through corner_upsample, once each, however it
# batches the stages after it, so samplers.corner_upsample keeps counting them.
GEOMETRY_SPANS = """
import runpy
import numpy as np
ns = runpy.run_path("perfbench/run.py")
lau = ns["import_lau"]()
tracer = ns["Tracer"]()
tracer.install()
try:
    off = lau.samplers.OffsetField.zeros(1, 1, 4, 4)
    labels = lau.core.LabelMap(np.zeros((1, 4, 4), dtype=int), 2)
    refined = lau.losses.cross_entropy_map(np.zeros((1, 2, 4, 4)), labels)
    lau.losses.build_candidate_set(np.zeros((1, 2, 2, 2)), off, 2, 1, labels, refined)
finally:
    tracer.uninstall()
for name in ("samplers.corner_source_coords", "samplers.lau_source_coords"):
    assert name in tracer.names, (name, sorted(set(tracer.names)))
builds = [i for i, name in enumerate(tracer.names) if name == "losses.build_candidate_set"]
corners = [tracer.parents[i] for i, name in enumerate(tracer.names) if name == "samplers.corner_upsample"]
assert builds and all(corners.count(b) == 4 for b in builds) and len(corners) == 4 * len(builds), corners
print("contract ok")
"""

# The reg loss step builds its candidate set through the public
# build_candidate_set, so the benchmark's span of that name counts every
# training step and every FD evaluation that moves u, not only the gradcheck
# instance search. A network-check probe of the offset branch reuses the
# checked point's corner entries and runs no build_candidate_set.
CANDIDATE_SPAN = """
import runpy
import numpy as np
ns = runpy.run_path("perfbench/run.py")
lau = ns["import_lau"]()
cfg = lau.net.TrainConfig(
    num_classes=3, in_channels=3, decoder_channels=6, reduced_channels=5, offset_groups=1,
    slope=0.1, lau_ratio=2, total_upsample=4, upsampler="lau", loss_kind="reg", lam=0.3,
    gamma=0.1, base_lr=0.001, power=0.9, momentum=0.9, weight_decay=1e-4, epochs=1, batch=1,
    seed=0)
net = lau.net.build_net(3, 3, 6, 5, 2, 4, 1, 0.1, lau.core.Rng(0), 1e-4)
rng = np.random.default_rng(0)
features = rng.normal(size=(1, 3, 4, 4))
labels = lau.core.LabelMap(rng.integers(0, 3, (1, 16, 16)), 3)
tracer = ns["Tracer"]()
tracer.install()
try:
    lau.net.loss_and_grads(net, cfg, features, labels)[2]()
finally:
    tracer.uninstall()
assert tracer.names.count("losses.build_candidate_set") == 1, sorted(set(tracer.names))
print("contract ok")
"""

# Tracer takes a span's parent from a stack shared by every call, so its
# self times are right only while calls nest on one thread. A threaded or
# pooled evaluate would break that; these checks of one traced lau/off run
# would then fail, where the per-layer numbers would only go quietly wrong.
NESTED_SPANS = """
import json, os, runpy, sys
ns = runpy.run_path("perfbench/run.py")
lau = ns["import_lau"]()
work = sys.argv[1]
bench = ns["run_train"].__globals__  # the module run_train reads its names from
bench["TRACE_DIR"] = os.path.join(work, "trace")  # the span dump, out of the checkout
tracers = []

class Kept(bench["Tracer"]):
    def __init__(self):
        super().__init__()
        tracers.append(self)

bench["Tracer"] = Kept
# 32 training samples: the train split's evaluate forwards several chunks
config = dict(json.loads(sys.argv[2]), train_count=32, upsampler="lau", loss="off")
spec = {"name": "train_off", "config": config}
outcome = ns["run_train"](lau, spec, 1, 0.0, True, work)
assert outcome.correct and outcome.failed == 0, outcome.problems
(t,) = tracers
n = len(t.names)
steps = [name for name in t.names if name in ("net.sgd_step", "net.evaluate")]
per_epoch = ["net.sgd_step"] * (len(steps) // ns["TRAIN_EPOCHS"] - 2) + ["net.evaluate"] * 2
assert steps == per_epoch * ns["TRAIN_EPOCHS"], steps
child = [0.0] * n
for i in range(n):
    p = t.parents[i]
    if p >= 0:
        assert t.starts[p] <= t.starts[i] <= t.ends[i] <= t.ends[p], (t.names[p], t.names[i])
        child[p] += t.ends[i] - t.starts[i]
for i in range(n):
    assert t.ends[i] - t.starts[i] - child[i] >= 0, t.names[i]
inside = {t.names[i] for i in range(n) if t.parents[i] >= 0 and t.names[t.parents[i]] == "net.evaluate"}
assert "net.network_forward" in inside, sorted(inside)
print("contract ok")
"""


def run_script(script, *args):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("contract ok")


def test_benchmark_hooks_resolve():
    run_script(HOOKS)


def test_benchmark_probes_accept_real_work(tmp_path):
    run_script(PROBES, str(tmp_path), json.dumps(TINY))


def test_traced_spans_nest_on_one_thread(tmp_path):
    run_script(NESTED_SPANS, str(tmp_path), json.dumps(TINY))


def test_tracer_wraps_the_geometry_entry_points():
    run_script(GEOMETRY_SPANS)


def test_tracer_sees_the_loss_steps_candidate_set():
    run_script(CANDIDATE_SPAN)
