"""The library hooks the benchmark in perfbench/ relies on still resolve.

perfbench/run.py wraps functions of lau.net and lau.checks and builds its
set-ups from lau.cli and lau.core; a rename there would otherwise surface
only when the benchmark runs. The check runs in a fresh interpreter because
run.py pins the BLAS thread count before numpy is first imported.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
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


def test_benchmark_hooks_resolve():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("contract ok")
