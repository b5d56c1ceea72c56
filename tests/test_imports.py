"""Import-time constraints on the package and its documented surface."""

import os
import re
import subprocess
import sys
from pathlib import Path

import phaseinpaint

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
QUICK_START_NAMES = [
    "GliConfig",
    "benchmark_signal",
    "benchmark_system",
    "error_db",
    "gli_run",
    "observe",
    "random_mask",
]


def _run_python(source: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", source], env=env, capture_output=True, text=True)


_SCRIPT = """
import sys
import numpy as np
import phaseinpaint.cli
from phaseinpaint import observe, random_mask
from phaseinpaint.gabor import hann_window, make_gabor_system
from phaseinpaint.phasecut import pci_solve, phase_cost_matrix
from phaseinpaint.phaselift import pli_solve
from phaseinpaint.sweeps import ExperimentConfig, run_ratio_sweep

cfg = ExperimentConfig(ratios=(0.5,), n_trials=1, methods=("gli", "pli", "pci", "rpi"))
assert len(run_ratio_sweep(cfg)) == 4
system = make_gabor_system(hann_window(4), 2, 4, 8)
rng = np.random.default_rng(3)
x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
obs = observe(system, x, random_mask(4, 4, 0.3, seed=11))
pli_solve(obs)
pci_solve(phase_cost_matrix(obs), obs)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert loaded == [], f"the solvers loaded {loaded}"
"""


def test_no_method_loads_scipy():
    # numpy and scipy bundle separate OpenBLAS builds whose thread pools
    # contend, so the package runs on numpy alone: the CLI module, a sweep of
    # all four methods and direct pli and pci solves load no scipy module
    proc = _run_python(_SCRIPT)
    assert proc.returncode == 0, proc.stderr


def test_root_exports_exactly_the_quick_start_names():
    assert sorted(phaseinpaint.__all__) == QUICK_START_NAMES
    assert isinstance(phaseinpaint.__version__, str)
    assert not hasattr(phaseinpaint, "__getattr__")


def test_root_import_loads_no_solver_or_scipy():
    # pli, pci and the sweeps load only when their own modules are imported,
    # and no module of the package imports scipy
    proc = _run_python("import sys, phaseinpaint; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "phaseinpaint" in loaded
    heavy = {f"phaseinpaint.{name}" for name in ("phaselift", "phasecut", "sweeps", "cli")}
    assert sorted(m for m in loaded if m.split(".")[0] == "scipy" or m in heavy) == []


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    proc = _run_python(block)
    assert proc.returncode == 0, proc.stderr
    # the quick start prints the reconstruction error in dB
    assert float(proc.stdout.split()[-1]) < -50.0
