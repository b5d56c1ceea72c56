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
from phaseinpaint import observe, random_mask
from phaseinpaint.gabor import hann_window, make_gabor_system
from phaseinpaint.phasecut import pci_solve, phase_cost_matrix
from phaseinpaint.phaselift import pli_solve

system = make_gabor_system(hann_window(4), 2, 4, 8)
rng = np.random.default_rng(3)
x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
obs = observe(system, x, random_mask(4, 4, 0.3, seed=11))
pli_solve(obs)
pci_solve(phase_cost_matrix(obs), obs)
assert "scipy.linalg" not in sys.modules, "scipy.linalg was imported"
"""


def test_solvers_do_not_load_scipy_linalg():
    # numpy and scipy bundle separate OpenBLAS builds whose thread pools
    # contend, so the solvers keep their dense linear algebra on numpy
    proc = _run_python(_SCRIPT)
    assert proc.returncode == 0, proc.stderr


_SWEEP_SCRIPT = """
import sys
import numpy as np
from phaseinpaint import observe, random_mask
from phaseinpaint.gabor import hann_window, make_gabor_system
from phaseinpaint.phaselift import pli_solve
from phaseinpaint.sweeps import ExperimentConfig, run_ratio_sweep

cfg = ExperimentConfig(ratios=(0.3,), n_trials=1, methods=("gli", "pci", "rpi"))
assert len(run_ratio_sweep(cfg)) == 3
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert loaded == [], f"a gli/pci/rpi sweep loaded {loaded}"
system = make_gabor_system(hann_window(4), 2, 4, 8)
rng = np.random.default_rng(3)
x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
pli_solve(observe(system, x, random_mask(4, 4, 0.3, seed=11)))
assert "scipy.sparse" in sys.modules, "pli_solve did not load scipy.sparse"
assert "scipy.linalg" not in sys.modules, "scipy.linalg was imported"
"""


def test_only_a_pli_solve_loads_scipy():
    # a sweep without pli never imports scipy; the first pli solve does
    proc = _run_python(_SWEEP_SCRIPT)
    assert proc.returncode == 0, proc.stderr


def test_root_exports_exactly_the_quick_start_names():
    assert sorted(phaseinpaint.__all__) == QUICK_START_NAMES
    assert isinstance(phaseinpaint.__version__, str)
    assert not hasattr(phaseinpaint, "__getattr__")


def test_root_import_loads_no_solver_or_scipy():
    # pli, pci and the sweeps load only when their own modules are imported;
    # scipy loads only when a pli solve runs
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
