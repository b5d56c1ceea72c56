"""Import-time constraints on the package."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_SCRIPT = """
import sys
import numpy as np
from phaseinpaint import hann_window, make_gabor_system, observe
from phaseinpaint.masks import random_mask
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
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
