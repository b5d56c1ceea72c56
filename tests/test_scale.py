"""Scale contracts: what each method returns when the signal is scaled by 2^k.

Scaling by an exact power of two is exact in floating point, so a solver
whose every test is relative returns the same result at every scale that
neither overflows nor underflows. ``pli`` and ``pci`` claim that over the
scales below; ``gli`` does not, because its stopping tolerance is absolute.
"""

import numpy as np
import pytest

from phaseinpaint.gabor import benchmark_system
from phaseinpaint.griffin_lim import GliConfig, gli_run
from phaseinpaint.masks import hole_mask, random_mask
from phaseinpaint.metrics import error_db
from phaseinpaint.observe import observe
from phaseinpaint.phasecut import PciConfig, extract_phases, pci_solve, phase_cost_matrix
from phaseinpaint.phaselift import extract_signal, pli_solve
from phaseinpaint.signals import benchmark_signal

SCALE_EXPONENTS = (-60, 13, 16)  # against 2^0


def _instances():
    # a width-7 hole, where pli falls back to the full warm-up, and a
    # ratio-0.5 random mask, where LM after the first stage fits
    x = benchmark_signal(seed=1234)
    return {
        "w7/1234": (x, hole_mask(32, 16, 0.3, width=7, seed=1234)),
        "r0.5/1234": (x, random_mask(32, 16, 0.5, seed=1234)),
    }


def _solve_both(x, mask):
    """pli's (e_db, converged) and pci's phases on the observations of x."""
    obs = observe(benchmark_system(), x, mask)
    lifted = pli_solve(obs)
    phases = extract_phases(pci_solve(phase_cost_matrix(obs), obs, PciConfig()))
    return (error_db(x, extract_signal(lifted, obs)).e_db, lifted.converged), phases


@pytest.mark.parametrize("name", ["w7/1234", "r0.5/1234"])
def test_pli_and_pci_do_not_depend_on_scale(name):
    x, mask = _instances()[name]
    pli_ref, pci_ref = _solve_both(x, mask)
    assert pli_ref[1]  # converged at unit scale
    for k in SCALE_EXPONENTS:
        pli, pci = _solve_both(x * 2.0**k, mask)
        assert pli == pli_ref, f"pli at 2^{k}"
        assert np.array_equal(pci, pci_ref), f"pci at 2^{k}"


def test_gli_tolerance_is_absolute():
    # residual_tol bounds the change of ||y - z|| in the magnitudes' units:
    # at 2^-60 every change is far below 1e-12, so gli stops at once and
    # says it converged, without having recovered anything
    x = benchmark_signal(seed=1234) * 2.0**-60
    obs = observe(benchmark_system(), x, hole_mask(32, 16, 0.3, width=7, seed=1234))
    result = gli_run(obs, GliConfig(), seed=1234)
    assert result.converged
    assert result.iterations_run <= 3
    assert error_db(x, result.x_hat).e_db > -50.0
