"""Run both semidefinite relaxations on one half-missing instance.

At 50% missing phases the alternating-projection method becomes unreliable
while the two convex relaxations still recover the signal: the lifted
solver works on the outer product of the signal, the phase-only solver on
the Gram matrix of the unit-modulus phases.
"""

import numpy as np

from phaseinpaint import benchmark_signal, benchmark_system, error_db, observe, random_mask
from phaseinpaint.phasecut import extract_phases, pci_signal, pci_solve, phase_cost_matrix
from phaseinpaint.phaselift import extract_signal, pli_solve

sys_ = benchmark_system()
x = benchmark_signal(seed=7)
obs = observe(sys_, x, random_mask(sys_.bins, sys_.frames, 0.5, seed=7))
print(f"{obs.n_missing} of {sys_.n_cells} phases withheld")

lifted = pli_solve(obs)
x_lift = extract_signal(lifted, obs)
print(
    f"lifted relaxation:    {error_db(x, x_lift).e_db:7.1f} dB  "
    f"(feasibility {lifted.feas_residual:.1e}, rank estimate {lifted.rank_estimate})"
)

gamma = phase_cost_matrix(obs)
U = pci_solve(gamma, obs)
x_phase = pci_signal(obs, extract_phases(U))
print(
    f"phase-only relaxation: {error_db(x, x_phase).e_db:7.1f} dB  "
    f"({U.sweeps_run} iterations, objective {U.objective:.2e})"
)
