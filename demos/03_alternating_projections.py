"""Reconstruct a signal with 30% of the phases missing by alternating
projections, and watch the residual shrink.
"""

import numpy as np

from phaseinpaint import (
    GliConfig,
    benchmark_signal,
    benchmark_system,
    error_db,
    gli_run,
    observe,
    random_mask,
)

sys_ = benchmark_system()
x = benchmark_signal(seed=42)
mask = random_mask(sys_.bins, sys_.frames, ratio=0.3, seed=42)
obs = observe(sys_, x, mask)
print(f"{obs.n_missing} of {sys_.n_cells} phases withheld")

result = gli_run(obs, GliConfig(n_iter=2000), seed=42)
print(f"stopped after {result.iterations_run} iterations")
for i in (0, 9, 49, min(199, result.iterations_run - 1), result.iterations_run - 1):
    print(f"  iteration {i + 1:4d}: residual {result.residual_trace[i]:.3e}")
print(f"reconstruction error: {error_db(x, result.x_hat).e_db:.0f} dB")
