"""Signal reconstruction from time-frequency magnitudes and partial phases.

The package builds circular Gabor measurement systems, simulates
observations where every magnitude but only a subset of phases is known,
and recovers the signal with three solvers (alternating projections, a
lifted trace-minimizing relaxation, and a phase-only relaxation solved by
Riemannian descent on a thin factor) plus a random-phase baseline. A sweep
harness benchmarks them against missing-data ratio and hole width.

The root exports the names of README's quick start; everything else is
imported from its module, e.g. ``phaseinpaint.phaselift.pli_solve``.
"""

from .gabor import benchmark_system
from .griffin_lim import GliConfig, gli_run
from .masks import random_mask
from .metrics import error_db
from .observe import observe
from .signals import benchmark_signal

__all__ = [
    "GliConfig",
    "benchmark_signal",
    "benchmark_system",
    "error_db",
    "gli_run",
    "observe",
    "random_mask",
]

__version__ = "0.1.0"
