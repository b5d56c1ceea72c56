"""Signal reconstruction from time-frequency magnitudes and partial phases.

The package builds circular Gabor measurement systems, simulates
observations where every magnitude but only a subset of phases is known,
and recovers the signal with three solvers (alternating projections, a
lifted trace-minimizing relaxation, and a phase-only relaxation solved by
Riemannian descent on a thin factor) plus a random-phase baseline. A sweep
harness benchmarks them against missing-data ratio and hole width.
"""

from .gabor import (
    GaborSystem,
    atom,
    atom_matrix,
    benchmark_system,
    consistency_projection,
    hann_window,
    istft,
    make_gabor_system,
    stft,
    synthesis_matrix,
)
from .griffin_lim import GliConfig, GliResult, clamp, gli_run
from .masks import hole_mask, mask_stats, random_mask
from .metrics import ErrorReport, error_db
from .observe import Observations, load_observations, observe, rpi_fill, save_observations
from .phasecut import (
    KnownBlockReduction,
    PciConfig,
    PhaseMatrix,
    extract_phases,
    pci_signal,
    pci_solve,
    phase_cost_matrix,
    reduce_known_block,
)
from .phaselift import (
    LiftedMatrix,
    PliConfig,
    PliConstraints,
    build_constraints,
    extract_signal,
    pli_solve,
)
from .signals import (
    SignalSpec,
    add_noise_snr,
    benchmark_signal,
    benchmark_spec,
    dirac,
    linear_chirp,
    save_signal_csv,
    synthesize,
)
from .sweeps import (
    ExperimentConfig,
    ResultRow,
    emit,
    run_hole_sweep,
    run_ratio_sweep,
    summarize,
)

__all__ = [
    "ErrorReport",
    "ExperimentConfig",
    "GaborSystem",
    "GliConfig",
    "GliResult",
    "KnownBlockReduction",
    "LiftedMatrix",
    "Observations",
    "PciConfig",
    "PhaseMatrix",
    "PliConfig",
    "PliConstraints",
    "ResultRow",
    "SignalSpec",
    "add_noise_snr",
    "atom",
    "atom_matrix",
    "benchmark_signal",
    "benchmark_spec",
    "benchmark_system",
    "build_constraints",
    "clamp",
    "consistency_projection",
    "dirac",
    "emit",
    "error_db",
    "extract_phases",
    "extract_signal",
    "gli_run",
    "hann_window",
    "hole_mask",
    "istft",
    "linear_chirp",
    "load_observations",
    "make_gabor_system",
    "mask_stats",
    "observe",
    "pci_signal",
    "pci_solve",
    "phase_cost_matrix",
    "pli_solve",
    "random_mask",
    "reduce_known_block",
    "rpi_fill",
    "run_hole_sweep",
    "run_ratio_sweep",
    "save_observations",
    "save_signal_csv",
    "stft",
    "summarize",
    "synthesis_matrix",
    "synthesize",
]

__version__ = "0.1.0"
