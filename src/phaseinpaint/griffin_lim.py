"""Griffin-Lim style alternating projections with partially known phases.

Each iteration projects onto the set of realizable coefficient grids
(analysis of some signal) and then onto the measurement set (observed
magnitudes everywhere, observed phases where the mask is 1). The latter
never changes a known cell, so the known cells' share of the former is
computed once per solve, and an iteration takes the phases of the missing
cells only and writes them back into the grid in place. The distance
between the two projections never increases, which is asserted in tests.

The former is analysis after synthesis. An iteration synthesizes the
missing cells through their columns of the synthesis matrix (n x k for k
missing cells) and analyses that signal frame by frame on the windows
(the atoms of :func:`~phaseinpaint.gabor.frame_atoms`) into one buffer,
rather than multiplying by a cells x k block of the range projector. The
latter takes the unit z / |z| of each missing cell times its magnitude;
a zero cell takes phase 0. :func:`clamp` is the full-grid measurement
projection and the reference the tests replay bit for bit after those two
products. The unit is taken by division, not as ``exp(1j * angle(z))``,
which spends an arctangent and a complex exponential per cell (timings
in ``BENCH_30.json``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gabor import (
    consistency_projection,
    flatten_grid,
    frame_atoms,
    istft,
    synthesis_matrix,
    unflatten_grid,
)
from .observe import Observations

_INIT_STREAM = 0x611A
_RESIDUAL_TOL = 1e-12  # stop once ||y - z|| changes by less than this in one iteration


@dataclass(frozen=True)
class GliConfig:
    """``n_iter`` caps the iterations.

    The loop stops earlier once ||y - z|| changes by less than the fixed
    ``_RESIDUAL_TOL`` (1e-12) in one iteration, in the units of the
    magnitudes. So the rule depends on the signal's scale: far below unit
    scale it fires at once, far above it may never fire before ``n_iter``.
    """

    n_iter: int = 2000


@dataclass(frozen=True)
class GliResult:
    x_hat: np.ndarray
    iterations_run: int
    residual_trace: np.ndarray
    converged: bool  # the residual plateau stopped the loop, not the n_iter budget


def _unit(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``z / |z|`` entrywise into ``out``, a zero entry giving NaN.

    The real and imaginary parts are divided by ``|z|`` one by one: a
    complex by real division in numpy multiplies by ``1 / |z|``, which is
    not the correctly rounded quotient and overflows for subnormal ``|z|``.
    """
    r = np.abs(z)
    np.divide(z.real, r, out=out.real)
    np.divide(z.imag, r, out=out.imag)
    return out


def clamp(z: np.ndarray, obs: Observations) -> np.ndarray:
    """Nearest grid with observed magnitudes and observed phases on the mask.

    Off the mask only the magnitude is imposed and the phase of ``z`` is
    kept, as ``magnitudes * (z / |z|)``; a zero entry, whatever the signs of
    its zeros, takes phase 0 and so its magnitude.
    """
    z = np.asarray(z)
    if z.shape != obs.mask.shape:
        raise ValueError(f"expected shape {obs.mask.shape}, got {z.shape}")
    with np.errstate(invalid="ignore"):  # 0 / 0 is NaN: a zero entry, set to 1 below
        unit = _unit(z, np.empty(z.shape, dtype=complex))
    unit[unit != unit] = 1.0
    return obs.magnitudes * np.where(obs.mask == 1, np.exp(1j * np.angle(obs.known)), unit)


def gli_run(obs: Observations, cfg: GliConfig = GliConfig(), seed: int = 0) -> GliResult:
    """Alternate consistency and measurement projections from a random start.

    Missing phases are initialized uniformly on [0, 2 pi) from ``seed``, so
    a run is deterministic given its seed. The loop stops early once the
    change of the residual ||y - z|| drops below ``_RESIDUAL_TOL``; the
    final (not best-residual) iterate is synthesized. ``n_iter < 1`` raises
    ``ValueError``.
    """
    if cfg.n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    system = obs.system
    rng = np.random.default_rng([int(seed), _INIT_STREAM])
    phi0 = rng.uniform(0.0, 2.0 * np.pi, size=obs.mask.shape)
    phase = obs.mask * np.angle(obs.known) + (1 - obs.mask) * phi0
    y = obs.magnitudes * np.exp(1j * phase)
    # P y = A S[:, known] y_known + A S[:, free] y_free for the analysis A and
    # synthesis S, and y_known never changes; A is applied frame by frame.
    free = obs.missing_flat_indices()
    z_known = flatten_grid(consistency_projection(system, np.where(obs.mask == 1, y, 0)))
    s_free = np.take(synthesis_matrix(system), free, axis=1)  # one C-order copy: BLAS path of S @ y
    mag_free, y_free = flatten_grid(obs.magnitudes)[free], flatten_grid(y)[free]
    # clamp sets the known cells once; y is kept flat in cell order, and the
    # loop writes its free cells in place
    y = flatten_grid(clamp(unflatten_grid(system, z_known), obs))
    support, atoms = frame_atoms(system)
    z_frames = np.empty(atoms.shape[:2] + (1,), dtype=complex)
    z = z_frames.reshape(-1)  # the analysis in cell order, a view of z_frames
    z_free = np.empty_like(y_free)
    trace: list[float] = []
    prev_res = None
    converged = False
    # A zero cell's 0 / 0 in _unit is NaN and reaches the residual; only then
    # are those cells set to their magnitudes (phase 0, as in clamp).
    with np.errstate(invalid="ignore"):
        for _ in range(cfg.n_iter):
            np.matmul(atoms, (s_free @ y_free).take(support)[:, :, None], out=z_frames)
            z += z_known
            _unit(z.take(free, out=z_free), y_free)
            y_free *= mag_free
            y.put(free, y_free)
            d = y - z
            res = math.sqrt(np.vdot(d, d).real)
            if res != res:
                zero = y_free != y_free
                y_free[zero] = mag_free[zero]
                y.put(free, y_free)
                d = y - z
                res = math.sqrt(np.vdot(d, d).real)
            trace.append(res)
            if prev_res is not None and abs(prev_res - res) < _RESIDUAL_TOL:
                converged = True
                break
            prev_res = res
    return GliResult(
        x_hat=istft(system, unflatten_grid(system, y)),
        iterations_run=len(trace),
        residual_trace=np.asarray(trace),
        converged=converged,
    )
