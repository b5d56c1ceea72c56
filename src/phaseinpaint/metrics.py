"""Reconstruction error in decibels, invariant to a global phase factor."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DB_FLOOR = -300.0
_RATIO_FLOOR = 1e-15


@dataclass(frozen=True)
class ErrorReport:
    """Relative error after optimal global-phase alignment.

    ``e_db`` is 20*log10 of the aligned relative error, floored at -300 dB so
    exact recoveries stay finite in CSV output.
    """

    e_db: float
    theta_star: float
    raw_ratio: float


def error_db(x: np.ndarray, x_hat: np.ndarray) -> ErrorReport:
    """Best-case relative error min over theta of ||x - e^{i theta} x_hat|| / ||x||.

    The optimal rotation has a closed form: it is the phase of the cross
    inner product <x, x_hat>. A brute-force search over a grid of rotations
    in the test suite pins the orientation.
    """
    x = np.asarray(x, dtype=complex)
    x_hat = np.asarray(x_hat, dtype=complex)
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    norm_x = float(np.linalg.norm(x))
    if norm_x == 0.0:
        raise ValueError("reference signal must be nonzero")
    cross = np.vdot(x_hat, x)  # sum of x * conj(x_hat)
    theta = float(np.angle(cross)) % (2.0 * np.pi)
    # evaluate the distance directly at the optimal rotation; the expanded
    # quadratic form cancels catastrophically for near-exact reconstructions
    ratio = float(np.linalg.norm(x - np.exp(1j * theta) * x_hat)) / norm_x
    if ratio <= _RATIO_FLOOR:
        e_db = DB_FLOOR
    else:
        e_db = max(20.0 * np.log10(ratio), DB_FLOOR)
    return ErrorReport(e_db=float(e_db), theta_star=theta, raw_ratio=ratio)
