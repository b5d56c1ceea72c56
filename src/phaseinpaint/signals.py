"""Synthetic test signals: linear chirps, impulses, exact-SNR noise.

All generators are deterministic given their seed. Frequencies are
fractions of Nyquist: 1.0 is half the sampling rate, 0.5 cycles per sample.
"""

from __future__ import annotations

import math

import numpy as np

_NOISE_STREAM = 0x51C7A1


def linear_chirp(n_samples: int, f_start: float, f_end: float) -> np.ndarray:
    """Real cosine whose instantaneous frequency ramps linearly.

    Frequencies are fractions of Nyquist (1.0 = 0.5 cycles per sample). The
    phase integral uses (n_samples - 1) in the denominator so the last
    sample sits exactly at ``f_end``.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    a = 0.5 * f_start
    b = 0.5 * f_end
    n = np.arange(n_samples, dtype=float)
    if n_samples == 1:
        phase_cycles = np.zeros(1)
    else:
        phase_cycles = a * n + (b - a) * n * n / (2.0 * (n_samples - 1))
    return np.cos(2.0 * np.pi * phase_cycles)


def dirac(n_samples: int, pos: int) -> np.ndarray:
    """Unit impulse at sample ``pos``."""
    if not (0 <= pos < n_samples):
        raise IndexError(f"impulse position {pos} outside [0, {n_samples})")
    x = np.zeros(n_samples)
    x[pos] = 1.0
    return x


def add_noise_snr(x: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    """Add white Gaussian noise rescaled to hit ``snr_db`` exactly.

    The noise draw is deterministic per seed and then scaled so that
    10*log10(||x||^2 / ||noise||^2) equals the requested SNR with no
    sampling variance. ``snr_db = inf`` returns the signal unchanged; NaN
    and -inf, which no noise level meets, raise ``ValueError``.
    """
    x = np.asarray(x, dtype=float)
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"snr_db must be a number or +inf, got {snr_db}")
    if snr_db == math.inf:
        return x.copy()
    norm_x = np.linalg.norm(x)
    if norm_x == 0.0:
        raise ValueError("SNR is undefined for an all-zero signal")
    rng = np.random.default_rng([int(seed), _NOISE_STREAM])
    noise = rng.standard_normal(x.size)
    noise *= norm_x / (np.linalg.norm(noise) * 10.0 ** (snr_db / 20.0))
    return x + noise


def benchmark_signal(seed: int, snr_db: float = 10.0) -> np.ndarray:
    """Two crossing chirps plus an impulse at sample 64, noise at 10 dB SNR."""
    x = linear_chirp(128, 0.0, 0.8) + linear_chirp(128, 0.8, 0.6) + dirac(128, 64)
    return add_noise_snr(x, snr_db, seed)
