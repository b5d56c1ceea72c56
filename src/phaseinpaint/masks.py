"""Binary known-phase masks over the time-frequency grid.

Convention: entry 1 means magnitude and phase are both observed, 0 means
only the magnitude is observed. Both generators hit the requested count of
zeros exactly, so different mask shapes are comparable at identical missing
ratios.
"""

from __future__ import annotations

import numpy as np

_RANDOM_STREAM = 0x3A5C01
_HOLE_STREAM = 0x3A5C02


def _zero_target(bins: int, frames: int, ratio: float) -> int:
    if not (0.0 <= ratio <= 1.0):
        raise ValueError(f"missing ratio must lie in [0, 1], got {ratio}")
    return int(round(ratio * bins * frames))


def random_mask(bins: int, frames: int, ratio: float, seed: int) -> np.ndarray:
    """Mask with exactly round(ratio * bins * frames) zeros, placed uniformly."""
    target = _zero_target(bins, frames, ratio)
    rng = np.random.default_rng([int(seed), _RANDOM_STREAM])
    flat = np.ones(bins * frames, dtype=np.int64)
    zero_at = rng.choice(bins * frames, size=target, replace=False)
    flat[zero_at] = 0
    return flat.reshape((bins, frames), order="F")


def hole_mask(bins: int, frames: int, ratio: float, width: int, seed: int) -> np.ndarray:
    """Mask whose zeros form width-by-width square holes.

    Square blocks are dropped at uniformly random positions (clipped at the
    grid border, overlaps allowed) until the zero count first reaches the
    exact target round(ratio * bins * frames); surplus cells from the last
    block are then restored at random so every width hits the same count.
    """
    if not (1 <= width <= min(bins, frames)):
        raise ValueError(f"hole width must lie in [1, {min(bins, frames)}], got {width}")
    target = _zero_target(bins, frames, ratio)
    rng = np.random.default_rng([int(seed), _HOLE_STREAM])
    mask = np.ones((bins, frames), dtype=np.int64)
    zeros = 0
    while zeros < target:
        i, j = rng.integers(bins), rng.integers(frames)
        block = mask[i : i + width, j : j + width]
        last_new = np.argwhere(block == 1) + (i, j)  # the cells this block zeroed
        block[...] = 0
        zeros += len(last_new)
    if zeros > target:
        restore = last_new[rng.choice(len(last_new), size=zeros - target, replace=False)]
        mask[restore[:, 0], restore[:, 1]] = 1
    return mask


def save_mask_csv(mask: np.ndarray, path) -> None:
    """Write a mask as a 0/1 integer grid."""
    np.savetxt(path, np.asarray(mask, dtype=np.int64), fmt="%d", delimiter=",")


def load_mask_csv(path) -> np.ndarray:
    grid = np.loadtxt(path, dtype=np.int64, delimiter=",", ndmin=2)
    if not np.all((grid == 0) | (grid == 1)):
        raise ValueError("mask file must contain only 0/1 entries")
    return grid
