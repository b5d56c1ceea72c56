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


def hole_mask(
    bins: int,
    frames: int,
    ratio: float,
    width: int,
    seed: int,
    return_log: bool = False,
):
    """Mask whose zeros form width-by-width square holes.

    Square blocks are dropped at uniformly random positions (clipped at the
    grid border, overlaps allowed) until the zero count first reaches the
    exact target round(ratio * bins * frames); surplus cells from the last
    block are then restored at random so every width hits the same count.

    With ``return_log=True`` also returns the list of placed block rectangles
    and the set of restored cells, for structural checks.
    """
    if not (1 <= width <= min(bins, frames)):
        raise ValueError(f"hole width must lie in [1, {min(bins, frames)}], got {width}")
    target = _zero_target(bins, frames, ratio)
    rng = np.random.default_rng([int(seed), _HOLE_STREAM])
    mask = np.ones((bins, frames), dtype=np.int64)
    blocks: list[tuple[int, int, int, int]] = []
    restored: list[tuple[int, int]] = []
    zeros = 0
    last_new: list[tuple[int, int]] = []
    while zeros < target:
        i = int(rng.integers(bins))
        j = int(rng.integers(frames))
        i1 = min(i + width, bins)
        j1 = min(j + width, frames)
        block = mask[i:i1, j:j1]
        new_cells = np.argwhere(block == 1)
        block[:, :] = 0
        blocks.append((i, i1, j, j1))
        last_new = [(i + di, j + dj) for di, dj in new_cells]
        zeros += len(last_new)
    if zeros > target:
        surplus = zeros - target
        pick = rng.choice(len(last_new), size=surplus, replace=False)
        for idx in pick:
            bi, bj = last_new[idx]
            mask[bi, bj] = 1
            restored.append((bi, bj))
    if return_log:
        return mask, blocks, restored
    return mask


def save_mask_csv(mask: np.ndarray, path) -> None:
    """Write a mask as a 0/1 integer grid."""
    np.savetxt(path, np.asarray(mask, dtype=np.int64), fmt="%d", delimiter=",")


def load_mask_csv(path) -> np.ndarray:
    grid = np.loadtxt(path, dtype=np.int64, delimiter=",", ndmin=2)
    if not np.all((grid == 0) | (grid == 1)):
        raise ValueError("mask file must contain only 0/1 entries")
    return grid
