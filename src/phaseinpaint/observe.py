"""Observation model: magnitudes everywhere, phases only on a mask.

Solvers receive an :class:`Observations` object, which holds only
``known`` (complex values, zeroed off the mask), ``magnitudes`` and
``mask``: the phases off the mask are not kept, so no solver has a code
path to them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .gabor import GaborSystem, flatten_grid, make_gabor_system, stft, unflatten_grid
from .masks import load_mask_csv, save_mask_csv

_RPI_STREAM = 0x79F1


class Observations:
    """Measurements of one signal under one known-phase mask."""

    __slots__ = ("system", "mask", "magnitudes", "known")

    def __init__(
        self,
        system: GaborSystem,
        coeffs: np.ndarray,
        mask: np.ndarray,
        magnitudes: np.ndarray | None = None,
    ):
        coeffs = np.asarray(coeffs, dtype=complex)
        mask = np.asarray(mask)
        shape = (system.bins, system.frames)
        if coeffs.shape != shape:
            raise ValueError(f"coefficients must have shape {shape}, got {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        if mask.shape != shape:
            raise ValueError(f"mask must have shape {shape}, got {mask.shape}")
        if not np.all((mask == 0) | (mask == 1)):
            raise ValueError("mask entries must be 0 or 1")
        if magnitudes is None:
            magnitudes = np.abs(coeffs)
        else:
            magnitudes = np.asarray(magnitudes, dtype=float)
            if magnitudes.shape != shape:
                raise ValueError(f"magnitudes must have shape {shape}, got {magnitudes.shape}")
            if not np.all(np.isfinite(magnitudes)):
                raise ValueError("magnitudes must be finite")
            if np.any(magnitudes < 0.0):
                raise ValueError("magnitudes must be nonnegative")
            on_support = mask == 1
            if not np.allclose(
                magnitudes[on_support], np.abs(coeffs[on_support]), rtol=1e-12, atol=1e-12
            ):
                raise ValueError("magnitudes disagree with |coefficients| on the mask support")
        self.system = system
        self.mask = mask.astype(np.int64)
        self.mask.setflags(write=False)
        self.magnitudes = magnitudes
        self.magnitudes.setflags(write=False)
        self.known = coeffs * self.mask
        self.known.setflags(write=False)

    @property
    def n_known(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def n_missing(self) -> int:
        return int(self.mask.size - self.n_known)

    def known_flat_indices(self) -> np.ndarray:
        """Flat cell indices (canonical order) where the phase is observed."""
        return np.flatnonzero(flatten_grid(self.mask))

    def missing_flat_indices(self) -> np.ndarray:
        return np.flatnonzero(flatten_grid(self.mask) == 0)


def observe(system: GaborSystem, x: np.ndarray, mask: np.ndarray) -> Observations:
    """Measure a signal: full magnitudes, phases only where the mask is 1."""
    return Observations(system, stft(system, np.asarray(x, dtype=complex)), mask)


def rpi_fill(obs: Observations, seed: int) -> np.ndarray:
    """Baseline fill: keep observed phases, draw missing ones uniformly.

    Returns a full coefficient grid with the observed magnitudes everywhere.
    """
    rng = np.random.default_rng([int(seed), _RPI_STREAM])
    random_phase = rng.uniform(0.0, 2.0 * np.pi, size=obs.mask.shape)
    return np.where(obs.mask == 1, obs.known, obs.magnitudes * np.exp(1j * random_phase))


def save_observations(obs: Observations, directory) -> None:
    """Serialize observations to a directory (known values, magnitudes, mask, system)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sys_desc = {
        "window": [float(v) for v in obs.system.window],
        "hop": obs.system.hop,
        "bins": obs.system.bins,
        "frames": obs.system.frames,
        "signal_len": obs.system.signal_len,
    }
    (directory / "sys.json").write_text(json.dumps(sys_desc, indent=2) + "\n")
    np.savetxt(directory / "r.csv", obs.magnitudes, fmt="%.17g", delimiter=",")
    save_mask_csv(obs.mask, directory / "mask.csv")
    known_flat = flatten_grid(obs.known)
    rows = []
    for k in obs.known_flat_indices():
        rows.append(f"{k},{known_flat[k].real:.17g},{known_flat[k].imag:.17g}")
    (directory / "b.csv").write_text("index,re,im\n" + "\n".join(rows) + ("\n" if rows else ""))


def load_observations(directory) -> Observations:
    """Load observations written by :func:`save_observations`.

    The loaded object carries no information beyond what a solver is allowed
    to see: off-mask coefficients come back as zeros. Raises ValueError if
    sys.json is not an object with integer hop, bins and signal_len and a
    window that is a non-empty list of finite numbers, or if a b.csv index is
    not an integer, lies off the grid, repeats or is off the mask.
    """
    directory = Path(directory)
    sys_desc = json.loads((directory / "sys.json").read_text())
    sizes = ("hop", "bins", "signal_len")
    window = sys_desc.get("window") if isinstance(sys_desc, dict) else None
    if (
        not isinstance(window, list)  # also when sys.json holds no object
        or any(type(sys_desc.get(k)) is not int for k in sizes)
        or not window
        or any(type(v) not in (int, float) or not abs(v) <= sys.float_info.max for v in window)
    ):
        raise ValueError(
            f"sys.json must be an object with integer {', '.join(sizes)} "
            "and a non-empty list of finite numbers as window"
        )
    system = make_gabor_system(np.asarray(window, dtype=float), **{k: sys_desc[k] for k in sizes})
    magnitudes = np.loadtxt(directory / "r.csv", delimiter=",", ndmin=2)
    mask = load_mask_csv(directory / "mask.csv")
    coeffs_flat = np.zeros(system.n_cells, dtype=complex)
    indices: set[int] = set()
    text = (directory / "b.csv").read_text().strip().splitlines()
    for line in text[1:]:
        k_str, re_str, im_str = line.split(",")
        try:
            k = int(k_str)
        except ValueError:
            raise ValueError(f"b.csv index {k_str!r} is not an integer") from None
        if not 0 <= k < system.n_cells:
            raise ValueError(f"b.csv index {k} is outside [0, {system.n_cells})")
        if k in indices:
            raise ValueError(f"b.csv index {k} repeats")
        indices.add(k)
        coeffs_flat[k] = float(re_str) + 1j * float(im_str)
    coeffs = unflatten_grid(system, coeffs_flat)
    obs = Observations(system, coeffs, mask, magnitudes=magnitudes)
    mask_flat = flatten_grid(obs.mask)
    off_mask = sorted(k for k in indices if mask_flat[k] == 0)
    if off_mask:
        raise ValueError(f"b.csv index {off_mask[0]} lies on a cell where mask.csv is 0")
    return obs
