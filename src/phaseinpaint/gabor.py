"""Gabor analysis and synthesis operators on short periodic signals.

Everything here is circular: frames wrap around the signal boundary, so a
system with ``frames * hop == signal_len`` tiles the whole signal exactly.
The synthesis operator is the Moore-Penrose pseudo-inverse of the analysis
matrix, which makes analysis -> synthesis an exact round trip whenever the
window shifts cover every sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np


@dataclass(frozen=True, eq=False)
class GaborSystem:
    """Windowed Fourier measurement geometry.

    Instances are immutable and hashed by identity so that the derived
    operator matrices can be cached per system. Use :func:`make_gabor_system`
    to construct a validated instance.
    """

    window: np.ndarray
    hop: int
    bins: int
    frames: int
    signal_len: int

    @property
    def n_cells(self) -> int:
        """Number of time-frequency cells (bins * frames)."""
        return self.bins * self.frames


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window w[n] = 0.5 * (1 - cos(2 pi n / length))."""
    if length < 1:
        raise ValueError("window length must be >= 1")
    n = np.arange(length)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * n / length))


def make_gabor_system(window, hop: int, bins: int, signal_len: int) -> GaborSystem:
    """Validate the geometry and build a :class:`GaborSystem`.

    Requirements checked here:

    * ``hop``, ``bins`` and ``signal_len`` are positive integers, not booleans,
    * ``signal_len`` is a multiple of ``hop`` (circular framing),
    * ``bins >= len(window)`` (diagonal frame operator, exact inverse),
    * the window is real, finite, not identically zero, and its hop-shifted
      copies cover every sample (otherwise synthesis cannot be exact).
    """
    w = np.asarray(window, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("window must be a non-empty 1-D real vector")
    if not np.all(np.isfinite(w)):
        raise ValueError("window samples must be finite")
    if not np.any(w != 0.0):
        raise ValueError("window must have at least one nonzero sample")
    for name, size in (("hop", hop), ("bins", bins), ("signal_len", signal_len)):
        if isinstance(size, bool) or not isinstance(size, Integral) or size < 1:
            raise ValueError(f"{name} must be a positive integer, got {size!r}")
    if signal_len % hop != 0:
        raise ValueError(
            f"signal_len ({signal_len}) must be divisible by hop ({hop}) "
            "for circular framing"
        )
    if w.size > signal_len:
        raise ValueError("window cannot be longer than the signal")
    if bins < w.size:
        raise ValueError(
            f"bins ({bins}) must be >= window length ({w.size}) so the frame "
            "operator stays diagonal"
        )
    frames = signal_len // hop
    # Sample n is covered iff a window sample j = n (mod hop) is nonzero: a
    # fold of counts (squares could overflow or underflow), not a sum over
    # frames. A hop longer than the window leaves gaps; testing that first
    # keeps the fold at most len(w) entries long.
    covered = hop <= w.size and np.all(
        np.bincount(np.arange(w.size) % hop, weights=w != 0.0, minlength=hop) > 0.0
    )
    if not covered:
        raise ValueError("window shifts leave at least one sample uncovered")
    w = w.copy()
    w.setflags(write=False)
    return GaborSystem(window=w, hop=hop, bins=bins, frames=frames, signal_len=signal_len)


def flatten_grid(grid: np.ndarray) -> np.ndarray:
    """Flatten a bins-by-frames grid to a vector in canonical cell order k = t * bins + nu."""
    return np.ravel(grid, order="F")


def unflatten_grid(sys: GaborSystem, vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`flatten_grid`."""
    return np.reshape(vec, (sys.bins, sys.frames), order="F")


@lru_cache(maxsize=16)
def atom_matrix(sys: GaborSystem) -> np.ndarray:
    """Dense analysis matrix M; row t*bins+nu holds the conjugated Gabor atom,
    the window circularly shifted by t*hop and modulated to bin nu.

    ``M @ x`` equals the flattened analysis coefficients of ``x``.
    """
    n = np.arange(sys.signal_len)
    w_full = np.zeros(sys.signal_len)
    w_full[: sys.window.size] = sys.window
    mod = np.exp(-2j * np.pi * np.outer(np.arange(sys.bins), n) / sys.bins)
    blocks = [mod * np.roll(w_full, t * sys.hop)[None, :] for t in range(sys.frames)]
    mat = np.vstack(blocks)
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=16)
def frame_atoms(sys: GaborSystem) -> tuple[np.ndarray, np.ndarray]:
    """``(support, atoms)``: each frame's window samples and its atoms there.

    Row t*bins+nu of the analysis matrix is zero off frame t's window, the
    samples ``support[t] = (t*hop + p) mod signal_len`` for p < len(window);
    ``atoms[t, nu]`` holds that row's entries on them (frames x bins x
    len(window)).
    """
    n = sys.signal_len
    support = (sys.hop * np.arange(sys.frames)[:, None] + np.arange(sys.window.size)) % n
    atoms = np.take_along_axis(
        atom_matrix(sys).reshape(sys.frames, sys.bins, n), support[:, None, :], axis=2
    )
    support.setflags(write=False)
    atoms.setflags(write=False)
    return support, atoms


def frame_analysis(sys: GaborSystem, x: np.ndarray) -> np.ndarray:
    """``atom_matrix(sys) @ x`` for a length-n vector, frame by frame on the windows.

    One stacked product of ``frame_atoms`` with the window samples of x:
    bins x len(window) multiplies per frame in place of bins x n. Any other
    shape of x raises ``ValueError``, as in :func:`stft`.
    """
    support, atoms = frame_atoms(sys)
    return np.matmul(atoms, _signal(sys, x).take(support)[:, :, None]).ravel()


@lru_cache(maxsize=16)
def synthesis_matrix(sys: GaborSystem) -> np.ndarray:
    """Pseudo-inverse of the analysis matrix (least-squares synthesis)."""
    pinv = np.linalg.pinv(atom_matrix(sys))
    pinv.setflags(write=False)
    return pinv


@lru_cache(maxsize=16)
def range_projector(sys: GaborSystem) -> np.ndarray:
    """Orthogonal projector onto the range of the analysis matrix."""
    proj = atom_matrix(sys) @ synthesis_matrix(sys)
    proj = 0.5 * (proj + proj.conj().T)
    proj.setflags(write=False)
    return proj


def _signal(sys: GaborSystem, x: np.ndarray) -> np.ndarray:
    """``x`` as an array after checking that it is a length-n vector."""
    x = np.asarray(x)
    if x.shape != (sys.signal_len,):
        raise ValueError(f"signal must have shape ({sys.signal_len},), got {x.shape}")
    return x


def stft(sys: GaborSystem, x: np.ndarray) -> np.ndarray:
    """Analysis coefficients of ``x`` as a bins-by-frames complex grid."""
    return unflatten_grid(sys, atom_matrix(sys) @ _signal(sys, x))


def _flat_coeffs(sys: GaborSystem, coeffs: np.ndarray) -> np.ndarray:
    """``flatten_grid(coeffs)`` after checking that coeffs is a bins-by-frames grid."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (sys.bins, sys.frames):
        raise ValueError(
            f"coefficients must have shape ({sys.bins}, {sys.frames}), got {coeffs.shape}"
        )
    return flatten_grid(coeffs)


def istft(sys: GaborSystem, coeffs: np.ndarray) -> np.ndarray:
    """Least-squares synthesis: the signal whose analysis best matches coeffs."""
    return synthesis_matrix(sys) @ _flat_coeffs(sys, coeffs)


def consistency_projection(sys: GaborSystem, coeffs: np.ndarray) -> np.ndarray:
    """Project a coefficient grid onto the set of realizable analyses.

    Computed as analysis(synthesis(coeffs)): one product with the n x cells
    synthesis matrix, then :func:`frame_analysis`, in place of the cells x
    cells ``range_projector``, which it matches to rounding. Idempotent and
    self-adjoint.
    """
    x = synthesis_matrix(sys) @ _flat_coeffs(sys, coeffs)
    return unflatten_grid(sys, frame_analysis(sys, x))


@lru_cache(maxsize=1)
def benchmark_system() -> GaborSystem:
    """The default desk-scale system: Hann 16, hop 8, 32 bins, 128 samples."""
    return make_gabor_system(hann_window(16), hop=8, bins=32, signal_len=128)
