"""Shared test helpers: the all-pairs constraint rows, the tests' reference for pli."""

import numpy as np

from phaseinpaint import phaselift
from phaseinpaint.gabor import flatten_grid
from phaseinpaint.phaselift import PliConstraints


def full_constraints(obs) -> PliConstraints:
    """Every ordered pair of phase-known cells, then the phase-missing diagonal rows.

    A superset of ``build_constraints``' anchored rows, in the same layout:
    pair (i, j) has target known_value[i] * conj(known_value[j]). Every
    known cell's row of ``_operators``' CSR matrices then holds entries for
    all known cells; the anchored rows fill only the anchor's row that way.
    """
    known = obs.known_flat_indices()
    missing = obs.missing_flat_indices()
    b_flat = flatten_grid(obs.known)
    grid_i, grid_j = np.meshgrid(known, known, indexing="ij")
    pair_i, pair_j = grid_i.ravel(), grid_j.ravel()
    return PliConstraints(
        rows_i=np.concatenate([pair_i, missing]),
        rows_j=np.concatenate([pair_j, missing]),
        targets=np.concatenate(
            [
                b_flat[pair_i] * np.conj(b_flat[pair_j]),
                (flatten_grid(obs.magnitudes)[missing] ** 2).astype(complex),
            ]
        ),
    )


def pli_solve_all_pairs(obs, monkeypatch):
    """``pli_solve(obs)`` on the all-pairs rows in place of the anchored ones."""
    with monkeypatch.context() as patch:
        patch.setattr(phaselift, "build_constraints", full_constraints)
        return phaselift.pli_solve(obs)
