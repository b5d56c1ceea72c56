"""Lifted semidefinite relaxation: recover the rank-one outer product.

The unknown signal x is replaced by the Hermitian PSD matrix L = x x^H.
Magnitude-only cells give linear constraints on the diagonal of M L M^H,
phase-known cells give linear constraints on its off-diagonal entries, and
the trace of L is driven down by a continuation of penalty weights. The
solver is a projected first-order method: data-fit descent steps alternated
with exact projection onto the PSD cone (eigendecomposition, negative
eigenvalues clipped).

Each step does one dense Hermitian eigendecomposition and no dense product
M L. The projection keeps only the positive eigenpairs and returns the thin
factor F = V+ sqrt(lambda+) (n x r) of the candidate F F^H, which is low rank
after the first few steps. The candidate's constraint values follow from
M F alone, (M F F^H M^H)[i, j] = sum_k (M F)[i, k] conj((M F)[j, k]), and its
trace is ||F||_F^2. The momentum point is an affine combination of the
candidate and the last two incumbents, so its residual and trace are the
same combination of theirs and need no evaluation either. Dense constraint
evaluation runs once for the starting lift and once at the end of each
penalty stage, where it gives ``feas_residual`` and ``converged`` as an
independent check.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .gabor import atom_matrix, flatten_grid, istft
from .observe import Observations

_DEFAULT_SCHEDULE = (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


@dataclass(frozen=True)
class PliConfig:
    constraint_mode: str = "anchored"
    max_outer: int = 7
    max_inner: int = 500
    penalty_schedule: tuple[float, ...] = _DEFAULT_SCHEDULE
    feas_tol: float = 1e-6
    obj_tol: float = 1e-8
    polish: bool = True  # extra zero-penalty stage if feasibility is not met


@dataclass(frozen=True)
class PliConstraints:
    """Linear constraints on the lifted matrix.

    Pair rows fix (M L M^H)[i, j] to known_value[i] * conj(known_value[j]);
    diagonal rows fix (M L M^H)[k, k] to magnitude[k]**2. The orientation of
    the pair targets is pinned by requiring the lift of the true signal to be
    feasible (checked in tests).
    """

    pair_i: np.ndarray
    pair_j: np.ndarray
    pair_target: np.ndarray
    diag_k: np.ndarray
    diag_target: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.pair_i.size + self.diag_k.size


@dataclass
class LiftedMatrix:
    """Solver output: the PSD estimate of x x^H plus diagnostics."""

    values: np.ndarray
    converged: bool = True
    feas_residual: float = 0.0
    trace: float = 0.0
    rank_estimate: int = 1
    eig_ratio: float = 0.0  # second / leading eigenvalue
    stage_log: list = field(default_factory=list)


def build_constraints(obs: Observations, mode: str = "anchored") -> PliConstraints:
    """Assemble the constraint rows for one observation set.

    ``full`` emits every ordered pair of phase-known cells. ``anchored``
    emits each known cell against itself plus against the single known cell
    of largest magnitude; on a rank-one PSD matrix this pins the same set of
    phases at a fraction of the rows. With no known cells both modes reduce
    to magnitude-only diagonal constraints.
    """
    if mode not in ("full", "anchored"):
        raise ValueError(f"constraint mode must be 'full' or 'anchored', got {mode!r}")
    known = obs.known_flat_indices()
    missing = obs.missing_flat_indices()
    r_flat = flatten_grid(obs.magnitudes)
    b_flat = flatten_grid(obs.known)
    diag_k = missing.copy()
    diag_target = r_flat[missing] ** 2
    if known.size == 0:
        pair_i = np.zeros(0, dtype=np.int64)
        pair_j = np.zeros(0, dtype=np.int64)
        pair_target = np.zeros(0, dtype=complex)
    elif mode == "full":
        grid_i, grid_j = np.meshgrid(known, known, indexing="ij")
        pair_i = grid_i.ravel()
        pair_j = grid_j.ravel()
        pair_target = b_flat[pair_i] * np.conj(b_flat[pair_j])
    else:
        anchor = known[int(np.argmax(r_flat[known]))]
        others = known[known != anchor]
        pair_i = np.concatenate([known, others])
        pair_j = np.concatenate([known, np.full(others.size, anchor, dtype=np.int64)])
        pair_target = b_flat[pair_i] * np.conj(b_flat[pair_j])
    return PliConstraints(
        pair_i=pair_i,
        pair_j=pair_j,
        pair_target=pair_target,
        diag_k=diag_k,
        diag_target=diag_target,
    )


def _row_products(cons: PliConstraints, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sum_k A[i, k] * conj(B[j, k]) for every constraint row (i, j)."""
    rows_i = np.concatenate([cons.pair_i, cons.diag_k])
    rows_j = np.concatenate([cons.pair_j, cons.diag_k])
    return np.einsum("rk,rk->r", A[rows_i], np.conj(B[rows_j]))


def constraint_values(obs: Observations, cons: PliConstraints, L: np.ndarray) -> np.ndarray:
    """Evaluate every constraint row at a candidate lifted matrix."""
    M = atom_matrix(obs.system)
    return _row_products(cons, M @ L, M)


def factor_values(obs: Observations, cons: PliConstraints, F: np.ndarray) -> np.ndarray:
    """Evaluate every constraint row at the lifted matrix F F^H from its factor F (n x r).

    Costs O(cells * n * r) against O(cells * n^2) for :func:`constraint_values`.
    """
    MF = atom_matrix(obs.system) @ F
    return _row_products(cons, MF, MF)


def _psd_factor(A: np.ndarray) -> np.ndarray:
    """Thin factor F (n x r) of the exact PSD-cone projection F F^H of Herm(A).

    Only the r positive eigenpairs are kept: F = V+ sqrt(lambda+).
    """
    vals, vecs = np.linalg.eigh(0.5 * (A + A.conj().T))
    keep = vals > 0.0
    return vecs[:, keep] * np.sqrt(vals[keep])


def _extrapolate(new, cand, old, t_m: float, t_new: float):
    """Momentum point new + (t_m/t_new)(cand - new) + ((t_m-1)/t_new)(new - old).

    The coefficients sum to one, so the point's constraint residual and trace
    are this same combination of those of new, cand and old.
    """
    return new + (t_m / t_new) * (cand - new) + ((t_m - 1.0) / t_new) * (new - old)


def _rank_estimate(eigvals: np.ndarray, rel_tol: float = 1e-6) -> int:
    top = float(eigvals[-1])
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(eigvals > rel_tol * top))


def pli_solve(obs: Observations, cfg: PliConfig = PliConfig()) -> LiftedMatrix:
    """Minimize the trace over the PSD matrices matching the observations.

    Runs projected (accelerated) gradient descent on
    ``||A(L) - targets||^2 + mu * trace(L)`` for a decreasing schedule of
    penalty weights, warm-starting each stage from the previous one. On
    return the constraint residual, trace and rank diagnostics are attached;
    ``converged`` is False if the feasibility tolerance was not reached.
    """
    system = obs.system
    n = system.signal_len
    if obs.n_missing == 0:
        # every phase observed: the problem is plain linear inversion and the
        # optimal lift is the rank-one outer product of the synthesized signal
        x0 = istft(system, obs.known)
        L = np.outer(x0, np.conj(x0))
        cons = build_constraints(obs, cfg.constraint_mode)
        res = constraint_values(obs, cons, L) - np.concatenate(
            [cons.pair_target, cons.diag_target.astype(complex)]
        )
        t_norm = max(
            float(np.linalg.norm(np.concatenate([cons.pair_target, cons.diag_target]))),
            1e-300,
        )
        return LiftedMatrix(
            values=L,
            converged=True,
            feas_residual=float(np.linalg.norm(res)) / t_norm,
            trace=float(np.trace(L).real),
            rank_estimate=1,
            eig_ratio=0.0,
        )

    cons = build_constraints(obs, cfg.constraint_mode)
    M = atom_matrix(system)
    MH = np.ascontiguousarray(M.conj().T)
    rows_i = np.concatenate([cons.pair_i, cons.diag_k])
    rows_j = np.concatenate([cons.pair_j, cons.diag_k])
    targets = np.concatenate([cons.pair_target, cons.diag_target.astype(complex)])

    beta = float(np.linalg.norm(targets))
    if beta == 0.0:
        return LiftedMatrix(values=np.zeros((n, n), dtype=complex), converged=True)

    # scatter matrix for the adjoint: S[rows_j, rows_i] = conj(residual)
    order = sp.csr_matrix(
        (np.arange(rows_i.size) + 1.0, (rows_j, rows_i)),
        shape=(system.n_cells, system.n_cells),
    )
    perm = order.data.astype(np.int64) - 1
    S = order.copy().astype(complex)

    def fit_gradient(res: np.ndarray) -> np.ndarray:
        S.data = np.conj(res)[perm]
        G = MH @ (S @ M)
        return G + G.conj().T  # = 2 * Herm(M^H S M)

    sum_r2 = float(np.sum(flatten_grid(obs.magnitudes) ** 2))
    frame_weight = float(np.sum(np.abs(M) ** 2))
    tau0 = max(sum_r2 * n / frame_weight, 1e-300)

    schedule = list(cfg.penalty_schedule[: cfg.max_outer])
    # the incumbent L with its cached constraint residual and trace
    L = (tau0 / n) * np.eye(n, dtype=complex)
    res_L = constraint_values(obs, cons, L) - targets
    tr_L = tau0
    step = 1.0 / max(frame_weight, 1.0)
    stage_log: list[dict] = []
    rel_feas = np.inf
    stall_tol = 1e-15 * beta * beta

    stages = [lam * beta**2 / tau0 for lam in schedule]
    if cfg.polish:
        stages.append(0.0)
    for stage_idx, mu in enumerate(stages):
        final_stage = stage_idx >= len(schedule) - 1
        if stage_idx == len(schedule) and rel_feas <= cfg.feas_tol:
            break  # polish stage not needed
        t0 = time.perf_counter()
        f_fit_L = float(np.vdot(res_L, res_L).real)
        f_L = f_fit_L + mu * tr_L
        Y, res_y, tr_y = L, res_L, tr_L
        t_m = 1.0
        stall = 0
        iterations = projections = 0
        # warm-up stages only need enough accuracy to hand over a good start
        inner_cap = cfg.max_inner if final_stage else min(cfg.max_inner, 200)
        stage_stall_rel = 1e-12 if final_stage else 1e-9
        for _ in range(inner_cap):
            iterations += 1
            f_y = float(np.vdot(res_y, res_y).real) + mu * tr_y
            grad = fit_gradient(res_y)
            grad[np.diag_indices(n)] += mu
            while True:
                F = _psd_factor(Y - step * grad)
                projections += 1
                cand = F @ F.conj().T
                delta = cand - Y
                res_c = factor_values(obs, cons, F) - targets
                tr_c = float(np.vdot(F, F).real)
                f_fit_c = float(np.vdot(res_c, res_c).real)
                f_cand = f_fit_c + mu * tr_c
                quad = (
                    f_y
                    + float(np.vdot(grad, delta).real)
                    + float(np.vdot(delta, delta).real) / (2.0 * step)
                )
                if f_cand <= quad + 1e-12 * max(1.0, abs(f_y)) or step < 1e-30:
                    break
                step *= 0.5
            # monotone acceleration: keep the better of candidate and incumbent,
            # but let the extrapolation point follow the candidate
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_m * t_m))
            if f_cand < f_L:
                gain = f_L - f_cand
                L_new, res_new, tr_new, f_L_new, f_fit_L_new = cand, res_c, tr_c, f_cand, f_fit_c
            else:
                gain = 0.0
                L_new, res_new, tr_new, f_L_new, f_fit_L_new = L, res_L, tr_L, f_L, f_fit_L
            Y = _extrapolate(L_new, cand, L, t_m, t_new)
            res_y = _extrapolate(res_new, res_c, res_L, t_m, t_new)
            tr_y = _extrapolate(tr_new, tr_c, tr_L, t_m, t_new)
            L, res_L, tr_L, f_L, f_fit_L = L_new, res_new, tr_new, f_L_new, f_fit_L_new
            t_m = t_new
            step *= 1.1
            if final_stage and np.sqrt(f_fit_L) / beta <= 0.3 * cfg.feas_tol:
                break
            if gain <= stall_tol + stage_stall_rel * abs(f_L):
                stall += 1
                if stall >= 5:
                    break
            else:
                stall = 0
        res = constraint_values(obs, cons, L) - targets
        rel_feas = float(np.linalg.norm(res)) / beta
        eigvals = np.linalg.eigvalsh(0.5 * (L + L.conj().T))
        stage_log.append(
            {
                "stage": stage_idx,
                "lambda": float(mu * tau0 / beta**2) if beta > 0 else 0.0,
                "feas_residual": rel_feas,
                "trace": float(np.trace(L).real),
                "rank_estimate": _rank_estimate(eigvals),
                "iterations": iterations,
                "projections": projections,
                "seconds": time.perf_counter() - t0,
            }
        )

    L = 0.5 * (L + L.conj().T)
    eigvals = np.linalg.eigvalsh(L)
    top = float(eigvals[-1])
    second = float(eigvals[-2]) if n >= 2 else 0.0
    return LiftedMatrix(
        values=L,
        converged=bool(rel_feas <= cfg.feas_tol),
        feas_residual=rel_feas,
        trace=float(np.trace(L).real),
        rank_estimate=_rank_estimate(eigvals),
        eig_ratio=(second / top) if top > 0 else np.inf,
        stage_log=stage_log,
    )


def extract_signal(lifted: LiftedMatrix, obs: Observations) -> np.ndarray:
    """Leading-eigenpair extraction with global-phase alignment.

    The candidate is sqrt(lambda_1) * v_1, rotated by the unit scalar that
    best matches the phase-known measurements in least squares. With no
    known cells the result is defined only up to a global phase.
    """
    A = 0.5 * (lifted.values + lifted.values.conj().T)
    vals, vecs = np.linalg.eigh(A)
    lam = float(vals[-1])
    if lam <= 0.0:
        raise ValueError("lifted matrix has no positive eigenvalue; extraction is degenerate")
    x_hat = np.sqrt(lam) * vecs[:, -1]
    known = obs.known_flat_indices()
    if known.size > 0:
        b_flat = flatten_grid(obs.known)
        measured = (atom_matrix(obs.system) @ x_hat)[known]
        cross = np.sum(measured * np.conj(b_flat[known]))
        if abs(cross) > 0.0:
            x_hat = x_hat * (np.conj(cross) / abs(cross))
    return x_hat


def write_stage_log(lifted: LiftedMatrix, path) -> None:
    """Dump the per-stage solver log as JSON."""
    with open(path, "w") as fh:
        json.dump(lifted.stage_log, fh, indent=2)
        fh.write("\n")
