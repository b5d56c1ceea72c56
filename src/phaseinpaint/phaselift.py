"""Lifted semidefinite relaxation: recover the rank-one outer product.

The unknown signal x is replaced by the Hermitian PSD matrix L = x x^H.
Magnitude-only cells give linear constraints on the diagonal of M L M^H,
phase-known cells give linear constraints on its off-diagonal entries, and
the trace of L is driven down by a continuation of penalty weights.

The solver descends on a thin factor V (n x 4) of L = V V^H (Burer &
Monteiro 2003): L is PSD by construction and trace(L) = ||V||_F^2. Each
warm-up stage takes limited-memory BFGS steps on V (Liu & Nocedal 1989),
as Burer & Monteiro did; V carries its product with M, and the candidates
of a line search are formed by linearity from M V and M d, so a step costs
two dense products (M d and M^H W) and one sparse one. After this warm-up,
Levenberg-Marquardt fits the constraints with a rank-one factor x, the
leading singular direction of V (Gauss-Newton for phaseless data: Gao &
Xu 2017). No n x n matrix is formed: the solver returns x, a fresh M V at
each stage end gives ``feas_residual`` and ``converged``, and the
diagnostics come from the singular values of the factor. The sparse
constraint operators are the package's only use of scipy, which loads on
the first pli solve of a process, not on import.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .gabor import atom_matrix, flatten_grid, istft
from .observe import Observations

_WARM_RANK = 4  # columns of V in the warm-up penalty stages
_WARM_STEPS = 200  # step cap per warm-up stage; LM only needs a good start
_INIT_SEED = 0x1F7  # seed of the orthonormal starting factor
_LBFGS_MEMORY = 10  # (s, y) pairs kept; 5 lost a hole instance


@dataclass(frozen=True)
class PliConfig:
    # fixed solver constants, readable but not settable; pli_solve keeps its
    # cfg parameter because perfbench/tracer.py's _pli_info binds it and reads
    # penalty_schedule[: max_outer] (until the tracer counts stages from
    # stage_log, ROADMAP item 1), the tests the other two
    penalty_schedule: ClassVar[tuple[float, ...]] = (1.0, 1e-1, 1e-2, 1e-3)
    max_outer: ClassVar[int] = 4
    max_inner: ClassVar[int] = 500  # the LM iteration cap
    feas_tol: ClassVar[float] = 1e-6


@dataclass(frozen=True)
class PliConstraints:
    """Linear constraints on the lifted matrix, one row per (i, j) cell pair.

    Row r fixes (M L M^H)[rows_i[r], rows_j[r]] to targets[r]. Pair rows
    come first, with known_value[i] * conj(known_value[j]) as target;
    diagonal rows (k, k) of the phase-missing cells follow, with
    magnitude[k]**2. The orientation of the pair targets is pinned by
    requiring the lift of the true signal to be feasible (checked in tests).
    """

    rows_i: np.ndarray
    rows_j: np.ndarray
    targets: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.rows_i.size


@dataclass
class LiftedMatrix:
    """Solver output: thin factor of the PSD estimate of x x^H plus diagnostics."""

    factor: np.ndarray  # n x r; the lifted matrix is factor @ factor^H
    converged: bool = True
    feas_residual: float = 0.0
    stage_log: list = field(default_factory=list)

    @property
    def rank_estimate(self) -> int:
        return _rank_estimate(_spectrum(self.factor))


def build_constraints(obs: Observations) -> PliConstraints:
    """Assemble the constraint rows for one observation set.

    Each phase-known cell is paired with itself and with the single known
    cell of largest magnitude (the anchor); on a rank-one PSD matrix this
    pins the phases that all ordered pairs of known cells would, at a
    fraction of the rows. With no known cells only the magnitude-only
    diagonal constraints remain.
    """
    known = obs.known_flat_indices()
    missing = obs.missing_flat_indices()
    r_flat = flatten_grid(obs.magnitudes)
    b_flat = flatten_grid(obs.known)
    if known.size == 0:
        pair_i = pair_j = np.zeros(0, dtype=np.int64)
    else:
        anchor = known[int(np.argmax(r_flat[known]))]
        others = known[known != anchor]
        pair_i = np.concatenate([known, others])
        pair_j = np.concatenate([known, np.full(others.size, anchor, dtype=np.int64)])
    pair_target = b_flat[pair_i] * np.conj(b_flat[pair_j])
    return PliConstraints(
        rows_i=np.concatenate([pair_i, missing]),
        rows_j=np.concatenate([pair_j, missing]),
        targets=np.concatenate([pair_target, (r_flat[missing] ** 2).astype(complex)]),
    )


def _row_products(cons: PliConstraints, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sum_k A[i, k] * conj(B[j, k]) for every constraint row (i, j)."""
    A_i, B_j = A.take(cons.rows_i, axis=0), B.take(cons.rows_j, axis=0)
    return np.einsum("rk,rk->r", A_i, np.conj(B_j))


def _scatter(rows: np.ndarray, cols: np.ndarray, n_cells: int):
    """CSR S with one unsummed entry per (rows[k], cols[k]); set ``S.data = values.take(order)``."""
    import scipy.sparse as sp  # only pli needs scipy; gli, pci and rpi never load it
    order = np.argsort(rows, kind="stable")
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=n_cells))]
    S = sp.csr_matrix(
        (np.zeros(rows.size, dtype=complex), cols[order], indptr), shape=(n_cells, n_cells)
    )
    return S, order


def _operators(obs: Observations, cons: PliConstraints):
    """``(grad, normal)``: the warm-up gradient and LM's Gauss-Newton matrix.

    ``grad(V, MV, res, mu)``, with MV = M V and res the constraint residual at
    V, is the gradient 2 (M^H (S + S^H) M V + mu V) of ``||res||^2 + mu ||V||_F^2``:
    one sparse and one dense product, one CSR matrix S holding conj(res) at
    (j, i) and res at (i, j) for every row (i, j).

    ``normal(u)`` is J^T J of the constraint residual at u = M x. For
    x = a + i b, row (i, j) of the residual u_i conj(u_j) - t moves by
    C [da; db] with C = [A + B, i (A - B)], A = diag(conj(u_j)) M[rows_i] and
    B = diag(u_i) conj(M[rows_j]), and J^T J = Re(C^H C) (real, 2n x 2n). Its
    blocks come from A^H A = M^H diag(w_a) M, B^H B = conj(M^H diag(w_b) M)
    and A^H B = M^H P conj(M), with u_i u_j at (i, j) of the CSR matrix P.
    """
    M = atom_matrix(obs.system)
    MH, M_conj = np.ascontiguousarray(M.conj().T), np.conj(M)
    n_cells = obs.system.n_cells
    rows_i, rows_j = cons.rows_i, cons.rows_j
    S, s_order = _scatter(np.r_[rows_j, rows_i], np.r_[rows_i, rows_j], n_cells)
    P, p_order = _scatter(rows_i, rows_j, n_cells)

    def grad(V: np.ndarray, MV: np.ndarray, res: np.ndarray, mu: float) -> np.ndarray:
        S.data = np.concatenate([np.conj(res), res]).take(s_order)
        return 2.0 * (MH @ (S @ MV) + mu * V)

    def normal(u: np.ndarray) -> np.ndarray:
        AA = (MH * np.bincount(rows_i, np.abs(u[rows_j]) ** 2, minlength=n_cells)) @ M
        BB = np.conj((MH * np.bincount(rows_j, np.abs(u[rows_i]) ** 2, minlength=n_cells)) @ M)
        P.data = (u[rows_i] * u[rows_j]).take(p_order)
        AB = MH @ (P @ M_conj)
        both, herm, cross = AA + BB, AB + AB.conj().T, AA - BB - AB + AB.conj().T
        return np.block([[both + herm, 1j * cross], [-1j * cross.conj().T, both - herm]]).real

    return grad, normal


def _rank_estimate(eigvals: np.ndarray, rel_tol: float = 1e-6) -> int:
    top = float(eigvals[-1])
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(eigvals > rel_tol * top))


def _store_pair(memory: deque, s: np.ndarray, y: np.ndarray) -> None:
    """Keep the step s and gradient change y (flat, real) if their curvature is positive.

    The objective is quartic in V, so s.y can be negative; such a pair
    would make the inverse Hessian indefinite and is dropped.
    """
    sy = float(np.dot(s, y))
    if sy > 1e-12 * float(np.dot(y, y)):
        memory.append((s, y, 1.0 / sy))


def _lbfgs_direction(memory: deque, g: np.ndarray) -> np.ndarray:
    """-H g by the two-loop recursion (Nocedal & Wright 2006, Alg. 7.4).

    H is the BFGS inverse Hessian built from the stored pairs, oldest first,
    on H0 = (s.y / y.y) I of the newest pair; memory must not be empty.
    """
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * float(np.dot(s, q))
        q -= a * y
        alphas.append(a)
    _, y_new, rho_new = memory[-1]
    q *= 1.0 / (rho_new * float(np.dot(y_new, y_new)))
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        q += (a - rho * float(np.dot(y, q))) * s
    return -q


def _spectrum(V: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of V V^H that can be nonzero: one per column of V."""
    return np.linalg.svd(V, compute_uv=False)[::-1] ** 2


def pli_solve(obs: Observations, cfg: PliConfig = PliConfig()) -> LiftedMatrix:
    """Minimize the trace over the PSD matrices matching the observations.

    Runs limited-memory BFGS with Armijo backtracking on the factor V of
    L = V V^H for ``||A(V V^H) - targets||^2 + mu * ||V||_F^2`` over a
    decreasing schedule of penalty weights, warm-starting each stage from
    the previous one with an empty memory, then Levenberg-Marquardt on
    ``||A(x x^H) - targets||^2`` (one damped solve and one candidate per
    iteration) from the leading singular direction x of V. A stage's
    ``iterations`` count its steps and its ``projections`` the candidates
    its line searches evaluated.
    Returns x (n x 1) with its relative constraint residual and the stage
    log; ``converged`` is False if the feasibility tolerance was not reached.
    """
    system = obs.system
    n = system.signal_len
    cons = build_constraints(obs)
    targets = cons.targets
    beta = float(np.linalg.norm(targets))
    M = atom_matrix(system)

    def residual(MV: np.ndarray) -> np.ndarray:
        return _row_products(cons, MV, MV) - targets

    if obs.n_missing == 0:
        # every phase observed: the problem is plain linear inversion and the
        # optimal lift is x0 x0^H for the synthesized signal x0, so V = x0;
        # coefficients that are no signal's analysis leave it infeasible
        V = istft(system, obs.known)[:, None]
        feas = float(np.linalg.norm(residual(M @ V))) / max(beta, 1e-300)
        return LiftedMatrix(V, bool(feas <= cfg.feas_tol), feas)

    if beta == 0.0:
        return LiftedMatrix(factor=np.zeros((n, 1), dtype=complex))

    gradient, normal = _operators(obs, cons)
    sum_r2 = float(np.sum(flatten_grid(obs.magnitudes) ** 2))
    frame_weight = float(np.sum(np.abs(M) ** 2))
    tau0 = max(sum_r2 * n / frame_weight, 1e-300)

    # the start is a fixed-seed orthonormal factor with trace tau0, so solves
    # are bit-deterministic
    rank = min(_WARM_RANK, n)
    rng = np.random.default_rng(_INIT_SEED)
    Q, _ = np.linalg.qr(rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))
    V = Q * np.sqrt(tau0 / rank)
    step = 1.0 / max(frame_weight * tau0, 1.0)  # steepest-descent step with no memory
    stage_log: list[dict] = []
    stall_tol = 1e-15 * beta * beta

    def log_stage(lam: float, V: np.ndarray, iterations: int, evaluations: int, t0: float) -> float:
        rel_feas = float(np.linalg.norm(residual(M @ V))) / beta
        stage_log.append(
            {
                "stage": len(stage_log),
                "lambda": float(lam),
                "feas_residual": rel_feas,
                "trace": float(np.vdot(V, V).real),
                "rank_estimate": _rank_estimate(_spectrum(V)),
                "iterations": iterations,
                "projections": evaluations,
                "seconds": time.perf_counter() - t0,
            }
        )
        return rel_feas

    for lam in cfg.penalty_schedule:
        mu = lam * beta**2 / tau0
        t0 = time.perf_counter()
        # the incumbent with M V and its gradient; within the stage M V follows
        # V by linearity, the residual (quadratic in V) is evaluated afresh
        MV = M @ V
        res = residual(MV)
        f_V = float(np.vdot(res, res).real) + mu * float(np.vdot(V, V).real)
        grad = gradient(V, MV, res, mu)
        memory: deque = deque(maxlen=_LBFGS_MEMORY)  # mu changed the objective
        stall = iterations = evaluations = 0
        for _ in range(_WARM_STEPS):
            iterations += 1
            # the pairs and the direction live on the float view of the factor,
            # where Re vdot is a plain dot
            g = grad.reshape(-1).view(np.float64)
            d, alpha = (_lbfgs_direction(memory, g), 1.0) if memory else (-g, step)
            D = d.view(complex).reshape(V.shape)
            MD = M @ D
            slope = float(np.dot(g, d))
            while True:
                evaluations += 1
                cand, M_cand = V + alpha * D, MV + alpha * MD
                res_c = residual(M_cand)
                f_c = float(np.vdot(res_c, res_c).real) + mu * float(np.vdot(cand, cand).real)
                if f_c <= f_V + 1e-4 * alpha * slope:  # Armijo
                    grad_c = gradient(cand, M_cand, res_c, mu)
                    _store_pair(memory, alpha * d, grad_c.reshape(-1).view(np.float64) - g)
                    gain = f_V - f_c
                    V, MV, f_V, grad = cand, M_cand, f_c, grad_c
                    break
                alpha *= 0.5
                if alpha < 1e-30:
                    # no decrease along d: keep the incumbent, start the memory over
                    gain = 0.0
                    memory.clear()
                    break
            stall = stall + 1 if gain <= stall_tol + 1e-9 * abs(f_V) else 0
            if stall >= 5:
                break
        log_stage(lam, V, iterations, evaluations, t0)

    # Levenberg-Marquardt on the fit alone, from the best rank-one lift of V
    t0 = time.perf_counter()
    U, s, _ = np.linalg.svd(V, full_matrices=False)
    x = U[:, :1] * s[:1]
    Mx = M @ x
    res = residual(Mx)
    f = float(np.vdot(res, res).real)
    damping, JTJ, iterations = 1e-3, None, 0
    for _ in range(cfg.max_inner):
        iterations += 1
        if JTJ is None:
            # J^T r is half the gradient of ||r||^2, split into Re and Im parts
            g = 0.5 * gradient(x, Mx, res, 0.0)
            rhs, JTJ = -np.r_[g.real, g.imag], normal(Mx[:, 0])
        # the Marquardt diagonal also damps the global-phase direction, which
        # J^T J leaves free
        delta = np.linalg.solve(JTJ + np.diag(damping * JTJ.diagonal()), rhs)
        cand = x + delta[:n] + 1j * delta[n:]
        M_cand = M @ cand
        res_c = residual(M_cand)
        f_c = float(np.vdot(res_c, res_c).real)
        if not f_c < f:  # rejected; a step damped below round-off means x is stationary
            damping *= 4.0
            if damping > 1e16:
                break
            continue
        gain, damping, JTJ = f - f_c, damping / 3.0, None
        x, Mx, res, f = cand, M_cand, res_c, f_c
        if np.sqrt(f) / beta <= 0.3 * cfg.feas_tol or gain <= 1e-9 * (f + gain):
            break
    rel_feas = log_stage(0.0, x, iterations, iterations, t0)

    return LiftedMatrix(x, bool(rel_feas <= cfg.feas_tol), rel_feas, stage_log)


def extract_signal(lifted: LiftedMatrix, obs: Observations) -> np.ndarray:
    """Leading-singular-pair extraction with global-phase alignment.

    The candidate s_1 u_1 of the factor (sqrt(lambda_1) v_1 of V V^H) is
    rotated by the unit scalar that best matches the phase-known cells in
    least squares. With no known cells it is defined up to a global phase.
    The zero lift's only rank-one factor is zero, so it gives the zero signal.
    """
    U, s, _ = np.linalg.svd(lifted.factor, full_matrices=False)
    if s[0] == 0.0:
        return np.zeros(lifted.factor.shape[0], dtype=complex)
    x_hat = s[0] * U[:, 0]
    known = obs.known_flat_indices()
    if known.size > 0:
        b_flat = flatten_grid(obs.known)
        measured = (atom_matrix(obs.system) @ x_hat)[known]
        cross = np.sum(measured * np.conj(b_flat[known]))
        if abs(cross) > 0.0:
            x_hat = x_hat * (np.conj(cross) / abs(cross))
    return x_hat
