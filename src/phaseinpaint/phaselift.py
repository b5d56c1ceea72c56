"""Lifted semidefinite relaxation: recover the rank-one outer product.

The unknown signal x is replaced by the Hermitian PSD matrix L = x x^H.
Magnitude-only cells give linear constraints on the diagonal of M L M^H,
phase-known cells give linear constraints on its off-diagonal entries, and
the trace of L is driven down by a continuation of penalty weights.

The solver descends on a thin factor V (n x 4) of L = V V^H (Burer &
Monteiro 2003): L is PSD by construction and trace(L) = ||V||_F^2. Each
warm-up stage takes limited-memory BFGS steps on V (Liu & Nocedal 1989),
as Burer & Monteiro did; V carries its product with M, and the candidates
of a line search are formed by linearity from M V and M d, so a warm-up
step costs two dense products (M d and M^H W). After
this warm-up, Levenberg-Marquardt fits the constraints with a rank-one
factor x, the leading singular direction of V (Gauss-Newton for phaseless
data: Gao & Xu 2017). Each Gabor atom is zero off its frame's window, so
LM's Gauss-Newton matrix is summed from one small block per frame on the
window's samples, plus a low-rank term for the rows that pair two
different cells. LM is first tried right after the first warm-up stage,
with a small iteration cap: on most random masks and many holes it fits
there and the solve ends. When it does not, its x is dropped and the remaining
stages resume from V as it stands, so such a solve ends on the same bits
as one without the trial. No n x n matrix is formed: the solver returns
x, a fresh M V at each stage end gives ``feas_residual`` and
``converged``, and the diagnostics come from the singular values of the
factor. The warm-up gradient reuses LM's split of the constraint rows
into diagonal rows and rows that pair two cells, so the package needs
numpy only.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .gabor import atom_matrix, flatten_grid, frame_atoms, istft
from .observe import Observations

_WARM_RANK = 4  # columns of V in the warm-up penalty stages
_WARM_STEPS = 200  # step cap per warm-up stage; LM only needs a good start
_TRIAL_LM_STEPS = 25  # LM iteration cap of the trial after the first warm-up stage
_INIT_SEED = 0x1F7  # seed of the orthonormal starting factor
_LBFGS_MEMORY = 10  # (s, y) pairs kept; 5 lost a hole instance
_RANK_REL_TOL = 1e-6  # eigenvalues above this share of the largest count toward the rank


@dataclass(frozen=True)
class PliConfig:
    # fixed solver constants, readable but not settable; pli_solve keeps its
    # cfg parameter because perfbench/tracer.py's _pli_info binds it and reads
    # penalty_schedule[: max_outer] (until the tracer counts stages from
    # stage_log, ROADMAP item 2), the tests the other two
    penalty_schedule: ClassVar[tuple[float, ...]] = (1.0, 1e-1, 1e-2, 1e-3)
    max_outer: ClassVar[int] = 4
    max_inner: ClassVar[int] = 500  # the final LM's iteration cap; the trial's is _TRIAL_LM_STEPS
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


def _operators(obs: Observations, cons: PliConstraints):
    """``(grad, normal)``: the warm-up gradient and LM's Gauss-Newton matrix.

    ``grad(V, MV, res, mu)``, with MV = M V and res the constraint residual at
    V, is the gradient 2 (M^H (S + S^H) M V + mu V) of ``||res||^2 + mu ||V||_F^2``,
    S holding conj(res) at (j, i) for every row (i, j). A row with i = j adds
    2 Re(res) MV[i] to row i of (S + S^H) M V. The other rows go through
    Q (cells x their distinct j) holding res at (i, j), one column for the
    anchor of ``build_constraints``: they add Q MV[J] on their cells and
    Q^H MV on their partners J. One dense product with M^H follows.

    ``normal(u)`` is J^T J of the constraint residual at u = M x. For
    x = a + i b, row (i, j) of the residual u_i conj(u_j) - t moves by
    C [da; db] with C = [A + B, i (A - B)], A = diag(conj(u_j)) M[rows_i] and
    B = diag(u_i) conj(M[rows_j]), so J^T J = Re(C^H C) (real, 2n x 2n) is
    [[Re G, -Im G], [Im G, Re G]] + Y + Y^T, where G = A^H A + conj(B^H B)
    = M^H diag(w) M with w summing |u_j|^2 on cell i and |u_i|^2 on cell j,
    and Y = [[Re K, Im K], [Im K, -Re K]] for K = A^H B.

    As bins >= len(window), row t bins + nu of M is zero off frame t's
    window, the samples (t hop + p) mod n for p < len(window), so G is a sum
    of per-frame blocks over M's entries there (``atoms``, frames x bins x
    len(window)). So is the part of K from the rows with i = j, which is
    symmetric: with H = atoms^H diag(2 u^2) conj(atoms) over those rows, a
    frame adds [[Re G + Re H, Im H - Im G], [Im H + Im G, Re G - Re H]] on
    its samples. The other rows give K = (M^H Q) conj(M[J]), Q holding
    u_i u_j at (i, j): rank one for the anchor, and nonzero only on the
    anchor frame's window. One bincount adds the frame blocks, Y on those
    columns and Y^T on those rows into J^T J.
    """
    system = obs.system
    M = atom_matrix(system)
    MH = np.ascontiguousarray(M.conj().T)
    n, n_cells = system.signal_len, system.n_cells
    frames, bins, width = system.frames, system.bins, system.window.size
    rows_i, rows_j = cons.rows_i, cons.rows_j

    support, atoms = frame_atoms(system)
    atoms_conj = np.conj(atoms)
    atoms_h = np.ascontiguousarray(atoms_conj.transpose(0, 2, 1))
    weighted = np.empty((2, frames, bins, width), dtype=complex)
    blocks = np.empty((frames, 2, width, 2, width))
    # w counts a row with i = j at both of its ends; that row's part of K is
    # symmetric, so Y + Y^T doubles it, which H's factor 2 carries
    ends, partners = np.r_[rows_i, rows_j], np.r_[rows_j, rows_i]
    same = rows_i == rows_j
    diagonal, cross = np.flatnonzero(same), np.flatnonzero(~same)
    diag_cells, cross_i, cross_j = rows_i[diagonal], rows_i[cross], rows_j[cross]
    h_weight = 2.0 * np.bincount(diag_cells, minlength=n_cells).reshape(frames, bins, 1)
    distinct_j, col_of = np.unique(cross_j, return_inverse=True)
    window_cols = np.unique(support[distinct_j // bins])
    atoms_j = np.conj(M[np.ix_(distinct_j, window_cols)])
    # flat positions in J^T J: each frame's block, then Y with its columns in
    # (Re, Im) pairs, then Y^T
    frame_rows = np.stack([support, support + n], axis=1).reshape(frames, 2 * width)
    pair_cols = np.stack([window_cols, window_cols + n], axis=1).ravel()
    all_rows = np.arange(2 * n)[:, None]
    flat_index = np.concatenate(
        [
            (frame_rows[:, :, None] * (2 * n) + frame_rows[:, None, :]).ravel(),
            (all_rows * (2 * n) + pair_cols).ravel(),
            (pair_cols * (2 * n) + all_rows).ravel(),
        ]
    )

    def partner_matrix(values: np.ndarray) -> np.ndarray:
        """Q with the cross rows' values at (i, column of j); no (i, j) repeats, so none add."""
        Q = np.zeros((n_cells, distinct_j.size), dtype=complex)
        Q[cross_i, col_of] = values
        return Q

    def grad(V: np.ndarray, MV: np.ndarray, res: np.ndarray, mu: float) -> np.ndarray:
        weight = np.bincount(diag_cells, 2.0 * res.take(diagonal).real, minlength=n_cells)
        SMV = weight[:, None] * MV
        Q = partner_matrix(res.take(cross))
        SMV += Q @ MV[distinct_j]
        SMV[distinct_j] += Q.conj().T @ MV
        return 2.0 * (MH @ SMV + mu * V)

    def normal(u: np.ndarray) -> np.ndarray:
        power = u.real**2 + u.imag**2
        w = np.bincount(ends, power[partners], minlength=n_cells)
        np.multiply(atoms, w.reshape(frames, bins, 1), out=weighted[0])
        np.multiply(atoms_conj, h_weight * (u * u).reshape(frames, bins, 1), out=weighted[1])
        G, H = atoms_h @ weighted
        np.add(G.real, H.real, out=blocks[:, 0, :, 0])
        np.subtract(H.imag, G.imag, out=blocks[:, 0, :, 1])
        np.add(H.imag, G.imag, out=blocks[:, 1, :, 0])
        np.subtract(G.real, H.real, out=blocks[:, 1, :, 1])
        K = (MH @ partner_matrix(u[cross_i] * u[cross_j])) @ atoms_j
        # Y's rows [Re K, Im K] and [Im K, -Re K], its columns in (Re, Im) pairs
        y_values = np.concatenate([K, -1j * K]).view(np.float64).ravel()
        values = np.concatenate([blocks.ravel(), y_values, y_values])
        return np.bincount(flat_index, values, minlength=4 * n * n).reshape(2 * n, 2 * n)

    return grad, normal


def _rank_estimate(eigvals: np.ndarray) -> int:
    top = float(eigvals[-1])
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(eigvals > _RANK_REL_TOL * top))


def _store_pair(memory: deque, s: np.ndarray, y: np.ndarray) -> None:
    """Keep the step s and gradient change y (flat, real) if their curvature is positive.

    The objective is quartic in V, so s.y can be negative; such a pair
    would make the inverse Hessian indefinite and is dropped. The test is
    on the cosine of s and y, so it does not depend on the signal's scale
    (s grows with it, y with its cube).
    """
    sy = float(np.dot(s, y))
    if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
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
    iteration) from the leading singular direction x of V. LM runs once
    after the first stage, at most ``_TRIAL_LM_STEPS`` iterations, and the
    solve returns its x if that meets ``feas_tol``; otherwise the other
    stages and a full LM follow. Each LM run is a ``lambda`` 0.0 entry of
    the stage log. A stage's ``iterations`` count its steps and its
    ``projections`` the candidates its line searches evaluated.
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
    # steepest-descent step with no memory; it scales as the signal^-2, as a
    # step on V against a gradient of the signal's cube must
    step = 1.0 / (frame_weight * tau0)
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

    def levenberg_marquardt(V: np.ndarray, max_iter: int) -> tuple[np.ndarray, float]:
        """LM on the fit alone from the best rank-one lift of V, logged as a lambda-0 stage.

        Returns x and its relative constraint residual; V is left as it is.
        """
        t0 = time.perf_counter()
        U, s, _ = np.linalg.svd(V, full_matrices=False)
        x = U[:, :1] * s[:1]
        Mx = M @ x
        res = residual(Mx)
        f = float(np.vdot(res, res).real)
        damping, JTJ, iterations = 1e-3, None, 0
        for _ in range(max_iter):
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
        return x, log_stage(0.0, x, iterations, iterations, t0)

    for k, lam in enumerate(cfg.penalty_schedule):
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
        if k == 0:
            # the trial: LM right after the first stage often fits already; if
            # it does not, its x is dropped and the warm-up goes on from V
            x, rel_feas = levenberg_marquardt(V, _TRIAL_LM_STEPS)
            if rel_feas <= cfg.feas_tol:
                return LiftedMatrix(x, True, rel_feas, stage_log)

    x, rel_feas = levenberg_marquardt(V, cfg.max_inner)
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
