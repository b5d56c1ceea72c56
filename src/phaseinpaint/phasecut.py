"""Phase-only semidefinite relaxation solved on a thin factor of the Gram matrix.

Magnitudes are split off: with c the flattened magnitudes and P the
orthogonal projector onto realizable coefficient vectors, the matrix
Diag(c) (I - P) Diag(c) scores any unit-modulus phase vector u by how far
c * u falls outside the realizable set. The relaxation optimizes the PSD
Gram matrix U of the phases under a unit diagonal. Cells whose phase is
observed are condensed into a single aggregate coordinate carrying their
fixed relative phases; ``phase_cost_matrix`` builds the cost in these d
reduced coordinates straight from P, and ``pci_solve`` takes only that one.

The solver writes the reduced U as V V^H with V a d x r factor of unit-norm
rows (r is 1 or 4), so U is PSD with unit diagonal by construction. It
starts from one inverse-iteration step on the cost, the spectral
initialization of Candes, Li & Soltanolkotabi (2015): on realizable data
the cost's lowest eigenvalue sits at round-off along the true phases, and
a single shifted solve finds that direction, which a descent from noise
reaches only after hundreds of iterations on wide holes. The relaxation is
exact when its optimum has rank one, so when the unit-modulus projection
of that direction already meets the objective floor, it is returned as a
d x 1 factor after no iteration. It does on nearly every random mask up
to ratio 0.6 and on about half of the width-9 holes, and on none at ratios
0.8 and 0.9. Otherwise the solver runs a Riemannian gradient method on this
product of spheres (Journee, Bach, Absil & Sepulchre 2010): the gradient
is projected row by row onto the tangent space and scaled by the diagonal
of the cost (a Jacobi preconditioner), a step is retracted by
renormalizing the rows, and Barzilai-Borwein step sizes pass a
nonmonotone Armijo test. A rejected step backtracks to the
minimizer of the quadratic that matches the test's reference value and the
slope at 0 and the rejected objective, kept within [0.1, 0.5] of the step.
An evaluation costs one d x d by d x 4 product; the row products, inner
products and the step update are real operations on the float64 views of
the complex d x 4 arrays, and a solve averages 1.2-1.35 evaluations per
iteration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .gabor import flatten_grid, range_projector, synthesis_matrix
from .observe import Observations


_RANK = 4  # columns of the factor V
_INIT_SEED = 0x9C1  # seed of the start's random factor
_NOISE_WEIGHT = 1e-3  # weight of the start's random columns 1-3 against its column 0
_DIAG_FLOOR = 1e-3  # preconditioner entries are at least this share of the largest
_MEMORY = 10  # objectives the nonmonotone Armijo test looks back over
_GRAD_TOL = 1e-6  # stop once the tangent gradient is this small (G has unit norm)
_ZERO_MAG_EPS = 1e-12  # masked cells below this share of the largest magnitude stay free


@dataclass(frozen=True)
class PciConfig:
    max_sweeps: int = 5000  # iteration budget of the descent


@dataclass(frozen=True)
class KnownBlockReduction:
    """Index map condensing all phase-known cells into one coordinate.

    Free cells keep their own coordinate; the known cells contribute their
    fixed unit phases scaled by one shared unknown unit scalar (the anchor
    coordinate, last). Cells with (near-)zero magnitude are left free even
    when masked as known, since their phase is undefined and irrelevant.
    """

    n_cells: int
    free_cells: np.ndarray
    known_cells: np.ndarray
    known_phases: np.ndarray
    phase_anchor_cell: int  # largest-magnitude cell, used when nothing is known

    @property
    def has_anchor(self) -> bool:
        return self.known_cells.size > 0

    @property
    def dim(self) -> int:
        return self.free_cells.size + (1 if self.has_anchor else 0)

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        """Expand a reduced phase vector back to one value per cell."""
        full = np.zeros(self.n_cells, dtype=complex)
        full[self.free_cells] = reduced[: self.free_cells.size]
        if self.has_anchor:
            full[self.known_cells] = self.known_phases * reduced[-1]
        return full


@dataclass
class PhaseMatrix:
    """Solver output: thin factor of the reduced Gram matrix plus diagnostics."""

    factor: np.ndarray  # d x r with unit-norm rows; the Gram matrix is factor @ factor^H
    reduction: KnownBlockReduction
    converged: bool = True
    objective: float = 0.0
    objective_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sweeps_run: int = 0  # descent iterations

    @property
    def values(self) -> np.ndarray:
        """Reduced Gram matrix V V^H with its diagonal set to exactly 1."""
        U = self.factor @ self.factor.conj().T
        np.fill_diagonal(U, 1.0)
        return U


def phase_cost_matrix(obs: Observations) -> np.ndarray:
    """Reduced cost B^H Diag(c) (I - P) Diag(c) B that ``pci_solve`` minimizes.

    c holds the flattened magnitudes, P is the cached range projector and B
    the aggregation matrix of ``reduce_known_block(obs)``: one column per
    free cell, plus the anchor's column of known phases when any are known.
    The free x free block is read off P (I - P equals -P off the diagonal).
    With w = c * (known phases) on the known cells and zero elsewhere, the
    anchor's column is -c_free (P w)_free, its row the conjugate and its
    corner sum(c_known^2) - Re <w, P w>, from the one product P w. P is
    exactly Hermitian and outer(-c, c) exactly symmetric, so the result is
    exactly Hermitian; no n x n matrix is formed.
    """
    red = reduce_known_block(obs)
    c = flatten_grid(obs.magnitudes)
    P = range_projector(obs.system)
    free, f = red.free_cells, red.free_cells.size
    c_free = c[free]
    cost = np.empty((red.dim, red.dim), dtype=complex)
    cost[:f, :f] = P[np.ix_(free, free)] * np.outer(-c_free, c_free)
    np.fill_diagonal(cost[:f, :f], (1 - P.diagonal()[free]) * (c_free * c_free))
    if red.has_anchor:
        c_known = c[red.known_cells]
        w = np.zeros(red.n_cells, dtype=complex)
        w[red.known_cells] = c_known * red.known_phases
        Pw = P @ w
        cost[:f, f] = -c_free * Pw[free]
        cost[f, :f] = np.conj(cost[:f, f])
        cost[f, f] = np.sum(c_known * c_known) - np.vdot(w, Pw).real
    return cost


def reduce_known_block(obs: Observations) -> KnownBlockReduction:
    """Build the condensation map for the phase-known cells."""
    c = flatten_grid(obs.magnitudes)
    b = flatten_grid(obs.known)
    mask = flatten_grid(obs.mask).astype(bool)
    usable = mask & (c > _ZERO_MAG_EPS * np.max(c))
    known_cells = np.flatnonzero(usable)
    return KnownBlockReduction(
        n_cells=c.size,
        free_cells=np.flatnonzero(~usable),
        known_cells=known_cells,
        known_phases=b[known_cells] / np.abs(b[known_cells]),
        phase_anchor_cell=int(np.argmax(c)),
    )


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re <a, b> of two complex arrays, as a dot of their float64 views."""
    return float(np.vdot(a.view(float), b.view(float)))


def _retract(V: np.ndarray) -> np.ndarray:
    W = V.view(float)
    return V / np.sqrt(np.einsum("ij,ij->i", W, W))[:, None]


def _evaluate(G: np.ndarray, D: np.ndarray, V: np.ndarray):
    """Objective Re tr(V^H G V), tangent gradient and search direction at V.

    The gradient is the Euclidean one, 2 G V, with each row's component
    along that row of V removed. The direction divides each row by its
    preconditioner entry D; a row scaling keeps it in the tangent space.
    Row products are real ones on the float64 views of the complex rows.
    """
    egrad = G @ V
    egrad *= 2.0
    E, W = egrad.view(float), V.view(float)
    radial = np.einsum("ij,ij->i", W, E)
    g = E - radial[:, None] * W
    return 0.5 * float(radial.sum()), g.view(complex), (g / D).view(complex)


def _inverse_iteration_start(cost: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """One inverse-iteration step on the cost: its unit-modulus column and the draws.

    Draws the fixed-seed random d x 4 factor R, solves (cost + sigma I) x =
    R[:, 0] and returns u, the entrywise unit-modulus projection of x (zero
    entries become 1), with R: x leans on the cost's lowest eigenvector,
    which on realizable data is the true phase vector. ``pci_solve`` returns
    u as a d x 1 factor when its objective is already at the floor, and
    otherwise puts it in column 0 of R, whose other columns it scales by
    ``_NOISE_WEIGHT`` so the rank-4 descent can still leave the rank-one
    point. sigma = d eps ||cost||_F only keeps the matrix nonsingular, since
    a zero-magnitude free cell gives cost a zero row.
    """
    d = cost.shape[0]
    rng = np.random.default_rng(_INIT_SEED)
    R = rng.standard_normal((d, _RANK)) + 1j * rng.standard_normal((d, _RANK))
    shifted = cost.copy()
    shifted.flat[:: d + 1] += d * np.finfo(float).eps * scale
    x = np.linalg.solve(shifted, R[:, 0])
    mags = np.abs(x)
    return np.where(mags > 0.0, x / np.where(mags > 0.0, mags, 1.0), 1.0), R


def pci_solve(
    cost: np.ndarray, obs: Observations, cfg: PciConfig = PciConfig()
) -> PhaseMatrix:
    """Minimize tr(U G) over the reduced Gram matrices U = V V^H with unit diagonal.

    ``cost`` is the reduced d x d cost of ``phase_cost_matrix(obs)`` (another
    shape raises ``ValueError``, as does ``max_sweeps < 1``); G is it scaled
    to unit Frobenius norm.
    Starts from ``_inverse_iteration_start``: one dense solve with the cost
    and a fixed-seed random right-hand side, so solves are bit-deterministic.
    If the start's unit-modulus column u meets the objective floor, 1e-15 d
    on G, it is returned as the d x 1 factor with ``sweeps_run`` 0: a rank-one
    U at the floor of the PSD cost is a global optimum. Otherwise the
    descent runs on the rank-4 start.
    The search point may rise within the nonmonotone Armijo window; the
    incumbent (the lowest objective so far) is what ``objective_trace``
    records and what is returned, so the trace is non-increasing.
    ``converged`` means the tangent gradient fell to ``_GRAD_TOL`` or the
    objective reached its floor within ``max_sweeps`` iterations, or at the
    start.
    """
    if cfg.max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    red = reduce_known_block(obs)
    d = red.dim
    cost = np.asarray(cost)
    if cost.shape != (d, d):
        raise ValueError(f"cost must have the reduced shape ({d}, {d}), got {cost.shape}")
    scale = float(np.linalg.norm(cost))
    if scale == 0.0:
        return PhaseMatrix(factor=np.ones((d, 1), dtype=complex), reduction=red, converged=True)
    floor = 1e-15 * d
    u, R = _inverse_iteration_start(cost, scale)  # before G, so its copies never coexist
    objective = float(np.vdot(u, cost @ u).real)
    if objective <= floor * scale:
        trace = np.array([objective])
        return PhaseMatrix(u[:, None], red, objective=objective, objective_trace=trace)
    R[:, 0] = u
    R[:, 1:] *= _NOISE_WEIGHT
    V = _retract(R)
    G = cost / scale
    diag = G.diagonal().real
    D = np.maximum(diag, _DIAG_FLOOR * diag.max())[:, None]

    f, g, p = _evaluate(G, D, V)
    best_V, best_f = V, f
    recent = deque([f], maxlen=_MEMORY)
    trace: list[float] = [scale * f]
    step = 1.0
    iterations = 0
    converged = f <= floor or _dot(g, g) <= _GRAD_TOL**2
    while not converged and iterations < cfg.max_sweeps:
        iterations += 1
        slope = _dot(g, p)
        f_ref = max(recent)
        while True:
            V_new = _retract(V - step * p)
            f_new, g_new, p_new = _evaluate(G, D, V_new)
            if f_new <= f_ref - 1e-4 * step * slope or step < 1e-20:
                break
            # the minimizer of the quadratic with value f_ref and slope -slope
            # at 0 and value f_new at step, kept within [0.1, 0.5] of the step
            curv = f_new - f_ref + slope * step
            ratio = 0.5 * slope * step / curv if curv > 0.0 else 0.5
            step *= min(max(ratio, 0.1), 0.5)
        # Barzilai-Borwein step in the metric of the preconditioner
        s, y = (V_new - V).view(float), (g_new - g).view(float)
        sy = float(np.vdot(s, y))
        step = min(max(float(np.vdot(s, D * s)) / sy, 1e-6), 1e6) if sy > 0.0 else 1e6
        V, f, g, p = V_new, f_new, g_new, p_new
        recent.append(f)
        if f < best_f:
            best_V, best_f = V, f
        trace.append(scale * best_f)
        converged = best_f <= floor or _dot(g, g) <= _GRAD_TOL**2
    return PhaseMatrix(
        factor=best_V,
        reduction=red,
        converged=converged,
        objective=scale * best_f,
        objective_trace=np.asarray(trace),
        sweeps_run=iterations,
    )


def extract_phases(U: PhaseMatrix) -> np.ndarray:
    """Unit-modulus phase estimate for every cell from the Gram matrix.

    Takes the leading eigenvector of V V^H (the leading left singular vector
    of the factor V), normalizes each entry to the unit circle
    (near-zero entries become 1), aligns the global phase to the observed
    block in least squares, then overwrites the observed cells exactly.
    """
    red = U.reduction
    left, _, _ = np.linalg.svd(U.factor, full_matrices=False)
    full = red.expand(left[:, 0])
    mags = np.abs(full)
    u = np.where(mags < 1e-12, 1.0 + 0j, full / np.where(mags < 1e-12, 1.0, mags))
    if red.has_anchor:
        cross = np.sum(np.conj(u[red.known_cells]) * red.known_phases)
        if abs(cross) > 0.0:
            u = u * (cross / abs(cross))
        u[red.known_cells] = red.known_phases
    else:
        pivot = u[red.phase_anchor_cell]
        u = u * np.conj(pivot)
    return u


def pci_signal(obs: Observations, u: np.ndarray) -> np.ndarray:
    """Least-squares signal whose analysis matches magnitudes with phases u."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (obs.system.n_cells,):
        raise ValueError(f"phase vector must have shape ({obs.system.n_cells},)")
    c = flatten_grid(obs.magnitudes)
    return synthesis_matrix(obs.system) @ (c * u)
