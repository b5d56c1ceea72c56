"""Phase-only relaxation contracts: cost matrix, reduction, factor descent, rounding."""

import tracemalloc
import warnings

import numpy as np
import pytest

from phaseinpaint import phasecut
from phaseinpaint.gabor import (
    benchmark_system,
    flatten_grid,
    hann_window,
    make_gabor_system,
    range_projector,
    stft,
)
from phaseinpaint.masks import hole_mask, random_mask
from phaseinpaint.metrics import error_db
from phaseinpaint.observe import observe, rpi_fill
from phaseinpaint.phasecut import (
    PciConfig,
    PhaseMatrix,
    _evaluate,
    _retract,
    extract_phases,
    pci_signal,
    pci_solve,
    phase_cost_matrix,
    reduce_known_block,
)
from phaseinpaint.signals import benchmark_signal, dirac


def tiny_system():
    return make_gabor_system(hann_window(4), hop=2, bins=4, signal_len=8)


def tiny_instance():
    sys_ = tiny_system()
    rng = np.random.default_rng(5)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    mask = random_mask(4, 4, 0.25, seed=2)  # 4 of 16 missing
    return x, observe(sys_, x, mask)


def dense_cost(obs):
    """Reference n x n cost Diag(c) (I - P) Diag(c), c = flattened magnitudes."""
    c = flatten_grid(obs.magnitudes)
    return (np.eye(obs.system.n_cells) - range_projector(obs.system)) * np.outer(c, c)


def reduced_phases(red, u):
    """A full phase vector that is pinned on the known cells, in reduced coordinates."""
    anchor = [1.0] if red.has_anchor else []
    return np.concatenate([u[red.free_cells], anchor])


def _bcd_full_with_fixed_entries(gamma, obs, nu=1e-6, max_sweeps=2000, obj_tol=1e-9):
    """Reference BCD on the unreduced Gram matrix with hard-fixed entries.

    Only the free coordinates are swept; the phase-known block stays pinned
    at its fixed relative phases. Every coordinate update solves its
    row/column subproblem in closed form under the unit diagonal, with the
    strict-feasibility parameter ``nu`` keeping a positive Schur complement.
    Cross-checks the condensed formulation on small instances.
    """
    red = reduce_known_block(obs)
    n = red.n_cells
    u0 = np.ones(n, dtype=complex)
    if red.has_anchor:
        u0[red.known_cells] = red.known_phases
    U = np.outer(u0, np.conj(u0))
    gamma = np.asarray(gamma)
    scale = float(np.linalg.norm(gamma, 2))
    if scale == 0.0:
        return U, 0.0
    G = gamma / scale
    obj = float(np.sum(U * G.T).real)
    floor = 1e-15 * n
    for _ in range(max_sweeps):
        for i in red.free_cells:
            g = G[:, i].copy()
            g[i] = 0.0
            x = U @ g
            x[i] = 0.0
            quad = float(np.vdot(g, x).real)
            old_contrib = 2.0 * float(np.vdot(U[:, i], g).real)
            if quad > 0.0:
                new_col = (-np.sqrt((1.0 - nu) / quad)) * x
                new_contrib = 2.0 * float(np.vdot(new_col, g).real)
            else:
                new_col = np.zeros(n, dtype=complex)
                new_contrib = 0.0
            if new_contrib <= old_contrib:
                U[:, i] = new_col
                U[i, :] = np.conj(new_col)
                U[i, i] = 1.0
        prev = obj
        obj = float(np.sum(U * G.T).real)
        if prev - obj < obj_tol * max(abs(prev), floor) or obj <= floor:
            break
    return U, scale * obj


def aggregation_matrix(red):
    """Matrix B with one unit-modulus entry per row; u_full = B @ u_reduced."""
    B = np.zeros((red.n_cells, red.dim), dtype=complex)
    B[red.free_cells, np.arange(red.free_cells.size)] = 1.0
    if red.has_anchor:
        B[red.known_cells, -1] = red.known_phases
    return B


def expand_gram(U):
    """Full cell-by-cell Gram matrix of a solve (unit diagonal, fixed known block)."""
    B = aggregation_matrix(U.reduction)
    full = B @ U.values @ B.conj().T
    return 0.5 * (full + full.conj().T)


def ground_truth_phases(obs, x):
    coeffs = flatten_grid(stft(obs.system, np.asarray(x, dtype=complex)))
    mags = np.abs(coeffs)
    u = np.ones(coeffs.size, dtype=complex)
    nz = mags > 0
    u[nz] = coeffs[nz] / mags[nz]
    return u


def wide_hole_instance(seed):
    """Signal and observations of a width-9 hole at ratio 0.3, as in criterion 5."""
    x = benchmark_signal(seed=seed)
    return x, observe(benchmark_system(), x, hole_mask(32, 16, 0.3, width=9, seed=seed))


def descent_instance(seed):
    """Signal and observations at ratio 0.8, where pci's start misses the floor."""
    x = benchmark_signal(seed=seed)
    return x, observe(benchmark_system(), x, random_mask(32, 16, 0.8, seed=seed))


@pytest.fixture(scope="module")
def benchmark_instance():
    sys_ = benchmark_system()
    x = benchmark_signal(seed=1)
    mask = random_mask(32, 16, 0.3, seed=1)
    return x, observe(sys_, x, mask)


class TestPhaseCostMatrix:
    def test_hermitian_and_psd(self, benchmark_instance):
        _, obs = benchmark_instance
        cost = phase_cost_matrix(obs)
        assert cost.shape == (155, 155)
        assert np.array_equal(cost, cost.conj().T)
        norm = np.linalg.norm(cost, 2)
        assert np.linalg.eigvalsh(cost)[0] >= -1e-8 * norm

    def test_ground_truth_phases_have_zero_cost(self, benchmark_instance):
        x, obs = benchmark_instance
        cost = phase_cost_matrix(obs)
        v = reduced_phases(reduce_known_block(obs), ground_truth_phases(obs, x))
        value = float(np.vdot(v, cost @ v).real)
        assert value <= 1e-8 * np.linalg.norm(cost, 2) * obs.system.n_cells

    def test_zero_signal_gives_zero_cost(self):
        sys_ = tiny_system()
        obs = observe(sys_, np.zeros(8), np.ones((4, 4), dtype=int))
        assert np.all(phase_cost_matrix(obs) == 0)

    @pytest.mark.parametrize("case", ["random_mask", "hole_mask", "zero_magnitudes", "dirac"])
    def test_equals_symmetrized_dense_formula(self, case):
        # the free block read off P equals the symmetrized dense formula's bit
        # for bit; only the anchor's entries are summed in another order, and
        # pci recovers the same signal from the cost and from B^H gamma B
        if case == "dirac":
            # an impulse zeroes most cells of the tiny system
            sys_ = tiny_system()
            obs = observe(sys_, dirac(8, 0), random_mask(4, 4, 0.25, seed=2))
        else:
            sys_ = benchmark_system()
            x = np.zeros(128) if case == "zero_magnitudes" else benchmark_signal(seed=2)
            if case == "hole_mask":
                mask = hole_mask(32, 16, 0.3, width=5, seed=2)
            else:
                mask = random_mask(32, 16, 0.4, seed=2)
            obs = observe(sys_, x, mask)
        gamma = dense_cost(obs)
        gamma = 0.5 * (gamma + gamma.conj().T)
        red = reduce_known_block(obs)
        free, f = red.free_cells, red.free_cells.size
        cost = phase_cost_matrix(obs)
        assert np.array_equal(cost[:f, :f], gamma[np.ix_(free, free)])
        B = aggregation_matrix(red)
        reference = B.conj().T @ gamma @ B
        reference = 0.5 * (reference + reference.conj().T)
        ref, new = pci_solve(reference, obs), pci_solve(cost, obs)
        assert new.converged and ref.converged
        x_ref, x_new = (pci_signal(obs, extract_phases(U)) for U in (ref, new))
        if np.any(x_ref):
            assert error_db(x_ref, x_new).e_db <= -50.0
        else:
            assert not np.any(x_new)

    def test_builds_no_complement_matrix(self):
        # a fresh system, so no cache holds anything but its range projector.
        # At ratio 0.1, 461 cells are known and the reduced cost is 52 x 52;
        # the n x n cost would take 4 MiB and its known block 3.4 MB
        sys_ = make_gabor_system(hann_window(16), hop=8, bins=32, signal_len=128)
        obs = observe(sys_, benchmark_signal(seed=1), random_mask(32, 16, 0.1, seed=1))
        assert reduce_known_block(obs).known_cells.size == 461
        range_projector(sys_)
        tracemalloc.start()
        try:
            cost = phase_cost_matrix(obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cost.shape == (52, 52)
        assert peak < 1_000_000


class TestReduceKnownBlock:
    def test_benchmark_dimension(self, benchmark_instance):
        _, obs = benchmark_instance
        red = reduce_known_block(obs)
        assert red.dim == 154 + 1

    def test_all_known_single_coordinate(self):
        sys_ = tiny_system()
        rng = np.random.default_rng(0)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        obs = observe(sys_, x, np.ones((4, 4), dtype=int))
        red = reduce_known_block(obs)
        assert red.dim == 1
        assert red.has_anchor

    def test_none_known_identity_map(self):
        sys_ = tiny_system()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        obs = observe(sys_, x, np.zeros((4, 4), dtype=int))
        red = reduce_known_block(obs)
        assert red.dim == 16
        assert not red.has_anchor

    def test_zero_magnitude_cells_left_free(self):
        # an impulse at sample 0 zeroes most analysis cells; those stay free
        sys_ = tiny_system()
        obs = observe(sys_, dirac(8, 0), np.ones((4, 4), dtype=int))
        red = reduce_known_block(obs)
        mags = flatten_grid(obs.magnitudes)
        assert red.known_cells.size == int(np.sum(mags > 1e-12 * mags.max()))
        assert red.free_cells.size == 16 - red.known_cells.size

    def test_expansion_preserves_unit_modulus(self, benchmark_instance):
        _, obs = benchmark_instance
        red = reduce_known_block(obs)
        rng = np.random.default_rng(2)
        reduced = np.exp(2j * np.pi * rng.uniform(size=red.dim))
        full = red.expand(reduced)
        assert np.allclose(np.abs(full), 1.0, rtol=1e-12)

    def test_reduced_and_full_bcd_agree_on_tiny_instance(self):
        _, obs = tiny_instance()
        gamma = dense_cost(obs)
        U = pci_solve(phase_cost_matrix(obs), obs, PciConfig(max_sweeps=2000))
        _, obj_full = _bcd_full_with_fixed_entries(gamma, obs, max_sweeps=2000)
        # both objectives sit near the exact optimum 0, so agreement is
        # measured against the problem scale
        scale = np.linalg.norm(gamma, 2) * obs.system.n_cells
        assert abs(U.objective - obj_full) <= 1e-6 * scale

    @pytest.mark.parametrize(
        "case",
        ["anchor", "nothing_known", "zero_magnitude_known", "benchmark_ratio_0.1", "benchmark_hole_9"],
    )
    def test_indexed_reduced_cost_matches_aggregation_product(self, case):
        sys_ = tiny_system()
        rng = np.random.default_rng(6)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        mask = random_mask(4, 4, 0.25, seed=2)
        if case.startswith("benchmark"):
            sys_, x = benchmark_system(), benchmark_signal(seed=1)
            if case == "benchmark_ratio_0.1":
                mask = random_mask(32, 16, 0.1, seed=1)
            else:
                mask = hole_mask(32, 16, 0.3, width=9, seed=1)
        elif case == "nothing_known":
            mask = np.zeros((4, 4), dtype=int)
        elif case == "zero_magnitude_known":
            # an impulse leaves 12 of 16 cells at zero magnitude; two of the
            # other four are missing, so the cost does not vanish
            x, mask = dirac(8, 0), np.ones((4, 4), dtype=int)
            mask[:2, 3] = 0
        obs = observe(sys_, x, mask)
        gamma = dense_cost(obs)
        red = reduce_known_block(obs)
        assert red.has_anchor == (case != "nothing_known")
        if case == "zero_magnitude_known":
            assert red.free_cells.size == 14  # known cells of zero magnitude stay free
        B = aggregation_matrix(red)
        expected = B.conj().T @ gamma @ B
        expected = 0.5 * (expected + expected.conj().T)
        got = phase_cost_matrix(obs)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
        free, f = red.free_cells, red.free_cells.size
        assert np.array_equal(got[:f, :f], gamma[np.ix_(free, free)])

    def test_reduced_cost_skips_known_block_gather(self):
        # at ratio 0.1, 461 cells are known: their block alone is 461^2
        # complex entries (3.4 MB), while the reduced cost is 52 x 52
        sys_ = benchmark_system()
        obs = observe(sys_, benchmark_signal(seed=1), random_mask(32, 16, 0.1, seed=1))
        red = reduce_known_block(obs)
        assert red.known_cells.size == 461
        range_projector(sys_)
        tracemalloc.start()
        try:
            cost = phase_cost_matrix(obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cost.shape == (red.dim, red.dim)
        assert peak < red.known_cells.size**2 * np.dtype(complex).itemsize / 3


class TestPciSolve:
    def test_zero_cost_returns_all_ones_init(self):
        sys_ = tiny_system()
        obs = observe(sys_, np.zeros(8), np.ones((4, 4), dtype=int))
        U = pci_solve(phase_cost_matrix(obs), obs)
        assert np.array_equal(U.values, np.ones((U.reduction.dim, U.reduction.dim)))
        assert U.converged

    def test_rejects_dense_cost(self, benchmark_instance):
        _, obs = benchmark_instance
        assert reduce_known_block(obs).dim < obs.system.n_cells
        with pytest.raises(ValueError, match="reduced"):
            pci_solve(dense_cost(obs), obs)

    @pytest.mark.parametrize("max_sweeps", [0, -3])
    def test_no_budget_rejected(self, benchmark_instance, max_sweeps):
        # no iteration would leave the starting factor as the answer
        _, obs = benchmark_instance
        with pytest.raises(ValueError, match="max_sweeps"):
            pci_solve(phase_cost_matrix(obs), obs, PciConfig(max_sweeps=max_sweeps))

    def test_objective_non_increasing(self):
        # instances whose start misses the objective floor, so the descent runs
        for seed in range(1234, 1237):
            _, obs = descent_instance(seed)
            U = pci_solve(phase_cost_matrix(obs), obs, PciConfig(max_sweeps=60))
            assert U.factor.shape == (U.reduction.dim, 4) and U.sweeps_run > 0
            diffs = np.diff(U.objective_trace)
            assert np.all(diffs <= 1e-10 * max(1.0, abs(U.objective_trace[0])))

    def test_feasibility_at_termination(self, benchmark_instance):
        _, obs = benchmark_instance
        U = pci_solve(phase_cost_matrix(obs), obs)
        vals = U.values
        assert np.array_equal(np.diag(vals), np.ones(U.reduction.dim, dtype=complex))
        assert np.allclose(vals, vals.conj().T, atol=1e-12)
        norm = np.linalg.norm(vals, 2)
        assert np.linalg.eigvalsh(vals)[0] >= -1e-6 * norm

    def test_expanded_matrix_keeps_fixed_entries(self, benchmark_instance):
        x, obs = benchmark_instance
        U = pci_solve(phase_cost_matrix(obs), obs, PciConfig(max_sweeps=30))
        full = expand_gram(U)
        red = U.reduction
        assert np.allclose(np.diag(full), 1.0, atol=1e-12)
        sub = full[np.ix_(red.known_cells, red.known_cells)]
        expected = np.outer(red.known_phases, np.conj(red.known_phases))
        assert np.allclose(sub, expected, atol=1e-12)

    def test_benchmark_reconstruction(self, benchmark_instance):
        x, obs = benchmark_instance
        U = pci_solve(phase_cost_matrix(obs), obs)
        x_hat = pci_signal(obs, extract_phases(U))
        assert error_db(x, x_hat).e_db <= -50.0

    def test_start_at_floor_returns_its_column(self, benchmark_instance, monkeypatch):
        # the start's rank-one point already meets the objective floor, which
        # is a global optimum of the relaxation: no descent runs
        _, obs = benchmark_instance
        cost = phase_cost_matrix(obs)
        monkeypatch.setattr(phasecut, "_evaluate", None)
        U = pci_solve(cost, obs)
        scale = np.linalg.norm(cost)
        u, _ = phasecut._inverse_iteration_start(cost, scale)
        assert np.array_equal(U.factor, u[:, None])
        assert U.sweeps_run == 0 and U.converged
        assert U.objective <= 1e-15 * U.reduction.dim * scale
        assert np.array_equal(U.objective_trace, [U.objective])

    def test_bit_deterministic(self):
        _, obs = wide_hole_instance(1930)  # its start misses the floor
        cost = phase_cost_matrix(obs)
        first, second = pci_solve(cost, obs), pci_solve(cost, obs)
        assert first.factor.shape == (first.reduction.dim, 4) and first.sweeps_run > 0
        assert np.array_equal(first.factor, second.factor)
        assert first.sweeps_run == second.sweeps_run

    def test_high_ratio_instance_clears_threshold(self):
        # criterion-4 trial 0 at ratio 0.6, which the strict-feasibility
        # parameter of the coordinate descent held at -53.3 dB
        x = benchmark_signal(seed=1234)
        obs = observe(benchmark_system(), x, random_mask(32, 16, 0.6, seed=1234))
        U = pci_solve(phase_cost_matrix(obs), obs)
        assert U.converged
        assert error_db(x, pci_signal(obs, extract_phases(U))).e_db <= -60.0

    def test_wide_hole_instance_converges(self, monkeypatch):
        # criterion-5 trial 2 at width 9, where the coordinate descent ran out
        # of its 500-sweep budget at -30.8 dB
        x, obs = wide_hole_instance(1236)
        evaluations = []

        def counting(G, D, V):
            evaluations.append(None)
            return _evaluate(G, D, V)

        monkeypatch.setattr(phasecut, "_evaluate", counting)
        U = pci_solve(phase_cost_matrix(obs), obs)
        assert U.converged
        # a rejected Barzilai-Borwein step backtracks by interpolation; halving
        # took 3583 evaluations for 2192 iterations here (1.63 per iteration)
        assert len(evaluations) <= 1.45 * U.sweeps_run
        assert error_db(x, pci_signal(obs, extract_phases(U))).e_db <= -50.0

    def test_start_alone_recovers_wide_hole(self):
        # the inverse-iteration start already points along the true phases;
        # one iteration from the random start of earlier versions read -3.7 dB
        x, obs = wide_hole_instance(1236)
        U = pci_solve(phase_cost_matrix(obs), obs, PciConfig(max_sweeps=1))
        assert error_db(x, pci_signal(obs, extract_phases(U))).e_db <= -40.0

    @pytest.mark.parametrize("seed", [1930, 1956])
    def test_held_out_wide_holes_clear_gradient_tolerance(self, seed):
        # from a random start _GRAD_TOL stopped these at -53.3 and -54.6 dB
        x, obs = wide_hole_instance(seed)
        U = pci_solve(phase_cost_matrix(obs), obs)
        assert U.converged
        assert error_db(x, pci_signal(obs, extract_phases(U))).e_db <= -60.0

    def test_zero_cost_rows_solve(self):
        # zero-magnitude free cells give the cost exactly zero rows, which the
        # start's shift keeps from making its linear solve singular
        x = benchmark_signal(seed=1234).copy()
        x[64:] = 0.0
        obs = observe(benchmark_system(), x, random_mask(32, 16, 0.3, seed=1234))
        cost = phase_cost_matrix(obs)
        assert not np.all(cost.any(axis=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            U = pci_solve(cost, obs)
        assert U.converged
        assert error_db(x, pci_signal(obs, extract_phases(U))).e_db <= -50.0


class TestFactorDescent:
    @staticmethod
    def _point():
        _, obs = tiny_instance()
        red = reduce_known_block(obs)
        G = phase_cost_matrix(obs)
        G = G / np.linalg.norm(G)
        diag = G.diagonal().real
        D = np.maximum(diag, 1e-3 * diag.max())[:, None]
        rng = np.random.default_rng(7)
        V = _retract(rng.standard_normal((red.dim, 4)) + 1j * rng.standard_normal((red.dim, 4)))
        return G, D, V, rng

    def test_gradient_matches_central_differences(self):
        G, D, V, rng = self._point()
        _, g, _ = _evaluate(G, D, V)
        xi = rng.standard_normal(V.shape) + 1j * rng.standard_normal(V.shape)
        xi -= np.einsum("ik,ik->i", V.conj(), xi).real[:, None] * V  # tangent direction
        h = 1e-5
        f_plus, _, _ = _evaluate(G, D, _retract(V + h * xi))
        f_minus, _, _ = _evaluate(G, D, _retract(V - h * xi))
        slope = float(np.vdot(g, xi).real)
        assert abs((f_plus - f_minus) / (2 * h) - slope) <= 1e-7 * abs(slope)

    def test_search_direction_is_tangent(self):
        G, D, V, _ = self._point()
        _, g, p = _evaluate(G, D, V)
        assert np.max(np.abs(np.einsum("ik,ik->i", V.conj(), p).real)) <= 1e-12
        assert float(np.vdot(g, p).real) > 0.0  # a descent direction


class TestExtractPhases:
    def test_rank_one_feasible_matrix_recovered(self):
        sys_ = tiny_system()
        rng = np.random.default_rng(4)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        mask = random_mask(4, 4, 0.5, seed=3)
        obs = observe(sys_, x, mask)
        red = reduce_known_block(obs)
        u0 = np.exp(2j * np.pi * rng.uniform(size=red.dim))
        U = PhaseMatrix(factor=u0[:, None], reduction=red)
        u = extract_phases(U)
        expected = red.expand(u0)
        # equal up to one global rotation
        rot = np.conj(u[0]) * expected[0]
        assert np.allclose(u * rot, expected, atol=1e-10)

    def test_matches_dense_leading_eigenvector(self, benchmark_instance):
        _, obs = benchmark_instance
        U = pci_solve(phase_cost_matrix(obs), obs)
        u = extract_phases(U)
        _, vecs = np.linalg.eigh(U.values)
        expected = U.reduction.expand(vecs[:, -1])
        expected /= np.abs(expected)
        rot = np.vdot(expected, u)
        assert np.allclose(u, expected * (rot / abs(rot)), atol=1e-10)

    def test_unit_modulus_everywhere(self, benchmark_instance):
        _, obs = benchmark_instance
        U = pci_solve(phase_cost_matrix(obs), obs, PciConfig(max_sweeps=20))
        u = extract_phases(U)
        assert np.allclose(np.abs(u), 1.0, rtol=1e-12)

    def test_known_cells_pinned_exactly(self, benchmark_instance):
        _, obs = benchmark_instance
        U = pci_solve(phase_cost_matrix(obs), obs, PciConfig(max_sweeps=20))
        u = extract_phases(U)
        red = U.reduction
        assert np.array_equal(u[red.known_cells], red.known_phases)

    def test_rounding_quality_diagnostic(self, benchmark_instance):
        _, obs = benchmark_instance
        cost = phase_cost_matrix(obs)
        U = pci_solve(cost, obs)
        v = reduced_phases(U.reduction, extract_phases(U))
        rounded = float(np.vdot(v, cost @ v).real)
        relaxed = float(np.sum(U.values * cost.T).real)
        slack = 0.05 * abs(relaxed) + 1e-10 * np.linalg.norm(cost, 2) * obs.system.n_cells
        assert rounded <= relaxed + slack


class TestPciSignal:
    def test_true_phases_reconstruct_signal(self, benchmark_instance):
        x, obs = benchmark_instance
        u_star = ground_truth_phases(obs, x)
        x_hat = pci_signal(obs, u_star)
        assert np.linalg.norm(x_hat - x) <= 1e-10 * np.linalg.norm(x)

    def test_random_phases_fail_to_reconstruct(self, benchmark_instance):
        x, obs = benchmark_instance
        filled = rpi_fill(obs, seed=9)
        flat = flatten_grid(filled)
        mags = flatten_grid(obs.magnitudes)
        u = np.ones_like(flat)
        nz = mags > 0
        u[nz] = flat[nz] / mags[nz]
        x_hat = pci_signal(obs, u)
        assert error_db(x, x_hat).e_db >= -20.0

    def test_zero_magnitude_cells_are_irrelevant(self):
        sys_ = tiny_system()
        obs = observe(sys_, dirac(8, 0), np.ones((4, 4), dtype=int))
        u = np.ones(16, dtype=complex)
        base = pci_signal(obs, u)
        mags = flatten_grid(obs.magnitudes)
        u2 = u.copy()
        u2[mags < 1e-12] = np.exp(1j * 1.23)
        assert np.array_equal(pci_signal(obs, u2), base)

    def test_all_ones_mask_end_to_end_exact(self):
        sys_ = benchmark_system()
        x = benchmark_signal(seed=6)
        obs = observe(sys_, x, np.ones((32, 16), dtype=int))
        U = pci_solve(phase_cost_matrix(obs), obs)
        x_hat = pci_signal(obs, extract_phases(U))
        assert error_db(x, x_hat).e_db <= -200.0
