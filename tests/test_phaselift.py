"""Lifted-relaxation solver contracts on small instances."""

from collections import deque

import numpy as np
import pytest
from conftest import full_constraints, pli_solve_all_pairs

from phaseinpaint import phaselift
from phaseinpaint.gabor import atom_matrix, hann_window, make_gabor_system
from phaseinpaint.masks import hole_mask, random_mask
from phaseinpaint.metrics import error_db
from phaseinpaint.observe import observe
from phaseinpaint.phaselift import (
    LiftedMatrix,
    PliConfig,
    _TRIAL_LM_STEPS,
    _lbfgs_direction,
    _operators,
    _rank_estimate,
    _row_products,
    _spectrum,
    _store_pair,
    build_constraints,
    extract_signal,
    pli_solve,
)
from phaseinpaint.signals import benchmark_signal


def constraint_values(obs, cons, L):
    """Dense reference: every constraint row at a candidate lifted matrix L (n x n)."""
    M = atom_matrix(obs.system)
    return _row_products(cons, M @ L, M)


def _factor_values(obs, cons, F):
    """Constraint rows at the lift F F^H from its factor F (n x r), via M F.

    Costs O(cells * n * r) against O(cells * n^2) for ``constraint_values``.
    """
    MF = atom_matrix(obs.system) @ F
    return _row_products(cons, MF, MF)


@pytest.fixture(scope="module")
def tiny_instance():
    sys_ = make_gabor_system(hann_window(4), hop=2, bins=4, signal_len=8)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    mask = random_mask(4, 4, 0.2, seed=11)
    return x, observe(sys_, x, mask)


@pytest.fixture(scope="module")
def medium_instance():
    sys_ = make_gabor_system(hann_window(8), hop=4, bins=8, signal_len=32)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    mask = random_mask(8, 8, 0.3, seed=5)
    return x, observe(sys_, x, mask)


@pytest.fixture(scope="module")
def fallback_hole():
    # reference hole w3/1234, where LM after the first warm-up stage falls short
    from phaseinpaint.gabor import benchmark_system

    x = benchmark_signal(seed=1234)
    return observe(benchmark_system(), x, hole_mask(32, 16, 0.3, width=3, seed=1234))


class TestBuildConstraints:
    def test_no_known_cells_leaves_pairs_empty(self):
        sys_ = make_gabor_system(hann_window(4), hop=2, bins=4, signal_len=8)
        x = np.arange(1.0, 9.0)
        obs = observe(sys_, x, np.zeros((4, 4), dtype=int))
        for cons in (full_constraints(obs), build_constraints(obs)):
            assert cons.n_rows == 16
            assert np.array_equal(cons.rows_i, cons.rows_j)

    def test_anchored_row_counts_at_thirty_percent(self):
        from phaseinpaint.gabor import benchmark_system

        x = benchmark_signal(seed=1)
        mask = random_mask(32, 16, 0.3, seed=1)
        obs = observe(benchmark_system(), x, mask)
        cons = build_constraints(obs)
        # 154 missing-cell diagonal rows, 358 self pairs and 357 anchor pairs
        assert cons.n_rows == 154 + 358 + 357
        assert np.count_nonzero(cons.rows_i != cons.rows_j) == 357
        diagonal = cons.rows_i[cons.rows_i == cons.rows_j]
        assert np.array_equal(np.sort(diagonal), np.arange(512))

    def test_full_row_counts(self, tiny_instance):
        # the tests' all-pairs reference rows
        _, obs = tiny_instance
        cons = full_constraints(obs)
        assert cons.n_rows == obs.n_known**2 + obs.n_missing
        assert np.count_nonzero(cons.rows_i != cons.rows_j) == obs.n_known * (obs.n_known - 1)

    def test_pair_targets_conjugate_symmetric(self, tiny_instance):
        _, obs = tiny_instance
        cons = full_constraints(obs)
        lookup = {(i, j): t for i, j, t in zip(cons.rows_i, cons.rows_j, cons.targets)}
        for (i, j), t in lookup.items():
            assert lookup[(j, i)] == pytest.approx(np.conj(t), rel=1e-12)

    def test_ground_truth_lift_is_feasible(self, tiny_instance):
        # the arbiter for the pair-target orientation
        x, obs = tiny_instance
        L_true = np.outer(x, np.conj(x))
        for cons in (full_constraints(obs), build_constraints(obs)):
            vals = constraint_values(obs, cons, L_true)
            rel = np.linalg.norm(vals - cons.targets) / np.linalg.norm(cons.targets)
            assert rel <= 1e-9


class TestPsdFactor:
    def test_all_negative_gives_empty_factor(self, medium_instance):
        _, obs = medium_instance
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        A = (Q * -np.arange(1.0, 9.0)) @ Q.conj().T
        assert _rank_estimate(np.linalg.eigvalsh(A)) == 0
        # the lift of the empty factor is the zero matrix
        cons = full_constraints(obs)
        F = np.zeros((32, 0), dtype=complex)
        assert not np.any(_factor_values(obs, cons, F))
        assert np.array_equal(_factor_values(obs, cons, F), constraint_values(obs, cons, F @ F.conj().T))
        # all magnitudes zero: pli returns that lift and says its rank is 0
        zero = observe(obs.system, np.zeros(32, dtype=complex), random_mask(8, 8, 0.3, seed=5))
        lifted = pli_solve(zero)
        assert lifted.converged
        V = lifted.factor
        assert not np.any(V @ V.conj().T)
        assert lifted.rank_estimate == 0


class TestFactorResiduals:
    def test_factor_values_match_dense(self, medium_instance):
        _, obs = medium_instance
        cons = build_constraints(obs)
        rng = np.random.default_rng(2)
        for r in (0, 1, 5, 32):
            F = rng.standard_normal((32, r)) + 1j * rng.standard_normal((32, r))
            dense = constraint_values(obs, cons, F @ F.conj().T)
            err = np.linalg.norm(_factor_values(obs, cons, F) - dense)
            assert err <= 1e-10 * np.linalg.norm(dense)

    def test_line_search_candidate_by_linearity(self, medium_instance):
        # M (V + a d) is MV + a M d, which is how pli carries a line-search
        # candidate's product with M; the candidate's residual is not the same
        # combination of the residuals at the endpoints V and V + d (it is
        # quadratic in the factor), so pli evaluates it afresh
        _, obs = medium_instance
        M = atom_matrix(obs.system)
        cons = full_constraints(obs)
        rng = np.random.default_rng(4)
        V, D = (rng.standard_normal((32, 3)) + 1j * rng.standard_normal((32, 3)) for _ in range(2))
        MV, MD = M @ V, M @ D
        res_V = _factor_values(obs, cons, V) - cons.targets
        res_end = _factor_values(obs, cons, V + D) - cons.targets
        for alpha in (1e-3, 0.25, 0.5, 1.0):
            cand = V + alpha * D
            assert np.linalg.norm(MV + alpha * MD - M @ cand) <= 1e-12 * np.linalg.norm(M @ cand)
            if alpha in (0.25, 0.5):
                at_cand = _factor_values(obs, cons, cand) - cons.targets
                combined = (1.0 - alpha) * res_V + alpha * res_end
                assert np.linalg.norm(combined - at_cand) >= 1e-2 * np.linalg.norm(at_cand)

    def test_gradient_matches_central_differences(self, medium_instance):
        _, obs = medium_instance
        M = atom_matrix(obs.system)
        rng = np.random.default_rng(4)
        V = rng.standard_normal((32, 3)) + 1j * rng.standard_normal((32, 3))
        h = 1e-5
        for cons in (full_constraints(obs), build_constraints(obs)):
            gradient, _ = _operators(obs, cons)

            def objective(W, mu):
                res = _factor_values(obs, cons, W) - cons.targets
                return float(np.vdot(res, res).real) + mu * float(np.vdot(W, W).real)

            for mu in (0.0, 0.7):
                G = gradient(V, M @ V, _factor_values(obs, cons, V) - cons.targets, mu)
                for _ in range(3):
                    D = rng.standard_normal(V.shape) + 1j * rng.standard_normal(V.shape)
                    central = (objective(V + h * D, mu) - objective(V - h * D, mu)) / (2 * h)
                    assert central == pytest.approx(float(np.vdot(G, D).real), rel=1e-7)

    @pytest.mark.parametrize("ratio", [0.3, 1.0])
    @pytest.mark.parametrize(
        "width, hop, bins, signal_len",
        [
            (8, 4, 8, 32),  # medium_instance's geometry
            (6, 4, 10, 48),  # width not a multiple of hop, bins not dividing n, wrapping frames
            (16, 8, 20, 64),  # bins not dividing n
            (8, 4, 8, 8),  # a window as long as the signal
        ],
    )
    def test_merged_scatter_matches_dense_gradient(self, width, hop, bins, signal_len, ratio):
        # the diagonal rows' weights and the partner matrix Q for S + S^H,
        # against the dense 2 (M^H (S + S^H) M V + mu V); the all-pairs rows
        # give Q a column per known cell, the anchored rows one, and a mask
        # with no known cell (ratio 1.0) no cross rows and an empty Q
        system = make_gabor_system(hann_window(width), hop=hop, bins=bins, signal_len=signal_len)
        M = atom_matrix(system)
        rng = np.random.default_rng(signal_len)
        x = rng.standard_normal(signal_len) + 1j * rng.standard_normal(signal_len)
        obs = observe(system, x, random_mask(bins, system.frames, ratio, seed=1))
        V = rng.standard_normal((signal_len, 3)) + 1j * rng.standard_normal((signal_len, 3))
        for cons in (full_constraints(obs), build_constraints(obs)):
            res = _factor_values(obs, cons, V) - cons.targets
            rows_i, rows_j = cons.rows_i, cons.rows_j
            S = np.zeros((system.n_cells,) * 2, dtype=complex)
            np.add.at(S, (rows_j, rows_i), np.conj(res))
            gradient, _ = _operators(obs, cons)
            for mu in (0.0, 0.7):
                dense = 2.0 * (M.conj().T @ ((S + S.conj().T) @ (M @ V)) + mu * V)
                merged = gradient(V, M @ V, res, mu)
                assert np.linalg.norm(merged - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_spectrum_of_factor_matches_dense(self):
        rng = np.random.default_rng(9)
        V = rng.standard_normal((32, 3)) + 1j * rng.standard_normal((32, 3))
        dense = np.linalg.eigvalsh(V @ V.conj().T)[-3:]
        assert np.allclose(_spectrum(V), dense, rtol=1e-12, atol=1e-12 * dense[-1])


class TestLbfgsDirection:
    @staticmethod
    def _explicit_bfgs(pairs, dim):
        # H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T from H0 = gamma I,
        # gamma = s.y / y.y of the newest pair
        s_new, y_new = pairs[-1]
        H = (s_new @ y_new) / (y_new @ y_new) * np.eye(dim)
        for s, y in pairs:
            rho = 1.0 / (s @ y)
            left = np.eye(dim) - rho * np.outer(s, y)
            H = left @ H @ left.T + rho * np.outer(s, s)
        return H

    @staticmethod
    def _pairs(rng, count, dim):
        pairs = []
        while len(pairs) < count:
            s = rng.standard_normal(dim)
            y = s + 0.5 * rng.standard_normal(dim)  # mostly positive curvature
            if s @ y > 0.0:
                pairs.append((s, y))
        return pairs

    def test_two_loop_matches_explicit_inverse_hessian(self):
        rng = np.random.default_rng(12)
        dim = 7
        for n_pairs in (1, 3, 10):
            pairs = self._pairs(rng, n_pairs, dim)
            memory = deque(maxlen=10)
            for s, y in pairs:
                _store_pair(memory, s, y)
            g = rng.standard_normal(dim)
            expected = -self._explicit_bfgs(pairs, dim) @ g
            d = _lbfgs_direction(memory, g)
            assert np.linalg.norm(d - expected) <= 1e-12 * np.linalg.norm(expected)
            assert d @ g < 0.0  # a descent direction
            assert not np.shares_memory(d, g)

    def test_memory_keeps_newest_pairs(self):
        rng = np.random.default_rng(13)
        pairs = self._pairs(rng, 5, 4)
        memory = deque(maxlen=3)
        for s, y in pairs:
            _store_pair(memory, s, y)
        g = rng.standard_normal(4)
        expected = -self._explicit_bfgs(pairs[-3:], 4) @ g
        d = _lbfgs_direction(memory, g)
        assert np.linalg.norm(d - expected) <= 1e-12 * np.linalg.norm(expected)
        all_five = -self._explicit_bfgs(pairs, 4) @ g
        assert np.linalg.norm(d - all_five) >= 1e-3 * np.linalg.norm(all_five)

    def test_nonpositive_curvature_pair_not_stored(self):
        memory = deque(maxlen=10)
        s = np.array([1.0, 0.0, 2.0])
        _store_pair(memory, s, -s)  # s.y < 0
        _store_pair(memory, s, np.array([0.0, 1.0, 0.0]))  # s.y = 0
        assert len(memory) == 0
        _store_pair(memory, s, s)
        assert len(memory) == 1


class TestLevenbergMarquardt:
    def test_normal_matrix_matches_explicit_jacobian(self, medium_instance):
        # Re(C^H C) with C = [A + B, i (A - B)] built row by row, against the
        # cell-space assembly that never forms a rows x n array
        _, obs = medium_instance
        M = atom_matrix(obs.system)
        rng = np.random.default_rng(10)
        for cons in (full_constraints(obs), build_constraints(obs)):
            rows_i, rows_j = cons.rows_i, cons.rows_j
            u = M @ (rng.standard_normal(32) + 1j * rng.standard_normal(32))
            A = np.conj(u[rows_j])[:, None] * M[rows_i]
            B = u[rows_i][:, None] * np.conj(M[rows_j])
            C = np.hstack([A + B, 1j * (A - B)])
            explicit = (C.conj().T @ C).real
            _, normal = _operators(obs, cons)
            assembled = normal(u)
            assert np.linalg.norm(assembled - explicit) <= 1e-12 * np.linalg.norm(explicit)

    @pytest.mark.parametrize(
        "width, hop, bins, signal_len",
        [
            (6, 4, 10, 48),  # width not a multiple of hop, bins not dividing n, wrapping frames
            (16, 8, 20, 64),  # bins not dividing n
            (8, 4, 8, 8),  # a window as long as the signal
        ],
    )
    def test_normal_matrix_on_other_geometries(self, width, hop, bins, signal_len):
        # the per-frame assembly against the row-by-row Jacobian off the
        # benchmark's geometry, on the anchored and the all-pairs rows, and on
        # a mask with no known cell, which has no anchor rows
        system = make_gabor_system(hann_window(width), hop=hop, bins=bins, signal_len=signal_len)
        M = atom_matrix(system)
        rng = np.random.default_rng(signal_len)
        x = rng.standard_normal(signal_len) + 1j * rng.standard_normal(signal_len)
        for ratio in (0.3, 1.0):
            obs = observe(system, x, random_mask(bins, system.frames, ratio, seed=1))
            for cons in (full_constraints(obs), build_constraints(obs)):
                u = M @ (rng.standard_normal(signal_len) + 1j * rng.standard_normal(signal_len))
                A = np.conj(u[cons.rows_j])[:, None] * M[cons.rows_i]
                B = u[cons.rows_i][:, None] * np.conj(M[cons.rows_j])
                C = np.hstack([A + B, 1j * (A - B)])
                explicit = (C.conj().T @ C).real
                _, normal = _operators(obs, cons)
                assembled = normal(u)
                assert np.linalg.norm(assembled - explicit) <= 1e-12 * np.linalg.norm(explicit)

    def test_step_from_perturbed_signal_lowers_residual(self, medium_instance):
        # one damped Gauss-Newton step as pli takes it: J^T r is half the
        # factor gradient, packed as real and imaginary parts
        x, obs = medium_instance
        M = atom_matrix(obs.system)
        rng = np.random.default_rng(11)
        for cons in (full_constraints(obs), build_constraints(obs)):
            z = (x + 1e-3 * (rng.standard_normal(32) + 1j * rng.standard_normal(32)))[:, None]
            res = _factor_values(obs, cons, z) - cons.targets
            gradient, normal = _operators(obs, cons)
            g = 0.5 * gradient(z, M @ z, res, 0.0)
            JTJ = normal((M @ z)[:, 0])
            delta = np.linalg.solve(JTJ + np.diag(1e-3 * JTJ.diagonal()), -np.r_[g.real, g.imag])
            stepped = z + delta[:32] + 1j * delta[32:]
            res_new = _factor_values(obs, cons, stepped) - cons.targets
            assert np.vdot(res_new, res_new).real <= 1e-2 * np.vdot(res, res).real

    def test_default_solve_logs_warm_up_then_lm(self, medium_instance):
        # LM right after the first warm-up stage fits here, so the solve ends there
        _, obs = medium_instance
        lifted = pli_solve(obs)
        log = lifted.stage_log
        assert [entry["lambda"] for entry in log] == [PliConfig().penalty_schedule[0], 0.0]
        assert lifted.converged
        assert lifted.factor.shape == (32, 1)
        assert 1 <= log[-1]["iterations"] <= _TRIAL_LM_STEPS

    def test_failed_trial_resumes_the_warm_up(self, fallback_hole):
        # a reference hole where the trial misses feas_tol: the remaining
        # stages run, then LM with its full cap
        lifted = pli_solve(fallback_hole)
        schedule = PliConfig().penalty_schedule
        log = lifted.stage_log
        assert [entry["lambda"] for entry in log] == [schedule[0], 0.0, *schedule[1:], 0.0]
        assert log[1]["feas_residual"] > PliConfig().feas_tol
        assert 1 <= log[1]["iterations"] <= _TRIAL_LM_STEPS
        assert 1 <= log[-1]["iterations"] <= PliConfig().max_inner
        assert lifted.converged

    def test_failed_trial_leaves_the_factor_as_it_was(self, fallback_hole, monkeypatch):
        # the warm-up resumes from the stage-1 factor as it stands, so the solve
        # ends on the bits of one whose trial takes no LM iteration at all
        with_trial = pli_solve(fallback_hole)
        monkeypatch.setattr(phaselift, "_TRIAL_LM_STEPS", 0)
        no_trial = pli_solve(fallback_hole)
        assert no_trial.stage_log[1]["iterations"] == 0
        assert np.array_equal(with_trial.factor, no_trial.factor)


class TestPliSolve:
    def test_tiny_full_mode_recovers(self, tiny_instance, monkeypatch):
        x, obs = tiny_instance
        lifted = pli_solve_all_pairs(obs, monkeypatch)
        x_hat = extract_signal(lifted, obs)
        assert error_db(x, x_hat).e_db <= -40.0
        assert lifted.converged

    def test_tiny_mode_agreement(self, tiny_instance, monkeypatch):
        x, obs = tiny_instance
        full = extract_signal(pli_solve_all_pairs(obs, monkeypatch), obs)
        anchored = extract_signal(pli_solve(obs), obs)
        assert error_db(full, anchored).e_db <= -60.0

    def test_solution_is_hermitian_psd_and_feasible(self, medium_instance):
        _, obs = medium_instance
        lifted = pli_solve(obs)
        V = lifted.factor
        L = V @ V.conj().T
        assert np.allclose(L, L.conj().T, atol=1e-12)
        eigvals = np.linalg.eigvalsh(L)
        assert eigvals[0] >= -1e-8 * max(float(np.vdot(V, V).real), 1e-30)
        assert lifted.feas_residual <= PliConfig().feas_tol

    def test_trace_does_not_exceed_true_lift(self, medium_instance):
        x, obs = medium_instance
        lifted = pli_solve(obs)
        x_hat = extract_signal(lifted, obs)
        assert error_db(x, x_hat).e_db <= -40.0  # extraction succeeded
        true_trace = float(np.vdot(x, x).real)
        trace = float(np.vdot(lifted.factor, lifted.factor).real)
        assert trace <= true_trace * (1.0 + 1e-3)

    def test_rank_one_diagnostic(self, medium_instance):
        _, obs = medium_instance
        lifted = pli_solve(obs)
        assert lifted.rank_estimate == 1
        assert lifted.factor.shape == (32, 1)

    def test_rank_diagnostics_match_dense_spectrum(self, medium_instance):
        # read off the singular values of the factor, not an n x n eigvalsh
        _, obs = medium_instance
        lifted = pli_solve(obs)
        V = lifted.factor
        eigvals = np.linalg.eigvalsh(V @ V.conj().T)
        assert lifted.rank_estimate == _rank_estimate(eigvals)

    def test_returns_thin_factor(self, tiny_instance):
        # the main path and both early returns (every phase known, all
        # magnitudes zero) end on an n x 1 factor
        x, obs = tiny_instance
        system = obs.system
        instances = [
            obs,
            observe(system, x, np.ones((4, 4), dtype=int)),
            observe(system, np.zeros(8, dtype=complex), obs.mask),
        ]
        for case in instances:
            lifted = pli_solve(case)
            V = lifted.factor
            assert V.shape == (8, 1)
            assert lifted.converged

    def test_unrealizable_all_known_is_not_converged(self):
        # random coefficients are no signal's analysis, so with every phase
        # known the least-squares lift leaves a residual far above feas_tol
        from phaseinpaint.gabor import benchmark_system
        from phaseinpaint.observe import Observations

        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal((32, 16)) + 1j * rng.standard_normal((32, 16))
        lifted = pli_solve(Observations(benchmark_system(), coeffs, np.ones((32, 16), dtype=int)))
        assert lifted.feas_residual > 0.5
        assert lifted.converged is False

    def test_bit_deterministic(self, medium_instance):
        _, obs = medium_instance
        assert np.array_equal(pli_solve(obs).factor, pli_solve(obs).factor)

    def test_high_ratio_instance_converges(self):
        # criterion-4 trial 2 at ratio 0.6: the dense projected solver used
        # both 500-step caps and ended unconverged at -68 dB
        from phaseinpaint.gabor import benchmark_system

        x = benchmark_signal(seed=1236)
        obs = observe(benchmark_system(), x, random_mask(32, 16, 0.6, seed=1236))
        lifted = pli_solve(obs)
        assert lifted.converged
        assert error_db(x, extract_signal(lifted, obs)).e_db <= -100.0

    def test_wide_hole_instance_converges(self):
        # criterion-5 trial 2 at width 9: a wide hole, where the warm-up has to
        # bring LM near the signal
        from phaseinpaint.gabor import benchmark_system

        x = benchmark_signal(seed=1236)
        obs = observe(benchmark_system(), x, hole_mask(32, 16, 0.3, width=9, seed=1236))
        lifted = pli_solve(obs)
        assert lifted.converged
        assert error_db(x, extract_signal(lifted, obs)).e_db <= -100.0

    def test_all_phases_known_is_plain_inversion(self):
        from phaseinpaint.gabor import benchmark_system

        x = benchmark_signal(seed=4)
        obs = observe(benchmark_system(), x, np.ones((32, 16), dtype=int))
        lifted = pli_solve(obs)
        assert lifted.converged
        x_hat = extract_signal(lifted, obs)
        assert error_db(x, x_hat).e_db <= -200.0

    def test_stage_log_entries(self, tiny_instance):
        _, obs = tiny_instance
        entries = pli_solve(obs).stage_log
        assert len(entries) >= 1
        keys = {
            "stage",
            "lambda",
            "feas_residual",
            "trace",
            "rank_estimate",
            "iterations",
            "projections",
            "seconds",
        }
        assert keys <= set(entries[0])
        for entry in entries:
            # every step evaluates at least one candidate, more when it backtracks
            assert 1 <= entry["iterations"] <= entry["projections"]


@pytest.mark.slow
def test_reference_solves_gate():
    # the 40 reference solves of every pli change: ratios 0.5/0.6 at seeds
    # 1234-1243 and hole widths 3/5/7/9 at ratio 0.3, seeds 1234-1238
    from phaseinpaint.gabor import benchmark_system

    system = benchmark_system()
    instances = [("ratio", p, seed) for p in (0.5, 0.6) for seed in range(1234, 1244)]
    instances += [("hole", w, seed) for w in (3, 5, 7, 9) for seed in range(1234, 1239)]
    unconverged, worst_ratio = [], -np.inf
    for kind, param, seed in instances:
        x = benchmark_signal(seed=seed)
        if kind == "ratio":
            mask = random_mask(32, 16, param, seed=seed)
        else:
            mask = hole_mask(32, 16, 0.3, width=param, seed=seed)
        obs = observe(system, x, mask)
        lifted = pli_solve(obs)
        if not lifted.converged:
            unconverged.append((kind, param, seed))
        if kind == "ratio":
            worst_ratio = max(worst_ratio, error_db(x, extract_signal(lifted, obs)).e_db)
    assert not unconverged
    assert worst_ratio <= -100.0
    assert np.array_equal(pli_solve(obs).factor, lifted.factor)


class TestExtractSignal:
    def test_exact_rank_one_with_known_cells(self, tiny_instance):
        x, obs = tiny_instance
        lifted = LiftedMatrix(factor=x[:, None])
        x_hat = extract_signal(lifted, obs)
        assert np.linalg.norm(x_hat - x) <= 1e-10 * np.linalg.norm(x)

    def test_exact_rank_one_without_known_cells(self):
        sys_ = make_gabor_system(hann_window(4), hop=2, bins=4, signal_len=8)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        obs = observe(sys_, x, np.zeros((4, 4), dtype=int))
        x_hat = extract_signal(LiftedMatrix(factor=x[:, None]), obs)
        # defined up to a global phase only
        assert error_db(x, x_hat).e_db <= -200.0

    def test_degenerate_matrix_rejected(self, tiny_instance):
        # the zero lift is not an error: its only rank-one factor is zero
        _, obs = tiny_instance
        x_hat = extract_signal(LiftedMatrix(factor=np.zeros((8, 1), dtype=complex)), obs)
        assert x_hat.shape == (8,)
        assert np.array_equal(x_hat, np.zeros(8, dtype=complex))

    def test_rank_two_factor_gives_leading_column(self, tiny_instance):
        # orthogonal columns x and 1e-3 y: the leading singular pair of the
        # factor is x, up to the global phase the known cells pin
        x, obs = tiny_instance
        rng = np.random.default_rng(12)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y -= (np.vdot(x, y) / np.vdot(x, x)) * x
        y *= np.linalg.norm(x) / np.linalg.norm(y)
        lifted = LiftedMatrix(factor=np.stack([x, 1e-3 * y], axis=1))
        x_hat = extract_signal(lifted, obs)
        assert np.linalg.norm(x_hat - x) <= 1e-10 * np.linalg.norm(x)
