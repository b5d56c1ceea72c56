"""Lifted-relaxation solver contracts on small instances."""

import numpy as np
import pytest

from phaseinpaint.gabor import hann_window, make_gabor_system
from phaseinpaint.masks import random_mask
from phaseinpaint.metrics import error_db
from phaseinpaint.observe import observe
from phaseinpaint.phaselift import (
    LiftedMatrix,
    PliConfig,
    _extrapolate,
    _psd_factor,
    build_constraints,
    constraint_values,
    extract_signal,
    factor_values,
    pli_solve,
    write_stage_log,
)
from phaseinpaint.signals import benchmark_signal


def _dense_psd_project(A: np.ndarray) -> np.ndarray:
    """Reference: exact projection onto the PSD cone, all eigenpairs kept."""
    A = 0.5 * (A + A.conj().T)
    vals, vecs = np.linalg.eigh(A)
    vals = np.maximum(vals, 0.0)
    out = (vecs * vals) @ vecs.conj().T
    return 0.5 * (out + out.conj().T)


def _hermitian_with_spectrum(rng, eigvals):
    n = len(eigvals)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (Q * np.asarray(eigvals, dtype=float)) @ Q.conj().T


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


class TestBuildConstraints:
    def test_no_known_cells_leaves_pairs_empty(self):
        sys_ = make_gabor_system(hann_window(4), hop=2, bins=4, signal_len=8)
        x = np.arange(1.0, 9.0)
        obs = observe(sys_, x, np.zeros((4, 4), dtype=int))
        for mode in ("full", "anchored"):
            cons = build_constraints(obs, mode)
            assert cons.pair_i.size == 0
            assert cons.diag_k.size == 16

    def test_anchored_row_counts_at_thirty_percent(self):
        from phaseinpaint.gabor import benchmark_system

        x = benchmark_signal(seed=1)
        mask = random_mask(32, 16, 0.3, seed=1)
        obs = observe(benchmark_system(), x, mask)
        cons = build_constraints(obs, "anchored")
        assert cons.diag_k.size == 154
        # 358 self pairs plus 357 anchor pairs
        assert cons.pair_i.size == 358 + 357

    def test_full_row_counts(self, tiny_instance):
        _, obs = tiny_instance
        cons = build_constraints(obs, "full")
        assert cons.pair_i.size == obs.n_known**2
        assert cons.diag_k.size == obs.n_missing

    def test_pair_targets_conjugate_symmetric(self, tiny_instance):
        _, obs = tiny_instance
        cons = build_constraints(obs, "full")
        lookup = {(i, j): t for i, j, t in zip(cons.pair_i, cons.pair_j, cons.pair_target)}
        for (i, j), t in lookup.items():
            assert lookup[(j, i)] == pytest.approx(np.conj(t), rel=1e-12)

    def test_ground_truth_lift_is_feasible(self, tiny_instance):
        # the arbiter for the pair-target orientation
        x, obs = tiny_instance
        L_true = np.outer(x, np.conj(x))
        for mode in ("full", "anchored"):
            cons = build_constraints(obs, mode)
            targets = np.concatenate([cons.pair_target, cons.diag_target.astype(complex)])
            vals = constraint_values(obs, cons, L_true)
            rel = np.linalg.norm(vals - targets) / np.linalg.norm(targets)
            assert rel <= 1e-9

    def test_unknown_mode_rejected(self, tiny_instance):
        _, obs = tiny_instance
        with pytest.raises(ValueError, match="mode"):
            build_constraints(obs, "diagonal")


class TestPsdFactor:
    @pytest.mark.parametrize(
        "spectrum",
        [
            lambda rng, n: rng.standard_normal(n),  # mixed signs
            lambda rng, n: -rng.uniform(0.1, 2.0, n),  # all negative: r = 0
            lambda rng, n: rng.uniform(0.1, 2.0, n),  # full rank
            lambda rng, n: np.r_[rng.uniform(1.0, 2.0, 3), -rng.uniform(0.1, 2.0, n - 3)],
            lambda rng, n: np.geomspace(1e-9, 1.0, n) * rng.choice([-1.0, 1.0], n),
        ],
        ids=["mixed", "negative", "full-rank", "rank-three", "wide-range"],
    )
    @pytest.mark.parametrize("n", [8, 32])
    def test_factor_matches_dense_projection(self, spectrum, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            eigvals = spectrum(rng, n)
            A = _hermitian_with_spectrum(rng, eigvals)
            # a non-Hermitian perturbation, removed by both projections
            A = A + 1e-3 * np.triu(rng.standard_normal((n, n)), 1)
            F = _psd_factor(A)
            ref = _dense_psd_project(A)
            assert F.shape == (n, np.count_nonzero(np.linalg.eigvalsh(0.5 * (A + A.conj().T)) > 0))
            assert np.linalg.norm(F @ F.conj().T - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_all_negative_gives_empty_factor(self):
        A = _hermitian_with_spectrum(np.random.default_rng(0), -np.arange(1.0, 9.0))
        F = _psd_factor(A)
        assert F.shape == (8, 0)
        assert not np.any(F @ F.conj().T)


class TestFactorResiduals:
    def test_factor_values_match_dense(self, medium_instance):
        _, obs = medium_instance
        cons = build_constraints(obs, "anchored")
        rng = np.random.default_rng(2)
        for r in (0, 1, 5, 32):
            F = rng.standard_normal((32, r)) + 1j * rng.standard_normal((32, r))
            dense = constraint_values(obs, cons, F @ F.conj().T)
            err = np.linalg.norm(factor_values(obs, cons, F) - dense)
            assert err <= 1e-10 * np.linalg.norm(dense)

    def test_extrapolated_residual_by_linearity(self, medium_instance):
        _, obs = medium_instance
        cons = build_constraints(obs, "full")
        targets = np.concatenate([cons.pair_target, cons.diag_target.astype(complex)])
        rng = np.random.default_rng(4)
        factors = [rng.standard_normal((32, r)) + 1j * rng.standard_normal((32, r)) for r in (3, 2, 6)]
        lifts = [F @ F.conj().T for F in factors]
        residuals = [factor_values(obs, cons, F) - targets for F in factors]
        traces = [float(np.vdot(F, F).real) for F in factors]
        for t_m in (1.0, 2.5, 40.0):
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_m * t_m))
            Y = _extrapolate(*lifts, t_m, t_new)
            dense = constraint_values(obs, cons, Y)
            by_linearity = _extrapolate(*residuals, t_m, t_new) + targets
            assert np.linalg.norm(by_linearity - dense) <= 1e-10 * np.linalg.norm(dense)
            assert _extrapolate(*traces, t_m, t_new) == pytest.approx(np.trace(Y).real, rel=1e-12)


class TestPliSolve:
    def test_tiny_full_mode_recovers(self, tiny_instance):
        x, obs = tiny_instance
        lifted = pli_solve(obs, PliConfig(constraint_mode="full"))
        x_hat = extract_signal(lifted, obs)
        assert error_db(x, x_hat).e_db <= -40.0
        assert lifted.converged

    def test_tiny_mode_agreement(self, tiny_instance):
        x, obs = tiny_instance
        full = extract_signal(pli_solve(obs, PliConfig(constraint_mode="full")), obs)
        anchored = extract_signal(pli_solve(obs, PliConfig(constraint_mode="anchored")), obs)
        assert error_db(full, anchored).e_db <= -60.0

    def test_solution_is_hermitian_psd_and_feasible(self, medium_instance):
        _, obs = medium_instance
        lifted = pli_solve(obs)
        L = lifted.values
        assert np.allclose(L, L.conj().T, atol=1e-12)
        eigvals = np.linalg.eigvalsh(L)
        assert eigvals[0] >= -1e-8 * max(lifted.trace, 1e-30)
        assert lifted.feas_residual <= PliConfig().feas_tol

    def test_trace_does_not_exceed_true_lift(self, medium_instance):
        x, obs = medium_instance
        lifted = pli_solve(obs)
        x_hat = extract_signal(lifted, obs)
        assert error_db(x, x_hat).e_db <= -40.0  # extraction succeeded
        true_trace = float(np.vdot(x, x).real)
        assert lifted.trace <= true_trace * (1.0 + 1e-3)

    def test_rank_one_diagnostic(self, medium_instance):
        _, obs = medium_instance
        lifted = pli_solve(obs)
        assert lifted.rank_estimate == 1
        assert lifted.eig_ratio <= 1e-3

    def test_all_phases_known_is_plain_inversion(self):
        from phaseinpaint.gabor import benchmark_system

        x = benchmark_signal(seed=4)
        obs = observe(benchmark_system(), x, np.ones((32, 16), dtype=int))
        lifted = pli_solve(obs)
        assert lifted.converged
        x_hat = extract_signal(lifted, obs)
        assert error_db(x, x_hat).e_db <= -200.0

    def test_stage_log_written(self, tiny_instance, tmp_path):
        _, obs = tiny_instance
        lifted = pli_solve(obs)
        path = tmp_path / "stages.json"
        write_stage_log(lifted, path)
        import json

        entries = json.loads(path.read_text())
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
            # every step projects at least once, more when it backtracks
            assert 1 <= entry["iterations"] <= entry["projections"]


class TestExtractSignal:
    def test_exact_rank_one_with_known_cells(self, tiny_instance):
        x, obs = tiny_instance
        lifted = LiftedMatrix(values=np.outer(x, np.conj(x)))
        x_hat = extract_signal(lifted, obs)
        assert np.linalg.norm(x_hat - x) <= 1e-10 * np.linalg.norm(x)

    def test_exact_rank_one_without_known_cells(self):
        sys_ = make_gabor_system(hann_window(4), hop=2, bins=4, signal_len=8)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        obs = observe(sys_, x, np.zeros((4, 4), dtype=int))
        x_hat = extract_signal(LiftedMatrix(values=np.outer(x, np.conj(x))), obs)
        # defined up to a global phase only
        assert error_db(x, x_hat).e_db <= -200.0

    def test_degenerate_matrix_rejected(self, tiny_instance):
        _, obs = tiny_instance
        with pytest.raises(ValueError, match="degenerate"):
            extract_signal(LiftedMatrix(values=np.zeros((8, 8), dtype=complex)), obs)
