"""Error-metric contracts: closed form versus brute-force grid."""

import numpy as np
import pytest

from phaseinpaint.metrics import _RATIO_FLOOR, DB_FLOOR, error_db


def error_db_grid_oracle(x, x_hat, grid_points=100_000):
    """Brute-force error over a uniform grid of global phases."""
    x = np.asarray(x, dtype=complex)
    x_hat = np.asarray(x_hat, dtype=complex)
    norm_x = np.linalg.norm(x)
    thetas = np.arange(grid_points) * (2.0 * np.pi / grid_points)
    best = np.inf
    chunk = 4096
    for start in range(0, grid_points, chunk):
        rot = np.exp(1j * thetas[start : start + chunk])
        diffs = x[None, :] - rot[:, None] * x_hat[None, :]
        best = min(best, float(np.sqrt(np.min(np.sum(np.abs(diffs) ** 2, axis=1)))))
    ratio = best / norm_x
    if ratio <= _RATIO_FLOOR:
        return DB_FLOOR
    return max(20.0 * float(np.log10(ratio)), DB_FLOOR)


def random_pair(rng, n=32):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x, y


class TestErrorDb:
    def test_exact_match_hits_floor(self):
        rng = np.random.default_rng(0)
        x, _ = random_pair(rng)
        assert error_db(x, x).e_db == DB_FLOOR

    def test_global_phase_invariance_hits_floor(self):
        rng = np.random.default_rng(1)
        x, _ = random_pair(rng)
        for alpha in (0.1, 1.7, 3.9, 5.5):
            assert error_db(x, np.exp(1j * alpha) * x).e_db == DB_FLOOR

    def test_zero_estimate_is_zero_db(self):
        rng = np.random.default_rng(2)
        x, _ = random_pair(rng)
        rep = error_db(x, np.zeros_like(x))
        assert rep.e_db == pytest.approx(0.0, abs=1e-12)
        assert rep.raw_ratio == pytest.approx(1.0, rel=1e-12)

    def test_negated_estimate_hits_floor(self):
        rng = np.random.default_rng(3)
        x, _ = random_pair(rng)
        assert error_db(x, -x).e_db == DB_FLOOR

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            error_db(np.zeros(4), np.ones(4))

    def test_theta_range(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x, y = random_pair(rng)
            theta = error_db(x, y).theta_star
            assert 0.0 <= theta < 2.0 * np.pi

    def test_invariance_under_rotated_estimate(self):
        rng = np.random.default_rng(5)
        x, y = random_pair(rng)
        base = error_db(x, y).e_db
        for alpha in rng.uniform(0, 2 * np.pi, size=10):
            assert error_db(x, np.exp(1j * alpha) * y).e_db == pytest.approx(base, abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        x, y = random_pair(rng)
        base = error_db(x, y).e_db
        for c in (0.25, 3.0, 117.0):
            assert error_db(c * x, c * y).e_db == pytest.approx(base, abs=1e-9)


class TestGridOracle:
    def test_closed_form_agrees_with_grid(self):
        # grid resolution 4e5 keeps the curvature gap below 1e-9 dB
        rng = np.random.default_rng(7)
        for _ in range(100):
            x, y = random_pair(rng, n=16)
            closed = error_db(x, y).e_db
            grid = error_db_grid_oracle(x, y, grid_points=400_000)
            assert grid >= closed - 1e-12
            assert grid - closed <= 1e-9

    def test_monotone_refinement(self):
        rng = np.random.default_rng(8)
        x, y = random_pair(rng)
        coarse = error_db_grid_oracle(x, y, grid_points=1_000)
        fine = error_db_grid_oracle(x, y, grid_points=100_000)
        assert fine <= coarse + 1e-12

    def test_negated_estimate_floor(self):
        rng = np.random.default_rng(9)
        x, _ = random_pair(rng)
        assert error_db_grid_oracle(x, -x, grid_points=4) == DB_FLOOR
