"""Alternating-projection solver contracts."""

import tracemalloc

import numpy as np
import pytest

from phaseinpaint.gabor import (
    benchmark_system,
    consistency_projection,
    flatten_grid,
    istft,
    range_projector,
    unflatten_grid,
)
from phaseinpaint.griffin_lim import GliConfig, clamp, gli_run
from phaseinpaint.masks import hole_mask, random_mask
from phaseinpaint.metrics import error_db
from phaseinpaint.observe import observe
from phaseinpaint.signals import benchmark_signal

SHAPE = (32, 16)


def make_obs(ratio, seed, width=None):
    sys_ = benchmark_system()
    x = benchmark_signal(seed=seed)
    if width is None:
        mask = random_mask(*SHAPE, ratio, seed=seed)
    else:
        mask = hole_mask(*SHAPE, ratio, width, seed=seed)
    return x, observe(sys_, x, mask)


class TestClamp:
    def test_feasible_grid_is_fixed_point(self):
        x, obs = make_obs(0.3, seed=1)
        rng = np.random.default_rng(0)
        feasible = obs.magnitudes * np.exp(
            1j * (obs.mask * np.angle(obs.known) + (1 - obs.mask) * rng.uniform(0, 2 * np.pi, SHAPE))
        )
        assert np.allclose(clamp(feasible, obs), feasible, atol=1e-14)

    def test_output_magnitude_and_support_phase(self):
        _, obs = make_obs(0.4, seed=2)
        rng = np.random.default_rng(1)
        z = rng.standard_normal(SHAPE) + 1j * rng.standard_normal(SHAPE)
        out = clamp(z, obs)
        assert np.allclose(np.abs(out), obs.magnitudes, rtol=1e-12)
        on = obs.mask == 1
        assert np.allclose(out[on], obs.known[on], rtol=1e-12)

    def test_zero_entry_gets_zero_phase(self):
        _, obs = make_obs(0.3, seed=3)
        z = np.zeros(SHAPE, dtype=complex)
        out = clamp(z, obs)
        off = obs.mask == 0
        assert np.allclose(out[off], obs.magnitudes[off])  # phase 0 by convention

    def test_nearest_point_property(self):
        # clamp beats random feasible grids in Frobenius distance
        _, obs = make_obs(0.3, seed=4)
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = rng.standard_normal(SHAPE) + 1j * rng.standard_normal(SHAPE)
            d_clamp = np.linalg.norm(clamp(z, obs) - z)
            for _ in range(100):
                feas = obs.magnitudes * np.exp(
                    1j
                    * (
                        obs.mask * np.angle(obs.known)
                        + (1 - obs.mask) * rng.uniform(0, 2 * np.pi, SHAPE)
                    )
                )
                assert d_clamp <= np.linalg.norm(feas - z) + 1e-12

    @pytest.mark.parametrize("width", [None, 7], ids=["random", "hole"])
    def test_matches_mask_product_formula(self, width):
        _, obs = make_obs(0.3, seed=5, width=width)
        rng = np.random.default_rng(3)
        z = rng.standard_normal(SHAPE) + 1j * rng.standard_normal(SHAPE)
        off, on = np.argwhere(obs.mask == 0), np.argwhere(obs.mask == 1)
        z[tuple(off[0])] = z[tuple(on[0])] = 0.0
        z[tuple(off[1])] = complex(0.0, -0.0)
        z[tuple(off[2])] = complex(-0.0, -0.0)
        old = obs.magnitudes * np.exp(
            1j * (obs.mask * np.angle(obs.known) + (1 - obs.mask) * np.angle(z))
        )
        new = clamp(z, obs)
        assert np.array_equal(new, old)
        assert new.tobytes() == old.tobytes()  # signs of zeros included


class TestGliRun:
    def test_all_phases_known_recovers_immediately(self):
        sys_ = benchmark_system()
        x = benchmark_signal(seed=5)
        obs = observe(sys_, x, np.ones(SHAPE, dtype=int))
        result = gli_run(obs, GliConfig(n_iter=1), seed=0)
        assert error_db(x, result.x_hat).e_db <= -200.0

    def test_median_recovery_at_thirty_percent(self):
        vals = []
        for seed in range(5):
            x, obs = make_obs(0.3, seed=seed)
            result = gli_run(obs, seed=seed)
            vals.append(error_db(x, result.x_hat).e_db)
        assert float(np.median(vals)) <= -50.0

    def test_iterates_stay_feasible(self):
        # re-run the recursion manually and compare against gli_run's output
        x, obs = make_obs(0.5, seed=6)
        cfg = GliConfig(n_iter=40, residual_tol=0.0)
        result = gli_run(obs, cfg, seed=6)
        rng = np.random.default_rng([6, 0x611A])
        phi0 = rng.uniform(0.0, 2.0 * np.pi, size=SHAPE)
        y = obs.magnitudes * np.exp(
            1j * (obs.mask * np.angle(obs.known) + (1 - obs.mask) * phi0)
        )
        sys_ = obs.system
        for _ in range(40):
            z = consistency_projection(sys_, y)
            y = clamp(z, obs)
            assert np.allclose(np.abs(y), obs.magnitudes, rtol=1e-12)
            on = obs.mask == 1
            assert np.allclose(y[on], obs.known[on], rtol=1e-12)
        assert np.allclose(result.x_hat, istft(sys_, y))

    @pytest.mark.parametrize("width", [None, 7], ids=["random", "hole"])
    def test_matches_full_projection_recursion(self, width):
        # gli projects only the missing cells per iteration; the known
        # cells' share is added once. Compare with projecting the whole grid.
        _, obs = make_obs(0.3, seed=9, width=width)
        result = gli_run(obs, GliConfig(n_iter=40, residual_tol=0.0), seed=9)
        rng = np.random.default_rng([9, 0x611A])
        phi0 = rng.uniform(0.0, 2.0 * np.pi, size=SHAPE)
        y = obs.magnitudes * np.exp(
            1j * (obs.mask * np.angle(obs.known) + (1 - obs.mask) * phi0)
        )
        trace = []
        for _ in range(40):
            z = consistency_projection(obs.system, y)
            y = clamp(z, obs)
            trace.append(np.linalg.norm(y - z))
        x_full = istft(obs.system, y)
        assert np.allclose(result.residual_trace, trace, rtol=1e-10, atol=0.0)
        assert np.linalg.norm(result.x_hat - x_full) <= 1e-10 * np.linalg.norm(x_full)

    @pytest.mark.parametrize("kind", ["random", "hole", "all_missing", "all_known"])
    def test_free_cell_loop_matches_clamp_bit_for_bit(self, kind):
        # gli updates only the free cells in place; replaying clamp on the
        # whole grid must give the same bits, the residual's summation order
        # (clamp's memory layout) included
        sys_ = benchmark_system()
        x = benchmark_signal(seed=10)
        mask = {
            "random": random_mask(*SHAPE, 0.3, seed=10),
            "hole": hole_mask(*SHAPE, 0.3, 7, seed=10),
            "all_missing": np.zeros(SHAPE, dtype=int),
            "all_known": np.ones(SHAPE, dtype=int),
        }[kind]
        obs = observe(sys_, x, mask)
        result = gli_run(obs, GliConfig(n_iter=40, residual_tol=0.0), seed=10)
        rng = np.random.default_rng([10, 0x611A])
        phi0 = rng.uniform(0.0, 2.0 * np.pi, size=SHAPE)
        y = obs.magnitudes * np.exp(
            1j * (obs.mask * np.angle(obs.known) + (1 - obs.mask) * phi0)
        )
        free = obs.missing_flat_indices()
        z_known = consistency_projection(sys_, np.where(obs.mask == 1, y, 0))
        p_free = np.ascontiguousarray(range_projector(sys_)[:, free])
        trace = []
        for _ in range(40):
            z = z_known + unflatten_grid(sys_, p_free @ flatten_grid(y)[free])
            y = clamp(z, obs)
            trace.append(np.linalg.norm(y - z))
        assert result.iterations_run == 40
        assert np.array_equal(result.residual_trace, trace)
        assert np.array_equal(result.x_hat, istft(sys_, y))

    def test_all_known_stops_on_plateau_at_second_iteration(self):
        sys_ = benchmark_system()
        x = benchmark_signal(seed=5)
        obs = observe(sys_, x, np.ones(SHAPE, dtype=int))
        result = gli_run(obs, seed=0)
        assert result.converged
        assert result.iterations_run == 2
        assert error_db(x, result.x_hat).e_db <= -200.0

    def test_residual_trace_non_increasing(self):
        for seed, ratio in ((0, 0.2), (1, 0.5), (2, 0.8)):
            _, obs = make_obs(ratio, seed=seed)
            result = gli_run(obs, GliConfig(n_iter=300), seed=seed)
            trace = result.residual_trace
            assert np.all(np.diff(trace) <= 1e-10)

    def test_matches_classic_griffin_lim_without_known_phases(self):
        # with an all-zeros mask the recursion degenerates to plain
        # magnitude-only alternating projections, bit for bit
        sys_ = benchmark_system()
        x = benchmark_signal(seed=7)
        obs = observe(sys_, x, np.zeros(SHAPE, dtype=int))
        cfg = GliConfig(n_iter=50, residual_tol=0.0)
        result = gli_run(obs, cfg, seed=7)

        rng = np.random.default_rng([7, 0x611A])
        phi0 = rng.uniform(0.0, 2.0 * np.pi, size=SHAPE)
        y = obs.magnitudes * np.exp(1j * phi0)
        for _ in range(50):
            z = consistency_projection(sys_, y)
            y = obs.magnitudes * np.exp(1j * np.angle(z))
        classic = istft(sys_, y)
        assert np.array_equal(result.x_hat, classic)

    def test_early_stop_on_residual_plateau(self):
        x, obs = make_obs(0.1, seed=8)
        result = gli_run(obs, GliConfig(n_iter=2000, residual_tol=1e-12), seed=8)
        assert result.iterations_run < 2000
        assert error_db(x, result.x_hat).e_db <= -200.0

    def test_converged_when_plateau_stops_the_loop(self):
        _, obs = make_obs(0.1, seed=8)
        result = gli_run(obs, GliConfig(n_iter=2000), seed=8)
        assert result.converged
        assert result.iterations_run < 2000

    def test_copies_projector_columns_once(self):
        # the free columns of P form one cells x k complex block (512 x 205,
        # 1.68 MB); fancy indexing and then a C-order copy would hold two
        _, obs = make_obs(0.4, seed=2)
        gli_run(obs, GliConfig(n_iter=1), seed=2)  # caches the system's operators
        block = obs.mask.size * obs.missing_flat_indices().size * 16
        tracemalloc.start()
        try:
            gli_run(obs, GliConfig(n_iter=5), seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * block

    def test_not_converged_when_budget_runs_out(self):
        _, obs = make_obs(0.1, seed=8)
        result = gli_run(obs, GliConfig(n_iter=3), seed=8)
        assert not result.converged
        assert result.iterations_run == 3

    @pytest.mark.parametrize("residual_tol", [float("nan"), -1.0])
    def test_unmeetable_residual_tol_rejected(self, residual_tol):
        # no plateau test passes a NaN or negative tolerance, so such a run
        # would always spend its whole budget
        _, obs = make_obs(0.3, seed=8)
        with pytest.raises(ValueError, match="residual_tol"):
            gli_run(obs, GliConfig(n_iter=50, residual_tol=residual_tol), seed=8)
