"""Alternating-projection solver contracts."""

import tracemalloc

import numpy as np
import pytest

from phaseinpaint.gabor import (
    benchmark_system,
    consistency_projection,
    flatten_grid,
    frame_analysis,
    istft,
    synthesis_matrix,
    unflatten_grid,
)
from phaseinpaint import griffin_lim
from phaseinpaint.griffin_lim import GliConfig, clamp, gli_run
from phaseinpaint.masks import hole_mask, random_mask
from phaseinpaint.metrics import error_db
from phaseinpaint.observe import observe
from phaseinpaint.signals import benchmark_signal

SHAPE = (32, 16)


def unit(z):
    """z / |z| with each part divided by |z|, and 1 at a zero entry."""
    r = np.abs(np.where(z == 0, 1.0, z))
    out = np.empty(z.shape, dtype=complex)
    out.real, out.imag = z.real / r, z.imag / r
    out[z == 0] = 1.0
    return out


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
        off = obs.mask == 0
        for re_, im in ((0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)):
            z = np.full(SHAPE, complex(re_, im))
            out = clamp(z, obs)
            # phase 0 by convention, the signs of the zeros included
            assert out[off].tobytes() == obs.magnitudes[off].astype(complex).tobytes()

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
        zeros = [complex(0.0, 0.0), complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)]
        for cell, zero in zip(off[:4], zeros):
            z[tuple(cell)] = zero
        z[tuple(on[0])] = complex(-0.0, -0.0)
        known = np.exp(1j * np.angle(obs.known))
        formula = obs.magnitudes * np.where(obs.mask == 1, known, unit(z))
        new = clamp(z, obs)
        assert new.tobytes() == formula.tobytes()  # signs of zeros included
        for cell in off[:4]:
            assert new[tuple(cell)] == obs.magnitudes[tuple(cell)]


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

    def test_iterates_stay_feasible(self, monkeypatch):
        # re-run the recursion manually and compare against gli_run's output
        monkeypatch.setattr(griffin_lim, "_RESIDUAL_TOL", 0.0)
        x, obs = make_obs(0.5, seed=6)
        cfg = GliConfig(n_iter=40)
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
    def test_matches_full_projection_recursion(self, width, monkeypatch):
        # gli projects only the missing cells per iteration; the known
        # cells' share is added once. Compare with projecting the whole grid.
        monkeypatch.setattr(griffin_lim, "_RESIDUAL_TOL", 0.0)
        _, obs = make_obs(0.3, seed=9, width=width)
        result = gli_run(obs, GliConfig(n_iter=40), seed=9)
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

    @pytest.mark.parametrize("kind", ["random", "hole", "all_missing", "all_known", "subnormal"])
    def test_free_cell_loop_matches_clamp_bit_for_bit(self, kind, monkeypatch):
        # gli updates only the free cells in place, through the free columns
        # of the synthesis matrix and the per-frame analysis; replaying clamp
        # on the whole grid with those two products must give the same bits,
        # the residual sqrt(vdot(d, d)) over d = y - z in cell order included.
        # At 2^-1072 some free cells' projections underflow to exactly zero
        # while their magnitudes do not, so the loop's zero-cell branch runs.
        sys_ = benchmark_system()
        x = benchmark_signal(seed=10) * (2.0**-1072 if kind == "subnormal" else 1.0)
        mask = {
            "random": random_mask(*SHAPE, 0.3, seed=10),
            "hole": hole_mask(*SHAPE, 0.3, 7, seed=10),
            "all_missing": np.zeros(SHAPE, dtype=int),
            "all_known": np.ones(SHAPE, dtype=int),
            "subnormal": random_mask(*SHAPE, 0.3, seed=10),
        }[kind]
        obs = observe(sys_, x, mask)
        monkeypatch.setattr(griffin_lim, "_RESIDUAL_TOL", 0.0)
        result = gli_run(obs, GliConfig(n_iter=40), seed=10)
        rng = np.random.default_rng([10, 0x611A])
        phi0 = rng.uniform(0.0, 2.0 * np.pi, size=SHAPE)
        y = obs.magnitudes * np.exp(
            1j * (obs.mask * np.angle(obs.known) + (1 - obs.mask) * phi0)
        )
        free = obs.missing_flat_indices()
        z_known = consistency_projection(sys_, np.where(obs.mask == 1, y, 0))
        s_free = np.ascontiguousarray(synthesis_matrix(sys_)[:, free])
        trace, zero_cells = [], 0
        for _ in range(40):
            z = z_known + unflatten_grid(sys_, frame_analysis(sys_, s_free @ flatten_grid(y)[free]))
            zero_cells += np.count_nonzero((z == 0) & (obs.magnitudes > 0) & (obs.mask == 0))
            y = clamp(z, obs)
            d = flatten_grid(y - z)
            trace.append(np.sqrt(np.vdot(d, d).real))
        assert (zero_cells > 0) == (kind == "subnormal")
        assert result.iterations_run == 40
        assert np.array_equal(result.residual_trace, trace)
        assert np.array_equal(result.x_hat, istft(sys_, y))

    def test_all_zero_observations(self):
        # every projection is exactly zero: each free cell's 0 / 0 must take
        # its (zero) magnitude, so nothing NaN leaks and the plateau fires
        sys_ = benchmark_system()
        obs = observe(sys_, np.zeros(128), random_mask(*SHAPE, 0.5, seed=0))
        result = gli_run(obs, seed=0)
        assert result.converged
        assert result.iterations_run == 2
        assert np.all(np.isfinite(result.residual_trace))
        assert np.array_equal(result.x_hat, np.zeros(128))

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

    def test_matches_classic_griffin_lim_without_known_phases(self, monkeypatch):
        # with an all-zeros mask the recursion degenerates to plain
        # magnitude-only alternating projections, bit for bit
        monkeypatch.setattr(griffin_lim, "_RESIDUAL_TOL", 0.0)
        sys_ = benchmark_system()
        x = benchmark_signal(seed=7)
        obs = observe(sys_, x, np.zeros(SHAPE, dtype=int))
        cfg = GliConfig(n_iter=50)
        result = gli_run(obs, cfg, seed=7)

        rng = np.random.default_rng([7, 0x611A])
        phi0 = rng.uniform(0.0, 2.0 * np.pi, size=SHAPE)
        y = obs.magnitudes * np.exp(1j * phi0)
        for _ in range(50):
            z = consistency_projection(sys_, y)
            y = obs.magnitudes * unit(z)
        classic = istft(sys_, y)
        assert np.array_equal(result.x_hat, classic)

    def test_early_stop_on_residual_plateau(self):
        x, obs = make_obs(0.1, seed=8)
        result = gli_run(obs, GliConfig(n_iter=2000), seed=8)
        assert result.iterations_run < 2000
        assert error_db(x, result.x_hat).e_db <= -200.0

    def test_converged_when_plateau_stops_the_loop(self):
        _, obs = make_obs(0.1, seed=8)
        result = gli_run(obs, GliConfig(n_iter=2000), seed=8)
        assert result.converged
        assert result.iterations_run < 2000

    def test_copies_projector_columns_once(self):
        # the free columns of the synthesis matrix form one n x k complex
        # block (128 x 205, 0.42 MB); fancy indexing and then a C-order copy
        # would hold two
        _, obs = make_obs(0.4, seed=2)
        gli_run(obs, GliConfig(n_iter=1), seed=2)  # caches the system's operators
        block = obs.system.signal_len * obs.missing_flat_indices().size * 16
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
