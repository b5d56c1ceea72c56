"""Observation model contracts and serialization."""

import numpy as np
import pytest

from phaseinpaint.gabor import benchmark_system, stft
from phaseinpaint.masks import random_mask
from phaseinpaint.observe import (
    Observations,
    load_observations,
    observe,
    rpi_fill,
    save_observations,
)
from phaseinpaint.signals import benchmark_signal


@pytest.fixture(scope="module")
def benchmark_obs():
    sys_ = benchmark_system()
    x = benchmark_signal(seed=1)
    mask = random_mask(32, 16, 0.3, seed=1)
    return x, observe(sys_, x, mask)


class TestObserve:
    def test_magnitudes_match_support_values(self, benchmark_obs):
        _, obs = benchmark_obs
        on = obs.mask == 1
        assert np.allclose(obs.magnitudes[on], np.abs(obs.known[on]), rtol=1e-12)
        assert np.all(obs.magnitudes >= 0)

    def test_counts_at_thirty_percent(self, benchmark_obs):
        _, obs = benchmark_obs
        assert obs.n_missing == 154
        assert obs.n_known == 358

    def test_known_is_zero_off_support(self, benchmark_obs):
        _, obs = benchmark_obs
        assert np.all(obs.known[obs.mask == 0] == 0)

    def test_all_ones_mask_gives_complete_grid(self):
        sys_ = benchmark_system()
        x = benchmark_signal(seed=2)
        obs = observe(sys_, x, np.ones((32, 16), dtype=int))
        assert np.allclose(obs.known, stft(sys_, x.astype(complex)))

    def test_all_zeros_mask_exposes_only_magnitudes(self):
        sys_ = benchmark_system()
        x = benchmark_signal(seed=2)
        obs = observe(sys_, x, np.zeros((32, 16), dtype=int))
        assert np.all(obs.known == 0)
        assert np.all(obs.magnitudes > 0)

    def test_solver_visible_state_is_read_only(self, benchmark_obs):
        _, obs = benchmark_obs
        for arr in (obs.known, obs.magnitudes, obs.mask):
            with pytest.raises(ValueError):
                arr[0, 0] = 0

    def test_shape_mismatch(self):
        sys_ = benchmark_system()
        with pytest.raises(ValueError, match="mask"):
            Observations(sys_, np.zeros((32, 16), dtype=complex), np.ones((16, 32)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_coefficients_rejected(self, benchmark_obs, bad):
        _, obs = benchmark_obs
        coeffs = obs.known.copy()
        coeffs[3, 5] = bad
        with pytest.raises(ValueError, match="coefficients must be finite"):
            Observations(obs.system, coeffs, obs.mask)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_magnitudes_rejected(self, benchmark_obs, bad):
        # a missing cell, where no coefficient cross-checks the magnitude
        _, obs = benchmark_obs
        magnitudes = obs.magnitudes.copy()
        missing = np.argwhere(obs.mask == 0)[0]
        magnitudes[tuple(missing)] = bad
        with pytest.raises(ValueError, match="magnitudes must be finite"):
            Observations(obs.system, obs.known, obs.mask, magnitudes=magnitudes)


class TestRpiFill:
    def test_all_ones_mask_returns_known_exactly(self):
        sys_ = benchmark_system()
        x = benchmark_signal(seed=3)
        obs = observe(sys_, x, np.ones((32, 16), dtype=int))
        assert np.array_equal(rpi_fill(obs, seed=0), obs.known)

    def test_magnitudes_preserved_everywhere(self, benchmark_obs):
        _, obs = benchmark_obs
        filled = rpi_fill(obs, seed=4)
        assert np.allclose(np.abs(filled), obs.magnitudes, rtol=1e-12)

    def test_seeds_differ_only_off_support(self, benchmark_obs):
        _, obs = benchmark_obs
        a = rpi_fill(obs, seed=1)
        b = rpi_fill(obs, seed=2)
        on = obs.mask == 1
        assert np.array_equal(a[on], b[on])
        assert not np.allclose(a[~on], b[~on])


class TestSerialization:
    def test_round_trip(self, benchmark_obs, tmp_path):
        _, obs = benchmark_obs
        save_observations(obs, tmp_path / "obs")
        back = load_observations(tmp_path / "obs")
        assert np.array_equal(back.mask, obs.mask)
        assert np.allclose(back.magnitudes, obs.magnitudes, rtol=1e-15)
        assert np.allclose(back.known, obs.known, rtol=1e-15)
        assert np.array_equal(back.system.window, obs.system.window)
        assert back.system.hop == obs.system.hop

    def test_saved_files_present(self, benchmark_obs, tmp_path):
        _, obs = benchmark_obs
        save_observations(obs, tmp_path / "obs")
        for name in ("b.csv", "r.csv", "mask.csv", "sys.json"):
            assert (tmp_path / "obs" / name).exists()

    def test_b_csv_has_support_rows_only(self, benchmark_obs, tmp_path):
        _, obs = benchmark_obs
        save_observations(obs, tmp_path / "obs")
        lines = (tmp_path / "obs" / "b.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == obs.n_known
