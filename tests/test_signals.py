"""Test-signal generator contracts."""

import math

import numpy as np
import pytest

from phaseinpaint.gabor import benchmark_system, stft
from phaseinpaint.signals import add_noise_snr, benchmark_signal, dirac, linear_chirp


def analytic_signal(x):
    """Zero out negative frequencies; test-local helper for phase estimates."""
    spec = np.fft.fft(x)
    n = len(x)
    h = np.zeros(n)
    h[0] = 1.0
    h[1 : (n + 1) // 2] = 2.0
    if n % 2 == 0:
        h[n // 2] = 1.0
    return np.fft.ifft(spec * h)


class TestLinearChirp:
    def test_zero_frequency_is_constant_one(self):
        assert np.allclose(linear_chirp(64, 0.0, 0.0), np.ones(64))

    def test_amplitude_bounded(self):
        x = linear_chirp(128, 0.0, 0.8)
        assert np.all(np.abs(x) <= 1.0 + 1e-15)

    def test_instantaneous_frequency_ramp(self):
        # finite differences of the unwrapped analytic phase recover the ramp
        n = 512
        f_start, f_end = 0.1, 0.7
        x = linear_chirp(n, f_start, f_end)
        phase = np.unwrap(np.angle(analytic_signal(x)))
        measured_nyq = np.diff(phase) / np.pi  # cycles/sample * 2
        grid = np.arange(n - 1) + 0.5
        expected = f_start + (f_end - f_start) * grid / (n - 1)
        margin = n // 10
        err = np.abs(measured_nyq - expected)[margin:-margin]
        assert np.max(err) <= 0.02 * f_end


class TestDirac:
    def test_benchmark_impulse(self):
        x = dirac(128, 64)
        assert x[64] == 1.0
        assert np.count_nonzero(x) == 1

    def test_first_sample(self):
        assert np.array_equal(dirac(4, 0), np.array([1.0, 0.0, 0.0, 0.0]))

    def test_unit_norm(self):
        for pos in (0, 31, 127):
            assert np.linalg.norm(dirac(128, pos)) == 1.0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            dirac(128, 128)


class TestAddNoise:
    def test_infinite_snr_returns_signal(self):
        x = np.sin(np.arange(64) * 0.1)
        assert np.array_equal(add_noise_snr(x, math.inf, seed=0), x)

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_impossible_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            add_noise_snr(np.ones(8), snr_db, seed=0)

    def test_snr_is_exact(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(128)
        for snr in (0.0, 10.0, 37.5):
            noisy = add_noise_snr(x, snr, seed=3)
            measured = 10.0 * np.log10(
                np.linalg.norm(x) ** 2 / np.linalg.norm(noisy - x) ** 2
            )
            assert measured == pytest.approx(snr, abs=1e-10)

    def test_deterministic_per_seed(self):
        x = np.ones(32)
        a = add_noise_snr(x, 10.0, seed=5)
        b = add_noise_snr(x, 10.0, seed=5)
        c = add_noise_snr(x, 10.0, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            add_noise_snr(np.zeros(8), 10.0, seed=0)


class TestBenchmarkSignal:
    def test_length(self):
        assert len(benchmark_signal(seed=0)) == 128

    def test_noise_free_signal_is_component_sum(self):
        clean = benchmark_signal(seed=0, snr_db=math.inf)
        expected = (
            linear_chirp(128, 0.0, 0.8)
            + linear_chirp(128, 0.8, 0.6)
            + dirac(128, 64)
        )
        assert np.array_equal(clean, expected)

    def test_deterministic(self):
        assert np.array_equal(benchmark_signal(seed=9), benchmark_signal(seed=9))

    def test_chirp_ridges_dominate_spectrum(self):
        # energy along the two predicted ridges sits well above the median bin
        sys_ = benchmark_system()
        clean = benchmark_signal(seed=0, snr_db=math.inf)
        power = np.abs(stft(sys_, clean.astype(complex))) ** 2
        ridge_power = []
        for t in range(1, sys_.frames - 1):
            center = (t * sys_.hop + sys_.window.size // 2) % sys_.signal_len
            for f0, f1 in ((0.0, 0.8), (0.8, 0.6)):
                f_nyq = f0 + (f1 - f0) * center / (sys_.signal_len - 1)
                bin_idx = int(round(f_nyq * sys_.bins / 2)) % sys_.bins
                ridge_power.append(power[bin_idx, t])
        ratio = np.mean(ridge_power) / np.median(power)
        assert 10.0 * np.log10(ratio) >= 6.0
