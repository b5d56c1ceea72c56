"""Build a circular Gabor system and verify exact analysis/synthesis.

Every system make_gabor_system accepts has a diagonal frame operator, so
the synthesis operator, the pseudo-inverse of the analysis matrix, is the
analysis matrix's adjoint divided by that diagonal, and a round trip
through the time-frequency domain reproduces any signal to machine
precision.
"""

import numpy as np

from phaseinpaint import benchmark_system, error_db
from phaseinpaint.gabor import hann_window, istft, make_gabor_system, stft

sys_ = benchmark_system()
print(f"system: {sys_.bins} bins x {sys_.frames} frames over {sys_.signal_len} samples")

rng = np.random.default_rng(0)
x = rng.standard_normal(sys_.signal_len) + 1j * rng.standard_normal(sys_.signal_len)
coeffs = stft(sys_, x)
x_back = istft(sys_, coeffs)
print(f"round-trip error: {error_db(x, x_back).e_db:.0f} dB")

# the same works for any accepted geometry, such as a shorter window
small = make_gabor_system(hann_window(8), hop=4, bins=16, signal_len=64)
y = rng.standard_normal(64)
print(f"8-sample window round trip: {error_db(y, istft(small, stft(small, y))).e_db:.0f} dB")
