"""Inspect the benchmark signal: two crossing chirps, an impulse, noise.

Prints a coarse text spectrogram so the two frequency ridges and the
vertical impulse line are visible without any plotting dependency.
"""

import numpy as np

from phaseinpaint import benchmark_signal, benchmark_system
from phaseinpaint.gabor import stft

sys_ = benchmark_system()
x = benchmark_signal(seed=0)
print(f"signal: {len(x)} samples, norm {np.linalg.norm(x):.2f}")

power = np.abs(stft(sys_, x.astype(complex))) ** 2
levels = " .:-=+*#%@"
lo, hi = np.percentile(power, 5), power.max()
scaled = np.clip((np.log10(power + 1e-12) - np.log10(lo)) / (np.log10(hi) - np.log10(lo)), 0, 1)
print("spectrogram (bin 31 top, frame 0 left):")
for row in scaled[::-1]:
    print("".join(levels[int(v * (len(levels) - 1))] for v in row))
