"""Run a miniature benchmark sweep and read back the emitted tables.

The full sweeps live behind the `phase-inpaint sweep` command line; this
script drives the same machinery in-process with a small configuration.
"""

import tempfile
from pathlib import Path

from phaseinpaint.sweeps import config_from_dict, emit, run_ratio_sweep

cfg = config_from_dict(
    dict(
        methods=("gli", "rpi"),
        ratios=(0.0, 0.2, 0.4, 0.6),
        n_trials=3,
        record_timing=False,
    )
)
rows = run_ratio_sweep(cfg)

out = Path(tempfile.mkdtemp(prefix="phase_inpaint_demo_"))
paths = emit(rows, out, cfg)
print(f"wrote {len(rows)} rows to {paths['results']}")
print()
print("median error (dB) per point:")
print((out / "curves.csv").read_text())
