"""The benchmark in perfbench/ can still trace the package's sweep path.

perfbench/tracer.py wraps public functions by module attribute and reads
counts from result objects and config fields. Renaming or removing any of
them breaks the traced pass, so one small sweep runs under the tracer here.
"""

import importlib
from pathlib import Path

from phaseinpaint.sweeps import ExperimentConfig, run_ratio_sweep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_records_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    cfg = ExperimentConfig(ratios=(0.5,), n_trials=1, record_timing=False)
    with tracer.Tracer().installed() as traced:
        rows = run_ratio_sweep(cfg)
    assert sorted(r.method for r in rows) == ["gli", "pci", "pli", "rpi"]
    recorded = {span.name for span in traced.spans}
    # a ratio sweep draws random masks only
    expected = {name for _, _, name in tracer.TARGETS} - {"masks.hole_mask"}
    assert expected <= recorded, sorted(expected - recorded)
    for span in traced.spans:
        if span.name in tracer.INFO:
            assert span.info, span.name
