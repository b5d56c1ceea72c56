"""Tests of the benchmark's own metric code on synthetic rows.

Run from the repository root: python3 -m pytest -q perfbench/test_stats.py
"""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from stats import Solve, failed_frac, method_summary, recovered_frac, solves_from_chunk, tail
from tracer import Span, Tracer, layer_metrics


def row(point, method, e_db, seconds=0.01, trial=0):
    return SimpleNamespace(sweep_param=point, method=method, trial=trial, e_db=e_db, seconds=seconds)


def solve(method, e_db, seconds=0.01):
    return Solve(0.3, method, 0, e_db, seconds)


@pytest.mark.parametrize(
    "n, expected",
    [
        (10, None),  # nothing can have ten samples beyond it
        (39, None),  # p75 of 39 leaves 9 above
        (40, (75.0, 30)),
        (99, (75.0, 75)),  # p90 of 99 leaves 9 above
        (100, (90.0, 90)),
        (200, (95.0, 190)),
        (1000, (99.0, 990)),
        (10000, (99.9, 9990)),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail(range(1, n + 1)) == expected


def test_tail_counts_only_samples_strictly_above():
    # 30 samples tied at the top: nothing lies strictly above p90 or p75
    assert tail([1.0] * 20 + [5.0] * 30) is None
    assert tail([]) is None


def test_recovered_threshold_is_inclusive_at_minus_50_db():
    solves = [solve("gli", -50.0), solve("gli", -49.999), solve("pci", -120.0), solve("pli", -10.0)]
    assert recovered_frac(solves) == pytest.approx(2 / 4)


def test_recovered_ignores_random_baseline_and_counts_failures_as_missed():
    solves = [solve("gli", -200.0), solve("pci", math.nan), solve("rpi", -300.0)]
    assert recovered_frac(solves) == pytest.approx(1 / 2)
    assert recovered_frac([solve("rpi", -300.0)]) is None


def test_failed_frac_counts_nan_and_infinite_errors():
    solves = [solve("gli", -80.0), solve("pci", math.nan), solve("pli", math.inf), solve("rpi", -3.0)]
    assert failed_frac(solves) == pytest.approx(2 / 4)
    assert failed_frac([]) == 0.0


def test_aborted_sweep_counts_every_expected_solve_as_failed():
    expected = [(0.5, "gli"), (0.5, "pci"), (0.6, "gli"), (0.6, "pci")]
    done = solves_from_chunk(0, expected[:2], [row(0.5, "gli", -90.0), row(0.5, "pci", -70.0)])
    aborted = solves_from_chunk(1, expected, None)
    assert [s.failed for s in aborted] == [True] * 4
    assert {(s.point, s.method, s.trial) for s in aborted} == {(p, m, 1) for p, m in expected}
    assert failed_frac(done + aborted) == pytest.approx(4 / 6)


def test_method_summary_skips_failed_solves():
    solves = [solve("gli", -100.0, 0.2), solve("gli", -60.0, 0.4), solve("gli", math.nan, math.nan)]
    summary = method_summary(solves, "gli")
    assert summary["n"] == 2
    assert summary["solve_s"] == pytest.approx(0.3)
    assert summary["e_db"] == pytest.approx(-80.0)
    assert summary["tail"] is None


def test_self_time_subtracts_direct_children():
    tracer = Tracer()

    def inner():
        return 1

    def outer():
        return tracer.call("inner", inner) + tracer.call("inner", inner)

    tracer.call("outer", outer)
    outer_span = tracer.by_name("outer")[0]
    inner_spans = tracer.by_name("inner")
    assert [s.parent for s in inner_spans] == [0, 0]
    assert outer_span.self_s == pytest.approx(outer_span.seconds - sum(s.seconds for s in inner_spans))


def test_layer_metrics_match_the_per_layer_list():
    tracer = Tracer()
    tracer.spans = [
        Span("sweeps.run", -1, 0.0, 1.0, child_s=0.9),
        Span("signals.benchmark_signal", 0, 0.0, 0.1),
        Span("griffin_lim.gli_run", 0, 0.1, 0.4, info={"iterations": 50, "budget_hit": False}),
        Span("phasecut.pci_solve", 0, 0.4, 0.9, info={"sweeps": 10, "dim": 100, "budget_hit": False}),
    ]
    metrics = layer_metrics(tracer, 0.05, 0.1, [solve("gli", -200.0), solve("pci", -80.0)])
    listed = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert list(metrics) == [m["name"] for m in listed]
    assert [unit for _, unit in metrics.values()] == [m["unit"] for m in listed]
    assert metrics["phasecut.pci_solve.ms_per_sweep"][0] == pytest.approx(50.0)
    assert metrics["phaselift.pli_solve.share"][0] == 0.0


def test_benchmark_json_lists_the_workloads_run_py_accepts():
    from run import WORKLOAD_NAMES

    listed = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["workloads"]
    assert tuple(w["name"] for w in listed) == WORKLOAD_NAMES
