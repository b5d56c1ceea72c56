"""Acceptance gate: one test per exit criterion, each printing a verdict line.

The expensive SDP points run through the sweep harness itself, so these
tests double as end-to-end exercises of the public pipeline. Medians and
recovery counts are taken over shared-mask trials: every method sees exactly
the same observation set at a given sweep point and trial.

A trial counts as recovered at or below -50 dB (README's "essentially perfect
recovery"). Errors below that threshold reflect where each solver stops (its
feasibility or strict-feasibility tolerance, or round-off), so the high-ratio
ordering (criterion 4) compares methods by the trials they recover, trial by
trial, and not by how far below the threshold their medians fall.
"""

import json
import subprocess
import sys
from time import perf_counter

import numpy as np
import pytest
from conftest import pli_solve_all_pairs

from phaseinpaint.gabor import benchmark_system, flatten_grid, istft, stft
from phaseinpaint.gabor import hann_window, make_gabor_system
from phaseinpaint.griffin_lim import GliConfig, gli_run
from phaseinpaint.masks import random_mask
from phaseinpaint.metrics import error_db
from phaseinpaint.observe import observe
from phaseinpaint.phasecut import PciConfig, pci_solve, phase_cost_matrix, reduce_known_block
from phaseinpaint.phaselift import extract_signal, pli_solve
from phaseinpaint.signals import benchmark_signal
from phaseinpaint.sweeps import config_from_dict, emit, run_hole_sweep, run_ratio_sweep


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _medians(rows):
    out = {}
    for r in rows:
        out.setdefault((r.sweep_param, r.method), []).append(r.e_db)
    return {k: float(np.median(v)) for k, v in out.items()}


def _recovered_trials(rows):
    out = {}
    for r in rows:
        trials = out.setdefault((r.sweep_param, r.method), set())
        if r.e_db <= -50.0:
            trials.add(r.trial)
    return out


def test_criterion_01_frame_exactness():
    sys_ = benchmark_system()
    rng = np.random.default_rng(0)
    # The first round trip builds and caches the operator matrices; the bound
    # below times the cached path only, which a lost cache still fails.
    istft(sys_, stft(sys_, np.zeros(128, dtype=complex)))
    start = perf_counter()
    worst = -np.inf
    for _ in range(20):
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        worst = max(worst, error_db(x, istft(sys_, stft(sys_, x))).e_db)
    elapsed = perf_counter() - start
    ok = worst <= -200.0 and elapsed < 1.0
    _verdict(1, "frame exactness", ok, f"worst={worst:.1f} dB, {elapsed:.2f} s")


def test_criterion_02_zero_missing_sanity():
    cfg = config_from_dict(
        dict(methods=("gli", "pli", "pci", "rpi"), ratios=(0.0,), n_trials=5)
    )
    rows = run_ratio_sweep(cfg)
    worst = max(r.e_db for r in rows)
    ok = worst <= -200.0 and len(rows) == 20
    _verdict(2, "zero-missing sanity", ok, f"worst across 4 methods x 5 trials = {worst:.1f} dB")


def test_criterion_03_low_ratio_regime():
    cfg = config_from_dict(
        dict(
            methods=("gli", "pci"),
            ratios=(0.1, 0.2, 0.3, 0.4),
            pci_points=(0.1, 0.2, 0.3),
            n_trials=5,
        )
    )
    med = _medians(run_ratio_sweep(cfg))
    checks = []
    for ratio in (0.1, 0.2, 0.3):
        checks.append(med[(ratio, "gli")] <= -50.0)
        checks.append(med[(ratio, "pci")] <= -50.0)
    checks.append(med[(0.4, "gli")] <= -50.0)
    detail = ", ".join(f"{m}@{r}={med[(r, m)]:.0f}" for r, m in sorted(med))
    _verdict(3, "low-ratio recovery", all(checks), detail)


@pytest.mark.slow
def test_criterion_04_high_ratio_regime(tmp_path):
    cfg = config_from_dict(
        dict(methods=("gli", "pli", "pci"), ratios=(0.5, 0.6), n_trials=5)
    )
    rows = run_ratio_sweep(cfg)
    emit(rows, tmp_path / "high_ratio", cfg)  # records the trial count used
    med = _medians(rows)
    solved = _recovered_trials(rows)
    checks = []
    details = []
    for ratio in (0.5, 0.6):
        gli = solved[(ratio, "gli")]
        for m in ("pli", "pci"):
            # Proper subset: the SDP method recovers every trial gli recovers,
            # and strictly more trials in total.
            checks.append(med[(ratio, m)] <= -50.0 and gli < solved[(ratio, m)])
        counts = " ".join(f"{m} {len(solved[(ratio, m)])}/{cfg.n_trials}" for m in cfg.methods)
        medians = " ".join(f"{m}={med[(ratio, m)]:.0f}" for m in cfg.methods)
        details.append(f"ratio {ratio}: recovered {counts}; median {medians}")
    _verdict(4, "high-ratio ordering", all(checks), "; ".join(details))


@pytest.mark.slow
def test_criterion_05_hole_width_regime():
    cfg = config_from_dict(
        dict(
            methods=("gli", "pli", "pci"),
            widths=(1, 3, 5, 7, 9),
            pli_points=(3, 5, 7, 9),
            pci_points=(3, 5, 7, 9),
            n_trials=5,
        )
    )
    med = _medians(run_hole_sweep(cfg))
    checks = [med[(1.0, "gli")] <= -50.0]
    details = [f"width 1: gli={med[(1.0, 'gli')]:.0f}"]
    for width in (3.0, 5.0, 7.0, 9.0):
        gli, pli, pci = med[(width, "gli")], med[(width, "pli")], med[(width, "pci")]
        checks.append(pli <= gli and pci <= gli)
        details.append(f"w{width:.0f}: gli={gli:.0f} pli={pli:.0f} pci={pci:.0f}")
    _verdict(5, "hole-width ordering", all(checks), "; ".join(details))


def test_criterion_06_phase_cost_matrix_correctness():
    sys_ = benchmark_system()
    ok = True
    worst_cost = 0.0
    for seed in range(10):
        x = benchmark_signal(seed=seed)
        mask = random_mask(32, 16, 0.1 + 0.08 * seed, seed=seed)
        obs = observe(sys_, x, mask)
        red = reduce_known_block(obs)
        reduced = phase_cost_matrix(obs)
        norm = float(np.linalg.norm(reduced, 2))
        ok &= bool(np.allclose(reduced, reduced.conj().T, atol=1e-10 * max(norm, 1.0)))
        ok &= bool(np.linalg.eigvalsh(reduced)[0] >= -1e-8 * norm)
        coeffs = flatten_grid(stft(sys_, x.astype(complex)))
        mags = np.abs(coeffs)
        u_star = np.ones(coeffs.size, dtype=complex)
        nz = mags > 0
        u_star[nz] = coeffs[nz] / mags[nz]
        # the truth in reduced coordinates: free cells, then the anchor at 1
        u_star = np.concatenate([u_star[red.free_cells], [1.0] if red.has_anchor else []])
        cost = float(np.vdot(u_star, reduced @ u_star).real)
        worst_cost = max(worst_cost, cost / (norm * sys_.n_cells))
        ok &= cost <= 1e-8 * norm * sys_.n_cells
    _verdict(6, "phase-cost correctness", ok, f"worst normalized truth cost {worst_cost:.1e}")


def test_criterion_07_gli_monotonicity():
    sys_ = benchmark_system()
    worst_jump = -np.inf
    for seed in range(20):
        ratio = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)[seed % 8]
        x = benchmark_signal(seed=seed)
        obs = observe(sys_, x, random_mask(32, 16, ratio, seed=seed))
        result = gli_run(obs, GliConfig(n_iter=300), seed=seed)
        if result.residual_trace.size >= 2:
            worst_jump = max(worst_jump, float(np.max(np.diff(result.residual_trace))))
    ok = worst_jump <= 1e-10
    _verdict(7, "alternating-projection monotonicity", ok, f"worst residual jump {worst_jump:.1e}")


def test_criterion_08_small_instance_oracle(monkeypatch):
    start = perf_counter()
    sys_ = make_gabor_system(hann_window(4), hop=2, bins=4, signal_len=8)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    obs = observe(sys_, x, random_mask(4, 4, 0.2, seed=11))
    # the all-pairs rows are the tests' reference for pli's anchored rows
    full = extract_signal(pli_solve_all_pairs(obs, monkeypatch), obs)
    anchored = extract_signal(pli_solve(obs), obs)
    e_full = error_db(x, full).e_db
    e_agree = error_db(full, anchored).e_db
    elapsed = perf_counter() - start
    ok = e_full <= -40.0 and e_agree <= -60.0 and elapsed < 60.0
    _verdict(
        8,
        "small-instance lifted oracle",
        ok,
        f"full={e_full:.0f} dB, mode agreement={e_agree:.0f} dB, {elapsed:.1f} s",
    )


def test_criterion_09_bcd_contract(monkeypatch):
    # the ten ratio-0.2 to 0.6 solves stop at their start; the ratio-0.8
    # ones run the descent for the whole 80-iteration budget
    monkeypatch.setattr(PciConfig, "max_sweeps", 80)
    sys_ = benchmark_system()
    ok = True
    worst_jump = -np.inf
    worst_eig = 0.0
    solves = [((0.2, 0.3, 0.4, 0.5, 0.6)[k % 5], 100 + k) for k in range(10)]
    for ratio, seed in solves + [(0.8, seed) for seed in (100, 101, 102)]:
        x = benchmark_signal(seed=seed)
        obs = observe(sys_, x, random_mask(32, 16, ratio, seed=seed))
        U = pci_solve(phase_cost_matrix(obs), obs)
        trace = U.objective_trace
        if trace.size >= 2:
            worst_jump = max(worst_jump, float(np.max(np.diff(trace))))
        ok &= bool(np.array_equal(np.diag(U.values), np.ones(U.reduction.dim, dtype=complex)))
        norm = float(np.linalg.norm(U.values, 2))
        min_eig = float(np.linalg.eigvalsh(U.values)[0])
        worst_eig = min(worst_eig, min_eig / norm)
        ok &= min_eig >= -1e-6 * norm
    ok &= bool(np.isfinite(worst_jump)) and worst_jump <= 1e-10
    _verdict(
        9,
        "coordinate-descent contract",
        ok,
        f"worst objective jump {worst_jump:.1e}, worst min-eig/norm {worst_eig:.1e}",
    )


def test_criterion_10_sweep_determinism(tmp_path):
    # besides gli and rpi on ratios, the configs run gli on hole masks, pci's
    # descent (widths 7 and 9) and its exit at the start (ratios 0.1 and 0.6),
    # and pli's trial that fits (ratio 0.5) and its fallback (width 9)
    configs = [
        ("ratio", dict(methods=["gli", "rpi"], ratios=[0.0, 0.2, 0.4], n_trials=3)),
        (
            "hole",
            dict(methods=["gli", "pci", "rpi"], widths=[3, 7, 9], pci_points=[7, 9], n_trials=1),
        ),
        ("ratio", dict(methods=["pci"], ratios=[0.1, 0.6])),
        ("ratio", dict(methods=["pli"], ratios=[0.5], n_trials=1)),
        ("hole", dict(methods=["pli"], widths=[9], n_trials=1)),
    ]
    differing, compared = [], 0
    for index, (kind, cfg) in enumerate(configs):
        cfg_path = tmp_path / f"cfg{index}.json"
        cfg_path.write_text(json.dumps({**cfg, "record_timing": False}))
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{run}{index}"
            argv = ["sweep", "--kind", kind, "--config", str(cfg_path), "--out", str(out)]
            proc = subprocess.run(
                [sys.executable, "-m", "phaseinpaint.cli", *argv], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "results.csv").read_bytes())
        if outputs[0] != outputs[1] or outputs[0].count(b"\n") < 2:
            differing.append(index)
        compared += len(outputs[0])
    detail = f"{len(configs)} configs, {compared} bytes compared, configs differing: {differing}"
    _verdict(10, "byte-identical reruns", not differing, detail)
