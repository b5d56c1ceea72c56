"""Benchmark harness: missing-ratio and hole-width sweeps over all methods.

Every (sweep point, trial) pair builds one shared observation set from the
benchmark signal, runs the selected reconstruction methods on it, and
records the aligned error in dB. Runs are deterministic given the config:
trial seeds are base_seed + trial index and are shared across methods, so
every method sees the same mask and signal at a given point and trial.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from numbers import Integral, Real
from operator import attrgetter
from pathlib import Path
from time import perf_counter

import numpy as np

from .gabor import benchmark_system, istft
from .griffin_lim import GliConfig, gli_run
from .masks import hole_mask, random_mask
from .metrics import error_db
from .observe import Observations, observe, rpi_fill
from .phasecut import PciConfig, extract_phases, pci_signal, pci_solve, phase_cost_matrix
from .phaselift import CONSTRAINT_MODES, PliConfig, extract_signal, pli_solve
from .signals import benchmark_signal

METHODS = ("gli", "pli", "pci", "rpi")
CSV_HEADER = "sweep_param,method,trial,e_db,seconds,converged,seed"

DEFAULT_RATIOS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_WIDTHS = (1, 3, 5, 7, 9)
_BLOCKS = (("gli", GliConfig), ("pli", PliConfig), ("pci", PciConfig))


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep settings; construction rejects any value a sweep cannot run."""

    sweep: str = "ratio"
    ratios: tuple[float, ...] = DEFAULT_RATIOS
    widths: tuple[int, ...] = DEFAULT_WIDTHS
    fixed_ratio: float = 0.3
    methods: tuple[str, ...] = METHODS
    n_trials: int = 5
    base_seed: int = 1234
    workers: int = 1
    record_timing: bool = True
    pli_points: tuple[float, ...] | None = None  # None = run at every point
    pci_points: tuple[float, ...] | None = None
    gli: GliConfig = GliConfig()
    pli: PliConfig = PliConfig()
    pci: PciConfig = PciConfig()

    def __post_init__(self) -> None:
        if self.sweep not in ("ratio", "hole_width"):
            raise ValueError(f"sweep must be 'ratio' or 'hole_width', got {self.sweep!r}")
        for name, cls in _BLOCKS:
            if not isinstance(getattr(self, name), cls):
                raise ValueError(f"{name} must be a {cls.__name__}, got {getattr(self, name)!r}")
        optional = ("pli_points", "pci_points")
        for name in ("ratios", "widths", "methods", *optional):
            values = getattr(self, name)
            if not (isinstance(values, (tuple, list)) or values is None and name in optional):
                kind = "null or a list" if name in optional else "a list"
                raise ValueError(f"{name} must be {kind}, got {values!r}")
        for name in ("n_trials", "workers", "gli.n_iter", "pci.max_sweeps"):
            _check_int(name, attrgetter(name)(self), 1)
        _check_int("base_seed", self.base_seed, 0)
        system = benchmark_system()
        for w in self.widths:
            _check_int("hole width", w, 1, min(system.bins, system.frames))
        for r in (self.fixed_ratio, *self.ratios):
            _check_real("ratios and fixed_ratio", r, 1.0)
        _check_real("gli.residual_tol", self.gli.residual_tol, math.inf)
        if not isinstance(self.record_timing, bool):
            raise ValueError(f"record_timing must be true or false, got {self.record_timing!r}")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        if not self.methods:
            raise ValueError("at least one method must be selected")
        if self.pli.constraint_mode not in CONSTRAINT_MODES:
            raise ValueError(
                f"pli.constraint_mode must be one of {CONSTRAINT_MODES}, "
                f"got {self.pli.constraint_mode!r}"
            )
        for name in optional:
            for p in getattr(self, name) or ():
                _check_real(f"{name} entries", p, math.inf)
        for name in ("methods", "ratios", "widths"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat, got {list(values)}")


def _check_int(name: str, value, low: int, high: float = math.inf) -> None:
    """Reject anything but a non-bool integer in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not low <= value <= high:
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


def _check_real(name: str, value, high: float) -> None:
    """Reject anything but a finite non-bool real number in [0, high]."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 <= value <= high:
        raise ValueError(f"{name} must lie in [0, {high}], got {value!r}")
    if not value <= sys.float_info.max:  # inf, or an int too large for a float
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ResultRow:
    sweep_param: float
    method: str
    trial: int
    e_db: float
    seconds: float
    converged: bool
    seed: int


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from parsed JSON, rejecting unknown keys."""
    kwargs = _fields_of(ExperimentConfig, data, "unknown config keys")
    for key, cls in _BLOCKS:
        if key in kwargs:
            if not isinstance(kwargs[key], dict):
                raise ValueError(f"config block {key!r} must be an object")
            kwargs[key] = cls(**_fields_of(cls, kwargs[key], f"unknown keys in {key!r} block"))
    return ExperimentConfig(**kwargs)


def _fields_of(cls, data: dict, message: str) -> dict:
    """``data`` with JSON arrays as tuples; a key that is no field of ``cls`` is an error."""
    bad = set(data) - {f.name for f in dataclasses.fields(cls)}
    if bad:
        raise ValueError(f"{message}: {sorted(bad)}")
    return {key: tuple(v) if isinstance(v, list) else v for key, v in data.items()}


def reconstruct(method: str, obs: Observations, trial_seed: int, cfg: ExperimentConfig):
    """Run one method on one observation set; returns (x_hat, converged)."""
    if method == "gli":
        result = gli_run(obs, cfg.gli, seed=trial_seed)
        return result.x_hat, result.converged
    if method == "rpi":
        return istft(obs.system, rpi_fill(obs, seed=trial_seed)), True
    if method == "pli":
        lifted = pli_solve(obs, cfg.pli)
        return extract_signal(lifted, obs), lifted.converged
    if method == "pci":
        gamma = phase_cost_matrix(obs)
        U = pci_solve(gamma, obs, cfg.pci)
        return pci_signal(obs, extract_phases(U)), U.converged
    raise ValueError(f"unknown method {method!r}")


def _methods_at_point(cfg: ExperimentConfig, param: float) -> list[str]:
    selected = []
    for method in cfg.methods:
        points = cfg.pli_points if method == "pli" else cfg.pci_points if method == "pci" else None
        if points is not None and not any(np.isclose(param, p) for p in points):
            continue
        selected.append(method)
    return selected


def _run_point_trial(args) -> list[ResultRow]:
    cfg, param, trial = args
    system = benchmark_system()
    trial_seed = cfg.base_seed + trial
    x = benchmark_signal(seed=trial_seed)
    if cfg.sweep == "ratio":
        mask = random_mask(system.bins, system.frames, param, seed=trial_seed)
    else:
        mask = hole_mask(
            system.bins, system.frames, cfg.fixed_ratio, width=int(param), seed=trial_seed
        )
    obs = observe(system, x, mask)
    rows = []
    for method in _methods_at_point(cfg, param):
        start = perf_counter()
        x_hat, converged = reconstruct(method, obs, trial_seed, cfg)
        seconds = perf_counter() - start if cfg.record_timing else 0.0
        rows.append(
            ResultRow(
                sweep_param=float(param),
                method=method,
                trial=trial,
                e_db=error_db(x, x_hat).e_db,
                seconds=seconds,
                converged=bool(converged),
                seed=trial_seed,
            )
        )
    return rows


def run_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    points = cfg.ratios if cfg.sweep == "ratio" else cfg.widths
    tasks = [(cfg, float(p), trial) for p in points for trial in range(cfg.n_trials)]
    rows: list[ResultRow] = []
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            for chunk in pool.map(_run_point_trial, tasks):
                rows.extend(chunk)
    else:
        for task in tasks:
            rows.extend(_run_point_trial(task))
    rows.sort(key=lambda r: (r.sweep_param, r.method, r.trial))
    return rows


def run_ratio_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    """Error vs. fraction of uniformly missing phases."""
    return run_sweep(dataclasses.replace(cfg, sweep="ratio"))


def run_hole_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    """Error vs. hole width at a fixed missing ratio."""
    return run_sweep(dataclasses.replace(cfg, sweep="hole_width"))


def summarize(rows: list[ResultRow]) -> list[tuple]:
    """(sweep_param, method, median, min, max, n) per point and method."""
    keys = sorted({(r.sweep_param, r.method) for r in rows})
    out = []
    for param, method in keys:
        vals = [r.e_db for r in rows if r.sweep_param == param and r.method == method]
        out.append(
            (param, method, float(np.median(vals)), min(vals), max(vals), len(vals))
        )
    return out


def emit(rows: list[ResultRow], output_dir, cfg: ExperimentConfig) -> dict:
    """Write results.csv, summary.csv, curves.csv and config.json.

    Output is byte-deterministic for a fixed config as long as timing
    recording is disabled (the seconds column is the only wall-clock value).
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: output_dir / f"{name}.csv" for name in ("results", "summary", "curves")}
    paths["config"] = output_dir / "config.json"
    _write_csv(paths["results"], CSV_HEADER, map(dataclasses.astuple, rows))
    summary = summarize(rows)
    _write_csv(
        paths["summary"], "sweep_param,method,median_e_db,min_e_db,max_e_db,n_trials", summary
    )
    methods = sorted({r.method for r in rows})
    medians = {(param, method): med for param, method, med, *_ in summary}
    curves = [
        [p, *(medians.get((p, m), "") for m in methods)] for p in sorted({r.sweep_param for r in rows})
    ]
    _write_csv(paths["curves"], ",".join(["sweep_param", *methods]), curves)
    paths["config"].write_text(json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n")
    return paths


def _write_csv(path: Path, header: str, rows) -> None:
    """One line per row: floats as repr(float(v)), every other cell as str(v)."""
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
