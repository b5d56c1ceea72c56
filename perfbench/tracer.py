"""Spans around the package's public functions, recorded from outside it.

``Tracer.installed()`` replaces each function listed in TARGETS by a timing
wrapper, at the module attribute its caller looks the name up in: gli_run
calls ``griffin_lim.consistency_projection``, so that attribute is the one
replaced, and the span is named after the module that defines the function
(``gabor.consistency_projection``). The originals are put back on exit.

A span records its name, start, end and the span it ran inside. Its self
time is its duration minus the durations of the spans directly inside it.
Counts come from the public result objects: ``GliResult.iterations_run``,
``PhaseMatrix.sweeps_run`` and ``.values.shape``, ``LiftedMatrix.stage_log``,
``.converged``, ``.rank_estimate`` and ``.feas_residual``, and
``PliConstraints.n_rows``.

What cannot be seen from outside is not timed: the PSD projection,
constraint evaluation and gradient inside ``pli_solve`` are closures, and
``pci_solve`` does not report how many coordinate updates it skips.
"""

from __future__ import annotations

import importlib
import inspect
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

from stats import failed_frac, median, method_summary, recovered_frac

# (module whose attribute the caller resolves, attribute, span name)
TARGETS = (
    ("phaseinpaint.sweeps", "benchmark_signal", "signals.benchmark_signal"),
    ("phaseinpaint.sweeps", "random_mask", "masks.random_mask"),
    ("phaseinpaint.sweeps", "hole_mask", "masks.hole_mask"),
    ("phaseinpaint.sweeps", "observe", "observe.observe"),
    ("phaseinpaint.sweeps", "rpi_fill", "observe.rpi_fill"),
    ("phaseinpaint.sweeps", "istft", "gabor.istft"),
    ("phaseinpaint.sweeps", "gli_run", "griffin_lim.gli_run"),
    ("phaseinpaint.sweeps", "pli_solve", "phaselift.pli_solve"),
    ("phaseinpaint.sweeps", "extract_signal", "phaselift.extract_signal"),
    ("phaseinpaint.sweeps", "phase_cost_matrix", "phasecut.phase_cost_matrix"),
    ("phaseinpaint.sweeps", "pci_solve", "phasecut.pci_solve"),
    ("phaseinpaint.sweeps", "extract_phases", "phasecut.extract_phases"),
    ("phaseinpaint.sweeps", "pci_signal", "phasecut.pci_signal"),
    ("phaseinpaint.sweeps", "error_db", "metrics.error_db"),
    ("phaseinpaint.griffin_lim", "consistency_projection", "gabor.consistency_projection"),
    ("phaseinpaint.griffin_lim", "clamp", "griffin_lim.clamp"),
    ("phaseinpaint.griffin_lim", "istft", "gabor.istft"),
    ("phaseinpaint.phaselift", "build_constraints", "phaselift.build_constraints"),
)


def _gli_info(args, result):
    return {"iterations": result.iterations_run, "budget_hit": result.iterations_run >= args["cfg"].n_iter}


def _pci_info(args, result):
    return {
        "sweeps": result.sweeps_run,
        "dim": result.values.shape[0],
        "budget_hit": result.sweeps_run >= args["cfg"].max_sweeps and not result.converged,
    }


def _pli_info(args, result):
    cfg = args["cfg"]
    return {
        "stages": len(result.stage_log),
        "polished": len(result.stage_log) > len(cfg.penalty_schedule[: cfg.max_outer]),
        "converged": result.converged,
        "feas_residual": result.feas_residual,
        "rank_estimate": result.rank_estimate,
    }


# Span names whose result objects carry counts; only these pay for binding arguments.
INFO = {
    "griffin_lim.gli_run": _gli_info,
    "phasecut.pci_solve": _pci_info,
    "phaselift.pli_solve": _pli_info,
    "phaselift.build_constraints": lambda args, result: {"rows": result.n_rows},
}


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    start: float
    end: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        spans, stack = self.spans, self._open
        index = len(spans)
        span = Span(name, stack[-1] if stack else -1, 0.0)
        spans.append(span)
        stack.append(index)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            stack.pop()
            if span.parent >= 0:
                spans[span.parent].child_s += span.seconds
        collect = INFO.get(name)
        if collect:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            span.info = collect(bound.arguments, result)
        return result

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, partial(self.call, name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def by_name(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _per_call(spans: list[Span], scale: float) -> float:
    return scale * _mean(s.seconds for s in spans)


def layer_metrics(tracer: Tracer, operators_s: float, overhead_frac: float, solves) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    Layers that run on every workload report time per call; the two mask
    generators count as one layer, since each workload uses one of them.
    phaselift does not run everywhere, so it reports its share of the sweep
    time and counts, which are 0 where it does not run.
    """
    spans = tracer.by_name
    sweeps = spans("sweeps.run")
    sweep_s = sum(s.seconds for s in sweeps)
    instances = len(spans("signals.benchmark_signal"))  # one signal per (point, trial)

    def returned(name):  # calls that raised carry no counts
        return [s for s in spans(name) if s.info]

    gli, pci, pli = returned("griffin_lim.gli_run"), returned("phasecut.pci_solve"), returned("phaselift.pli_solve")
    projections = spans("gabor.consistency_projection")

    def share(name):
        return sum(s.seconds for s in spans(name)) / sweep_s

    def info_median(group, key):
        return median(s.info[key] for s in group) or 0

    def info_frac(group, key):
        return _mean(float(s.info[key]) for s in group)

    return {
        "gabor.operators_s": (operators_s, "s"),
        "gabor.consistency_projection.calls": (len(projections) / instances, "count"),
        "gabor.consistency_projection.us_per_call": (_per_call(projections, 1e6), "us"),
        "gabor.istft.us_per_call": (_per_call(spans("gabor.istft"), 1e6), "us"),
        "griffin_lim.gli_run.s": (median(s.seconds for s in gli), "s"),
        "griffin_lim.gli_run.iterations": (info_median(gli, "iterations"), "count"),
        "griffin_lim.gli_run.budget_hit_frac": (info_frac(gli, "budget_hit"), "ratio"),
        "griffin_lim.gli_run.self_s": (_mean(s.self_s for s in gli), "s"),
        "griffin_lim.clamp.us_per_call": (_per_call(spans("griffin_lim.clamp"), 1e6), "us"),
        "phasecut.pci_solve.s": (median(s.seconds for s in pci), "s"),
        "phasecut.pci_solve.sweeps": (info_median(pci, "sweeps"), "count"),
        "phasecut.pci_solve.ms_per_sweep": (
            1e3 * sum(s.seconds for s in pci) / max(1, sum(s.info["sweeps"] for s in pci)),
            "ms",
        ),
        "phasecut.pci_solve.dim": (info_median(pci, "dim"), "count"),
        "phasecut.pci_solve.budget_hit_frac": (info_frac(pci, "budget_hit"), "ratio"),
        "phasecut.phase_cost_matrix.ms_per_call": (_per_call(spans("phasecut.phase_cost_matrix"), 1e3), "ms"),
        "phasecut.extract_phases.ms_per_call": (_per_call(spans("phasecut.extract_phases"), 1e3), "ms"),
        "phasecut.pci_signal.ms_per_call": (_per_call(spans("phasecut.pci_signal"), 1e3), "ms"),
        "phaselift.pli_solve.share": (share("phaselift.pli_solve"), "ratio"),
        "phaselift.pli_solve.stages": (_mean(s.info["stages"] for s in pli), "count"),
        "phaselift.pli_solve.polish_frac": (info_frac(pli, "polished"), "ratio"),
        "phaselift.pli_solve.converged_frac": (info_frac(pli, "converged"), "ratio"),
        "phaselift.pli_solve.feas_residual": (info_median(pli, "feas_residual"), "ratio"),
        "phaselift.pli_solve.rank_estimate": (info_median(pli, "rank_estimate"), "count"),
        "phaselift.build_constraints.share": (share("phaselift.build_constraints"), "ratio"),
        "phaselift.build_constraints.constraint_rows": (
            info_median(returned("phaselift.build_constraints"), "rows"),
            "count",
        ),
        "phaselift.extract_signal.share": (share("phaselift.extract_signal"), "ratio"),
        "masks.ms_per_call": (_per_call(spans("masks.random_mask", "masks.hole_mask"), 1e3), "ms"),
        "observe.observe.ms_per_call": (_per_call(spans("observe.observe"), 1e3), "ms"),
        "observe.rpi_fill.ms_per_call": (_per_call(spans("observe.rpi_fill"), 1e3), "ms"),
        "signals.benchmark_signal.ms_per_call": (_per_call(spans("signals.benchmark_signal"), 1e3), "ms"),
        "metrics.error_db.ms_per_call": (_per_call(spans("metrics.error_db"), 1e3), "ms"),
        "metrics.gli_e_db": (method_summary(solves, "gli")["e_db"], "dB"),
        "metrics.pci_e_db": (method_summary(solves, "pci")["e_db"], "dB"),
        "metrics.recovered_frac": (recovered_frac(solves), "ratio"),
        "metrics.failed_frac": (failed_frac(solves), "ratio"),
        "sweeps.instances": (instances, "count"),
        "sweeps.self_s": (sum(s.self_s for s in sweeps) / instances, "s"),
        "sweeps.emit.s": (median(s.seconds for s in spans("sweeps.emit")), "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
