"""Benchmark of phase-inpaint's sweep path, end to end and layer by layer.

Drives the package the way ``phase-inpaint sweep`` does: ``run_ratio_sweep``
or ``run_hole_sweep`` with ``workers=1``, then ``emit``. A run repeats
one-trial sweeps of a workload (see workloads.py) until ``--seconds`` are
used up, and reports:

* ``--trace 0``: the end-to-end metrics, measured without wrappers;
* ``--trace 1``: an untraced pass for half the time, then the same trials
  again with timing wrappers installed around every module's public
  functions (tracer.py). It reports per-layer metrics and the tracing
  overhead, and fails unless every solve's e_db is bit-identical in both
  passes;
* no ``--trace``: both, with the untraced pass taking the full time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit and sample count, and the environment.
Each run also writes its solves and metrics to perfbench/out/.

Usage (from the repository root):
    python3 perfbench/run.py [--workload uniform-low|uniform-high|holes|all]
                             [--seed 1234] [--seconds 10] [--trace 0|1]

Exit status: 0 when every check passes, 1 when a check fails, 2 when the
package sources are missing or the arguments are invalid. Out of scope: the
``phase-inpaint`` CLI (``sweep`` is the same two calls, and process start-up
is in ``setup_s``) and ``workers > 1`` (the load stays in one process).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from setup_probe import build_operators
from stats import failed_frac, median, method_summary, recovered_frac, solves_from_chunk
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("uniform-low", "uniform-high", "holes")
SETUP_RUNS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Two BLAS threads ran faster than one at 2 cores; never more threads than
# cores. The count changes e_db only by rounding, so both passes of a traced
# run share it.
BLAS_THREADS = 2


@dataclass
class Pass:
    """What one pass over a workload's trials produced."""

    solves: list = field(default_factory=list)
    trial_seconds: list = field(default_factory=list)
    instances: int = 0
    problems: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.trial_seconds)

    def e_db_bits(self) -> dict:
        return {(s.point, s.method, s.trial): repr(s.e_db) for s in self.solves}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_blas_threads() -> int:
    """Fix the BLAS thread count before numpy loads; children inherit it."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # older numpy: show_config() only prints, it takes no mode
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "seed": seed,
        "commit": git_commit(),
    }


def measure_setup() -> tuple[float, float]:
    """Median (setup_s, operators_s) over fresh processes."""
    totals, operators = [], []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        sample = json.loads(out.stdout.splitlines()[-1])
        totals.append(sample["import_s"] + sample["operators_s"])
        operators.append(sample["operators_s"])
    return median(totals), median(operators)


def run_trials(workload, seed: int, out_dir: Path, *, seconds=None, count=None, tracer=None) -> Pass:
    """Run one-trial sweeps until ``seconds`` are used up or ``count`` trials ran.

    At least one trial runs. A trial is not started when the mean trial time
    so far says it would end past ``seconds``. A sweep that raises is
    reported and its solves count as failed; the pass goes on.
    """
    from phaseinpaint.sweeps import emit

    expected = workload.expected()
    result = Pass()
    trial = 0
    while True:
        cfg = workload.config(seed, trial)
        start = perf_counter()
        try:
            if tracer is None:
                rows = workload.run(cfg)
                emit(rows, out_dir, cfg)
            else:
                rows = tracer.call("sweeps.run", workload.run, cfg)
                tracer.call("sweeps.emit", emit, rows, out_dir, cfg)
        except Exception:
            traceback.print_exc()
            rows = None
        result.trial_seconds.append(perf_counter() - start)
        result.solves += solves_from_chunk(trial, expected, rows)
        if rows is not None:
            result.instances += len(workload.points)
            result.problems += check_rows(rows, expected, out_dir)
        trial += 1
        if count is not None:
            if trial >= count:
                return result
        elif result.seconds * (1 + 1 / trial) > seconds:
            return result


def check_rows(rows, expected, out_dir: Path) -> list[str]:
    """Problems with one trial's output: missing solves, an error outside
    [-300 dB, inf) that is not NaN, or results.csv not matching the rows."""
    problems = []
    if sorted((float(r.sweep_param), r.method) for r in rows) != sorted(expected):
        problems.append(f"sweep returned {len(rows)} rows, not the {len(expected)} expected")
    for r in rows:
        if r.e_db < -300.0:
            problems.append(f"e_db {r.e_db!r} below the -300 dB floor for {r.method} at {r.sweep_param}")
    lines = (out_dir / "results.csv").read_text().splitlines()[1:]
    written = [tuple(line.split(",")[:4]) for line in lines]
    wanted = [(repr(float(r.sweep_param)), r.method, str(r.trial), repr(float(r.e_db))) for r in rows]
    if written != wanted:
        problems.append("results.csv does not match the rows the sweep returned")
    return problems


def end_to_end(untraced: Pass, setup_s: float, peak_rss_mb: float) -> dict:
    """{name: (value, unit, note)} for every end-to-end metric."""
    metrics = {
        "instances_per_s": (untraced.instances / untraced.seconds, "1/s", f"n={untraced.instances} instances"),
    }
    for method in ("gli", "pci", "pli"):
        summary = method_summary(untraced.solves, method)
        if summary["n"] == 0:
            continue
        n = f"n={summary['n']}"
        metrics[f"{method}_solve_s"] = (summary["solve_s"], "s", f"median, {n}")
        if summary["tail"] is not None:
            p, value = summary["tail"]
            metrics[f"{method}_solve_s_tail"] = (value, "s", f"p{p:g}, {n}")
        metrics[f"{method}_e_db"] = (summary["e_db"], "dB", f"median, {n}")
    metrics["recovered_frac"] = (recovered_frac(untraced.solves), "ratio", "gli/pci/pli solves at <= -50 dB")
    metrics["failed_frac"] = (failed_frac(untraced.solves), "ratio", f"n={len(untraced.solves)} solves")
    metrics["setup_s"] = (setup_s, "s", f"median of {SETUP_RUNS} fresh processes")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB", "ru_maxrss")
    return metrics


def print_metrics(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, (value, unit, *note) in metrics.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:48s} {shown:>14s} {unit:6s} {note[0] if note else ''}")


def bench_workload(name: str, seed: int, seconds: float, trace, setup, env: dict) -> dict:
    """Measure one workload; returns its JSON result object."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    untraced = run_trials(workload, seed, out_dir, seconds=seconds / 2 if trace == 1 else seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = list(untraced.problems)
    metrics = {}
    print(f"# {name}: seed {seed}, {len(untraced.trial_seconds)} trials, {len(untraced.solves)} solves")
    if trace != 1:
        e2e = end_to_end(untraced, setup[0], peak_rss_mb)
        print_metrics(f"{name} end to end (untraced)", e2e)
        metrics.update({k: e2e[k] for k in ("instances_per_s", "setup_s", "peak_rss_mb")})
    if trace != 0:
        tracer = Tracer()
        with tracer.installed():
            traced = run_trials(workload, seed, out_dir, count=len(untraced.trial_seconds), tracer=tracer)
        problems += traced.problems
        if traced.e_db_bits() != untraced.e_db_bits():
            problems.append("e_db differs between the untraced and the traced pass")
        overhead = traced.seconds / untraced.seconds - 1.0
        layers = layer_metrics(tracer, setup[1], overhead, traced.solves)
        print_metrics(f"{name} per layer (traced, {traced.instances} instances)", layers)
        metrics.update(layers)
    for problem in problems:
        print(f"CHECK FAILED [{name}]: {problem}")
    result = {
        "correct": not problems,
        "attempted": len(untraced.solves),
        "failed": sum(s.failed for s in untraced.solves),
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }
    record = {"workload": name, "trace": trace, "env": env, "result": result, "problems": problems}
    record["trial_seconds"] = untraced.trial_seconds
    record["solves"] = [[s.point, s.method, s.trial, s.e_db, s.seconds] for s in untraced.solves]
    suffix = "both" if trace is None else trace
    (OUT / f"{name}-seed{seed}-trace{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "phaseinpaint" / "__init__.py").is_file():
        print(f"error: package sources not found at {SRC}/phaseinpaint", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    setup = measure_setup()
    build_operators()  # the measured passes start where a fresh process's set-up ends
    env = environment(args.seed)
    print("# env " + json.dumps(env, sort_keys=True))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {name: bench_workload(name, args.seed, args.seconds, args.trace, setup, env) for name in names}
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
