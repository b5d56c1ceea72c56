"""Summary statistics over per-solve records.

Kept free of numpy and of the package under test, so the rules here can be
checked on synthetic rows in a fraction of a second (see test_stats.py).

A solve is one reconstruction by one method of one sweep instance. A solve
that raised, or whose error is not a finite number, is failed. A sweep that
aborts returns no rows at all, so every solve it was expected to run is
recorded as failed (``solves_from_chunk``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

RECOVERED_DB = -50.0  # README: "values below -50 dB mean essentially perfect recovery"
QUALITY_METHODS = ("gli", "pci", "pli")  # rpi is a random baseline, not a solver
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


@dataclass(frozen=True)
class Solve:
    point: float
    method: str
    trial: int
    e_db: float
    seconds: float

    @property
    def failed(self) -> bool:
        return not math.isfinite(self.e_db)


def solves_from_chunk(trial: int, expected, rows) -> list[Solve]:
    """Per-solve records of one sweep call.

    ``expected`` lists the (point, method) pairs the call should solve.
    ``rows`` holds the returned result rows, or None if the call raised.
    """
    if rows is None:
        return [Solve(float(p), m, trial, math.nan, math.nan) for p, m in expected]
    return [Solve(float(r.sweep_param), r.method, trial, float(r.e_db), float(r.seconds)) for r in rows]


def median(values) -> float | None:
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return None
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def nearest_rank(sorted_values, percentile: float) -> float:
    """The smallest sample with at least ``percentile`` % of samples at or below it."""
    # rounding keeps 99.9 % of 10000 at rank 9990 despite binary fractions
    k = max(1, math.ceil(round(percentile * len(sorted_values) / 100.0, 9)))
    return sorted_values[k - 1]


def tail(values) -> tuple[float, float] | None:
    """(percentile, value) of the highest listed percentile with at least
    ten samples strictly above it; None when there are too few samples."""
    xs = sorted(values)
    if not xs:
        return None
    for p in TAIL_PERCENTILES:
        v = nearest_rank(xs, p)
        if sum(1 for x in xs if x > v) >= MIN_BEYOND:
            return p, v
    return None


def failed_frac(solves) -> float:
    solves = list(solves)
    return sum(s.failed for s in solves) / len(solves) if solves else 0.0


def recovered_frac(solves) -> float | None:
    """Share of attempted gli/pci/pli solves at or below -50 dB.

    Failed solves stay in the denominator: they did not recover.
    """
    pool = [s for s in solves if s.method in QUALITY_METHODS]
    if not pool:
        return None
    return sum((not s.failed) and s.e_db <= RECOVERED_DB for s in pool) / len(pool)


def method_summary(solves, method: str) -> dict:
    """Median time, tail and median error of one method's finished solves."""
    done = [s for s in solves if s.method == method and not s.failed]
    times = [s.seconds for s in done]
    return {
        "n": len(done),
        "solve_s": median(times),
        "tail": tail(times),
        "e_db": median(s.e_db for s in done),
    }
