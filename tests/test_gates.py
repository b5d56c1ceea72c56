"""The `gli` and `pci` solve gates, read against tables saved under tests/.

Each table holds one row per solve: kind ("ratio" for ``random_mask``,
"hole" for ``hole_mask`` at ratio 0.3), point (ratio or hole width), seed,
``converged``, recovered (``e_db`` at or below -50 dB) and iterations.

* ``gli_gate.json``: the 80 reference solves, seeds 1234-1243, hole widths
  3/5/7/9 and ratios 0.1/0.3/0.5/0.6, default ``GliConfig``.
* ``pci_gate.json``: the 265-solve quality set, default ``PciConfig``: the
  criterion-3/4/5 solves (ratios 0.1-0.3 and 0.5/0.6, widths 3/5/7/9, seeds
  1234-1238) and the held-out ratios 0.1-0.4 (seeds 1911-1940), ratios
  0.5/0.6 (seeds 1911-1930) and width-9 holes (seeds 1911-1970).

Rebuild a table with ``PYTHONPATH=src python tests/test_gates.py gli|pci``;
a table is rebuilt only where a change is meant to move its gate.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from phaseinpaint.gabor import benchmark_system
from phaseinpaint.griffin_lim import GliConfig, gli_run
from phaseinpaint.masks import hole_mask, random_mask
from phaseinpaint.metrics import error_db
from phaseinpaint.observe import observe
from phaseinpaint.phasecut import PciConfig, extract_phases, pci_signal, pci_solve
from phaseinpaint.phasecut import phase_cost_matrix
from phaseinpaint.signals import benchmark_signal

HERE = Path(__file__).parent
RECOVERED_DB = -50.0
# gli's per-solve iteration counts may move by this much: its stopping rule
# reads a residual plateau, and changes that reorder a product's rounding
# have moved one or two solves by one iteration
GLI_ITERATION_SLACK = 2

GLI_INSTANCES = [
    (kind, point, seed)
    for seed in range(1234, 1244)
    for kind, points in (("hole", (3, 5, 7, 9)), ("ratio", (0.1, 0.3, 0.5, 0.6)))
    for point in points
]
PCI_INSTANCES = (
    [("ratio", r, s) for r in (0.1, 0.2, 0.3) for s in range(1234, 1239)]
    + [("ratio", r, s) for r in (0.5, 0.6) for s in range(1234, 1239)]
    + [("hole", w, s) for w in (3, 5, 7, 9) for s in range(1234, 1239)]
    + [("ratio", r, s) for r in (0.1, 0.2, 0.3, 0.4) for s in range(1911, 1941)]
    + [("ratio", r, s) for r in (0.5, 0.6) for s in range(1911, 1931)]
    + [("hole", 9, s) for s in range(1911, 1971)]
)


def _observations(kind, point, seed):
    if kind == "ratio":
        mask = random_mask(32, 16, point, seed=seed)
    else:
        mask = hole_mask(32, 16, 0.3, width=point, seed=seed)
    return observe(benchmark_system(), benchmark_signal(seed=seed), mask)


def gli_solve(kind, point, seed):
    """(x_hat, converged, iterations) of one gate solve."""
    result = gli_run(_observations(kind, point, seed), GliConfig(), seed=seed)
    return result.x_hat, result.converged, result.iterations_run


def pci_solve_signal(kind, point, seed):
    """(x_hat, converged, iterations) of one gate solve."""
    obs = _observations(kind, point, seed)
    U = pci_solve(phase_cost_matrix(obs), obs, PciConfig())
    return pci_signal(obs, extract_phases(U)), U.converged, U.sweeps_run


SOLVERS = {"gli": (gli_solve, GLI_INSTANCES), "pci": (pci_solve_signal, PCI_INSTANCES)}


def gate_rows(method):
    """The table rows of ``method``'s gate at the current package."""
    solve, instances = SOLVERS[method]
    rows = []
    for kind, point, seed in instances:
        x_hat, converged, iterations = solve(kind, point, seed)
        recovered = error_db(benchmark_signal(seed=seed), x_hat).e_db <= RECOVERED_DB
        rows.append([kind, point, seed, bool(converged), bool(recovered), int(iterations)])
    return rows


def load_table(method):
    return json.loads((HERE / f"{method}_gate.json").read_text())["rows"]


def _keys(rows, column):
    return {tuple(row[:3]) for row in rows if row[column]}


@pytest.mark.slow
def test_gli_reference_gate():
    expected = load_table("gli")
    got = gate_rows("gli")
    assert [row[:3] for row in got] == [row[:3] for row in expected]
    assert _keys(got, 3) == _keys(expected, 3), "converged flags moved"
    assert _keys(got, 4) == _keys(expected, 4), "recovered set moved"
    moved = {tuple(g[:3]): (e[5], g[5]) for g, e in zip(got, expected) if g[5] != e[5]}
    print(
        f"gli gate: {len(_keys(got, 3))} converged, {len(_keys(got, 4))} recovered, "
        f"{sum(row[5] for row in got)} iterations "
        f"(table {sum(row[5] for row in expected)}), moved {moved}"
    )
    assert all(abs(a - b) <= GLI_ITERATION_SLACK for a, b in moved.values()), moved
    for kind, point in (("hole", 9), ("ratio", 0.6)):
        first, second = gli_solve(kind, point, 1243), gli_solve(kind, point, 1243)
        assert np.array_equal(first[0], second[0])


@pytest.mark.slow
def test_pci_quality_gate():
    expected = load_table("pci")
    got = gate_rows("pci")
    assert [row[:3] for row in got] == [row[:3] for row in expected]
    # every solve that converged or was recovered in the table stays so
    assert _keys(expected, 3) <= _keys(got, 3), _keys(expected, 3) - _keys(got, 3)
    assert _keys(expected, 4) <= _keys(got, 4), _keys(expected, 4) - _keys(got, 4)
    moved = sum(g[5] != e[5] for g, e in zip(got, expected))
    print(
        f"pci gate: {sum(row[5] for row in got)} iterations "
        f"(table {sum(row[5] for row in expected)}), {moved} solves moved"
    )


if __name__ == "__main__":
    method = sys.argv[1]
    lines = ",\n".join("    " + json.dumps(row) for row in gate_rows(method))
    head = '"columns": ["kind", "point", "seed", "converged", "recovered", "iterations"]'
    (HERE / f"{method}_gate.json").write_text(f'{{{head},\n"rows": [\n{lines}\n]}}\n')
