"""The benchmark's workloads: sweep configurations run through the public API.

Every workload uses the benchmark signal (128 samples) on the 32x16 grid of
``benchmark_system``. One trial of a workload is one sweep call over all of
its points; trial t runs at ``base_seed = seed + t``, which is the seed the
package gives trial t of a single sweep with ``base_seed = seed``. The
benchmark runs trials until its time is used up. Why each workload exists
is written in BENCHMARK.json and README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

from phaseinpaint.sweeps import ExperimentConfig, run_hole_sweep, run_ratio_sweep


@dataclass(frozen=True)
class Workload:
    name: str
    sweep: str  # "ratio" or "hole_width", as in ExperimentConfig.sweep
    points: tuple[float, ...]
    methods: tuple[str, ...]
    pci_points: tuple[float, ...] | None = None  # as in ExperimentConfig: None runs pci everywhere

    def expected(self) -> list[tuple[float, str]]:
        """The (point, method) solves one trial runs."""
        return [
            (float(p), m)
            for p in self.points
            for m in self.methods
            if m != "pci" or self.pci_points is None or p in self.pci_points
        ]

    def config(self, seed: int, trial: int) -> ExperimentConfig:
        if self.sweep == "ratio":
            points = {"ratios": tuple(self.points)}
        else:
            points = {"widths": tuple(int(p) for p in self.points)}
        return ExperimentConfig(
            sweep=self.sweep,
            **points,
            methods=self.methods,
            pci_points=self.pci_points,
            n_trials=1,
            base_seed=seed + trial,
            workers=1,
            record_timing=True,
        )

    def run(self, cfg: ExperimentConfig):
        return run_ratio_sweep(cfg) if self.sweep == "ratio" else run_hole_sweep(cfg)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("uniform-low", "ratio", (0.1, 0.2, 0.3, 0.4), ("gli", "pci", "rpi")),
        Workload("uniform-high", "ratio", (0.5, 0.6), ("gli", "pli", "pci", "rpi")),
        # pci at one width only: a hole-mask pci solve takes 0.2 to 3 s, and
        # at every width the few trials that fit in a run spread too widely
        Workload("holes", "hole_width", (3, 5, 7, 9), ("gli", "pci", "rpi"), pci_points=(9,)),
    )
}
