"""Set-up cost of a fresh process, run as a child of run.py.

Imports the package, then builds the dense operators of the benchmark
system (analysis matrix, its pseudo-inverse, the range projector), which is
the work that stands between start-up and the first solve. Prints one JSON
line: {"import_s": ..., "operators_s": ...}.

Usage: python3 perfbench/setup_probe.py <path to src>
"""

import json
import sys
from time import perf_counter


def build_operators() -> None:
    from phaseinpaint import gabor

    system = gabor.benchmark_system()
    gabor.atom_matrix(system)
    gabor.synthesis_matrix(system)
    gabor.range_projector(system)


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    start = perf_counter()
    import phaseinpaint  # noqa: F401

    imported = perf_counter()
    build_operators()
    built = perf_counter()
    print(json.dumps({"import_s": imported - start, "operators_s": built - imported}))
