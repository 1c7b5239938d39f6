"""One set-up sample in a fresh interpreter: ``import beamgain`` plus one cold
``build_gain_operators`` for the workload's first problem.

Usage: ``python3 perfbench/setup_child.py <workload>``; prints one JSON line
with ``import_ms``, ``cold_operators_ms`` and their sum ``setup_s``.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(workload: str) -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    t0 = time.perf_counter()
    import beamgain

    t1 = time.perf_counter()
    import workloads

    problem = workloads.first_problem(workload)
    mainlobe, sidelobe = beamgain.assemble_regions(
        problem.beam_center_deg, problem.beamwidth_deg, problem.guard_deg,
        problem.resolution_deg,
    )
    t2 = time.perf_counter()
    beamgain.build_gain_operators(
        problem.geometry, mainlobe, sidelobe if problem.dsll_db is not None else ()
    )
    t3 = time.perf_counter()
    print(json.dumps({
        "import_ms": 1e3 * (t1 - t0),
        "cold_operators_ms": 1e3 * (t3 - t2),
        "setup_s": (t1 - t0) + (t3 - t2),
    }))


if __name__ == "__main__":
    main(sys.argv[1])
