"""Reduction-order sensitivity of the eight acceptance rows.

Solves pass 0 of ``wosc-ula41`` and ``wsc-nonuniform41`` (the published
rows at center 0) once in a child with OpenBLAS pinned to one thread and
once in a child with the shipped default, and writes both answer sets and
their differences to ``perfbench/reduction_order.json``.  Changing the BLAS
thread count changes the order of floating-point reductions, which moves
the answers; the bounds on ``g0_dbi_mean`` rest on this measured spread.

Usage, from the repository root::

    python3 perfbench/reduction_order.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "reduction_order.json"
SETTINGS = {
    "default": {},
    "openblas_1_thread": {"OPENBLAS_NUM_THREADS": "1"},
}


def child() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import facts
    import workloads

    rows = []
    for workload in (workloads.WOSC, workloads.WSC):
        for op in next(workloads.passes(workload, 0)):
            result = workloads.call(op, None, None)
            problem = op.problem
            rows.append({
                "workload": workload,
                "beamwidth_deg": problem.beamwidth_deg,
                "dsll_db": problem.dsll_db,
                "g0_dbi": result.g0_dbi,
                "osll_db": result.osll_db,
                "iterations": result.iterations,
                "converged": result.converged,
            })
    info = facts.collect(ROOT, 0)
    print(json.dumps({"blas_threads": info["blas_threads"], "rows": rows}))


def main() -> int:
    import facts

    runs = {}
    for name, env in SETTINGS.items():
        environ = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        environ.update(env)
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child"],
            cwd=ROOT, env=environ, capture_output=True, text=True, timeout=600,
            check=True,
        )
        runs[name] = json.loads(out.stdout.strip().splitlines()[-1])
        runs[name]["env"] = env
        runs[name]["total_iterations"] = sum(r["iterations"] for r in runs[name]["rows"])
    differences = []
    for a, b in zip(runs["default"]["rows"], runs["openblas_1_thread"]["rows"]):
        differences.append({
            "workload": a["workload"],
            "beamwidth_deg": a["beamwidth_deg"],
            "dsll_db": a["dsll_db"],
            "g0_dbi_delta": b["g0_dbi"] - a["g0_dbi"],
            "iterations_delta": b["iterations"] - a["iterations"],
        })
    means = {}
    for workload in ("wosc-ula41", "wsc-nonuniform41"):
        pair = [
            sum(r["g0_dbi"] for r in runs[s]["rows"] if r["workload"] == workload) / 4
            for s in SETTINGS
        ]
        means[workload] = {
            "g0_dbi_mean": dict(zip(SETTINGS, pair)),
            "relative_change": abs(pair[1] - pair[0]) / pair[0],
        }
    record = {
        "what": "pass 0 of wosc-ula41 and wsc-nonuniform41 at two BLAS thread settings",
        "facts": {k: v for k, v in facts.collect(ROOT, 0).items()
                  if k in facts.COMPARED and k not in ("blas_env", "blas_threads")},
        "runs": runs,
        "differences": differences,
        "g0_dbi_mean": means,
    }
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(means, indent=1))
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child()
    else:
        sys.exit(main())
