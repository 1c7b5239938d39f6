"""Self-test of the benchmark itself (not of beamgain).

Usage, from the repository root::

    python3 perfbench/selftest.py

Checks that

* the answer check passes a good result, and flags as failed a result with
  one weight negated, one from ``iter_max=5``, and a sweep row that did not
  converge;
* a tiny run (``--seconds 0.1``, which still runs pass 0 in full) of every
  workload, untraced and traced, prints a last line with exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``, and emits every
  metric of ``BENCHMARK.json`` with its unit;
* the benchmark exits non-zero without printing a result in a directory
  that holds only ``BENCHMARK.json`` and ``perfbench/``.

Exit status 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import answers  # noqa: E402
import workloads  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def answer_check() -> None:
    problem = workloads.first_problem(workloads.WOSC)
    op = workloads.Op(0, problem=problem)
    result = workloads.call(op, None, None)
    good = workloads.record(op, 1.0, result, None)
    correct, failed, reasons = answers.verdict(good, workloads.WOSC)
    check(correct and failed == 0, f"converged result passes ({reasons})")

    corrupted = workloads.record(op, 1.0, result, None)
    corrupted.weights[3] = -corrupted.weights[3]
    correct, failed, reasons = answers.verdict(corrupted, workloads.WOSC)
    check(not correct and failed == 1, f"negated weight is flagged ({reasons})")

    short = replace(problem, admm=replace(problem.admm, iter_max=5))
    short_op = workloads.Op(1, problem=short)
    unconverged = workloads.record(short_op, 1.0, workloads.call(short_op, None, None), None)
    correct, failed, reasons = answers.verdict(unconverged, workloads.WOSC)
    check(failed == 1, f"iter_max=5 result is flagged ({reasons})")

    sweep_op = workloads.Op(0, sweep_start=0.0)
    rows = [{"theta_c_deg": f"{c:.6f}", "g0_dbi": "7.0", "osll_db": "-20.0",
             "ripple_db": "0.5", "iterations": "900", "converged": "true",
             "wall_ms": "600.0"} for c in sweep_op.sweep_centers]
    rows[4]["converged"] = "false"
    sweep = workloads.Outcome(op=sweep_op, wall_s=1.0, exit_code=4, rows=rows)
    correct, failed, reasons = answers.verdict(sweep, workloads.SWEEP)
    check(correct and failed == 1, f"unconverged sweep row is flagged ({reasons})")


def tiny_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[group]}
        for workload in workloads.NAMES:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "0.1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            what = f"tiny run {workload} --trace {trace}"
            if out.returncode != 0:
                check(False, f"{what}: exit {out.returncode}: {out.stderr[-500:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{what}: result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{what}: answers pass")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, f"{what}: metric names and units "
                  f"(missing {sorted(set(expected) - set(got))}, "
                  f"extra {sorted(set(got) - set(expected))})")
            check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                      for v in result["metrics"].values()), f"{what}: finite values")


def bare_directory() -> None:
    (HERE / "results").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "results"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workloads.WOSC,
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(out.returncode != 0 and not out.stdout.strip(),
              f"bare directory: exit {out.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    answer_check()
    bare_directory()
    tiny_runs()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
