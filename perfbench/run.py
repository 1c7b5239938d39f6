"""beamgain benchmark: timed closed-loop workloads with an answer check.

Usage, from the repository root::

    python3 perfbench/run.py --workload wosc-ula41 --seed 1 --seconds 30 --trace 0

Workloads are ``wosc-ula41``, ``wsc-nonuniform41`` and ``sweep-nonuniform41``
(see ``workloads.py``).  A run measures set-up in fresh interpreters, warms
up on a problem outside the workload, then runs whole passes of the seeded
problem sequence until ``--seconds`` have elapsed (pass 0 always runs in
full), and checks every answer (``answers.py``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the same loop runs with spans recorded at every module
boundary (``spans.py``) and the line carries the per-layer metrics instead.
The full result, with machine facts and every problem's answer, goes to
``perfbench/results/<workload>-seed<seed>-trace<trace>.json``.

Exit status is 0 when the run completed (the ``correct`` field reports the
answer check) and 2 when it could not run, for instance when the beamgain
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 5
WARM_UP_S = 2.0


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum is
    reported with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure_setup(workload: str) -> list[dict]:
    """Set-up samples, each from a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def warm_up(workloads, workload: str, config: Path, workdir: Path) -> None:
    """Load every code path and keep both cores busy for ``WARM_UP_S``.

    The problems solved here (center 0.25 deg) lie on neither center grid,
    so none of them repeats a problem of the timed loop.  Timings in the
    first seconds of BLAS work read up to twice the steady value, hence the
    sustained warm-up.
    """
    problem = workloads.first_problem(workload)
    problem = replace(problem, beam_center_deg=0.25)
    if workload == workloads.SWEEP:
        short = json.loads(config.read_text())
        short["admm"]["iter_max"] = 5
        path = workdir / "warmup_config.json"
        path.write_text(json.dumps(short))
        workloads.call(workloads.Op(-1, sweep_start=0.25), path, workdir)
        (workdir / "sweep.csv").unlink(missing_ok=True)
    start = time.perf_counter()
    while time.perf_counter() - start < WARM_UP_S:
        workloads.call(workloads.Op(-1, problem=problem), config, workdir)


def run_loop(workloads, workload, seed, seconds, config, workdir, tracer=None):
    """Closed loop over whole passes; returns outcomes and loop wall/CPU time."""
    outcomes = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for plan in workloads.passes(workload, seed):
        if outcomes and time.perf_counter() - start >= seconds:
            break
        for op in plan:
            if tracer is not None:
                tracer.op = len(outcomes)
            t0 = time.perf_counter()
            try:
                value = workloads.call(op, config, workdir)
            except Exception as exc:  # a failed operation is counted, not fatal
                wall = time.perf_counter() - t0
                outcomes.append(workloads.Outcome(
                    op=op, wall_s=wall, error=f"{type(exc).__name__}: {exc}"))
                continue
            wall = time.perf_counter() - t0
            outcomes.append(workloads.record(op, wall, value, workdir))
    wall = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    return outcomes, wall, cpu


def end_to_end(outcomes, answers, wall, cpu, setup, failed) -> tuple[dict, dict]:
    """End-to-end metrics and, for the result file, their sample details."""
    problems = sum(o.op.size for o in outcomes)
    latency = [1e3 * o.wall_s / o.op.size for o in outcomes]
    tail_ms, tail_pct = tail(latency)
    pass_wall: dict[int, float] = {}
    for o in outcomes:
        pass_wall[o.op.pass_index] = pass_wall.get(o.op.pass_index, 0.0) + o.wall_s
    first = [a["g0_dbi"] for a in answers if a["pass"] == 0]
    excess = [max(0.0, a["osll_db"] - a["dsll_db"]) for a in answers
              if a["dsll_db"] is not None and a["osll_db"] is not None]
    setup_s = [s["setup_s"] for s in setup]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "latency_ms_p50": (statistics.median(latency), "ms"),
        "latency_ms_tail": (tail_ms, "ms"),
        "sweep_s": (statistics.median(pass_wall.values()), "s"),
        "problems_per_s": (problems / wall, "1/s"),
        "cpu_ms_per_problem": (1e3 * cpu / problems, "ms"),
        "g0_dbi_mean": (statistics.fmean(first), "dBi"),
        "sll_excess_ratio": (10.0 ** (max(excess, default=0.0) / 10.0), "ratio"),
        "solved_share": (1.0 - failed / problems, "share"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "setup_s": {"samples": len(setup_s)},
        "latency_ms_p50": {"samples": len(latency)},
        "latency_ms_tail": {"samples": len(latency), "percentile": tail_pct},
        "sweep_s": {"samples": len(pass_wall)},
        "problems_per_s": {"problems": problems, "wall_s": wall},
        "cpu_ms_per_problem": {"problems": problems, "cpu_s": cpu},
        "g0_dbi_mean": {"samples": len(first), "over": "pass 0"},
        "sll_excess_ratio": {"capped_problems": len(excess)},
        "solved_share": {"attempted": problems, "failed": failed},
    }
    return metrics, details


def trace_extras(workloads, spans, workload, outcomes, config, workdir) -> dict:
    """Tracing overhead, and the sweep-vs-single gain difference.

    Each problem of pass 0 runs twice back to back through ``synthesize()``,
    once untraced and once traced (alternating which goes first); the
    overhead is the median of the traced/untraced wall ratios minus 1.
    Pairing keeps slow drifts of the machine out of it.  On the sweep
    workload the problems are the pass-0 sweep centers, and the untraced
    answers are compared with the sweep's rows.
    """
    if workload == workloads.SWEEP:
        base = workloads.first_problem(workload)
        rows = [row for o in outcomes if o.op.pass_index == 0 for row in o.rows]
        ops = [workloads.Op(0, problem=replace(
            base, beam_center_deg=float(row["theta_c_deg"]))) for row in rows]
    else:
        rows, ops = [], next(workloads.passes(workload, 0))
    ratios, singles = [], []
    for i, op in enumerate(ops):
        walls = {}
        for traced in (i % 2 == 0, i % 2 != 0):
            tracer = spans.Tracer()
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                result = workloads.call(op, config, workdir)
                walls[traced] = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            if not traced:
                singles.append(result.g0_dbi)
        ratios.append(walls[True] / walls[False])
    gap = max((abs(g - float(row["g0_dbi"])) for g, row in zip(singles, rows)), default=0.0)
    return {"trace.overhead": (statistics.median(ratios) - 1.0, "ratio"),
            "synthesis.sweep_vs_single_db": (gap, "dB")}


def main(argv=None) -> int:
    if not (SRC / "beamgain" / "__init__.py").is_file():
        print(f"beamgain sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import answers
    import facts
    import workloads

    args = parse_args(argv, workloads.NAMES)
    setup = measure_setup(args.workload)
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        config = workloads.sweep_config(workdir)
        warm_up(workloads, args.workload, config, workdir)
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        try:
            outcomes, wall, cpu = run_loop(workloads, args.workload, args.seed,
                                           args.seconds, config, workdir, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()

        correct = True
        failures = []
        all_answers = []
        for outcome in outcomes:
            ok, outcome.failed, reasons = answers.verdict(outcome, args.workload)
            correct &= ok
            failures += [f"pass {outcome.op.pass_index}: {r}" for r in reasons]
            all_answers += answers.answer_fields(outcome)
        attempted = sum(o.op.size for o in outcomes)
        failed = sum(o.failed for o in outcomes)

        if args.trace:
            extras = trace_extras(workloads, spans, args.workload, outcomes,
                                  config, workdir)
            sweep_bytes = [o.bytes_written for o in outcomes if o.op.problem is None]
            metrics = spans.layer_metrics(tracer, wall, all_answers, sweep_bytes)
            metrics.update(extras)
            metrics["setup.import_ms"] = (
                statistics.median(s["import_ms"] for s in setup), "ms")
            metrics["setup.cold_operators_ms"] = (
                statistics.median(s["cold_operators_ms"] for s in setup), "ms")
            details = {"spans": len(tracer.start), "unwrapped": tracer.missing}
        else:
            metrics, details = end_to_end(outcomes, all_answers, wall, cpu, setup,
                                          failed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.csv.gz")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": facts.collect(ROOT, args.seed),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
        "setup_samples": setup,
        "answers": all_answers,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
