"""Alternating parent/change benchmark pairs, written as one BENCH_<n>.json.

Usage, from the repository root, with the change uncommitted::

    python3 tools/bench_pairs.py --out BENCH_24.json --first-seed 2401 \\
        --workload wsc-nonuniform41 \\
        --claim wsc-nonuniform41:cpu_ms_per_problem

For each workload, pair i of ten runs ``perfbench/run.py --trace 0`` for
``BENCHMARK.json``'s ``run_seconds`` once on the parent and once on the
working tree, with seed ``first-seed + i`` on both sides (the parent first
when i is even).  The parent is the committed tree of ``HEAD``, exported
with ``git archive`` into a temporary directory, so the parent side runs the
committed files alone.  Workloads take consecutive seed ranges in the order
given.

Per workload the output holds every result record, ``perfbench/compare.py``'s
output on them, per-metric medians with inclusive quartiles and the change's
wins and losses over pairs, each seed's failed problems on both sides, and
the problems both sides reached whose answers (``g0_dbi``, ``osll_db``,
``iterations``, ``converged``) differ.  A claim ``workload:metric`` adds a
verdict: the change must win at least nine in ten pairs, and its median must
beat the parent's by more than the parent's quartile spread.  One
``--trace 1`` run on the working tree follows each workload's pairs.

Only the standard library is used; the benchmark itself needs numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ANSWER_FIELDS = ("g0_dbi", "osll_db", "iterations", "converged")
# a sweep row has no beamwidth; its key holds None there
PROBLEM_KEY = ("pass", "theta_c_deg", "beamwidth_deg", "dsll_db")
PAIRS = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--claim", action="append", default=[],
                        help="workload:metric whose gain is claimed")
    args = parser.parse_args(argv)
    for claim in args.claim:
        if claim.split(":")[0] not in args.workload:
            parser.error(f"claim {claim} names no benchmarked workload")
    return args


def export_head(into: Path) -> Path:
    """The committed files of ``HEAD``, extracted under ``into``."""
    archive = into / "tree.tar"
    with archive.open("wb") as handle:
        subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, stdout=handle, check=True)
    tree = into / "tree"
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()
    return tree


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``tree``; returns its result record."""
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, stdout=subprocess.DEVNULL,
    )
    path = tree / "perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def quartiles(values) -> list[float]:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(metrics, parent, change) -> dict:
    """Per metric: medians, quartiles and the change's wins over pairs."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        losses = sum((y > x) if lower else (y < x) for x, y in zip(a, b))
        out[name] = {
            "parent_median": statistics.median(a),
            "change_median": statistics.median(b),
            "parent_quartiles": quartiles(a),
            "change_quartiles": quartiles(b),
            "change_wins": wins,
            "change_losses": losses,
            "pairs": len(a),
        }
    return out


def verdict(metric: dict, entry: dict) -> dict:
    """Claim rule: 9 of 10 wins, and a median gain wider than the parent's IQR."""
    gain = entry["parent_median"] - entry["change_median"]
    if metric["better"] != "lower":
        gain = -gain
    low, high = entry["parent_quartiles"]
    wins_needed = math.ceil(0.9 * entry["pairs"])
    holds = entry["change_wins"] >= wins_needed and gain > high - low
    return {
        "metric": metric["name"],
        "change": (entry["change_median"] - entry["parent_median"]) / entry["parent_median"],
        "median_gain": gain,
        "parent_quartile_spread": high - low,
        "wins": entry["change_wins"],
        "wins_needed": wins_needed,
        "holds": holds,
    }


def failures(records) -> dict:
    """Each seed's attempted and failed counts, reasons and unconverged answers."""
    return {
        str(r["seed"]): {
            "attempted": r["attempted"],
            "failed": r["failed"],
            "failures": r["failures"],
            "unconverged": [a for a in r["answers"] if not a["converged"]],
        }
        for r in records
    }


def match_answers(parent, change) -> tuple[int, list]:
    """Problems both sides reached on the same seed, and those whose answers differ."""
    matched, differing = 0, []
    for a, b in zip(parent, change):
        theirs = {tuple(x.get(k) for k in PROBLEM_KEY): x for x in a["answers"]}
        for answer in b["answers"]:
            key = tuple(answer.get(k) for k in PROBLEM_KEY)
            if key not in theirs:
                continue
            matched += 1
            if any(answer[f] != theirs[key][f] for f in ANSWER_FIELDS):
                differing.append({"seed": b["seed"], "parent": theirs[key], "change": answer})
    return matched, differing


def compare(records_dir: Path, parent, change) -> tuple[int, str]:
    """``perfbench/compare.py`` on the records, from the working tree."""
    paths = {}
    for side, records in (("parent", parent), ("change", change)):
        paths[side] = []
        for record in records:
            path = records_dir / f"{side}-{record['workload']}-{record['seed']}.json"
            path.write_text(json.dumps(record))
            paths[side].append(str(path))
    result = subprocess.run(
        [sys.executable, "perfbench/compare.py", "--base", *paths["parent"],
         "--new", *paths["change"]],
        cwd=ROOT, capture_output=True, text=True,
    )
    return result.returncode, result.stdout + result.stderr


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    claims = dict(claim.split(":", 1) for claim in args.claim)
    report = {
        "what": (
            f"perfbench/run.py --seconds {seconds:g} --trace 0, {PAIRS} pairs per "
            "workload, parent (HEAD, committed files) and change (working tree) "
            "alternating which runs first. compare holds perfbench/compare.py's output on "
            "each workload's records; summary holds per-metric medians, inclusive "
            "quartiles and the change's wins over pairs; failures lists each seed's "
            "failed problems on both sides."
        ),
        "order": "pair i runs parent first when i is even, change first when i is odd",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        tmp = Path(tmp)
        trees = {"parent": export_head(tmp), "change": ROOT}
        seed = args.first_seed
        for workload in args.workload:
            records = {"parent": [], "change": []}
            seeds = list(range(seed, seed + PAIRS))
            seed += PAIRS
            for i, pair_seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    print(f"{workload} seed {pair_seed} {side}", file=sys.stderr, flush=True)
                    records[side].append(
                        run_once(trees[side], workload, pair_seed, seconds, 0))
            code, text = compare(tmp, records["parent"], records["change"])
            summary = summarize(spec["end_to_end"], records["parent"], records["change"])
            matched, differing = match_answers(records["parent"], records["change"])
            entry = {
                "seeds": seeds,
                "compare_exit": code,
                "compare": text,
                "summary": summary,
                "failures": {side: failures(records[side]) for side in records},
                "matched_answers": matched,
                "differing_answers": len(differing),
                "differing": differing,
            }
            if workload in claims:
                metric = next(m for m in spec["end_to_end"] if m["name"] == claims[workload])
                entry["claim"] = verdict(metric, summary[metric["name"]])
            record = run_once(ROOT, workload, seed, seconds, 1)
            seed += 1
            entry["trace_run"] = {
                "what": f"perfbench/run.py --seed {record['seed']} --trace 1 on the "
                        "change; details.unwrapped lists the wrap targets the tracer "
                        "could not find",
                "record": record,
            }
            entry["records"] = records
            report["workloads"][workload] = entry
            # written after each workload, so a cut run keeps what it finished
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        print(f"== {workload}: compare exit {entry['compare_exit']}, "
              f"{entry['matched_answers']} matched answers, "
              f"{entry['differing_answers']} differ")
        print(entry["compare"])
        if "claim" in entry:
            print(json.dumps(entry["claim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
