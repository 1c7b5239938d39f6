"""Compare result files of two commits against the bounds in BENCHMARK.json.

Usage, from the repository root::

    python3 perfbench/compare.py --base perfbench/results/A*.json --new B*.json

Every file must come from the same workload and trace mode, and all must
agree on the machine and library facts (``facts.COMPARED``); otherwise the
comparison is refused with exit status 3.  For each end-to-end metric the
medians of both sides are printed with the relative change; a change worse
than the metric's bound is a regression (exit status 1).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import facts

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare benchmark result files")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    reference = base[0]
    for path, record in zip(args.base + args.new, base + new):
        if (record["workload"], record["trace"]) != (reference["workload"], reference["trace"]):
            print(f"refused: {path} is another workload or trace mode", file=sys.stderr)
            return 3
        differ = facts.mismatches(reference["facts"], record["facts"])
        if differ:
            print(f"refused: {path} differs in facts {differ}", file=sys.stderr)
            return 3
    spec = json.loads(BENCHMARK.read_text())
    metrics = spec["end_to_end"] if reference["trace"] == 0 else spec["per_layer"]
    regressions = 0
    print(f"{'metric':32s} {'base':>12s} {'new':>12s} {'change':>9s} {'bound':>7s}")
    for metric in metrics:
        name = metric["name"]
        a = statistics.median(r["metrics"][name]["value"] for r in base)
        b = statistics.median(r["metrics"][name]["value"] for r in new)
        change = (b - a) / abs(a) if a else float("inf") if b != a else 0.0
        worse = change if metric["better"] == "lower" else -change
        bound = metric.get("bound")
        flag = ""
        if bound is not None and worse > bound:
            flag = "REGRESSION"
            regressions += 1
        print(f"{name:32s} {a:12.6g} {b:12.6g} {change:+9.2%} "
              f"{'' if bound is None else format(bound, '.2f'):>7s} {flag}")
    if not all(r["correct"] for r in new):
        print("new side has incorrect answers", file=sys.stderr)
        regressions += 1
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
