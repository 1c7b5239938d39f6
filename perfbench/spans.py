"""Outside-in tracing for the traced run, and the per-layer metrics.

The tracer replaces, for the duration of the traced loop, the functions each
beamgain module looks up in its own namespace with wrappers that record a
span: name, operation id, parent span, start and end.  Spans stay in memory
and are written out when the run ends.  A span's self time is its duration
minus the durations of its child spans (the run is single-threaded, so
children never overlap).  The span name's prefix is the layer it is charged
to.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import beamgain.cli
import beamgain.engine
import beamgain.sphere
import beamgain.synthesis

RUN_SPANS = ("engine.run_wosc", "engine.run_wsc")
LEVEL_SPANS = ("subproblems.update_g_wosc", "subproblems.update_gh_wsc")


class _ModuleView:
    """A module as one client sees it, with some attributes replaced.

    Attributes read through the view are cached on it, so after the first
    access a lookup costs what a module attribute lookup costs.
    """

    def __init__(self, module, **overrides):
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        value = getattr(self._module, name)
        setattr(self, name, value)
        return value


class Tracer:
    """In-memory span recorder that patches beamgain at module boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.op_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(args)`` adds to a counter."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.op_id.append(self.op)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0)
            stack.append(sid)
            if count is not None:
                self.counts[name] += count(args)
            self.start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter_ns()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_call(self, owner, attr: str, name: str, count=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patch(owner, attr, self.wrap(name, fn, count))

    def install(self) -> None:
        synthesis, engine, sphere, cli = (
            beamgain.synthesis, beamgain.engine, beamgain.sphere, beamgain.cli
        )
        for owner, attr, name, count in (
            (cli, "main", "cli.main", None),
            (cli, "scan_sweep", "synthesis.scan_sweep", None),
            (cli, "export_sweep", "exports.export_sweep", None),
            (synthesis, "synthesize", "synthesis.synthesize", None),
            (synthesis, "build_gain_operators", "arraymodel.build_gain_operators", None),
            (synthesis, "power_gain_pattern", "arraymodel.power_gain_pattern", None),
            (synthesis, "compute_metrics", "synthesis.compute_metrics", None),
            (synthesis, "run_wosc", "engine.run_wosc", None),
            (synthesis, "run_wsc", "engine.run_wsc", None),
            (engine, "update_g_wosc", "subproblems.update_g_wosc",
             lambda args: len(args[0])),
            (engine, "update_gh_wsc", "subproblems.update_gh_wsc",
             lambda args: len(args[0]) + len(args[1])),
            (engine, "update_duals", "engine.update_duals", None),
            (sphere, "secular_bisect", "sphere.secular_bisect", None),
        ):
            self._patch_call(owner, attr, name, count)
        solver = getattr(engine, "SphereSolver", None)
        if solver is None:
            self.missing.append("beamgain.engine.SphereSolver")
        else:
            methods = {"__init__": self.wrap("sphere.init", solver.__init__)}
            if hasattr(solver, "solve"):
                methods["solve"] = self.wrap("sphere.solve", solver.solve)
            else:
                self.missing.append("beamgain.engine.SphereSolver.solve")
            self._patch(engine, "SphereSolver", type(solver.__name__, (solver,), methods))
        eigh = self.wrap("sphere.eigh", np.linalg.eigh)
        self._patch(sphere, "np", _ModuleView(np, linalg=_ModuleView(np.linalg, eigh=eigh)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        """Spans as gzip CSV: id, operation, parent, name, start and end in ns."""
        with gzip.open(path, "wt") as handle:
            handle.write("id,op,parent,name,start_ns,end_ns\n")
            for sid in range(len(self.start)):
                handle.write(
                    f"{sid},{self.op_id[sid]},{self.parent[sid]},"
                    f"{self.names[self.name_id[sid]]},{self.start[sid]},{self.end[sid]}\n"
                )

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, durations (ns) and total self time (ns)."""
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=dur.size)
        self_ns = dur - children
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        out = {}
        for nid, name in enumerate(self.names):
            mask = name_id == nid
            out[name] = {
                "calls": int(mask.sum()),
                "dur_ns": dur[mask],
                "self_ns": float(self_ns[mask].sum()),
            }
        return out


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _per(total, count) -> float:
    return total / count if count else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, answers: list[dict],
                  sweep_bytes: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer ``(value, unit)`` of a traced loop of ``wall_s`` seconds.

    A "share" is self time over the loop's wall time.  Durations are
    medians over spans; per-iteration and per-problem figures are totals
    divided by the counts.  A layer the workload never enters reads 0.
    """
    spans = tracer.summary()
    empty = {"calls": 0, "dur_ns": np.zeros(0), "self_ns": 0.0}

    def get(name):
        return spans.get(name, empty)

    def calls(*names):
        return sum(get(n)["calls"] for n in names)

    def durations(*names):
        return np.concatenate([get(n)["dur_ns"] for n in names])

    def self_ns(*names):
        return sum(get(n)["self_ns"] for n in names)

    def layer_self(layer):
        return sum(v["self_ns"] for k, v in spans.items() if k.split(".")[0] == layer)

    wall_ns = 1e9 * wall_s
    problems = len(answers)
    iterations = sum(a["iterations"] for a in answers)
    runs = calls(*RUN_SPANS)
    solves = calls("sphere.solve")
    levels = calls(*LEVEL_SPANS)
    sweeps = calls("cli.main")
    return {
        "sphere.solve_us": (_median(durations("sphere.solve")) / 1e3, "us"),
        "sphere.solve_share": (layer_self("sphere") / wall_ns, "share"),
        "sphere.secular_us": (_median(durations("sphere.secular_bisect")) / 1e3, "us"),
        "sphere.secular_per_solve": (_per(calls("sphere.secular_bisect"), solves), "ratio"),
        "sphere.eigh_ms": (_median(durations("sphere.eigh")) / 1e6, "ms"),
        "sphere.eigh_per_run": (_per(calls("sphere.eigh"), runs), "count"),
        "sphere.init_ms": (_median(durations("sphere.init")) / 1e6, "ms"),
        "subproblems.level_us": (_median(durations(*LEVEL_SPANS)) / 1e3, "us"),
        "subproblems.level_share": (layer_self("subproblems") / wall_ns, "share"),
        "subproblems.breakpoints": (
            _per(sum(tracer.counts[n] for n in LEVEL_SPANS), levels), "count"),
        "engine.iterations": (_per(iterations, problems), "count"),
        "engine.us_per_iter": (_per(durations(*RUN_SPANS).sum() / 1e3, iterations), "us"),
        "engine.duals_us": (_median(durations("engine.update_duals")) / 1e3, "us"),
        "engine.duals_share": (self_ns("engine.update_duals") / wall_ns, "share"),
        "engine.loop_self_us": (_per(self_ns(*RUN_SPANS) / 1e3, iterations), "us"),
        "engine.converged_share": (
            _per(sum(1 for a in answers if a["converged"]), problems), "share"),
        "engine.share": (layer_self("engine") / wall_ns, "share"),
        "arraymodel.operators_ms": (
            _median(durations("arraymodel.build_gain_operators")) / 1e6, "ms"),
        "arraymodel.operators_calls": (
            _per(calls("arraymodel.build_gain_operators"), problems), "count"),
        "arraymodel.pattern_ms": (
            _median(durations("arraymodel.power_gain_pattern")) / 1e6, "ms"),
        "arraymodel.share": (layer_self("arraymodel") / wall_ns, "share"),
        "synthesis.self_ms": (
            _per(self_ns("synthesis.synthesize", "synthesis.scan_sweep") / 1e6, problems),
            "ms"),
        "synthesis.metrics_ms": (
            _median(durations("synthesis.compute_metrics")) / 1e6, "ms"),
        "synthesis.share": (layer_self("synthesis") / wall_ns, "share"),
        "cli.sweep_self_ms": (_per(self_ns("cli.main") / 1e6, sweeps), "ms"),
        "cli.share": (layer_self("cli") / wall_ns, "share"),
        "exports.write_ms": (_median(durations("exports.export_sweep")) / 1e6, "ms"),
        "exports.bytes": (_per(sum(sweep_bytes), len(sweep_bytes)), "bytes"),
        "exports.share": (layer_self("exports") / wall_ns, "share"),
    }
