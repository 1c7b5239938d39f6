"""The three benchmark workloads: seeded problem sequences and their operations.

Every workload is a closed loop with one caller.  A run goes pass by pass;
pass 0 is always the published configuration at beam center 0, later passes
move the beam center to seeded values.  No problem repeats within a run, so
a result cache cannot show a gain a user would not see.

* ``wosc-ula41``: one pass is the four unconstrained acceptance rows
  (ula41, beamwidth 10/20/30/40 deg) at one center, one ``synthesize()``
  call each.  The sphere solve dominates here.
* ``wsc-nonuniform41``: one pass is the four constrained acceptance rows
  (nonuniform41, 20 deg beam, dSLL -20/-25/-30/-35 dB).  The level update
  and the sidelobe dual step carry more of the load here.
* ``sweep-nonuniform41``: one pass is one ``beamgain sweep`` command, driven
  in-process through ``beamgain.cli.main``, over the nine centers
  ``s:s+40:5`` at dSLL -20 dB with the default thread count.  This is the
  only workload where sharing work across problems can pay off, and the
  only one that runs the CLI and the CSV export.

Centers of the first two workloads come from the 0.5 deg grid in [-30, 30]
without replacement.  Sweep starts come from a 0.1 deg grid in
[-39.9, -0.1], at most one per residue class modulo 5 deg, so no two sweeps
of a run share a center.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import beamgain.cli
import beamgain.synthesis
from beamgain import AdmmConfig, SynthesisProblem, nonuniform41, ula41

WOSC = "wosc-ula41"
WSC = "wsc-nonuniform41"
SWEEP = "sweep-nonuniform41"
NAMES = (WOSC, WSC, SWEEP)

RESOLUTION_DEG = 0.5
GUARD_DEG = 3.0
WOSC_BEAMWIDTHS = (10.0, 20.0, 30.0, 40.0)
WOSC_ADMM = AdmmConfig(rho_init=1000.0, rho_decay=0.99, iter_max=2000)
WSC_BEAMWIDTH = 20.0
WSC_DSLL = (-20.0, -25.0, -30.0, -35.0)
WSC_ADMM = AdmmConfig(rho_init=2000.0, rho_decay=0.99, iter_max=2000)
SWEEP_DSLL = -20.0
SWEEP_SPAN_DEG = 40.0
SWEEP_STEP_DEG = 5.0

# Published minimum mainlobe gains of pass 0 and their acceptance
# tolerances.  The -35 dB row has no entry: its 6.93 dBi reference lies above
# the convex-relaxation bound of that configuration, so missing it is not
# counted as a failure.
REFERENCE_G0 = {
    (WOSC, 10.0): (9.59, 0.15),
    (WOSC, 20.0): (7.04, 0.15),
    (WOSC, 30.0): (5.49, 0.15),
    (WOSC, 40.0): (4.36, 0.15),
    (WSC, -20.0): (7.03, 0.2),
    (WSC, -25.0): (7.01, 0.2),
    (WSC, -30.0): (6.98, 0.2),
}
SLL_TOLERANCE_DB = 0.2


@dataclass(frozen=True)
class Op:
    """One user operation: a ``synthesize()`` call or a sweep command."""

    pass_index: int
    problem: SynthesisProblem | None = None
    sweep_start: float | None = None

    @property
    def size(self) -> int:
        """Problems solved by the operation."""
        return 1 if self.problem is not None else len(self.sweep_centers)

    @property
    def sweep_centers(self) -> list[float]:
        count = int(round(SWEEP_SPAN_DEG / SWEEP_STEP_DEG)) + 1
        return [self.sweep_start + SWEEP_STEP_DEG * i for i in range(count)]

    @property
    def sweep_arg(self) -> str:
        stop = round(self.sweep_start + SWEEP_SPAN_DEG, 6)
        return f"{self.sweep_start:g}:{stop:g}:{SWEEP_STEP_DEG:g}"


@dataclass
class Outcome:
    """What one operation returned, kept for the answer check."""

    op: Op
    wall_s: float
    error: str | None = None
    weights: np.ndarray | None = None
    g0_dbi: float | None = None
    osll_db: float | None = None
    iterations: int | None = None
    converged: bool | None = None
    exit_code: int | None = None
    rows: list[dict] = field(default_factory=list)
    bytes_written: int = 0
    failed: int = 0


def _synth_problem(workload: str, center: float, knob: float) -> SynthesisProblem:
    if workload == WOSC:
        return SynthesisProblem(
            geometry=ula41(), beam_center_deg=center, beamwidth_deg=knob,
            resolution_deg=RESOLUTION_DEG, guard_deg=GUARD_DEG, admm=WOSC_ADMM,
        )
    return SynthesisProblem(
        geometry=nonuniform41(), beam_center_deg=center,
        beamwidth_deg=WSC_BEAMWIDTH, resolution_deg=RESOLUTION_DEG,
        guard_deg=GUARD_DEG, dsll_db=knob, admm=WSC_ADMM,
    )


def _knobs(workload: str) -> tuple[float, ...]:
    return WOSC_BEAMWIDTHS if workload == WOSC else WSC_DSLL


def first_problem(workload: str) -> SynthesisProblem:
    """The first problem a run solves (pass 0, first row)."""
    if workload == SWEEP:
        return _synth_problem(WSC, 0.0, SWEEP_DSLL)
    return _synth_problem(workload, 0.0, _knobs(workload)[0])


def spread_order(n: int, rng) -> list[int]:
    """Seeded order of ``range(n)`` whose every prefix is spread evenly.

    A van der Corput (bit-reversal) sequence rotated by a seeded offset: a
    run that stops after any number of passes has seen centers from across
    the whole range, so the problem mix, and with it the timings, varies
    less from seed to seed than with a plain permutation.
    """
    bits = max(1, (n - 1).bit_length())
    offset = int(rng.integers(n))
    reversed_bits = (int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits))
    return [(r + offset) % n for r in reversed_bits if r < n]


def passes(workload: str, seed: int):
    """Seeded sequence of passes; each pass is a list of operations."""
    rng = np.random.default_rng(seed)
    if workload == SWEEP:
        yield [Op(0, sweep_start=0.0)]
        # Residue classes 0.1 .. 4.9 deg modulo the 5 deg step (class 0 is
        # pass 0); each class gives one start in [-39.9, -0.1], so the nine
        # centers stay in [-40, 40] and never meet a center of another pass.
        for k, i in enumerate(spread_order(49, rng), start=1):
            shift = int(rng.integers(1, 9))
            yield [Op(k, sweep_start=round(0.1 * (i + 1) - SWEEP_STEP_DEG * shift, 1))]
        return
    knobs = _knobs(workload)
    yield [Op(0, problem=_synth_problem(workload, 0.0, k)) for k in knobs]
    grid = [0.5 * i for i in range(-60, 61) if i != 0]
    for k, i in enumerate(spread_order(len(grid), rng), start=1):
        yield [Op(k, problem=_synth_problem(workload, grid[i], knob)) for knob in knobs]


def sweep_config(workdir: Path) -> Path:
    """Write the sweep's JSON run configuration; returns its path."""
    admm = WSC_ADMM
    config = {
        "geometry": {"fixture": "nonuniform41"},
        "problem": {
            "beam_center_deg": 0.0,
            "beamwidth_deg": WSC_BEAMWIDTH,
            "resolution_deg": RESOLUTION_DEG,
            "guard_deg": GUARD_DEG,
            "dsll_db": SWEEP_DSLL,
        },
        "admm": {
            "rho_init": admm.rho_init,
            "rho_decay": admm.rho_decay,
            "iter_max": admm.iter_max,
        },
    }
    path = workdir / "sweep_config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path


def call(op: Op, config: Path, workdir: Path):
    """The timed part of an operation: the call into beamgain, nothing else.

    Functions are looked up on their modules at call time, so the traced run
    sees them through its wrappers.
    """
    if op.problem is not None:
        return beamgain.synthesis.synthesize(op.problem)
    return beamgain.cli.main([
        "sweep", "--config", str(config), f"--centers={op.sweep_arg}",
        "--out", str(workdir),
    ])


def record(op: Op, wall_s: float, value, workdir: Path) -> Outcome:
    """Keep what the answer check needs from a finished operation."""
    if op.problem is not None:
        return Outcome(
            op=op, wall_s=wall_s,
            weights=np.array(value.weights_effective, dtype=complex),
            g0_dbi=float(value.g0_dbi),
            osll_db=None if value.osll_db is None else float(value.osll_db),
            iterations=int(value.iterations),
            converged=bool(value.converged),
        )
    path = workdir / "sweep.csv"
    outcome = Outcome(op=op, wall_s=wall_s, exit_code=int(value))
    if path.is_file():
        outcome.bytes_written = path.stat().st_size
        with open(path, newline="") as handle:
            outcome.rows = list(csv.DictReader(handle))
        path.unlink()
    return outcome
