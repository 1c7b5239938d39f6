"""Independent answer check for every benchmark operation.

A ``synthesize()`` result is checked by recomputing its pattern from
``weights_effective`` with the benchmark's own formula for isotropic
elements,

    G(theta) = 2 |a(theta)^H w|^2 / (w^H A w),
    a_n = exp(2j pi r_n sin theta),   A_mn = 2 sinc(2 (r_m - r_n)),

on region grids rebuilt here, and comparing the minimum mainlobe gain and
the obtained sidelobe level with what the program reported.  A sweep is
checked row by row from its ``sweep.csv``.

``verdict`` returns ``(correct, failed, reasons)`` with ``failed`` counted
in problems (a sweep holds nine).  A problem is not correct when it raised,
returned a non-finite answer, or reported numbers the recomputation does not
reproduce.  It failed when it is not correct, did not converge, exceeded its
sidelobe cap by more than the acceptance tolerance, or, on pass 0, missed a
published gain by more than its tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import REFERENCE_G0, SLL_TOLERANCE_DB, SWEEP_DSLL, Outcome

RECOMPUTE_TOL_DB = 1e-6


def gain_dbi(positions, weights, theta_deg) -> np.ndarray:
    r = np.asarray(positions, dtype=float)
    w = np.asarray(weights, dtype=complex)
    u = np.sin(np.radians(np.asarray(theta_deg, dtype=float)))
    steer = np.exp(2j * np.pi * np.outer(r, u))
    total = 2.0 * np.sinc(2.0 * (r[:, None] - r[None, :]))
    power = np.real(w.conj() @ total @ w)
    return 10.0 * np.log10(2.0 * np.abs(steer.conj().T @ w) ** 2 / power)


def regions(center, beamwidth, guard, resolution):
    """Mainlobe and sidelobe sample angles, rebuilt from the problem."""
    lo, hi = center - beamwidth / 2.0, center + beamwidth / 2.0
    count = int(round(beamwidth / resolution))
    mainlobe = lo + resolution * np.arange(count + 1)
    left = np.arange(lo - guard, -90.0 - 1e-9, -resolution)
    right = np.arange(hi + guard, 90.0 + 1e-9, resolution)
    return mainlobe, np.concatenate((left, right))


def _check_synth(outcome: Outcome, workload: str) -> tuple[bool, list[str]]:
    problem = outcome.op.problem
    w = outcome.weights
    if not (np.all(np.isfinite(w)) and np.any(w)):
        return False, ["weights are non-finite or zero"]
    if not math.isfinite(outcome.g0_dbi):
        return False, ["g0_dbi is not finite"]
    mainlobe, sidelobe = regions(
        problem.beam_center_deg, problem.beamwidth_deg, problem.guard_deg,
        problem.resolution_deg,
    )
    positions = problem.geometry.positions
    g0 = float(np.min(gain_dbi(positions, w, mainlobe)))
    osll = float(np.max(gain_dbi(positions, w, sidelobe))) - g0
    correct, reasons = True, []
    if abs(g0 - outcome.g0_dbi) > RECOMPUTE_TOL_DB:
        correct = False
        reasons.append(f"g0_dbi {outcome.g0_dbi:.9f} but recomputed {g0:.9f}")
    if outcome.osll_db is not None and abs(osll - outcome.osll_db) > RECOMPUTE_TOL_DB:
        correct = False
        reasons.append(f"osll_db {outcome.osll_db:.9f} but recomputed {osll:.9f}")
    if problem.dsll_db is not None:
        if outcome.osll_db is None or not math.isfinite(outcome.osll_db):
            return False, ["osll_db missing for a capped problem"]
        if osll - problem.dsll_db > SLL_TOLERANCE_DB:
            reasons.append(f"sidelobe {osll:.3f} dB over cap {problem.dsll_db}")
    if not outcome.converged:
        reasons.append(f"not converged in {outcome.iterations} iterations")
    knob = problem.beamwidth_deg if problem.dsll_db is None else problem.dsll_db
    reference = REFERENCE_G0.get((workload, knob))
    if outcome.op.pass_index == 0 and reference is not None:
        target, tol = reference
        if abs(outcome.g0_dbi - target) > tol:
            reasons.append(f"g0 {outcome.g0_dbi:.3f} dBi vs published {target} (+-{tol})")
    return correct, reasons


def _check_sweep(outcome: Outcome) -> tuple[bool, int, list[str]]:
    centers = outcome.op.sweep_centers
    if len(outcome.rows) != len(centers):
        return False, len(centers), [
            f"sweep exit code {outcome.exit_code}: "
            f"{len(outcome.rows)} rows for {len(centers)} centers"
        ]
    correct, failed, reasons = True, 0, []
    for row, center in zip(outcome.rows, centers):
        try:
            values = {k: float(row[k] or "nan") for k in
                      ("theta_c_deg", "g0_dbi", "osll_db", "ripple_db", "iterations")}
        except (KeyError, ValueError):
            correct, failed = False, failed + 1
            reasons.append(f"center {center}: unreadable row {row}")
            continue
        problems = []
        if abs(values["theta_c_deg"] - center) > 1e-6:
            correct = False
            problems.append(f"row center {values['theta_c_deg']}")
        if not all(math.isfinite(v) for v in values.values()):
            correct = False
            problems.append("non-finite row (the run raised)")
        elif values["osll_db"] - SWEEP_DSLL > SLL_TOLERANCE_DB:
            problems.append(f"sidelobe {values['osll_db']:.3f} dB over cap")
        if row.get("converged") != "true":
            problems.append("not converged")
        if problems:
            failed += 1
            reasons.append(f"center {center}: " + ", ".join(problems))
    if outcome.exit_code != 0 and not failed:
        correct, failed = False, len(centers)
        reasons.append(f"sweep exit code {outcome.exit_code} with every row valid")
    return correct, failed, reasons


def verdict(outcome: Outcome, workload: str) -> tuple[bool, int, list[str]]:
    """(correct, failed problems, reasons) for one finished operation."""
    if outcome.error is not None:
        return False, outcome.op.size, [outcome.error]
    if outcome.op.problem is None:
        return _check_sweep(outcome)
    correct, reasons = _check_synth(outcome, workload)
    return correct, int(bool(reasons) or not correct), reasons


def answer_fields(outcome: Outcome) -> list[dict]:
    """Per-problem answer fields written into the result file."""
    op = outcome.op
    if op.problem is not None:
        p = op.problem
        return [{
            "pass": op.pass_index,
            "theta_c_deg": p.beam_center_deg,
            "beamwidth_deg": p.beamwidth_deg,
            "dsll_db": p.dsll_db,
            "g0_dbi": outcome.g0_dbi,
            "osll_db": outcome.osll_db,
            "iterations": outcome.iterations,
            "converged": outcome.converged,
            "wall_ms": 1e3 * outcome.wall_s,
        }]
    return [{
        "pass": op.pass_index,
        "theta_c_deg": float(row["theta_c_deg"]),
        "dsll_db": SWEEP_DSLL,
        "g0_dbi": float(row["g0_dbi"]),
        "osll_db": float(row["osll_db"]) if row["osll_db"] else None,
        "iterations": int(row["iterations"]),
        "converged": row["converged"] == "true",
        "wall_ms": float(row["wall_ms"]),
    } for row in outcome.rows]
