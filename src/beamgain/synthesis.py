"""Problem assembly, algorithm dispatch, metrics, and scanning sweeps.

A synthesis problem fixes the mainlobe interval ``center +- beamwidth/2``
sampled at the angular resolution, and the sidelobe region as everything
beyond a guard band on both sides out to +-90 degrees.  Presence of a
desired sidelobe level selects the constrained loop; its dB value maps to
the power ratio ``gamma = 10^(dSLL/10)``.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import TYPE_CHECKING

import numpy as np

from . import engine
from .arraymodel import (
    AngularGrid,
    ArrayGeometry,
    build_gain_operators,
    power_gain_pattern,
    solve_upper,
)
from .engine import AdmmConfig, AdmmHistory, run_wosc, run_wsc
from .errors import BeamgainError, DomainError

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = [
    "SweepRow",
    "SynthesisProblem",
    "SynthesisResult",
    "assemble_regions",
    "compute_metrics",
    "gamma_from_dsll",
    "scan_sweep",
    "synthesize",
]

_EDGE_TOL = 1e-9


def gamma_from_dsll(dsll_db: float) -> float:
    """Desired sidelobe level in dB to the power ratio of the constraint."""
    return float(10.0 ** (dsll_db / 10.0))


@dataclass(frozen=True)
class SynthesisProblem:
    """One synthesis task: geometry, regions, and loop configuration."""

    geometry: ArrayGeometry
    beam_center_deg: float
    beamwidth_deg: float
    resolution_deg: float = 0.5
    guard_deg: float = 3.0
    dsll_db: float | None = None
    admm: AdmmConfig = field(default_factory=AdmmConfig)
    quadrature_order: int | None = None

    def __post_init__(self):
        finite = ("beam_center_deg", "beamwidth_deg", "resolution_deg", "guard_deg")
        if self.dsll_db is not None:
            finite += ("dsll_db",)
        for name in finite:
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.resolution_deg <= 0:
            raise DomainError("resolution must be positive")
        if self.guard_deg < 0:
            raise DomainError("guard must be nonnegative")
        if self.beamwidth_deg <= 0:
            raise DomainError("beamwidth must be positive")
        order = self.quadrature_order
        if order is not None and (not isinstance(order, Integral) or isinstance(order, bool)):
            raise DomainError("quadrature_order must be an integer")


@dataclass(frozen=True)
class SynthesisResult:
    """Converged (or budget-exhausted) synthesis output."""

    weights_effective: NDArray[np.complex128]
    weights_physical: NDArray[np.complex128]
    g0_dbi: float
    admm_g0_dbi: float
    pattern_angles_deg: NDArray[np.float64]
    pattern_dbi: NDArray[np.float64]
    osll_db: float | None
    ripple_db: float
    iterations: int
    converged: bool
    history: AdmmHistory
    mainlobe: AngularGrid
    sidelobe: tuple[AngularGrid, ...]


def _outward_grid(inner: float, limit: float, resolution: float, direction: int) -> AngularGrid | None:
    """Grid anchored at the guard edge stepping toward the region limit."""
    span = (limit - inner) * direction
    if span < -_EDGE_TOL:
        return None
    steps = int(np.floor(span / resolution + _EDGE_TOL))
    angles = inner + direction * resolution * np.arange(steps + 1)
    if direction < 0:
        angles = angles[::-1].copy()
    return AngularGrid(angles=angles)


def assemble_regions(
    theta_c: float, beamwidth: float, guard: float, resolution: float
) -> tuple[AngularGrid, tuple[AngularGrid, ...]]:
    """Mainlobe grid and the sidelobe grids on both sides of the guard band.

    The mainlobe samples ``[theta_c - bw/2, theta_c + bw/2]`` inclusively.
    Sidelobe grids are anchored at the guard edges and step outward, so the
    +-90 endpoints are included exactly when the spans are commensurate
    with the resolution.  A side whose guard edge falls outside +-90 is
    dropped.
    """
    lo = theta_c - beamwidth / 2.0
    hi = theta_c + beamwidth / 2.0
    if lo < -90.0 or hi > 90.0 or beamwidth >= 180.0:
        raise DomainError(
            f"mainlobe [{lo}, {hi}] deg clipped by the visible region"
        )
    mainlobe = AngularGrid.from_span(lo, hi, resolution)
    segments = []
    left = _outward_grid(lo - guard, -90.0, resolution, direction=-1)
    if left is not None:
        segments.append(left)
    right = _outward_grid(hi + guard, 90.0, resolution, direction=+1)
    if right is not None:
        segments.append(right)
    return mainlobe, tuple(segments)


def compute_metrics(
    angles_deg,
    gain_dbi,
    mainlobe: AngularGrid,
    sidelobe: tuple[AngularGrid, ...],
) -> tuple[float, float | None, float]:
    """(min mainlobe gain, obtained SLL, mainlobe ripple) from samples.

    The obtained SLL is the sidelobe maximum minus the mainlobe minimum.
    Samples are selected by membership in the region intervals.
    """
    angles = np.asarray(angles_deg, dtype=float)
    gain = np.asarray(gain_dbi, dtype=float)
    if angles.shape != gain.shape:
        raise DomainError("pattern angle/gain length mismatch")
    ml_lo, ml_hi = mainlobe.angles[0], mainlobe.angles[-1]
    ml_mask = (angles >= ml_lo - _EDGE_TOL) & (angles <= ml_hi + _EDGE_TOL)
    if not np.any(ml_mask):
        raise DomainError("pattern does not cover the mainlobe region")
    g0_dbi = float(np.min(gain[ml_mask]))
    ripple = float(np.max(gain[ml_mask]) - g0_dbi)
    osll = None
    if sidelobe:
        sl_mask = np.zeros_like(ml_mask)
        for segment in sidelobe:
            sl_mask |= (angles >= segment.angles[0] - _EDGE_TOL) & (
                angles <= segment.angles[-1] + _EDGE_TOL
            )
        if not np.any(sl_mask):
            raise DomainError("pattern does not cover the sidelobe region")
        osll = float(np.max(gain[sl_mask]) - g0_dbi)
    return g0_dbi, osll, ripple


def _full_span_grid(resolution: float) -> NDArray[np.float64]:
    steps = int(np.floor(180.0 / resolution + _EDGE_TOL))
    return -90.0 + resolution * np.arange(steps + 1)


def synthesize(problem: SynthesisProblem) -> SynthesisResult:
    """Run the selected loop and assemble weights, pattern, and metrics.

    The run builds the regions, the gain operators and the sphere solver
    (its Gram and ``eigh``), runs the ADMM loop on that solver, and then
    forms the weights, the patterns and the metrics.  The set-up holds the
    run's largest BLAS and LAPACK calls.  They run on one OpenBLAS thread,
    except the two whose bits depend on the thread count and which keep the
    caller's: the sidelobe Gram ``Q Q^H`` and, for tabulated element
    patterns, the quadrature product of the total-power matrix; each is
    followed by a one-thread block, which stops the BLAS helper threads it
    woke (in a process running one Python thread).  The loop's sidelobe
    products and the pattern products run in row blocks below OpenBLAS's
    threading size.  So no helper spins beside the loop, and an
    unconstrained run on isotropic elements leaves none running.
    Non-convergence within the iteration budget is reported through the
    ``converged`` flag, not an error, so sweeps can proceed.
    """
    mainlobe, sidelobe = assemble_regions(
        problem.beam_center_deg,
        problem.beamwidth_deg,
        problem.guard_deg,
        problem.resolution_deg,
    )
    constrained = problem.dsll_db is not None
    ops = build_gain_operators(
        problem.geometry,
        mainlobe,
        sidelobe if constrained else (),
        quadrature_order=problem.quadrature_order,
    )
    if constrained and not ops.Q.shape[1]:
        raise DomainError("sidelobe constraint requested but region is empty")
    # looked up at call time, so that a wrapper installed on the engine's
    # name sees every solver built
    solver = engine.SphereSolver(ops.P, ops.Q if constrained else None)
    if constrained:
        state = run_wsc(ops, problem.admm, gamma_from_dsll(problem.dsll_db), solver=solver)
    else:
        state = run_wosc(ops, problem.admm, solver=solver)

    weights_effective = solve_upper(ops.C, state.x)
    weights_physical = weights_effective / np.sqrt(problem.geometry.efficiencies)

    pattern_angles = _full_span_grid(problem.resolution_deg)
    pattern_dbi = power_gain_pattern(
        problem.geometry, weights_effective, pattern_angles, total_power=ops.A
    )
    region_angles = np.concatenate(
        [mainlobe.angles] + [seg.angles for seg in sidelobe]
    )
    region_dbi = power_gain_pattern(
        problem.geometry, weights_effective, region_angles, total_power=ops.A
    )
    g0_dbi, osll_db, ripple_db = compute_metrics(
        region_angles, region_dbi, mainlobe, sidelobe
    )
    return SynthesisResult(
        weights_effective=weights_effective,
        weights_physical=weights_physical,
        g0_dbi=g0_dbi,
        admm_g0_dbi=state.g0_dbi,
        pattern_angles_deg=pattern_angles,
        pattern_dbi=pattern_dbi,
        osll_db=osll_db,
        ripple_db=ripple_db,
        iterations=state.iteration,
        converged=state.converged,
        history=state.history,
        mainlobe=mainlobe,
        sidelobe=sidelobe,
    )


@dataclass(frozen=True)
class SweepRow:
    """One scanning-sweep entry; ``error`` is set when the run failed."""

    theta_c_deg: float
    g0_dbi: float
    osll_db: float | None
    ripple_db: float
    iterations: int
    converged: bool
    wall_ms: float
    error: str | None = None


def _sweep_one(problem: SynthesisProblem, center: float) -> SweepRow:
    """The timed row of ``problem`` at ``center``; a model error becomes an error row."""
    start = time.perf_counter()
    try:
        result = synthesize(replace(problem, beam_center_deg=center))
    except BeamgainError as exc:
        wall = 1e3 * (time.perf_counter() - start)
        return SweepRow(center, float("nan"), None, float("nan"), 0, False, wall,
                        error=str(exc))
    return SweepRow(
        center,
        result.g0_dbi,
        result.osll_db,
        result.ripple_db,
        result.iterations,
        result.converged,
        1e3 * (time.perf_counter() - start),
    )


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def scan_sweep(problem: SynthesisProblem, centers) -> list[SweepRow]:
    """Independent cold-start runs for each beam center, in center order.

    Each row is one :func:`synthesize` call at its center, so its answer is
    bit-identical to that call's, and its ``wall_ms`` is the call's time.
    The centers are solved in forked worker processes, one per CPU, or in
    this process when there would be fewer than two workers or the platform
    cannot fork.  The centers are cut into one contiguous chunk per worker,
    each a single task, so the parent pickles the problem once per worker,
    not once per center.  Forked workers start from the parent's loaded modules; spawned
    ones would import numpy and beamgain again for each sweep.  The pool
    modules are imported here so that ``import beamgain`` does not pay for
    them.
    """
    import multiprocessing

    centers = [float(c) for c in centers]
    n = len(centers)
    workers = min(n, _cpu_count())
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [_sweep_one(problem, c) for c in centers]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(_sweep_one, [problem] * n, centers, chunksize=-(-n // workers)))
