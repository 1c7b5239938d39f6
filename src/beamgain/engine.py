"""ADMM loops maximizing the minimum mainlobe gain amplitude.

Each iteration updates the auxiliary gain levels through their piecewise
analytic minimizer, re-solves the weight vector on the unit sphere against
the current targets, then takes a scaled dual ascent step.  The penalties
decay geometrically each iteration down to a configurable floor; a run
stops once every constraint residual drops below the tolerance or the
iteration budget is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .arraymodel import GainOperators
from .errors import DomainError, NumericalError
from .sphere import SphereSolver
from .subproblems import update_g_wosc, update_gh_wsc

__all__ = ["AdmmConfig", "AdmmHistory", "AdmmState", "run_wosc", "run_wsc", "update_duals"]


def amplitude_to_dbi(g0: float) -> float:
    """Gain amplitude to dBi: ``10 log10(2 g0^2)`` (unit-sphere convention)."""
    return 10.0 * np.log10(max(2.0 * g0 * g0, 1e-300))


@dataclass(frozen=True)
class AdmmConfig:
    """Tuning parameters shared by both loop variants.

    ``gamma`` is the sidelobe power ratio (only consulted with a sidelobe
    block).  ``rho_floor`` keeps the penalties strictly positive and bounds
    the dual step 1/rho; the decay stops there.
    """

    rho_init: float = 1000.0
    rho2_init: float | None = None
    rho_decay: float = 0.99
    iter_max: int = 2000
    residual_tol: float = 1e-4
    secular_tol: float = 1e-12
    gamma: float | None = None
    rho_floor: float = 1e-3

    def __post_init__(self):
        for name, rho in (("rho_init", self.rho_init), ("rho2_init", self.rho2_init)):
            if rho is not None and not 1.0 < rho < 10000.0:
                raise DomainError(f"{name} must lie in (1, 10000)")
        if not 0.0 < self.rho_decay <= 1.0:
            raise DomainError("rho_decay must lie in (0, 1]")
        if self.iter_max < 1:
            raise DomainError("iter_max must be at least 1")
        if self.residual_tol <= 0:
            raise DomainError("residual_tol must be positive")
        if self.secular_tol <= 0:
            raise DomainError("secular_tol must be positive")
        if self.gamma is not None and not self.gamma > 0:
            raise DomainError("gamma must be positive")
        if not 0.0 < self.rho_floor <= self.rho_init:
            raise DomainError("rho_floor must lie in (0, rho_init]")


@dataclass
class AdmmHistory:
    """Per-iteration trace of the run."""

    iteration: list[int] = field(default_factory=list)
    g0_amp: list[float] = field(default_factory=list)
    residual_ml: list[float] = field(default_factory=list)
    residual_sl: list[float] = field(default_factory=list)
    rho1: list[float] = field(default_factory=list)
    rho2: list[float] = field(default_factory=list)
    dual_inc_1: list[float] = field(default_factory=list)
    dual_inc_2: list[float] = field(default_factory=list)

    def append(self, iteration, g0_amp, residual_ml, residual_sl, rho1, rho2,
               dual_inc_1, dual_inc_2):
        self.iteration.append(int(iteration))
        self.g0_amp.append(float(g0_amp))
        self.residual_ml.append(float(residual_ml))
        self.residual_sl.append(float(residual_sl))
        self.rho1.append(float(rho1))
        self.rho2.append(float(rho2))
        self.dual_inc_1.append(float(dual_inc_1))
        self.dual_inc_2.append(float(dual_inc_2))

    @property
    def g0_dbi(self) -> list[float]:
        return [amplitude_to_dbi(g) for g in self.g0_amp]

    def __len__(self) -> int:
        return len(self.iteration)


@dataclass
class AdmmState:
    """Mutable iterate of one run; a run owns exactly one state."""

    x: NDArray[np.complex128]
    g0: float
    g: NDArray[np.complex128]
    h: NDArray[np.complex128]
    u1: NDArray[np.complex128]
    u2: NDArray[np.complex128]
    rho1: float
    rho2: float
    iteration: int = 0
    residual_ml: float = np.inf
    residual_sl: float = np.inf
    converged: bool = False
    history: AdmmHistory = field(default_factory=AdmmHistory)

    @property
    def g0_dbi(self) -> float:
        return amplitude_to_dbi(self.g0)


def update_duals(
    state: AdmmState,
    px: NDArray[np.complex128],
    qx: NDArray[np.complex128] | None = None,
) -> AdmmState:
    """Scaled dual ascent: ``u += (op^H x - target) / rho``; refresh residuals.

    ``px`` and ``qx`` are the region products ``P^H x`` and ``Q^H x`` at the
    current weights; the loop reuses them for the next level update.
    """
    r1 = px - state.g
    state.u1 = state.u1 + r1 / state.rho1
    state.residual_ml = float(np.max(np.abs(r1)))
    if qx is not None and qx.size:
        r2 = qx - state.h
        state.u2 = state.u2 + r2 / state.rho2
        state.residual_sl = float(np.max(np.abs(r2)))
    else:
        state.residual_sl = 0.0
    return state


def _initial_state(n: int, l_ml: int, l_sl: int, rho1: float, rho2: float) -> AdmmState:
    return AdmmState(
        x=np.zeros(n, dtype=complex),
        g0=0.0,
        g=np.zeros(l_ml, dtype=complex),
        h=np.zeros(l_sl, dtype=complex),
        u1=np.zeros(l_ml, dtype=complex),
        u2=np.zeros(l_sl, dtype=complex),
        rho1=rho1,
        rho2=rho2,
    )


def _run(p, q, cfg: AdmmConfig, callback=None) -> AdmmState:
    n, l_ml = p.shape
    if l_ml == 0:
        raise DomainError("mainlobe operator must have at least one column")
    q = None if q is None or q.shape[1] == 0 else q
    l_sl = 0 if q is None else q.shape[1]
    if q is not None and cfg.gamma is None:
        raise DomainError("gamma is required when a sidelobe block is present")

    solver = SphereSolver(p, q, secular_tol=cfg.secular_tol)
    ph = np.ascontiguousarray(p.conj().T)
    qh = np.ascontiguousarray(q.conj().T) if q is not None else None
    rho2_init = cfg.rho_init if cfg.rho2_init is None else cfg.rho2_init
    state = _initial_state(n, l_ml, l_sl, cfg.rho_init, rho2_init)
    px = ph @ state.x
    qx = qh @ state.x if q is not None else None

    for k in range(cfg.iter_max):
        z1 = px + state.rho1 * state.u1
        if q is None:
            state.g0, state.g = update_g_wosc(z1, state.rho1)
        else:
            z2 = qx + state.rho2 * state.u2
            state.g0, state.g, state.h = update_gh_wsc(
                z1, z2, state.rho1, state.rho2, cfg.gamma
            )
        d1 = state.g - state.rho1 * state.u1
        d2 = state.h - state.rho2 * state.u2 if q is not None else None
        try:
            state.x = solver.solve(
                d1, d2, weight_ml=1.0 / state.rho1, weight_sl=1.0 / state.rho2
            )
        except NumericalError as exc:
            raise NumericalError(f"iteration {k + 1}: {exc}") from exc
        px = ph @ state.x
        if q is not None:
            qx = qh @ state.x
        update_duals(state, px, qx)
        state.iteration = k + 1
        state.history.append(
            state.iteration,
            state.g0,
            state.residual_ml,
            state.residual_sl,
            state.rho1,
            state.rho2,
            state.residual_ml / state.rho1,
            state.residual_sl / state.rho2 if q is not None else 0.0,
        )
        if callback is not None:
            callback(state)
        if state.residual_ml <= cfg.residual_tol and (
            q is None or state.residual_sl <= cfg.residual_tol
        ):
            state.converged = True
            break
        state.rho1 = max(state.rho1 * cfg.rho_decay, cfg.rho_floor)
        state.rho2 = max(state.rho2 * cfg.rho_decay, cfg.rho_floor)
    return state


def run_wosc(ops: GainOperators, cfg: AdmmConfig, callback=None) -> AdmmState:
    """Mainlobe-only loop: gain levels, sphere weight update, dual step.

    Starts from zero weights and duals; the targets of the sphere step are
    ``g - rho u``.  Stops when ``max|P^H x - g|`` falls below the residual
    tolerance or at the iteration cap, whichever first.
    """
    return _run(ops.P, None, cfg, callback)


def run_wsc(ops: GainOperators, cfg: AdmmConfig, callback=None) -> AdmmState:
    """Sidelobe-constrained loop with the combined weighted sphere update.

    The weight step minimizes the sum of both constraint blocks weighted by
    the reciprocal penalties; convergence requires both residuals below the
    tolerance.  An empty sidelobe operator reproduces :func:`run_wosc`
    exactly.
    """
    if ops.Q.shape[1] and cfg.gamma is None:
        raise DomainError("sidelobe-constrained run requires gamma")
    return _run(ops.P, ops.Q, cfg, callback)
