"""ADMM loops maximizing the minimum mainlobe gain amplitude.

Each iteration updates the auxiliary gain levels through their piecewise
analytic minimizer, re-solves the weight vector on the unit sphere against
the current targets, then takes a scaled dual ascent step.  One penalty rho
serves both constraint blocks (the scaled form of Boyd et al. 2011, §3.1);
it decays geometrically each iteration down to a fixed floor, and a run
stops once every constraint residual drops below the tolerance or the
iteration budget is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import TYPE_CHECKING

import numpy as np

from .arraymodel import GainOperators
from .errors import DomainError, NumericalError
from .sphere import SphereSolver, one_blas_thread
from .subproblems import update_g_wosc, update_gh_wsc

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = ["AdmmConfig", "AdmmHistory", "AdmmState", "run_wosc", "run_wsc", "update_duals"]


def amplitude_to_dbi(g0: float) -> float:
    """Gain amplitude to dBi: ``10 log10(2 g0^2)`` (unit-sphere convention)."""
    return 10.0 * np.log10(max(2.0 * g0 * g0, 1e-300))


# Both residuals must fall to this for a run to count as converged.
RESIDUAL_TOL = 1e-4
# The penalty decays no further than this, which bounds the dual step 1/rho.
RHO_FLOOR = 1e-3


@dataclass(frozen=True)
class AdmmConfig:
    """Penalty schedule and iteration budget shared by both loop variants."""

    rho_init: float = 1000.0
    rho_decay: float = 0.99
    iter_max: int = 2000

    def __post_init__(self):
        if not 1.0 < self.rho_init < 10000.0:
            raise DomainError("rho_init must lie in (1, 10000)")
        if not 0.0 < self.rho_decay <= 1.0:
            raise DomainError("rho_decay must lie in (0, 1]")
        if not isinstance(self.iter_max, Integral) or isinstance(self.iter_max, bool):
            raise DomainError("iter_max must be an integer")
        if self.iter_max < 1:
            raise DomainError("iter_max must be at least 1")


@dataclass
class AdmmHistory:
    """Per-iteration trace of the run."""

    g0_amp: list[float] = field(default_factory=list)
    residual_ml: list[float] = field(default_factory=list)
    residual_sl: list[float] = field(default_factory=list)
    rho: list[float] = field(default_factory=list)

    def append(self, g0_amp, residual_ml, residual_sl, rho):
        self.g0_amp.append(float(g0_amp))
        self.residual_ml.append(float(residual_ml))
        self.residual_sl.append(float(residual_sl))
        self.rho.append(float(rho))

    def __len__(self) -> int:
        return len(self.g0_amp)


@dataclass
class AdmmState:
    """Mutable iterate of one run; a run owns exactly one state."""

    x: NDArray[np.complex128]
    g0: float
    g: NDArray[np.complex128]
    h: NDArray[np.complex128]
    u1: NDArray[np.complex128]
    u2: NDArray[np.complex128]
    rho: float
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
    state.u1 = state.u1 + r1 / state.rho
    state.residual_ml = float(np.abs(r1).max())
    if qx is not None and qx.size:
        r2 = qx - state.h
        state.u2 = state.u2 + r2 / state.rho
        state.residual_sl = float(np.abs(r2).max())
    else:
        state.residual_sl = 0.0
    return state


def _initial_state(n: int, l_ml: int, l_sl: int, rho: float) -> AdmmState:
    return AdmmState(
        x=np.zeros(n, dtype=complex),
        g0=0.0,
        g=np.zeros(l_ml, dtype=complex),
        h=np.zeros(l_sl, dtype=complex),
        u1=np.zeros(l_ml, dtype=complex),
        u2=np.zeros(l_sl, dtype=complex),
        rho=rho,
    )


def _run(p, q, cfg: AdmmConfig, gamma, solver: SphereSolver, callback=None) -> AdmmState:
    """The loop, on one OpenBLAS thread (:func:`one_blas_thread`) throughout.

    So no product of the loop wakes OpenBLAS's helper thread.  ``P d1`` and
    ``Q d2`` in the solve are computed as OpenBLAS's two-thread split
    (:class:`beamgain.sphere.RowBlockedProduct`), and ``[P^H; Q^H] x``
    rounds alike on one thread and two.  ``callback`` runs inside the block,
    so its BLAS calls run on one thread.
    """
    n, l_ml = p.shape
    if l_ml == 0:
        raise DomainError("mainlobe operator must have at least one column")
    q = None if q is None or q.shape[1] == 0 else q
    l_sl = 0 if q is None else q.shape[1]

    # [P^H; Q^H], C-ordered: one product gives P^H x and Q^H x, each row's
    # dot product rounding as it does alone
    adjoint = np.ascontiguousarray((p if q is None else np.hstack((p, q))).conj().T)
    state = _initial_state(n, l_ml, l_sl, cfg.rho_init)
    with one_blas_thread():
        pqx = adjoint @ state.x
        for k in range(cfg.iter_max):
            scaled_u1 = state.rho * state.u1
            z1 = pqx[:l_ml] + scaled_u1
            if q is None:
                state.g0, state.g = update_g_wosc(z1, state.rho)
                d2 = None
            else:
                scaled_u2 = state.rho * state.u2
                z2 = pqx[l_ml:] + scaled_u2
                state.g0, state.g, state.h = update_gh_wsc(z1, z2, state.rho, gamma)
                d2 = state.h - scaled_u2
            d1 = state.g - scaled_u1
            try:
                state.x = solver.solve(d1, d2)
            except NumericalError as exc:
                raise NumericalError(f"iteration {k + 1}: {exc}") from exc
            pqx = adjoint @ state.x
            update_duals(state, pqx[:l_ml], pqx[l_ml:] if q is not None else None)
            state.iteration = k + 1
            state.history.append(
                state.g0, state.residual_ml, state.residual_sl, state.rho
            )
            if callback is not None:
                callback(state)
            if state.residual_ml <= RESIDUAL_TOL and (
                q is None or state.residual_sl <= RESIDUAL_TOL
            ):
                state.converged = True
                break
            state.rho = max(state.rho * cfg.rho_decay, RHO_FLOOR)
    return state


def run_wosc(
    ops: GainOperators, cfg: AdmmConfig, callback=None, solver: SphereSolver | None = None
) -> AdmmState:
    """Mainlobe-only loop: gain levels, sphere weight update, dual step.

    Starts from zero weights and duals; the targets of the sphere step are
    ``g - rho u``.  Stops when ``max|P^H x - g|`` falls below the residual
    tolerance or at the iteration cap, whichever first.  ``solver`` is a
    :class:`SphereSolver` already built for ``ops.P``; one is built here when
    it is omitted.
    """
    if solver is None:
        solver = SphereSolver(ops.P)
    return _run(ops.P, None, cfg, None, solver, callback)


def run_wsc(
    ops: GainOperators,
    cfg: AdmmConfig,
    gamma: float,
    callback=None,
    solver: SphereSolver | None = None,
) -> AdmmState:
    """Sidelobe-constrained loop with the combined sphere update.

    ``gamma`` is the sidelobe power ratio of the cap ``|Q^H x| <= sqrt(gamma)
    g0``.  The weight step minimizes the sum of both constraint blocks;
    convergence requires both residuals below the tolerance.  An empty
    sidelobe operator reproduces :func:`run_wosc` exactly.  ``solver`` is a
    :class:`SphereSolver` already built for ``ops.P`` and ``ops.Q``; one is
    built here when it is omitted.
    """
    if gamma is None or not gamma > 0:
        raise DomainError("sidelobe-constrained run requires a positive gamma")
    if solver is None:
        solver = SphereSolver(ops.P, ops.Q)
    return _run(ops.P, ops.Q, cfg, gamma, solver, callback)
