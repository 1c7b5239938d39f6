"""Brute-force references certifying the analytic solvers.

These deliberately avoid the production code paths: the level-update
oracles scan a dense one-dimensional grid of the clamped cost (one penalty
rho on both blocks, as in the ADMM loop), the sphere oracle polishes random
complex unit starts by projected gradient descent on ``||P^H x - d||^2``
(a two-block problem is checked on the stacked ``[P Q]`` and ``[d1; d2]``),
and the secular oracle finds every real root by sign-change scanning.  They are
desk-scale tools.  Full-scale runs are checked against published values,
capped by :func:`dual_certificate`: a weak-duality upper bound on the best
minimum mainlobe gain of the whole problem, verified by one ``eigvalsh``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = [
    "OracleReport",
    "clamped_cost_wosc",
    "clamped_cost_wsc",
    "dual_certificate",
    "oracle_g0_grid_wosc",
    "oracle_g0_grid_wsc",
    "oracle_secular_scan",
    "oracle_sphere",
    "secular_cost",
]


@dataclass
class OracleReport:
    """Engine-versus-oracle comparison, persisted with inputs for replay."""

    name: str
    oracle_cost: float
    engine_cost: float
    samples_or_gridstep: str
    inputs: dict = field(default_factory=dict)

    @property
    def gap(self) -> float:
        """Signed gap; positive means the engine did worse than the oracle."""
        return self.engine_cost - self.oracle_cost

    def to_json_line(self) -> str:
        payload = {
            "name": self.name,
            "oracle_cost": self.oracle_cost,
            "engine_cost": self.engine_cost,
            "gap": self.gap,
            "samples_or_gridstep": self.samples_or_gridstep,
            "inputs": self.inputs,
        }
        return json.dumps(payload, sort_keys=True)


def clamped_cost_wosc(g0, y, rho: float):
    """Cost of the mainlobe level update after clamping g optimally.

    Vectorized over g0: ``-g0 + sum(max(g0 - |y|, 0)^2) / (2 rho)``.
    """
    g0 = np.asarray(g0, dtype=float)
    moduli = np.abs(np.asarray(y, dtype=complex))
    excess = np.maximum(g0[..., None] - moduli, 0.0)
    return -g0 + np.sum(excess * excess, axis=-1) / (2.0 * rho)


def clamped_cost_wsc(g0, z1, z2, rho: float, gamma: float):
    """Joint clamped cost with the sidelobe cap term, vectorized over g0."""
    g0 = np.asarray(g0, dtype=float)
    m1 = np.abs(np.asarray(z1, dtype=complex))
    m2 = np.abs(np.asarray(z2, dtype=complex))
    sqrt_gamma = np.sqrt(gamma)
    up = np.maximum(g0[..., None] - m1, 0.0)
    down = np.maximum(m2 - sqrt_gamma * g0[..., None], 0.0)
    return (
        -g0
        + np.sum(up * up, axis=-1) / (2.0 * rho)
        + np.sum(down * down, axis=-1) / (2.0 * rho)
    )


# Ternary-search rounds whose probe points one cost call evaluates.
_ROUNDS_PER_CALL = 6


def _ternary_probes(lo, hi, rounds):
    """Probe points of every bracket ternary search can reach from [lo, hi].

    Level r holds the 2^r brackets reachable after r rounds, each given by
    its two thirds ``(m1, m2)``; bracket i's children are 2i (``hi = m2``,
    taken when ``m1`` costs less) and 2i + 1 (``lo = m1``).  The arithmetic
    is the search's own, so each point has the bits the search computes.
    """
    los, his = np.asarray([lo]), np.asarray([hi])
    levels = []
    for _ in range(rounds):
        third = (his - los) / 3.0
        m1, m2 = los + third, his - third
        levels.append((m1, m2))
        los, his = los.repeat(2), his.repeat(2)
        los[1::2], his[::2] = m1, m2
    return levels


def _ternary_search(cost_fn, lo, hi):
    """The bracket ternary search leaves around the minimizer of ``cost_fn``.

    Up to 200 rounds, each keeping the two thirds of the bracket on the side
    of its cheaper third point, until the bracket is narrower than
    ``1e-13 (1 + hi)``.  One cost call evaluates the third points of the
    next :data:`_ROUNDS_PER_CALL` rounds along every path they may take
    (:func:`_ternary_probes`).  The costs sum over their last axis, so each
    point costs the same bits in a batch as alone, and the search follows
    the same brackets, and ends with the same bits, as one that evaluates
    two points per round.
    """
    rounds = 0
    while True:
        levels = _ternary_probes(lo, hi, min(_ROUNDS_PER_CALL, 200 - rounds))
        values = cost_fn(np.concatenate([m for level in levels for m in level]))
        offset, node = 0, 0
        for m1, m2 in levels:
            width = m1.size
            if values[offset + node] < values[offset + width + node]:
                hi, node = m2[node], 2 * node
            else:
                lo, node = m1[node], 2 * node + 1
            offset += 2 * width
            rounds += 1
            if hi - lo < 1e-13 * (1.0 + hi) or rounds == 200:
                return lo, hi


def _grid_minimize(cost_fn, breakpoints, g0_max, step):
    """Dense scan plus one ternary-search pass around the grid minimum."""
    breakpoints = np.asarray(breakpoints, dtype=float)
    top = float(np.max(breakpoints)) if breakpoints.size else 1.0
    if g0_max is None:
        g0_max = 1.2 * max(top, 1e-12)
    if g0_max < top:
        warnings.warn(
            f"g0_max {g0_max:.3g} below the largest breakpoint; widened",
            stacklevel=3,
        )
        g0_max = 1.2 * top
    if step is None:
        step = 1e-3 * g0_max
    if step > 1e-3 * g0_max:
        raise DomainError("oracle grid step too coarse for the requested range")
    grid = np.arange(step, g0_max + step, step)
    inside = breakpoints[(breakpoints > 0) & (breakpoints < g0_max)]
    if inside.size:
        midpoints = 0.5 * (np.sort(inside)[1:] + np.sort(inside)[:-1])
        grid = np.unique(np.concatenate((grid, inside, midpoints)))
    costs = cost_fn(grid)
    best = int(np.argmin(costs))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    lo, hi = _ternary_search(cost_fn, lo, hi)
    refined = 0.5 * (lo + hi)
    refined_cost = float(cost_fn(np.asarray([refined]))[0])
    if refined_cost <= costs[best]:
        return float(refined), refined_cost
    return float(grid[best]), float(costs[best])


def oracle_g0_grid_wosc(y, rho: float, g0_max=None, step=None):
    """Grid-scan the mainlobe level cost; returns the minimizing (g0, cost)."""
    y = np.asarray(y, dtype=complex)
    moduli = np.abs(y)
    stationary_top = (rho + float(np.sum(moduli))) / y.size
    breakpoints = np.concatenate((moduli, [stationary_top]))
    return _grid_minimize(
        lambda g: clamped_cost_wosc(g, y, rho), breakpoints, g0_max, step
    )


def oracle_g0_grid_wsc(z1, z2, rho: float, gamma: float):
    """Grid-scan the joint level cost; returns the minimizing (g0, cost)."""
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    stationary_top = (rho + float(np.sum(np.abs(z1)))) / z1.size
    breakpoints = np.concatenate(
        (np.abs(z1), np.abs(z2) / np.sqrt(gamma), [stationary_top])
    )
    return _grid_minimize(
        lambda g: clamped_cost_wsc(g, z1, z2, rho, gamma), breakpoints, None, None
    )


def oracle_sphere(p, d, n_restarts: int = 20000, n_polish: int = 8,
                  seed: int | None = None):
    """Best complex unit vector for ``||P^H x - d||^2`` from polished starts.

    Samples ``n_restarts`` random complex unit vectors, then runs projected
    gradient descent (gradient ``2 P (P^H x - d)``, step one over its
    Lipschitz constant ``2 ||P||_2^2``, renormalization) on the best
    ``n_polish`` until the step falls below 1e-10.  Returns ``(x, cost)``.
    """
    p = np.atleast_2d(np.asarray(p, dtype=complex))
    d = np.asarray(d, dtype=complex)[:, None]
    ph = p.conj().T
    dim = p.shape[0]
    rng = np.random.default_rng(seed)
    starts = rng.normal(size=(dim, n_restarts)) + 1j * rng.normal(size=(dim, n_restarts))
    starts /= np.linalg.norm(starts, axis=0)

    def costs(x):
        residuals = ph @ x - d
        return np.sum(residuals.real ** 2 + residuals.imag ** 2, axis=0)

    x = starts[:, np.argsort(costs(starts))[: max(1, n_polish)]]
    rate = 1.0 / max(2.0 * np.linalg.norm(p, 2) ** 2, 1e-30)
    for _ in range(20000):
        x_new = x - rate * 2.0 * (p @ (ph @ x - d))
        x_new /= np.linalg.norm(x_new, axis=0)
        movement = np.max(np.linalg.norm(x_new - x, axis=0))
        x = x_new
        if movement < 1e-10:
            break
    final = costs(x)
    best = int(np.argmin(final))
    return x[:, best], float(final[best])


def secular_cost(lambdas, beta, nu: float) -> float:
    """Quadratic cost of the eigenbasis coefficients implied by a root nu."""
    lambdas = np.asarray(lambdas, dtype=float)
    beta = np.asarray(beta, dtype=float)
    alpha = beta / (lambdas - nu)
    return float(alpha @ (lambdas * alpha) - 2.0 * beta @ alpha)


def oracle_secular_scan(lambdas, beta) -> NDArray[np.float64]:
    """All real roots of the secular function by sign-change scanning.

    Scans ``[min(lambda) - sqrt(M) max|beta| - 1, max(lambda) + sqrt(M)
    max|beta| + 1]`` and refines each bracket by bisection.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    beta = np.asarray(beta, dtype=float)
    nonzero = beta != 0.0
    lam = lambdas[nonzero]
    b_sq = beta[nonzero] ** 2
    if lam.size == 0:
        return np.zeros(0)
    reach = np.sqrt(lambdas.size) * float(np.max(np.abs(beta)))
    lo = float(np.min(lambdas)) - reach - 1.0
    hi = float(np.max(lambdas)) + reach + 1.0
    step = 1e-5 * (hi - lo)
    grid = np.arange(lo, hi + step, step)
    with np.errstate(divide="ignore"):
        values = np.sum(b_sq[None, :] / (grid[:, None] - lam[None, :]) ** 2, axis=1) - 1.0
    values[~np.isfinite(values)] = np.inf

    def f(nu):
        with np.errstate(divide="ignore"):
            return float(np.sum(b_sq / (nu - lam) ** 2) - 1.0)

    roots = []
    signs = np.sign(values)
    for i in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
        a, b = float(grid[i]), float(grid[i + 1])
        fa = f(a)
        for _ in range(200):
            mid = 0.5 * (a + b)
            fm = f(mid)
            if not np.isfinite(fm):
                break
            if (fm > 0) == (fa > 0):
                a, fa = mid, fm
            else:
                b = mid
            if b - a < 1e-13 * (1.0 + abs(mid)):
                break
        root = 0.5 * (a + b)
        if np.isfinite(f(root)):
            roots.append(root)
    for i in np.nonzero(values == 0.0)[0]:
        roots.append(float(grid[i]))
    return np.unique(np.asarray(sorted(roots)))


class _CapInfeasible(Exception):
    """Raised once the multipliers reach a nonpositive maximum eigenvalue."""


def _lambda_max(P, Q, mu, nu) -> float:
    """Largest eigenvalue of ``sum mu_l p_l p_l^H - sum nu_s q_s q_s^H``."""
    m = (P * mu) @ P.conj().T - (Q * nu) @ Q.conj().T
    return float(np.linalg.eigvalsh(m)[-1])


def _kkt_warm_start(P, Q, gamma: float, x):
    """Multipliers fitted to the stationarity condition ``M x = t x``.

    Only samples within 0.2 dB of the binding level carry weight:
    mainlobe samples near the minimum gain of ``x`` and sidelobe samples near
    its sidelobe peak.  The nonnegative least-squares fit includes the row
    ``sum(mu) - gamma sum(nu) = 1``; returns ``None`` when the fit cannot be
    normalized onto it.
    """
    from scipy.optimize import nnls

    x = np.asarray(x, dtype=complex)
    x = x / np.linalg.norm(x)
    a = P.conj().T @ x
    b = Q.conj().T @ x
    power_a = np.abs(a) ** 2
    power_b = np.abs(b) ** 2
    t = float(np.min(power_a))
    window = 10.0 ** 0.02
    near_l = power_a <= t * window
    near_s = np.zeros(Q.shape[1], dtype=bool)
    if Q.shape[1]:
        near_s = power_b >= np.max(power_b) / window
    columns = np.hstack((P[:, near_l] * a[near_l], -Q[:, near_s] * b[near_s]))
    balance = np.concatenate((np.ones(near_l.sum()), -gamma * np.ones(near_s.sum())))
    system = np.vstack((columns.real, columns.imag, 10.0 * t * balance))
    target = np.concatenate(((t * x).real, (t * x).imag, [10.0 * t]))
    coef, _ = nnls(system, target)
    mu = np.zeros(P.shape[1])
    nu = np.zeros(Q.shape[1])
    mu[near_l] = coef[: near_l.sum()]
    nu[near_s] = coef[near_l.sum():]
    scale = mu.sum() - gamma * nu.sum()
    if not scale > 0:
        return None
    return mu / scale, nu / scale


def dual_certificate(P, Q, gamma: float, x=None):
    """Weak-duality upper bound on the best minimum mainlobe gain under a cap.

    For any ``mu >= 0``, ``nu >= 0`` with ``sum(mu) - gamma sum(nu) = 1``,
    every unit ``x`` with ``|q_s^H x|^2 <= gamma min_l |p_l^H x|^2`` obeys
    ``min_l |p_l^H x|^2 <= lambda_max(sum mu_l p_l p_l^H - sum nu_s q_s q_s^H)``;
    this is the Lagrangian dual of the semidefinite relaxation.  The
    multipliers minimize the smoothed maximum eigenvalue
    ``tau log sum exp(lambda_i / tau)`` by a projected quasi-Newton method,
    over four values of ``tau`` decreasing tenfold from 1% of the starting
    bound, 150 steps each.  A near-optimal whitened weight vector ``x``
    (``AdmmState.x``, or ``C @ weights_effective``) seeds them through
    :func:`_kkt_warm_start`; without one, or if that fit fails, the start
    is ``mu = 1/L``, ``nu = 0``.

    Returns ``(bound, mu, nu)``.  ``bound`` is the ``eigvalsh`` maximum
    eigenvalue at the returned multipliers, in units of ``|p^H x|^2``, so the
    gain bound is ``10 log10(2 bound)`` dBi.  A bound at or below zero
    certifies that no weight vector meets the cap.  An empty ``Q`` drops the
    cap.
    """
    P = np.asarray(P, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    n_ml, n_sl = P.shape[1], Q.shape[1]
    if n_ml == 0:
        raise DomainError("the certificate needs at least one mainlobe column")
    if not n_sl:
        gamma = 1.0
    elif not gamma > 0:
        raise DomainError("gamma must be positive")

    start = None if x is None else _kkt_warm_start(P, Q, gamma, x)
    if start is None:
        start = (np.full(n_ml, 1.0 / n_ml), np.zeros(n_sl))
    mu, nu = start
    best = [_lambda_max(P, Q, mu, nu), mu, nu]

    # z = (w, v) >= 0 maps onto the constraint: nu = v / sqrt(gamma) and
    # mu = (1 + sqrt(gamma) sum v) w / sum w, so sum(mu) - gamma sum(nu) = 1
    # for every z.  Near the optimum |q_s^H x|^2 ~ gamma |p_l^H x|^2, so the
    # sqrt(gamma) scaling gives both blocks curvature of one order.
    root_gamma = np.sqrt(gamma)
    W = np.hstack((P, Q))
    W_h = np.ascontiguousarray(W.conj().T)

    def smoothed(z, tau):
        w, v = z[:n_ml], z[n_ml:]
        w_sum = w.sum()
        if not w_sum > 0:
            return np.inf, None
        c = 1.0 + root_gamma * v.sum()
        mu, nu = c * w / w_sum, v / root_gamma
        m = (W * np.concatenate((mu, -nu))) @ W_h
        if not np.all(np.isfinite(m)):
            return np.inf, None
        lam, U = np.linalg.eigh(m)
        if lam[-1] < best[0]:
            best[:] = [float(lam[-1]), mu, nu]
        if lam[-1] <= 0.0:
            raise _CapInfeasible
        weights = np.exp((lam - lam[-1]) / tau)
        total = weights.sum()
        B = U.conj().T @ W
        grad = (weights / total) @ (B.real ** 2 + B.imag ** 2)
        g_ml, g_sl = grad[:n_ml], grad[n_ml:]
        g_bar = g_ml @ w / w_sum
        gradient = np.concatenate(
            (c / w_sum * (g_ml - g_bar), root_gamma * g_bar - g_sl / root_gamma)
        )
        return lam[-1] + tau * np.log(total), gradient

    z = np.concatenate((mu / mu.sum(), root_gamma * nu))
    tau = 1e-2 * best[0]
    try:
        for _ in range(4):
            z = _projected_quasi_newton(lambda z: smoothed(z, tau), z, iterations=150)
            tau /= 10.0
    except _CapInfeasible:
        pass  # the multipliers in ``best`` already certify it

    _, mu, nu = best
    scale = mu.sum() - gamma * nu.sum()
    mu, nu = mu / scale, nu / scale
    return _lambda_max(P, Q, mu, nu), mu, nu


def _projected_quasi_newton(fun, z, iterations: int):
    """Minimize ``fun`` over ``z >= 0``; returns the last accepted iterate.

    L-BFGS directions (ten pairs) on the free variables, those not held at
    zero by a positive gradient, then a projected backtracking step with an
    Armijo test.  Stops early once a step no longer lowers ``fun``.
    """
    f, g = fun(z)
    pairs: list[tuple[NDArray, NDArray]] = []
    for _ in range(iterations):
        free = ~((z <= 1e-12) & (g > 0))
        q = np.where(free, g, 0.0)
        curvature = [(s, y, s[free] @ y[free]) for s, y in pairs]
        curvature = [(s, y, sy) for s, y, sy in curvature if sy > 0]
        alphas = []
        for s, y, sy in reversed(curvature):
            alphas.append((s[free] @ q[free]) / sy)
            q[free] -= alphas[-1] * y[free]
        if curvature:
            s, y, sy = curvature[-1]
            q *= sy / (y[free] @ y[free])
        else:
            q *= 1e-2 * z.sum() / max(float(np.max(np.abs(q))), 1e-300)
        for (s, y, sy), alpha in zip(curvature, reversed(alphas)):
            q[free] += (alpha - (y[free] @ q[free]) / sy) * s[free]
        direction = -q
        if g @ direction >= 0:
            direction = -np.where(free, g, 0.0)
            pairs = []
        step = 1.0
        while step >= 1e-12:
            z_new = np.maximum(z + step * direction, 0.0)
            f_new, g_new = fun(z_new)
            if f_new <= f + 1e-4 * (g @ (z_new - z)):
                break
            step *= 0.5
        else:
            return z
        pairs = (pairs + [(z_new - z, g_new - g)])[-10:]
        stalled = f - f_new <= 1e-15 * abs(f)
        z, f, g = z_new, f_new, g_new
        if stalled:
            break
    return z
