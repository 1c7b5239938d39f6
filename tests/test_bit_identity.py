"""The ADMM hot path against a frozen copy of its earlier implementation.

The loop amplifies rounding exponentially: a 5e-15 change in ``P^H x`` at
iteration 0 grows to order one within about a hundred iterations on ula41
with a 30 deg beam.  Speed-ups of ``engine`` and ``sphere`` must therefore
leave every floating-point result unchanged.  The reference below keeps the
earlier ``_run``, ``update_duals``, ``SphereSolver``, ``_unit_coefficients``
and ``secular_bisect`` verbatim, with the helpers they call, and two full
acceptance rows must agree bit for bit.
"""

from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from numpy.typing import NDArray

from beamgain import (
    AdmmConfig,
    AdmmState,
    DomainError,
    NumericalError,
    assemble_regions,
    build_gain_operators,
    gamma_from_dsll,
    nonuniform41,
    run_wosc,
    run_wsc,
    ula41,
    update_g_wosc,
    update_gh_wsc,
)
from beamgain.engine import AdmmHistory

# ---------------------------------------------------------------------------
# Reference implementation (verbatim apart from names).
# ---------------------------------------------------------------------------

_BETA_CUTOFF = 1e-14
_WIDTH_FACTOR = 1e-14


def complex_to_real(x) -> NDArray[np.float64]:
    """Stack a complex vector as [real; imag]."""
    x = np.asarray(x, dtype=complex)
    return np.concatenate((x.real, x.imag))


def real_to_complex(xt) -> NDArray[np.complex128]:
    """Inverse of :func:`complex_to_real`; length must be even."""
    xt = np.asarray(xt, dtype=float)
    if xt.size % 2:
        raise DomainError("realified vector length must be even")
    half = xt.size // 2
    return xt[:half] + 1j * xt[half:]


def _realify_hermitian(h: NDArray[np.complex128]) -> NDArray[np.float64]:
    """Realified form of a Hermitian matrix; equals ``Pt @ Pt.T`` for h = P P^H."""
    re, im = h.real, h.imag
    return np.block([[re, -im], [im, re]])


@dataclass(frozen=True)
class SecularSystem:
    """Eigensystem data feeding the secular equation."""

    lambdas: NDArray[np.float64]
    U: NDArray[np.float64]
    beta: NDArray[np.float64]

    def __post_init__(self):
        lambdas = np.asarray(self.lambdas, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        u = np.asarray(self.U, dtype=float)
        if lambdas.ndim != 1 or beta.shape != lambdas.shape:
            raise DomainError("eigenvalues and projections must match in length")
        if lambdas.min(initial=0.0) < -1e-10 * max(1.0, abs(lambdas.max(initial=0.0))):
            raise DomainError("Gram eigenvalues must be nonnegative")
        if u.size and np.linalg.norm(u.T @ u - np.eye(u.shape[1])) > 1e-9:
            raise DomainError("eigenvector matrix must be orthogonal")
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "U", u)


def _secular_f(nu: float, lambdas, beta_sq) -> float:
    return float(np.sum(beta_sq / (nu - lambdas) ** 2) - 1.0)


def _secular_fprime(nu: float, lambdas, beta_sq) -> float:
    return float(-2.0 * np.sum(beta_sq / (nu - lambdas) ** 3))


def secular_bisect(system: SecularSystem, tol: float = 1e-12) -> float:
    """Smallest root of the secular equation by safeguarded bisection.

    The root is bracketed by

        [ min(lambda_n - sqrt(M) |beta_n|),
          min( min(lambda_n - |beta_n|), max(lambda_n - sqrt(M) |beta_n|) ) ]

    over the components with nonzero beta (M is their count; the bound
    derivation only sees components that contribute to the sum).  Bisection
    is accelerated with Newton steps kept inside the shrinking bracket and
    stops at ``|f(nu)| <= tol`` or bracket width ``1e-14 (1 + |nu|)``.
    """
    lambdas = np.asarray(system.lambdas, dtype=float)
    beta = np.asarray(system.beta, dtype=float)
    mask = beta != 0.0
    if not np.any(mask):
        raise DomainError("beta must not be identically zero")
    lam = lambdas[mask]
    ab = np.abs(beta[mask])
    beta_sq = ab * ab
    sqrt_m = np.sqrt(ab.size)

    lower = float(np.min(lam - sqrt_m * ab))
    upper = float(min(np.min(lam - ab), np.max(lam - sqrt_m * ab)))
    scale = 1.0 + abs(lower) + abs(upper)
    nudge = 1e3 * np.finfo(float).eps * scale
    f_lower = _secular_f(lower, lam, beta_sq)
    if not np.isfinite(f_lower):
        lower -= nudge
        f_lower = _secular_f(lower, lam, beta_sq)
    f_upper = _secular_f(upper, lam, beta_sq)
    if not np.isfinite(f_upper):
        upper -= nudge
        f_upper = _secular_f(upper, lam, beta_sq)
    if f_lower > tol or f_upper < -tol:
        raise NumericalError(
            f"secular bracket invalid: f({lower:.6e}) = {f_lower:.3e}, "
            f"f({upper:.6e}) = {f_upper:.3e}"
        )
    if abs(f_lower) <= tol:
        return lower
    if abs(f_upper) <= tol:
        return upper

    lo, hi = lower, upper
    nu = 0.5 * (lo + hi)
    for _ in range(300):
        f_nu = _secular_f(nu, lam, beta_sq)
        if np.isfinite(f_nu) and abs(f_nu) <= tol:
            return nu
        if not np.isfinite(f_nu) or f_nu > 0:
            hi = nu
        else:
            lo = nu
        if hi - lo <= _WIDTH_FACTOR * (1.0 + abs(nu)):
            return nu
        nu_next = 0.5 * (lo + hi)
        if np.isfinite(f_nu):
            slope = _secular_fprime(nu, lam, beta_sq)
            if slope > 0:
                newton = nu - f_nu / slope
                if lo < newton < hi:
                    nu_next = newton
        nu = nu_next
    return nu


def _unit_coefficients(
    lambdas: NDArray[np.float64], beta: NDArray[np.float64], tol: float
) -> NDArray[np.float64]:
    """Coefficients of the constrained minimizer in the Gram eigenbasis."""
    beta_max = float(np.max(np.abs(beta)))
    alpha = np.zeros_like(beta)
    if beta_max == 0.0:
        alpha[0] = 1.0
        return alpha
    mask = np.abs(beta) > _BETA_CUTOFF * beta_max
    lam_min = float(lambdas[0])
    span = float(lambdas[-1] - lambdas[0])
    gap_tol = 1e-12 * max(1.0, abs(lam_min) + span)
    bottom = lambdas - lam_min <= gap_tol
    if not np.any(mask & bottom):
        gaps = lambdas[mask] - lam_min
        residual_sum = float(np.sum((beta[mask] / gaps) ** 2))
        if residual_sum < 1.0:
            alpha[mask] = beta[mask] / gaps
            alpha[0] += np.sqrt(1.0 - residual_sum)
            return alpha
    system = SecularSystem(
        lambdas=lambdas[mask], U=np.zeros((0, 0)), beta=beta[mask]
    )
    nu = secular_bisect(system, tol)
    denom = lambdas[mask] - nu
    denom = np.where(denom > 0, denom, np.finfo(float).tiny)
    alpha[mask] = beta[mask] / denom
    return alpha / np.linalg.norm(alpha)


class SphereSolver:
    """Reusable sphere least-squares solver for fixed region operators.

    The Gram eigendecomposition depends only on the operators and the ratio
    of the block weights, so a run whose penalties decay by a common factor
    reuses one factorization across all iterations.
    """

    def __init__(
        self,
        p: NDArray[np.complex128],
        q: NDArray[np.complex128] | None = None,
        secular_tol: float = 1e-12,
    ):
        self._p = np.asarray(p, dtype=complex)
        q = None if q is None or q.size == 0 else np.asarray(q, dtype=complex)
        self._q = q
        self._tol = secular_tol
        self._gram_p = _realify_hermitian(self._p @ self._p.conj().T)
        self._gram_q = (
            _realify_hermitian(q @ q.conj().T) if q is not None else None
        )
        self._ratio: float | None = None
        self._lambdas: NDArray[np.float64] | None = None
        self._u: NDArray[np.float64] | None = None

    def _eigensystem(self, ratio: float):
        if (
            self._lambdas is None
            or self._ratio is None
            or abs(ratio - self._ratio) > 1e-12 * max(abs(ratio), 1.0)
        ):
            gram = self._gram_p.copy()
            if self._gram_q is not None:
                gram += ratio * self._gram_q
            self._lambdas, self._u = np.linalg.eigh(gram)
            self._ratio = ratio
        return self._lambdas, self._u

    def solve(
        self,
        d1,
        d2=None,
        weight_ml: float = 1.0,
        weight_sl: float = 1.0,
    ) -> NDArray[np.complex128]:
        """Unit-norm complex minimizer of the weighted stacked least squares."""
        ratio = weight_sl / weight_ml if self._q is not None else 0.0
        lambdas, u = self._eigensystem(ratio)
        b = self._p @ np.asarray(d1, dtype=complex)
        if self._q is not None:
            b = b + ratio * (self._q @ np.asarray(d2, dtype=complex))
        beta = u.T @ complex_to_real(b)
        alpha = _unit_coefficients(lambdas, beta, self._tol)
        x = u @ alpha
        return real_to_complex(x / np.linalg.norm(x))


def update_duals(
    state: AdmmState,
    p: NDArray[np.complex128],
    q: NDArray[np.complex128] | None = None,
) -> AdmmState:
    """Scaled dual ascent: ``u += (op^H x - target) / rho``; refresh residuals."""
    r1 = p.conj().T @ state.x - state.g
    state.u1 = state.u1 + r1 / state.rho1
    state.residual_ml = float(np.max(np.abs(r1)))
    if q is not None and q.shape[1]:
        r2 = q.conj().T @ state.x - state.h
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

    for k in range(cfg.iter_max):
        z1 = ph @ state.x + state.rho1 * state.u1
        if q is None:
            state.g0, state.g = update_g_wosc(z1, state.rho1)
        else:
            z2 = qh @ state.x + state.rho2 * state.u2
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
        update_duals(state, p, q)
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


# ---------------------------------------------------------------------------
# The comparison.
# ---------------------------------------------------------------------------

ROWS = {
    "ula41-30deg": (ula41, 30.0, None, AdmmConfig(rho_init=1000.0, rho_decay=0.99, iter_max=2000)),
    "nonuniform41-35dB": (
        nonuniform41, 20.0, -35.0, AdmmConfig(rho_init=2000.0, rho_decay=0.99, iter_max=2000)
    ),
}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_run_matches_reference_bit_for_bit(row):
    fixture, beamwidth, dsll, cfg = ROWS[row]
    mainlobe, sidelobe = assemble_regions(0.0, beamwidth, 3.0, 0.5)
    ops = build_gain_operators(fixture(), mainlobe, sidelobe if dsll is not None else ())
    if dsll is None:
        new = run_wosc(ops, cfg)
        ref = _run(ops.P, None, cfg)
    else:
        cfg = replace(cfg, gamma=gamma_from_dsll(dsll))
        new = run_wsc(ops, cfg)
        ref = _run(ops.P, ops.Q, cfg)

    assert new.iteration == ref.iteration
    assert new.converged == ref.converged
    for name in ("x", "g", "h", "u1", "u2"):
        assert np.array_equal(getattr(new, name), getattr(ref, name)), name
    assert np.array_equal(new.g0, ref.g0)
    for column in fields(AdmmHistory):
        a = getattr(new.history, column.name)
        b = getattr(ref.history, column.name)
        assert np.array_equal(a, b), column.name
