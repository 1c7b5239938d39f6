"""The ADMM hot path against a frozen copy of its earlier implementation.

The loop amplifies rounding exponentially: a 5e-15 change in ``P^H x`` at
iteration 0 grows to order one within about a hundred iterations on ula41
with a 30 deg beam.  Speed-ups of ``engine``, ``sphere`` and
``subproblems`` must therefore leave every floating-point result unchanged.
The reference below keeps the earlier ``_run``, ``update_duals``,
``SphereSolver``, ``_unit_coefficients``, ``secular_bisect`` and the level
updates ``update_g_wosc`` and ``update_gh_wsc`` verbatim, with the helpers
they call and the state, history and configuration records they read, and
two full acceptance rows and a wide-mainlobe row must agree bit for bit.
Two products depart from the earlier code: the reference computes ``P d1``
and ``Q d2`` as OpenBLAS computes them at two threads, but on one thread
(``_two_thread_product``), whose bits the production products give at any
thread count, so that the rows agree at one OpenBLAS thread as well as at
two.  The wide-mainlobe row is the one whose ``P`` reaches OpenBLAS's
threading size.  The reference carries
separate mainlobe and sidelobe penalties ``rho1`` and ``rho2``; both start
at ``rho_init`` and decay together, so each must equal the single
production ``rho``.

Every solve of those two rows goes through the secular root, so the sphere
solver and the level updates are also compared call by call on seeded
inputs that reach the other branches: targets in the hard case (no
component on the bottom eigenspace and a norm deficit), zero targets, tied
moduli and the all-zero input of the first iteration.
"""

from dataclasses import dataclass, field, fields, replace

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
)
from beamgain import sphere as production_sphere
from beamgain import subproblems as production_levels
from beamgain.engine import AdmmHistory, amplitude_to_dbi
from beamgain.sphere import one_blas_thread

# ---------------------------------------------------------------------------
# Reference implementation (verbatim apart from names).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceConfig:
    """The configuration fields the reference loop reads, at their defaults."""

    rho_init: float
    rho_decay: float
    iter_max: int
    gamma: float | None = None
    rho2_init: float | None = None
    residual_tol: float = 1e-4
    secular_tol: float = 1e-12
    rho_floor: float = 1e-3


@dataclass
class ReferenceHistory:
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
class ReferenceState:
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
    history: ReferenceHistory = field(default_factory=ReferenceHistory)

    @property
    def g0_dbi(self) -> float:
        return amplitude_to_dbi(self.g0)


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


def _two_thread_product(a, v) -> NDArray[np.complex128]:
    """``a @ v`` as OpenBLAS computes it at two threads, but on one thread.

    At two threads OpenBLAS splits the rows of an F-ordered operand of at
    least 4096 entries at ``ceil(m/2)`` when each half has 4 rows or more,
    and each half rounds as its own product; a smaller operand is one
    product, and a C-ordered one rounds alike however it is split.
    Computing the halves on one thread gives those bits at any thread count.
    """
    m, n = a.shape
    half = -(-m // 2)
    with one_blas_thread():
        if not a.flags.f_contiguous or m * n < 4096 or half < 4:
            return a @ v
        return np.concatenate((a[:half] @ v, a[half:] @ v))


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
        b = _two_thread_product(self._p, np.asarray(d1, dtype=complex))
        if self._q is not None:
            b = b + ratio * _two_thread_product(self._q, np.asarray(d2, dtype=complex))
        beta = u.T @ complex_to_real(b)
        alpha = _unit_coefficients(lambdas, beta, self._tol)
        x = u @ alpha
        return real_to_complex(x / np.linalg.norm(x))


def _checked_complex(name: str, values) -> NDArray[np.complex128]:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be a 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite entries")
    return arr


def update_g_wosc(
    y, rho: float
) -> tuple[float, NDArray[np.complex128]]:
    """Minimize ``-g0 + ||y - g||^2 / (2 rho)`` over ``|g_l| >= g0 > 0``.

    The sorted moduli of y split (0, inf) into len(y)+1 subdomains.  Inside
    each, the clamp set is the entries below g0 and the restricted cost is a
    quadratic with unconstrained minimizer ``(rho + sum of clamped moduli) /
    count``, clipped to the subdomain.  Returns the winning ``(g0, g)`` with
    ``g = max(g0, |y|) * exp(1j angle(y))``.
    """
    y = _checked_complex("y", y)
    if y.size == 0:
        raise DomainError("y must have at least one entry")
    if not rho > 0:
        raise DomainError("rho must be positive")
    moduli = np.sort(np.abs(y))
    count = np.arange(moduli.size + 1)
    clamped_sum = np.concatenate(([0.0], np.cumsum(moduli)))
    clamped_sumsq = np.concatenate(([0.0], np.cumsum(moduli * moduli)))
    lower = np.concatenate(([0.0], moduli))
    upper = np.concatenate((moduli, [np.inf]))
    with np.errstate(divide="ignore", invalid="ignore"):
        stationary = (rho + clamped_sum) / count
    candidates = np.clip(stationary, lower, upper)
    candidates[0] = upper[0]
    cost = -candidates + (
        count * candidates**2 - 2.0 * candidates * clamped_sum + clamped_sumsq
    ) / (2.0 * rho)
    g0 = float(candidates[np.argmin(cost)])
    g = np.maximum(np.abs(y), g0) * np.exp(1j * np.angle(y))
    return g0, g


def update_gh_wsc(
    z1, z2, rho: float, gamma: float
) -> tuple[float, NDArray[np.complex128], NDArray[np.complex128]]:
    """Joint minimizer with mainlobe floor and sidelobe cap constraints.

    Breakpoints are the merged ascending values of ``|z1|`` and
    ``|z2|/sqrt(gamma)``.  Within a subdomain the mainlobe clamp set is the
    entries with threshold below g0 and the sidelobe clamp set those with
    threshold above g0; the stationary point of the restricted quadratic is

        (rho^2 + rho S1 + rho sqrt(gamma) S2) / (rho k1 + rho gamma k2)

    with S1, k1 the clamped mainlobe modulus sum/count and S2, k2 the
    clamped sidelobe ones.  An empty sidelobe vector reduces to
    :func:`update_g_wosc`.
    """
    z1 = _checked_complex("z1", z1)
    z2 = _checked_complex("z2", z2)
    if z1.size == 0:
        raise DomainError("z1 must have at least one entry")
    if not rho > 0:
        raise DomainError("rho must be positive")
    if not gamma > 0:
        raise DomainError("gamma must be positive")
    if z2.size == 0:
        g0, g = update_g_wosc(z1, rho)
        return g0, g, np.zeros(0, dtype=complex)

    sqrt_gamma = float(np.sqrt(gamma))
    abs1 = np.abs(z1)
    abs2 = np.abs(z2)
    thresholds = np.concatenate((abs1, abs2 / sqrt_gamma))
    is_sidelobe = np.concatenate(
        (np.zeros(abs1.size, dtype=bool), np.ones(abs2.size, dtype=bool))
    )
    moduli = np.concatenate((abs1, abs2))
    order = np.argsort(thresholds, kind="stable")
    thresholds = thresholds[order]
    is_sidelobe = is_sidelobe[order]
    moduli = moduli[order]

    ml_moduli = np.where(is_sidelobe, 0.0, moduli)
    k1 = np.concatenate(([0], np.cumsum(~is_sidelobe)))
    s1 = np.concatenate(([0.0], np.cumsum(ml_moduli)))
    q1 = np.concatenate(([0.0], np.cumsum(ml_moduli * ml_moduli)))

    sl_moduli = np.where(is_sidelobe, moduli, 0.0)
    sl_prefix = np.concatenate(([0], np.cumsum(is_sidelobe)))
    k2 = sl_prefix[-1] - sl_prefix
    s2 = np.sum(sl_moduli) - np.concatenate(([0.0], np.cumsum(sl_moduli)))
    q2 = np.sum(sl_moduli * sl_moduli) - np.concatenate(
        ([0.0], np.cumsum(sl_moduli * sl_moduli))
    )

    lower = np.concatenate(([0.0], thresholds))
    upper = np.concatenate((thresholds, [np.inf]))
    # rho is not cancelled: the ADMM loop amplifies rounding, so cancelling
    # it would change every constrained answer
    numerator = rho * rho + rho * s1 + rho * sqrt_gamma * s2
    denominator = rho * k1 + rho * gamma * k2
    with np.errstate(divide="ignore", invalid="ignore"):
        stationary = numerator / denominator
    candidates = np.where(denominator > 0, stationary, upper)
    candidates = np.clip(candidates, lower, upper)
    cost = (
        -candidates
        + (k1 * candidates**2 - 2.0 * candidates * s1 + q1) / (2.0 * rho)
        + (gamma * k2 * candidates**2 - 2.0 * sqrt_gamma * candidates * s2 + q2)
        / (2.0 * rho)
    )
    g0 = float(candidates[np.argmin(cost)])
    g = np.maximum(abs1, g0) * np.exp(1j * np.angle(z1))
    h = np.minimum(abs2, sqrt_gamma * g0) * np.exp(1j * np.angle(z2))
    return g0, g, h


def update_duals(
    state: ReferenceState,
    p: NDArray[np.complex128],
    q: NDArray[np.complex128] | None = None,
) -> ReferenceState:
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


def _initial_state(n: int, l_ml: int, l_sl: int, rho1: float, rho2: float) -> ReferenceState:
    return ReferenceState(
        x=np.zeros(n, dtype=complex),
        g0=0.0,
        g=np.zeros(l_ml, dtype=complex),
        h=np.zeros(l_sl, dtype=complex),
        u1=np.zeros(l_ml, dtype=complex),
        u2=np.zeros(l_sl, dtype=complex),
        rho1=rho1,
        rho2=rho2,
    )


def _run(p, q, cfg: ReferenceConfig, callback=None) -> ReferenceState:
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
            state.g0, state.g, state.h = update_gh_wsc(z1, z2, state.rho1, cfg.gamma)
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
    # 121 mainlobe angles: P (41 x 121) reaches OpenBLAS's threading size
    "nonuniform41-60deg-20dB": (
        nonuniform41, 60.0, -20.0, AdmmConfig(rho_init=2000.0, rho_decay=0.99, iter_max=2000)
    ),
}


# Production names whose reference counterparts carry another name.
_REFERENCE_NAMES = {"rho": ("rho1", "rho2")}


def _assert_fields_equal(new, ref, names):
    for name in names:
        for ref_name in _REFERENCE_NAMES.get(name, (name,)):
            a, b = getattr(new, name), getattr(ref, ref_name)
            assert np.array_equal(a, b), (name, ref_name)


@pytest.mark.parametrize("row", sorted(ROWS))
def test_run_matches_reference_bit_for_bit(row):
    fixture, beamwidth, dsll, cfg = ROWS[row]
    mainlobe, sidelobe = assemble_regions(0.0, beamwidth, 3.0, 0.5)
    ops = build_gain_operators(fixture(), mainlobe, sidelobe if dsll is not None else ())
    ref_cfg = ReferenceConfig(
        rho_init=cfg.rho_init, rho_decay=cfg.rho_decay, iter_max=cfg.iter_max
    )
    if dsll is None:
        new = run_wosc(ops, cfg)
        ref = _run(ops.P, None, ref_cfg)
    else:
        gamma = gamma_from_dsll(dsll)
        new = run_wsc(ops, cfg, gamma)
        ref = _run(ops.P, ops.Q, replace(ref_cfg, gamma=gamma))

    assert ref.rho1 == ref.rho2
    assert ref.history.rho1 == ref.history.rho2
    assert len(ref.history) == ref.iteration
    _assert_fields_equal(
        new, ref, [f.name for f in fields(AdmmState) if f.name != "history"]
    )
    _assert_fields_equal(
        new.history, ref.history, [f.name for f in fields(AdmmHistory)]
    )


# ---------------------------------------------------------------------------
# Call-by-call comparison on the branches the rows above never take.
# ---------------------------------------------------------------------------


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _sphere_case(rng, blocks, kind):
    """Operators and targets of a small sphere problem of the given kind.

    ``hard`` targets give ``P d1 (+ Q d2)`` no component on the bottom
    eigenvector of the Gram and a secular sum below one at its eigenvalue;
    ``zero`` targets are all zero; ``generic`` ones are random.
    """
    n = 4
    ops = [_complex(rng, n, 6)] + ([_complex(rng, n, 5)] if blocks == 2 else [])
    targets = [np.zeros(op.shape[1], dtype=complex) for op in ops]
    if kind == "generic":
        targets = [10.0 ** rng.uniform(-1, 1) * _complex(rng, op.shape[1]) for op in ops]
    elif kind == "hard":
        gram = sum(op @ op.conj().T for op in ops)
        lam, vec = np.linalg.eigh(gram)
        coef = _complex(rng, n - 1)
        scale = 0.5 / np.sqrt(np.sum(np.abs(coef / (lam[1:] - lam[0])) ** 2))
        # P d1 = b exactly up to rounding: P has full row rank
        targets[0] = np.linalg.pinv(ops[0]) @ (scale * vec[:, 1:] @ coef)
    return ops, targets


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("kind", ["hard", "zero", "generic"])
def test_sphere_solve_matches_reference_bit_for_bit(monkeypatch, blocks, kind):
    rng = np.random.default_rng(2400 + 10 * blocks + len(kind))
    secular_calls = []
    root = production_sphere.secular_bisect
    monkeypatch.setattr(
        production_sphere, "secular_bisect",
        lambda *args: secular_calls.append(1) or root(*args),
    )
    for _ in range(20):
        ops, targets = _sphere_case(rng, blocks, kind)
        new = production_sphere.SphereSolver(*ops).solve(*targets)
        ref = SphereSolver(*ops).solve(*targets, weight_ml=1e-3, weight_sl=1e-3)
        assert np.array_equal(new, ref)
    # the cases reach the branch they are named for
    assert len(secular_calls) == (20 if kind == "generic" else 0)


def _level_inputs(rng, kind):
    """Mainlobe and sidelobe inputs, a penalty and a sidelobe ratio."""
    rho = 10.0 ** rng.uniform(-1, 3)
    if kind == "zero":
        # the first iteration: zero weights and duals
        return np.zeros(41, dtype=complex), np.zeros(310, dtype=complex), rho, 10.0 ** -3.5
    z1 = _complex(rng, int(rng.integers(1, 13))) * 10.0 ** rng.uniform(-2, 2)
    z2 = _complex(rng, int(rng.integers(1, 13))) * 10.0 ** rng.uniform(-2, 2)
    if kind == "random":
        return z1, z2, rho, 10.0 ** rng.uniform(-4, 0)
    # tied moduli: repeated entries, equal moduli at other phases, and
    # sidelobe thresholds |z2| / sqrt(gamma) equal to mainlobe moduli
    z1 = np.concatenate((z1, z1[:2], -z1[:1], 1j * z1[-1:]))
    z2 = np.concatenate((z2, z2[:1], 0.5 * z1[:3], -0.5 * z1[-1:]))
    return z1, z2, rho, 0.25


@pytest.mark.parametrize("kind", ["zero", "tied", "random"])
def test_level_updates_match_reference_bit_for_bit(kind):
    rng = np.random.default_rng(2450 + len(kind))
    for _ in range(50):
        z1, z2, rho, gamma = _level_inputs(rng, kind)
        new = production_levels.update_g_wosc(z1, rho)
        ref = update_g_wosc(z1, rho)
        assert all(np.array_equal(a, b) for a, b in zip(new, ref))
        for sidelobe in (z2, z2[:0]):
            new = production_levels.update_gh_wsc(z1, sidelobe, rho, gamma)
            ref = update_gh_wsc(z1, sidelobe, rho, gamma)
            assert all(np.array_equal(a, b) for a, b in zip(new, ref))
