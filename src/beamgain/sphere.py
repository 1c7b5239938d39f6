"""Unit-sphere least squares via realification and a secular equation.

The weight update minimizes ``||M^T xt - dt||^2`` over real unit vectors
``xt``, where M stacks the realified complex region operators.  In the
eigenbasis of the Gram matrix ``M M^T`` the stationarity condition becomes
``alpha = (Lambda - nu I)^{-1} beta`` with the Lagrange multiplier nu the
smallest root of the secular equation

    sum_n (beta_n / (nu - lambda_n))^2 = 1.

Smaller roots give smaller cost, so the global minimizer takes the least
root, found by safeguarded bisection inside an analytic bracket.  When beta
has no component on the bottom eigenspace and the secular sum at the bottom
eigenvalue stays below one, no such root exists; the minimizer then sits at
``nu = lambda_min`` with the norm deficit supplied by a bottom eigenvector.
"""

from __future__ import annotations

from math import isfinite

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError, NumericalError

__all__ = [
    "SphereSolver",
    "complex_to_real",
    "real_to_complex",
    "realify",
    "secular_bisect",
    "solve_sphere_lsq",
]

_BETA_CUTOFF = 1e-14
_WIDTH_FACTOR = 1e-14
_SECULAR_STEPS = 300


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


def _realify_operator(op: NDArray[np.complex128]) -> NDArray[np.float64]:
    """2N x 2L block matrix [[Re, -Im], [Im, Re]] of a complex N x L operator.

    Satisfies ``block^T xt = complex_to_real(op^H x)`` for ``xt =
    complex_to_real(x)``, so stacked real least squares reproduces the
    complex residual norms exactly.
    """
    re, im = op.real, op.imag
    return np.block([[re, -im], [im, re]])


def _realify_hermitian(h: NDArray[np.complex128]) -> NDArray[np.float64]:
    """Realified form of a Hermitian matrix; equals ``Pt @ Pt.T`` for h = P P^H."""
    re, im = h.real, h.imag
    return np.block([[re, -im], [im, re]])


def realify(
    p: NDArray[np.complex128],
    d,
    q: NDArray[np.complex128] | None = None,
    d2=None,
    weight_ml: float = 1.0,
    weight_sl: float = 1.0,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Stacked real operator and target for the sphere least-squares step.

    Columns of the mainlobe block are scaled by sqrt(weight_ml) and the
    optional sidelobe block by sqrt(weight_sl), so that

        ||M^T xt - dt||^2 = weight_ml ||P^H x - d||^2
                          + weight_sl ||Q^H x - d2||^2.

    Pass the reciprocals of the penalty parameters as weights to make the
    stacked problem match the augmented Lagrangian exactly.
    """
    p = np.asarray(p, dtype=complex)
    d = np.asarray(d, dtype=complex)
    if p.ndim != 2 or d.shape != (p.shape[1],):
        raise DomainError("operator/target dimensions are inconsistent")
    blocks = [np.sqrt(weight_ml) * _realify_operator(p)]
    targets = [np.sqrt(weight_ml) * complex_to_real(d)]
    if q is not None and q.size:
        q = np.asarray(q, dtype=complex)
        d2 = np.asarray(d2, dtype=complex)
        if q.ndim != 2 or q.shape[0] != p.shape[0] or d2.shape != (q.shape[1],):
            raise DomainError("sidelobe operator/target dimensions are inconsistent")
        blocks.append(np.sqrt(weight_sl) * _realify_operator(q))
        targets.append(np.sqrt(weight_sl) * complex_to_real(d2))
    return np.hstack(blocks), np.concatenate(targets)


def secular_bisect(lambdas, beta, tol: float = 1e-12) -> float:
    """Smallest root of ``sum_n (beta_n / (nu - lambda_n))^2 = 1``.

    The root is bracketed by

        [ min(lambda_n - sqrt(M) |beta_n|),
          min( min(lambda_n - |beta_n|), max(lambda_n - sqrt(M) |beta_n|) ) ]

    over the components with nonzero beta (M is their count; the bound
    derivation only sees components that contribute to the sum).  Bisection
    is accelerated with Newton steps kept inside the shrinking bracket and
    stops at ``|f(nu)| <= tol`` or bracket width ``1e-14 (1 + |nu|)``.  A
    root not certified by either test within the step budget raises
    :class:`NumericalError`.
    """
    lam = np.asarray(lambdas, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if lam.ndim != 1 or beta.shape != lam.shape:
        raise DomainError("eigenvalues and projections must match in length")
    mask = beta != 0.0
    if not mask.any():
        raise DomainError("beta must not be identically zero")
    lam = lam[mask]
    ab = np.abs(beta[mask])
    beta_sq = ab * ab
    sqrt_m = np.sqrt(ab.size)
    # f(nu) = sum(beta_sq / (nu - lam)**2) - 1 and f'(nu) = -2 sum(beta_sq /
    # (nu - lam)**3), evaluated in place.  The ADMM loop amplifies rounding,
    # so these are exactly the operations of the plain expressions.
    diff = np.empty_like(lam)
    terms = np.empty_like(lam)

    def secular_f(nu):
        np.subtract(nu, lam, out=diff)
        np.square(diff, out=terms)
        np.divide(beta_sq, terms, out=terms)
        return float(terms.sum()) - 1.0

    edge = lam - sqrt_m * ab
    lower = float(edge.min())
    upper = float(min((lam - ab).min(), edge.max()))
    scale = 1.0 + abs(lower) + abs(upper)
    nudge = 1e3 * np.finfo(float).eps * scale
    f_lower = secular_f(lower)
    if not isfinite(f_lower):
        lower -= nudge
        f_lower = secular_f(lower)
    f_upper = secular_f(upper)
    if not isfinite(f_upper):
        upper -= nudge
        f_upper = secular_f(upper)
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
    for _ in range(_SECULAR_STEPS):
        f_nu = secular_f(nu)
        finite = isfinite(f_nu)
        if finite and abs(f_nu) <= tol:
            return nu
        if not finite or f_nu > 0:
            hi = nu
        else:
            lo = nu
        if hi - lo <= _WIDTH_FACTOR * (1.0 + abs(nu)):
            return nu
        nu_next = 0.5 * (lo + hi)
        if finite:
            # diff still holds nu - lam from the evaluation of f(nu)
            np.power(diff, 3, out=terms)
            np.divide(beta_sq, terms, out=terms)
            slope = -2.0 * float(terms.sum())
            if slope > 0:
                newton = nu - f_nu / slope
                if lo < newton < hi:
                    nu_next = newton
        nu = nu_next
    raise NumericalError(
        f"secular root not certified in {_SECULAR_STEPS} steps: "
        f"bracket [{lo:.17e}, {hi:.17e}]"
    )


def _bottom_mask(lambdas: NDArray[np.float64]) -> NDArray[np.bool_]:
    """Eigenvalues within the gap tolerance of the smallest one (sorted input)."""
    lam_min = float(lambdas[0])
    span = float(lambdas[-1] - lambdas[0])
    gap_tol = 1e-12 * max(1.0, abs(lam_min) + span)
    return lambdas - lam_min <= gap_tol


def _unit_coefficients(
    lambdas: NDArray[np.float64],
    bottom: NDArray[np.bool_],
    beta: NDArray[np.float64],
    tol: float,
) -> NDArray[np.float64]:
    """Coefficients of the constrained minimizer in the Gram eigenbasis.

    ``bottom`` is :func:`_bottom_mask` of the (ascending) eigenvalues; it
    depends on the eigensystem alone, so callers compute it once per ``eigh``.
    """
    ab = np.abs(beta)
    beta_max = float(ab.max())
    alpha = np.zeros_like(beta)
    if beta_max == 0.0:
        alpha[0] = 1.0
        return alpha
    mask = ab > _BETA_CUTOFF * beta_max
    lam = lambdas[mask]
    b = beta[mask]
    if not (mask & bottom).any():
        gaps = lam - float(lambdas[0])
        residual_sum = float(np.sum((b / gaps) ** 2))
        if residual_sum < 1.0:
            alpha[mask] = b / gaps
            alpha[0] += np.sqrt(1.0 - residual_sum)
            return alpha
    nu = secular_bisect(lam, b, tol)
    denom = lam - nu
    denom = np.where(denom > 0, denom, np.finfo(float).tiny)
    alpha[mask] = b / denom
    return alpha / np.linalg.norm(alpha)


def solve_sphere_lsq(
    m: NDArray[np.float64], d_stacked, secular_tol: float = 1e-12
) -> NDArray[np.float64]:
    """Global minimizer of ``||m^T x - d||^2`` over real unit vectors x.

    Degenerate targets (``m^T d`` in the Gram kernel, including d = 0) fall
    back to the bottom eigenvector, the Rayleigh-quotient minimizer.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    d = np.asarray(d_stacked, dtype=float)
    if d.shape != (m.shape[1],):
        raise DomainError("operator/target dimensions are inconsistent")
    if not np.any(m):
        raise DomainError("operator must be nonzero")
    gram = m @ m.T
    gram = 0.5 * (gram + gram.T)
    lambdas, u = np.linalg.eigh(gram)
    beta = u.T @ (m @ d)
    alpha = _unit_coefficients(lambdas, _bottom_mask(lambdas), beta, secular_tol)
    x = u @ alpha
    return x / np.linalg.norm(x)


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
        self._bottom: NDArray[np.bool_] | None = None

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
            self._bottom = _bottom_mask(self._lambdas)
            self._ratio = ratio
        return self._lambdas, self._u, self._bottom

    def solve(
        self,
        d1,
        d2=None,
        weight_ml: float = 1.0,
        weight_sl: float = 1.0,
    ) -> NDArray[np.complex128]:
        """Unit-norm complex minimizer of the weighted stacked least squares."""
        ratio = weight_sl / weight_ml if self._q is not None else 0.0
        lambdas, u, bottom = self._eigensystem(ratio)
        b = self._p @ np.asarray(d1, dtype=complex)
        if self._q is not None:
            b = b + ratio * (self._q @ np.asarray(d2, dtype=complex))
        beta = u.T @ complex_to_real(b)
        alpha = _unit_coefficients(lambdas, bottom, beta, self._tol)
        x = u @ alpha
        return real_to_complex(x / np.linalg.norm(x))
