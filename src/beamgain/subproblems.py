"""Piecewise-analytic minimizers for the gain auxiliary variables.

Both updates minimize a cost of the form

    -g0 + (1/(2 rho)) ||z1 - g||^2 + (1/(2 rho)) ||z2 - h||^2

subject to ``|g_l| >= g0`` (mainlobe levels at least g0) and
``|h_s| <= sqrt(gamma) g0`` (sidelobe levels capped).  For a fixed g0 the
optimal g and h are modulus clamps that keep the input phases, so the cost
collapses to a piecewise quadratic in g0 whose breakpoints are the clamp
thresholds.  Each closed subdomain contributes one candidate (its interior
stationary point clipped to the subdomain) and the least-cost candidate is
the global minimizer.
"""

from __future__ import annotations

from math import sqrt
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = ["update_g_wosc", "update_gh_wsc"]


def _checked_complex(name: str, values) -> NDArray[np.complex128]:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be a 1-D vector")
    if not np.logical_and.reduce(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite entries")
    return arr


def _prefix_sums(values, dtype=float) -> NDArray:
    """``[0, values[0], values[0] + values[1], ...]``: cumulative sums after a zero.

    ``np.cumsum``'s own loop, without its wrapper's overhead.
    """
    out = np.empty(values.size + 1, dtype=dtype)
    out[0] = 0
    np.add.accumulate(values, dtype=dtype, out=out[1:])
    return out


def _angle(z):
    """``np.angle`` of a complex vector: its arithmetic without its wrapper."""
    return np.arctan2(z.imag, z.real)


def _clip(values, lower, upper) -> None:
    """``np.clip`` in place, with its arithmetic but without its Python wrapper."""
    np.maximum(values, lower, out=values)
    np.minimum(values, upper, out=values)


def _breakpoint_bounds(thresholds) -> tuple[NDArray, NDArray]:
    """Lower and upper ends of the subdomains the sorted ``thresholds`` split."""
    ends = np.empty(thresholds.size + 2)
    ends[0] = 0.0
    ends[1:-1] = thresholds
    ends[-1] = np.inf
    return ends[:-1], ends[1:]


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
    abs_y = np.abs(y)
    moduli = np.sort(abs_y)
    count = np.arange(moduli.size + 1)
    clamped_sum = _prefix_sums(moduli)
    clamped_sumsq = _prefix_sums(moduli * moduli)
    lower, upper = _breakpoint_bounds(moduli)
    # the empty clamp set (count 0) takes the first breakpoint
    candidates = upper.copy()
    np.divide(rho + clamped_sum, count, out=candidates, where=count > 0)
    _clip(candidates, lower, upper)
    cost = -candidates + (
        count * candidates**2 - 2.0 * candidates * clamped_sum + clamped_sumsq
    ) / (2.0 * rho)
    g0 = float(candidates[cost.argmin()])
    g = np.maximum(abs_y, g0) * np.exp(1j * _angle(y))
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

    sqrt_gamma = sqrt(gamma)
    abs1 = np.abs(z1)
    abs2 = np.abs(z2)
    thresholds = np.concatenate((abs1, abs2 / sqrt_gamma))
    order = thresholds.argsort(kind="stable")
    thresholds = thresholds[order]
    # the sidelobe entries follow the mainlobe ones before sorting
    is_sidelobe = order >= abs1.size
    moduli = np.concatenate((abs1, abs2))[order]

    ml_moduli = np.where(is_sidelobe, 0.0, moduli)
    k1 = _prefix_sums(~is_sidelobe, np.intp)
    s1 = _prefix_sums(ml_moduli)
    q1 = _prefix_sums(ml_moduli * ml_moduli)

    sl_moduli = np.where(is_sidelobe, moduli, 0.0)
    sl_squares = sl_moduli * sl_moduli
    # the sidelobe entries among the first i thresholds, counted exactly
    sl_prefix = np.arange(k1.size) - k1
    k2 = sl_prefix[-1] - sl_prefix
    s2 = np.add.reduce(sl_moduli) - _prefix_sums(sl_moduli)
    q2 = np.add.reduce(sl_squares) - _prefix_sums(sl_squares)

    lower, upper = _breakpoint_bounds(thresholds)
    # rho is not cancelled: the ADMM loop amplifies rounding, so cancelling
    # it would change every constrained answer
    numerator = rho * rho + rho * s1 + rho * sqrt_gamma * s2
    denominator = rho * k1 + rho * gamma * k2
    # a subdomain with nothing clamped takes its upper end
    candidates = upper.copy()
    np.divide(numerator, denominator, out=candidates, where=denominator > 0)
    _clip(candidates, lower, upper)
    squares = candidates**2
    cost = (
        -candidates
        + (k1 * squares - 2.0 * candidates * s1 + q1) / (2.0 * rho)
        + (gamma * k2 * squares - 2.0 * sqrt_gamma * candidates * s2 + q2)
        / (2.0 * rho)
    )
    g0 = float(candidates[cost.argmin()])
    g = np.maximum(abs1, g0) * np.exp(1j * _angle(z1))
    h = np.minimum(abs2, sqrt_gamma * g0) * np.exp(1j * _angle(z2))
    return g0, g, h
