"""Complex unit-sphere least squares via realification and a secular equation.

The weight update minimizes ``||P^H x - d1||^2 (+ ||Q^H x - d2||^2)`` over
complex unit vectors x.  Stacked as the real vector ``[Re x; Im x]`` the
cost is a real quadratic whose Gram matrix is the realified ``P P^H (+ Q
Q^H)`` and whose linear term is the realified ``P d1 (+ Q d2)``.  In the
Gram eigenbasis the stationarity condition becomes ``alpha = (Lambda - nu
I)^{-1} beta`` with the Lagrange multiplier nu the smallest root of the
secular equation

    sum_n (beta_n / (nu - lambda_n))^2 = 1.

Smaller roots give smaller cost, so the global minimizer takes the least
root, found by safeguarded bisection inside an analytic bracket.  When beta
has no component on the bottom eigenspace and the secular sum at the bottom
eigenvalue stays below one, no such root exists; the minimizer then sits at
``nu = lambda_min`` with the norm deficit supplied by a bottom eigenvector.
:class:`SphereSolver` is the one solver; ``beamgain validate`` certifies it
against :func:`beamgain.oracles.oracle_sphere`.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from math import isfinite, sqrt
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import DomainError, NumericalError

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = [
    "RowBlockedProduct",
    "SphereSolver",
    "blas_threads",
    "one_blas_thread",
    "secular_bisect",
]

_BETA_CUTOFF = 1e-14
_WIDTH_FACTOR = 1e-14
_SECULAR_STEPS = 300
# A secular root is certified once |f(nu)| falls to this.
_SECULAR_TOL = 1e-12
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# OpenBLAS runs a complex GEMV on two threads once m * n reaches this (and
# each thread gets at least 4 rows).
_GEMV_THREADING_SIZE = 4096
# Each OpenBLAS build by name: an extension module that links it, and the
# suffix of its exported symbols.
_OPENBLAS_MODULES = {
    "numpy": ("numpy.linalg._umath_linalg", "64_"),
    "scipy": ("scipy.linalg._flapack", ""),
}
# name -> the _Build of each build looked up so far, or None where its module
# lacks the symbols; a build whose module is not loaded yet is looked up again
# on the next use
_openblas = None
# The one_blas_thread blocks open in this process, over all its threads, and
# the (build, count) pairs the first of them saved.
_one_thread_lock = threading.Lock()
_one_thread_blocks = 0
_saved_counts: list = []


class _Build(NamedTuple):
    """One OpenBLAS build: its thread calls, config string and library.

    ``stop`` ends the build's helper threads (None where the build does not
    export it); the next threaded call starts them again.
    """

    get: Callable[[], int]
    put: Callable[[int], None]
    config: str
    lib: object
    stop: Callable[[], object] | None


def _bind_build(module, suffix: str) -> _Build | None:
    """The build the extension ``module`` links, or None without its symbols."""
    import ctypes

    try:
        lib = ctypes.CDLL(module.__file__)
        get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        config = getattr(lib, f"scipy_openblas_get_config{suffix}")
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    config.argtypes, config.restype = [], ctypes.c_char_p
    # unsuffixed in every build; the handle finds the one its module links
    stop = getattr(lib, "blas_thread_shutdown_", None)
    if stop is not None:
        stop.argtypes, stop.restype = [], ctypes.c_int
    return _Build(get, put, config().decode(), lib, stop)


def _openblas_builds() -> dict[str, _Build]:
    """The OpenBLAS builds of :data:`_OPENBLAS_MODULES` whose modules are loaded.

    No module is imported here, so SciPy's build is found only once
    something else has loaded ``scipy.linalg`` (the warm start of
    :func:`beamgain.oracles.dual_certificate` does).  A build whose symbols
    are missing is left out.  ``ctypes`` is imported on the first lookup, so
    that ``import beamgain`` does not pay for it.
    """
    global _openblas
    looked_up = {} if _openblas is None else _openblas
    pending = [
        (name, sys.modules[module], suffix)
        for name, (module, suffix) in _OPENBLAS_MODULES.items()
        if name not in looked_up and module in sys.modules
    ]
    if pending:
        # a new dict, so that a caller in another thread iterating the old
        # one never sees it change
        looked_up = dict(looked_up)
        for name, module, suffix in pending:
            looked_up[name] = _bind_build(module, suffix)
        _openblas = looked_up
    return {name: build for name, build in looked_up.items() if build is not None}


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS build found, e.g. ``{"numpy": 2}``."""
    return {name: build.get() for name, build in _openblas_builds().items()}


@contextmanager
def one_blas_thread():
    """Run the block with every OpenBLAS build found on one thread.

    Each build's count is restored on exit, also when the block raises.  The
    count is process-wide, so BLAS calls another Python thread makes inside
    the block run on one thread as well.  Blocks may nest or overlap across
    threads: the first to open saves the counts, the last to close restores
    them.

    Each time the counts are set, the build's helper threads are stopped
    right after: setting a count restarts a stopped pool, and a threaded
    call before the block may have woken a helper; either would otherwise
    spin beside the caller's work.  The next threaded call starts the pool
    again at the restored count.  The helpers are stopped only while this is
    the process's one Python thread: stopping the pool under another
    thread's threaded BLAS call would free the buffers that call uses.
    Every thread running Python code counts, however it was started; a
    thread that calls BLAS from C without running Python code is not seen.
    """
    global _one_thread_blocks, _saved_counts
    with _one_thread_lock:
        if _one_thread_blocks == 0:
            builds = _openblas_builds().values()
            _saved_counts = [(build, build.get()) for build in builds]
            _set_counts((build, 1) for build, _ in _saved_counts)
        _one_thread_blocks += 1
    try:
        yield
    finally:
        with _one_thread_lock:
            _one_thread_blocks -= 1
            if _one_thread_blocks == 0:
                _set_counts(_saved_counts)


def _set_counts(counts) -> None:
    """Set each build's thread count, and stop its helpers if that is safe.

    Each build's helpers are stopped before the next build's count is set,
    so that no restarted helper spins while another build's pool restarts.
    """
    # one entry per thread running Python code, not only threading's own
    stop = len(sys._current_frames()) == 1
    for build, count in counts:
        build.put(count)
        if stop and build.stop is not None:
            build.stop()


def _realify_operator(op: NDArray[np.complex128]) -> NDArray[np.float64]:
    """2N x 2L block matrix [[Re, -Im], [Im, Re]] of a complex N x L operator.

    Satisfies ``block^T [Re x; Im x] = [Re(op^H x); Im(op^H x)]``, so
    stacked real least squares reproduces the complex residual norms
    exactly.  For a Hermitian ``h = P P^H`` the block matrix equals ``Pt @
    Pt.T`` with ``Pt`` the block matrix of ``P``.
    """
    re, im = op.real, op.imag
    return np.block([[re, -im], [im, re]])


def secular_bisect(lambdas, beta) -> float:
    """Smallest root of ``sum_n (beta_n / (nu - lambda_n))^2 = 1``.

    The root is bracketed by

        [ min(lambda_n - sqrt(M) |beta_n|),
          min( min(lambda_n - |beta_n|), max(lambda_n - sqrt(M) |beta_n|) ) ]

    over the components with nonzero beta (M is their count; the bound
    derivation only sees components that contribute to the sum).  Bisection
    is accelerated with Newton steps kept inside the shrinking bracket and
    stops at ``|f(nu)| <= 1e-12`` or bracket width ``1e-14 (1 + |nu|)``.  A
    root not certified by either test within the step budget raises
    :class:`NumericalError`.
    """
    lam = np.asarray(lambdas, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if lam.ndim != 1 or beta.shape != lam.shape:
        raise DomainError("eigenvalues and projections must match in length")
    mask = beta != 0.0
    # the ufunc reductions, without the methods' Python wrappers
    if not np.logical_and.reduce(mask):
        if not np.logical_or.reduce(mask):
            raise DomainError("beta must not be identically zero")
        lam = lam[mask]
        beta = beta[mask]
    ab = np.abs(beta)
    beta_sq = ab * ab
    sqrt_m = sqrt(ab.size)
    # f(nu) = sum(beta_sq / (nu - lam)**2) - 1 and f'(nu) = -2 sum(beta_sq /
    # (nu - lam)**3), evaluated in place.  The ADMM loop amplifies rounding,
    # so these are exactly the operations of the plain expressions.
    diff = np.empty_like(lam)
    terms = np.empty_like(lam)

    def secular_f(nu):
        np.subtract(nu, lam, out=diff)
        np.square(diff, out=terms)
        np.divide(beta_sq, terms, out=terms)
        return float(np.add.reduce(terms)) - 1.0

    edge = lam - sqrt_m * ab
    lower = float(edge.min())
    upper = float(min((lam - ab).min(), edge.max()))
    scale = 1.0 + abs(lower) + abs(upper)
    nudge = 1e3 * _EPS * scale
    f_lower = secular_f(lower)
    if not isfinite(f_lower):
        lower -= nudge
        f_lower = secular_f(lower)
    f_upper = secular_f(upper)
    if not isfinite(f_upper):
        upper -= nudge
        f_upper = secular_f(upper)
    if f_lower > _SECULAR_TOL or f_upper < -_SECULAR_TOL:
        raise NumericalError(
            f"secular bracket invalid: f({lower:.6e}) = {f_lower:.3e}, "
            f"f({upper:.6e}) = {f_upper:.3e}"
        )
    if abs(f_lower) <= _SECULAR_TOL:
        return lower
    if abs(f_upper) <= _SECULAR_TOL:
        return upper

    lo, hi = lower, upper
    nu = 0.5 * (lo + hi)
    for _ in range(_SECULAR_STEPS):
        f_nu = secular_f(nu)
        finite = isfinite(f_nu)
        if finite and abs(f_nu) <= _SECULAR_TOL:
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
            slope = -2.0 * float(np.add.reduce(terms))
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
) -> NDArray[np.float64]:
    """Coefficients of the constrained minimizer in the Gram eigenbasis.

    ``bottom`` is :func:`_bottom_mask` of the (ascending) eigenvalues; it
    depends on the eigensystem alone, so callers compute it once per ``eigh``.
    """
    ab = np.abs(beta)
    beta_max = float(ab.max())
    if beta_max == 0.0:
        alpha = np.zeros_like(beta)
        alpha[0] = 1.0
        return alpha
    mask = ab > _BETA_CUTOFF * beta_max
    # usually every component passes, the bottom one too, so that there is
    # no hard case and nothing to copy or scatter
    every = np.logical_and.reduce(mask)
    lam, b = (lambdas, beta) if every else (lambdas[mask], beta[mask])
    if not every and not (mask & bottom).any():
        ratio = b / (lam - float(lambdas[0]))
        residual_sum = float(np.add.reduce(ratio**2))
        if residual_sum < 1.0:
            alpha = np.zeros_like(beta)
            alpha[mask] = ratio
            alpha[0] += np.sqrt(1.0 - residual_sum)
            return alpha
    nu = secular_bisect(lam, b)
    denom = lam - nu
    alpha = b / np.where(denom > 0, denom, _TINY)
    if not every:
        scattered = np.zeros_like(beta)
        scattered[mask] = alpha
        alpha = scattered
    # np.linalg.norm's own arithmetic for a real vector
    return alpha / sqrt(alpha.dot(alpha))


class RowBlockedProduct:
    """``a @ v`` on one OpenBLAS thread, with the bits of its two-thread product.

    At two threads OpenBLAS splits the product of an F-ordered complex
    operand (NoTrans kernel, whose rounding depends on the row range) at row
    ``ceil(m/2)`` once it reaches the GEMV threading size with 4 rows per
    half, so such a product is computed as those two halves; any other is
    one product (a C-ordered operand runs the Trans kernel, one dot product
    per row, so any split rounds alike).  Call it inside a
    :func:`one_blas_thread` block, where no call wakes a helper thread and
    the bits do not depend on the caller's count; on a build that block does
    not find, the halves run at the library's own count.  A split product
    does not pickle: it would arrive with C-ordered copies of its halves.
    """

    def __init__(self, a: NDArray[np.complex128]):
        m, n = a.shape
        half = -(-m // 2)
        split = a.flags.f_contiguous and m * n >= _GEMV_THREADING_SIZE and half >= 4
        cuts = [0, half, m] if split else [0, m]
        self._rows = m
        self._blocks = [(lo, hi, a[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]

    def __reduce__(self):
        if len(self._blocks) > 1:
            raise TypeError(
                "a RowBlockedProduct must be built in the process that uses it"
            )
        return RowBlockedProduct, (self._blocks[0][2],)

    def __call__(self, v: NDArray[np.complex128]) -> NDArray[np.complex128]:
        out = np.empty(self._rows, dtype=complex)
        for lo, hi, block in self._blocks:
            np.matmul(block, v, out=out[lo:hi])
        return out


class SphereSolver:
    """Minimizer of ``||P^H x - d1||^2 (+ ||Q^H x - d2||^2)`` over complex unit x.

    The Gram matrix ``P P^H (+ Q Q^H)`` depends on the operators alone, so
    its eigensystem is computed once, at construction, and every solve
    reuses it; the operators are checked there too, never per solve.
    ``P P^H``, the sum and ``eigh`` run on one OpenBLAS thread
    (:func:`one_blas_thread`), which gives the bits of the threaded calls;
    ``Q Q^H`` runs just before, at the caller's thread count, because its
    bits depend on it, and the block stops the BLAS helper threads it woke,
    so none spins beside the loop.  Each solve runs in a block of its own,
    nested in the loop's (a lock and a counter) and a count change of its
    own when called outside it, and computes ``P d1`` and ``Q d2`` as
    :class:`RowBlockedProduct`; so its bits are those of the plain
    two-thread products, at any thread count.  A solver whose products are
    split does not pickle (see :class:`RowBlockedProduct`).
    """

    def __init__(
        self,
        p: NDArray[np.complex128],
        q: NDArray[np.complex128] | None = None,
    ):
        self._p = np.asarray(p, dtype=complex)
        if self._p.ndim != 2 or not np.all(np.isfinite(self._p)) or not np.any(self._p):
            raise DomainError("the mainlobe operator must be a finite, nonzero matrix")
        q = None if q is None or np.size(q) == 0 else np.asarray(q, dtype=complex)
        if q is not None and (
            q.ndim != 2 or q.shape[0] != self._p.shape[0] or not np.all(np.isfinite(q))
        ):
            raise DomainError("the sidelobe operator must be a finite matrix with P's rows")
        self._p_product = RowBlockedProduct(self._p)
        self._q_product = RowBlockedProduct(q) if q is not None else None
        # first, at the caller's thread count: its bits depend on the count
        q_gram = _realify_operator(q @ q.conj().T) if q is not None else None
        with one_blas_thread():
            gram = _realify_operator(self._p @ self._p.conj().T)
            if q_gram is not None:
                gram += q_gram
            self._lambdas, self._u = np.linalg.eigh(gram)
        self._bottom = _bottom_mask(self._lambdas)

    def solve(self, d1, d2=None) -> NDArray[np.complex128]:
        """Unit-norm complex minimizer for the targets ``d1`` (and ``d2``)."""
        with one_blas_thread():
            b = self._p_product(d1)
            if self._q_product is not None:
                b = b + self._q_product(d2)
            beta = self._u.T @ np.concatenate((b.real, b.imag))
            alpha = _unit_coefficients(self._lambdas, self._bottom, beta)
            x = self._u @ alpha
        x = x / sqrt(x.dot(x))
        n = x.size // 2
        return x[:n] + 1j * x[n:]
