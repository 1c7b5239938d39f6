"""Physical array description and the operators consumed by the ADMM engine.

Angles are in degrees over the visible region [-90, 90] and element
positions are in wavelengths.  The total-power matrix integrates the outer
product of the steering vector against cos(theta) over the visible region,
so that ``w^H A w`` is the total radiated power and the power gain at angle
theta is ``2 |a(theta)^H w|^2 / (w^H A w)``.  Factoring ``A = C^H C`` and
substituting ``x = C w`` turns the unit-power normalization into the unit
sphere ``||x|| = 1`` and every per-angle gain into ``|c^H x|^2`` with
``c = C^{-H} a(theta)``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DegenerateGeometryError,
    DomainError,
    FactorizationError,
    IngestionError,
    NumericalError,
)
from .sphere import RowBlockedProduct, _openblas_builds, one_blas_thread

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = [
    "AngularGrid",
    "ArrayGeometry",
    "ElementPattern",
    "GainOperators",
    "build_gain_operators",
    "build_region_operator",
    "build_total_power_matrix",
    "factorize",
    "load_aep",
    "power_gain_pattern",
    "solve_upper",
    "steering_matrix",
    "synth_aep",
]

_DB_FLOOR = 1e-30


@dataclass(frozen=True)
class ElementPattern:
    """Tabulated complex element pattern, linearly interpolated in angle."""

    angles_deg: NDArray[np.float64]
    values: NDArray[np.complex128]

    def __post_init__(self):
        angles = np.asarray(self.angles_deg, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if angles.ndim != 1 or angles.size < 2:
            raise IngestionError("element pattern needs at least two samples")
        if values.shape != angles.shape:
            raise IngestionError("element pattern angle/value length mismatch")
        if not np.all(np.isfinite(angles)) or not np.all(np.isfinite(values)):
            raise IngestionError("element pattern contains non-finite samples")
        if np.any(np.diff(angles) <= 0):
            raise IngestionError("element pattern angles must be strictly increasing")
        object.__setattr__(self, "angles_deg", angles)
        object.__setattr__(self, "values", values)

    @property
    def coverage(self) -> tuple[float, float]:
        return float(self.angles_deg[0]), float(self.angles_deg[-1])

    def covers(self) -> bool:
        """Whether the table spans the whole visible region [-90, 90] deg."""
        return self.angles_deg[0] <= -90.0 and self.angles_deg[-1] >= 90.0

    def __call__(self, theta_deg) -> NDArray[np.complex128]:
        theta = np.atleast_1d(np.asarray(theta_deg, dtype=float))
        lo, hi = self.coverage
        if np.any(theta < lo) or np.any(theta > hi):
            raise DomainError(
                f"angle outside element pattern coverage [{lo}, {hi}] deg"
            )
        re = np.interp(theta, self.angles_deg, self.values.real)
        im = np.interp(theta, self.angles_deg, self.values.imag)
        return re + 1j * im


@dataclass(frozen=True)
class ArrayGeometry:
    """Linear array: element positions (wavelengths), efficiencies, patterns.

    ``efficiencies`` holds the per-element total efficiency; the optimizer
    works on effective weights ``w_eff = w_phys * sqrt(efficiency)`` so the
    efficiencies never enter the operators, only the weight conversion.
    ``positions`` must already be normalized by the wavelength.
    """

    positions: NDArray[np.float64]
    efficiencies: NDArray[np.float64]
    element_patterns: tuple[ElementPattern, ...] | None = None

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=float)
        if positions.ndim != 1 or positions.size == 0:
            raise DomainError("positions must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(positions)):
            raise DomainError("positions must be finite")
        if np.any(np.diff(positions) <= 0):
            raise DomainError("positions must be strictly increasing")
        efficiencies = np.asarray(self.efficiencies, dtype=float)
        if efficiencies.shape != positions.shape:
            raise DomainError("efficiencies must match positions in length")
        if np.any(~np.isfinite(efficiencies)) or np.any(
            (efficiencies <= 0) | (efficiencies > 1)
        ):
            raise DomainError("efficiencies must lie in (0, 1]")
        if self.element_patterns is not None:
            patterns = tuple(self.element_patterns)
            if len(patterns) != positions.size:
                raise IngestionError(
                    f"got {len(patterns)} element patterns for "
                    f"{positions.size} elements"
                )
            for i, pattern in enumerate(patterns):
                if not pattern.covers():
                    raise IngestionError(
                        f"element {i} pattern does not cover [-90, 90] deg"
                    )
            object.__setattr__(self, "element_patterns", patterns)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "efficiencies", efficiencies)

    @property
    def n_elements(self) -> int:
        return int(self.positions.size)


@dataclass(frozen=True)
class AngularGrid:
    """Angle samples in degrees inside the visible region."""

    angles: NDArray[np.float64]

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=float)
        if angles.ndim != 1 or angles.size == 0:
            raise DomainError("angular grid must be a non-empty 1-D sequence")
        if np.any(angles < -90.0 - 1e-12) or np.any(angles > 90.0 + 1e-12):
            raise DomainError("grid angles must lie within [-90, 90] deg")
        object.__setattr__(self, "angles", angles)

    @classmethod
    def from_span(cls, lo: float, hi: float, resolution: float) -> "AngularGrid":
        """Inclusive grid from ``lo`` to ``hi``; the span must be commensurate."""
        if hi < lo:
            raise DomainError("grid span must satisfy lo <= hi")
        steps = (hi - lo) / resolution
        n = int(round(steps))
        if abs(steps - n) > 1e-9:
            raise DomainError(
                f"span [{lo}, {hi}] is not a multiple of resolution {resolution}"
            )
        angles = lo + resolution * np.arange(n + 1)
        if n > 0:
            angles[-1] = hi
        return cls(angles=angles)


def steering_matrix(geometry: ArrayGeometry, theta_deg) -> NDArray[np.complex128]:
    """Steering vectors stacked column-wise, one column per angle.

    Entry (n, l) is ``e_n(theta_l) * exp(2j pi r_n sin(theta_l))`` with
    ``e_n`` the tabulated element pattern (1 for isotropic elements).
    """
    theta = np.atleast_1d(np.asarray(theta_deg, dtype=float))
    if np.any(theta < -90.0) or np.any(theta > 90.0):
        raise DomainError("steering angle outside [-90, 90] deg")
    u = np.sin(np.radians(theta))
    phase = np.exp(2j * np.pi * np.outer(geometry.positions, u))
    if geometry.element_patterns is not None:
        element = np.vstack([p(theta) for p in geometry.element_patterns])
        return element * phase
    return phase


def build_total_power_matrix(
    geometry: ArrayGeometry, quadrature_order: int | None = None
) -> NDArray[np.complex128]:
    """Total-power matrix: integral of a(theta) a(theta)^H cos(theta) dtheta.

    For isotropic elements, substituting u = sin(theta) gives the closed form
    ``A_mn = 2 sinc(2 (r_m - r_n))``; otherwise Gauss-Legendre quadrature in
    u over [-1, 1] is used.  The result is Hermitian positive definite for
    any valid geometry.
    """
    n = geometry.n_elements
    if geometry.element_patterns is None:
        diff = geometry.positions[:, None] - geometry.positions[None, :]
        a = (2.0 * np.sinc(2.0 * diff)).astype(complex)
    else:
        order = 4 * n + 64 if quadrature_order is None else quadrature_order
        if order < 2 * n + 32:
            raise DomainError(f"quadrature order {order} below minimum {2 * n + 32}")
        nodes, weights = np.polynomial.legendre.leggauss(order)
        theta = np.degrees(np.arcsin(nodes))
        steer = steering_matrix(geometry, theta)
        a = (steer * weights) @ steer.conj().T
    a = 0.5 * (a + a.conj().T)
    eigenvalues = np.linalg.eigvalsh(a)
    threshold = 1e-12 * np.trace(a).real / n
    if eigenvalues[0] <= threshold:
        raise DegenerateGeometryError(
            f"total-power matrix numerically indefinite "
            f"(min eigenvalue {eigenvalues[0]:.3e} <= {threshold:.3e})"
        )
    return a


def _openblas_lapack():
    """``(zpotrf, ztrtrs)`` of numpy's OpenBLAS, or None where it lacks them.

    numpy's build is ILP64: its integers are 64-bit and its symbols carry
    the suffix ``64_``.  Without it (numpy built on MKL or Accelerate) the
    callers run the same LAPACK routines through ``scipy.linalg``, imported
    only then.
    """
    build = _openblas_builds().get("numpy")
    if build is None:
        return None
    try:
        potrf, trtrs = build.lib.scipy_zpotrf_64_, build.lib.scipy_ztrtrs_64_
    except AttributeError:
        return None
    if trtrs.argtypes is None:
        import ctypes

        flag, ptr, length = ctypes.c_char_p, ctypes.c_void_p, ctypes.c_size_t
        num = ctypes.POINTER(ctypes.c_int64)
        # Fortran passes each character flag's length after the arguments
        potrf.argtypes = [flag, num, ptr, num, num, length]
        trtrs.argtypes = [
            flag, flag, flag, num, num, ptr, num, ptr, num, num, length, length, length
        ]
        potrf.restype = trtrs.restype = None
    return potrf, trtrs


def factorize(a: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Upper-triangular factor C with ``C^H C = A``, Fortran-ordered.

    LAPACK ``zpotrf`` on the upper triangle, with the lower one zeroed.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("can only factorize a square matrix")
    norm_a = np.linalg.norm(a)
    if norm_a == 0:
        raise DomainError("cannot factorize the zero matrix")
    if np.linalg.norm(a - a.conj().T) > 1e-12 * norm_a:
        raise DomainError("matrix is not Hermitian within tolerance")
    a = 0.5 * (a + a.conj().T)
    lapack = _openblas_lapack()
    if lapack is None:
        from scipy.linalg import get_lapack_funcs

        (potrf,) = get_lapack_funcs(("potrf",), (a,))
        c, info = potrf(a, lower=False, clean=True)
    else:
        import ctypes

        n = ctypes.c_int64(a.shape[0])
        status = ctypes.c_int64()
        c = np.array(a, order="F")
        zpotrf, _ = lapack
        zpotrf(b"U", n, c.ctypes.data, n, status, 1)
        c[np.tril_indices(a.shape[0], -1)] = 0.0
        info = status.value
    if info > 0:
        raise FactorizationError(
            f"matrix not positive definite at pivot {info - 1}",
            pivot_index=info - 1,
        )
    if info < 0:
        raise FactorizationError(f"invalid factorization argument {-info}")
    return c


def solve_upper(
    c_factor: NDArray[np.complex128], b, adjoint: bool = False
) -> NDArray[np.complex128]:
    """``C^{-1} b``, or ``C^{-H} b`` when ``adjoint``, for an upper-triangular C.

    LAPACK ``ztrtrs``, the routine ``scipy.linalg.solve_triangular`` calls;
    as there, a non-finite entry in either operand raises ``ValueError`` and
    a zero on the diagonal ``numpy.linalg.LinAlgError``.
    """
    lapack = _openblas_lapack()
    if lapack is None:
        from scipy.linalg import solve_triangular

        return solve_triangular(c_factor, b, lower=False, trans="C" if adjoint else "N")
    import ctypes

    c = np.asfortranarray(np.asarray_chkfinite(c_factor), dtype=complex)
    x = np.array(np.asarray_chkfinite(b), dtype=complex, order="F")
    n = c.shape[0] if c.ndim == 2 else -1
    if c.shape != (n, n) or x.ndim not in (1, 2) or x.shape[0] != n:
        raise DomainError(
            f"cannot solve a triangular {c.shape} system for {x.shape}"
        )
    rows = ctypes.c_int64(n)
    lead = ctypes.c_int64(max(n, 1))
    status = ctypes.c_int64()
    _, ztrtrs = lapack
    ztrtrs(
        b"U", b"C" if adjoint else b"N", b"N", rows,
        ctypes.c_int64(x.shape[1] if x.ndim == 2 else 1),
        c.ctypes.data, lead, x.ctypes.data, lead, status, 1, 1, 1,
    )
    if status.value:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {status.value - 1}"
        )
    return x


def build_region_operator(
    geometry: ArrayGeometry, c_factor: NDArray[np.complex128], grid: AngularGrid
) -> NDArray[np.complex128]:
    """Region operator with columns ``C^{-H} a(theta_l)`` for each grid angle."""
    steer = steering_matrix(geometry, grid.angles)
    return solve_upper(c_factor, steer, adjoint=True)


@dataclass(frozen=True)
class GainOperators:
    """Whitened gain operators for one synthesis problem.

    ``P`` holds mainlobe columns, ``Q`` sidelobe columns (empty when no
    sidelobe constraint is active).  With ``||x|| = 1``, the power gain at
    mainlobe angle l is ``2 |P[:, l]^H x|^2``.
    """

    A: NDArray[np.complex128]
    C: NDArray[np.complex128]
    P: NDArray[np.complex128]
    Q: NDArray[np.complex128]

    def __post_init__(self):
        norm_a = np.linalg.norm(self.A)
        if np.linalg.norm(self.C.conj().T @ self.C - self.A) > 1e-10 * norm_a:
            raise FactorizationError("factor does not reproduce the matrix")
        for name, op in (("mainlobe", self.P), ("sidelobe", self.Q)):
            if op.size:
                norms = np.linalg.norm(op, axis=0)
                if not np.all(np.isfinite(norms)) or np.any(norms == 0):
                    raise NumericalError(
                        f"{name} operator has a non-finite or zero column"
                    )


def build_gain_operators(
    geometry: ArrayGeometry,
    mainlobe: AngularGrid,
    sidelobe: tuple[AngularGrid, ...] = (),
    quadrature_order: int | None = None,
) -> GainOperators:
    """Assemble A, its factor and the mainlobe/sidelobe region operators.

    The factor, the region operators and the factor check run on one
    OpenBLAS thread (:func:`beamgain.sphere.one_blas_thread`), which gives
    the bits of the threaded calls.  ``A`` keeps the caller's thread count:
    for tabulated element patterns its quadrature product rounds differently
    on one thread.  The block stops the BLAS helper threads that product
    woke, so none is left spinning.
    """
    a = build_total_power_matrix(geometry, quadrature_order)
    with one_blas_thread():
        c = factorize(a)
        p = build_region_operator(geometry, c, mainlobe)
        if sidelobe:
            q = np.hstack([build_region_operator(geometry, c, seg) for seg in sidelobe])
        else:
            q = np.zeros((geometry.n_elements, 0), dtype=complex)
        return GainOperators(A=a, C=c, P=p, Q=q)


def power_gain_pattern(
    geometry: ArrayGeometry,
    weights: NDArray[np.complex128],
    theta_deg,
    total_power: NDArray[np.complex128] | None = None,
) -> NDArray[np.float64]:
    """Power gain in dBi at the requested angles for effective weights.

    ``G(theta) = 2 |a(theta)^H w|^2 / (w^H A w)``; invariant under scaling
    of ``w`` by any nonzero complex constant.  The product ``a(theta)^H w``
    runs on one OpenBLAS thread (:func:`beamgain.sphere.one_blas_thread`)
    with the bits of the plain two-thread product
    (:class:`beamgain.sphere.RowBlockedProduct`), at any thread count.
    """
    w = np.asarray(weights, dtype=complex)
    if w.shape != (geometry.n_elements,):
        raise DomainError("weight vector length must match the element count")
    if not np.any(w):
        raise DomainError("weight vector must be nonzero")
    a = build_total_power_matrix(geometry) if total_power is None else total_power
    if isinstance(theta_deg, AngularGrid):
        theta_deg = theta_deg.angles
    steer = steering_matrix(geometry, theta_deg)
    with one_blas_thread():
        numerator = 2.0 * np.abs(RowBlockedProduct(steer.conj().T)(w)) ** 2
    denominator = np.real(w.conj() @ (a @ w))
    gain = numerator / denominator
    return 10.0 * np.log10(np.maximum(gain, _DB_FLOOR))


def load_aep(path) -> tuple[ElementPattern, ...]:
    """Read tabulated element patterns from a CSV file.

    Expected header ``element,angle_deg,re,im``; element indices must be
    consecutive from zero and each element's angles strictly increasing.
    """
    tables: dict[int, list[tuple[float, complex]]] = {}
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != ["element", "angle_deg", "re", "im"]:
                raise IngestionError(
                    f"{path}: expected header 'element,angle_deg,re,im'"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 4:
                    raise IngestionError(f"{path}:{lineno}: expected four columns")
                try:
                    index = int(row[0])
                    angle = float(row[1])
                    value = complex(float(row[2]), float(row[3]))
                except ValueError as exc:
                    raise IngestionError(f"{path}:{lineno}: {exc}") from exc
                tables.setdefault(index, []).append((angle, value))
    except OSError as exc:
        raise IngestionError(f"cannot read AEP file {path}: {exc}") from exc
    if not tables:
        raise IngestionError(f"{path}: no element pattern rows")
    if sorted(tables) != list(range(len(tables))):
        raise IngestionError(f"{path}: element indices must be consecutive from 0")
    patterns = []
    for index in range(len(tables)):
        rows = tables[index]
        angles = np.asarray([angle for angle, _ in rows])
        values = np.asarray([value for _, value in rows])
        if np.any(np.diff(angles) <= 0):
            raise IngestionError(
                f"{path}: element {index} angles must be strictly increasing"
            )
        patterns.append(ElementPattern(angles_deg=angles, values=values))
    return tuple(patterns)


def synth_aep(
    width_deg: float, n_elements: int, resolution_deg: float = 0.5
) -> tuple[ElementPattern, ...]:
    """Synthetic cosine-taper element patterns with a given 3-dB half width.

    The pattern is ``cos(theta)**p`` with the exponent chosen so the power
    pattern is 3 dB down at ``width_deg``; 45 degrees gives a plain cosine.
    """
    if not 0.0 < width_deg < 90.0:
        raise DomainError("3-dB width must lie in (0, 90) deg")
    exponent = np.log(1.0 / np.sqrt(2.0)) / np.log(np.cos(np.radians(width_deg)))
    n_samples = int(round(180.0 / resolution_deg)) + 1
    angles = np.linspace(-90.0, 90.0, n_samples)
    values = np.cos(np.radians(angles)) ** exponent
    pattern = ElementPattern(angles_deg=angles, values=values.astype(complex))
    return tuple(pattern for _ in range(n_elements))
