"""Deterministic CSV and JSON artifacts for runs and sweeps.

All writes are atomic (temp file in the target directory, then rename) and
byte-stable for identical inputs: dBi values carry six decimals, amplitudes
twelve significant digits.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .engine import AdmmHistory, amplitude_to_dbi
from .errors import BeamgainError
from .sphere import blas_threads
from .synthesis import SweepRow, SynthesisResult

__all__ = [
    "export_history",
    "export_pattern",
    "export_summary",
    "export_sweep",
    "export_weights",
    "round_significant",
    "summary_payload",
]


def _atomic_write(path, text: str) -> None:
    path = Path(path)
    try:
        handle = tempfile.NamedTemporaryFile(
            "w", dir=path.parent, prefix=f".{path.name}.", delete=False
        )
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except OSError as exc:
        raise BeamgainError(f"cannot write {path}: {exc}") from exc


def export_pattern(result: SynthesisResult, path) -> None:
    """Pattern CSV: ``theta_deg,gain_dbi`` ascending, six-decimal gains."""
    lines = ["theta_deg,gain_dbi"]
    for angle, gain in zip(result.pattern_angles_deg, result.pattern_dbi):
        lines.append(f"{angle:.6f},{gain:.6f}")
    _atomic_write(path, "\n".join(lines) + "\n")


def export_weights(result: SynthesisResult, path) -> None:
    """Weights CSV with effective and physical excitations."""
    lines = ["element,re_effective,im_effective,re_physical,im_physical"]
    for i, (we, wp) in enumerate(
        zip(result.weights_effective, result.weights_physical)
    ):
        lines.append(
            f"{i},{we.real:.12g},{we.imag:.12g},{wp.real:.12g},{wp.imag:.12g}"
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def export_history(history: AdmmHistory, path) -> None:
    """Per-iteration CSV trace of the run."""
    lines = [
        "iter,g0_amp,g0_dbi,residual_ml,residual_sl,rho,dual_inc_1,dual_inc_2"
    ]
    for i in range(len(history)):
        lines.append(
            ",".join(
                (
                    str(history.iteration[i]),
                    f"{history.g0_amp[i]:.12g}",
                    f"{amplitude_to_dbi(history.g0_amp[i]):.6f}",
                    f"{history.residual_ml[i]:.12g}",
                    f"{history.residual_sl[i]:.12g}",
                    f"{history.rho[i]:.12g}",
                    f"{history.dual_inc_1[i]:.12g}",
                    f"{history.dual_inc_2[i]:.12g}",
                )
            )
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def export_sweep(rows: list[SweepRow], path) -> None:
    """Sweep CSV: one row per beam center."""
    lines = ["theta_c_deg,g0_dbi,osll_db,ripple_db,iterations,converged,wall_ms"]
    for row in rows:
        osll = "" if row.osll_db is None else f"{row.osll_db:.6f}"
        g0 = "nan" if math.isnan(row.g0_dbi) else f"{row.g0_dbi:.6f}"
        ripple = "nan" if math.isnan(row.ripple_db) else f"{row.ripple_db:.6f}"
        lines.append(
            f"{row.theta_c_deg:.6f},{g0},{osll},{ripple},"
            f"{row.iterations},{str(row.converged).lower()},{row.wall_ms:.3f}"
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def round_significant(value, digits: int = 12):
    """Round floats (recursively in containers) to significant digits."""
    if isinstance(value, dict):
        return {k: round_significant(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_significant(v, digits) for v in value]
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if value == 0.0 or not math.isfinite(value):
            return value
        scale = digits - 1 - int(math.floor(math.log10(abs(value))))
        return round(value, scale)
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def summary_payload(
    resolved_config: dict, result: SynthesisResult, wall_ms: float
) -> dict:
    """Summary dictionary with the fully resolved configuration.

    ``blas_threads`` records each OpenBLAS build's thread count, on which
    the constrained answers depend through the ``Q Q^H`` Gram.
    """
    payload = {
        "blas_threads": blas_threads(),
        "config": resolved_config,
        "metrics": {
            "g0_dbi": result.g0_dbi,
            "admm_g0_dbi": result.admm_g0_dbi,
            "osll_db": result.osll_db,
            "ripple_db": result.ripple_db,
            "iterations": result.iterations,
            "converged": result.converged,
            "wall_ms": wall_ms,
        },
    }
    return round_significant(payload)


def export_summary(payload: dict, path) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
