"""Machine and library facts recorded in every result file.

Two result files are comparable only when their ``COMPARED`` facts agree:
the same core count, CPU, interpreter, numpy/scipy builds, OpenBLAS
builds and BLAS thread settings.  The seed, commit and source digest are
recorded too, but they differ between the runs a comparison is made for.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path

BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "BEAMGAIN_THREADS",
)

COMPARED = (
    "nproc",
    "affinity_cpus",
    "cpu_model",
    "python",
    "numpy",
    "scipy",
    "numpy_openblas",
    "scipy_openblas",
    "blas_env",
    "blas_threads",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _openblas_runtime(package_dir: str, pattern: str, suffix: str):
    """(config string, thread count) from the OpenBLAS a wheel bundles."""
    for path in sorted(glob.glob(os.path.join(package_dir, pattern))):
        try:
            lib = ctypes.CDLL(path)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return get_config().decode(), int(get_threads())
    return None, None


def _git_commit(root: Path):
    # The ceiling keeps git from finding a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((src / "beamgain").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def collect(root: Path, seed: int) -> dict:
    """Facts of this process; call after numpy and scipy are imported."""
    import numpy
    import scipy

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    np_cfg, np_threads = _openblas_runtime(
        site, "numpy.libs/libscipy_openblas64_*.so", "64_"
    )
    sp_cfg, sp_threads = _openblas_runtime(
        site, "scipy.libs/libscipy_openblas*.so", ""
    )
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": np_cfg,
        "scipy_openblas": sp_cfg,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "blas_threads": {"numpy": np_threads, "scipy": sp_threads},
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root / "src"),
        "seed": seed,
    }


def mismatches(a: dict, b: dict) -> list[str]:
    """Names of the compared facts on which two result files disagree."""
    return [key for key in COMPARED if a.get(key) != b.get(key)]
