import resource
import time

import numpy as np
import pytest

from beamgain import ArrayGeometry
from beamgain import sphere


def pytest_report_header(config):
    """Each OpenBLAS build and its thread count; some answers depend on it."""
    builds = sphere._openblas_builds()
    if not builds:
        return "OpenBLAS: no build found"
    return [
        f"OpenBLAS ({name}): {build.config}, {build.get()} threads"
        for name, build in builds.items()
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_geometry(rng, n, min_spacing=0.35, max_spacing=0.8):
    """Random strictly increasing line with unit efficiencies."""
    gaps = rng.uniform(min_spacing, max_spacing, size=n - 1)
    positions = np.concatenate(([0.0], np.cumsum(gaps)))
    positions -= positions.mean()
    return ArrayGeometry(positions=positions, efficiencies=np.ones(n))


def random_sphere_problem(rng, blocks):
    """Operators and targets of a random complex sphere problem.

    N = 1-6 rows, 1-12 columns in each of ``blocks`` blocks, targets scaled
    by a factor in [0.1, 10].
    """
    n = int(rng.integers(1, 7))
    ops, targets = [], []
    for _ in range(blocks):
        cols = int(rng.integers(1, 13))
        ops.append(rng.normal(size=(n, cols)) + 1j * rng.normal(size=(n, cols)))
        scale = 10.0 ** rng.uniform(-1, 1)
        targets.append(scale * (rng.normal(size=cols) + 1j * rng.normal(size=cols)))
    return ops, targets


def sphere_cost(ops, targets, x):
    """``sum_k ||op_k^H x - target_k||^2``, the cost of the stacked problem."""
    residual = np.hstack(ops).conj().T @ x - np.concatenate(targets)
    return float(np.sum(np.abs(residual) ** 2))


@pytest.fixture
def small_geometry(rng):
    return random_geometry(rng, 6)


def helper_cpu_ms(work) -> tuple[float, float]:
    """CPU time in ms of threads other than the caller: during ``work``, and after.

    Measured as the process's CPU time less the caller's, so that threads
    which have exited by the end are counted too (``/proc/self/task`` no
    longer lists them).  The second value covers 0.3 s after ``work``
    returns, in which a BLAS helper left spinning by ``work`` shows up.  A
    quiet 0.6 s first lets a helper woken earlier stop spinning.
    """
    def others():
        process = resource.getrusage(resource.RUSAGE_SELF)
        caller = resource.getrusage(resource.RUSAGE_THREAD)
        return (process.ru_utime + process.ru_stime) - (caller.ru_utime + caller.ru_stime)

    time.sleep(0.6)
    start = others()
    work()
    end = others()
    time.sleep(0.3)
    return 1e3 * (end - start), 1e3 * (others() - end)
