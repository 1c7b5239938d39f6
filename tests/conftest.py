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
        f"OpenBLAS ({name}): {build_config}, {get()} threads"
        for name, (get, _, build_config) in builds.items()
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


@pytest.fixture
def small_geometry(rng):
    return random_geometry(rng, 6)
