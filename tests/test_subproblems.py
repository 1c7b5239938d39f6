import numpy as np
import pytest

from beamgain import DomainError, update_g_wosc, update_gh_wsc
from beamgain.oracles import (
    clamped_cost_wosc,
    clamped_cost_wsc,
    oracle_g0_grid_wosc,
    oracle_g0_grid_wsc,
)


def wosc_cost(g0, g, y, rho):
    return -g0 + np.sum(np.abs(np.asarray(y) - g) ** 2) / (2.0 * rho)


def wsc_cost(g0, g, h, z1, z2, rho):
    return (
        -g0
        + np.sum(np.abs(np.asarray(z1) - g) ** 2) / (2.0 * rho)
        + np.sum(np.abs(np.asarray(z2) - h) ** 2) / (2.0 * rho)
    )


class TestLevelUpdateWosc:
    def test_all_zero_input(self):
        g0, g = update_g_wosc(np.zeros(3, dtype=complex), 1000.0)
        assert g0 == pytest.approx(1000.0 / 3.0)
        assert np.allclose(g, np.full(3, 1000.0 / 3.0))

    def test_single_entry(self):
        g0, g = update_g_wosc([2.0 + 0j], 1.0)
        assert g0 == pytest.approx(3.0)
        assert np.allclose(g, [3.0])
        assert wosc_cost(g0, g, [2.0], 1.0) == pytest.approx(-2.5)

    def test_two_entries_against_oracle(self):
        y = np.array([1.0 + 0j, 4.0 + 0j])
        g0, g = update_g_wosc(y, 1.0)
        oracle_g0, oracle_cost = oracle_g0_grid_wosc(y, 1.0)
        assert g0 == pytest.approx(2.0, abs=1e-9)
        assert g0 == pytest.approx(oracle_g0, abs=1e-3)
        assert np.allclose(g, [2.0, 4.0])
        assert wosc_cost(g0, g, y, 1.0) == pytest.approx(-1.5, abs=1e-12)
        assert wosc_cost(g0, g, y, 1.0) <= oracle_cost + 1e-9

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            update_g_wosc(np.zeros(0, dtype=complex), 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            update_g_wosc([np.nan + 0j], 1.0)

    def test_bad_rho(self):
        with pytest.raises(DomainError):
            update_g_wosc([1.0 + 0j], 0.0)

    def test_feasibility_and_phase(self, rng):
        for _ in range(200):
            size = int(rng.integers(1, 13))
            y = rng.normal(size=size) + 1j * rng.normal(size=size)
            y *= 10.0 ** rng.uniform(-2, 2)
            rho = 10.0 ** rng.uniform(-1, 3)
            g0, g = update_g_wosc(y, rho)
            assert g0 > 0
            assert np.all(np.abs(g) >= g0 - 1e-12)
            nonzero = np.abs(y) > 0
            assert np.allclose(np.angle(g[nonzero]), np.angle(y[nonzero]))

    def test_oracle_equivalence(self, rng):
        for _ in range(400):
            size = int(rng.integers(1, 13))
            y = (rng.normal(size=size) + 1j * rng.normal(size=size)) * 10.0 ** rng.uniform(-2, 3)
            rho = 10.0 ** rng.uniform(-1, 3.5)
            g0, _ = update_g_wosc(y, rho)
            engine_cost = float(clamped_cost_wosc(np.asarray([g0]), y, rho)[0])
            _, oracle_cost = oracle_g0_grid_wosc(y, rho)
            assert engine_cost <= oracle_cost + 1e-6


class TestLevelUpdateWsc:
    def test_all_zero_inputs(self):
        g0, g, h = update_gh_wsc(
            np.zeros(2, dtype=complex), np.zeros(5, dtype=complex), 1000.0, 0.01
        )
        assert g0 == pytest.approx(500.0)
        assert np.allclose(g, [500.0, 500.0])
        assert np.allclose(h, np.zeros(5))

    def test_unit_gamma(self):
        g0, g, h = update_gh_wsc([2.0 + 0j], [1.0 + 0j], 1.0, 1.0)
        assert g0 == pytest.approx(3.0)
        assert np.allclose(g, [3.0])
        assert np.allclose(h, [1.0])

    def test_small_gamma_against_oracle(self):
        z1 = np.array([2.0 + 0j])
        z2 = np.array([1.0 + 0j])
        g0, g, h = update_gh_wsc(z1, z2, 1.0, 0.04)
        oracle_g0, oracle_cost = oracle_g0_grid_wsc(z1, z2, 1.0, 0.04)
        assert g0 == pytest.approx(40.0 / 13.0, abs=1e-9)
        assert g0 == pytest.approx(oracle_g0, abs=1e-3)
        assert np.allclose(g, [40.0 / 13.0])
        assert np.allclose(h, [8.0 / 13.0])
        assert wsc_cost(g0, g, h, z1, z2, 1.0) <= oracle_cost + 1e-9

    def test_empty_sidelobe_delegates(self, rng):
        y = rng.normal(size=5) + 1j * rng.normal(size=5)
        g0_a, g_a = update_g_wosc(y, 7.0)
        g0_b, g_b, h = update_gh_wsc(y, np.zeros(0, dtype=complex), 7.0, 0.1)
        assert g0_a == g0_b
        assert np.allclose(g_a, g_b)
        assert h.size == 0

    def test_feasibility_and_phase(self, rng):
        for _ in range(200):
            l1 = int(rng.integers(1, 10))
            l2 = int(rng.integers(0, 10))
            z1 = (rng.normal(size=l1) + 1j * rng.normal(size=l1)) * 10.0 ** rng.uniform(-1, 2)
            z2 = (rng.normal(size=l2) + 1j * rng.normal(size=l2)) * 10.0 ** rng.uniform(-1, 2)
            rho = 10.0 ** rng.uniform(-1, 3)
            gamma = 10.0 ** rng.uniform(-4, 0.5)
            g0, g, h = update_gh_wsc(z1, z2, rho, gamma)
            assert g0 > 0
            assert np.all(np.abs(g) >= g0 - 1e-12)
            assert np.all(np.abs(h) <= np.sqrt(gamma) * g0 + 1e-12)
            assert np.allclose(np.angle(g[np.abs(z1) > 0]), np.angle(z1[np.abs(z1) > 0]))
            if l2:
                assert np.allclose(np.angle(h[np.abs(z2) > 0]), np.angle(z2[np.abs(z2) > 0]))

    def test_oracle_equivalence(self, rng):
        for _ in range(400):
            l1 = int(rng.integers(1, 13))
            l2 = int(rng.integers(1, 13))
            z1 = (rng.normal(size=l1) + 1j * rng.normal(size=l1)) * 10.0 ** rng.uniform(-2, 3)
            z2 = (rng.normal(size=l2) + 1j * rng.normal(size=l2)) * 10.0 ** rng.uniform(-2, 3)
            rho = 10.0 ** rng.uniform(-1, 3.5)
            gamma = 10.0 ** rng.uniform(-4, 0.5)
            g0, _, _ = update_gh_wsc(z1, z2, rho, gamma)
            engine_cost = float(clamped_cost_wsc(np.asarray([g0]), z1, z2, rho, gamma)[0])
            _, oracle_cost = oracle_g0_grid_wsc(z1, z2, rho, gamma)
            assert engine_cost <= oracle_cost + 1e-6
