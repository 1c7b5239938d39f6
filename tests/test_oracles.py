import json

import numpy as np
import pytest
from conftest import random_geometry

from beamgain import AdmmConfig, assemble_regions, build_gain_operators, run_wsc
from beamgain import oracles
from beamgain.errors import DomainError
from beamgain.oracles import (
    OracleReport,
    clamped_cost_wosc,
    clamped_cost_wsc,
    dual_certificate,
    oracle_g0_grid_wosc,
    oracle_g0_grid_wsc,
    oracle_secular_scan,
    oracle_sphere,
    secular_cost,
)


def _two_point_ternary_search(cost_fn, lo, hi):
    """The oracle's ternary search, evaluating its two thirds each round."""
    for _ in range(200):
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        if cost_fn(np.asarray([m1]))[0] < cost_fn(np.asarray([m2]))[0]:
            hi = m2
        else:
            lo = m1
        if hi - lo < 1e-13 * (1.0 + hi):
            break
    return lo, hi


class TestLevelGridOracle:
    def test_single_entry_closed_form(self):
        g0, _ = oracle_g0_grid_wosc(np.array([2.0 + 0j]), 1.0)
        assert g0 == pytest.approx(3.0, abs=1e-3)

    def test_two_entry_closed_form(self):
        g0, cost = oracle_g0_grid_wosc(np.array([1.0 + 0j, 4.0 + 0j]), 1.0)
        assert g0 == pytest.approx(2.0, abs=1e-3)
        assert cost == pytest.approx(-1.5, abs=1e-9)

    def test_wsc_closed_form(self):
        g0, _ = oracle_g0_grid_wsc(
            np.array([2.0 + 0j]), np.array([1.0 + 0j]), 1.0, 0.04
        )
        assert g0 == pytest.approx(40.0 / 13.0, abs=1e-3)

    def test_widens_small_range_with_warning(self):
        with pytest.warns(UserWarning):
            g0, _ = oracle_g0_grid_wosc(np.array([5.0 + 0j]), 1.0, g0_max=1.0)
        assert g0 > 1.0

    def test_self_consistency_under_refinement(self, rng):
        for _ in range(20):
            size = int(rng.integers(1, 9))
            y = (rng.normal(size=size) + 1j * rng.normal(size=size)) * 3.0
            rho = 10.0 ** rng.uniform(0, 2)
            _, coarse = oracle_g0_grid_wosc(y, rho)
            top = (rho + np.sum(np.abs(y))) / y.size
            g0_max = 1.2 * max(np.max(np.abs(y)), top)
            _, fine = oracle_g0_grid_wosc(y, rho, g0_max=g0_max, step=1e-4 * g0_max)
            assert abs(coarse - fine) < 1e-6

    def test_search_ends_on_the_two_point_search_bits(self, rng):
        costs = [lambda g: np.zeros_like(g), lambda g: g * g]
        brackets = [(0.5, 2.0), (-2.0, -1.0)]
        for _ in range(100):
            y = (rng.normal(size=int(rng.integers(1, 13))) * 1j + 1.0) * 10.0 ** rng.uniform(-2, 3)
            z2 = rng.normal(size=int(rng.integers(1, 13))) + 0j
            rho, gamma = 10.0 ** rng.uniform(-1, 3.5), 10.0 ** rng.uniform(-4, 0.5)
            costs += [lambda g, y=y, rho=rho: clamped_cost_wosc(g, y, rho),
                      lambda g, y=y, z2=z2, rho=rho, gamma=gamma:
                          clamped_cost_wsc(g, y, z2, rho, gamma)]
            top = float(np.abs(y).max())
            brackets += [(0.9 * top, 1.1 * top)] * 2
        # on (-2, -1) the width test never passes; only the 200-round cap ends it
        for cost_fn, (lo, hi) in zip(costs, brackets):
            expected = _two_point_ternary_search(cost_fn, np.float64(lo), np.float64(hi))
            assert oracles._ternary_search(cost_fn, np.float64(lo), np.float64(hi)) == expected

    def test_vectorized_cost_matches_scalar(self, rng):
        y = rng.normal(size=5) + 1j * rng.normal(size=5)
        grid = np.linspace(0.1, 3.0, 7)
        vec = clamped_cost_wosc(grid, y, 2.0)
        for g0, expected in zip(grid, vec):
            direct = -g0 + np.sum(np.maximum(g0 - np.abs(y), 0.0) ** 2) / 4.0
            assert expected == pytest.approx(direct)


class TestSphereOracle:
    def test_identity_case(self):
        # the minimizer is d / |d|: both components keep their phases
        x, cost = oracle_sphere(np.eye(2), np.array([3.0j, -4.0]), seed=0)
        assert cost == pytest.approx(16.0, abs=1e-6)
        assert np.allclose(x, [0.6j, -0.8], atol=1e-4)

    def test_zero_target_rayleigh(self):
        _, cost = oracle_sphere(np.diag([1.0, 2.0j]), np.zeros(2), seed=0)
        assert cost == pytest.approx(1.0, abs=1e-6)

    def test_self_consistency_under_refinement(self, rng):
        p = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        d = rng.normal(size=5) + 1j * rng.normal(size=5)
        _, coarse = oracle_sphere(p, d, n_restarts=2000, n_polish=4, seed=1)
        _, fine = oracle_sphere(p, d, n_restarts=20000, n_polish=8, seed=2)
        assert abs(coarse - fine) < 1e-6


class TestSecularScan:
    def test_single_term_roots(self):
        roots = oracle_secular_scan(np.array([0.0]), np.array([2.0]))
        assert np.allclose(roots, [-2.0, 2.0], atol=1e-8)

    def test_symmetric_double(self):
        roots = oracle_secular_scan(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert np.allclose(roots, [1 - np.sqrt(2), 1 + np.sqrt(2)], atol=1e-8)

    def test_min_root_minimizes_cost(self):
        lambdas = np.array([1.0, 4.0])
        beta = np.array([1.0, 2.0])
        roots = oracle_secular_scan(lambdas, beta)
        assert roots[0] == pytest.approx(-0.142, abs=5e-4)
        costs = [secular_cost(lambdas, beta, r) for r in roots]
        assert np.argmin(costs) == 0


class TestOracleReport:
    def test_json_line_round_trip(self):
        report = OracleReport(
            name="demo",
            oracle_cost=-1.5,
            engine_cost=-1.5000001,
            samples_or_gridstep="grid 1e-3",
            inputs={"y": [1.0, 4.0]},
        )
        payload = json.loads(report.to_json_line())
        assert payload["name"] == "demo"
        assert payload["gap"] == pytest.approx(-1e-7)


def certificate_lambda_max(P, Q, mu, nu):
    return float(np.linalg.eigvalsh((P * mu) @ P.conj().T - (Q * nu) @ Q.conj().T)[-1])


def small_wsc_instance(rng):
    """Random line, wide beam, coarse grid, and a short constrained run."""
    geometry = random_geometry(rng, int(rng.integers(5, 10)))
    bw = 2.0 * int(rng.integers(8, 20))
    ml, sl = assemble_regions(float(rng.integers(-20, 21)), bw, 4.0, 2.0)
    ops = build_gain_operators(geometry, ml, sl)
    cfg = AdmmConfig(rho_init=500.0, iter_max=300)
    return ops, run_wsc(ops, cfg, 10.0 ** rng.uniform(-2.5, -1.0)).x


class TestDualCertificate:
    def test_single_column_bound_is_column_norm(self, rng):
        p = rng.normal(size=(6, 1)) + 1j * rng.normal(size=(6, 1))
        bound, mu, nu = dual_certificate(p, np.zeros((6, 0), dtype=complex), None)
        assert bound == pytest.approx(float(np.linalg.norm(p) ** 2), rel=1e-12)
        assert mu.tolist() == [1.0] and nu.size == 0

    def test_one_element_bound_and_infeasible_cap(self):
        # one element: |x| = 1 fixes every gain, so the cap either holds
        # (best minimum gain min |p|^2) or no weight vector meets it
        p = np.array([[1.0, 2.0, 1.5]], dtype=complex)
        q = np.array([[0.3, 0.5]], dtype=complex)
        bound, _, _ = dual_certificate(p, q, 0.3)
        assert bound == pytest.approx(1.0, rel=1e-9)
        bound, mu, nu = dual_certificate(p, q, 0.2)
        assert bound <= 0.0
        assert abs(mu.sum() - 0.2 * nu.sum() - 1.0) <= 1e-12
        assert certificate_lambda_max(p, q, mu, nu) == pytest.approx(bound, rel=1e-12)

    def test_rejects_empty_mainlobe(self):
        with pytest.raises(DomainError):
            dual_certificate(np.zeros((4, 0)), np.ones((4, 2)), 0.1)

    def test_multipliers_valid_and_bound_above_feasible_point(self, rng):
        for _ in range(4):
            ops, x = small_wsc_instance(rng)
            P, Q = ops.P, ops.Q
            power_ml = np.abs(P.conj().T @ x) ** 2
            power_sl = np.abs(Q.conj().T @ x) ** 2
            # the cap that x meets exactly, so x is feasible for it
            gamma = float(np.max(power_sl) / np.min(power_ml))
            for start in (x, None):
                bound, mu, nu = dual_certificate(P, Q, gamma, x=start)
                assert np.all(mu >= 0.0) and np.all(nu >= 0.0)
                assert abs(mu.sum() - gamma * nu.sum() - 1.0) <= 1e-12
                assert certificate_lambda_max(P, Q, mu, nu) == pytest.approx(bound, rel=1e-12)
                assert bound >= np.min(power_ml) * (1.0 - 1e-12)
