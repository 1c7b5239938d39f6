import numpy as np
import pytest

from beamgain import (
    DomainError,
    NumericalError,
    SphereSolver,
    complex_to_real,
    real_to_complex,
    realify,
    secular_bisect,
    solve_sphere_lsq,
)
from beamgain import sphere
from beamgain.oracles import oracle_secular_scan, oracle_sphere, secular_cost


def stacked_cost(m, d, x):
    return float(np.sum((m.T @ x - d) ** 2))


class TestRealify:
    def test_pure_imaginary_operator(self):
        # P^H x = conj(j) * 1 = -j, stacked as [0, -1]
        m, _ = realify(np.array([[1j]]), np.array([0j]))
        xt = complex_to_real(np.array([1.0 + 0j]))
        assert np.allclose(m.T @ xt, [0.0, -1.0])

    def test_real_operator_block_structure(self, rng):
        p = rng.normal(size=(3, 2)).astype(complex)
        m, _ = realify(p, np.zeros(2, dtype=complex))
        assert np.allclose(m[:3, :2], p.real)
        assert np.allclose(m[3:, 2:], p.real)
        assert np.allclose(m[:3, 2:], 0.0)
        assert np.allclose(m[3:, :2], 0.0)

    def test_norm_identity(self, rng):
        p = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        for _ in range(10):
            x = rng.normal(size=3) + 1j * rng.normal(size=3)
            d = rng.normal(size=2) + 1j * rng.normal(size=2)
            m, dt = realify(p, d)
            complex_norm = np.linalg.norm(p.conj().T @ x - d) ** 2
            real_norm = np.linalg.norm(m.T @ complex_to_real(x) - dt) ** 2
            assert complex_norm == pytest.approx(real_norm, abs=1e-12)

    def test_weighted_two_block_identity(self, rng):
        p = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        q = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        d1 = rng.normal(size=3) + 1j * rng.normal(size=3)
        d2 = rng.normal(size=5) + 1j * rng.normal(size=5)
        w1, w2 = 1.0 / 7.0, 1.0 / 3.0
        m, dt = realify(p, d1, q, d2, weight_ml=w1, weight_sl=w2)
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        lhs = np.linalg.norm(m.T @ complex_to_real(x) - dt) ** 2
        rhs = w1 * np.linalg.norm(p.conj().T @ x - d1) ** 2
        rhs += w2 * np.linalg.norm(q.conj().T @ x - d2) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_round_trip(self, rng):
        x = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert np.array_equal(real_to_complex(complex_to_real(x)), x)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            realify(np.ones((2, 3), dtype=complex), np.zeros(2, dtype=complex))


class TestSecularBisect:
    def test_single_term(self):
        nu = secular_bisect([0.0], [2.0])
        assert nu == pytest.approx(-2.0, abs=1e-10)

    def test_symmetric_pair(self):
        nu = secular_bisect([1.0, 1.0], [1.0, 1.0])
        assert nu == pytest.approx(1.0 - np.sqrt(2.0), abs=1e-10)

    def test_generic_pair_matches_scan(self):
        lambdas = np.array([1.0, 4.0])
        beta = np.array([1.0, 2.0])
        nu = secular_bisect(lambdas, beta)
        roots = oracle_secular_scan(lambdas, beta)
        assert nu == pytest.approx(roots[0], abs=1e-8)
        assert nu == pytest.approx(-0.142, abs=5e-4)

    def test_exhausted_step_budget_raises(self, monkeypatch):
        # one step cannot certify this root; the last iterate must not be
        # returned as if it were one
        monkeypatch.setattr(sphere, "_SECULAR_STEPS", 1)
        with pytest.raises(NumericalError, match="not certified"):
            secular_bisect([1.0, 4.0], [1.0, 2.0])

    def test_all_zero_beta_rejected(self):
        with pytest.raises(DomainError):
            secular_bisect([1.0], [0.0])

    def test_residual_bracket_and_ordering(self, rng):
        for _ in range(150):
            size = int(rng.integers(1, 13))
            lambdas = np.sort(rng.uniform(0, 10, size=size))
            beta = rng.normal(size=size)
            beta[np.abs(beta) < 1e-6] = 1e-3
            nu = secular_bisect(lambdas, beta)
            residual = np.sum((beta / (nu - lambdas)) ** 2) - 1.0
            assert abs(residual) <= 1e-10
            m = np.sqrt(size)
            lower = np.min(lambdas - m * np.abs(beta))
            upper = min(np.min(lambdas - np.abs(beta)), np.max(lambdas - m * np.abs(beta)))
            assert lower - 1e-9 <= nu <= upper + 1e-9
            roots = oracle_secular_scan(lambdas, beta)
            costs = [secular_cost(lambdas, beta, r) for r in roots]
            assert secular_cost(lambdas, beta, nu) <= min(costs) + 1e-8


class TestSolveSphereLsq:
    def test_identity_projection(self):
        x = solve_sphere_lsq(np.eye(2), np.array([3.0, 4.0]))
        assert np.allclose(x, [0.6, 0.8], atol=1e-10)

    def test_zero_target_rayleigh(self):
        x = solve_sphere_lsq(np.diag([1.0, 2.0]), np.zeros(2))
        assert abs(x[0]) == pytest.approx(1.0, abs=1e-12)
        assert x[1] == pytest.approx(0.0, abs=1e-12)

    def test_reference_case(self):
        m = np.diag([1.0, 2.0])
        d = np.array([1.0, 1.0])
        x = solve_sphere_lsq(m, d)
        _, cost = oracle_sphere(m, d, seed=5)
        assert stacked_cost(m, d, x) <= cost + 1e-6
        assert np.allclose(np.abs(x), [0.876, 0.483], atol=2e-3)

    def test_hard_case_completion(self):
        # target orthogonal to the bottom eigenvector, secular sum below one
        m = np.diag([1.0, 2.0])
        d = np.array([0.0, 0.5])
        x = solve_sphere_lsq(m, d)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        _, cost = oracle_sphere(m, d, n_restarts=50000, seed=3)
        assert stacked_cost(m, d, x) <= cost + 1e-6

    def test_zero_operator_rejected(self):
        with pytest.raises(DomainError):
            solve_sphere_lsq(np.zeros((2, 2)), np.ones(2))

    def test_unit_norm_and_oracle(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 13))
            cols = int(rng.integers(1, 13))
            m = rng.normal(size=(dim, cols))
            d = rng.normal(size=cols) * 10.0 ** rng.uniform(-1, 1)
            x = solve_sphere_lsq(m, d)
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-9)
            _, oracle_cost = oracle_sphere(
                m, d, n_restarts=4000, n_polish=6, seed=int(rng.integers(0, 2**31))
            )
            assert stacked_cost(m, d, x) <= oracle_cost + 1e-6


class TestSphereSolver:
    def test_matches_standalone_single_block(self, rng):
        p = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        solver = SphereSolver(p)
        for _ in range(5):
            d = rng.normal(size=6) + 1j * rng.normal(size=6)
            x = solver.solve(d)
            m, dt = realify(p, d)
            xt = solve_sphere_lsq(m, dt)
            assert np.allclose(complex_to_real(x), xt, atol=1e-8) or np.allclose(
                complex_to_real(x), -xt, atol=1e-8
            )

    def test_matches_standalone_weighted_blocks(self, rng):
        p = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        q = rng.normal(size=(3, 7)) + 1j * rng.normal(size=(3, 7))
        solver = SphereSolver(p, q)
        for w1, w2 in ((1.0, 1.0), (1.0 / 5.0, 1.0 / 20.0), (2.0, 0.25)):
            d1 = rng.normal(size=4) + 1j * rng.normal(size=4)
            d2 = rng.normal(size=7) + 1j * rng.normal(size=7)
            x = solver.solve(d1, d2, weight_ml=w1, weight_sl=w2)
            m, dt = realify(p, d1, q, d2, weight_ml=w1, weight_sl=w2)
            xt = solve_sphere_lsq(m, dt)
            cost_cached = np.linalg.norm(m.T @ complex_to_real(x) - dt) ** 2
            cost_direct = np.linalg.norm(m.T @ xt - dt) ** 2
            assert cost_cached == pytest.approx(cost_direct, rel=1e-9, abs=1e-12)
