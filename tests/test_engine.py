import numpy as np
import pytest

from beamgain import (
    AdmmConfig,
    AdmmState,
    AngularGrid,
    ArrayGeometry,
    DomainError,
    build_gain_operators,
    run_wosc,
    run_wsc,
)
from beamgain.engine import RESIDUAL_TOL, amplitude_to_dbi, update_duals
from beamgain.sphere import blas_threads
from conftest import random_geometry


def ula(n, spacing=0.5):
    positions = spacing * (np.arange(n) - (n - 1) / 2.0)
    return ArrayGeometry(positions=positions, efficiencies=np.ones(n))


def make_ops(geometry, bw, guard=3.0, res=0.5, with_sidelobe=False):
    half = bw / 2.0
    ml = AngularGrid.from_span(-half, half, res)
    sl = ()
    if with_sidelobe:
        sl = (
            AngularGrid.from_span(-90.0, -half - guard, res),
            AngularGrid.from_span(half + guard, 90.0, res),
        )
    return build_gain_operators(geometry, ml, sl)


class TestConfigValidation:
    def test_rho_range(self):
        with pytest.raises(DomainError):
            AdmmConfig(rho_init=0.5)
        with pytest.raises(DomainError):
            AdmmConfig(rho_init=20000.0)

    def test_decay_range(self):
        with pytest.raises(DomainError):
            AdmmConfig(rho_decay=1.5)

    def test_iter_max_integer(self):
        assert AdmmConfig(iter_max=np.int64(30)).iter_max == 30
        for iter_max in (30.0, True, "30"):
            with pytest.raises(DomainError):
                AdmmConfig(iter_max=iter_max)

    def test_gamma_positive(self, rng):
        ops = make_ops(random_geometry(rng, 5), 20.0, with_sidelobe=True)
        for gamma in (-0.1, 0.0, float("nan")):
            with pytest.raises(DomainError):
                run_wsc(ops, AdmmConfig(), gamma)


class TestDualUpdate:
    def test_zero_residual_keeps_duals(self, rng):
        p = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        state = AdmmState(
            x=x, g0=1.0, g=p.conj().T @ x, h=np.zeros(0, dtype=complex),
            u1=np.full(4, 0.3 + 0.1j), u2=np.zeros(0, dtype=complex),
            rho=2.0,
        )
        before = state.u1.copy()
        update_duals(state, p.conj().T @ x)
        assert np.allclose(state.u1, before)
        assert state.residual_ml == pytest.approx(0.0, abs=1e-14)

    def test_scaled_step(self):
        p = np.array([[1.0 + 0j]])
        state = AdmmState(
            x=np.array([2.0j]), g0=1.0, g=np.zeros(1, dtype=complex),
            h=np.zeros(0, dtype=complex), u1=np.zeros(1, dtype=complex),
            u2=np.zeros(0, dtype=complex), rho=2.0,
        )
        update_duals(state, p.conj().T @ state.x)
        assert np.allclose(state.u1, [1.0j])

    def test_residual_recomputation(self, rng):
        p = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        q = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        g = rng.normal(size=5) + 1j * rng.normal(size=5)
        h = rng.normal(size=3) + 1j * rng.normal(size=3)
        state = AdmmState(
            x=x, g0=1.0, g=g, h=h,
            u1=np.zeros(5, dtype=complex), u2=np.zeros(3, dtype=complex),
            rho=3.0,
        )
        update_duals(state, p.conj().T @ x, q.conj().T @ x)
        assert state.residual_ml == pytest.approx(np.max(np.abs(p.conj().T @ x - g)))
        assert state.residual_sl == pytest.approx(np.max(np.abs(q.conj().T @ x - h)))


class TestRunWosc:
    def test_single_element(self):
        geom = ArrayGeometry(positions=[0.0], efficiencies=[1.0])
        ops = build_gain_operators(
            geom, AngularGrid(angles=np.array([0.0]))
        )
        cfg = AdmmConfig(rho_init=1000.0, iter_max=2000)
        state = run_wosc(ops, cfg)
        assert state.converged
        assert state.g0 == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)
        assert state.g0_dbi == pytest.approx(0.0, abs=1e-5)

    def test_invariants_along_run(self, rng):
        geom = random_geometry(rng, 6)
        ops = make_ops(geom, 30.0)
        seen = []

        def check(state):
            seen.append(state.iteration)
            assert np.linalg.norm(state.x) == pytest.approx(1.0, abs=1e-9)
            assert np.all(np.abs(state.g) >= state.g0 - 1e-12)

        cfg = AdmmConfig(iter_max=60)
        run_wosc(ops, cfg, callback=check)
        assert seen == list(range(1, len(seen) + 1))

    def test_matches_multistart_subgradient_oracle(self, rng):
        # small case: engine should do at least as well as 200 polished restarts
        geom = ula(5)
        ops = make_ops(geom, 60.0)
        cfg = AdmmConfig(rho_init=100.0, iter_max=2000)
        state = run_wosc(ops, cfg)
        assert state.converged
        engine_value = float(np.min(np.abs(ops.P.conj().T @ state.x)))

        best = 0.0
        p = ops.P
        for _ in range(200):
            x = rng.normal(size=5) + 1j * rng.normal(size=5)
            x /= np.linalg.norm(x)
            step = 0.1
            for it in range(300):
                levels = np.abs(p.conj().T @ x)
                worst = int(np.argmin(levels))
                col = p[:, worst]
                inner = col.conj() @ x
                grad = col * (inner / max(abs(inner), 1e-30))
                x = x + step * grad / (1 + it / 30.0)
                x /= np.linalg.norm(x)
            best = max(best, float(np.min(np.abs(p.conj().T @ x))))
        assert engine_value >= best - 1e-3

    def test_non_convergence_flagged(self, rng):
        geom = random_geometry(rng, 5)
        ops = make_ops(geom, 20.0)
        state = run_wosc(ops, AdmmConfig(iter_max=3))
        assert not state.converged
        assert state.iteration == 3
        assert len(state.history) == 3

    def test_dual_increment_vanishes(self, rng):
        # the dual increments max|du| = residual/rho must collapse toward
        # zero by the time the residual tolerance is met (the ratio is the
        # schedule-invariant tracking constant, here around 4e-4)
        geom = ula(9)
        ops = make_ops(geom, 30.0)
        state = run_wosc(ops, AdmmConfig(rho_init=100.0, iter_max=2000))
        assert state.converged
        history = state.history
        increments = np.asarray(history.residual_ml) / np.asarray(history.rho)
        assert increments[-1] <= 1e-3
        assert increments[-1] <= np.max(increments) / 100.0

    def test_empty_mainlobe_rejected(self, rng):
        geom = random_geometry(rng, 4)
        ops = make_ops(geom, 10.0)
        object.__setattr__(ops, "P", np.zeros((4, 0), dtype=complex))
        with pytest.raises(DomainError):
            run_wosc(ops, AdmmConfig())


class TestRunWsc:
    def test_empty_sidelobe_reduces_to_wosc(self, rng):
        geom = random_geometry(rng, 6)
        ops = make_ops(geom, 30.0, with_sidelobe=False)
        cfg = AdmmConfig(rho_init=200.0, iter_max=300)
        a = run_wosc(ops, cfg)
        b = run_wsc(ops, cfg, 0.01)
        assert a.history.g0_amp == b.history.g0_amp
        assert np.allclose(a.x, b.x)

    def test_gamma_required(self, rng):
        geom = random_geometry(rng, 5)
        ops = make_ops(geom, 20.0, with_sidelobe=True)
        with pytest.raises(DomainError):
            run_wsc(ops, AdmmConfig(), None)

    def test_feasibility_along_run(self, rng):
        geom = random_geometry(rng, 6)
        ops = make_ops(geom, 24.0, with_sidelobe=True)
        cfg = AdmmConfig(rho_init=500.0, iter_max=80)
        gamma = 0.01

        def check(state):
            assert np.linalg.norm(state.x) == pytest.approx(1.0, abs=1e-9)
            assert np.all(np.abs(state.g) >= state.g0 - 1e-12)
            assert np.all(np.abs(state.h) <= np.sqrt(gamma) * state.g0 + 1e-12)

        run_wsc(ops, cfg, gamma, callback=check)

    def test_converges_small_fixture(self, rng):
        geom = ula(17)
        ops = make_ops(geom, 30.0, with_sidelobe=True)
        gamma = 10 ** (-1.5)
        state = run_wsc(ops, AdmmConfig(rho_init=500.0, iter_max=2000), gamma)
        assert state.converged
        assert state.residual_ml <= RESIDUAL_TOL
        assert state.residual_sl <= RESIDUAL_TOL
        # obtained sidelobe cap respected by the converged pattern
        sll = np.max(np.abs(ops.Q.conj().T @ state.x))
        assert sll <= np.sqrt(gamma) * state.g0 * (1 + 1e-3) + 1e-4


    def test_loop_runs_on_one_blas_thread(self):
        # each iteration sees every OpenBLAS build at one thread, and the
        # caller's counts are back after the run
        before = blas_threads()
        seen = []
        ops = make_ops(ula(17), 30.0, with_sidelobe=True)
        cfg = AdmmConfig(rho_init=500.0, iter_max=5)
        run_wsc(ops, cfg, 0.01, callback=lambda state: seen.append(blas_threads()))
        assert seen == [dict.fromkeys(before, 1)] * 5
        assert blas_threads() == before


class TestScaleRobustness:
    def test_unit_modulus_operator_scaling(self, rng):
        geom = random_geometry(rng, 6)
        ops = make_ops(geom, 24.0, with_sidelobe=True)
        cfg = AdmmConfig(rho_init=300.0, iter_max=50)
        base = run_wsc(ops, cfg, 0.01)

        phase = np.exp(1j * 0.7331)
        scaled = type(ops)(A=ops.A, C=ops.C, P=phase * ops.P, Q=phase * ops.Q)
        other = run_wsc(scaled, cfg, 0.01)
        assert np.allclose(base.history.g0_amp, other.history.g0_amp, atol=1e-9)


def test_amplitude_to_dbi_roundtrip():
    assert amplitude_to_dbi(1.0 / np.sqrt(2.0)) == pytest.approx(0.0, abs=1e-12)
    assert amplitude_to_dbi(np.sqrt(41.0 / 2.0)) == pytest.approx(
        10 * np.log10(41.0), abs=1e-12
    )
