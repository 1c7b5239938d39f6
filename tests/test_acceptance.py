"""Acceptance suite: benchmark-table reproduction and solver certification.

Each check prints one PASS/FAIL line (run ``pytest -s`` to see them inline).
The reference gains and sidelobe levels are the published benchmark values
for the two bundled 41-element fixtures; tolerances are fixed here, not
calibrated.  A constrained row is checked against its published gain capped
by a verified dual certificate (``beamgain.oracles.dual_certificate``) at the
loosest sidelobe cap its oSLL tolerance admits: no weight vector that passes
the oSLL check can exceed that bound, so a reference above it is not
reachable on the fixture and cannot be asked of the program.
"""

import time

import numpy as np
import pytest

from beamgain import (
    AdmmConfig,
    ArrayGeometry,
    SynthesisProblem,
    assemble_regions,
    build_gain_operators,
    build_total_power_matrix,
    factorize,
    nonuniform41,
    power_gain_pattern,
    run_wsc,
    secular_bisect,
    solve_sphere_lsq,
    synth_aep,
    synthesize,
    ula41,
    update_g_wosc,
    update_gh_wsc,
)
from beamgain.oracles import (
    clamped_cost_wosc,
    clamped_cost_wsc,
    dual_certificate,
    oracle_g0_grid_wosc,
    oracle_g0_grid_wsc,
    oracle_secular_scan,
    oracle_sphere,
    secular_cost,
)
from conftest import random_geometry

WOSC_REFERENCE = {10.0: 9.59, 20.0: 7.04, 30.0: 5.49, 40.0: 4.36}
WSC_REFERENCE = {-20.0: 7.03, -25.0: 7.01, -30.0: 6.98, -35.0: 6.93}
WSC_OSLL_TOL_DB = 0.2


def osll_cap_gamma(dsll: float) -> float:
    """Sidelobe power ratio of the loosest oSLL the acceptance check admits."""
    return 10.0 ** ((dsll + WSC_OSLL_TOL_DB) / 10.0)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def wosc_runs():
    runs = {}
    for bw in WOSC_REFERENCE:
        problem = SynthesisProblem(
            geometry=ula41(),
            beam_center_deg=0.0,
            beamwidth_deg=bw,
            resolution_deg=0.5,
            guard_deg=3.0,
            admm=AdmmConfig(rho_init=1000.0, rho_decay=0.99, iter_max=2000,
                            residual_tol=1e-4),
        )
        start = time.perf_counter()
        result = synthesize(problem)
        runs[bw] = (result, time.perf_counter() - start)
    return runs


@pytest.fixture(scope="module")
def wsc_runs():
    runs = {}
    for dsll in WSC_REFERENCE:
        problem = SynthesisProblem(
            geometry=nonuniform41(),
            beam_center_deg=0.0,
            beamwidth_deg=20.0,
            resolution_deg=0.5,
            guard_deg=3.0,
            dsll_db=dsll,
            admm=AdmmConfig(rho_init=2000.0, rho_decay=0.99, iter_max=2000,
                            residual_tol=1e-4),
        )
        start = time.perf_counter()
        result = synthesize(problem)
        elapsed = time.perf_counter() - start
        ops = build_gain_operators(problem.geometry, result.mainlobe, result.sidelobe)
        certificate = dual_certificate(
            ops.P, ops.Q, osll_cap_gamma(dsll), x=ops.C @ result.weights_effective
        )
        runs[dsll] = (result, elapsed, ops, certificate)
    return runs


@pytest.mark.parametrize("bw", sorted(WOSC_REFERENCE))
def test_criterion_1_min_gain_without_sidelobe_control(wosc_runs, bw):
    result, elapsed = wosc_runs[bw]
    reference = WOSC_REFERENCE[bw]
    ok = abs(result.g0_dbi - reference) <= 0.15 and elapsed < 60.0
    report(
        f"1 (bw={bw:g})",
        ok,
        f"G0 {result.g0_dbi:.3f} dBi vs reference {reference} (+-0.15), "
        f"{elapsed:.1f} s",
    )
    assert elapsed < 60.0
    assert result.g0_dbi == pytest.approx(reference, abs=0.15)


@pytest.mark.parametrize("dsll", sorted(WSC_REFERENCE))
def test_criterion_2_min_gain_with_sidelobe_control(wsc_runs, dsll):
    result, elapsed, ops, (bound, mu, nu) = wsc_runs[dsll]
    gamma = osll_cap_gamma(dsll)
    lambda_max = float(np.linalg.eigvalsh(
        (ops.P * mu) @ ops.P.conj().T - (ops.Q * nu) @ ops.Q.conj().T
    )[-1])
    certificate_ok = bool(
        np.all(mu >= 0.0)
        and np.all(nu >= 0.0)
        and abs(mu.sum() - gamma * nu.sum() - 1.0) <= 1e-12
        and lambda_max == pytest.approx(bound, rel=1e-12)
    )
    bound_dbi = 10.0 * np.log10(2.0 * lambda_max)
    reference = WSC_REFERENCE[dsll]
    expected = min(reference, bound_dbi)
    ok = (
        certificate_ok
        and result.g0_dbi <= bound_dbi + 1e-6
        and abs(result.g0_dbi - expected) <= 0.2
        and abs(result.osll_db - dsll) <= WSC_OSLL_TOL_DB
        and elapsed < 120.0
    )
    report(
        f"2 (dSLL={dsll:g})",
        ok,
        f"G0 {result.g0_dbi:.3f} dBi vs min(reference {reference}, certified bound "
        f"{bound_dbi:.3f}) (+-0.2), oSLL {result.osll_db:.2f} dB vs requested {dsll} "
        f"(+-{WSC_OSLL_TOL_DB}), {elapsed:.1f} s",
    )
    assert elapsed < 120.0
    assert certificate_ok, "dual certificate failed verification"
    assert result.osll_db == pytest.approx(dsll, abs=WSC_OSLL_TOL_DB)
    assert result.g0_dbi <= bound_dbi + 1e-6
    assert result.g0_dbi == pytest.approx(expected, abs=0.2), (
        f"measured {result.g0_dbi:.3f} dBi vs {expected:.3f} dBi, the lower of the "
        f"reference {reference} dBi and the dual_certificate bound {bound_dbi:.3f} dBi "
        f"at oSLL {dsll + WSC_OSLL_TOL_DB:g} dB"
    )


def test_criterion_3_convergence_profile(wsc_runs):
    result = wsc_runs[-20.0][0]
    history = result.history
    ok = (
        result.converged
        and result.iterations <= 2000
        and history.residual_ml[-1] < 1e-4
        and history.residual_sl[-1] < 1e-4
    )
    report(
        "3",
        ok,
        f"both residuals < 1e-4 at iteration {result.iterations} "
        f"(ml {history.residual_ml[-1]:.2e}, sl {history.residual_sl[-1]:.2e})",
    )
    assert result.converged
    assert result.iterations <= 2000
    assert history.residual_ml[-1] < 1e-4
    assert history.residual_sl[-1] < 1e-4


def test_criterion_4_subproblem_oracle_equivalence():
    rng = np.random.default_rng(41)
    start = time.perf_counter()
    worst_level = 0.0
    for _ in range(5000):
        size = int(rng.integers(1, 13))
        y = (rng.normal(size=size) + 1j * rng.normal(size=size)) * 10.0 ** rng.uniform(-2, 3)
        rho = 10.0 ** rng.uniform(-1, 3.5)
        g0, _ = update_g_wosc(y, rho)
        engine = float(clamped_cost_wosc(np.asarray([g0]), y, rho)[0])
        _, oracle = oracle_g0_grid_wosc(y, rho)
        worst_level = max(worst_level, engine - oracle)
    for _ in range(5000):
        l1 = int(rng.integers(1, 13))
        l2 = int(rng.integers(1, 13))
        z1 = (rng.normal(size=l1) + 1j * rng.normal(size=l1)) * 10.0 ** rng.uniform(-2, 3)
        z2 = (rng.normal(size=l2) + 1j * rng.normal(size=l2)) * 10.0 ** rng.uniform(-2, 3)
        rho1 = 10.0 ** rng.uniform(-1, 3.5)
        rho2 = 10.0 ** rng.uniform(-1, 3.5)
        gamma = 10.0 ** rng.uniform(-4, 0.5)
        g0, _, _ = update_gh_wsc(z1, z2, rho1, rho2, gamma)
        engine = float(clamped_cost_wsc(np.asarray([g0]), z1, z2, rho1, rho2, gamma)[0])
        _, oracle = oracle_g0_grid_wsc(z1, z2, rho1, rho2, gamma)
        worst_level = max(worst_level, engine - oracle)

    worst_sphere = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 13))
        cols = int(rng.integers(1, 13))
        m = rng.normal(size=(dim, cols))
        d = rng.normal(size=cols) * 10.0 ** rng.uniform(-1, 1)
        x = solve_sphere_lsq(m, d)
        engine = float(np.sum((m.T @ x - d) ** 2))
        _, oracle = oracle_sphere(m, d, n_restarts=4000, n_polish=6,
                                  seed=int(rng.integers(0, 2**31)))
        worst_sphere = max(worst_sphere, engine - oracle)
    elapsed = time.perf_counter() - start
    ok = worst_level <= 1e-6 and worst_sphere <= 1e-6 and elapsed < 300.0
    report(
        "4",
        ok,
        f"10^4 level updates worst gap {worst_level:.2e}, 10^3 sphere solves "
        f"worst gap {worst_sphere:.2e}, {elapsed:.0f} s",
    )
    assert worst_level <= 1e-6
    assert worst_sphere <= 1e-6
    assert elapsed < 300.0


def test_criterion_5_secular_certification():
    rng = np.random.default_rng(53)
    worst_residual = 0.0
    worst_excess = 0.0
    for _ in range(1000):
        size = int(rng.integers(1, 13))
        lambdas = np.sort(rng.uniform(0.0, 10.0, size=size))
        beta = rng.normal(size=size)
        beta[np.abs(beta) < 1e-6] = 1e-3
        nu = secular_bisect(lambdas, beta)
        residual = abs(float(np.sum((beta / (nu - lambdas)) ** 2) - 1.0))
        worst_residual = max(worst_residual, residual)
        m = np.sqrt(size)
        lower = np.min(lambdas - m * np.abs(beta))
        upper = min(np.min(lambdas - np.abs(beta)), np.max(lambdas - m * np.abs(beta)))
        assert lower - 1e-9 <= nu <= upper + 1e-9
        roots = oracle_secular_scan(lambdas, beta)
        cost_nu = secular_cost(lambdas, beta, nu)
        cost_best = min(secular_cost(lambdas, beta, r) for r in roots)
        worst_excess = max(worst_excess, cost_nu - cost_best)
    ok = worst_residual <= 1e-10 and worst_excess <= 1e-8
    report(
        "5",
        ok,
        f"10^3 systems: worst |f(nu)| {worst_residual:.2e}, worst cost excess "
        f"over scanned roots {worst_excess:.2e}",
    )
    assert worst_residual <= 1e-10
    assert worst_excess <= 1e-8


def test_criterion_6_invariant_suite():
    rng = np.random.default_rng(67)
    checks = []

    # unit norm, feasibility clamps, phase preservation along a run
    geom = random_geometry(rng, 8)
    ml, sl = assemble_regions(0.0, 24.0, 3.0, 0.5)
    ops = build_gain_operators(geom, ml, sl)
    cfg = AdmmConfig(rho_init=500.0, iter_max=120, gamma=0.01)
    unit_ok = feasible_ok = True

    def watch(state):
        nonlocal unit_ok, feasible_ok
        unit_ok &= abs(np.linalg.norm(state.x) - 1.0) <= 1e-9
        feasible_ok &= bool(
            np.all(np.abs(state.g) >= state.g0 - 1e-12)
            and np.all(np.abs(state.h) <= np.sqrt(cfg.gamma) * state.g0 + 1e-12)
        )

    run_wsc(ops, cfg, callback=watch)
    checks.append(("unit-norm x", unit_ok))
    checks.append(("feasibility clamps", feasible_ok))

    y = (rng.normal(size=9) + 1j * rng.normal(size=9)) * 3.0
    g0, g = update_g_wosc(y, 7.0)
    checks.append(
        ("phase preservation", bool(np.allclose(np.angle(g), np.angle(y))))
    )

    geometry = random_geometry(rng, 9)
    a = build_total_power_matrix(geometry)
    w = rng.normal(size=9) + 1j * rng.normal(size=9)
    angles = np.arange(-90.0, 90.5, 7.5)
    base = power_gain_pattern(geometry, w, angles, total_power=a)
    scale_ok = True
    for scale in (1e-3, 1.0, 1e3):
        rotated = scale * np.exp(1j * rng.uniform(0, 2 * np.pi)) * w
        shifted = power_gain_pattern(geometry, rotated, angles, total_power=a)
        scale_ok &= float(np.max(np.abs(shifted - base))) <= 1e-9
    checks.append(("gain scale invariance", scale_ok))

    fidelity_ok = True
    for n in (8, 32, 64):
        g2 = random_geometry(rng, n)
        a2 = build_total_power_matrix(g2)
        c2, c2_inv = factorize(a2)
        fidelity_ok &= (
            np.linalg.norm(c2.conj().T @ c2 - a2) <= 1e-10 * np.linalg.norm(a2)
        )
        fidelity_ok &= np.linalg.norm(c2 @ c2_inv - np.eye(n)) <= 1e-10
    checks.append(("factor fidelity", fidelity_ok))

    region_ok = True
    for _ in range(30):
        bw = float(rng.uniform(4, 60))
        guard = float(rng.uniform(0.5, 6))
        center = float(rng.uniform(-60, 60))
        try:
            ml_g, sl_g = assemble_regions(center, bw, guard, 0.5)
        except Exception:
            continue
        for seg in sl_g:
            gap = np.min(np.abs(seg.angles[:, None] - ml_g.angles[None, :]))
            region_ok &= gap >= guard - 1e-9
    checks.append(("region disjointness", region_ok))

    ok = all(flag for _, flag in checks)
    detail = ", ".join(f"{name} {'ok' if flag else 'VIOLATED'}" for name, flag in checks)
    report("6", ok, detail)
    assert ok, detail


def test_criterion_7_synthetic_element_pattern_path():
    base = nonuniform41()
    geometry = ArrayGeometry(
        positions=base.positions,
        efficiencies=base.efficiencies,
        element_patterns=synth_aep(45.0, base.n_elements),
    )
    problem = SynthesisProblem(
        geometry=geometry,
        beam_center_deg=0.0,
        beamwidth_deg=20.0,
        resolution_deg=0.5,
        guard_deg=3.0,
        dsll_db=-20.0,
        admm=AdmmConfig(rho_init=2000.0, rho_decay=0.99, iter_max=2000,
                        residual_tol=1e-4),
    )
    start = time.perf_counter()
    result = synthesize(problem)
    elapsed = time.perf_counter() - start
    ok = (
        result.converged
        and result.iterations <= 2000
        and result.history.residual_ml[-1] < 1e-4
        and result.history.residual_sl[-1] < 1e-4
        and result.osll_db <= -19.8
    )
    report(
        "7",
        ok,
        f"tapered-element array: converged={result.converged} at iteration "
        f"{result.iterations}, oSLL {result.osll_db:.2f} dB (<= -19.8), "
        f"G0 {result.g0_dbi:.2f} dBi, {elapsed:.1f} s",
    )
    assert result.converged and result.iterations <= 2000
    assert result.history.residual_ml[-1] < 1e-4
    assert result.history.residual_sl[-1] < 1e-4
    assert result.osll_db <= -19.8
