import resource
import sys
from dataclasses import replace

import numpy as np
import pytest

from beamgain import (
    AdmmConfig,
    ArrayGeometry,
    DomainError,
    SynthesisProblem,
    assemble_regions,
    build_gain_operators,
    compute_metrics,
    gamma_from_dsll,
    nonuniform41,
    scan_sweep,
    synthesize,
    ula41,
)
from beamgain import synthesis
from beamgain.sphere import blas_threads
from conftest import helper_cpu_ms, random_geometry


def ula(n, spacing=0.5):
    positions = spacing * (np.arange(n) - (n - 1) / 2.0)
    return ArrayGeometry(positions=positions, efficiencies=np.ones(n))


class TestAssembleRegions:
    def test_reference_counts(self):
        ml, sl = assemble_regions(0.0, 20.0, 3.0, 0.5)
        assert ml.angles.size == 41
        assert len(sl) == 2
        assert sum(seg.angles.size for seg in sl) == 310
        left, right = sl
        assert left.angles[0] == -90.0 and left.angles[-1] == -13.0
        assert right.angles[0] == 13.0 and right.angles[-1] == 90.0

    def test_full_width_rejected(self):
        with pytest.raises(DomainError):
            assemble_regions(0.0, 180.0, 3.0, 0.5)

    def test_clipped_mainlobe_rejected(self):
        with pytest.raises(DomainError):
            assemble_regions(85.0, 20.0, 3.0, 0.5)

    def test_offset_center(self):
        ml, sl = assemble_regions(40.0, 10.0, 3.0, 0.5)
        assert ml.angles[0] == 35.0 and ml.angles[-1] == 45.0
        left, right = sl
        assert left.angles[-1] == 32.0
        assert right.angles[0] == 48.0

    def test_disjoint_with_guard(self, rng):
        for _ in range(50):
            bw = float(rng.uniform(4, 60))
            guard = float(rng.uniform(0, 6))
            center = float(rng.uniform(-90 + bw / 2 + 0.5, 90 - bw / 2 - 0.5))
            try:
                ml, sl = assemble_regions(center, bw, guard, 0.5)
            except DomainError:
                continue
            for seg in sl:
                gap = np.min(np.abs(seg.angles[:, None] - ml.angles[None, :]))
                assert gap >= guard - 1e-9

    def test_one_sided_when_guard_exceeds_edge(self):
        ml, sl = assemble_regions(80.0, 16.0, 3.0, 0.5)
        assert ml.angles[-1] == 88.0
        assert len(sl) == 1
        assert sl[0].angles[-1] == 69.0


class TestComputeMetrics:
    def test_flat_pattern(self):
        ml, sl = assemble_regions(0.0, 20.0, 3.0, 0.5)
        angles = np.arange(-90.0, 90.5, 0.5)
        g0, osll, ripple = compute_metrics(angles, np.zeros_like(angles), ml, sl)
        assert g0 == 0.0 and osll == 0.0 and ripple == 0.0

    def test_subtraction(self):
        ml, sl = assemble_regions(0.0, 20.0, 3.0, 0.5)
        angles = np.arange(-90.0, 90.5, 0.5)
        gain = np.where(np.abs(angles) <= 10.0, 7.0, -13.0)
        g0, osll, ripple = compute_metrics(angles, gain, ml, sl)
        assert g0 == pytest.approx(7.0)
        assert osll == pytest.approx(-20.0)
        assert ripple == pytest.approx(0.0)

    def test_no_sidelobe_region(self):
        ml, _ = assemble_regions(0.0, 20.0, 3.0, 0.5)
        angles = np.arange(-10.0, 10.5, 0.5)
        g0, osll, ripple = compute_metrics(angles, np.zeros_like(angles), ml, ())
        assert osll is None

    def test_uncovered_region_rejected(self):
        ml, sl = assemble_regions(0.0, 20.0, 3.0, 0.5)
        with pytest.raises(DomainError):
            compute_metrics(np.array([50.0]), np.array([0.0]), ml, sl)


class TestGammaMapping:
    def test_power_ratio(self):
        assert gamma_from_dsll(-20.0) == pytest.approx(0.01)
        assert gamma_from_dsll(-35.0) == pytest.approx(10 ** -3.5)


class TestSynthesize:
    def test_single_element(self):
        geom = ArrayGeometry(positions=[0.0], efficiencies=[1.0])
        problem = SynthesisProblem(
            geometry=geom, beam_center_deg=0.0, beamwidth_deg=1.0,
            admm=AdmmConfig(rho_init=100.0, iter_max=2000),
        )
        result = synthesize(problem)
        assert result.converged
        assert np.allclose(result.pattern_dbi, 0.0, atol=1e-9)
        assert result.g0_dbi == pytest.approx(0.0, abs=1e-9)

    def test_weight_round_trip_with_efficiency(self, rng):
        positions = 0.5 * (np.arange(7) - 3.0)
        eff = rng.uniform(0.5, 1.0, size=7)
        geom = ArrayGeometry(positions=positions, efficiencies=eff)
        problem = SynthesisProblem(
            geometry=geom, beam_center_deg=0.0, beamwidth_deg=20.0,
            admm=AdmmConfig(rho_init=200.0, iter_max=400),
        )
        result = synthesize(problem)
        assert np.allclose(
            result.weights_physical * np.sqrt(eff), result.weights_effective
        )

    def test_admm_vs_pattern_g0_agreement(self):
        geom = ula(9)
        problem = SynthesisProblem(
            geometry=geom, beam_center_deg=0.0, beamwidth_deg=30.0,
            admm=AdmmConfig(rho_init=200.0, iter_max=2000),
        )
        result = synthesize(problem)
        assert result.converged
        assert result.g0_dbi == pytest.approx(result.admm_g0_dbi, abs=0.01)

    def test_wsc_dispatch_and_sll(self):
        geom = ula(17)
        problem = SynthesisProblem(
            geometry=geom, beam_center_deg=0.0, beamwidth_deg=30.0, dsll_db=-15.0,
            admm=AdmmConfig(rho_init=500.0, iter_max=2000),
        )
        result = synthesize(problem)
        assert result.converged
        assert result.osll_db <= -15.0 + 0.2

    def test_nonconverged_flagged_not_raised(self):
        geom = ula(9)
        problem = SynthesisProblem(
            geometry=geom, beam_center_deg=0.0, beamwidth_deg=30.0,
            admm=AdmmConfig(rho_init=500.0, iter_max=4),
        )
        result = synthesize(problem)
        assert not result.converged
        assert result.iterations == 4

    def test_pattern_grid_spans_visible_region(self):
        geom = ula(5)
        problem = SynthesisProblem(
            geometry=geom, beam_center_deg=0.0, beamwidth_deg=30.0,
            admm=AdmmConfig(iter_max=5),
        )
        result = synthesize(problem)
        assert result.pattern_angles_deg[0] == -90.0
        assert result.pattern_angles_deg[-1] == 90.0
        assert result.pattern_angles_deg.size == 361


class TestScanSweep:
    def test_single_center_matches_synthesize(self):
        geom = ula(9)
        problem = SynthesisProblem(
            geometry=geom, beam_center_deg=0.0, beamwidth_deg=30.0,
            admm=AdmmConfig(rho_init=200.0, iter_max=800),
        )
        rows = scan_sweep(problem, [0.0])
        direct = synthesize(problem)
        assert len(rows) == 1
        assert rows[0].g0_dbi == pytest.approx(direct.g0_dbi, abs=1e-9)
        assert rows[0].converged == direct.converged

    @pytest.mark.parametrize("case", ["ula8", "nonuniform41", "in-process"])
    def test_rows_in_center_order_match_synthesize(self, monkeypatch, case):
        if case == "nonuniform41":
            # Q is 41 x 310: the blocked products and the set-up lock run
            problem = SynthesisProblem(
                geometry=nonuniform41(), beam_center_deg=0.0, beamwidth_deg=20.0,
                dsll_db=-20.0, admm=AdmmConfig(rho_init=2000.0, iter_max=60),
            )
            centers = [10.0, -5.0, 0.0, 25.0, 2.5]
        else:
            problem = SynthesisProblem(
                geometry=ula(8), beam_center_deg=0.0, beamwidth_deg=20.0,
                resolution_deg=1.0, dsll_db=-15.0,
                admm=AdmmConfig(rho_init=200.0, iter_max=100),
            )
            centers = [12.0, -20.0, 0.0, 5.0]
        if case == "in-process":
            monkeypatch.setattr(synthesis, "_cpu_count", lambda: 1)
        rows = scan_sweep(problem, centers)
        assert [row.theta_c_deg for row in rows] == centers
        fields = ("g0_dbi", "osll_db", "ripple_db", "iterations", "converged")
        for row, center in zip(rows, centers):
            direct = synthesize(replace(problem, beam_center_deg=center))
            assert row.error is None
            for name in fields:
                assert getattr(row, name) == getattr(direct, name), name

    def test_chunk_sets_up_every_center_before_the_first_loop(self, monkeypatch):
        calls = []

        class Lock:
            held = False

            def __enter__(self):
                assert not self.held
                self.held = True
                calls.append("acquire")

            def __exit__(self, *exc):
                self.held = False
                calls.append("release")

        def recorded(name, fn):
            def step(arg, *rest):
                center = (arg if name == "set_up" else arg.problem).beam_center_deg
                calls.append((name, center))
                return fn(arg, *rest)
            return step

        for name in ("set_up", "iterate", "finish"):
            monkeypatch.setattr(
                synthesis, f"_{name}", recorded(name, getattr(synthesis, f"_{name}"))
            )
        problem = SynthesisProblem(
            geometry=ula(9), beam_center_deg=0.0, beamwidth_deg=30.0,
            admm=AdmmConfig(rho_init=200.0, iter_max=50),
        )
        lock = Lock()
        rows = synthesis._sweep_chunk(problem, [89.0, 0.0, 12.0], lock)

        assert not lock.held
        assert calls == [
            "acquire",
            ("set_up", 89.0), ("set_up", 0.0), ("set_up", 12.0),
            "release",
            ("iterate", 0.0), ("finish", 0.0),
            ("iterate", 12.0), ("finish", 12.0),
        ]
        assert [row.theta_c_deg for row in rows] == [89.0, 0.0, 12.0]
        assert "clipped" in rows[0].error
        assert np.isnan(rows[0].g0_dbi)
        for row in rows[1:]:
            direct = synthesize(replace(problem, beam_center_deg=row.theta_c_deg))
            assert row.error is None
            assert row.g0_dbi == direct.g0_dbi
            assert row.iterations == direct.iterations
            assert row.wall_ms > 0.0

    def test_failure_recorded_sweep_continues(self):
        geom = ula(9)
        problem = SynthesisProblem(
            geometry=geom, beam_center_deg=0.0, beamwidth_deg=30.0,
            admm=AdmmConfig(rho_init=200.0, iter_max=50),
        )
        rows = scan_sweep(problem, [0.0, 89.0])
        assert rows[1].error is not None
        assert np.isnan(rows[1].g0_dbi)
        assert rows[0].error is None

    def test_scanning_reference_rows(self):
        # full-size sweep: constrained runs across beam centers keep the
        # requested sidelobe level within 0.2 dB at every direction
        from beamgain import nonuniform41

        problem = SynthesisProblem(
            geometry=nonuniform41(), beam_center_deg=0.0, beamwidth_deg=20.0,
            dsll_db=-20.0,
            admm=AdmmConfig(rho_init=2000.0, iter_max=2000),
        )
        rows = scan_sweep(problem, np.arange(0.0, 41.0, 5.0))
        assert len(rows) == 9
        for row in rows:
            assert row.error is None
            assert row.converged
            assert row.osll_db <= -19.8
            assert row.wall_ms < 60_000.0


class TestBlasThreads:
    def test_synthesize_leaves_the_thread_counts(self):
        before = blas_threads()
        for dsll in (None, -20.0):
            synthesize(SynthesisProblem(
                geometry=ula(9), beam_center_deg=0.0, beamwidth_deg=30.0,
                dsll_db=dsll, admm=AdmmConfig(rho_init=200.0, iter_max=20),
            ))
            assert blas_threads() == before

    @pytest.mark.skipif(
        not hasattr(resource, "RUSAGE_THREAD"),
        reason="reads the caller's CPU time with Linux's RUSAGE_THREAD",
    )
    def test_unconstrained_run_wakes_no_blas_thread(self):
        if blas_threads().get("numpy", 1) < 2:
            pytest.skip("needs an OpenBLAS build with at least two threads")
        if len(sys._current_frames()) > 1:
            pytest.skip("helpers stop only in a process running one Python thread")
        problem = SynthesisProblem(
            geometry=ula41(), beam_center_deg=0.0, beamwidth_deg=20.0,
            admm=AdmmConfig(rho_init=1000.0, iter_max=20),
        )
        synthesize(problem)
        woken = sum(helper_cpu_ms(lambda: synthesize(problem)))
        # positive control: a threaded Q Q^H wakes a BLAS helper, which the
        # probe sees
        mainlobe, sidelobe = assemble_regions(0.0, 20.0, 3.0, 0.5)
        q = build_gain_operators(nonuniform41(), mainlobe, sidelobe).Q
        spinning = sum(helper_cpu_ms(lambda: q @ q.conj().T))
        assert spinning > 20.0
        assert woken < 0.1 * spinning

    @pytest.mark.skipif(
        not hasattr(resource, "RUSAGE_THREAD"),
        reason="reads the caller's CPU time with Linux's RUSAGE_THREAD",
    )
    def test_constrained_run_leaves_no_helper_spinning(self):
        if blas_threads().get("numpy", 1) < 2:
            pytest.skip("needs an OpenBLAS build with at least two threads")
        if len(sys._current_frames()) > 1:
            pytest.skip("helpers stop only in a process running one Python thread")
        problem = SynthesisProblem(
            geometry=nonuniform41(), beam_center_deg=0.0, beamwidth_deg=20.0,
            dsll_db=-25.0, admm=AdmmConfig(rho_init=2000.0, iter_max=20),
        )
        # Q Q^H wakes the helper; the set-up stops it once the counts are back
        stopped = helper_cpu_ms(lambda: synthesize(problem))[1]
        # positive control: the bare product leaves it spinning
        mainlobe, sidelobe = assemble_regions(0.0, 20.0, 3.0, 0.5)
        q = build_gain_operators(nonuniform41(), mainlobe, sidelobe).Q
        spinning = helper_cpu_ms(lambda: q @ q.conj().T)[1]
        assert spinning > 20.0
        assert stopped < 0.1 * spinning
