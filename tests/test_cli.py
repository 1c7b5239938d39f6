import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest

from conftest import sphere_cost

from beamgain import (
    AdmmConfig,
    ArrayGeometry,
    SphereSolver,
    SynthesisProblem,
    load_geometry_csv,
    synthesize,
    update_gh_wsc,
)
from beamgain.cli import main
from beamgain.exports import export_pattern, round_significant
from beamgain.oracles import clamped_cost_wsc
from beamgain.sphere import blas_threads
from beamgain.synthesis import SynthesisResult


def small_config(tmp_path, dsll=None, iter_max=800):
    problem = {
        "beam_center_deg": 0.0,
        "beamwidth_deg": 30.0,
        "resolution_deg": 0.5,
        "guard_deg": 3.0,
    }
    if dsll is not None:
        problem["dsll_db"] = dsll
    config = {
        "geometry": {
            "positions": [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0],
            "efficiencies": [1.0] * 9,
        },
        "problem": problem,
        "admm": {"rho_init": 200.0, "iter_max": iter_max},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return path


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSynthCommand:
    def test_success_writes_artifacts(self, tmp_path):
        config = small_config(tmp_path)
        code = main(["synth", "--config", str(config)])
        assert code == 0
        out = tmp_path / "out"
        pattern = (out / "pattern.csv").read_text().splitlines()
        assert pattern[0] == "theta_deg,gain_dbi"
        assert len(pattern) == 362
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metrics"]["converged"] is True
        assert summary["config"]["admm"]["rho_decay"] == 0.99
        assert set(summary["config"]["admm"]) == {f.name for f in fields(AdmmConfig)}
        assert "seed" not in summary
        assert summary["blas_threads"] == blas_threads()
        assert all(isinstance(n, int) and n >= 1 for n in summary["blas_threads"].values())
        assert (out / "weights.csv").exists()
        assert (out / "history.csv").exists()

    def test_deterministic_outputs(self, tmp_path):
        config = small_config(tmp_path)
        assert main(["synth", "--config", str(config)]) == 0
        out = tmp_path / "out"
        first = {name: digest(out / name) for name in
                 ("pattern.csv", "weights.csv", "history.csv")}
        first_summary = json.loads((out / "summary.json").read_text())
        assert main(["synth", "--config", str(config)]) == 0
        second = {name: digest(out / name) for name in
                  ("pattern.csv", "weights.csv", "history.csv")}
        second_summary = json.loads((out / "summary.json").read_text())
        assert first == second
        first_summary["metrics"].pop("wall_ms")
        second_summary["metrics"].pop("wall_ms")
        assert first_summary == second_summary

    def test_missing_config_exit_2(self, tmp_path):
        code = main(["synth", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        problem = {"beam_center_deg": 0, "beamwidth_deg": 20}
        path.write_text(json.dumps({
            "geometry": {"fixture": "ula41"},
            "problem": {**problem, "bogus": 1},
        }))
        assert main(["synth", "--config", str(path)]) == 2
        # admm keys that once existed, each at a value it used to accept
        removed = {"rho2_init": 1500.0, "residual_tol": 1e-4,
                   "secular_tol": 1e-12, "rho_floor": 1e-3}
        for key, value in removed.items():
            path.write_text(json.dumps({
                "geometry": {"fixture": "ula41"},
                "problem": problem,
                "admm": {key: value},
            }))
            assert main(["synth", "--config", str(path)]) == 2, key

    def test_invalid_parameter_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "geometry": {"fixture": "ula41"},
            "problem": {"beam_center_deg": 0, "beamwidth_deg": 20},
            "admm": {"rho_init": 0.5},
        }))
        assert main(["synth", "--config", str(path)]) == 2

    def test_nonconvergence_exit_4_with_artifacts(self, tmp_path):
        config = small_config(tmp_path, iter_max=3)
        code = main(["synth", "--config", str(config)])
        assert code == 4
        assert (tmp_path / "out" / "pattern.csv").exists()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["metrics"]["converged"] is False

    def test_algorithm_override_wosc_drops_dsll(self, tmp_path):
        config = small_config(tmp_path, dsll=-15.0)
        assert main(["synth", "--config", str(config), "--algorithm", "wosc"]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["config"]["problem"]["dsll_db"] is None

    def test_algorithm_wsc_requires_dsll(self, tmp_path):
        config = small_config(tmp_path)
        assert main(["synth", "--config", str(config), "--algorithm", "wsc"]) == 2

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "key", ["beam_center_deg", "beamwidth_deg", "resolution_deg", "guard_deg", "dsll_db"]
    )
    def test_non_finite_problem_number_exit_2(self, tmp_path, key, value):
        config = small_config(tmp_path, dsll=-15.0)
        raw = json.loads(config.read_text())
        raw["problem"][key] = value
        config.write_text(json.dumps(raw))
        assert main(["synth", "--config", str(config)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("iter_max", [30.0, True, "30"])
    def test_non_integer_iter_max_exit_2(self, tmp_path, iter_max):
        config = small_config(tmp_path, iter_max=iter_max)
        assert main(["synth", "--config", str(config)]) == 2
        assert not (tmp_path / "out").exists()

    def test_history_and_problem_formats(self, tmp_path):
        config = small_config(tmp_path, dsll=-15.0, iter_max=40)
        assert main(["synth", "--config", str(config)]) in (0, 4)
        out = tmp_path / "out"
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "iter,g0_amp,g0_dbi,residual_ml,residual_sl,rho"
        summary = json.loads((out / "summary.json").read_text())
        iterations = summary["metrics"]["iterations"]
        assert [row.split(",")[0] for row in history[1:]] == [
            str(i) for i in range(1, iterations + 1)
        ]
        problem_fields = {f.name for f in fields(SynthesisProblem)}
        assert set(summary["config"]["problem"]) == problem_fields - {"geometry", "admm"}

    def test_failed_export_leaves_no_temp_file(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "out"
        (out / "pattern.csv").mkdir(parents=True)
        assert main(["synth", "--config", str(config)]) == 2
        assert [p.name for p in out.iterdir()] == ["pattern.csv"]


class TestSweepCommand:
    def test_two_centers(self, tmp_path):
        config = small_config(tmp_path)
        code = main(["sweep", "--config", str(config), "--centers", "0:10:10"])
        assert code == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert rows[0].startswith("theta_c_deg,")
        assert len(rows) == 3

    def test_bad_centers_argument(self, tmp_path):
        config = small_config(tmp_path)
        assert main(["sweep", "--config", str(config), "--centers", "5:1:1"]) == 2

    @pytest.mark.parametrize("centers", ["nan", "inf", "0:inf:5", "nan:10:5", "0:10:nan"])
    def test_non_finite_centers_exit_2(self, tmp_path, centers):
        config = small_config(tmp_path)
        assert main(["sweep", "--config", str(config), "--centers", centers]) == 2
        assert not (tmp_path / "out").exists()


class TestValidateCommand:
    def test_quick_run(self, tmp_path):
        code = main(["validate", "--checks", "10", "--seed", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "oracle_reports.jsonl").read_text().splitlines()
        assert len(lines) == 10 * 3 + 2
        record = json.loads(lines[0])
        assert record["gap"] <= 1e-6

    @pytest.mark.parametrize("checks", ["0", "-3"])
    def test_checks_below_one_exit_2(self, tmp_path, checks):
        assert main(["validate", "--checks", checks, "--out", str(tmp_path / "v")]) == 2
        assert not (tmp_path / "v").exists()

    def test_reports_replay(self, tmp_path):
        assert main(["validate", "--checks", "8", "--seed", "5", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "oracle_reports.jsonl").read_text().splitlines()
        reports = [json.loads(line) for line in lines]

        def stored(inputs, *names):
            return [np.asarray(inputs[f"{n}_re"]) + 1j * np.asarray(inputs[f"{n}_im"])
                    for n in names if f"{n}_re" in inputs]

        sphere = [r for r in reports if r["name"] == "sphere_lsq"]
        assert ["q_re" in r["inputs"] for r in sphere] == [False, True]
        for record in sphere:
            ops, targets = stored(record["inputs"], "p", "q"), stored(record["inputs"], "d1", "d2")
            x = SphereSolver(*ops).solve(*targets)
            assert sphere_cost(ops, targets, x) == record["engine_cost"]

        record = next(r for r in reports if r["name"] == "level_wsc")
        inputs = record["inputs"]
        z1, z2 = stored(inputs, "z1", "z2")
        assert "rho1" not in inputs and "rho2" not in inputs
        g0, _, _ = update_gh_wsc(z1, z2, inputs["rho"], inputs["gamma"])
        cost = clamped_cost_wsc(np.asarray([g0]), z1, z2, inputs["rho"], inputs["gamma"])
        assert cost[0] == record["engine_cost"]


class TestFixturesCommand:
    def test_writes_both_geometries(self, tmp_path):
        assert main(["fixtures", "--out", str(tmp_path)]) == 0
        ula = load_geometry_csv(tmp_path / "ula41.csv")
        non = load_geometry_csv(tmp_path / "nonuniform41.csv")
        assert ula.n_elements == 41
        assert np.allclose(np.diff(ula.positions), 0.5)
        assert non.n_elements == 41
        assert non.positions[-1] == pytest.approx(10.0)
        assert non.positions[0] == pytest.approx(-10.0)
        assert np.allclose(non.positions, -non.positions[::-1])
        assert 0.0 in non.positions


class TestExports:
    def test_flat_pattern_three_rows(self, tmp_path):
        geom = ArrayGeometry(positions=[0.0], efficiencies=[1.0])
        problem = SynthesisProblem(
            geometry=geom, beam_center_deg=0.0, beamwidth_deg=90.0,
            resolution_deg=90.0, guard_deg=0.0,
            admm=AdmmConfig(rho_init=100.0, iter_max=500),
        )
        result = synthesize(problem)
        path = tmp_path / "pattern.csv"
        export_pattern(result, path)
        rows = path.read_text().splitlines()
        assert len(rows) == 4
        assert rows[1].startswith("-90.000000,")
        assert rows[-1].startswith("90.000000,")

    def test_round_significant(self):
        assert round_significant(1.23456789012345e-7, 12) == pytest.approx(
            1.23456789012e-7, rel=1e-12
        )
        assert round_significant({"a": [0.0, float("inf")]}, 12) == {"a": [0.0, float("inf")]}
