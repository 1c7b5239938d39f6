"""Command line interface: synthesis runs, scans, oracle checks, fixtures.

Exit codes: 0 success, 2 configuration error, 3 numerical error,
4 non-convergence (artifacts are still written).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import fixtures as fixtures_mod
from .arraymodel import ArrayGeometry, load_aep, synth_aep
from .engine import AdmmConfig
from .errors import (
    BeamgainError,
    ConfigError,
    DegenerateGeometryError,
    DomainError,
    FactorizationError,
    NumericalError,
)
from .exports import (
    export_history,
    export_pattern,
    export_summary,
    export_sweep,
    export_weights,
    summary_payload,
)
from .oracles import (
    OracleReport,
    clamped_cost_wosc,
    clamped_cost_wsc,
    oracle_g0_grid_wosc,
    oracle_g0_grid_wsc,
    oracle_secular_scan,
    oracle_sphere,
    secular_cost,
)
from .sphere import SphereSolver, secular_bisect
from .subproblems import update_g_wosc, update_gh_wsc
from .synthesis import SynthesisProblem, scan_sweep, synthesize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NONCONVERGED = 4

_GEOMETRY_KEYS = {"fixture", "file", "positions", "efficiencies"}
_AEP_KEYS = {"file", "synthetic_width_deg"}
_PROBLEM_KEYS = {
    "beam_center_deg",
    "beamwidth_deg",
    "resolution_deg",
    "guard_deg",
    "dsll_db",
    "quadrature_order",
}
_ADMM_KEYS = {f.name for f in fields(AdmmConfig)}
_OUTPUT_KEYS = {"directory", "pattern", "weights", "history"}
_TOP_KEYS = {"geometry", "aep", "problem", "admm", "output"}


def _reject_unknown(section: str, mapping: dict, allowed: set) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section}': {sorted(unknown)}")


def _load_config(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown("(root)", raw, _TOP_KEYS)
    for section, allowed in (
        ("geometry", _GEOMETRY_KEYS),
        ("aep", _AEP_KEYS),
        ("problem", _PROBLEM_KEYS),
        ("admm", _ADMM_KEYS),
        ("output", _OUTPUT_KEYS),
    ):
        if section in raw:
            if not isinstance(raw[section], dict):
                raise ConfigError(f"'{section}' must be an object")
            _reject_unknown(section, raw[section], allowed)
    if "geometry" not in raw:
        raise ConfigError("config requires a 'geometry' section")
    if "problem" not in raw:
        raise ConfigError("config requires a 'problem' section")
    return raw


def _build_geometry(config: dict) -> ArrayGeometry:
    section = config["geometry"]
    sources = [k for k in ("fixture", "file", "positions") if k in section]
    if len(sources) != 1:
        raise ConfigError(
            "geometry needs exactly one of 'fixture', 'file', or 'positions'"
        )
    if "fixture" in section:
        name = section["fixture"]
        if name not in fixtures_mod.FIXTURES:
            raise ConfigError(
                f"unknown fixture '{name}'; available: "
                f"{sorted(fixtures_mod.FIXTURES)}"
            )
        geometry = fixtures_mod.FIXTURES[name]()
    elif "file" in section:
        geometry = fixtures_mod.load_geometry_csv(section["file"])
    else:
        positions = np.asarray(section["positions"], dtype=float)
        efficiencies = np.asarray(
            section.get("efficiencies", np.ones(positions.size)), dtype=float
        )
        geometry = ArrayGeometry(positions=positions, efficiencies=efficiencies)
    if "aep" in config:
        aep = config["aep"]
        if ("file" in aep) == ("synthetic_width_deg" in aep):
            raise ConfigError("aep needs exactly one of 'file' or 'synthetic_width_deg'")
        if "file" in aep:
            patterns = load_aep(aep["file"])
        else:
            patterns = synth_aep(float(aep["synthetic_width_deg"]), geometry.n_elements)
        geometry = ArrayGeometry(
            positions=geometry.positions,
            efficiencies=geometry.efficiencies,
            element_patterns=patterns,
        )
    return geometry


def _build_problem(config: dict, algorithm: str | None) -> SynthesisProblem:
    geometry = _build_geometry(config)
    problem = dict(config["problem"])
    admm_section = dict(config.get("admm", {}))
    try:
        admm = AdmmConfig(**admm_section)
        dsll = problem.get("dsll_db")
        if algorithm == "wosc":
            dsll = None
        if algorithm == "wsc" and dsll is None:
            raise ConfigError("--algorithm wsc requires problem.dsll_db")
        return SynthesisProblem(
            geometry=geometry,
            beam_center_deg=float(problem["beam_center_deg"]),
            beamwidth_deg=float(problem["beamwidth_deg"]),
            resolution_deg=float(problem.get("resolution_deg", 0.5)),
            guard_deg=float(problem.get("guard_deg", 3.0)),
            dsll_db=None if dsll is None else float(dsll),
            admm=admm,
            quadrature_order=problem.get("quadrature_order"),
        )
    except KeyError as exc:
        raise ConfigError(f"problem section missing {exc}") from exc
    except (TypeError, ValueError, DomainError) as exc:
        raise ConfigError(str(exc)) from exc


def _resolved_config(problem: SynthesisProblem, config: dict) -> dict:
    return {
        "geometry": config["geometry"],
        "aep": config.get("aep"),
        "problem": {
            "beam_center_deg": problem.beam_center_deg,
            "beamwidth_deg": problem.beamwidth_deg,
            "resolution_deg": problem.resolution_deg,
            "guard_deg": problem.guard_deg,
            "dsll_db": problem.dsll_db,
            "quadrature_order": problem.quadrature_order,
        },
        "admm": asdict(problem.admm),
    }


def _out_dir(config: dict, override: str | None) -> Path:
    directory = override or config.get("output", {}).get("directory", ".")
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_synth(args) -> int:
    config = _load_config(args.config)
    problem = _build_problem(config, args.algorithm)
    out = _out_dir(config, args.out)
    start = time.perf_counter()
    result = synthesize(problem)
    wall_ms = 1e3 * (time.perf_counter() - start)
    toggles = config.get("output", {})
    if toggles.get("pattern", True):
        export_pattern(result, out / "pattern.csv")
    if toggles.get("weights", True):
        export_weights(result, out / "weights.csv")
    if toggles.get("history", True):
        export_history(result.history, out / "history.csv")
    payload = summary_payload(_resolved_config(problem, config), result, wall_ms)
    export_summary(payload, out / "summary.json")
    print(
        f"g0_dbi={result.g0_dbi:.3f} osll_db="
        f"{'n/a' if result.osll_db is None else format(result.osll_db, '.3f')} "
        f"iterations={result.iterations} converged={result.converged}",
        file=sys.stderr,
    )
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


def _parse_centers(arg: str) -> list[float]:
    parts = arg.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            start, stop, step = (float(p) for p in parts)
            if step <= 0 or stop < start:
                raise ConfigError("centers must satisfy start <= stop, step > 0")
            count = int(round((stop - start) / step))
            centers = [start + i * step for i in range(count + 1)]
            if centers[-1] > stop + 1e-9:
                centers.pop()
            return centers
    except ValueError as exc:
        raise ConfigError(f"bad --centers value: {exc}") from exc
    raise ConfigError("--centers expects 'value' or 'start:stop:step'")


def _cmd_sweep(args) -> int:
    config = _load_config(args.config)
    problem = _build_problem(config, args.algorithm)
    centers = _parse_centers(args.centers)
    out = _out_dir(config, args.out)
    rows = scan_sweep(problem, centers)
    export_sweep(rows, out / "sweep.csv")
    failures = [r for r in rows if r.error]
    unconverged = [r for r in rows if not r.converged and not r.error]
    for row in failures:
        print(f"center {row.theta_c_deg}: {row.error}", file=sys.stderr)
    print(
        f"sweep: {len(rows)} centers, {len(failures)} failed, "
        f"{len(unconverged)} unconverged",
        file=sys.stderr,
    )
    if failures:
        return EXIT_NUMERICAL
    return EXIT_OK if not unconverged else EXIT_NONCONVERGED


def _validate_levels(rng, reports, checks) -> None:
    for _ in range(checks):
        size = int(rng.integers(1, 13))
        y = rng.normal(size=size) + 1j * rng.normal(size=size)
        y *= 10.0 ** rng.uniform(-2, 3)
        rho = 10.0 ** rng.uniform(-1, 3.5)
        g0, _ = update_g_wosc(y, rho)
        engine = float(clamped_cost_wosc(np.asarray([g0]), y, rho)[0])
        _, oracle = oracle_g0_grid_wosc(y, rho)
        reports.append(
            OracleReport(
                name="level_wosc",
                oracle_cost=oracle,
                engine_cost=engine,
                samples_or_gridstep="grid step 1e-3 * g0_max",
                inputs={"y_re": list(y.real), "y_im": list(y.imag), "rho": rho},
            )
        )

        l_sl = int(rng.integers(1, 13))
        z2 = (rng.normal(size=l_sl) + 1j * rng.normal(size=l_sl)) * 10.0 ** rng.uniform(-2, 3)
        gamma = 10.0 ** rng.uniform(-4, 0.5)
        g0, _, _ = update_gh_wsc(y, z2, rho, gamma)
        engine = float(clamped_cost_wsc(np.asarray([g0]), y, z2, rho, gamma)[0])
        _, oracle = oracle_g0_grid_wsc(y, z2, rho, gamma)
        reports.append(
            OracleReport(
                name="level_wsc",
                oracle_cost=oracle,
                engine_cost=engine,
                samples_or_gridstep="grid step 1e-3 * g0_max",
                inputs={
                    "z1_re": list(y.real), "z1_im": list(y.imag),
                    "z2_re": list(z2.real), "z2_im": list(z2.imag),
                    "rho": rho, "gamma": gamma,
                },
            )
        )


def _validate_sphere(rng, reports, checks) -> None:
    """The loop's own solver, one block and, on every other instance, two."""
    for i in range(checks):
        n = int(rng.integers(1, 7))
        ops, targets = [], []
        for _ in range(1 + i % 2):
            cols = int(rng.integers(1, 13))
            ops.append(rng.normal(size=(n, cols)) + 1j * rng.normal(size=(n, cols)))
            scale = 10.0 ** rng.uniform(-1, 1)
            targets.append(scale * (rng.normal(size=cols) + 1j * rng.normal(size=cols)))
        x = SphereSolver(*ops).solve(*targets)
        w, d = np.hstack(ops), np.concatenate(targets)
        engine = float(np.sum(np.abs(w.conj().T @ x - d) ** 2))
        _, oracle = oracle_sphere(w, d, n_restarts=4000, n_polish=6,
                                  seed=int(rng.integers(0, 2**31)))
        names = ("p", "q")[: len(ops)] + ("d1", "d2")[: len(ops)]
        inputs = {}
        for name, value in zip(names, ops + targets):
            inputs[f"{name}_re"] = value.real.tolist()
            inputs[f"{name}_im"] = value.imag.tolist()
        reports.append(
            OracleReport(
                name="sphere_lsq",
                oracle_cost=oracle,
                engine_cost=engine,
                samples_or_gridstep="4000 samples + 6 polished",
                inputs=inputs,
            )
        )


def _validate_secular(rng, reports, checks) -> None:
    for _ in range(checks):
        size = int(rng.integers(1, 13))
        lambdas = np.sort(rng.uniform(0.0, 10.0, size=size))
        beta = rng.normal(size=size) * 10.0 ** rng.uniform(-1, 1)
        beta[np.abs(beta) < 1e-6] = 1e-3
        nu = secular_bisect(lambdas, beta)
        roots = oracle_secular_scan(lambdas, beta)
        engine = secular_cost(lambdas, beta, nu)
        oracle = min((secular_cost(lambdas, beta, r) for r in roots), default=engine)
        reports.append(
            OracleReport(
                name="secular_min_root",
                oracle_cost=oracle,
                engine_cost=engine,
                samples_or_gridstep="scan step 1e-5 * range",
                inputs={"lambdas": lambdas.tolist(), "beta": beta.tolist()},
            )
        )


def _cmd_validate(args) -> int:
    rng = np.random.default_rng(args.seed)
    reports: list[OracleReport] = []
    _validate_levels(rng, reports, args.checks)
    _validate_sphere(rng, reports, max(1, args.checks // 4))
    _validate_secular(rng, reports, args.checks)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "oracle_reports.jsonl", "w") as handle:
            for report in reports:
                handle.write(report.to_json_line() + "\n")
    failed = [r for r in reports if r.gap > 1e-6]
    by_name: dict[str, list[OracleReport]] = {}
    for report in reports:
        by_name.setdefault(report.name, []).append(report)
    for name, group in sorted(by_name.items()):
        worst = max(r.gap for r in group)
        bad = sum(1 for r in group if r.gap > 1e-6)
        status = "PASS" if bad == 0 else "FAIL"
        print(f"{status} {name}: {len(group)} checks, worst gap {worst:.3e}",
              file=sys.stderr)
    if failed:
        print(f"{len(failed)} oracle check(s) failed", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    fixtures_mod.write_geometry_csv(out / "ula41.csv", fixtures_mod.ula41())
    fixtures_mod.write_geometry_csv(out / "nonuniform41.csv", fixtures_mod.nonuniform41())
    print(f"wrote {out / 'ula41.csv'} and {out / 'nonuniform41.csv'}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamgain",
        description="Wide-beam array power gain maximization via ADMM",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="run one synthesis problem")
    synth.add_argument("--config", required=True, help="JSON run configuration")
    synth.add_argument("--algorithm", choices=("wosc", "wsc"), default=None,
                       help="override the algorithm implied by dsll_db")
    synth.add_argument("--out", default=None, help="output directory override")
    synth.set_defaults(func=_cmd_synth)

    sweep = sub.add_parser("sweep", help="scan the beam center over a range")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--centers", required=True, help="value or start:stop:step")
    sweep.add_argument("--algorithm", choices=("wosc", "wsc"), default=None)
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=_cmd_sweep)

    validate = sub.add_parser("validate", help="run the brute-force oracle checks")
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--checks", type=int, default=200,
                          help="randomized instances per oracle family")
    validate.add_argument("--out", default=None,
                          help="directory for oracle_reports.jsonl")
    validate.set_defaults(func=_cmd_validate)

    fixtures = sub.add_parser("fixtures", help="write the bundled geometry files")
    fixtures.add_argument("--out", default=None)
    fixtures.set_defaults(func=_cmd_fixtures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, FactorizationError, DegenerateGeometryError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BeamgainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
