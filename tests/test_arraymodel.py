import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import solve_triangular

from beamgain import (
    AdmmConfig,
    AngularGrid,
    ArrayGeometry,
    DegenerateGeometryError,
    DomainError,
    ElementPattern,
    FactorizationError,
    IngestionError,
    SynthesisProblem,
    assemble_regions,
    build_gain_operators,
    build_region_operator,
    build_total_power_matrix,
    factorize,
    gamma_from_dsll,
    load_aep,
    nonuniform41,
    power_gain_pattern,
    run_wosc,
    run_wsc,
    steering_matrix,
    synth_aep,
    synthesize,
    ula41,
)
from beamgain import arraymodel, sphere
from beamgain.arraymodel import solve_upper
from conftest import random_geometry


def two_element(spacing=0.5):
    return ArrayGeometry(positions=[0.0, spacing], efficiencies=[1.0, 1.0])


class TestSteeringVector:
    def test_broadside_zero_phase(self):
        a = steering_matrix(two_element(), [0.0])[:, 0]
        assert np.allclose(a, [1.0, 1.0], atol=1e-15)

    def test_thirty_degrees_quarter_turn(self):
        a = steering_matrix(two_element(), [30.0])[:, 0]
        assert np.allclose(a, [1.0, 1.0j], atol=1e-15)

    def test_endfire_half_turn(self):
        a = steering_matrix(two_element(), [90.0])[:, 0]
        assert np.allclose(a, [1.0, -1.0], atol=1e-12)

    def test_angle_out_of_range(self):
        with pytest.raises(DomainError):
            steering_matrix(two_element(), [90.5])[:, 0]

    def test_unit_modulus_isotropic(self, rng):
        geom = random_geometry(rng, 7)
        angles = rng.uniform(-90, 90, size=11)
        a = steering_matrix(geom, angles)
        assert np.allclose(np.abs(a), 1.0)


class TestTotalPowerMatrix:
    def test_single_element_scalar(self):
        geom = ArrayGeometry(positions=[0.0], efficiencies=[1.0])
        a = build_total_power_matrix(geom)
        assert np.allclose(a, [[2.0]])

    def test_half_wavelength_ula_identity(self):
        a = build_total_power_matrix(ula41())
        assert np.allclose(a, 2.0 * np.eye(41), atol=1e-12)

    def test_quarter_wavelength_pair(self):
        a = build_total_power_matrix(two_element(0.25))
        assert a[0, 1] == pytest.approx(4.0 / np.pi, abs=1e-12)

    def test_near_duplicate_positions_degenerate(self):
        geom = ArrayGeometry(positions=[0.0, 1e-9, 0.5], efficiencies=np.ones(3))
        with pytest.raises(DegenerateGeometryError):
            build_total_power_matrix(geom)

    def test_quadrature_matches_closed_form(self, rng):
        # identity element pattern: quadrature path must agree with the sinc form
        for n in (3, 8, 17):
            geom = random_geometry(rng, n)
            flat = ElementPattern(
                angles_deg=np.array([-90.0, 90.0]),
                values=np.array([1.0 + 0j, 1.0 + 0j]),
            )
            with_aep = ArrayGeometry(
                positions=geom.positions,
                efficiencies=geom.efficiencies,
                element_patterns=tuple(flat for _ in range(n)),
            )
            exact = build_total_power_matrix(geom)
            quad = build_total_power_matrix(with_aep, quadrature_order=2 * n + 32)
            assert np.linalg.norm(quad - exact) <= 1e-9 * np.linalg.norm(exact)

    def test_quadrature_order_too_small(self):
        geom = two_element()
        flat = ElementPattern(
            angles_deg=np.array([-90.0, 90.0]), values=np.ones(2, dtype=complex)
        )
        aep_geom = ArrayGeometry(
            positions=geom.positions,
            efficiencies=geom.efficiencies,
            element_patterns=(flat, flat),
        )
        with pytest.raises(DomainError):
            build_total_power_matrix(aep_geom, quadrature_order=10)


class TestFactorize:
    def test_scaled_identity(self):
        c = factorize(2.0 * np.eye(3))
        c_inv = solve_triangular(c, np.eye(3, dtype=complex), lower=False)
        assert np.allclose(c, np.sqrt(2.0) * np.eye(3))
        assert np.allclose(c_inv, np.eye(3) / np.sqrt(2.0))

    def test_diagonal(self):
        c = factorize(np.diag([2.0, 8.0]).astype(complex))
        assert np.allclose(np.diag(c), [np.sqrt(2.0), 2.0 * np.sqrt(2.0)])

    def test_indefinite_raises_with_pivot(self):
        with pytest.raises(FactorizationError) as excinfo:
            factorize(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex))
        assert excinfo.value.pivot_index == 1

    def test_non_hermitian_rejected(self):
        with pytest.raises(DomainError):
            factorize(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))

    def test_factor_fidelity_random(self, rng):
        for n in (4, 16, 64):
            geom = random_geometry(rng, n)
            a = build_total_power_matrix(geom)
            c = factorize(a)
            c_inv = solve_triangular(c, np.eye(n, dtype=complex), lower=False)
            assert np.linalg.norm(c.conj().T @ c - a) <= 1e-10 * np.linalg.norm(a)
            assert np.linalg.norm(c @ c_inv - np.eye(n)) <= 1e-10

    def test_energy_identity(self, rng):
        geom = random_geometry(rng, 12)
        a = build_total_power_matrix(geom)
        c = factorize(a)
        for _ in range(20):
            w = rng.normal(size=12) + 1j * rng.normal(size=12)
            quad = np.real(w.conj() @ a @ w)
            norm = np.linalg.norm(c @ w) ** 2
            assert quad == pytest.approx(norm, rel=1e-10)


class TestRegionOperator:
    def test_scaled_identity_factor(self):
        geom = two_element()
        c = np.sqrt(2.0) * np.eye(2, dtype=complex)
        grid = AngularGrid(angles=np.array([17.0]))
        col = build_region_operator(geom, c, grid)[:, 0]
        assert np.allclose(col, steering_matrix(geom, [17.0])[:, 0] / np.sqrt(2.0))

    def test_quadratic_form_identity(self, rng):
        # x^H (c c^H) x equals w^H a a^H w for w = C^{-1} x
        geom = random_geometry(rng, 4)
        a = build_total_power_matrix(geom)
        c = factorize(a)
        c_inv = solve_triangular(c, np.eye(4, dtype=complex), lower=False)
        grid = AngularGrid(angles=np.arange(-20.0, 21.0, 10.0))
        p = build_region_operator(geom, c, grid)
        steer = steering_matrix(geom, grid.angles)
        for _ in range(10):
            x = rng.normal(size=4) + 1j * rng.normal(size=4)
            w = c_inv @ x
            lhs = np.abs(p.conj().T @ x) ** 2
            rhs = np.abs(steer.conj().T @ w) ** 2
            assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


class TestPowerGainPattern:
    def test_single_element_flat(self):
        geom = ArrayGeometry(positions=[0.0], efficiencies=[1.0])
        gain = power_gain_pattern(geom, np.array([0.3 - 0.4j]), [-60.0, 0.0, 45.0])
        assert np.allclose(gain, 0.0, atol=1e-12)

    def test_uniform_ula_broadside(self):
        gain = power_gain_pattern(ula41(), np.ones(41, dtype=complex), [0.0])
        assert gain[0] == pytest.approx(10.0 * np.log10(41.0), abs=1e-9)

    def test_two_element_broadside(self):
        gain = power_gain_pattern(two_element(), np.ones(2, dtype=complex), [0.0])
        assert gain[0] == pytest.approx(10.0 * np.log10(2.0), abs=1e-9)

    def test_zero_weights_rejected(self):
        with pytest.raises(DomainError):
            power_gain_pattern(two_element(), np.zeros(2, dtype=complex), [0.0])

    def test_scale_invariance(self, rng):
        geom = random_geometry(rng, 9)
        a = build_total_power_matrix(geom)
        w = rng.normal(size=9) + 1j * rng.normal(size=9)
        angles = np.arange(-90.0, 90.5, 7.5)
        base = power_gain_pattern(geom, w, angles, total_power=a)
        for scale in (1e-3, 1.0, 1e3):
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            scaled = power_gain_pattern(geom, scale * phase * w, angles, total_power=a)
            assert np.max(np.abs(scaled - base)) <= 1e-9
            assert np.argmax(scaled) == np.argmax(base)


class TestGainOperators:
    def test_build_and_invariants(self, rng):
        geom = random_geometry(rng, 8)
        ml = AngularGrid.from_span(-5.0, 5.0, 0.5)
        sl = (AngularGrid.from_span(-60.0, -8.0, 0.5), AngularGrid.from_span(8.0, 60.0, 0.5))
        ops = build_gain_operators(geom, ml, sl)
        assert ops.P.shape == (8, 21)
        assert ops.Q.shape == (8, 105 * 2)
        assert np.all(np.isfinite(ops.P))

    def test_wosc_empty_sidelobe(self, rng):
        geom = random_geometry(rng, 5)
        ml = AngularGrid.from_span(-5.0, 5.0, 0.5)
        ops = build_gain_operators(geom, ml)
        assert ops.Q.shape == (5, 0)


class TestAngularGrid:
    def test_from_span_counts(self):
        grid = AngularGrid.from_span(-10.0, 10.0, 0.5)
        assert grid.angles.size == 41
        assert grid.angles[0] == -10.0 and grid.angles[-1] == 10.0

    def test_incommensurate_span(self):
        with pytest.raises(DomainError):
            AngularGrid.from_span(0.0, 1.0, 0.3)

    def test_range_validated(self):
        with pytest.raises(DomainError):
            AngularGrid(angles=np.array([80.0, 80.5, 91.0]))


class TestGeometryValidation:
    def test_unsorted_positions(self):
        with pytest.raises(DomainError):
            ArrayGeometry(positions=[0.5, 0.0], efficiencies=[1.0, 1.0])

    def test_bad_efficiency(self):
        with pytest.raises(DomainError):
            ArrayGeometry(positions=[0.0, 0.5], efficiencies=[1.0, 1.5])

    def test_pattern_count_mismatch(self):
        flat = ElementPattern(
            angles_deg=np.array([-90.0, 90.0]), values=np.ones(2, dtype=complex)
        )
        with pytest.raises(IngestionError):
            ArrayGeometry(
                positions=[0.0, 0.5],
                efficiencies=[1.0, 1.0],
                element_patterns=(flat,),
            )

    def test_partial_coverage_rejected_on_attach(self):
        narrow = ElementPattern(
            angles_deg=np.array([-45.0, 45.0]), values=np.ones(2, dtype=complex)
        )
        with pytest.raises(IngestionError):
            ArrayGeometry(
                positions=[0.0, 0.5],
                efficiencies=[1.0, 1.0],
                element_patterns=(narrow, narrow),
            )


class TestElementPatterns:
    def test_identity_pattern_matches_isotropic(self, rng):
        geom = random_geometry(rng, 5)
        flat = ElementPattern(
            angles_deg=np.array([-90.0, 90.0]), values=np.ones(2, dtype=complex)
        )
        with_aep = ArrayGeometry(
            positions=geom.positions,
            efficiencies=geom.efficiencies,
            element_patterns=tuple(flat for _ in range(5)),
        )
        angles = rng.uniform(-90, 90, size=7)
        assert np.allclose(
            steering_matrix(with_aep, angles), steering_matrix(geom, angles)
        )

    def test_linear_interpolation_midpoint(self):
        table = ElementPattern(
            angles_deg=np.array([0.0, 10.0]), values=np.array([1.0 + 0j, 0.0 + 0j])
        )
        assert table(5.0)[0] == pytest.approx(0.5)

    def test_coverage_error(self):
        table = ElementPattern(
            angles_deg=np.array([-45.0, 45.0]), values=np.ones(2, dtype=complex)
        )
        with pytest.raises(DomainError):
            table(60.0)

    def test_synth_aep_width(self):
        patterns = synth_aep(45.0, 3)
        assert len(patterns) == 3
        power_at_width = np.abs(patterns[0](45.0)[0]) ** 2
        assert power_at_width == pytest.approx(0.5, abs=1e-6)
        # 45 degrees corresponds to a plain cosine
        assert patterns[0](60.0)[0].real == pytest.approx(np.cos(np.radians(60.0)), abs=1e-6)

    def test_aep_roundtrip(self, tmp_path):
        patterns = synth_aep(40.0, 2, resolution_deg=5.0)
        path = tmp_path / "aep.csv"
        rows = ["element,angle_deg,re,im"]
        for index, pattern in enumerate(patterns):
            for angle, value in zip(pattern.angles_deg, pattern.values):
                rows.append(f"{index},{angle:.17g},{value.real:.17g},{value.imag:.17g}")
        path.write_text("\n".join(rows) + "\n")
        loaded = load_aep(path)
        assert len(loaded) == 2
        theta = np.linspace(-90, 90, 19)
        assert np.allclose(loaded[0](theta), patterns[0](theta), atol=1e-9)

    def test_aep_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("element,angle,re,im\n0,0,1,0\n")
        with pytest.raises(IngestionError):
            load_aep(path)

    def test_aep_nonconsecutive_elements(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "element,angle_deg,re,im\n0,-90,1,0\n0,90,1,0\n2,-90,1,0\n2,90,1,0\n"
        )
        with pytest.raises(IngestionError):
            load_aep(path)


def _tapered_nonuniform41():
    """Acceptance criterion 7's array: nonuniform41 with synthetic 45 deg patterns."""
    base = nonuniform41()
    return ArrayGeometry(
        positions=base.positions,
        efficiencies=base.efficiencies,
        element_patterns=synth_aep(45.0, base.n_elements),
    )


def _scipy_operators(geometry, mainlobe, sidelobe):
    """C, P and Q from ``scipy.linalg``'s ``potrf`` and ``solve_triangular``."""
    a = build_total_power_matrix(geometry)
    (potrf,) = scipy.linalg.get_lapack_funcs(("potrf",), (a,))
    c, info = potrf(0.5 * (a + a.conj().T), lower=False, clean=True)
    assert info == 0

    def region(grid):
        steer = steering_matrix(geometry, grid.angles)
        return solve_triangular(c, steer, lower=False, trans="C")

    q = np.zeros((geometry.n_elements, 0), dtype=complex)
    if sidelobe:
        q = np.hstack([region(seg) for seg in sidelobe])
    return c, region(mainlobe), q


def _scipy_pivot(a):
    (potrf,) = scipy.linalg.get_lapack_funcs(("potrf",), (a,))
    _, info = potrf(a, lower=False, clean=True)
    assert info > 0
    return info - 1


_INDEFINITE = [
    np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex),
    np.diag([4.0, 1.0, -1.0, 2.0, 3.0]).astype(complex),
    np.diag([4.0, 1.0, 2.0, 3.0, 0.0]).astype(complex),
]


@pytest.fixture(params=["openblas", "scipy"])
def lapack(request, monkeypatch):
    """Which LAPACK the factor and the solves run: numpy's OpenBLAS, or,
    with no numpy build found, the fallback through ``scipy.linalg``."""
    if request.param == "scipy":
        monkeypatch.setattr(
            sphere, "_OPENBLAS_MODULES", {"numpy": ("numpy.fft._pocketfft_umath", "64_")}
        )
        monkeypatch.setattr(sphere, "_openblas", None)
        assert arraymodel._openblas_lapack() is None
    elif arraymodel._openblas_lapack() is None:
        pytest.skip("needs the OpenBLAS that numpy bundles")
    return request.param


class TestLapackMatchesScipy:
    """The factor, the region operators and the weights equal, bit for bit,
    what ``scipy.linalg`` gives for the same calls."""

    @pytest.mark.parametrize("dsll", [None, -35.0])
    @pytest.mark.parametrize(
        "fixture, center",
        [(ula41, 0.0), (ula41, 9.5), (nonuniform41, 0.0), (nonuniform41, 9.5),
         (_tapered_nonuniform41, 0.0)],
    )
    def test_operators_and_weights(self, lapack, fixture, center, dsll):
        geometry = fixture()
        mainlobe, sidelobe = assemble_regions(center, 20.0, 3.0, 0.5)
        sidelobe = sidelobe if dsll is not None else ()
        ops = build_gain_operators(geometry, mainlobe, sidelobe)
        c, p, q = _scipy_operators(geometry, mainlobe, sidelobe)
        assert np.array_equal(ops.C, c) and ops.C.flags.f_contiguous
        assert np.array_equal(ops.P, p)
        assert np.array_equal(ops.Q, q) and ops.Q.shape[1] == (310 if sidelobe else 0)

        cfg = AdmmConfig(rho_init=2000.0, rho_decay=0.99, iter_max=30)
        if dsll is None:
            state = run_wosc(ops, cfg)
        else:
            state = run_wsc(ops, cfg, gamma_from_dsll(dsll))
        result = synthesize(SynthesisProblem(
            geometry=geometry, beam_center_deg=center, beamwidth_deg=20.0,
            dsll_db=dsll, admm=cfg,
        ))
        weights = solve_triangular(ops.C, state.x, lower=False)
        assert np.array_equal(result.weights_effective, weights)

    def test_solves_on_random_vectors(self, lapack, rng):
        mainlobe, _ = assemble_regions(0.0, 20.0, 3.0, 0.5)
        c = build_gain_operators(nonuniform41(), mainlobe).C
        for _ in range(200):
            x = rng.normal(size=41) + 1j * rng.normal(size=41)
            assert np.array_equal(solve_upper(c, x), solve_triangular(c, x, lower=False))
            assert np.array_equal(
                solve_upper(c, x, adjoint=True),
                solve_triangular(c, x, lower=False, trans="C"),
            )

    @pytest.mark.parametrize("a", _INDEFINITE, ids=["2x2", "pivot2", "pivot4"])
    def test_pivot_index(self, lapack, a):
        with pytest.raises(FactorizationError) as excinfo:
            factorize(a)
        assert excinfo.value.pivot_index == _scipy_pivot(a)

    @pytest.mark.parametrize("operand", ["factor", "rhs"])
    def test_non_finite_input_raises(self, lapack, operand):
        c, b = np.eye(3, dtype=complex), np.ones(3, dtype=complex)
        if operand == "factor":
            c[0, 2] = np.nan
        else:
            b[1] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_upper(c, b)

    def test_mismatched_shapes_rejected(self, lapack):
        with pytest.raises(ValueError):
            solve_upper(np.eye(3, dtype=complex), np.ones(4, dtype=complex))
        with pytest.raises(ValueError):
            solve_upper(np.ones((3, 4), dtype=complex), np.ones(3, dtype=complex))
        with pytest.raises(DomainError):
            factorize(np.ones(3, dtype=complex))
