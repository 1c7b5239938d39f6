import _thread
import json
import os
import pickle
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import helper_cpu_ms, random_sphere_problem, sphere_cost

from beamgain import (
    ArrayGeometry,
    DomainError,
    NumericalError,
    SphereSolver,
    assemble_regions,
    build_gain_operators,
    nonuniform41,
    power_gain_pattern,
    secular_bisect,
    steering_matrix,
)
from beamgain import sphere
from beamgain.oracles import oracle_secular_scan, oracle_sphere, secular_cost
from beamgain.sphere import RowBlockedProduct, blas_threads, one_blas_thread


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
    """Sphere least squares over complex unit x, solved by :class:`SphereSolver`."""

    def test_identity_projection(self):
        x = SphereSolver(np.eye(2)).solve(np.array([3j, 4.0]))
        assert np.allclose(x, [0.6j, 0.8], atol=1e-10)

    def test_zero_target_rayleigh(self):
        x = SphereSolver(np.diag([1.0, 2.0])).solve(np.zeros(2))
        assert abs(x[0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(x[1]) == pytest.approx(0.0, abs=1e-12)

    def test_reference_case(self):
        p = np.diag([1.0, 2.0])
        d = np.array([1.0, 1.0j])
        x = SphereSolver(p).solve(d)
        _, cost = oracle_sphere(p, d, seed=5)
        assert sphere_cost([p], [d], x) <= cost + 1e-6
        assert np.allclose(np.abs(x), [0.876, 0.483], atol=2e-3)

    def test_hard_case_completion(self):
        # target orthogonal to the bottom eigenspace, secular sum below one
        p = np.diag([1.0, 2.0])
        d = np.array([0.0, 0.5])
        x = SphereSolver(p).solve(d)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        _, cost = oracle_sphere(p, d, n_restarts=50000, seed=3)
        assert sphere_cost([p], [d], x) <= cost + 1e-6

    def test_zero_operator_rejected(self):
        with pytest.raises(DomainError, match="nonzero matrix"):
            SphereSolver(np.zeros((2, 2)))

    def test_unit_norm_and_oracle(self, rng):
        for i in range(100):
            ops, targets = random_sphere_problem(rng, 1 + i % 2)
            x = SphereSolver(*ops).solve(*targets)
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-9)
            _, oracle_cost = oracle_sphere(
                np.hstack(ops), np.concatenate(targets), n_restarts=4000, n_polish=6,
                seed=int(rng.integers(0, 2**31)),
            )
            assert sphere_cost(ops, targets, x) <= oracle_cost + 1e-6


class TestSphereSolver:
    def test_single_block_against_oracle(self, rng):
        p = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        solver = SphereSolver(p)
        for seed in range(5):
            d = rng.normal(size=6) + 1j * rng.normal(size=6)
            x = solver.solve(d)
            x_oracle, oracle_cost = oracle_sphere(p, d, seed=seed)
            assert sphere_cost([p], [d], x) == pytest.approx(oracle_cost, rel=1e-9, abs=1e-12)
            assert np.allclose(x, x_oracle, atol=1e-8)

    def test_two_blocks_against_oracle(self, rng):
        p = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        q = rng.normal(size=(3, 7)) + 1j * rng.normal(size=(3, 7))
        solver = SphereSolver(p, q)
        for seed, scale in enumerate((1.0, 0.2, 5.0)):
            d1 = scale * (rng.normal(size=4) + 1j * rng.normal(size=4))
            d2 = scale * (rng.normal(size=7) + 1j * rng.normal(size=7))
            x = solver.solve(d1, d2)
            _, oracle_cost = oracle_sphere(np.hstack((p, q)), np.concatenate((d1, d2)), seed=seed)
            cost = sphere_cost([p, q], [d1, d2], x)
            assert cost == pytest.approx(oracle_cost, rel=1e-9, abs=1e-12)

    def test_dimension_mismatch(self):
        p = np.ones((2, 3), dtype=complex)
        with pytest.raises(DomainError, match="with P's rows"):
            SphereSolver(p, np.ones((3, 4), dtype=complex))
        with pytest.raises(DomainError, match="nonzero matrix"):
            SphereSolver(np.ones(3, dtype=complex))

    @pytest.mark.parametrize("block", ["p", "q"])
    def test_nonfinite_operator_rejected(self, block):
        ops = {"p": np.ones((2, 3), dtype=complex), "q": np.ones((2, 4), dtype=complex)}
        ops[block][1, 2] = np.nan
        with pytest.raises(DomainError, match="must be a finite"):
            SphereSolver(ops["p"], ops["q"])

    def test_solve_reuses_the_eigensystem(self, rng, monkeypatch):
        p = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        q = rng.normal(size=(5, 9)) + 1j * rng.normal(size=(5, 9))
        solvers = [SphereSolver(p), SphereSolver(p, q)]

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called after construction")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        for _ in range(10):
            d1 = rng.normal(size=4) + 1j * rng.normal(size=4)
            d2 = rng.normal(size=9) + 1j * rng.normal(size=9)
            for x in (solvers[0].solve(d1), solvers[1].solve(d1, d2)):
                assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)


# Computes the blocked Q d on the nonuniform41 operators, and the blocked
# pattern product a(theta)^H w on the full-span grid, in a fresh process and
# prints the bytes in hex, so that the BLAS thread count can be set before
# numpy loads OpenBLAS.
_CHILD_PRODUCT = """
import numpy as np
from beamgain import assemble_regions, build_gain_operators, nonuniform41, steering_matrix
from beamgain.sphere import RowBlockedProduct, one_blas_thread

rng = np.random.default_rng(7)
operands = []
for center in (0.0, 0.25):
    ml, sl = assemble_regions(center, 20.0, 3.0, 0.5)
    operands.append(build_gain_operators(nonuniform41(), ml, sl).Q)
operands.append(steering_matrix(nonuniform41(), -90.0 + 0.5 * np.arange(361)).conj().T)
for op in operands:
    product = RowBlockedProduct(op)
    for _ in range(20):
        d = rng.normal(size=op.shape[1]) + 1j * rng.normal(size=op.shape[1])
        with one_blas_thread():
            print(product(d).tobytes().hex())
"""


def _child_output(script, threads=None):
    """Stdout of ``script`` in a fresh interpreter, at ``threads`` BLAS threads.

    ``None`` leaves OpenBLAS at its default count.
    """
    src = str(Path(sphere.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout


def _child_outputs(script):
    """Stdout of ``script`` at the default BLAS thread count and at one thread."""
    return [_child_output(script, threads) for threads in (None, "1")]


# Computes the set-up results that run on one BLAS thread from the plain
# calls, in a fresh process, and prints their bytes in hex: A, C, P, Q, the
# realified P P^H and its eigh, and on nonuniform41 also eigh of the
# two-block Gram, with Q Q^H summed without BLAS so that it has the same
# bytes at any thread count.
_CHILD_SET_UP = """
import numpy as np
from beamgain import (
    assemble_regions, build_region_operator, build_total_power_matrix, factorize,
    nonuniform41, ula41,
)
from beamgain.sphere import _realify_operator

cases = [(ula41(), c, w, False) for c in (0.0, 12.5, -27.0) for w in (10.0, 40.0)]
cases += [(nonuniform41(), c, 20.0, True) for c in (0.0, 7.5, -19.5)]
for geometry, center, width, two_block in cases:
    ml, sl = assemble_regions(center, width, 3.0, 0.5)
    a = build_total_power_matrix(geometry)
    c = factorize(a)
    p = build_region_operator(geometry, c, ml)
    q = np.hstack([build_region_operator(geometry, c, seg) for seg in sl])
    gram = _realify_operator(p @ p.conj().T)
    arrays = [a, c, p, q, gram, *np.linalg.eigh(gram)]
    if two_block:
        gram += _realify_operator(np.einsum("ik,jk->ij", q, q.conj()))
        arrays += np.linalg.eigh(gram)
    for array in arrays:
        print(array.tobytes().hex())
"""


def test_one_thread_set_up_results_independent_of_thread_count():
    # the premise of running set-up under one_blas_thread: these calls give
    # the same bytes on one thread as at the default count
    outputs = _child_outputs(_CHILD_SET_UP)
    assert len(outputs[0].split()) == 9 * 7 + 3 * 2
    assert outputs[0] == outputs[1]


# The CLI module and an unconstrained and a constrained run load no SciPy
# module, so only numpy's build is found; importing scipy.linalg afterwards
# adds SciPy's, which one_blas_thread then pins as well (each build is set to
# two threads first).
_CHILD_SCIPY_FREE = """
import json
import sys

import beamgain.cli
from beamgain import AdmmConfig, SynthesisProblem, nonuniform41, sphere, synthesize
from beamgain.sphere import blas_threads, one_blas_thread

for dsll in (None, -20.0):
    synthesize(SynthesisProblem(
        geometry=nonuniform41(), beam_center_deg=0.0, beamwidth_deg=20.0,
        dsll_db=dsll, admm=AdmmConfig(rho_init=2000.0, iter_max=20),
    ))
out = {
    "scipy_modules": sorted(m for m in sys.modules if m.startswith("scipy")),
    "builds_after_runs": sorted(blas_threads()),
}
import scipy.linalg

builds = sphere._openblas_builds()
out["builds_after_scipy"] = sorted(builds)
for build in builds.values():
    build.put(2)
with one_blas_thread():
    out["inside_block"] = blas_threads()
out["after_block"] = blas_threads()
print(json.dumps(out))
"""


@pytest.fixture
def two_blas_threads():
    """Names of the OpenBLAS builds found, each set to two threads, then restored."""
    builds = sphere._openblas_builds()
    if not builds:
        pytest.skip("no OpenBLAS build found")
    saved = blas_threads()
    for build in builds.values():
        build.put(2)
    yield sorted(builds)
    for name, build in builds.items():
        build.put(saved[name])


class TestOneBlasThread:
    def test_one_thread_inside_and_restored_after(self, two_blas_threads):
        assert blas_threads() == dict.fromkeys(two_blas_threads, 2)
        with one_blas_thread():
            assert blas_threads() == dict.fromkeys(two_blas_threads, 1)
        assert blas_threads() == dict.fromkeys(two_blas_threads, 2)

    def test_restored_when_the_block_raises(self, two_blas_threads):
        with pytest.raises(ValueError, match="inside"):
            with one_blas_thread():
                assert blas_threads() == dict.fromkeys(two_blas_threads, 1)
                raise ValueError("inside")
        assert blas_threads() == dict.fromkeys(two_blas_threads, 2)

    def test_nested_blocks_restore_on_the_outer_exit(self, two_blas_threads):
        with one_blas_thread():
            with one_blas_thread():
                pass
            assert blas_threads() == dict.fromkeys(two_blas_threads, 1)
        assert blas_threads() == dict.fromkeys(two_blas_threads, 2)

    def test_blocks_overlapping_across_threads(self, two_blas_threads):
        # more threads than cores and a short switch interval, so that blocks
        # open and close in every order
        seen = []

        def enter_and_leave():
            for _ in range(300):
                with one_blas_thread():
                    seen.append(set(blas_threads().values()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=enter_and_leave) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(seen) == 4 * 300 and all(counts == {1} for counts in seen)
        assert blas_threads() == dict.fromkeys(two_blas_threads, 2)

    def test_builds_are_found_by_symbol(self):
        builds = sphere._openblas_builds()
        assert set(builds) <= {"numpy", "scipy"}
        for build in builds.values():
            assert build.get() >= 1
            assert build.config.startswith("OpenBLAS")

    def test_runs_load_no_scipy_and_scipy_build_is_found_once_loaded(self):
        if "numpy" not in sphere._openblas_builds():
            pytest.skip("needs the OpenBLAS that numpy bundles")
        out = json.loads(_child_output(_CHILD_SCIPY_FREE))
        assert out["scipy_modules"] == []
        assert out["builds_after_runs"] == ["numpy"]
        assert out["builds_after_scipy"] == ["numpy", "scipy"]
        assert out["inside_block"] == {"numpy": 1, "scipy": 1}
        assert out["after_block"] == {"numpy": 2, "scipy": 2}

    @pytest.mark.skipif(
        not hasattr(resource, "RUSAGE_THREAD"),
        reason="reads the caller's CPU time with Linux's RUSAGE_THREAD",
    )
    def test_last_exit_stops_the_helpers(self, two_blas_threads):
        if len(sys._current_frames()) > 1:
            pytest.skip("helpers stop only in a process running one Python thread")
        assert all(build.stop for build in sphere._openblas_builds().values())
        mainlobe, sidelobe = assemble_regions(0.0, 20.0, 3.0, 0.5)
        q = build_gain_operators(nonuniform41(), mainlobe, sidelobe).Q
        gram = q @ q.conj().T

        def product_then_block():
            q @ q.conj().T
            with one_blas_thread():
                pass

        stopped = helper_cpu_ms(product_then_block)[1]
        # positive control: the bare product leaves the helper spinning
        spinning = helper_cpu_ms(lambda: q @ q.conj().T)[1]
        assert spinning > 20.0
        assert stopped < 0.1 * spinning
        # the counts stay, and a threaded product after the stop has its bits
        assert blas_threads() == dict.fromkeys(two_blas_threads, 2)
        assert (q @ q.conj().T).tobytes() == gram.tobytes()

    def test_helpers_stopped_unless_another_thread_runs(self, monkeypatch):
        calls = []
        stand_in = sphere._Build(
            get=lambda: 2, put=lambda n: calls.append(("put", n)),
            config="OpenBLAS stand-in", lib=None, stop=lambda: calls.append("stop"),
        )
        monkeypatch.setattr(sphere, "_OPENBLAS_MODULES", {})
        # a build without the stop symbol is skipped
        without_stop = stand_in._replace(stop=None)
        monkeypatch.setattr(sphere, "_openblas", {"numpy": stand_in, "scipy": without_stop})
        with one_blas_thread():
            pass
        # each stop follows the counts it goes with
        assert calls == [("put", 1), "stop", ("put", 1), ("put", 2), "stop", ("put", 2)]
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            calls.clear()
            with one_blas_thread():
                pass
        finally:
            release.set()
            other.join()
        assert calls == [("put", 1), ("put", 1), ("put", 2), ("put", 2)]
        # a thread started outside threading counts as well
        started, release = threading.Event(), threading.Event()

        def wait():
            started.set()
            release.wait()

        _thread.start_new_thread(wait, ())
        started.wait()
        try:
            assert threading.active_count() == 1
            calls.clear()
            with one_blas_thread():
                pass
        finally:
            release.set()
        assert calls == [("put", 1), ("put", 1), ("put", 2), ("put", 2)]
        # let it end, so that later tests run in a one-thread process
        for _ in range(1000):
            if len(sys._current_frames()) == 1:
                break
            time.sleep(0.001)

    @pytest.mark.parametrize(
        "module", ["numpy.fft._pocketfft_umath", "beamgain._no_such_module"]
    )
    def test_build_without_symbols_is_skipped(self, monkeypatch, module):
        before = blas_threads()
        monkeypatch.setattr(sphere, "_OPENBLAS_MODULES", {"numpy": (module, "64_")})
        monkeypatch.setattr(sphere, "_openblas", None)
        assert blas_threads() == {}
        with one_blas_thread():
            x = np.ones((3, 3)) @ np.ones(3)
        assert np.array_equal(x, np.full(3, 3.0))
        monkeypatch.undo()
        assert blas_threads() == before


def _blocked_product_operand(operand):
    """An operand as the sphere solve or the pattern pass uses it.

    ``Q^H`` at two centers is C-ordered.  ``a(theta)^H`` on the pattern grid,
    ``Q`` and the ``P`` of a 60 deg mainlobe are F-ordered and reach
    OpenBLAS's threading size; ``a(theta)^H`` of an 11-element line is
    F-ordered and stays below it.
    """
    theta = -90.0 + 0.5 * np.arange(361)
    if operand == "steering":
        # a(theta)^H on the full-span pattern grid, as the pattern pass uses it
        op = steering_matrix(nonuniform41(), theta).conj().T
        assert op.shape == (361, 41) and op.flags.f_contiguous
        return op
    if operand == "small":
        line = ArrayGeometry(positions=0.5 * np.arange(11), efficiencies=np.ones(11))
        op = steering_matrix(line, theta).conj().T
        assert op.size < 4096 and op.flags.f_contiguous
        return op
    if operand == "wide":
        mainlobe, _ = assemble_regions(0.0, 60.0, 3.0, 0.5)
        op = build_gain_operators(nonuniform41(), mainlobe).P
        assert op.shape == (41, 121) and op.flags.f_contiguous
        return op
    center = 0.0 if operand == "forward" else operand
    mainlobe, sidelobe = assemble_regions(center, 20.0, 3.0, 0.5)
    q = build_gain_operators(nonuniform41(), mainlobe, sidelobe).Q
    if operand == "forward":
        # Q as the sphere solve's Q d2 uses it
        assert q.shape == (41, 310) and q.flags.f_contiguous
        return q
    op = np.ascontiguousarray(q.conj().T)
    assert op.shape[0] == {0.0: 310, 0.25: 309}[operand]
    return op


class TestRowBlockedProduct:
    @pytest.mark.parametrize("operand", [0.0, 0.25, "steering", "forward", "wide", "small"])
    def test_adjoint_product_equals_plain(self, request, rng, operand):
        op = _blocked_product_operand(operand)
        if op.flags.f_contiguous:
            # compared with the plain product at OpenBLAS's two threads, set
            # here, so that the comparison does not depend on the
            # environment's count; a C-ordered product rounds alike at any
            # count, so that case runs without an OpenBLAS build found
            threads = dict.fromkeys(request.getfixturevalue("two_blas_threads"), 2)
        product = RowBlockedProduct(op)
        for _ in range(200):
            x = rng.normal(size=op.shape[1]) + 1j * rng.normal(size=op.shape[1])
            plain = op @ x
            with one_blas_thread():
                assert np.array_equal(product(x), plain)
        if op.flags.f_contiguous:
            assert blas_threads() == threads

    def test_solve_and_pattern_same_inside_and_outside_a_block(self, rng, two_blas_threads):
        geometry = nonuniform41()
        mainlobe, sidelobe = assemble_regions(0.0, 20.0, 3.0, 0.5)
        ops = build_gain_operators(geometry, mainlobe, sidelobe)
        solver = SphereSolver(ops.P, ops.Q)
        theta = -90.0 + 0.5 * np.arange(361)
        for _ in range(20):
            d1 = rng.normal(size=41) + 1j * rng.normal(size=41)
            d2 = rng.normal(size=310) + 1j * rng.normal(size=310)
            x = solver.solve(d1, d2)
            pattern = power_gain_pattern(geometry, x, theta, ops.A)
            with one_blas_thread():
                assert solver.solve(d1, d2).tobytes() == x.tobytes()
                inside = power_gain_pattern(geometry, x, theta, ops.A)
                assert inside.tobytes() == pattern.tobytes()

    def test_forward_product_independent_of_thread_count(self):
        outputs = _child_outputs(_CHILD_PRODUCT)
        assert len(outputs[0].split()) == 60
        assert outputs[0] == outputs[1]

    def test_product_and_two_block_solver_do_not_pickle(self):
        mainlobe, sidelobe = assemble_regions(0.0, 20.0, 3.0, 0.5)
        ops = build_gain_operators(nonuniform41(), mainlobe, sidelobe)
        for obj in (RowBlockedProduct(ops.Q), SphereSolver(ops.P, ops.Q)):
            with pytest.raises(TypeError, match="built in the process that uses it"):
                pickle.dumps(obj)
