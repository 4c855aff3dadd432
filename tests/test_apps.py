import warnings

import numpy as np
import pytest

from enrichedfp import _kernels, catalog, certify, convex, mappings, solve
from enrichedfp.apps import (
    SfpInstance,
    VipInstance,
    power_iteration,
    sfp_operator,
    solve_sfp,
    solve_vip,
    spectral_radius_ata,
    vip_operator,
)
from enrichedfp.exceptions import (
    AutoLambdaError,
    DimensionMismatchError,
    GammaRangeError,
    InvalidConstantError,
    OutOfDomainError,
)
from enrichedfp.mappings import AffineMap, Scale1D


class TestSpectralRadius:
    def test_diagonal_exact(self):
        assert spectral_radius_ata(np.array([[1.0, 0.0], [0.0, 2.0]])) == 4.0

    def test_nilpotent(self):
        assert spectral_radius_ata(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0, abs=1e-12)

    def test_seeded_matches_dense_eigensolver(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(2, 11))
            a = rng.normal(size=(n, n))
            expected = float(np.linalg.eigvalsh(a.T @ a)[-1])
            got = spectral_radius_ata(a)
            assert abs(got - expected) <= 1e-8 * max(1.0, expected)

    def test_stalled_start_recovers(self):
        # A^T A = [[1,-1],[-1,1]] annihilates the all-ones start vector
        a = np.array([[1.0, -1.0], [0.0, 0.0]])
        assert spectral_radius_ata(a) == pytest.approx(2.0, rel=1e-10)

    def test_zero_matrix_rejected(self):
        with pytest.raises(InvalidConstantError):
            spectral_radius_ata(np.zeros((2, 2)))

    def test_iteration_cap_reports_estimate(self):
        lam, _, converged, iters = power_iteration(np.diag([1.0, 4.0]), max_iter=1)
        assert not converged
        assert iters == 1
        # an eigengap of ~5e-6 cannot separate within the iteration cap
        with pytest.warns(RuntimeWarning):
            value = spectral_radius_ata(np.diag([1.0, 1.0 - 2.5e-6]))
        assert value == pytest.approx(1.0, rel=1e-5)


class TestSfpOperator:
    def test_feasible_point_untouched(self):
        op = sfp_operator(catalog.standard_sfp())
        assert np.array_equal(op.apply([1.0, 1.0]), [1.0, 1.0])

    def test_degenerate_instance_value(self):
        op = sfp_operator(catalog.degenerate_sfp())
        assert op.apply([0.0])[0] == 0.0

    def test_fixed_points_are_solutions(self):
        inst = catalog.standard_sfp()
        op = sfp_operator(inst)
        x = np.array([1.0, 1.0])
        assert convex.contains(inst.c_set, x, 1e-10)
        assert convex.contains(inst.q_set, inst.matrix @ x, 1e-10)
        assert float(np.linalg.norm(op.apply(x) - x)) <= 1e-9

    def test_gamma_auto_is_inverse_rho(self):
        inst = SfpInstance(
            c_set=convex.Box(lower=np.zeros(2), upper=np.ones(2)),
            q_set=convex.Box(lower=np.full(2, 2.0), upper=np.full(2, 3.0)),
            matrix=2.0 * np.eye(2),
            gamma="auto",
        )
        op = sfp_operator(inst)
        assert op.rho == 4.0
        assert op.gamma == 0.25
        assert op.gamma * op.rho < 2.0

    def test_gamma_range_guard(self):
        inst = SfpInstance(
            c_set=convex.Box(lower=np.zeros(2), upper=np.ones(2)),
            q_set=convex.Box(lower=np.full(2, 2.0), upper=np.full(2, 3.0)),
            matrix=2.0 * np.eye(2),
            gamma=0.5,  # rho = 4 makes the admissible interval (0, 0.5)
        )
        with pytest.raises(GammaRangeError):
            sfp_operator(inst)

    def test_composition_exactness(self):
        inst = catalog.standard_sfp()
        op = sfp_operator(inst)
        rng = np.random.default_rng(21)
        for x in rng.uniform(-2.0, 2.0, size=(200, 2)):
            image = inst.matrix @ x
            manual = inst.c_set.project(
                x - op.gamma * (inst.matrix.T @ (image - inst.q_set.project(image)))
            )
            assert float(np.linalg.norm(op.apply(x) - manual)) <= 1e-14


class TestVipOperator:
    def test_interior_push(self):
        op = vip_operator(catalog.vip_line())
        assert op.apply([0.0])[0] == 0.5

    def test_stationary_point_fixed(self):
        op = vip_operator(catalog.vip_line())
        assert op.apply([1.0])[0] == 1.0

    def test_boundary_clamp(self):
        op = vip_operator(catalog.vip_boundary())
        assert op.apply([0.0])[0] == 0.0

    def test_composition_exactness(self):
        inst = catalog.vip_plane()
        op = vip_operator(inst)
        rng = np.random.default_rng(22)
        for x in rng.uniform(-1.0, 4.0, size=(200, 2)):
            manual = inst.c_set.project(x - inst.gamma * inst.operator.apply(x))
            assert float(np.linalg.norm(op.apply(x) - manual)) <= 1e-14


def _sets(d, rng):
    normal = rng.standard_normal(d)
    return {
        "box": convex.Box(lower=-np.ones(d), upper=np.ones(d)),
        "ball": convex.Ball(center=0.5 * rng.standard_normal(d), radius=2.0 * np.sqrt(d)),
        "halfspace": convex.Halfspace(normal=normal, offset=0.3),
        "hyperplane": convex.Hyperplane(normal=normal, offset=-0.7),
    }


SET_KINDS = ["box", "ball", "halfspace", "hyperplane"]


def _loop(operator, points):
    return np.stack([operator.apply(p) for p in points])


class TestApplyMany:
    @staticmethod
    def _same_as_loop(operator, rng):
        # rows near the origin and far from it: inside and outside every set
        points = rng.standard_normal((200, operator.dim)) * np.repeat([0.2, 4.0], 100)[:, None]
        got, want = operator.apply_many(points), _loop(operator, points)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("q_kind", SET_KINDS)
    @pytest.mark.parametrize("c_kind", SET_KINDS)
    @pytest.mark.parametrize("d, m", [(1, 1), (5, 3), (30, 30)])
    def test_sfp(self, c_kind, q_kind, d, m):
        rng = np.random.default_rng(d * m)
        inst = SfpInstance(
            c_set=_sets(d, rng)[c_kind],
            q_set=_sets(m, rng)[q_kind],
            matrix=rng.standard_normal((m, d)),
        )
        self._same_as_loop(sfp_operator(inst), rng)

    @pytest.mark.parametrize("c_kind", SET_KINDS)
    @pytest.mark.parametrize("d", [1, 5, 30])
    def test_vip(self, c_kind, d):
        rng = np.random.default_rng(d)
        g = AffineMap(matrix=rng.standard_normal((d, d)), offset=rng.standard_normal(d))
        inst = VipInstance(c_set=_sets(d, rng)[c_kind], operator=g, gamma=0.2)
        self._same_as_loop(vip_operator(inst), rng)

    def test_catalog_instances(self):
        rng = np.random.default_rng(4)
        self._same_as_loop(sfp_operator(catalog.standard_sfp()), rng)
        self._same_as_loop(vip_operator(catalog.vip_plane()), rng)
        self._same_as_loop(vip_operator(catalog.vip_line()), rng)

    @pytest.mark.parametrize("case", ["sfp image", "vip step before a row outside G's domain"])
    def test_an_overflow_raises_what_the_loop_raises(self, case):
        if case == "sfp image":
            # A x overflows at the second and third rows
            inst = SfpInstance(
                c_set=convex.Box(lower=-np.ones(2), upper=np.ones(2)),
                q_set=convex.Ball(center=np.zeros(2), radius=1.0),
                matrix=2.0 * np.eye(2),
            )
            op = sfp_operator(inst)
            pts = np.array([[0.5, 0.5], [1e308, 0.0], [0.0, 1e308]])
        else:
            # the second row's step overflows; the third lies outside G's domain
            g = Scale1D(c=1e300, bounds=(-1e10, 1e10))
            c_set = convex.Box(lower=[-1.0], upper=[1.0])
            op = vip_operator(VipInstance(c_set=c_set, operator=g, gamma=1.0))
            pts = np.array([[0.0], [1e9], [1e11]])
        with np.errstate(over="ignore"):
            with pytest.raises(Exception) as loop_error:
                _loop(op, pts)
            with pytest.raises(Exception) as batch_error:
                op.apply_many(pts)
        assert type(batch_error.value) is type(loop_error.value) is InvalidConstantError
        assert str(batch_error.value) == str(loop_error.value)


def _as_point_checked(x):
    """``mappings.as_point`` as it was before its fast path for 1-D float64 arrays."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionMismatchError(f"expected a 1-D point, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidConstantError(f"point has non-finite entries: {arr}")
    return arr


def _checked(monkeypatch, call, *args):
    """``call(*args)`` with the earlier ``as_point`` in every module that uses it."""
    with monkeypatch.context() as patch:
        for module in (mappings, convex, solve):
            patch.setattr(module, "as_point", _as_point_checked)
        return call(*args)


@pytest.fixture
def ball_sides(monkeypatch):
    """Per ball projected onto: the sides of it, inside or not, of the points it got."""
    sides = {}
    project = convex.Ball._project

    def recorded(ball, point):
        inside = bool(np.linalg.norm(point - ball.center) <= ball.radius)
        sides.setdefault(id(ball), set()).add(inside)
        return project(ball, point)

    monkeypatch.setattr(convex.Ball, "_project", recorded)
    return sides


def _raised(call, *args):
    """The type and message of the error ``call(*args)`` raises."""
    with np.errstate(over="ignore"):  # the matmul that overflows warns
        with pytest.raises(Exception) as error:
            call(*args)
    return type(error.value), str(error.value)


class TestProjectionSteps:
    """The operator steps keep their bits and errors with ``as_point``'s fast path."""

    @staticmethod
    def _same_as_checked(monkeypatch, op, rng, balls, ball_sides):
        # rows near the origin and far from it: inside and outside every set,
        # with warnings as errors, since the steps may raise none
        points = rng.standard_normal((60, op.dim)) * np.repeat([0.2, 10.0], 30)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for point in points:
                got = op._apply(point)
                assert got.tobytes() == _checked(monkeypatch, op._apply, point).tobytes()
        for ball in balls:  # both of a ball's branches ran
            assert ball_sides[id(ball)] == {True, False}

    @pytest.mark.parametrize("q_kind", SET_KINDS)
    @pytest.mark.parametrize("c_kind", SET_KINDS)
    @pytest.mark.parametrize("d, m", [(1, 1), (2, 3), (8, 5), (30, 30)])
    def test_sfp(self, monkeypatch, ball_sides, c_kind, q_kind, d, m):
        rng = np.random.default_rng(d * m + 7)
        a = rng.standard_normal((m, d)) / np.sqrt(d)
        # half the usual step, so that far points stay outside C after it
        inst = SfpInstance(
            c_set=_sets(d, rng)[c_kind], q_set=_sets(m, rng)[q_kind], matrix=a,
            gamma=0.5 / spectral_radius_ata(a),
        )
        balls = [s for s in (inst.c_set, inst.q_set) if isinstance(s, convex.Ball)]
        self._same_as_checked(monkeypatch, sfp_operator(inst), rng, balls, ball_sides)

    @pytest.mark.parametrize("c_kind", SET_KINDS)
    @pytest.mark.parametrize("d", [1, 2, 8, 30])
    def test_vip(self, monkeypatch, ball_sides, c_kind, d):
        rng = np.random.default_rng(d + 7)
        g = AffineMap(matrix=rng.standard_normal((d, d)) / np.sqrt(d), offset=rng.standard_normal(d))
        inst = VipInstance(c_set=_sets(d, rng)[c_kind], operator=g, gamma=0.2)
        balls = [inst.c_set] if c_kind == "ball" else []
        self._same_as_checked(monkeypatch, vip_operator(inst), rng, balls, ball_sides)

    @pytest.mark.parametrize("case", ["image", "step"])
    def test_an_sfp_intermediate_that_overflows(self, monkeypatch, case):
        # A x overflows, or A^T (A x - P_Q(A x)) does: the same typed error
        # and message as with the earlier point check
        a = np.array([[2.0, 0.0], [0.0, 2.0]]) if case == "image" else np.array([[1e75, 0.0], [0.0, 1.0]])
        inst = SfpInstance(
            c_set=convex.Box(lower=-np.ones(2), upper=np.ones(2)),
            q_set=convex.Ball(center=np.zeros(2), radius=1.0),
            matrix=a,
        )
        op = sfp_operator(inst)
        point = np.array([1e308, 0.0]) if case == "image" else np.array([1e160, 0.5])
        got = _raised(op._apply, point)
        assert got == _checked(monkeypatch, _raised, op._apply, point)
        assert got[0] is InvalidConstantError and "non-finite" in got[1]

    def test_vip_errors_are_the_checked_ones(self, monkeypatch):
        # a step that overflows, and a point outside G's domain
        g = Scale1D(c=1e300, bounds=(-1e10, 1e10))
        op = vip_operator(VipInstance(c_set=convex.Box(lower=[-1.0], upper=[1.0]), operator=g, gamma=1.0))
        for point, error in ((1e9, InvalidConstantError), (1e11, OutOfDomainError)):
            got = _raised(op._apply, np.array([point]))
            assert got == _checked(monkeypatch, _raised, op._apply, np.array([point]))
            assert got[0] is error

    @pytest.mark.parametrize("kind", ["sfp", "vip"])
    def test_iterates_match_the_checked_steps(self, monkeypatch, kind):
        # the solver's iterates at d = 8, with either point check
        rng = np.random.default_rng(12)
        d = 8
        sets = _sets(d, rng)
        if kind == "sfp":
            inst = SfpInstance(c_set=sets["box"], q_set=sets["ball"], matrix=rng.standard_normal((d, d)))
            op = sfp_operator(inst)
        else:
            g = AffineMap(matrix=np.eye(d) + 0.3 * rng.standard_normal((d, d)), offset=rng.standard_normal(d))
            op = vip_operator(VipInstance(c_set=sets["ball"], operator=g, gamma=0.2))
        cfg = solve.SolveConfig(lam=0.5, tol=1e-12, max_iter=300)
        start = 3.0 * rng.standard_normal(d)
        fast = solve.krasnoselskij(op, start, cfg)
        checked = _checked(monkeypatch, solve.krasnoselskij, op, start, cfg)
        assert fast.iterations == checked.iterations > 10
        assert np.stack(fast.iterates).tobytes() == np.stack(checked.iterates).tobytes()


class TestAsPoint:
    def test_a_finite_float64_vector_comes_back_as_it_is(self):
        point = np.arange(4.0)
        assert mappings.as_point(point) is point

    @pytest.mark.parametrize(
        "value",
        [
            2.5, [1, 2], (3.0,), np.float64(1.5), np.array(7.0), np.arange(3),
            np.arange(3, dtype=np.float32), np.arange(3.0).astype(">f8"), np.arange(6.0)[::2],
            [[1.0, 2.0]], np.zeros((2, 2)), [], np.array([1.0, np.nan]), [np.inf], -np.inf,
        ],
    )
    def test_every_input_gets_the_earlier_result(self, value):
        # the same dtype, shape and bits, or the same error and message
        try:
            want = _as_point_checked(value)
        except Exception as error:
            with pytest.raises(type(error)) as got:
                mappings.as_point(value)
            assert str(got.value) == str(error)
            return
        got = mappings.as_point(value)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestSolveSfp:
    @pytest.mark.parametrize("lam", [solve.AUTO, 0.5])
    def test_a_negative_seed_is_refused(self, lam):
        # refused before the solve, with auto lambda or without
        cfg = solve.SolveConfig(lam=lam, tol=1e-10, max_iter=50)
        with pytest.raises(InvalidConstantError, match=r"^cert_seed must be >= 0, got -1$"):
            solve_sfp(catalog.standard_sfp(), cfg, [0.0, 0.0], cert_seed=-1)

    def test_standard_instance(self):
        cfg = solve.SolveConfig(lam=0.5, tol=1e-10, max_iter=500)
        result = solve_sfp(catalog.standard_sfp(), cfg, [0.0, 0.0])
        assert result.trace.converged
        assert result.trace.iterations < 500
        assert float(np.linalg.norm(result.point - 1.0)) <= 1e-8
        assert result.residual_c <= 1e-8
        assert result.residual_q <= 1e-8
        assert result.feasible
        assert result.certificate is not None and result.certificate.feasible

    def test_feasible_start_converges_with_zero_step(self):
        cfg = solve.SolveConfig(lam=0.5, tol=1e-10, max_iter=50)
        result = solve_sfp(catalog.standard_sfp(), cfg, [1.0, 1.0])
        assert result.trace.converged
        assert result.trace.iterations == 1
        assert result.trace.step_norms[0] == 0.0

    def test_start_projected_onto_c(self):
        cfg = solve.SolveConfig(lam=0.5, tol=1e-10, max_iter=500)
        result = solve_sfp(catalog.standard_sfp(), cfg, [9.0, -7.0])
        assert np.array_equal(result.trace.iterates[0], [1.0, 0.0])
        assert result.feasible

    def test_degenerate_instance_flagged_not_errored(self):
        cfg = solve.SolveConfig(lam=0.5, tol=1e-10, max_iter=200)
        result = solve_sfp(catalog.degenerate_sfp(), cfg, [0.0])
        assert result.trace.converged
        assert result.point[0] == 0.0
        assert result.residual_q == pytest.approx(1.0, abs=1e-12)
        assert not result.feasible

    def test_converged_with_small_residuals_is_member(self):
        inst = catalog.standard_sfp()
        cfg = solve.SolveConfig(lam=0.5, tol=1e-12, max_iter=1000)
        result = solve_sfp(inst, cfg, [0.3, 0.7])
        assert result.feasible
        assert convex.contains(inst.c_set, result.point, 1e-10)
        assert convex.contains(inst.q_set, inst.matrix @ result.point, 1e-10)

    def test_auto_lambda_certifies_on_c(self):
        # the operator is constant on C, so the points in C certify k=0
        cfg = solve.SolveConfig(lam=solve.AUTO, tol=1e-10, max_iter=50)
        result = solve_sfp(catalog.standard_sfp(), cfg, [0.0, 0.0], cert_seed=3)
        assert result.trace.lam == 1.0
        assert np.allclose(result.point, [1.0, 1.0], atol=1e-12)

    def test_auto_lambda_refused_on_single_point_c(self):
        cfg = solve.SolveConfig(lam=solve.AUTO, tol=1e-10, max_iter=50)
        with pytest.raises(AutoLambdaError, match="collapses to a single point"):
            solve_sfp(catalog.degenerate_sfp(), cfg, [0.0])


class TestSolveVip:
    @pytest.mark.parametrize("lam", [solve.AUTO, 1.0])
    def test_a_negative_seed_is_refused(self, lam):
        # refused before the solve, with auto lambda or without
        cfg = solve.SolveConfig(lam=lam, tol=1e-10, max_iter=50)
        with pytest.raises(InvalidConstantError, match=r"^seed must be >= 0, got -1$"):
            solve_vip(catalog.vip_line(), cfg, [0.0], seed=-1)

    def test_auto_lambda_certifies_on_c(self):
        # G(x) = x - 1 makes T a 1/2-scaling, which no class certifies; the
        # refusal names the sample in C it tried
        cfg = solve.SolveConfig(lam=solve.AUTO, tol=1e-10, max_iter=50)
        with pytest.raises(AutoLambdaError, match=r"200 seeded pts in C \(seed 4\)"):
            solve_vip(catalog.vip_line(), cfg, [0.0], seed=4)

    def test_interior_solution(self):
        cfg = solve.SolveConfig(lam=1.0, tol=1e-10, max_iter=200)
        result = solve_vip(catalog.vip_line(), cfg, [0.0])
        assert result.trace.converged
        assert abs(result.point[0] - 1.0) <= 1e-8
        assert result.vi_residual >= -1e-8
        assert result.vi_ok
        assert result.monotone_certificate.satisfied

    def test_boundary_solution(self):
        cfg = solve.SolveConfig(lam=1.0, tol=1e-10, max_iter=200)
        result = solve_vip(catalog.vip_boundary(), cfg, [1.0])
        assert result.trace.converged
        assert abs(result.point[0]) <= 1e-9
        assert result.vi_residual >= 0.0  # <1, z - 0> = z >= 0 on [0, 1]

    def test_plane_solution(self):
        cfg = solve.SolveConfig(lam=1.0, tol=1e-10, max_iter=500)
        result = solve_vip(catalog.vip_plane(), cfg, [3.0, 0.0])
        assert float(np.linalg.norm(result.point - 1.0)) <= 1e-8
        assert result.vi_ok

    def test_monotonicity_attached(self):
        cfg = solve.SolveConfig(lam=1.0, tol=1e-10, max_iter=200)
        neg = VipInstance(
            c_set=convex.Box(lower=np.zeros(1), upper=np.ones(1)),
            operator=AffineMap(matrix=-0.5 * np.eye(1), offset=np.array([0.2])),
            gamma=0.5,
        )
        result = solve_vip(neg, cfg, [0.5])
        assert not result.monotone_certificate.satisfied

    def test_fixed_point_vi_equivalence(self):
        # fixed-point residual below tol must coincide with a nonnegative
        # sampled inequality residual, and a non-solution must fail both
        for inst, x0 in [
            (catalog.vip_line(), [0.0]),
            (catalog.vip_boundary(), [1.0]),
            (catalog.vip_plane(), [3.0, 0.0]),
        ]:
            cfg = solve.SolveConfig(lam=1.0, tol=1e-12, max_iter=2000)
            result = solve_vip(inst, cfg, x0)
            op = vip_operator(inst)
            fp_residual = float(np.linalg.norm(op.apply(result.point) - result.point))
            assert fp_residual <= 1e-10
            assert result.vi_ok
        # non-solution: x = 0 for the interior instance
        inst = catalog.vip_line()
        op = vip_operator(inst)
        bad = np.array([0.0])
        assert float(np.linalg.norm(op.apply(bad) - bad)) > 1e-3
        zs = convex.sample_points(inst.c_set, 100, seed=0)
        g_bad = inst.operator.apply(bad)
        assert float(np.min((zs - bad) @ g_bad)) < -1e-3

    def test_certificate_attempt_reported_honestly(self):
        # the line instance's operator is a plain geometric contraction that
        # certifies in neither displacement class; the attempt must say so
        cfg = solve.SolveConfig(lam=1.0, tol=1e-10, max_iter=200)
        result = solve_vip(catalog.vip_line(), cfg, [0.0])
        assert result.certificate is not None
        assert not result.certificate.feasible
        assert "infeasible" in result.certificate_note


class TestAutoLambdaClassOrder:
    """Auto lambda takes the first class that certifies on C: displacement-sum
    (Kannan) for SFP, max-displacement (Bianchini) for VIP."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in ("estimate_kannan_constants", "estimate_bianchini_constants"):

            def spy(mapping, sample, k_grid=certify.DEFAULT_K_GRID, real=getattr(certify, name), name=name):
                cert = real(mapping, sample, k_grid)
                calls.append((name, sample.description, cert.feasible))
                return cert

            monkeypatch.setattr(certify, name, spy)
        return calls

    def _both_certify_on_c(self, calls, operator, c_set, seed):
        sample = certify.distinct_sample(convex.sample_points(c_set, 200, seed), "C", seed)
        assert certify.estimate_kannan_constants(operator, sample).feasible
        assert certify.estimate_bianchini_constants(operator, sample).feasible
        calls.clear()

    def test_sfp_takes_kannan_first(self, calls):
        # the operator is constant on C, so both classes certify there
        inst = catalog.standard_sfp()
        self._both_certify_on_c(calls, sfp_operator(inst), inst.c_set, 3)
        cfg = solve.SolveConfig(lam=solve.AUTO, tol=1e-10, max_iter=50)
        solve_sfp(inst, cfg, [0.0, 0.0], cert_seed=3)
        on_c = [call for call in calls if call[1] == "200 seeded pts in C (seed 3)"]
        assert on_c == [("estimate_kannan_constants", "200 seeded pts in C (seed 3)", True)]
        assert calls[-1][0] == "estimate_kannan_constants" and calls[-1][1].startswith("orbit")

    def test_vip_takes_bianchini_first(self, calls):
        # G(x) = x - c with gamma 1 makes T the constant P_C(c)
        inst = VipInstance(
            c_set=convex.Box(lower=np.zeros(2), upper=np.ones(2)),
            operator=AffineMap(matrix=np.eye(2), offset=np.array([-0.3, -2.0])),
            gamma=1.0,
        )
        self._both_certify_on_c(calls, vip_operator(inst), inst.c_set, 3)
        cfg = solve.SolveConfig(lam=solve.AUTO, tol=1e-10, max_iter=50)
        result = solve_vip(inst, cfg, [0.5, 0.5], seed=3)
        assert np.array_equal(result.point, [0.3, 1.0])
        on_c = [call for call in calls if call[1] == "200 seeded pts in C (seed 3)"]
        assert on_c == [("estimate_bianchini_constants", "200 seeded pts in C (seed 3)", True)]
        assert calls[-1][0] == "estimate_bianchini_constants" and calls[-1][1].startswith("orbit")


class TestHighDimensionalBall:
    """A ball C samples at any dimension (auto lambda on a 30-D ball is in test_cli)."""

    def test_vip_on_a_20d_ball(self):
        d = 20
        inst = VipInstance(
            c_set=convex.Ball(center=np.zeros(d), radius=1.0),
            operator=AffineMap(matrix=np.eye(d), offset=np.full(d, 0.1)),
            gamma=0.5,
        )
        cfg = solve.SolveConfig(lam=0.5, tol=1e-10, max_iter=500)
        result = solve_vip(inst, cfg, np.zeros(d), seed=1)
        assert result.trace.converged
        assert np.allclose(result.point, -0.1, atol=1e-8)  # interior: G(x*) = 0
        assert result.vi_ok
        assert result.monotone_certificate.satisfied


def _orbit_order_sample(trace, seed, random_points=100):
    """The orbit sample with its rows in iteration order, oldest iterate first."""
    orbit = np.stack(trace.iterates)
    lo, hi = orbit.min(axis=0), orbit.max(axis=0)
    margin = np.maximum(0.5 * (hi - lo), 0.5)
    lo, hi = lo - margin, hi + margin
    rng = np.random.default_rng(seed)
    extra = lo + rng.uniform(size=(random_points, orbit.shape[1])) * (hi - lo)
    return certify.distinct_sample(
        np.concatenate([orbit, extra]),
        f"orbit ({trace.iterations + 1} iterates) + {random_points} random pts (seed {seed})",
        seed,
    )


def _cert_bits(cert):
    """Everything a certificate reports, floats as bytes so that -0.0 != 0.0."""
    witness = None if cert.witness is None else tuple(w.tobytes() for w in cert.witness)
    bits = [np.float64(v).tobytes() for v in (cert.k, cert.rate, cert.max_violation)]
    sample = (cert.sample.description, cert.sample.seed, cert.sample.size)
    return cert.class_tag, *bits, witness, cert.feasible, sample


class TestOrbitCertificate:
    """The orbit sample lists the newest iterate first; certificates match iteration order, bit for bit."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # blocks of 3000 entries, so that each orbit sample spans several
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 8 * 3000)

    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_sfp(self, seed):
        rng = np.random.default_rng(seed)
        d = 6
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        a = q @ np.diag(np.linspace(0.4, 1.9, d)) @ q.T
        target = rng.uniform(-0.3, 0.3, d)
        inst = SfpInstance(
            c_set=convex.Box(lower=-np.ones(d), upper=np.ones(d)),
            q_set=convex.Ball(center=a @ target, radius=0.2),
            matrix=a,
        )
        cfg = solve.SolveConfig(lam=0.5, tol=1e-10, max_iter=5000, stop_rule=solve.STOP_STEP_NORM)
        result = solve_sfp(inst, cfg, target + 2.5 * rng.standard_normal(d), cert_seed=seed)
        want = certify.estimate_kannan_constants(sfp_operator(inst), _orbit_order_sample(result.trace, seed))
        assert _cert_bits(result.certificate) == _cert_bits(want)
        assert np.array_equal(result.certificate.sample.points[0], result.trace.final)

    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_vip(self, seed):
        rng = np.random.default_rng(seed)
        d = 6
        b = rng.standard_normal((d, d)) / np.sqrt(d)
        inst = VipInstance(
            c_set=convex.Box(lower=-np.ones(d), upper=np.ones(d)),
            operator=AffineMap(matrix=np.eye(d) + 0.3 * (b - b.T), offset=rng.uniform(-1.5, 1.5, d)),
            gamma=0.2,
        )
        cfg = solve.SolveConfig(lam=0.5, tol=1e-10, max_iter=5000, stop_rule=solve.STOP_STEP_NORM)
        result = solve_vip(inst, cfg, np.zeros(d), seed=seed)
        want = certify.estimate_bianchini_constants(vip_operator(inst), _orbit_order_sample(result.trace, seed))
        assert _cert_bits(result.certificate) == _cert_bits(want)
        assert np.array_equal(result.certificate.sample.points[0], result.trace.final)
