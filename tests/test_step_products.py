"""The per-step products and checks of the solvers, pinned bit for bit.

Each step of the SFP and VIP operators, of ``power_iteration`` and of the
solver loop makes its products with one ``.dot`` on BLAS-ready arrays, its
norms as ``math.sqrt(v.dot(v))`` and its box projection as two ufunc calls.
The expressions they replaced are kept here as oracles. The value objects
keep copies of the caller's arrays, so that ``.dot`` sees a C- or F-ordered
matrix and a later write to the caller's array changes nothing.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enrichedfp import apps, certify, cli, convex, mappings, solve
from enrichedfp.apps import SfpInstance, VipInstance, power_iteration, sfp_operator
from enrichedfp.exceptions import DimensionMismatchError, InvalidConstantError
from enrichedfp.mappings import AffineMap, frozen_copy

# numpy reports floating-point overflow as a RuntimeWarning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

DIMS = st.integers(1, 64)
SEEDS = st.integers(0, 2**32 - 1)
LAYOUTS = ("C", "F", "transposed", "sliced")


def _matrix(rng, m, n, layout, scale=1.0):
    """An (m, n) matrix in ``layout``; a sliced one goes through ``frozen_copy``
    as the value objects store it."""
    if layout == "C":
        return scale * rng.standard_normal((m, n))
    if layout == "F":
        return np.asfortranarray(scale * rng.standard_normal((m, n)))
    if layout == "transposed":
        return (scale * rng.standard_normal((n, m))).T
    sliced = (scale * rng.standard_normal((2 * m, 2 * n)))[::2, ::2]
    assert m == n == 1 or not (sliced.flags.c_contiguous or sliced.flags.f_contiguous)
    return frozen_copy(sliced)


def _vector(rng, n, strided, scale=1.0):
    if strided:
        return scale * rng.standard_normal(2 * n)[::2]
    return scale * rng.standard_normal(n)


class TestDot:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        seed=SEEDS, m=DIMS, n=DIMS, layout=st.sampled_from(LAYOUTS), strided=st.booleans(),
        exponent=st.integers(-150, 150),
    )
    def test_matvec_is_matmul(self, seed, m, n, layout, strided, exponent):
        rng = np.random.default_rng(seed)
        matrix = _matrix(rng, m, n, layout, 10.0**exponent)
        x = _vector(rng, n, strided)
        assert matrix.dot(x).tobytes() == (matrix @ x).tobytes()
        # and the transposed product of the SFP gradient
        r = _vector(rng, m, strided)
        assert matrix.T.dot(r).tobytes() == (matrix.T @ r).tobytes()

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(seed=SEEDS, n=DIMS, strided=st.booleans(), exponent=st.integers(-150, 150))
    def test_vector_dot_is_matmul_and_norm(self, seed, n, strided, exponent):
        rng = np.random.default_rng(seed)
        a = _vector(rng, n, strided, 10.0**exponent)
        b = _vector(rng, n, strided)
        assert np.float64(a.dot(b)).tobytes() == np.float64(a @ b).tobytes()
        v = a - b  # a new, contiguous vector, as every norm of the steps takes
        assert math.sqrt(v.dot(v)) == float(np.linalg.norm(v))
        assert math.sqrt(v.dot(v)) == math.sqrt(v @ v)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_stacked_matvec_is_the_per_point_product(self, layout):
        rng = np.random.default_rng(5)
        for m, n in ((1, 1), (3, 7), (30, 30), (64, 17)):
            matrix = _matrix(rng, m, n, layout)
            points = rng.standard_normal((40, n))
            stacked = mappings.stacked_matvec(matrix, points)
            assert stacked.tobytes() == np.stack([matrix.dot(p) for p in points]).tobytes()
            normal = rng.standard_normal(n)
            stacked = mappings.stacked_dot(normal, points)
            assert stacked.tobytes() == np.array([normal.dot(p) for p in points]).tobytes()


# ``np.clip``'s signed zeros: ``x > lower ? x : lower``, then ``< upper``
SIGNED = st.sampled_from([-0.0, 0.0, -1.0, 1.0, 0.5, -0.5, 5e-324, -5e-324, 1e308, -1e308])


class TestBox:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(data=st.data(), d=DIMS, equal=st.booleans(), rows=st.integers(1, 5))
    def test_projection_is_clip(self, data, d, equal, rows):
        lo = np.array(data.draw(st.lists(SIGNED, min_size=d, max_size=d)))
        hi = np.array(data.draw(st.lists(SIGNED, min_size=d, max_size=d)))
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        if equal:
            # lower == upper, with either zero on either side
            hi = np.where(lo == 0.0, np.copysign(0.0, -np.copysign(1.0, lo)), lo)
        box = convex.Box(lower=lo, upper=hi)
        points = np.array(data.draw(st.lists(SIGNED, min_size=rows * d, max_size=rows * d))).reshape(rows, d)
        for point in points:
            assert box.project(point).tobytes() == np.clip(point, lo, hi).tobytes()
            strided = np.repeat(point, 2)[::2]
            assert box.project(strided).tobytes() == np.clip(strided, lo, hi).tobytes()
        # row by row: np.clip itself gives -0.0 on a (1, 1) array where it
        # gives 0.0 on the row (x = lower = -0.0, upper = 0.0)
        rowwise = np.stack([np.clip(p, lo, hi) for p in points])
        assert box._project_many(points).tobytes() == rowwise.tobytes()


def _ball_before(ball, point):
    """``Ball._project`` with the ``np.linalg.norm`` form."""
    with np.errstate(over="ignore"):
        offset = point - ball.center
        dist = float(np.linalg.norm(offset))
    if dist <= ball.radius:
        return point.copy()
    if dist == np.inf:
        return ball._project_many(point[None, :])[0]
    return ball.center + (ball.radius / dist) * offset


def _halfspace_before(plane, point):
    excess = float(plane.normal @ point) - plane.offset
    if excess <= 0.0:
        return point.copy()
    return point - (excess / float(plane.normal @ plane.normal)) * plane.normal


def _hyperplane_before(plane, point):
    shift = (float(plane.normal @ point) - plane.offset) / float(plane.normal @ plane.normal)
    return point - shift * plane.normal


class TestBallAndPlanes:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        seed=SEEDS, d=DIMS, center_exp=st.sampled_from([0, 100, 200, 307]),
        point_exp=st.sampled_from([-300, 0, 100, 160, 200, 307]),
    )
    def test_ball_is_the_norm_form(self, seed, d, center_exp, point_exp):
        # with huge entries the offset or its squared norm overflows: the
        # branch that scales by the largest entry, with no warning
        rng = np.random.default_rng(seed)
        ball = convex.Ball(center=rng.uniform(-9, 9, d) * 10.0**center_exp, radius=float(rng.uniform(0.1, 2)))
        points = rng.uniform(-9, 9, (4, d)) * 10.0**point_exp
        points[1] = ball.center + 0.5 * ball.radius * points[1] / np.max(np.abs(points[1]))  # inside
        points[2] = -ball.center
        for point in points:
            got = ball.project(point)
            assert got.tobytes() == _ball_before(ball, point).tobytes()
        assert ball._project_many(points).tobytes() == np.stack([ball.project(p) for p in points]).tobytes()

    def test_ball_overflow_branch_runs_without_a_warning(self):
        ball = convex.Ball(center=np.array([-1e308, 0.0]), radius=1.0)
        for point in (np.array([1e308, 0.0]), np.array([1e200, 1e200])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = ball.project(point)
            assert got.tobytes() == _ball_before(ball, point).tobytes()
            assert np.all(np.isfinite(got))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(seed=SEEDS, d=DIMS, exponent=st.integers(-100, 100), offset=st.floats(-10, 10))
    def test_planes_use_the_stored_squared_norm(self, seed, d, exponent, offset):
        rng = np.random.default_rng(seed)
        normal = rng.standard_normal(d) * 10.0**exponent
        points = rng.standard_normal((6, d)) * 3.0
        for cls, before in ((convex.Halfspace, _halfspace_before), (convex.Hyperplane, _hyperplane_before)):
            plane = cls(normal=normal, offset=offset)
            assert plane._sq_norm == float(plane.normal @ plane.normal)
            for point in points:
                assert plane.project(point).tobytes() == before(plane, point).tobytes()
            stacked = np.stack([plane.project(p) for p in points])
            assert plane._project_many(points).tobytes() == stacked.tobytes()

    def test_a_plane_whose_squared_norm_overflows_is_refused_without_a_warning(self):
        with pytest.raises(InvalidConstantError, match="squared norm in"):
            convex.Halfspace(normal=[1e200, 1.0], offset=0.0)


def _power_iteration_before(matrix, rel_tol=apps.POWER_REL_TOL, max_iter=apps.POWER_MAX_ITER):
    """``power_iteration`` with ``@`` and ``np.linalg.norm``."""
    b = np.asarray(matrix, dtype=np.float64)
    n = b.shape[0]
    x = np.ones(n) / np.sqrt(n)
    lam = 0.0
    stall = 0
    for it in range(1, max_iter + 1):
        y = b @ x
        norm_y = float(np.linalg.norm(y))
        if norm_y == 0.0:
            x = np.zeros(n)
            x[stall % n] = 1.0
            stall += 1
            continue
        x = y / norm_y
        bx = b @ x
        lam = float(x @ bx) / float(x @ x)
        residual = float(np.linalg.norm(bx - lam * x))
        if residual <= rel_tol * abs(lam):
            return lam, x, True, it
    return lam, x, False, max_iter


def _same_eigenpair(got, want):
    assert type(got[0]) is float and np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2:] == want[2:]


class TestPowerIteration:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(seed=SEEDS, d=DIMS, m=DIMS, transposed=st.booleans())
    def test_the_eigenpair_of_the_products_before(self, seed, d, m, transposed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, d))
        b = a.T @ a
        if transposed:
            b = b.T  # F-ordered
        _same_eigenpair(power_iteration(b, max_iter=400), _power_iteration_before(b, max_iter=400))

    @pytest.mark.parametrize("d", [2, 3, 8, 30])
    def test_the_nullspace_restart(self, d):
        # B maps the all-ones start to 0, and e_0 too when d > 2: the start
        # cycles through basis vectors
        v = np.zeros(d)
        v[1] = 1.0
        v[0] = -1.0 if d == 2 else 0.0
        b = np.outer(v, v)
        got = power_iteration(b)
        _same_eigenpair(got, _power_iteration_before(b))
        assert got[2] and got[0] > 0.0

    def test_the_zero_matrix_never_converges(self):
        _same_eigenpair(power_iteration(np.zeros((3, 3)), max_iter=7), _power_iteration_before(np.zeros((3, 3)), max_iter=7))


def _as_point_before(x):
    """``as_point`` with its earlier finiteness test, ``np.isfinite(arr).all()``."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        arr = np.atleast_1d(arr)
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionMismatchError(f"expected a 1-D point, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidConstantError(f"point has non-finite entries: {arr}")
    return arr


ENTRIES = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([np.nan, np.inf, -np.inf]))


class TestAsPoint:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        shape=st.sampled_from([(), (0,), (1,), (5,), (64,), (0, 3), (1, 4), (3, 2)]), data=st.data()
    )
    def test_the_errors_and_values_before(self, shape, data):
        size = int(np.prod(shape))
        arr = np.array(data.draw(st.lists(ENTRIES, min_size=size, max_size=size)), dtype=np.float64).reshape(shape)
        try:
            want = _as_point_before(arr)
        except Exception as error:
            with pytest.raises(type(error)) as got:
                mappings.as_point(arr)
            assert str(got.value) == str(error)
            return
        got = mappings.as_point(arr)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert (got is arr) == (want is arr)


class TestStepNorms:
    def test_solver_steps_are_the_matmul_norm(self):
        rng = np.random.default_rng(4)
        d = 12
        g = AffineMap(matrix=0.9 * np.linalg.qr(rng.standard_normal((d, d)))[0], offset=rng.standard_normal(d))
        trace = solve.krasnoselskij(g, np.zeros(d), solve.SolveConfig(lam=0.5, tol=1e-12, max_iter=200))
        for n, step in enumerate(trace.step_norms):
            dx = trace.iterates[n + 1] - trace.iterates[n]
            assert step == math.sqrt(dx @ dx)

    def test_bench_counts_with_the_norm_form(self):
        g = AffineMap(matrix=np.array([[0.2, -0.7], [0.7, 0.2]]), offset=np.array([1.0, -0.5]))
        reference = np.linalg.solve(np.eye(2) - g.matrix, g.offset)
        x0 = np.array([3.0, 3.0])

        def before(lam, tol, max_iter):
            x = x0
            if float(np.linalg.norm(x - reference)) <= tol:
                return 0, True
            for n in range(1, max_iter + 1):
                x = (1.0 - lam) * x + lam * g.apply(x)
                if float(np.linalg.norm(x - reference)) <= tol:
                    return n, True
            return max_iter, False

        for lam in (0.1, 0.5, 1.0):
            for tol in (1e-3, 1e-12, 1e-300):
                assert cli._iterations_to_tol(g, x0, lam, reference, tol, 300) == before(lam, tol, 300)


class TestValueObjectsCopy:
    """The value objects copy the caller's arrays: later writes to them change
    nothing, and the caller's arrays stay writable."""

    def test_affine_map(self):
        base = np.array([[0.5, 0.1, 9.0], [0.2, 0.3, 9.0]])
        offset = np.array([1.0, 2.0])
        f = AffineMap(matrix=base[:, :2], offset=offset)
        before = f.apply([1.0, 1.0])
        base[0, 0] = 5.0
        offset[1] = -7.0
        assert f.apply([1.0, 1.0]).tobytes() == before.tobytes()
        assert base.flags.writeable and offset.flags.writeable
        assert not (f.matrix.flags.writeable or f.offset.flags.writeable)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_a_contiguous_matrix_keeps_its_layout(self, order):
        matrix = np.asarray(np.arange(9.0).reshape(3, 3), order=order)
        f = AffineMap(matrix=matrix, offset=np.zeros(3))
        assert f.matrix is not matrix
        assert f.matrix.flags.c_contiguous == (order == "C")
        assert f.matrix.flags.f_contiguous == (order == "F")

    def test_a_sliced_matrix_is_copied_c_ordered(self):
        base = np.arange(36.0).reshape(6, 6)
        f = AffineMap(matrix=base[::2, 1:4], offset=np.zeros(3))
        assert f.matrix.flags.c_contiguous
        assert np.array_equal(f.matrix, base[::2, 1:4])

    @pytest.mark.parametrize("d", [1, 3, 17, 30, 64])
    def test_apply_is_apply_many_on_a_sliced_matrix(self, d):
        rng = np.random.default_rng(d)
        base = rng.standard_normal((3 * d, 2 * d + 1))
        f = AffineMap(matrix=base[::3, 1::2], offset=rng.standard_normal(d))
        points = rng.standard_normal((25, d))
        assert f.apply_many(points).tobytes() == np.stack([f.apply(p) for p in points]).tobytes()

    def test_piecewise_table(self):
        breakpoints = np.array([0.0, 0.5, 1.0])
        table = mappings.PiecewiseTable(breakpoints=breakpoints[:], slopes=[0.5, 0.5], intercepts=[0.25, 0.0])
        before = table.apply([0.75])
        breakpoints[1] = 0.9
        assert table.apply([0.75]).tobytes() == before.tobytes()
        assert breakpoints.flags.writeable and not table.breakpoints.flags.writeable

    def test_box_ball_and_planes(self):
        bounds = np.array([[-1.0, 1.0], [-2.0, 2.0]])
        box = convex.Box(lower=bounds[:, 0], upper=bounds[:, 1])
        center = np.array([0.0, 0.0])
        ball = convex.Ball(center=center, radius=1.0)
        normal = np.array([1.0, 1.0])
        plane = convex.Hyperplane(normal=normal, offset=1.0)
        point = np.array([3.0, -3.0])
        want = [box.project(point), ball.project(point), plane.project(point)]
        bounds[:] = 0.0
        center[:] = 9.0
        normal[:] = 4.0
        assert [s.project(point).tobytes() for s in (box, ball, plane)] == [w.tobytes() for w in want]
        assert bounds.flags.writeable and center.flags.writeable and normal.flags.writeable

    def test_sfp_instance(self):
        matrix = np.array([[1.0, 0.5], [0.0, 2.0]])
        inst = SfpInstance(
            c_set=convex.Box(lower=-np.ones(2), upper=np.ones(2)),
            q_set=convex.Ball(center=np.zeros(2), radius=0.5),
            matrix=matrix,
        )
        op = sfp_operator(inst)
        before = op.apply([1.0, 1.0])
        matrix[:] = 0.0
        assert op.apply([1.0, 1.0]).tobytes() == before.tobytes()
        assert matrix.flags.writeable and not inst.matrix.flags.writeable

    def test_sample_set_keeps_its_distinct_rows(self):
        base = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        sample = certify.SampleSet(points=base[:, :], description="view")
        base[1] = base[0]  # would duplicate a row of a sample that aliased base
        assert np.array_equal(sample.points[1], [1.0, 0.0])
        assert sample.rank.tolist() == [0, 1, 2]
        assert base.flags.writeable and not sample.points.flags.writeable

    def test_vip_instance_reads_its_operator_copy(self):
        matrix = np.eye(2)
        g = AffineMap(matrix=matrix, offset=np.zeros(2))
        inst = VipInstance(c_set=convex.Box(lower=-np.ones(2), upper=np.ones(2)), operator=g, gamma=0.5)
        op = apps.vip_operator(inst)
        before = op.apply([0.5, 0.5])
        matrix[0, 0] = 3.0
        assert op.apply([0.5, 0.5]).tobytes() == before.tobytes()
