import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enrichedfp.convex import (
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    contains,
    distance,
    project,
    sample_points,
)
from enrichedfp.convex import _sampling_window
from enrichedfp.exceptions import DimensionMismatchError, InvalidConstantError


def set_variants():
    return [
        Box(lower=np.array([0.0, 0.0]), upper=np.array([1.0, 1.0])),
        Ball(center=np.zeros(2), radius=1.0),
        Halfspace(normal=np.array([1.0, 0.0]), offset=0.0),
        Hyperplane(normal=np.array([1.0, 1.0]), offset=1.0),
    ]


class TestProjectExamples:
    def test_box_clamp(self):
        box = Box(lower=np.zeros(2), upper=np.ones(2))
        assert np.array_equal(project(box, [2.0, -1.0]), [1.0, 0.0])

    def test_ball_radial(self):
        ball = Ball(center=np.zeros(2), radius=1.0)
        assert np.allclose(project(ball, [3.0, 4.0]), [0.6, 0.8], atol=1e-16)

    def test_halfspace(self):
        hs = Halfspace(normal=np.array([1.0, 0.0]), offset=0.0)
        assert np.array_equal(project(hs, [2.0, 5.0]), [0.0, 5.0])

    def test_hyperplane(self):
        hp = Hyperplane(normal=np.array([1.0, 1.0]), offset=1.0)
        q = project(hp, [1.0, 1.0])
        assert np.allclose(q, [0.5, 0.5], atol=1e-15)

    def test_interior_points_fixed(self):
        box = Box(lower=np.zeros(2), upper=np.ones(2))
        assert np.array_equal(project(box, [0.5, 0.25]), [0.5, 0.25])


class TestContains:
    def test_box_member(self):
        box = Box(lower=np.zeros(2), upper=np.ones(2))
        assert contains(box, [0.5, 0.5], tol=0.0)

    def test_ball_with_slack(self):
        ball = Ball(center=np.zeros(2), radius=1.0)
        assert contains(ball, [1.0 + 1e-6, 0.0], tol=1e-3)
        assert not contains(ball, [1.0 + 1e-6, 0.0], tol=1e-9)

    def test_hyperplane_distance(self):
        hp = Hyperplane(normal=np.array([1.0, 1.0]), offset=1.0)
        assert not contains(hp, [1.0, 1.0], tol=1e-9)
        assert distance(hp, [1.0, 1.0]) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)

    def test_negative_tol_rejected(self):
        with pytest.raises(InvalidConstantError):
            contains(Box(lower=np.zeros(1), upper=np.ones(1)), [0.5], tol=-1.0)

    @pytest.mark.parametrize("convex_set, expected", [
        (Ball(center=np.zeros(2), radius=1.0), np.sqrt(2.0) * 1e200),
        (Box(lower=np.zeros(2), upper=np.ones(2)), np.sqrt(2.0) * 1e200),
        (Halfspace(normal=np.array([1.0, 0.0]), offset=0.0), 1e200),
        (Hyperplane(normal=np.array([1.0, 1.0]), offset=1.0), np.sqrt(2.0) * 1e200),
    ], ids=["ball", "box", "halfspace", "hyperplane"])
    def test_a_distance_whose_squared_norm_overflows(self, convex_set, expected):
        # ||x - Px||^2 is about 2e400, yet the distance itself is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert distance(convex_set, [1e200, 1e200]) == pytest.approx(expected, rel=1e-15)
            assert contains(convex_set, [1e200, 1e200], tol=1e300)
            assert not contains(convex_set, [1e200, 1e200], tol=1e199)

    def test_ordinary_distances_keep_their_bits(self):
        rng = np.random.default_rng(5)
        for convex_set in set_variants():
            for point in rng.uniform(-1e150, 1e150, size=(20, 2)) * rng.uniform(0.0, 1.0, size=(20, 1)):
                plain = float(np.linalg.norm(point - project(convex_set, point)))
                assert np.float64(distance(convex_set, point)).tobytes() == np.float64(plain).tobytes()


class TestProjectionAxioms:
    N_TRIALS = 1000

    @pytest.mark.parametrize("cs", set_variants(), ids=lambda s: type(s).__name__)
    def test_idempotence(self, cs):
        rng = np.random.default_rng(11)
        for x in rng.uniform(-4.0, 4.0, size=(self.N_TRIALS, cs.dim)):
            px = project(cs, x)
            assert float(np.linalg.norm(project(cs, px) - px)) <= 1e-12

    @pytest.mark.parametrize("cs", set_variants(), ids=lambda s: type(s).__name__)
    def test_nonexpansiveness(self, cs):
        rng = np.random.default_rng(12)
        xs = rng.uniform(-4.0, 4.0, size=(self.N_TRIALS, cs.dim))
        ys = rng.uniform(-4.0, 4.0, size=(self.N_TRIALS, cs.dim))
        for x, y in zip(xs, ys):
            lhs = float(np.linalg.norm(project(cs, x) - project(cs, y)))
            assert lhs <= float(np.linalg.norm(x - y)) + 1e-12

    @pytest.mark.parametrize("cs", set_variants(), ids=lambda s: type(s).__name__)
    def test_variational_characterization(self, cs):
        rng = np.random.default_rng(13)
        zs = sample_points(cs, 100, seed=13)
        for x in rng.uniform(-4.0, 4.0, size=(self.N_TRIALS, cs.dim)):
            px = project(cs, x)
            inner = (zs - px) @ (x - px)
            assert float(inner.max()) <= 1e-10

    @pytest.mark.parametrize("cs", set_variants(), ids=lambda s: type(s).__name__)
    def test_members_are_fixed(self, cs):
        zs = sample_points(cs, 200, seed=14)
        for z in zs:
            assert float(np.linalg.norm(project(cs, z) - z)) <= 1e-12

    @given(
        x=st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=2),
        y=st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=2),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonexpansiveness_property(self, x, y):
        ball = Ball(center=np.zeros(2), radius=1.0)
        lhs = float(np.linalg.norm(project(ball, x) - project(ball, y)))
        assert lhs <= float(np.linalg.norm(np.subtract(x, y))) + 1e-12


class TestSampling:
    @pytest.mark.parametrize("cs", set_variants(), ids=lambda s: type(s).__name__)
    def test_samples_inside(self, cs):
        zs = sample_points(cs, 100, seed=3)
        assert zs.shape == (100, cs.dim)
        for z in zs:
            assert distance(cs, z) <= 1e-9

    def test_reproducible(self):
        ball = Ball(center=np.zeros(2), radius=1.0)
        assert np.array_equal(sample_points(ball, 50, seed=5), sample_points(ball, 50, seed=5))

    def test_degenerate_box(self):
        point_box = Box(lower=np.zeros(1), upper=np.zeros(1))
        zs = sample_points(point_box, 10, seed=0)
        assert np.all(zs == 0.0)

    @pytest.mark.parametrize("cs", set_variants(), ids=lambda s: type(s).__name__)
    def test_a_negative_seed_is_refused(self, cs):
        # numpy's generator would raise an untyped ValueError
        with pytest.raises(InvalidConstantError, match=r"^seed must be >= 0, got -1$"):
            sample_points(cs, 10, seed=-1)


def _sample_points_loop(convex_set, n, seed):
    """The reference for ``sample_points``: the same draws, one ``project``
    or ``contains`` call per candidate."""
    rng = np.random.default_rng(seed)
    lo, hi = _sampling_window(convex_set)
    dim = convex_set.dim
    if isinstance(convex_set, Hyperplane):
        raw = lo + rng.uniform(size=(n, dim)) * (hi - lo)
        return np.stack([convex_set.project(z) for z in raw])
    out = []
    for _ in range(1000):
        raw = lo + rng.uniform(size=(4 * n, dim)) * (hi - lo)
        for z in raw:
            if contains(convex_set, z, 0.0):
                out.append(z)
                if len(out) == n:
                    return np.stack(out)
    raise InvalidConstantError(f"rejection sampling failed to fill {n} points for {type(convex_set).__name__}")


class TestBatchedSampling:
    @pytest.mark.parametrize("d", range(1, 11))
    @pytest.mark.parametrize("kind", ["ball", "halfspace", "hyperplane"])
    def test_matches_the_per_point_loop(self, kind, d):
        cs = _sets_around_the_origin(d, np.random.default_rng(100 + d))[kind]
        for n in (1, 7, 100):
            got = sample_points(cs, n, seed=d + n)
            assert got.shape == (n, d)
            assert got.tobytes() == _sample_points_loop(cs, n, d + n).tobytes()

    def test_a_12d_ball_fills_its_sample(self):
        ball = Ball(center=np.zeros(12), radius=1.0)
        zs = sample_points(ball, 200, seed=1)
        # the per-point loop takes about 14 s here, so only membership is checked
        assert zs.shape == (200, 12) and all(contains(ball, z) for z in zs)

    def test_a_ball_the_window_rounds_miss_is_drawn_directly(self):
        # a 30-D ball fills about 2e-14 of its bounding box: the 1000 window
        # rounds of 4 candidates miss it, and the direct draws fill it
        ball = Ball(center=np.zeros(30), radius=1.0)
        with pytest.raises(InvalidConstantError, match="failed to fill 1 points for Ball"):
            _sample_points_loop(ball, 1, 0)
        zs = sample_points(ball, 1, 0)
        assert zs.shape == (1, 30) and contains(ball, zs[0])

    @pytest.mark.parametrize("d", [13, 20, 30])
    def test_a_high_dimensional_ball_fills_its_sample(self, d):
        ball = Ball(center=np.linspace(-1.0, 2.0, d), radius=0.5)
        zs = sample_points(ball, 200, seed=1)
        assert zs.shape == (200, d) and all(contains(ball, z) for z in zs)
        assert len(np.unique(zs, axis=0)) == 200
        assert np.array_equal(zs, sample_points(ball, 200, seed=1))


class TestValidation:
    def test_box_ordering(self):
        with pytest.raises(InvalidConstantError):
            Box(lower=np.array([1.0]), upper=np.array([0.0]))

    def test_ball_radius(self):
        with pytest.raises(InvalidConstantError):
            Ball(center=np.zeros(2), radius=0.0)

    def test_zero_normal(self):
        with pytest.raises(InvalidConstantError):
            Halfspace(normal=np.zeros(2), offset=1.0)
        with pytest.raises(InvalidConstantError):
            Hyperplane(normal=np.zeros(2), offset=1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            project(Box(lower=np.zeros(2), upper=np.ones(2)), [1.0])

    @pytest.mark.parametrize("kind", [Halfspace, Hyperplane])
    def test_plane_messages_name_the_set(self, kind):
        name = kind.__name__.lower()
        with pytest.raises(InvalidConstantError, match=rf"^{name} normal must have a squared norm in \(0, inf\), got 0.0 for \[0.0, 0.0\]$"):
            kind(normal=np.zeros(2), offset=1.0)
        with pytest.raises(InvalidConstantError, match=f"^{name} offset must be finite$"):
            kind(normal=np.ones(2), offset=np.nan)
        with pytest.raises(InvalidConstantError, match="^normal must be a finite vector$"):
            kind(normal=[1.0, np.inf], offset=0.0)
        cs = kind(normal=[3.0, 4.0], offset=1.0)
        assert cs.dim == 2 and not cs.normal.flags.writeable
        assert repr(cs).startswith(f"{kind.__name__}(normal=array([3., 4.]), offset=1.0)")


# --- _project_many: project at each row, bit for bit ---------------------------


def _sets_around_the_origin(d, rng):
    normal = rng.standard_normal(d)
    return {
        "box": Box(lower=-np.ones(d), upper=np.ones(d)),
        "ball": Ball(center=0.5 * rng.standard_normal(d), radius=2.0 * np.sqrt(d)),
        "halfspace": Halfspace(normal=normal, offset=0.3),
        "hyperplane": Hyperplane(normal=normal, offset=-0.7),
    }


class TestProjectMany:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 17, 30])
    @pytest.mark.parametrize("kind", ["box", "ball", "halfspace", "hyperplane"])
    def test_matches_project_row_by_row(self, kind, d):
        rng = np.random.default_rng(d)
        cs = _sets_around_the_origin(d, rng)[kind]
        pts = rng.standard_normal((300, d)) * np.repeat([0.2, 4.0], 150)[:, None]
        got = cs._project_many(pts)
        assert got.tobytes() == np.stack([cs.project(p) for p in pts]).tobytes()
        inside = np.array([contains(cs, p) for p in pts])
        if kind != "hyperplane":  # points on both sides: moved and kept rows
            assert inside.any() and not inside.all()

    @pytest.mark.parametrize("cs", set_variants(), ids=lambda cs: type(cs).__name__)
    def test_members_and_boundary_points(self, cs):
        pts = np.concatenate([sample_points(cs, 40, seed=2), [project(cs, [3.0, -2.0])]])
        assert cs._project_many(pts).tobytes() == np.stack([cs.project(p) for p in pts]).tobytes()

    @pytest.mark.parametrize("kind", [Halfspace, Hyperplane])
    def test_an_underflowing_normal_raises_what_project_raises(self, kind):
        # the squared norm of the normal, which both projections divide by,
        # underflows to 0: the set is refused where it is built, so neither
        # projection is ever reached
        with pytest.raises(InvalidConstantError, match=r"squared norm in \(0, inf\), got 0.0"):
            kind(normal=np.array([1e-170, 0.0]), offset=0.0)

    @pytest.mark.parametrize("kind", [Halfspace, Hyperplane])
    def test_an_overflowing_normal_is_refused(self, kind):
        # normal @ normal is inf: the projections would divide the excess by it
        # and leave every point where it is
        with pytest.raises(InvalidConstantError, match=r"squared norm in \(0, inf\), got inf"):
            kind(normal=np.array([1e200, 0.0]), offset=0.0)
        kind(normal=np.array([1e150, 0.0]), offset=0.0)  # 1e300 is still finite

    @pytest.mark.parametrize("center", [[0.0, 0.0], [1.0, -2.0]])
    def test_a_ball_projects_points_whose_offset_norm_overflows(self, center):
        # ||x - c|| overflows above about 1.3e154; the projection scales the
        # offset by its largest entry there, and keeps every other row's bits
        ball = Ball(center=np.array(center), radius=0.5)
        got = ball.project([1e200, 1e200])
        assert np.allclose(got, np.array(center) + 0.5 * np.sqrt(0.5), rtol=0.0, atol=1e-15)
        pts = np.array([[1e200, 1e200], [-1.7e308, 1.7e308], [1e155, -3e154], [1.2, -2.1], [3.0, 4.0]])
        many = ball._project_many(pts)
        assert many.tobytes() == np.stack([ball.project(p) for p in pts]).tobytes()
        assert np.allclose(np.linalg.norm(many[:3] - ball.center, axis=1), 0.5, rtol=1e-15)
        far = pts[4] - ball.center
        assert many[4].tobytes() == (ball.center + (0.5 / np.linalg.norm(far)) * far).tobytes()
