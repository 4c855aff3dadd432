import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enrichedfp import apply, averaged, norm_dist
from enrichedfp.exceptions import (
    DimensionMismatchError,
    InvalidConstantError,
    OutOfDomainError,
)
from enrichedfp.mappings import (
    DOMAIN_ATOL,
    AffineMap,
    AveragedMap,
    Mapping,
    PiecewiseTable,
    Reflection1D,
    Scale1D,
)


def catalog_maps():
    return [
        Reflection1D(),
        Scale1D(c=1.0 / 3.0, bounds=(0.0, 1.0)),
        Scale1D(c=0.5),
        AffineMap(matrix=np.array([[0.15, 0.1], [-0.1, 0.15]]), offset=np.array([0.05, -0.1])),
        AveragedMap(inner=Reflection1D(), lam=2.0 / 3.0),
        PiecewiseTable(
            breakpoints=np.array([0.0, 0.5, 1.0]),
            slopes=np.array([0.25, 0.2]),
            intercepts=np.array([0.0, 0.0]),
        ),
    ]


class TestApply:
    def test_reflection(self):
        assert apply(Reflection1D(), 0.2)[0] == 0.8

    def test_affine(self):
        t = AffineMap(matrix=np.array([[0.5]]), offset=np.array([0.25]))
        assert apply(t, 1.0)[0] == 0.75

    def test_averaging_preserves_fixed_point(self):
        t = averaged(Reflection1D(), 2.0 / 3.0)
        assert apply(t, 0.5)[0] == 0.5

    def test_deterministic(self):
        t = AffineMap(matrix=np.array([[0.3, 0.7], [0.1, -0.2]]), offset=np.array([1.0, -2.0]))
        x = np.array([0.123456789, -0.987654321])
        first = apply(t, x)
        for _ in range(5):
            assert np.array_equal(apply(t, x), first)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply(Reflection1D(), [0.1, 0.2])

    @pytest.mark.parametrize("x", [-0.1, 1.5])
    def test_domain_rejection(self, x):
        with pytest.raises(OutOfDomainError):
            apply(Reflection1D(), x)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidConstantError):
            apply(Reflection1D(), np.nan)


class TestAveraged:
    def test_lambda_one_is_identity_transform(self):
        t = averaged(Reflection1D(), 1.0)
        for x in np.linspace(0.0, 1.0, 37):
            assert apply(t, x)[0] == apply(Reflection1D(), x)[0]

    def test_two_thirds_closed_form(self):
        # (1 - lam) x + lam (1 - x) = 2/3 - x/3 for lam = 2/3
        t = averaged(Reflection1D(), 2.0 / 3.0)
        assert apply(t, 0.0)[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        for x in np.linspace(0.0, 1.0, 21):
            assert apply(t, x)[0] == pytest.approx(2.0 / 3.0 - x / 3.0, abs=1e-15)

    def test_scale_composition(self):
        t = averaged(Scale1D(c=0.5), 0.5)
        assert apply(t, 1.0)[0] == 0.75

    @pytest.mark.parametrize("lam", [0.0, -0.2, 1.0001])
    def test_invalid_lambda(self, lam):
        with pytest.raises(InvalidConstantError):
            averaged(Reflection1D(), lam)

    def test_nested_averaging(self):
        inner = averaged(Reflection1D(), 0.5)
        outer = averaged(inner, 0.5)
        x = 0.3
        expected = 0.5 * x + 0.5 * (0.5 * x + 0.5 * (1.0 - x))
        assert apply(outer, x)[0] == pytest.approx(expected, abs=1e-16)

    def test_averaging_identity_seeded_triples(self):
        # apply(averaged(T, lam), x) must equal (1-lam) x + lam T(x) bitwise
        rng = np.random.default_rng(7)
        maps = catalog_maps()
        for _ in range(1000):
            t = maps[rng.integers(len(maps))]
            lam = float(rng.uniform(1e-6, 1.0))
            box = t.domain
            if box is None:
                x = rng.uniform(-1.0, 1.0, size=t.dim)
            else:
                lo, hi = box
                x = lo + rng.uniform(size=t.dim) * (hi - lo)
            lhs = apply(averaged(t, lam), x)
            rhs = (1.0 - lam) * x + lam * apply(t, x)
            assert np.array_equal(lhs, rhs)

    def test_fixed_point_preservation_both_ways(self):
        # points fixed by T stay fixed under averaging and conversely
        cases = [
            (Reflection1D(), np.array([0.5])),
            (Scale1D(c=1.0 / 3.0, bounds=(0.0, 1.0)), np.array([0.0])),
            (
                AffineMap(
                    matrix=np.array([[0.15, 0.1], [-0.1, 0.15]]),
                    offset=np.array([0.05, -0.1]),
                ),
                np.linalg.solve(
                    np.eye(2) - np.array([[0.15, 0.1], [-0.1, 0.15]]),
                    np.array([0.05, -0.1]),
                ),
            ),
        ]
        for t, p in cases:
            assert norm_dist(apply(t, p), p) <= 1e-12
            for lam in (0.1, 0.25, 0.5, 0.75, 1.0):
                t_lam = averaged(t, lam)
                assert norm_dist(apply(t_lam, p), p) <= 1e-12
                # conversely: a fixed point of the averaged map is fixed for T
                assert norm_dist(apply(t, p), p) <= norm_dist(apply(t_lam, p), p) / lam + 1e-15


class TestNormDist:
    def test_pythagoras(self):
        assert norm_dist([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_identity(self):
        x = np.array([0.1, -2.3, 4.5])
        assert norm_dist(x, x) == 0.0

    def test_one_dimensional(self):
        assert norm_dist(1.0, 0.5) == 0.5

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x, y = rng.normal(size=4), rng.normal(size=4)
            assert norm_dist(x, y) == norm_dist(y, x) >= 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            norm_dist([1.0], [1.0, 2.0])


class TestPiecewiseTable:
    @pytest.fixture
    def jump(self):
        return PiecewiseTable(
            breakpoints=np.array([0.0, 0.5, 1.0]),
            slopes=np.array([0.25, 0.2]),
            intercepts=np.array([0.0, 0.0]),
        )

    def test_right_continuity_at_breakpoint(self, jump):
        # the piece to the right applies at the breakpoint itself
        assert apply(jump, 0.5)[0] == 0.1
        assert apply(jump, np.nextafter(0.5, 0.0))[0] == pytest.approx(0.125, rel=1e-12)

    def test_last_breakpoint_covered(self, jump):
        assert apply(jump, 1.0)[0] == 0.2

    def test_domain(self, jump):
        lo, hi = jump.domain
        assert lo[0] == 0.0 and hi[0] == 1.0
        with pytest.raises(OutOfDomainError):
            apply(jump, 1.2)

    def test_breakpoints_must_increase(self):
        with pytest.raises(InvalidConstantError):
            PiecewiseTable(
                breakpoints=np.array([0.0, 0.5, 0.5]),
                slopes=np.array([0.1, 0.1]),
                intercepts=np.array([0.0, 0.0]),
            )

    def test_pieces_must_map_into_span(self):
        with pytest.raises(InvalidConstantError):
            PiecewiseTable(
                breakpoints=np.array([0.0, 1.0]),
                slopes=np.array([2.0]),
                intercepts=np.array([0.5]),
            )


class TestValidation:
    def test_affine_shape_checks(self):
        with pytest.raises(DimensionMismatchError):
            AffineMap(matrix=np.zeros((2, 3)), offset=np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            AffineMap(matrix=np.eye(2), offset=np.zeros(3))

    def test_scale_bounds(self):
        with pytest.raises(InvalidConstantError):
            Scale1D(c=0.5, bounds=(1.0, 0.0))

    def test_mappings_immutable(self):
        t = AffineMap(matrix=np.eye(2), offset=np.zeros(2))
        with pytest.raises(ValueError):
            t.matrix[0, 0] = 5.0


# --- apply_many: the per-point loop in one call, bit for bit -----------------


def _loop(mapping, points):
    return np.stack([mapping.apply(p) for p in points])


def _same_as_loop(mapping, points):
    got, want = mapping.apply_many(points), _loop(mapping, points)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class _Halve(Mapping):
    """x -> x / 2 on R^2, with no batched form."""

    @property
    def dim(self):
        return 2

    def _apply(self, point):
        return 0.5 * point


class TestApplyMany:
    def test_reflection(self):
        _same_as_loop(Reflection1D(), np.linspace(0.0, 1.0, 37)[:, None])

    @pytest.mark.parametrize("bounds", [None, (-2.0, 3.0)])
    def test_scale(self, bounds):
        _same_as_loop(Scale1D(c=-0.7, bounds=bounds), np.linspace(-2.0, 3.0, 41)[:, None])

    def test_piecewise_table_on_and_between_breakpoints(self):
        table = PiecewiseTable(
            breakpoints=np.array([0.0, 0.3, 0.5, 1.0]),
            slopes=np.array([0.5, -0.4, 0.2]),
            intercepts=np.array([0.1, 0.6, 0.3]),
        )
        b = table.breakpoints
        pts = np.concatenate([
            b,  # each breakpoint, the right end included
            np.nextafter(b, -np.inf),
            np.linspace(0.0, 1.0, 29),
            [-0.5 * DOMAIN_ATOL, 1.0 + 0.5 * DOMAIN_ATOL],  # clipped to the end pieces
        ])
        _same_as_loop(table, pts[:, None])

    @given(d=st.integers(1, 30), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_affine(self, d, n, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-3, 4)
        mapping = AffineMap(matrix=rng.standard_normal((d, d)), offset=scale * rng.standard_normal(d))
        _same_as_loop(mapping, scale * rng.standard_normal((n, d)))

    def test_averaged(self):
        rng = np.random.default_rng(7)
        affine = AffineMap(matrix=rng.standard_normal((3, 3)), offset=rng.standard_normal(3))
        _same_as_loop(AveragedMap(inner=affine, lam=0.37), rng.standard_normal((50, 3)))
        nested = AveragedMap(inner=AveragedMap(inner=Reflection1D(), lam=0.5), lam=2.0 / 3.0)
        _same_as_loop(nested, rng.uniform(0.0, 1.0, size=(50, 1)))

    def test_without_a_batched_form(self):
        pts = np.random.default_rng(8).standard_normal((20, 2))
        _same_as_loop(_Halve(), pts)
        _same_as_loop(AveragedMap(inner=_Halve(), lam=0.25), pts)

    def test_a_1d_array_is_one_point_per_entry(self):
        # as in the loop, each entry of a 1-D array is a point of R^1
        _same_as_loop(Scale1D(c=0.5), np.array([0.25, 0.5]))

    @pytest.mark.parametrize("mapping, points", [
        (Reflection1D(), [[0.5], [1.5], [-0.2]]),
        (AveragedMap(inner=Scale1D(c=0.5, bounds=(0.0, 1.0)), lam=0.5), [[0.2], [0.3], [2.0]]),
        (AffineMap(matrix=np.eye(2), offset=np.zeros(2)), np.zeros((3, 3))),
        (Scale1D(c=0.5), [[1.0], [np.inf]]),
    ], ids=["outside the domain", "averaged, outside the domain", "wrong dimension", "non-finite"])
    def test_rejected_rows_raise_what_the_loop_raises(self, mapping, points):
        pts = np.asarray(points, dtype=np.float64)
        with pytest.raises(Exception) as loop_error:
            _loop(mapping, pts)
        with pytest.raises(Exception) as batch_error:
            mapping.apply_many(pts)
        assert type(batch_error.value) is type(loop_error.value)
        assert str(batch_error.value) == str(loop_error.value)
