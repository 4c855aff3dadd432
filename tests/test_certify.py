import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enrichedfp import (
    check_banach,
    check_enriched_bianchini,
    check_enriched_kannan,
    check_monotone,
    estimate_bianchini_constants,
    estimate_kannan_constants,
)
from enrichedfp.certify import (
    SampleSet,
    default_sample,
    distinct_sample,
    grid_sample,
    random_sample,
)
from enrichedfp.exceptions import DegenerateSampleError, InvalidConstantError
from enrichedfp.mappings import (
    AffineMap,
    AveragedMap,
    Mapping,
    PiecewiseTable,
    Reflection1D,
    Scale1D,
)


class TestSampleSet:
    def test_default_sample_composition(self, unit_sample):
        assert unit_sample.size == 201  # 101 grid + 100 random, no collisions
        assert unit_sample.dim == 1
        assert unit_sample.seed == 0
        grid = np.linspace(0.0, 1.0, 101)
        present = {float(p[0]) for p in unit_sample.points}
        assert all(g in present for g in grid)

    def test_distinct_sample_keeps_first_occurrences(self):
        pts = np.array([[0.5], [0.0], [0.5], [1.0], [0.0]])
        sample = distinct_sample(pts, "five pts", seed=3)
        assert sample.points.tolist() == [[0.5], [0.0], [1.0]]
        assert (sample.description, sample.seed) == ("five pts", 3)

    def test_distinct_sample_none_below_two_points(self):
        assert distinct_sample(np.array([[1.0], [1.0]]), "one pt", seed=None) is None

    def test_needs_two_points(self):
        with pytest.raises(InvalidConstantError):
            SampleSet(points=np.array([[1.0]]), description="single")

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidConstantError):
            SampleSet(points=np.array([[1.0], [1.0]]), description="dupe")

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidConstantError):
            SampleSet(points=np.array([[1.0], [np.inf]]), description="bad")

    def test_grid_sample_2d(self):
        s = grid_sample([(0.0, 1.0), (2.0, 3.0)], 5)
        assert s.size == 25

    def test_random_sample_reproducible(self):
        a = random_sample([(0.0, 1.0)], 50, seed=4)
        b = random_sample([(0.0, 1.0)], 50, seed=4)
        assert np.array_equal(a.points, b.points)

    def test_high_dim_falls_back_to_random(self):
        s = default_sample([(0.0, 1.0)] * 4, grid_points=101, random_points=100, seed=1)
        assert s.size == 2000

    def test_bad_bounds(self):
        with pytest.raises(InvalidConstantError):
            grid_sample([(1.0, 0.0)], 5)


class TestCheckKannan:
    def test_plain_rate_fails_on_isometry(self, reflection, unit_sample):
        cert = check_enriched_kannan(reflection, k=0.0, a=0.49, sample=unit_sample)
        assert cert.max_violation > 0.0
        assert not cert.satisfied
        # the canonical contradiction pair: lhs 0.5 against rhs 0.49 * (0 + 1)
        x, y = 0.5, 1.0
        lhs = abs(x - y)
        rhs = 0.49 * (abs(2 * x - 1) + abs(2 * y - 1))
        assert lhs - rhs == pytest.approx(0.01, abs=1e-15)
        # worst pair on this sample is (0, 1): violation 1 - 0.49 * 2
        assert cert.max_violation == pytest.approx(0.02, abs=1e-12)
        assert cert.witness is not None

    def test_enriched_pair_certifies(self, reflection, unit_sample):
        cert = check_enriched_kannan(reflection, k=0.5, a=0.25, sample=unit_sample)
        assert cert.max_violation <= 0.0
        assert cert.satisfied
        assert cert.class_tag == "enriched_kannan"

    def test_diagonal_pairs_never_witness(self, unit_sample):
        # a constant map satisfies every pair; the recorded witness is still
        # a pair of distinct points
        const = AffineMap(matrix=np.zeros((1, 1)), offset=np.array([0.3]))
        cert = check_enriched_kannan(const, k=0.0, a=0.0, sample=unit_sample)
        assert cert.satisfied
        x, y = cert.witness
        assert not np.array_equal(x, y)

    @pytest.mark.parametrize("k,a", [(-0.1, 0.25), (0.5, 0.5), (0.5, -0.01), (np.inf, 0.2)])
    def test_invalid_constants(self, reflection, unit_sample, k, a):
        with pytest.raises(InvalidConstantError):
            check_enriched_kannan(reflection, k=k, a=a, sample=unit_sample)

    def test_verdict_monotone_in_rate(self, reflection, unit_sample):
        base = check_enriched_kannan(reflection, k=0.5, a=0.25, sample=unit_sample)
        assert base.satisfied
        for a in (0.3, 0.4, 0.49):
            assert check_enriched_kannan(reflection, k=0.5, a=a, sample=unit_sample).satisfied

    @given(a=st.floats(min_value=0.26, max_value=0.4999))
    @settings(max_examples=25, deadline=None)
    def test_verdict_monotone_in_rate_property(self, a):
        sample = default_sample([(0.0, 1.0)], grid_points=21, random_points=20, seed=2)
        assert check_enriched_kannan(Reflection1D(), k=0.5, a=a, sample=sample).satisfied

    def test_sample_monotone_soundness(self, reflection):
        small = default_sample([(0.0, 1.0)], grid_points=21, random_points=0, seed=0)
        extra = np.concatenate([small.points, np.array([[0.313], [0.839]])])
        large = SampleSet(points=extra, description="enlarged", seed=0)
        v_small = check_enriched_kannan(reflection, 0.0, 0.49, small).max_violation
        v_large = check_enriched_kannan(reflection, 0.0, 0.49, large).max_violation
        assert v_large >= v_small

    def test_witness_deterministic(self, reflection, unit_sample):
        a = check_enriched_kannan(reflection, 0.0, 0.49, unit_sample)
        b = check_enriched_kannan(reflection, 0.0, 0.49, unit_sample)
        assert np.array_equal(a.witness[0], b.witness[0])
        assert np.array_equal(a.witness[1], b.witness[1])
        assert a.max_violation == b.max_violation


class TestCheckBianchini:
    def test_scale_third_certifies_at_half(self, scale_third, unit_sample):
        cert = check_enriched_bianchini(scale_third, k=0.0, h=0.5 + 1e-9, sample=unit_sample)
        assert cert.satisfied
        assert cert.class_tag == "bianchini"

    def test_reflection_implied_constants(self, reflection, unit_sample):
        # the displacement-sum property at (1-2a, a) transfers with doubled rate
        for a in (0.1, 0.25, 0.4):
            cert = check_enriched_bianchini(reflection, k=1.0 - 2.0 * a, h=2.0 * a, sample=unit_sample)
            assert cert.satisfied, f"a={a}: {cert}"

    def test_reflection_alternative_constants_split(self, reflection, unit_sample):
        # the (2(1-a), 2a) pairing holds only from a = 1/4 upward; below it the
        # straddling pairs genuinely violate. Both claims are checked, not chosen.
        ok = check_enriched_bianchini(reflection, k=2.0 * (1.0 - 0.25), h=0.5, sample=unit_sample)
        assert ok.satisfied
        ok2 = check_enriched_bianchini(reflection, k=2.0 * (1.0 - 0.4), h=0.8, sample=unit_sample)
        assert ok2.satisfied
        bad = check_enriched_bianchini(reflection, k=2.0 * (1.0 - 0.2), h=0.4, sample=unit_sample)
        assert not bad.satisfied
        assert bad.max_violation == pytest.approx(0.2, abs=1e-9)

    def test_invalid_rate(self, reflection, unit_sample):
        with pytest.raises(InvalidConstantError):
            check_enriched_bianchini(reflection, k=0.0, h=1.0, sample=unit_sample)


class TestCheckBanach:
    def test_scale_certifies_at_its_factor(self, unit_sample):
        cert = check_banach(Scale1D(c=0.5), c=0.5, sample=unit_sample)
        assert cert.satisfied
        assert cert.class_tag == "banach"

    def test_isometry_fails_every_rate(self, reflection, unit_sample):
        cert = check_banach(reflection, c=0.999, sample=unit_sample)
        assert not cert.satisfied


class TestEstimateKannan:
    def test_reflection_grid_closed_form(self, reflection, unit_sample):
        # minimal rate per k is |1 - k| / 2 on [0, 1]; the smallest over the
        # grid {0, 0.25, 0.5, 0.75} is therefore k = 0.75 with rate 1/8
        cert = estimate_kannan_constants(reflection, unit_sample, (0.0, 0.25, 0.5, 0.75))
        assert cert.k == 0.75
        assert cert.rate == pytest.approx(0.125, abs=1e-12)
        assert cert.feasible
        for k in (0.0, 0.25, 0.5, 0.75):
            single = estimate_kannan_constants(reflection, unit_sample, (k,))
            assert single.rate == pytest.approx(abs(1.0 - k) / 2.0, abs=1e-12)

    def test_reflection_unenriched_infeasible(self, reflection, unit_sample):
        cert = estimate_kannan_constants(reflection, unit_sample, (0.0,))
        assert not cert.feasible
        assert cert.rate >= 0.5
        x, y = cert.witness
        assert (x[0] - 0.5) * (y[0] - 0.5) <= 0.0  # witness straddles the fixed point

    def test_scale_third_separation(self, scale_third, unit_sample):
        kannan = estimate_kannan_constants(scale_third, unit_sample, (0.0,))
        assert not kannan.feasible
        assert kannan.rate >= 0.5
        bianchini = estimate_bianchini_constants(scale_third, unit_sample, (0.0,))
        assert bianchini.feasible
        assert bianchini.rate == pytest.approx(0.5, abs=1e-12)

    def test_constant_map_rate_zero(self, unit_sample):
        const = AffineMap(matrix=np.zeros((1, 1)), offset=np.array([0.3]))
        cert = estimate_kannan_constants(const, unit_sample, (0.0,))
        assert cert.rate == 0.0
        assert cert.feasible
        assert cert.class_tag == "kannan"

    def test_estimate_consistent_with_check(self, reflection, unit_sample):
        for k_grid in ((0.5,), (0.0, 0.25, 0.5, 0.75)):
            est = estimate_kannan_constants(reflection, unit_sample, k_grid)
            recheck = check_enriched_kannan(
                reflection, est.k, est.rate + 1e-12, unit_sample
            )
            assert recheck.satisfied

    def test_pre_averaged_map_is_plain_kannan(self, unit_sample):
        # averaging with the paired factor turns the enriched condition into
        # the plain one: the lam = 2/3 average of the reflection map has
        # minimal unenriched rate 1/4
        t = AveragedMap(inner=Reflection1D(), lam=2.0 / 3.0)
        cert = estimate_kannan_constants(t, unit_sample, (0.0,))
        assert cert.feasible
        assert cert.rate == pytest.approx(0.25, abs=1e-12)

    def test_tie_break_prefers_smaller_k(self):
        # a constant map estimates rate 0 for every k, so the smallest k wins
        pts = SampleSet(points=np.array([[0.0], [0.4], [1.0]]), description="3 pts")
        const = AffineMap(matrix=np.zeros((1, 1)), offset=np.array([0.3]))
        cert = estimate_kannan_constants(const, pts, (0.75, 0.5, 0.25))
        assert cert.k == 0.25

    def test_degenerate_sample(self):
        identity = AffineMap(matrix=np.eye(1), offset=np.zeros(1))
        pts = SampleSet(points=np.array([[0.1], [0.7]]), description="2 fixed pts")
        with pytest.raises(DegenerateSampleError):
            estimate_kannan_constants(identity, pts, (0.0,))

    def test_two_fixed_points_infeasible(self):
        # T(x, y) = (x, 0) fixes the whole first axis; a pair of its fixed
        # points has zero displacement but nonzero separation
        t = AffineMap(matrix=np.array([[1.0, 0.0], [0.0, 0.0]]), offset=np.zeros(2))
        pts = SampleSet(
            points=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]]),
            description="two fixed + one moving",
        )
        cert = estimate_kannan_constants(t, pts, (0.0, 1.0))
        assert not cert.feasible
        assert cert.rate == math.inf
        wx, wy = cert.witness
        assert {tuple(wx), tuple(wy)} == {(0.0, 0.0), (1.0, 0.0)}

    def test_empty_grid(self, reflection, unit_sample):
        with pytest.raises(InvalidConstantError):
            estimate_kannan_constants(reflection, unit_sample, ())

    def test_kannan_implies_bianchini_cross_check(self, unit_sample):
        # every passing displacement-sum certificate transfers to the doubled
        # max-displacement rate (asserted internally on each run, re-checked
        # here explicitly across the catalog)
        cases = [
            (Reflection1D(), 0.5, 0.25),
            (Scale1D(c=0.25, bounds=(0.0, 1.0)), 0.0, 1.0 / 3.0 + 1e-12),
            (
                PiecewiseTable(
                    breakpoints=np.array([0.0, 0.5, 1.0]),
                    slopes=np.array([0.25, 0.2]),
                    intercepts=np.array([0.0, 0.0]),
                ),
                0.0,
                1.0 / 3.0 + 1e-12,
            ),
        ]
        for mapping, k, a in cases:
            direct = check_enriched_kannan(mapping, k, a, unit_sample)
            assert direct.satisfied
            implied = check_enriched_bianchini(mapping, k, 2.0 * a, unit_sample)
            assert implied.satisfied


class TestCheckMonotone:
    @pytest.fixture
    def plane_sample(self):
        return default_sample([(-1.0, 1.0), (-1.0, 1.0)], grid_points=25, random_points=30, seed=5)

    def test_identity_strictly_monotone(self, plane_sample):
        cert = check_monotone(AffineMap(matrix=np.eye(2), offset=np.zeros(2)), plane_sample)
        assert cert.satisfied
        assert cert.max_violation < 0.0  # min inner product is strictly positive

    def test_negated_identity_fails(self, plane_sample):
        cert = check_monotone(AffineMap(matrix=-np.eye(2), offset=np.zeros(2)), plane_sample)
        assert not cert.satisfied

    def test_rotation_boundary_case(self, plane_sample):
        rot = AffineMap(matrix=np.array([[0.0, 1.0], [-1.0, 0.0]]), offset=np.zeros(2))
        cert = check_monotone(rot, plane_sample)
        assert cert.max_violation == 0.0
        assert cert.satisfied


class _ScaleWithHole(Mapping):
    """x -> 0.3 x on R^1, except that x = 0.5 maps to NaN."""

    @property
    def dim(self):
        return 1

    def _apply(self, point):
        return np.array([np.nan]) if point[0] == 0.5 else 0.3 * point


class TestNonFiniteImages:
    # one NaN image among 11 grid points: the finite pairs alone violate
    # (k=0, a=0.25) by 0.125, and the NaN pairs must not be dropped either

    @pytest.fixture
    def grid11(self):
        return grid_sample([(0.0, 1.0)], 11)

    def test_check_kannan_fails_closed(self, grid11):
        cert = check_enriched_kannan(_ScaleWithHole(), k=0.0, a=0.25, sample=grid11)
        assert not cert.satisfied
        assert cert.max_violation == math.inf
        assert [w[0] for w in cert.witness] == [0.0, 0.5]

    def test_estimate_kannan_refuses(self, grid11):
        cert = estimate_kannan_constants(_ScaleWithHole(), grid11)
        assert not cert.feasible
        assert not cert.satisfied
        assert [w[0] for w in cert.witness] == [0.0, 0.5]

    def test_check_monotone_fails_closed(self, grid11):
        cert = check_monotone(_ScaleWithHole(), grid11)
        assert not cert.satisfied
        assert cert.max_violation == math.inf
