import math
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enrichedfp import (
    _kernels,
    apps,
    certify,
    check_banach,
    check_enriched_bianchini,
    check_enriched_kannan,
    check_monotone,
    cli,
    convex,
    estimate_bianchini_constants,
    estimate_kannan_constants,
    solve,
)
from enrichedfp.certify import (
    SampleSet,
    default_sample,
    distinct_sample,
    grid_sample,
    random_sample,
)
from enrichedfp._kernels import MODE_BIANCHINI, MODE_KANNAN
from enrichedfp.exceptions import DegenerateSampleError, EnrichedFPError, InvalidConstantError
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

    def test_distinct_sample_keeps_the_first_signed_zero(self):
        # -0.0 and 0.0 compare equal, so the first of the two rows stays, with its sign
        pts = np.array([[-0.0, 1.0], [0.0, 1.0], [2.0, -0.0], [2.0, 0.0], [0.0, 1.0]])
        sample = distinct_sample(pts, "signed zeros", seed=None)
        assert sample.points.tobytes() == pts[[0, 2]].tobytes()
        assert sample.rank.tolist() == [0, 1]

    @given(
        d=st.integers(1, 12),
        n=st.integers(0, 60),
        seed=st.integers(0, 2**32 - 1),
        values=st.sampled_from([1, 2, 3, 9]),
    )
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_rows_are_ranked_once(self, d, n, seed, values):
        # coarse rows with signed zeros, often repeated: the rank stored on a
        # sample is _row_rank of its points, duplicates are refused with the
        # same message, and distinct_sample keeps the rows, in the order, that
        # np.unique(axis=0, return_index=True) keeps
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, values, size=(n, d)) - (values - 1) / 2
        pts[rng.random((n, d)) < 0.2] *= -0.0
        _, first = np.unique(pts, axis=0, return_index=True) if n else (None, np.zeros(0, int))
        kept = pts[np.sort(first)]
        sample = distinct_sample(pts, "coarse rows", seed=None)
        if len(kept) < 2:
            assert sample is None
        else:
            assert sample.points.tobytes() == kept.tobytes()
            assert np.array_equal(sample.rank, _kernels._row_rank(kept))
            assert not sample.rank.flags.writeable
        if n < 2:
            return
        if len(kept) < n:
            with pytest.raises(InvalidConstantError, match="^sample contains duplicate points$"):
                SampleSet(points=pts, description="coarse rows")
        else:
            assert np.array_equal(SampleSet(points=pts, description="x").rank, _kernels._row_rank(pts))

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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: grid_sample([], 5),
            lambda: random_sample([], 10, seed=0),
            lambda: default_sample([]),
        ],
        ids=["grid", "random", "default"],
    )
    def test_no_axis_is_refused(self, build):
        with pytest.raises(InvalidConstantError, match="at least one axis"):
            build()

    @pytest.mark.parametrize(
        "build, named",
        [
            (lambda bounds: default_sample(bounds, grid_points=-1), "grid_points"),
            (lambda bounds: default_sample(bounds, random_points=-3), "random_points"),
            (lambda bounds: random_sample(bounds, -1, seed=0), "n"),
        ],
        ids=["grid_points", "random_points", "random_n"],
    )
    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_a_negative_count_is_refused(self, build, named, dim):
        # (-1) ** 0.5 is complex, and -3 random points printed as such
        with pytest.raises(InvalidConstantError, match=f"^{named} must be >= 0, got -"):
            build([(0.0, 1.0)] * dim)

    @pytest.mark.parametrize(
        "build",
        [
            lambda bounds: default_sample(bounds, seed=-1),
            lambda bounds: default_sample(bounds, random_points=0, seed=-1),
            lambda bounds: random_sample(bounds, 10, seed=-1),
        ],
        ids=["default", "default_grid_only", "random"],
    )
    @pytest.mark.parametrize("dim", [1, 4])
    def test_a_negative_seed_is_refused(self, build, dim):
        # numpy's generator would raise an untyped ValueError
        with pytest.raises(InvalidConstantError, match=r"^seed must be >= 0, got -1$"):
            build([(0.0, 1.0)] * dim)

    def test_zero_counts_are_allowed(self):
        s = default_sample([(0.0, 1.0), (0.0, 1.0)], grid_points=0, random_points=0)
        assert s.size == 4
        assert s.description.startswith("grid 2 pts/axis + 0 random pts on ")


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

    def test_equal_witness_points_refuse_the_certificate(self, reflection, unit_sample, monkeypatch):
        # a kernel that hands back a diagonal pair must fail, not certify
        monkeypatch.setattr(certify._kernels, "violation_max", lambda *a, **kw: (-1.0, (3, 3)))
        with pytest.raises(EnrichedFPError, match="pair of equal points"):
            check_enriched_kannan(reflection, k=0.5, a=0.25, sample=unit_sample)

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


# (check as a function of (mapping, k, rate, sample), printed rate range, rate limit)
CHECKS = {
    "kannan": (check_enriched_kannan, "[0, 1/2)", certify.KANNAN_RATE_LIMIT),
    "bianchini": (check_enriched_bianchini, "[0, 1)", certify.BIANCHINI_RATE_LIMIT),
    "banach": (lambda mapping, k, rate, sample: check_banach(mapping, rate, sample), "[0, 1)",
               certify.BANACH_RATE_LIMIT),
}


def _invalid_constants():
    """(check name, k, rate, the message): each check's bad rates, and the
    enriched checks' bad k, alone and with a bad rate too."""
    for name, (_, span, limit) in CHECKS.items():
        for rate in (-0.25, limit, 2.0 * limit, math.nan):
            yield name, 0.0, rate, f"rate must lie in {span}, got {rate}"
        if name == "banach":
            continue
        for k in (-0.5, math.inf, math.nan):
            for rate in (0.25, limit, math.nan):
                yield name, k, rate, f"enrichment constant must be >= 0, got {k}"


class TestInvalidConstantMessages:
    @pytest.mark.parametrize("name, k, rate, message", list(_invalid_constants()))
    def test_each_check_names_the_first_bad_constant(self, reflection, unit_sample, name, k, rate, message):
        check = CHECKS[name][0]
        with pytest.raises(InvalidConstantError) as raised:
            check(reflection, k, rate, unit_sample)
        assert str(raised.value) == message


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

    def test_displacements_that_all_underflow_are_not_all_fixed(self):
        # x -> x + 1e-170 moves every point, but each squared displacement
        # underflows to 0, so no pair has a positive rhs scale to estimate on
        pts = SampleSet(points=np.arange(1.0, 6.0)[:, None] * 1e-165, description="5 pts")
        shift = AffineMap(matrix=np.eye(1), offset=np.array([1e-170]))
        cert = estimate_kannan_constants(shift, pts)
        assert not cert.feasible and cert.rate == math.inf

    def test_a_displacement_above_1e154_raises_no_warning(self):
        # the all-fixed check compares points with images and squares nothing
        pts = np.concatenate([np.linspace(-1.0, 1.0, 199), [1e154]])[:, None]
        sample = SampleSet(points=pts, description="[-1, 1] and 1e154")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = estimate_kannan_constants(AffineMap(matrix=-np.eye(1), offset=np.zeros(1)), sample)
        assert cert.k == 1.0 and cert.rate == 0.0

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

    @pytest.mark.parametrize("estimate", [estimate_kannan_constants, estimate_bianchini_constants])
    def test_a_positive_violation_at_the_chosen_k_is_infeasible(self, estimate):
        # every point of [0, 2e-15] is fixed, so the map is not Kannan; the
        # ratio sweep passes over the pair (0, 1e-15), whose numerator is
        # below ZERO_NUM_TOL, but the violation check at the rate counts it
        table = PiecewiseTable(breakpoints=[0.0, 2e-15, 1.0], slopes=[1.0, 0.1], intercepts=[0.0, 1.8e-15])
        sample = SampleSet(points=np.array([0.0, 1e-15, 0.25, 0.5, 1.0]), description="5 pts")
        cert = estimate(table, sample)
        assert cert.k == 0.0 and cert.rate < 0.5
        assert cert.max_violation > 0.0
        assert not cert.satisfied and not cert.feasible

    def test_empty_grid(self, reflection, unit_sample):
        with pytest.raises(InvalidConstantError):
            estimate_kannan_constants(reflection, unit_sample, ())

    def test_kannan_implies_bianchini_cross_check(self, unit_sample):
        # every passing displacement-sum certificate transfers to the doubled
        # max-displacement rate (pair by pair in tests/test_kernels.py; here
        # across the catalog)
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
        assert not cert.feasible
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
        assert not cert.feasible
        assert cert.max_violation == math.inf

    @pytest.mark.parametrize("check", [
        lambda mapping, sample: check_enriched_bianchini(mapping, k=0.0, h=0.5, sample=sample),
        lambda mapping, sample: check_banach(mapping, c=0.5, sample=sample),
    ])
    def test_other_checks_fail_closed(self, grid11, check):
        cert = check(_ScaleWithHole(), grid11)
        assert not cert.satisfied
        assert not cert.feasible
        assert cert.max_violation == math.inf

    def test_images_that_overflow_warn_of_nothing(self):
        # 1e308 x on [-10, 10]: every image but that of 0 is +-inf
        sample = grid_sample([(-10.0, 10.0)], 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            images = certify.evaluate_on(Scale1D(1e308), sample)
            cert = check_enriched_kannan(Scale1D(1e308), k=0.5, a=0.25, sample=sample)
        assert np.isinf(images).sum() == 10
        assert cert.max_violation == math.inf
        assert not cert.feasible

    def test_estimate_refuses_an_unchecked_violation_at_the_chosen_k(self, grid11, monkeypatch):
        # the ratio sweeps find a rate, but the violation sweep at it meets a NaN pair
        monkeypatch.setattr(certify._kernels, "violation_max", lambda *args, **kwargs: (math.inf, (0, 5)))
        cert = estimate_kannan_constants(Scale1D(0.3), grid11)
        assert cert.rate < certify.KANNAN_RATE_LIMIT
        assert not cert.feasible

    @pytest.mark.parametrize("violation", [math.nan, math.inf])
    def test_certificate_refuses_feasible_with_an_unchecked_pair(self, grid11, violation):
        with pytest.raises(EnrichedFPError, match="marked feasible"):
            certify.ContractionCertificate("kannan", 0.0, 0.25, violation, None, grid11)
        cert = certify.ContractionCertificate("kannan", 0.0, 0.25, violation, None, grid11, feasible=False)
        assert not cert.satisfied

    @pytest.mark.parametrize("tags, limit", [
        (("kannan", "enriched_kannan"), certify.KANNAN_RATE_LIMIT),
        (("bianchini", "enriched_bianchini"), certify.BIANCHINI_RATE_LIMIT),
        (("banach",), certify.BANACH_RATE_LIMIT),
    ], ids=["kannan", "bianchini", "banach"])
    def test_certificate_refuses_feasible_with_a_rate_outside_its_class(self, grid11, tags, limit):
        for tag in tags:
            for rate in (limit, 2.0 * limit, -0.0625):
                with pytest.raises(EnrichedFPError, match=f"rate={rate} outside"):
                    certify.ContractionCertificate(tag, 0.5, rate, -1.0, None, grid11)
                cert = certify.ContractionCertificate(tag, 0.5, rate, -1.0, None, grid11, feasible=False)
                assert cert.satisfied and not cert.feasible
            inside = math.nextafter(limit, 0.0)
            assert certify.ContractionCertificate(tag, 0.5, inside, -1.0, None, grid11).feasible


# --- norms at the numeric edges (open: the norms are unscaled) ----------------

# x -> 10 x on 11 points of [s, 2 s]: at k = 0 every pair's Kannan ratio is
# 10 |x - y| / (9 x + 9 y), whose sup, at the pair (s, 2 s), is 10/27 at any
# scale s. The kernels' norms are sqrt(sum(sq)), unscaled: above about
# 1.3e154 a square overflows, and below about 1e-162 it loses bits or flushes
# to 0.
EDGE_MAP = AffineMap(matrix=np.array([[10.0]]), offset=np.zeros(1))
EDGE_SUP = 10.0 / 27.0
UNSCALED = pytest.mark.xfail(strict=True, raises=AssertionError, reason="the kernels' norms are unscaled")


def _edge_sample(scale):
    return SampleSet(points=np.linspace(1.0, 2.0, 11)[:, None] * scale, description=f"[1, 2] * {scale}")


class TestNormsAtTheNumericEdges:
    def test_at_every_scale_inside_the_edges(self):
        for scale in (1e-150, 1.0, 1e150):
            sample = _edge_sample(scale)
            assert estimate_kannan_constants(EDGE_MAP, sample).rate == pytest.approx(EDGE_SUP, rel=1e-12)
            assert not check_enriched_kannan(EDGE_MAP, 0.0, 0.36, sample).satisfied

    @UNSCALED
    def test_displacements_that_overflow(self):
        # today the rate is 0.18518518518518515 and the check holds: some
        # displacements are inf, and a numerator over inf reads as 0
        sample = _edge_sample(1e153)
        assert estimate_kannan_constants(EDGE_MAP, sample).rate == pytest.approx(EDGE_SUP, rel=1e-12)
        assert not check_enriched_kannan(EDGE_MAP, 0.0, 0.36, sample).satisfied

    @UNSCALED
    def test_squares_that_lose_bits(self):
        # today the estimate certifies 0.36886520858343164
        sample = _edge_sample(1e-162)
        assert estimate_kannan_constants(EDGE_MAP, sample).rate == pytest.approx(EDGE_SUP, rel=1e-12)

    @UNSCALED
    def test_squares_that_flush_to_zero(self):
        # today both checks hold with max_violation = 0.0: every norm is 0
        sample = _edge_sample(1e-165)
        assert not check_enriched_kannan(EDGE_MAP, 0.0, 0.36, sample).satisfied
        assert not check_banach(EDGE_MAP, 0.5, sample).satisfied


# --- the estimate's pruned k sweep against the unpruned loop -------------------


def _unpruned_estimate(mapping, sample, k_grid, mode, rate_limit, plain_tag, enriched_tag):
    """``certify._estimate`` as it was before pruning: every k's sweep covers every pair."""
    k_values = [float(k) for k in k_grid]
    if not k_values:
        raise InvalidConstantError("k grid must be nonempty")
    if any(not (k >= 0.0 and math.isfinite(k)) for k in k_values):
        raise InvalidConstantError(f"k grid entries must be finite and >= 0: {k_values}")
    images = certify.evaluate_on(mapping, sample)
    disp = np.linalg.norm(sample.points - images, axis=-1)
    if np.all(disp == 0.0):
        raise DegenerateSampleError(
            "every sample point is fixed; no displacement to estimate against"
        )

    # some pair has a positive rhs scale, from the oracle's own displacements
    valid = disp[~np.isnan(disp)]
    has_pos = valid.size >= 2 and bool(np.any(valid > 0.0))

    best = None  # (rate, k, witness_pair)
    fallback_witness = None
    for k in k_values:
        sup, pair, infeasible, zpair = _kernels.ratio_sup(sample.points, images, k, mode)
        if infeasible:
            # a zero-displacement pair with nonzero numerator, or a NaN
            # pair value, rules k out
            if fallback_witness is None:
                fallback_witness = certify._witness(sample, zpair)
            continue
        if not has_pos:
            continue
        if (
            best is None
            or sup < best[0] - certify.RATE_TIE_TOL
            or (abs(sup - best[0]) <= certify.RATE_TIE_TOL and k < best[1])
        ):
            best = (sup, k, certify._witness(sample, pair))

    if best is None:
        return certify.ContractionCertificate(
            class_tag=enriched_tag,
            k=k_values[0],
            rate=math.inf,
            max_violation=math.inf,
            witness=fallback_witness,
            sample=sample,
            feasible=False,
        )

    rate, k, witness = best
    viol, _ = _kernels.violation_max(sample.points, images, k, rate, mode)
    return certify.ContractionCertificate(
        class_tag=plain_tag if k == 0.0 else enriched_tag,
        k=k,
        rate=rate,
        max_violation=viol,
        witness=witness,
        sample=sample,
        feasible=rate < rate_limit and viol <= 0.0,
    )


# (estimator, the unpruned loop's arguments after the k grid)
ESTIMATORS = [
    (estimate_kannan_constants,
     (MODE_KANNAN, certify.KANNAN_RATE_LIMIT, "kannan", "enriched_kannan")),
    (estimate_bianchini_constants,
     (MODE_BIANCHINI, certify.BIANCHINI_RATE_LIMIT, "bianchini", "enriched_bianchini")),
]


def _bits(value):
    return np.float64(value).tobytes()


def _cert_bits(cert):
    """Everything a certificate reports, floats as bytes so that -0.0 != 0.0."""
    witness = None if cert.witness is None else tuple(w.tobytes() for w in cert.witness)
    return (cert.class_tag, _bits(cert.k), _bits(cert.rate), _bits(cert.max_violation),
            witness, cert.feasible)


def _same_as_unpruned(mapping, sample, k_grid):
    """Both estimates, each pinned bit for bit to the unpruned loop; returns them."""
    certs = []
    for estimate, args in ESTIMATORS:
        cert = estimate(mapping, sample, k_grid)
        assert _cert_bits(cert) == _cert_bits(_unpruned_estimate(mapping, sample, k_grid, *args))
        certs.append(cert)
    return certs


def _descending(sample):
    """The sample with its rows reversed, so that the smallest witnesses sit in the last block."""
    return SampleSet(points=sample.points[::-1], description=f"{sample.description}, reversed")


@pytest.fixture
def small_blocks(monkeypatch):
    """Triangle blocks of 3000 entries: the 201-point unit sample takes 8 of them."""
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 8 * 3000)
    assert len(_kernels._blocks(201)) == 8


def _block_counts(monkeypatch, name):
    """The number of triangle blocks each call of the kernel ``name`` sweeps, one entry a call."""
    counts, sweeping = [], []
    kernel = getattr(_kernels, name)
    blocks = _kernels._Triangle.__iter__

    def counting(self):
        for views in blocks(self):
            if sweeping:
                counts[-1] += 1
            yield views

    def counted(*args, **kwargs):
        counts.append(0)
        sweeping.append(True)
        try:
            return kernel(*args, **kwargs)
        finally:
            sweeping.pop()

    monkeypatch.setattr(_kernels._Triangle, "__iter__", counting)
    monkeypatch.setattr(_kernels, name, counted)
    return counts


@pytest.fixture
def ratio_blocks(monkeypatch):
    """The number of triangle blocks each ``ratio_sup`` call sweeps, one entry a call."""
    return _block_counts(monkeypatch, "ratio_sup")


@pytest.fixture
def check_blocks(monkeypatch):
    """The number of triangle blocks each ``violation_max`` call sweeps, one entry a call."""
    return _block_counts(monkeypatch, "violation_max")


@pytest.fixture
def ratio_calls(monkeypatch):
    """Per ``ratio_sup`` call: ``(k, how)``. ``how`` is "settled" when its
    ``lower`` reached its ``stop_at``, so that it swept nothing; "stopped"
    when its sweep did, so that it may have stopped before its last block;
    else "full"."""
    calls = []
    kernel = _kernels.ratio_sup

    def recorded(points, images, k, *args, stop_at=None, lower=None, **kwargs):
        result = kernel(points, images, k, *args, stop_at=stop_at, lower=lower, **kwargs)
        if stop_at is None or result[0] < stop_at:
            how = "full"
        else:
            how = "settled" if lower is not None and lower >= stop_at else "stopped"
        calls.append((k, how))
        return result

    monkeypatch.setattr(_kernels, "ratio_sup", recorded)
    return calls


def _swept(calls, grid):
    """The calls that swept, of each estimate of a ``_same_as_unpruned``
    pair (Kannan, then Bianchini), once every ``k`` of each estimate has
    reached ``ratio_sup`` and every unpruned loop has swept in full."""
    n = len(grid)
    assert len(calls) == 4 * n
    swept = []
    for start in (0, 2 * n):
        estimate, loop = calls[start : start + n], calls[start + n : start + 2 * n]
        assert sorted(k for k, _ in estimate) == sorted(grid)
        assert loop == [(k, "full") for k in grid]
        swept.append([call for call in estimate if call[1] != "settled"])
    return swept


DEFAULT = certify.DEFAULT_K_GRID
GRIDS = {
    "default": DEFAULT,
    "reversed": DEFAULT[::-1],
    "duplicated": (0.5, 0.5, 3.0, 0.0, 1.0, 1.0, 0.0, 0.25),
}


class TestPrunedEstimate:
    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("order", ["ascending", "descending"])
    @pytest.mark.parametrize("name", ["reflection", "scale_third", "spiral"])
    def test_grids_match_the_unpruned_loop(self, small_blocks, unit_sample, name, order, grid):
        if name == "spiral":
            mapping = AffineMap(matrix=np.array([[0.3, -0.8], [0.8, 0.3]]), offset=np.array([0.1, -0.2]))
            sample = default_sample([(-1.0, 1.0), (-1.0, 1.0)], grid_points=121, random_points=80, seed=4)
        else:
            mapping = {"reflection": Reflection1D(), "scale_third": Scale1D(c=1.0 / 3.0, bounds=(0.0, 1.0))}[name]
            sample = unit_sample
        _same_as_unpruned(mapping, _descending(sample) if order == "descending" else sample, grid)

    def test_losing_sweeps_stop_early(self, small_blocks, ratio_blocks, ratio_calls, reflection, unit_sample):
        # the reflection's rate |1 - k| / 2 is about 0 at k = 1, which the probe
        # guesses too: k = 1 is swept first, in full, and every other k is
        # settled on the probe pairs, before its first block
        kannan, _ = _same_as_unpruned(reflection, unit_sample, DEFAULT)
        assert kannan.k == 1.0 and kannan.rate < 1e-15
        assert _swept(ratio_calls, DEFAULT) == [[(1.0, "full")]] * 2
        # per class: the estimate's eight calls, then the unpruned loop's eight
        assert ratio_blocks == ([8] + [0] * 7 + [8] * 8) * 2

    @pytest.mark.parametrize("k_near", [2.0 + 2e-13, 2.0 - 2e-13, 2.0 - 1e-11, 2.0])
    @pytest.mark.parametrize("first", ["k = 0", "k near 2"])
    def test_rates_within_the_tie_tolerance(self, small_blocks, ratio_blocks, reflection, unit_sample, k_near, first):
        # k = 0 and k near 2 give rates |1 - k| / 2 within 1e-13 of 1/2 (5e-12
        # below it for 2 - 1e-11); the smaller k wins a tie in either order
        grid = (0.0, k_near) if first == "k = 0" else (k_near, 0.0)
        for sample in (unit_sample, _descending(unit_sample)):
            kannan, _ = _same_as_unpruned(reflection, sample, grid)
            assert kannan.k == (k_near if k_near == 2.0 - 1e-11 else 0.0)
        # per sample: the estimate's two calls, then the unpruned loop's two,
        # for Kannan and then Bianchini. Every pair across the fixed point 1/2
        # is at the sup, so each row's key reaches it and a full sweep takes
        # all 8 blocks. A sup within the tie tolerance lies below the bound,
        # so the second k sweeps every pair, all 8 blocks too. At 2 - 1e-11
        # the probe puts k near 2 first, and k = 0, 5e-12 above it, reaches
        # the bound: for Kannan on the probe pairs, before any block, since
        # the pivot, the fixed point's row, is at the sup with every row; for
        # Bianchini, where those pairs are at half of it, in its first block,
        # which holds the fixed point's row
        if k_near == 2.0 - 1e-11:
            assert ratio_blocks == [8, 0, 8, 8, 8, 1, 8, 8] * 2
        else:
            assert ratio_blocks == [8, 8, 8, 8] * 4

    @pytest.mark.parametrize("seed", [3, 4])
    def test_the_check_at_the_chosen_k_skips_blocks(self, small_blocks, check_blocks, seed):
        # an affine contraction with eigenvalues -0.9 to -0.7, where k > 0
        # wins. The check sweeps the rows by descending key and stops at the
        # first block whose key is below its running maximum, in the
        # estimate and in the unpruned loop alike
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        mapping = AffineMap(matrix=q @ np.diag([-0.9, -0.8, -0.7]) @ q.T, offset=rng.uniform(-0.5, 0.5, 3))
        sample = random_sample([(-1.0, 1.0)] * 3, 201, seed)
        for cert in _same_as_unpruned(mapping, sample, DEFAULT):
            assert cert.k > 0.0 and cert.feasible
        assert check_blocks[0::2] == check_blocks[1::2]
        assert all(0 < count < 8 for count in check_blocks), check_blocks

    @pytest.mark.parametrize("grid", [(3.0, 1.0), (1.0, 3.0), DEFAULT, DEFAULT[::-1]])
    def test_a_nan_pair_at_one_k_before_or_after_the_winner(self, small_blocks, grid):
        # x -> -x on [-1, 1] and x = 1e154: the pair (1e154, 0) has an infinite
        # displacement sum, and its numerator |k - 1| 1e154 overflows only for
        # k > 2.34, so only k = 3 meets a NaN ratio, inf / inf
        pts = np.concatenate([np.linspace(-1.0, 1.0, 199), [1e154]])[:, None]
        sample = SampleSet(points=pts, description="[-1, 1] and 1e154")
        mapping = AffineMap(matrix=-np.eye(1), offset=np.zeros(1))
        with np.errstate(over="ignore"):  # the oracle's np.linalg.norm squares 2e154
            images = certify.evaluate_on(mapping, sample)
            assert _kernels.ratio_sup(pts, images, 3.0, MODE_KANNAN)[2]
            assert not _kernels.ratio_sup(pts, images, 2.0, MODE_KANNAN)[2]
            kannan, bianchini = _same_as_unpruned(mapping, sample, grid)
        assert kannan.k == bianchini.k == 1.0

    @pytest.mark.parametrize("grid", [(0.0, 0.5, 3.0), (3.0, 0.5, 0.0), (2.0, 0.0, 3.0, 0.5)])
    def test_a_pair_of_fixed_points_rules_out_the_larger_k(self, small_blocks, grid):
        # T(x, y) = (x, 0) fixes (0, 0) and (4e-15, 0): their numerator
        # (k + 1) 4e-15 exceeds ZERO_NUM_TOL only for k >= 2
        rng = np.random.default_rng(8)
        pts = np.concatenate([rng.uniform(0.5, 1.0, size=(200, 2)), [[0.0, 0.0], [4e-15, 0.0]]])
        sample = SampleSet(points=pts, description="200 moving and 2 fixed pts")
        mapping = AffineMap(matrix=np.array([[1.0, 0.0], [0.0, 0.0]]), offset=np.zeros(2))
        images = certify.evaluate_on(mapping, sample)
        for k in (0.0, 0.5, 2.0, 3.0):
            assert _kernels.ratio_sup(pts, images, k, MODE_KANNAN)[2] == (k >= 2.0)
        kannan, bianchini = _same_as_unpruned(mapping, sample, grid)
        assert kannan.k in (0.0, 0.5) and bianchini.k in (0.0, 0.5)

    def test_no_feasible_k(self, small_blocks, unit_sample):
        # a NaN image rules out every k; so do two fixed points far apart
        _same_as_unpruned(_ScaleWithHole(), grid_sample([(0.0, 1.0)], 11), DEFAULT[::-1])
        _same_as_unpruned(_ScaleWithHole(), unit_sample, DEFAULT)
        t = AffineMap(matrix=np.array([[1.0, 0.0], [0.0, 0.0]]), offset=np.zeros(2))
        pts = SampleSet(points=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]]), description="3 pts")
        for cert in _same_as_unpruned(t, pts, (1.0, 0.0, 3.0)):
            assert not cert.feasible and cert.witness is not None

    def test_a_probe_that_favours_a_losing_k(self, small_blocks, ratio_calls):
        # an affine map on 120 random points of [-1, 1]^2 where the probe
        # pairs rank a losing k first, 0.25 for both classes, and k = 0 wins
        # both. The walk stays exact; it only sweeps in full each k whose sup
        # falls below the smallest so far
        mapping = AffineMap(matrix=np.array([[-0.75, -1.0], [0.75, 0.0]]), offset=np.zeros(2))
        sample = random_sample([(-1.0, 1.0)] * 2, 120, 1527)
        images = certify.evaluate_on(mapping, sample)
        for mode, first in ((MODE_KANNAN, 0.25), (MODE_BIANCHINI, 0.25)):
            guesses = [math.inf if bad else sup for sup, bad in certify._probe(sample.points, images, DEFAULT, mode)]
            assert DEFAULT[int(np.argmin(guesses))] == first
        kannan, bianchini = _same_as_unpruned(mapping, sample, DEFAULT)
        assert kannan.k == bianchini.k == 0.0
        # Kannan sweeps 0.25 and 0 in full and settles the rest on the probe
        # pairs; Bianchini, whose probe sups lie further below the full ones,
        # sweeps 0.25 and 0 in full, stops 0.5 to 1.5 in their sweeps and
        # settles 2 and 3
        assert _swept(ratio_calls, DEFAULT) == [
            [(0.25, "full"), (0.0, "full")],
            [(0.25, "full"), (0.0, "full"), (0.5, "stopped"), (0.75, "stopped"), (1.0, "stopped"), (1.5, "stopped")],
        ]

    @pytest.mark.parametrize("seed, bianchini", [(3, [(0.0, "full"), (0.25, "stopped")]), (5, [(0.0, "full")])])
    def test_the_probe_settles_the_losing_k_on_an_orbit_sample(self, ratio_calls, seed, bianchini):
        # an SFP instance shaped like the benchmark's apps workload, at d = 8:
        # A with a repeated smallest singular value, a box C and a ball Q. The
        # orbit sample lists the newest iterate first; it is the pivot, and
        # its pairs reach the bound for the losing k, so at most one of them
        # sweeps, to stop early
        d = 8
        rng = np.random.default_rng([seed, 3])
        q = [np.linalg.qr(rng.standard_normal((d, d))) for _ in range(2)]
        q = [o * np.sign(np.diag(r)) for o, r in q]
        spectrum = np.concatenate([np.full(d // 2, 0.8), np.linspace(0.8, 1.9, d - d // 2)])
        a = q[0] @ np.diag(spectrum) @ q[1].T
        target, u = rng.uniform(-0.3, 0.3, d), rng.standard_normal(d)
        box = convex.Box(lower=-np.ones(d), upper=np.ones(d))
        op = apps.sfp_operator(
            apps.SfpInstance(c_set=box, q_set=convex.Ball(center=a @ target, radius=0.2), matrix=a)
        )
        cfg = solve.SolveConfig(lam=0.5, tol=1e-10, max_iter=10**5, stop_rule=solve.STOP_STEP_NORM)
        trace = solve.krasnoselskij(op, box.project(target + 2.5 * u / np.linalg.norm(u)), cfg)
        sample = apps._orbit_sample(trace, seed, op.domain)
        assert sample.size > 300
        kannan, _ = _same_as_unpruned(op, sample, DEFAULT)
        assert kannan.k == 0.0
        assert _swept(ratio_calls, DEFAULT) == [[(0.0, "full")], bianchini]

    def test_the_probe_settles_the_losing_k_on_a_box_sample(self, ratio_calls):
        # an affine map with eigenvalues -1 to -0.6 on the default 2000-point
        # sample of [-1, 1]^5: k = 0.75 wins, and the probe settles every other k
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        mapping = AffineMap(matrix=q @ np.diag([-1.0, -0.9, -0.8, -0.7, -0.6]) @ q.T, offset=rng.uniform(-0.5, 0.5, 5))
        sample = default_sample([(-1.0, 1.0)] * 5, seed=3)
        for cert in _same_as_unpruned(mapping, sample, DEFAULT):
            assert cert.k == 0.75 and cert.feasible
        assert _swept(ratio_calls, DEFAULT) == [[(0.75, "full")]] * 2

    @given(
        d=st.integers(1, 12),
        n=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
        grid=st.one_of(
            st.lists(st.sampled_from(DEFAULT), min_size=1, max_size=9),
            st.lists(st.sampled_from((0.0, 0.5, 1.5, 2.0, 3.0)), min_size=1, max_size=9),
        ),
        reflected=st.booleans(),
    )
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_affine_maps_match_the_unpruned_loop(self, d, n, seed, grid, reflected):
        # x -> b - x on a sample symmetric about b / 2 gives k and 2 - k the
        # same rate, reached by every symmetric pair. Otherwise x -> b - c x
        # plus a coarse perturbation, c up to 1.5: k = 0 wins for small c,
        # some k > 0 for c near 1. Several blocks, coarse points
        rng = np.random.default_rng(seed)
        b = rng.integers(-4, 5, size=d) / 4
        pts = rng.integers(-4, 5, size=(n, d)) / 4
        if reflected:
            matrix = -np.eye(d)
            pts = np.concatenate([pts, b - pts])
        else:
            matrix = -rng.uniform(0.0, 1.5) * np.eye(d) + rng.integers(-2, 3, size=(d, d)) / 8
        pts = np.unique(pts, axis=0)
        pts = pts[rng.permutation(len(pts))]
        if len(pts) < 2:
            return
        mapping = AffineMap(matrix=matrix, offset=b)
        sample = SampleSet(points=pts, description=f"{len(pts)} pts in R^{d}")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernels, "_BLOCK_BYTES", 8 * 64)
            try:
                _same_as_unpruned(mapping, sample, grid)
            except DegenerateSampleError:
                with pytest.raises(DegenerateSampleError):
                    _unpruned_estimate(mapping, sample, grid, *ESTIMATORS[0][1])


# --- the check at the chosen k reads the numerators its ratio sweep computed ----

DATA = Path(__file__).parent / "data"


@pytest.fixture
def check_numerators(monkeypatch):
    """The number of triangle blocks whose numerators each ``violation_max``
    call computes, one entry a call."""
    counts, checking = [], []
    kernel, enriched_sq = _kernels.violation_max, _kernels._Triangle.enriched_sq

    def counted_sq(self, *args):
        if checking:
            counts[-1] += 1
        return enriched_sq(self, *args)

    def counted(*args, **kwargs):
        counts.append(0)
        checking.append(True)
        try:
            return kernel(*args, **kwargs)
        finally:
            checking.pop()

    monkeypatch.setattr(_kernels._Triangle, "enriched_sq", counted_sq)
    monkeypatch.setattr(_kernels, "violation_max", counted)
    return counts


class TestTheCheckReusesTheWinningSweep:
    def test_the_5d_certificate(self, tmp_path, capsys, check_blocks, check_numerators):
        # the 5-D affine map on the default 2000-point sample (64 blocks):
        # each estimate's check sweeps the 6 blocks its ratio sweep held, in
        # that sweep's row order, and computes none of their numerators
        argv = ["certify", "--input", str(DATA / "affine5.json"), "--config", str(DATA / "box5.json")]
        assert cli.main([*argv, "--out", str(tmp_path)]) == cli.EXIT_OK
        capsys.readouterr()
        assert check_blocks == [6, 6]
        assert check_numerators == [0, 0]

    def test_a_vip_orbit_sample(self, check_blocks, check_numerators):
        # a VIP instance shaped like the benchmark's apps workload, at d = 30:
        # its orbit sample of about 311 rows takes 3 blocks, and the check
        # sweeps all 3 without computing a numerator
        d = 30
        rng = np.random.default_rng([3, 7])
        b = rng.standard_normal((d, d)) / math.sqrt(d)
        vip = apps.VipInstance(
            c_set=convex.Box(lower=-np.ones(d), upper=np.ones(d)),
            operator=AffineMap(matrix=np.eye(d) + 0.3 * (b - b.T), offset=rng.uniform(-1.5, 1.5, d)),
            gamma=0.2,
        )
        cfg = solve.SolveConfig(lam=0.5, tol=1e-10, max_iter=10**5, stop_rule=solve.STOP_STEP_NORM)
        result = apps.solve_vip(vip, cfg, np.zeros(d), seed=3)
        n = result.certificate.sample.size
        assert 300 < n < 330 and len(_kernels._blocks(n)) == 3
        assert check_blocks == [3]
        assert check_numerators == [0]


# --- an estimate hands its winning sweep to the other class's estimate --------


@pytest.fixture
def handed(monkeypatch):
    """The ``k`` of each ``ratio_sup`` call handed a filled record, one entry a call."""
    calls = []
    kernel = _kernels.ratio_sup

    def spied(points, images, k, mode, **kwargs):
        record = kwargs.get("record")
        if record is not None and record.disp is not None:
            calls.append(k)
        return kernel(points, images, k, mode, **kwargs)

    monkeypatch.setattr(_kernels, "ratio_sup", spied)
    return calls


@pytest.fixture
def numerator_blocks(monkeypatch):
    """Per kernel call: ``(name, k, the number of blocks whose numerators it computed)``."""
    calls = []
    enriched_sq = _kernels._Triangle.enriched_sq

    def counted_sq(self, *args):
        calls[-1][2] += 1
        return enriched_sq(self, *args)

    def counting(name, kernel):
        def counted(points, images, k, *args, **kwargs):
            calls.append([name, k, 0])
            return kernel(points, images, k, *args, **kwargs)
        return counted

    for name in ("ratio_sup", "violation_max"):
        monkeypatch.setattr(_kernels, name, counting(name, getattr(_kernels, name)))
    monkeypatch.setattr(_kernels._Triangle, "enriched_sq", counted_sq)
    return calls


def _both_orders(mapping, sample, k_grid, handed):
    """Each class estimated right after the other on ``sample``, in both
    orders, pinned bit for bit to its estimate with nothing parked and to
    the unpruned loop. Returns the ``(Kannan, Bianchini)`` certificates and,
    per order, the ``k`` of each sweep handed a record."""
    alone = []
    for estimate, args in ESTIMATORS:
        certify._parked.clear()
        cert = estimate(mapping, sample, k_grid)
        assert _cert_bits(cert) == _cert_bits(_unpruned_estimate(mapping, sample, k_grid, *args))
        alone.append(cert)
    handed.clear()
    hand_offs = []
    for order in (ESTIMATORS, ESTIMATORS[::-1]):
        certify._parked.clear()
        certs = {estimate: estimate(mapping, sample, k_grid) for estimate, _ in order}
        assert [_cert_bits(certs[estimate]) for estimate, _ in ESTIMATORS] == [_cert_bits(c) for c in alone]
        assert not certify._parked or not handed  # a record serves one estimate after its own
        hand_offs.append(list(handed))
        handed.clear()
    return alone, hand_offs


def _affine_seeded(seed):
    """A random affine map on 201 random points of [-1, 1]^d, d from 1 to 3."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    mapping = AffineMap(matrix=rng.uniform(-2.0, 1.0, (d, d)), offset=rng.uniform(-0.5, 0.5, d))
    return mapping, random_sample([(-1.0, 1.0)] * d, 201, seed)


class TestTheOtherClassReusesTheWinningSweep:
    @pytest.mark.parametrize("seed, ks", [(9, (0.0, 0.25)), (80, (0.75, 1.0))])
    def test_classes_that_pick_different_k(self, small_blocks, handed, seed, ks):
        # the second estimate gets the first's winning sweep at the first's
        # k, which it sweeps but does not pick; k = 0 among them
        mapping, sample = _affine_seeded(seed)
        (kannan, bianchini), hand_offs = _both_orders(mapping, sample, DEFAULT, handed)
        assert (kannan.k, bianchini.k) == ks
        assert hand_offs == [[ks[0]], [ks[1]]]

    @pytest.mark.parametrize("grid", [(0.0, 0.5, 3.0), (2.0, 0.0, 3.0, 0.5)])
    def test_fixed_rows(self, small_blocks, handed, grid):
        # the fixed points (0, 0) and (4e-15, 0), whose pair rules out k >= 2
        rng = np.random.default_rng(8)
        pts = np.concatenate([rng.uniform(0.5, 1.0, size=(200, 2)), [[0.0, 0.0], [4e-15, 0.0]]])
        sample = SampleSet(points=pts, description="200 moving and 2 fixed pts")
        mapping = AffineMap(matrix=np.array([[1.0, 0.0], [0.0, 0.0]]), offset=np.zeros(2))
        (kannan, bianchini), hand_offs = _both_orders(mapping, sample, grid, handed)
        assert hand_offs == [[kannan.k], [bianchini.k]]

    @pytest.mark.parametrize("grid", [(3.0, 1.0), DEFAULT[::-1]])
    def test_a_nan_pair_at_one_k(self, small_blocks, handed, grid):
        # x -> -x on [-1, 1] and x = 1e154: only k = 3 meets a NaN ratio
        pts = np.concatenate([np.linspace(-1.0, 1.0, 199), [1e154]])[:, None]
        sample = SampleSet(points=pts, description="[-1, 1] and 1e154")
        mapping = AffineMap(matrix=-np.eye(1), offset=np.zeros(1))
        with np.errstate(over="ignore"):
            (kannan, bianchini), hand_offs = _both_orders(mapping, sample, grid, handed)
        assert kannan.k == bianchini.k == 1.0 and hand_offs == [[1.0], [1.0]]

    def test_nan_images(self, handed, unit_sample):
        # a NaN image rules out every k, so neither order hands anything on
        (kannan, bianchini), hand_offs = _both_orders(_ScaleWithHole(), unit_sample, DEFAULT, handed)
        assert not kannan.feasible and not bianchini.feasible and hand_offs == [[], []]

    def test_a_sample_of_at_most_two_blocks(self, handed, scale_third, unit_sample):
        # 201 rows in two blocks, swept unsorted; x / 3 picks k = 0
        assert not _kernels._worth_sorting(unit_sample.size)
        (kannan, _), hand_offs = _both_orders(scale_third, unit_sample, DEFAULT, handed)
        assert kannan.k == 0.0 and hand_offs == [[0.0], [0.0]]

    def test_the_5d_certificate(self, handed, numerator_blocks, monkeypatch):
        # k = 0.75 wins both classes on the default 2000-point sample of
        # [-1, 1]^5. The Bianchini estimate computes no numerator block at
        # 0.75, in its ratio sweep or its check. The pass lays one sweep out:
        # one _prepare and one _pair_bound, and the row keys of each sweep
        calls = {"_prepare": 0, "_pair_bound": 0, "_keys": 0}

        def counting(name, step):
            def counted(*args, **kwargs):
                calls[name] += 1
                return step(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(_kernels, name, counting(name, getattr(_kernels, name)))
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        mapping = AffineMap(matrix=q @ np.diag([-1.0, -0.9, -0.8, -0.7, -0.6]) @ q.T, offset=rng.uniform(-0.5, 0.5, 5))
        sample = default_sample([(-1.0, 1.0)] * 5, seed=3)
        kannan = estimate_kannan_constants(mapping, sample)
        first = len(numerator_blocks)
        bianchini = estimate_bianchini_constants(mapping, sample)
        assert kannan.k == bianchini.k == 0.75 and handed == [0.75]
        at = [[[name, count] for name, k, count in calls if k == 0.75]
              for calls in (numerator_blocks[:first], numerator_blocks[first:])]
        assert at == [[["ratio_sup", 2], ["violation_max", 0]], [["ratio_sup", 0], ["violation_max", 0]]]
        assert calls == {"_prepare": 1, "_pair_bound": 1, "_keys": 4}

    def test_no_hand_off_to_other_images_or_another_sample(self, handed, unit_sample, scale_third, reflection):
        # other images on the same sample, or the same points in another
        # SampleSet: each estimate sweeps on its own
        estimate_kannan_constants(scale_third, unit_sample)
        estimate_bianchini_constants(reflection, unit_sample)
        estimate_kannan_constants(scale_third, unit_sample)
        twin = SampleSet(points=unit_sample.points, description="the same points")
        assert _cert_bits(estimate_bianchini_constants(scale_third, twin)) == _cert_bits(
            _unpruned_estimate(scale_third, twin, DEFAULT, *ESTIMATORS[1][1])
        )
        assert handed == []

    def test_no_hand_off_to_the_same_class(self, handed, unit_sample, scale_third):
        for estimate in (estimate_kannan_constants, estimate_bianchini_constants):
            certify._parked.clear()
            estimate(scale_third, unit_sample)
            estimate(scale_third, unit_sample)
            assert handed == [] and certify._parked

    def test_a_record_serves_one_estimate_after_its_own(self, handed, unit_sample, scale_third):
        # Kannan hands its sweep to Bianchini, which parks nothing, so the
        # next Kannan sweeps on its own and hands its sweep on again
        for _ in range(2):
            estimate_kannan_constants(scale_third, unit_sample)
            estimate_bianchini_constants(scale_third, unit_sample)
        assert handed == [0.0, 0.0] and not certify._parked

    def test_no_hand_off_after_an_estimate_that_raised_or_found_no_k(self, handed, unit_sample, scale_third):
        # an estimate that raises takes the parked sweep and parks nothing;
        # so does one that finds no feasible k (a NaN image rules out every k)
        estimate_kannan_constants(scale_third, unit_sample)
        with pytest.raises(InvalidConstantError):
            estimate_bianchini_constants(scale_third, unit_sample, ())
        estimate_bianchini_constants(scale_third, unit_sample)
        grid11 = grid_sample([(0.0, 1.0)], 11)
        assert not estimate_kannan_constants(_ScaleWithHole(), grid11).feasible
        assert not certify._parked
        estimate_bianchini_constants(_ScaleWithHole(), grid11)
        assert handed == []


def test_estimates_on_many_threads_with_fast_switching(small_blocks):
    # a time-bounded stress run: 6 threads estimating both classes, in either
    # order, on one sample, so that a parked sweep may pass from one thread
    # to another; every certificate keeps its bits
    mapping, sample = _affine_seeded(80)
    alone = {}
    for estimate, _ in ESTIMATORS:
        certify._parked.clear()
        alone[estimate] = _cert_bits(estimate(mapping, sample, DEFAULT))
    errors = []

    def run(order):
        try:
            for _ in range(4):
                for estimate, _ in order:
                    assert _cert_bits(estimate(mapping, sample, DEFAULT)) == alone[estimate]
        except BaseException as exc:  # noqa: BLE001 - raised in the test below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(ESTIMATORS[:: 1 - 2 * (i % 2)],)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


# --- row order: a certificate does not depend on the order of the sample rows --


def _rows_in(sample, order, how):
    return SampleSet(points=sample.points[list(order)], description=f"{sample.description}, {how}")


class TestRowOrder:
    @given(
        d=st.integers(1, 12),
        n=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
        orbit=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_a_row_permutation_changes_no_bit(self, d, n, seed, orbit, data):
        # an affine map x -> b - c x plus a coarse perturbation, on coarse
        # random points, or on its orbit from a random start followed by a
        # few random points, as the apps' orbit samples are built
        rng = np.random.default_rng(seed)
        b = rng.integers(-4, 5, size=d) / 4
        matrix = -rng.uniform(0.0, 1.5) * np.eye(d) + rng.integers(-2, 3, size=(d, d)) / 8
        mapping = AffineMap(matrix=matrix, offset=b)
        pts = rng.integers(-4, 5, size=(n, d)) / 4
        if orbit:
            rows = [pts[0]]
            for _ in range(n - 1):
                rows.append(0.5 * rows[-1] + 0.5 * mapping.apply(rows[-1]))
            pts = np.concatenate([rows, pts[1:6]])
        sample = distinct_sample(pts, f"{n} rows in R^{d}", seed=None)
        if sample is None:
            return
        order = data.draw(st.permutations(range(sample.size)))
        samples = [_rows_in(sample, range(sample.size)[::-1], "reversed"), _rows_in(sample, order, "permuted")]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernels, "_BLOCK_BYTES", 8 * 64)
            for estimate, _ in ESTIMATORS:
                try:
                    want = _cert_bits(estimate(mapping, sample))
                except DegenerateSampleError:
                    for other in samples:
                        with pytest.raises(DegenerateSampleError):
                            estimate(mapping, other)
                    continue
                for other in samples:
                    assert _cert_bits(estimate(mapping, other)) == want


# --- the pick rule on its own: pruned outcomes never change it ---------------

TIE = certify.RATE_TIE_TOL


def _outcome(sup, feasible=True):
    """A ``ratio_sup`` result with sup ``sup``, infeasible unless ``feasible``."""
    return (sup, (0, 1), not feasible, (-1, -1) if feasible else (1, 0))


@st.composite
def _pick_cases(draw):
    """A k grid with duplicates, and per k an outcome: on a tie chain, near the
    smallest sup, far above it, or infeasible; plus which k a walk may prune."""
    n = draw(st.integers(1, 9))
    k_values = draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0)), min_size=n, max_size=n))
    base = draw(st.one_of(
        st.just(0.0),
        st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-300, 299)),
    ))
    # a chain of sups spaced 0.5 to 1.0 tie tolerances apart
    chain = np.cumsum([0.0] + draw(st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n)))
    outcomes = []
    for _ in range(n):
        kind = draw(st.sampled_from(["chain", "near", "far", "infeasible"]))
        if kind == "chain":
            sup = base + float(draw(st.sampled_from(chain))) * TIE
        elif kind == "far":
            sup = draw(st.sampled_from([2.0 * base + TIE, base + 1.0, math.inf]))
        else:
            sup = base + draw(st.floats(0.0, 3.0 * n)) * TIE
        outcomes.append(_outcome(sup, feasible=kind != "infeasible"))
    drop = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return k_values, outcomes, drop


class TestPick:
    def test_a_tie_chain_lifts_the_pick_by_n_minus_1_tolerances(self):
        # each sup ties with the one before it, 2**-40 (0.91 T) above it, and
        # comes with a smaller k, so the pick is the largest sup
        k_values = [3.0, 2.0, 1.0, 0.0]
        sups = [i * 2.0**-40 for i in range(4)]
        assert certify._pick(k_values, [_outcome(s) for s in sups]) == (3, None)
        # so the bound must lie above m + (n - 1) T, and it does
        assert certify._prune_bound(0.0, 4) > 3 * TIE

    def test_the_first_infeasible_k_in_grid_order_is_the_fallback(self):
        outcomes = [None, _outcome(1.0, False), _outcome(0.5, False)]
        assert certify._pick([0.0, 1.0, 2.0], outcomes) == (None, 1)
        assert certify._pick([0.0, 1.0, 2.0], outcomes[:1] + [_outcome(2.0)] + outcomes[2:]) == (1, 2)

    def test_no_bound_when_it_is_not_finite(self):
        # an infinite sup ties with nothing, so pruning infinite sups could
        # drop the pick: with s_ref = inf no sweep may stop
        assert certify._prune_bound(math.inf, 8) is None
        assert certify._prune_bound(float(np.finfo(np.float64).max), 8) is None  # the bound overflows
        assert certify._pick([1.0, 0.0], [_outcome(math.inf), _outcome(math.inf)]) == (0, None)

    @given(case=_pick_cases())
    @settings(max_examples=500, derandomize=True, deadline=None)
    def test_dropping_outcomes_at_or_above_the_bound_never_changes_the_pick(self, case):
        k_values, outcomes, drop = case
        best, _ = certify._pick(k_values, outcomes)
        feasible = [sup for sup, _, infeasible, _ in outcomes if not infeasible]
        assert (best is None) == (not feasible)
        # a walk's bound comes from the smallest full feasible sup so far,
        # so from any feasible sup
        for s_ref in feasible:
            bound = certify._prune_bound(s_ref, len(k_values))
            if bound is None:
                continue
            pruned = [None if gone and out[0] >= bound else out for out, gone in zip(outcomes, drop)]
            assert certify._pick(k_values, pruned)[0] == best
