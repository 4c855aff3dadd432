import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enrichedfp import apps, catalog, certify, solve
from enrichedfp.convex import Ball, Box
from enrichedfp.exceptions import (
    AutoLambdaError,
    DimensionMismatchError,
    DomainEscapeError,
    InvalidConstantError,
    OutOfDomainError,
)
from enrichedfp.mappings import (
    AffineMap,
    AveragedMap,
    Mapping,
    PiecewiseTable,
    Reflection1D,
    Scale1D,
    as_point,
)
from enrichedfp.solve import (
    SolveConfig,
    aposteriori_bound,
    apriori_bound,
    auto_lambda,
    cauchy_window_bound,
    contraction_rate_kannan,
    krasnoselskij,
    rate_from_certificate,
    required_iterations,
)


class TestAutoLambda:
    def test_zero_gives_exactly_one(self):
        assert auto_lambda(0.0) == 1.0

    def test_half(self):
        assert auto_lambda(0.5) == pytest.approx(2.0 / 3.0, abs=1e-16)

    def test_one(self):
        assert auto_lambda(1.0) == 0.5

    def test_negative_rejected(self):
        with pytest.raises(InvalidConstantError):
            auto_lambda(-0.5)


class TestContractionRate:
    @pytest.mark.parametrize(
        "a,expected", [(0.25, 1.0 / 3.0), (0.0, 0.0), (0.4, 2.0 / 3.0)]
    )
    def test_values(self, a, expected):
        assert contraction_rate_kannan(a) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("a", [0.5, -0.1, 1.0])
    def test_range(self, a):
        with pytest.raises(InvalidConstantError):
            contraction_rate_kannan(a)


class TestBounds:
    def test_apriori_values(self):
        assert apriori_bound(1.0 / 3.0, 2.0 / 3.0, 2) == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert apriori_bound(0.0, 5.0, 3) == 0.0
        assert apriori_bound(1.0 / 3.0, 2.0 / 3.0, 1) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_aposteriori_values(self):
        assert aposteriori_bound(1.0 / 3.0, 0.1) == pytest.approx(0.05, abs=1e-15)
        assert aposteriori_bound(0.0, 123.0) == 0.0
        assert aposteriori_bound(0.5, 0.2) == pytest.approx(0.2, abs=1e-15)

    def test_cauchy_window_values(self):
        assert cauchy_window_bound(1.0 / 3.0, 2.0 / 3.0, 0, 1) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert cauchy_window_bound(0.5, 1.0, 2, 2) == pytest.approx(0.375, abs=1e-15)
        limit = cauchy_window_bound(1.0 / 3.0, 2.0 / 3.0, 1, 400)
        assert limit == pytest.approx(apriori_bound(1.0 / 3.0, 2.0 / 3.0, 1), rel=1e-14)

    def test_unified_estimate_consistency(self):
        # the window bound with the full tail reproduces the a priori form,
        # and the single-step tail reproduces the a posteriori form
        for rate in (0.1, 1.0 / 3.0, 0.7):
            for step in (0.5, 2.0 / 3.0):
                assert aposteriori_bound(rate, step) == apriori_bound(rate, step, 1)
                for n in (1, 3, 7):
                    tail = cauchy_window_bound(rate, step, n, 500)
                    assert tail == pytest.approx(apriori_bound(rate, step, n), rel=1e-13)

    @given(
        rate=st.floats(min_value=0.01, max_value=0.95),
        step=st.floats(min_value=1e-8, max_value=10.0),
        n=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_apriori_monotone_and_positive(self, rate, step, n):
        bound = apriori_bound(rate, step, n)
        assert bound >= 0.0
        assert apriori_bound(rate, step, n + 1) <= bound

    def test_rate_validation(self):
        with pytest.raises(InvalidConstantError):
            apriori_bound(1.0, 1.0, 1)
        with pytest.raises(InvalidConstantError):
            aposteriori_bound(-0.1, 1.0)


class TestRequiredIterations:
    def test_reflection_tolerance(self):
        assert required_iterations(1.0 / 3.0, 2.0 / 3.0, 1e-10) == 21

    def test_loose_tolerance(self):
        assert required_iterations(1.0 / 3.0, 2.0 / 3.0, 1.0) == 1

    def test_matches_linear_scan(self):
        def scan(rate, first, eps):
            n = 1
            while apriori_bound(rate, first, n) > eps:
                n += 1
            return n

        assert required_iterations(0.9, 1.0, 0.1) == scan(0.9, 1.0, 0.1)
        rng = np.random.default_rng(9)
        for _ in range(50):
            rate = float(rng.uniform(0.05, 0.97))
            first = float(rng.uniform(0.1, 5.0))
            eps = float(rng.uniform(1e-12, 1e-1))
            assert required_iterations(rate, first, eps) == scan(rate, first, eps)

    def test_zero_rate(self):
        assert required_iterations(0.0, 1.0, 1e-10) == 1


class TestKrasnoselskij:
    def test_reflection_averaged_run(self):
        cfg = SolveConfig(lam=2.0 / 3.0, tol=1e-10, max_iter=100, rate=1.0 / 3.0)
        trace = krasnoselskij(Reflection1D(), [0.0], cfg)
        assert trace.converged
        assert trace.iterations <= 25
        assert abs(trace.final[0] - 0.5) <= 1e-10
        assert trace.stop_rule == solve.STOP_APOSTERIORI
        # geometric step decay at factor 1/3 while steps are well above the
        # iterate quantization floor
        for i, ratio in enumerate(trace.ratios):
            if not np.isnan(ratio) and trace.step_norms[i - 1] >= 1e-7:
                assert abs(ratio - 1.0 / 3.0) <= 1e-9

    def test_reflection_picard_period_two(self):
        cfg = SolveConfig(lam=1.0, tol=1e-10, max_iter=100, stop_rule=solve.STOP_STEP_NORM)
        trace = krasnoselskij(Reflection1D(), [0.0], cfg)
        assert trace.status == solve.STATUS_MAX_ITER
        values = [float(p[0]) for p in trace.iterates]
        assert values == [0.0, 1.0] * 50 + [0.0]

    def test_banach_scale_converges(self):
        cfg = SolveConfig(lam=1.0, tol=1e-10, max_iter=100, stop_rule=solve.STOP_STEP_NORM)
        trace = krasnoselskij(Scale1D(c=0.5), [1.0], cfg)
        assert trace.converged
        assert abs(trace.final[0]) <= 1e-9

    def test_lambda_one_is_picard_bitwise(self):
        t = AffineMap(matrix=np.array([[0.3, 0.2], [-0.2, 0.4]]), offset=np.array([0.1, 0.2]))
        cfg = SolveConfig(lam=1.0, tol=1e-12, max_iter=40, stop_rule=solve.STOP_STEP_NORM)
        trace = krasnoselskij(t, [1.0, -1.0], cfg)
        x = np.array([1.0, -1.0])
        for recorded in trace.iterates[1:]:
            x = (1.0 - 1.0) * x + 1.0 * t.apply(x)
            assert np.array_equal(recorded, x)

    def test_divergence_detected(self):
        cfg = SolveConfig(lam=1.0, tol=1e-10, max_iter=10000, stop_rule=solve.STOP_STEP_NORM)
        trace = krasnoselskij(Scale1D(c=2.0), [1.0], cfg)
        assert trace.status == solve.STATUS_DIVERGED
        assert trace.step_norms[-1] > 1e12

    def test_domain_escape_reports_iterate(self):
        expanding = Scale1D(c=1.3, bounds=(0.0, 1.0))
        cfg = SolveConfig(lam=1.0, tol=1e-10, max_iter=50, stop_rule=solve.STOP_STEP_NORM)
        with pytest.raises(DomainEscapeError) as err:
            krasnoselskij(expanding, [0.9], cfg)
        assert err.value.point is not None
        assert err.value.point[0] > 1.0
        assert err.value.iteration >= 1

    def test_ratio_omitted_below_threshold(self):
        # a constant map converges with a zero step; the following ratio slot
        # must be omitted rather than forced to 0/0
        const = AffineMap(matrix=np.zeros((1, 1)), offset=np.array([0.3]))
        cfg = SolveConfig(lam=1.0, tol=1e-15, max_iter=5, stop_rule=solve.STOP_STEP_NORM)
        trace = krasnoselskij(const, [0.9], cfg)
        assert trace.converged
        assert np.isnan(trace.ratios[0])

    def test_trace_lengths_consistent(self):
        cfg = SolveConfig(lam=2.0 / 3.0, tol=1e-10, max_iter=100, rate=1.0 / 3.0)
        trace = krasnoselskij(Reflection1D(), [0.1], cfg)
        n = trace.iterations
        assert len(trace.iterates) == n + 1
        assert len(trace.ratios) == n
        assert len(trace.apriori) == n
        assert len(trace.aposteriori) == n
        assert all(s >= 0.0 for s in trace.step_norms)

    def test_converged_criterion_at_tol(self):
        cfg = SolveConfig(lam=2.0 / 3.0, tol=1e-10, max_iter=100, rate=1.0 / 3.0)
        trace = krasnoselskij(Reflection1D(), [0.0], cfg)
        assert trace.aposteriori[-1] <= cfg.tol

    def test_aposteriori_needs_rate(self):
        with pytest.raises(InvalidConstantError):
            krasnoselskij(
                Reflection1D(),
                [0.0],
                SolveConfig(lam=0.5, tol=1e-10, max_iter=10, stop_rule=solve.STOP_APOSTERIORI),
            )


class TestAutoMode:
    def test_auto_from_certificate(self, unit_sample):
        cert = certify.check_enriched_kannan(Reflection1D(), 0.5, 0.25, unit_sample)
        cfg = SolveConfig(lam=solve.AUTO, tol=1e-10, max_iter=100, certificate=cert)
        trace = krasnoselskij(Reflection1D(), [0.0], cfg)
        assert trace.lam == pytest.approx(2.0 / 3.0, abs=1e-16)
        assert trace.rate == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert trace.converged

    def test_auto_fresh_estimate_picks_best_enrichment(self):
        # the default enrichment grid contains k = 1, where the reflection
        # map's minimal rate is 0; the paired averaging factor 1/2 then maps
        # everything to the fixed point in one step
        cfg = SolveConfig(lam=solve.AUTO, tol=1e-10, max_iter=100)
        trace = krasnoselskij(Reflection1D(), [0.0], cfg)
        assert trace.lam == 0.5
        assert trace.converged
        assert trace.iterations == 1
        assert trace.final[0] == 0.5

    def test_auto_refused_without_feasible_certificate(self):
        # factor-1/2 scaling is neither displacement-sum nor max-displacement
        # certifiable (both estimates sit at their class boundary)
        with pytest.raises(AutoLambdaError):
            krasnoselskij(
                Scale1D(c=0.5, bounds=(0.0, 1.0)),
                [1.0],
                SolveConfig(lam=solve.AUTO, tol=1e-10, max_iter=100),
            )

    def test_auto_needs_domain_or_certificate(self):
        with pytest.raises(AutoLambdaError):
            krasnoselskij(
                Scale1D(c=0.5),
                [1.0],
                SolveConfig(lam=solve.AUTO, tol=1e-10, max_iter=100),
            )

    def test_rate_ignored_for_mismatched_lambda(self, unit_sample):
        # an explicit lam that is not paired with the certificate's k must
        # not inherit its contraction rate
        cert = certify.check_enriched_kannan(Reflection1D(), 0.5, 0.25, unit_sample)
        cfg = SolveConfig(lam=0.9, tol=1e-6, max_iter=200, certificate=cert)
        trace = krasnoselskij(Reflection1D(), [0.0], cfg)
        assert trace.rate is None
        assert trace.stop_rule == solve.STOP_STEP_NORM

    def test_bianchini_fallback(self):
        # factor-1/3 scaling fails the displacement-sum estimate but
        # certifies max-displacement at rate 1/2, which auto mode accepts
        cfg = SolveConfig(lam=solve.AUTO, tol=1e-10, max_iter=200, k_grid=(0.0,))
        trace = krasnoselskij(Scale1D(c=1.0 / 3.0, bounds=(0.0, 1.0)), [1.0], cfg)
        assert trace.lam == 1.0
        assert trace.rate == pytest.approx(0.5, abs=1e-12)
        assert trace.converged


class TestCertifyForAuto:
    @staticmethod
    def _recording(calls, estimator):
        def run(mapping, sample, k_grid):
            calls.append(estimator.__name__)
            return estimator(mapping, sample, k_grid)

        return run

    def test_kannan_first_falls_back_to_bianchini(self, scale_third, unit_sample):
        # factor-1/3 scaling sits at the displacement-sum boundary at k = 0
        calls = []
        estimators = (
            self._recording(calls, certify.estimate_kannan_constants),
            self._recording(calls, certify.estimate_bianchini_constants),
        )
        cert = solve.certify_for_auto(scale_third, unit_sample, (0.0,), estimators)
        assert calls == ["estimate_kannan_constants", "estimate_bianchini_constants"]
        assert cert.class_tag == "bianchini"
        assert cert.rate == pytest.approx(0.5, abs=1e-12)

    def test_bianchini_first_returns_it_directly(self, scale_third, unit_sample):
        calls = []
        estimators = (
            self._recording(calls, certify.estimate_bianchini_constants),
            self._recording(calls, certify.estimate_kannan_constants),
        )
        cert = solve.certify_for_auto(scale_third, unit_sample, (0.0,), estimators)
        assert calls == ["estimate_bianchini_constants"]
        assert cert.class_tag == "bianchini"

    def test_refusal_names_the_sample(self, unit_sample):
        estimators = (certify.estimate_kannan_constants, certify.estimate_bianchini_constants)
        with pytest.raises(AutoLambdaError) as info:
            solve.certify_for_auto(
                Scale1D(c=0.5, bounds=(0.0, 1.0)), unit_sample, (0.0,), estimators
            )
        assert str(info.value) == (
            f"auto lambda refused: no feasible certificate on {unit_sample.description}"
        )


class TestRateFromCertificate:
    def test_kannan_rate(self, unit_sample):
        cert = certify.check_enriched_kannan(Reflection1D(), 0.5, 0.25, unit_sample)
        assert rate_from_certificate(cert) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_bianchini_rate(self, scale_third, unit_sample):
        cert = certify.check_enriched_bianchini(scale_third, 0.0, 0.5, unit_sample)
        assert rate_from_certificate(cert) == 0.5

    def test_infeasible_rejected(self, scale_third, unit_sample):
        cert = certify.estimate_kannan_constants(scale_third, unit_sample, (0.0,))
        assert not cert.feasible
        with pytest.raises(InvalidConstantError):
            rate_from_certificate(cert)

    def test_monotone_has_no_rate(self, unit_sample):
        cert = certify.check_monotone(Scale1D(c=0.5), unit_sample)
        with pytest.raises(InvalidConstantError):
            rate_from_certificate(cert)

    @pytest.mark.parametrize(
        "check, k, tag",
        [
            (certify.check_enriched_kannan, 0.0, "kannan"),
            (certify.check_enriched_kannan, 0.5, "enriched_kannan"),
            (certify.check_enriched_bianchini, 0.0, "bianchini"),
            (certify.check_enriched_bianchini, 0.5, "enriched_bianchini"),
            (lambda mapping, k, rate, sample: certify.check_banach(mapping, rate, sample), 0.0, "banach"),
        ],
    )
    def test_every_class_tag(self, scale_third, unit_sample, check, k, tag):
        cert = check(scale_third, k, 0.4, unit_sample)
        assert cert.class_tag == tag and cert.feasible
        want = 0.4 / 0.6 if "kannan" in tag else 0.4
        assert rate_from_certificate(cert) == want

    def test_no_rate_message(self, unit_sample):
        cert = certify.check_monotone(Scale1D(c=0.5), unit_sample)
        with pytest.raises(InvalidConstantError) as info:
            rate_from_certificate(cert)
        assert str(info.value) == "no contraction rate is implied by a 'monotone' certificate"


class TestContractionInvariants:
    def test_uniqueness_probe(self, unit_sample):
        cert = certify.check_enriched_kannan(Reflection1D(), 0.5, 0.25, unit_sample)
        tol = 1e-12
        cfg = SolveConfig(lam=solve.AUTO, tol=tol, max_iter=200, certificate=cert)
        p1 = krasnoselskij(Reflection1D(), [0.0], cfg).final
        p2 = krasnoselskij(Reflection1D(), [0.97], cfg).final
        assert float(np.linalg.norm(p1 - p2)) <= 2.0 * tol

    def test_bound_soundness_reflection(self):
        rate = 1.0 / 3.0
        ref_cfg = SolveConfig(lam=2.0 / 3.0, tol=1e-13, max_iter=200, rate=rate)
        p = krasnoselskij(Reflection1D(), [0.0], ref_cfg).final
        cfg = SolveConfig(lam=2.0 / 3.0, tol=1e-10, max_iter=200, rate=rate)
        trace = krasnoselskij(Reflection1D(), [0.0], cfg)
        for n in range(1, trace.iterations + 1):
            err = float(np.linalg.norm(trace.iterates[n] - p))
            assert err <= trace.apriori[n - 1] + 1e-10
            assert err <= trace.aposteriori[n - 1] + 1e-10


# --- oracle: the per-step Mapping.apply loop, kept literally ---------------


def reference_krasnoselskij(mapping, x0, cfg):
    """The solver loop as it was before it called ``_apply`` directly: every
    step goes through ``Mapping.apply`` and the checked bound helpers, and
    appends to one list a column (None for a missing ratio).
    """
    lam, rate, stop_rule = solve._resolve(mapping, cfg)
    x = as_point(x0)
    trace = SimpleNamespace(
        iterates=[x.copy()],
        step_norms=[],
        ratios=[],
        apriori=[] if rate is not None else None,
        aposteriori=[] if rate is not None else None,
        status=solve.STATUS_MAX_ITER,
        lam=lam,
        rate=rate,
        stop_rule=stop_rule,
        tol=cfg.tol,
    )

    for n in range(1, cfg.max_iter + 1):
        try:
            tx = mapping.apply(x)
        except OutOfDomainError as exc:
            raise DomainEscapeError(
                f"iterate {n - 1} escaped the mapping domain: {exc}",
                point=x.copy(),
                iteration=n - 1,
            ) from exc
        xn = (1.0 - lam) * x + lam * tx
        step = float(np.linalg.norm(xn - x))

        prev = trace.step_norms[-1] if trace.step_norms else None
        trace.iterates.append(xn.copy())
        trace.step_norms.append(step)
        if prev is None or prev < solve.RATIO_MIN_STEP:
            trace.ratios.append(None)
        else:
            trace.ratios.append(step / prev)
        if rate is not None:
            trace.apriori.append(apriori_bound(rate, trace.step_norms[0], n))
            trace.aposteriori.append(aposteriori_bound(rate, step))

        if not np.all(np.isfinite(xn)) or step > solve.DIVERGENCE_LIMIT:
            trace.status = solve.STATUS_DIVERGED
            return trace

        criterion = trace.aposteriori[-1] if stop_rule == solve.STOP_APOSTERIORI else step
        x = xn
        if criterion <= cfg.tol:
            trace.status = solve.STATUS_CONVERGED
            return trace

    trace.status = solve.STATUS_MAX_ITER
    return trace


COLUMNS = ("step_norms", "ratios", "apriori", "aposteriori")


def _bits(values):
    """A column's float64 bits, a None entry read as NaN; None for no column."""
    if values is None:
        return None
    return np.array([np.nan if v is None else v for v in values], dtype=np.float64).tobytes()


def assert_same_trace(got, want):
    """``got``, a solver trace, holds ``want``'s lists bit for bit as float64 arrays."""
    want_iterates = np.stack(want.iterates)
    assert isinstance(got.iterates, np.ndarray)
    assert (got.iterates.dtype, got.iterates.shape) == (np.float64, want_iterates.shape)
    assert got.iterates.tobytes() == want_iterates.tobytes()
    for name in COLUMNS:
        column = getattr(got, name)
        if column is not None:
            assert isinstance(column, np.ndarray) and column.dtype == np.float64, name
        assert _bits(column) == _bits(getattr(want, name)), name
    assert (got.status, got.lam, got.rate, got.stop_rule, got.tol) == (
        want.status, want.lam, want.rate, want.stop_rule, want.tol
    )


@dataclass(frozen=True, eq=False)
class Poisoned(Mapping):
    """Doubles x; once |x_0| passes 4 the first image component is ``bad``."""

    bad: float
    size: int = 3

    @property
    def dim(self):
        return self.size

    def _apply(self, point):
        image = 2.0 * point
        if abs(point[0]) > 4.0:
            image[0] = self.bad
        return image


def _contraction(d, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d, d))
    m *= 0.9 / np.linalg.norm(m, 2)
    return AffineMap(matrix=m, offset=rng.uniform(-1.0, 1.0, d))


def _sfp(d, seed):
    rng = np.random.default_rng(seed)
    return apps.sfp_operator(
        apps.SfpInstance(
            c_set=Box(lower=-np.ones(d), upper=np.ones(d)),
            q_set=Ball(center=rng.uniform(-0.2, 0.2, d), radius=0.2),
            matrix=rng.standard_normal((d, d)) / np.sqrt(d),
        )
    )


def _vip(d, seed):
    rng = np.random.default_rng(seed)
    skew = rng.standard_normal((d, d))
    operator = AffineMap(matrix=np.eye(d) + 0.3 * (skew - skew.T), offset=rng.uniform(-2, 2, d))
    return apps.vip_operator(
        apps.VipInstance(c_set=Box(lower=-np.ones(d), upper=np.ones(d)), operator=operator, gamma=0.2)
    )


ORACLE_MAPS = {
    "affine_d1": lambda: _contraction(1, 1),
    "affine_d2": lambda: _contraction(2, 2),
    "affine_d5": lambda: _contraction(5, 5),
    "affine_d20": lambda: _contraction(20, 20),
    "averaged_reflection": lambda: AveragedMap(inner=Reflection1D(), lam=0.5),
    "piecewise": lambda: PiecewiseTable(
        breakpoints=np.array([0.0, 0.5, 1.0]),
        slopes=np.array([0.25, 0.2]),
        intercepts=np.array([0.0, 0.5]),
    ),
    "scale_bounded": lambda: Scale1D(c=1.0 / 3.0, bounds=(0.0, 1.0)),
    "reflection": lambda: Reflection1D(),
    "sfp_d6": lambda: _sfp(6, 7),
    "sfp_standard": lambda: apps.sfp_operator(catalog.standard_sfp()),
    "vip_d6": lambda: _vip(6, 8),
    "vip_plane": lambda: apps.vip_operator(catalog.vip_plane()),
}

ORACLE_SETTINGS = [
    dict(lam=1.0, stop_rule=solve.STOP_STEP_NORM),
    dict(lam=1.0, stop_rule=solve.STOP_APOSTERIORI, rate=0.95),
    dict(lam=0.5, stop_rule=solve.STOP_STEP_NORM),
    dict(lam=0.5, stop_rule=solve.STOP_APOSTERIORI, rate=0.95),
    dict(lam=2.0 / 3.0, stop_rule=solve.STOP_AUTO, rate=1.0 / 3.0),
]


def _start(mapping):
    if mapping.domain is not None:
        lo, hi = mapping.domain
        return lo + 0.3 * (hi - lo)
    return np.linspace(-1.0, 1.0, mapping.dim)


class TestLeanLoopMatchesOracle:
    @pytest.mark.parametrize("settings", ORACLE_SETTINGS, ids=lambda s: f"{s['lam']:.3g}-{s['stop_rule']}")
    @pytest.mark.parametrize("name", ORACLE_MAPS)
    def test_bit_identical_trace(self, name, settings):
        mapping = ORACLE_MAPS[name]()
        cfg = SolveConfig(tol=1e-12, max_iter=400, **settings)
        x0 = _start(mapping)
        assert_same_trace(krasnoselskij(mapping, x0, cfg), reference_krasnoselskij(mapping, x0, cfg))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("rate", [None, 0.5])
    def test_non_finite_image_diverges(self, bad, rate):
        mapping = Poisoned(bad=bad)
        cfg = SolveConfig(lam=0.5, tol=1e-12, max_iter=100, stop_rule=solve.STOP_STEP_NORM, rate=rate)
        trace = krasnoselskij(mapping, [1.0, -1.0, 0.5], cfg)
        assert trace.status == solve.STATUS_DIVERGED
        assert not np.all(np.isfinite(trace.final))
        assert_same_trace(trace, reference_krasnoselskij(mapping, [1.0, -1.0, 0.5], cfg))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("c, d", [(2.0, 1), (1.5, 5), (1e200, 1), (1e300, 2)])
    def test_large_step_diverges(self, c, d):
        # 1e200 and 1e300 overflow the squared norm: the step is inf on the
        # first step. The solver warns of nothing; the reference loop does
        mapping = AffineMap(matrix=c * np.eye(d), offset=np.zeros(d))
        cfg = SolveConfig(lam=1.0, tol=1e-12, max_iter=1000, stop_rule=solve.STOP_STEP_NORM)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = krasnoselskij(mapping, np.ones(d), cfg)
        assert trace.status == solve.STATUS_DIVERGED
        assert trace.step_norms[-1] > solve.DIVERGENCE_LIMIT
        assert_same_trace(trace, reference_krasnoselskij(mapping, np.ones(d), cfg))

    def test_domain_escape_mid_run(self):
        mapping = Scale1D(c=1.3, bounds=(0.0, 1.0))
        cfg = SolveConfig(lam=0.8, tol=1e-10, max_iter=50, stop_rule=solve.STOP_STEP_NORM)
        errors = []
        for run in (krasnoselskij, reference_krasnoselskij):
            with pytest.raises(DomainEscapeError) as err:
                run(mapping, [0.5], cfg)
            errors.append(err.value)
        got, want = errors
        assert got.iteration == want.iteration > 1
        assert got.point.tobytes() == want.point.tobytes()
        assert str(got) == str(want)
        assert type(got.__cause__) is type(want.__cause__) is OutOfDomainError

    @pytest.mark.parametrize("x0", [[0.0, 0.0, 0.0], [0.5]])
    def test_wrong_dimension_start(self, x0):
        mapping = _contraction(2, 2)
        cfg = SolveConfig(lam=0.5, tol=1e-10, max_iter=10, stop_rule=solve.STOP_STEP_NORM)
        messages = []
        for run in (krasnoselskij, reference_krasnoselskij):
            with pytest.raises(DimensionMismatchError) as err:
                run(mapping, x0, cfg)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == "AffineMap acts on R^2, got dim " + str(len(x0))

    def test_mutating_start_after_the_call_leaves_trace(self):
        mapping = _contraction(5, 5)
        cfg = SolveConfig(lam=0.5, tol=1e-12, max_iter=400, stop_rule=solve.STOP_STEP_NORM)
        x0 = np.linspace(-1.0, 1.0, 5)
        want = reference_krasnoselskij(mapping, x0.copy(), cfg)
        trace = krasnoselskij(mapping, x0, cfg)
        x0[:] = 99.0
        assert_same_trace(trace, want)

    def test_an_image_of_another_shape_raises(self):
        # checked before the image is combined with the point, which would
        # broadcast a (1,) image over R^3 and run on
        mapping = _Collapse()
        cfg = SolveConfig(lam=0.5, tol=1e-10, max_iter=50, stop_rule=solve.STOP_STEP_NORM)
        with pytest.raises(DimensionMismatchError, match=r"^_Collapse maps R\^3 to shape \(1,\)$"):
            krasnoselskij(mapping, [1.0, 2.0, 3.0], cfg)


@dataclass(frozen=True, eq=False)
class _Collapse(Mapping):
    """R^3 to shape (1,): half the sum of the components."""

    @property
    def dim(self):
        return 3

    def _apply(self, point):
        return np.array([0.5 * point.sum()])


@dataclass(frozen=True, eq=False)
class _Counter(Mapping):
    """x -> x + (1, 1/2): from 0, step n ends on x_0 = n; NaN from ``last``."""

    last: float

    @property
    def dim(self):
        return 2

    def _apply(self, point):
        if point[0] >= self.last:
            return np.full(2, np.nan)
        return point + np.array([1.0, 0.5])


def _counted_rows(rows, rate=0.5):
    """A run of exactly ``rows`` rows under a cap of 10**6 steps: it
    diverges on step ``rows - 1``."""
    cfg = SolveConfig(lam=1.0, tol=1e-10, max_iter=10**6, stop_rule=solve.STOP_STEP_NORM, rate=rate)
    return _Counter(last=rows - 2.0), np.zeros(2), cfg


class TestColumnarTrace:
    """The trace's buffers: growth, views and the caller's start point."""

    @pytest.mark.parametrize(
        "rows",
        [cap + off for cap in (solve._FIRST_ROWS, 2 * solve._FIRST_ROWS, 4 * solve._FIRST_ROWS) for off in (-1, 0, 1)],
    )
    def test_lengths_around_each_capacity_doubling(self, rows):
        mapping, x0, cfg = _counted_rows(rows)
        trace = krasnoselskij(mapping, x0, cfg)
        assert trace.status == solve.STATUS_DIVERGED
        assert trace.iterates.shape == (rows, 2)
        # the buffer doubles as it fills: it never holds max_iter + 1 rows
        assert len(trace.iterates.base) < 2 * rows
        assert [len(getattr(trace, name)) for name in COLUMNS] == [rows - 1] * 4
        assert_same_trace(trace, reference_krasnoselskij(mapping, x0, cfg))

    def test_a_run_at_its_step_cap_fills_its_buffer_exactly(self):
        mapping, x0, _ = _counted_rows(10**6)
        for steps in (solve._FIRST_ROWS - 1, solve._FIRST_ROWS, solve._FIRST_ROWS + 1):
            cfg = SolveConfig(lam=1.0, tol=1e-10, max_iter=steps, stop_rule=solve.STOP_STEP_NORM)
            trace = krasnoselskij(mapping, x0, cfg)
            assert (trace.status, trace.iterates.shape) == (solve.STATUS_MAX_ITER, (steps + 1, 2))
            assert_same_trace(trace, reference_krasnoselskij(mapping, x0, cfg))

    def test_a_read_only_start_is_accepted_and_left_unchanged(self):
        mapping = _contraction(5, 5)
        cfg = SolveConfig(lam=0.5, tol=1e-12, max_iter=400, stop_rule=solve.STOP_STEP_NORM)
        x0 = np.linspace(-1.0, 1.0, 5)
        x0.flags.writeable = False
        kept = x0.copy()
        trace = krasnoselskij(mapping, x0, cfg)
        assert x0.tobytes() == kept.tobytes()
        assert not np.shares_memory(trace.iterates, x0)
        assert_same_trace(trace, reference_krasnoselskij(mapping, kept, cfg))

    def test_the_arrays_are_writable(self):
        mapping, x0, cfg = _counted_rows(solve._FIRST_ROWS + 1)
        trace = krasnoselskij(mapping, x0, cfg)
        for name in ("iterates", *COLUMNS):
            assert getattr(trace, name).flags.writeable, name
        trace.iterates[-1] = trace.iterates[0]
        trace.iterates[::2, 0] = -0.0
        assert trace.final.tolist() == [-0.0, 0.0]

    def test_a_missing_ratio_is_nan_and_a_nan_step_gives_a_nan_ratio(self):
        mapping, x0, cfg = _counted_rows(5)
        trace = krasnoselskij(mapping, x0, cfg)
        assert np.isnan(trace.ratios[0]) and np.isnan(trace.ratios[-1]) and np.isnan(trace.step_norms[-1])
        assert trace.ratios[1:-1].tolist() == [1.0, 1.0]


@dataclass(frozen=True, eq=False)
class _Halt(Mapping):
    """x -> x + (1, 1/2) from 0 until x_0 reaches ``last``, on step
    ``last + 1``; there ``end`` is "fixed" (the point itself, a zero step),
    "nan" (a NaN image) or "raise" (a RuntimeError naming the point).

    Given a list ``calls``, it counts its calls there and raises on its
    first call past step ``last + 1``."""

    last: float
    end: str = "fixed"
    calls: list = None

    @property
    def dim(self):
        return 2

    def _apply(self, point):
        if self.calls is not None:
            self.calls.append(None)
            if len(self.calls) > self.last + 1:
                raise RuntimeError("called past the stop")
        if point[0] < self.last:
            return point + np.array([1.0, 0.5])
        if self.end == "raise":
            raise RuntimeError(f"raised on {point}")
        return point.copy() if self.end == "fixed" else np.full(2, np.nan)


@dataclass(frozen=True, eq=False)
class _Square(Mapping):
    """x -> x * x, entry by entry: from 10**0.03 the step norm passes 1e12 on
    step 9, and later steps overflow to inf, then inf - inf is NaN."""

    @property
    def dim(self):
        return 2

    def _apply(self, point):
        return point * point


@dataclass(frozen=True, eq=False)
class _Walk(Mapping):
    """x -> x + 1 on the domain [0, hi] of R^1."""

    hi: float

    @property
    def dim(self):
        return 1

    @property
    def domain(self):
        return np.zeros(1), np.full(1, self.hi)

    def _apply(self, point):
        return point + 1.0


# every step of the first 130 covers each offset of the batches 1, 2, 4, ..., 64
BATCH_STEPS = range(1, 131)


class TestBatchedStopRule:
    """The stop rule runs once per batch; every stop falls where it did step by step."""

    @pytest.mark.parametrize("rule", [solve.STOP_STEP_NORM, solve.STOP_APOSTERIORI])
    @pytest.mark.parametrize("end, status", [("fixed", solve.STATUS_CONVERGED), ("nan", solve.STATUS_DIVERGED)])
    def test_a_stop_at_each_step(self, end, status, rule):
        for stop in BATCH_STEPS:
            mapping = _Halt(last=stop - 1.0, end=end)
            cfg = SolveConfig(lam=1.0, tol=1e-10, max_iter=1000, stop_rule=rule, rate=0.5)
            trace = krasnoselskij(mapping, np.zeros(2), cfg)
            assert (trace.status, trace.iterations) == (status, stop)
            assert_same_trace(trace, reference_krasnoselskij(mapping, np.zeros(2), cfg))

    def test_the_step_cap_at_each_step(self):
        mapping = _Halt(last=10**6)
        for cap in BATCH_STEPS:
            cfg = SolveConfig(lam=0.5, tol=1e-10, max_iter=cap, stop_rule=solve.STOP_STEP_NORM)
            trace = krasnoselskij(mapping, np.zeros(2), cfg)
            assert (trace.status, trace.iterations, len(trace.iterates.base)) == (solve.STATUS_MAX_ITER, cap, cap + 1)
            assert_same_trace(trace, reference_krasnoselskij(mapping, np.zeros(2), cfg))

    @pytest.mark.parametrize("end, status", [("fixed", solve.STATUS_CONVERGED), ("nan", solve.STATUS_DIVERGED)])
    def test_a_mapping_that_raises_past_the_stop(self, end, status):
        # the steps a batch computes past its stop are dropped, and so is an
        # exception one of them raises
        cfg = SolveConfig(lam=1.0, tol=1e-10, max_iter=1000, stop_rule=solve.STOP_STEP_NORM)
        for stop in BATCH_STEPS:
            want = reference_krasnoselskij(_Halt(last=stop - 1.0, end=end), np.zeros(2), cfg)
            trace = krasnoselskij(_Halt(last=stop - 1.0, end=end, calls=[]), np.zeros(2), cfg)
            assert (trace.status, trace.iterations) == (status, stop)
            assert_same_trace(trace, want)

    def test_an_exception_before_any_stop_is_raised_at_its_step(self):
        cfg = SolveConfig(lam=1.0, tol=1e-10, max_iter=1000, stop_rule=solve.STOP_STEP_NORM)
        for stop in BATCH_STEPS:
            messages = []
            for run in (krasnoselskij, reference_krasnoselskij):
                with pytest.raises(RuntimeError) as info:
                    run(_Halt(last=stop - 1.0, end="raise"), np.zeros(2), cfg)
                messages.append(str(info.value))
            assert messages[0] == messages[1] == f"raised on {np.array([stop - 1.0, (stop - 1.0) / 2])}"

    @pytest.mark.parametrize("stop", [1, 2, 3, 5, 8, 9, 40, 64, 65, 127])
    def test_a_domain_escape_inside_a_batch(self, stop):
        # x -> x + 1 on [0, stop + 0.5]: step ``stop + 1`` starts outside it,
        # with the message, iterate and cause of the step-by-step loop
        mapping = _Walk(hi=stop + 0.5)
        cfg = SolveConfig(lam=1.0, tol=1e-10, max_iter=1000, stop_rule=solve.STOP_STEP_NORM)
        errors = []
        for run in (krasnoselskij, reference_krasnoselskij):
            with pytest.raises(DomainEscapeError) as err:
                run(mapping, [0.0], cfg)
            errors.append(err.value)
        got, want = errors
        assert got.iteration == want.iteration == stop + 1
        assert got.point.tobytes() == want.point.tobytes()
        assert str(got) == str(want)
        assert type(got.__cause__) is type(want.__cause__) is OutOfDomainError

    def test_steps_past_a_divergence_that_overflow_warn_of_nothing(self):
        mapping = _Square()
        x0 = np.full(2, 10.0**0.03)
        cfg = SolveConfig(lam=1.0, tol=1e-10, max_iter=1000, stop_rule=solve.STOP_STEP_NORM)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = krasnoselskij(mapping, x0, cfg)
        assert (trace.status, trace.iterations) == (solve.STATUS_DIVERGED, 9)
        assert np.isfinite(trace.iterates).all()
        # the batch of steps 8 to 15 ran past the stop, into inf and NaN
        buffer = trace.iterates.base
        assert np.isinf(buffer[14]).all() and np.isnan(buffer[15] - buffer[14]).all()
        assert_same_trace(trace, reference_krasnoselskij(mapping, x0, cfg))

    def test_a_step_past_the_limit_and_within_tol_diverges(self):
        # divergence is tested first, as step by step
        mapping = AffineMap(matrix=np.full((1, 1), 1e13 + 1.0), offset=np.zeros(1))
        cfg = SolveConfig(lam=1.0, tol=1e300, max_iter=10, stop_rule=solve.STOP_STEP_NORM)
        trace = krasnoselskij(mapping, [1.0], cfg)
        assert (trace.status, trace.iterations) == (solve.STATUS_DIVERGED, 1)
        assert_same_trace(trace, reference_krasnoselskij(mapping, [1.0], cfg))
