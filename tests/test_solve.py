import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enrichedfp import certify, solve
from enrichedfp.exceptions import (
    AutoLambdaError,
    DomainEscapeError,
    InvalidConstantError,
)
from enrichedfp.mappings import AffineMap, Reflection1D, Scale1D
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
            if ratio is not None and trace.step_norms[i - 1] >= 1e-7:
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
        assert trace.ratios[0] is None

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
