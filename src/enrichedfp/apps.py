"""Split-feasibility and variational-inequality solvers.

Both problems are reformulated as fixed-point problems of projection-based
operators and handed to the averaged-iteration engine:

* split feasibility (find x in C with Ax in Q):
      T(x) = P_C(x - gamma A^T (Ax - P_Q(Ax))),  gamma in (0, 2/rho),
  where rho is the largest eigenvalue of A^T A;
* variational inequality (find x* in C with <G x*, z - x*> >= 0 on C):
      T(x) = P_C(x - gamma G(x)),  gamma > 0.

Whether such an operator satisfies a displacement-based contraction
condition is not analytically checkable for generic instances, so each
solve attaches an empirical certificate attempt (estimated on the orbit
plus surrounding random points) and reports its verdict alongside the
solution instead of refusing to run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import certify, convex, solve
from .certify import ContractionCertificate, SampleSet
from .exceptions import (
    AutoLambdaError,
    DegenerateSampleError,
    DimensionMismatchError,
    GammaRangeError,
    InvalidConstantError,
)
from .mappings import Mapping, as_point, as_seed, frozen_copy, stacked_matvec

POWER_REL_TOL = 1e-12
POWER_MAX_ITER = 10000


def power_iteration(matrix: np.ndarray, rel_tol: float = POWER_REL_TOL, max_iter: int = POWER_MAX_ITER):
    """Dominant eigenpair of a symmetric PSD matrix by power iteration.

    Starts from the normalized all-ones vector; if an iterate lands in the
    nullspace the start is perturbed deterministically by cycling through
    basis vectors. Stops when the relative residual ||Bx - lam x|| <=
    rel_tol * lam. Returns ``(eigenvalue, vector, converged, iterations)``.
    """
    b = np.asarray(matrix, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got {b.shape}")
    n = b.shape[0]
    x = np.ones(n) / np.sqrt(n)
    lam = 0.0
    stall = 0
    # each product is one BLAS call (.dot), each norm math.sqrt(v.dot(v)):
    # the bits of @ on a C- or F-ordered matrix, and of np.linalg.norm
    for it in range(1, max_iter + 1):
        y = b.dot(x)
        norm_y = math.sqrt(y.dot(y))
        if norm_y == 0.0:
            x = np.zeros(n)
            x[stall % n] = 1.0
            stall += 1
            continue
        x = y / norm_y
        bx = b.dot(x)
        lam = float(x.dot(bx) / x.dot(x))
        r = bx - lam * x
        residual = math.sqrt(r.dot(r))
        if residual <= rel_tol * abs(lam):
            return lam, x, True, it
    return lam, x, False, max_iter


def spectral_radius_ata(a_matrix: np.ndarray) -> float:
    """Largest eigenvalue of A^T A (squared spectral norm of A)."""
    a = np.asarray(a_matrix, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatchError(f"matrix must be 2-D, got shape {a.shape}")
    if not np.any(a != 0.0):
        raise InvalidConstantError("matrix must be nonzero")
    lam, _, converged, _ = power_iteration(a.T @ a)
    if not converged:
        warnings.warn(
            "power iteration hit its iteration cap; reporting the best "
            f"eigenvalue estimate {lam!r}",
            RuntimeWarning,
            stacklevel=2,
        )
    return lam


@dataclass(frozen=True, eq=False)
class SfpInstance:
    """A split feasibility problem: find x in C with Ax in Q."""

    c_set: convex.ConvexSet
    q_set: convex.ConvexSet
    matrix: np.ndarray
    gamma: float | str = solve.AUTO

    def __post_init__(self):
        a = frozen_copy(self.matrix)
        if a.ndim != 2:
            raise DimensionMismatchError(f"matrix must be 2-D, got {a.shape}")
        if a.shape[1] != self.c_set.dim or a.shape[0] != self.q_set.dim:
            raise DimensionMismatchError(
                f"matrix {a.shape} does not map C (R^{self.c_set.dim}) "
                f"into Q's space (R^{self.q_set.dim})"
            )
        if not np.all(np.isfinite(a)):
            raise InvalidConstantError("matrix entries must be finite")
        object.__setattr__(self, "matrix", a)
        if isinstance(self.gamma, str):
            if self.gamma != solve.AUTO:
                raise InvalidConstantError(f"gamma must be a number or 'auto': {self.gamma}")
        elif not (self.gamma > 0.0 and np.isfinite(self.gamma)):
            raise InvalidConstantError(f"gamma must be > 0, got {self.gamma}")


@dataclass(frozen=True, eq=False)
class VipInstance:
    """A variational inequality over C for the operator G."""

    c_set: convex.ConvexSet
    operator: Mapping
    gamma: float

    def __post_init__(self):
        if self.operator.dim != self.c_set.dim:
            raise DimensionMismatchError(
                f"operator acts on R^{self.operator.dim} but C lives in "
                f"R^{self.c_set.dim}"
            )
        if not (self.gamma > 0.0 and np.isfinite(self.gamma)):
            raise InvalidConstantError(f"gamma must be > 0, got {self.gamma}")


@dataclass(frozen=True, eq=False)
class SfpOperator(Mapping):
    """T(x) = P_C(x - gamma A^T (Ax - P_Q(Ax))).

    Members of C with Ax in Q are exactly its fixed points when the problem
    is consistent.
    """

    instance: SfpInstance
    gamma: float
    rho: float

    @property
    def dim(self):
        return self.instance.c_set.dim

    def _apply(self, point):
        inst = self.instance
        image = inst.matrix.dot(point)
        residual = image - inst.q_set.project(image)
        gradient = inst.matrix.T.dot(residual)
        return inst.c_set.project(point - self.gamma * gradient)

    def _apply_many(self, points):
        # None where a projection's point check would reject a row
        inst = self.instance
        images = stacked_matvec(inst.matrix, points)
        if not np.all(np.isfinite(images)):
            return None
        residual = np.subtract(images, inst.q_set._project_many(images), out=images)
        gradient = stacked_matvec(inst.matrix.T, residual)
        gradient *= self.gamma
        step = np.subtract(points, gradient, out=gradient)
        if not np.all(np.isfinite(step)):
            return None
        return inst.c_set._project_many(step)


@dataclass(frozen=True, eq=False)
class VipOperator(Mapping):
    """T(x) = P_C(x - gamma G(x)); fixed points solve the inequality."""

    instance: VipInstance

    @property
    def dim(self):
        return self.instance.c_set.dim

    @property
    def domain(self):
        return self.instance.operator.domain

    def _apply(self, point):
        inst = self.instance
        return inst.c_set.project(point - inst.gamma * inst.operator.apply(point))

    def _apply_many(self, points):
        # None where the operator's or the projection's checks would reject a row
        inst = self.instance
        step = inst.operator._batched(points)
        if step is None:
            return None
        step *= inst.gamma
        np.subtract(points, step, out=step)
        if not np.all(np.isfinite(step)):
            return None
        return inst.c_set._project_many(step)


def sfp_operator(instance: SfpInstance) -> SfpOperator:
    """Build the projection operator, resolving gamma against rho.

    ``gamma="auto"`` picks 1/rho, the midpoint of the admissible interval
    (0, 2/rho); explicit values outside that interval are rejected.
    """
    rho = spectral_radius_ata(instance.matrix)
    if rho <= 0.0:
        raise InvalidConstantError("A^T A has no positive eigenvalue")
    gamma = 1.0 / rho if instance.gamma == solve.AUTO else float(instance.gamma)
    if not (0.0 < gamma < 2.0 / rho):
        raise GammaRangeError(
            f"gamma={gamma} outside (0, 2/rho) with rho={rho}"
        )
    return SfpOperator(instance=instance, gamma=gamma, rho=rho)


def vip_operator(instance: VipInstance) -> VipOperator:
    return VipOperator(instance=instance)


@dataclass
class SfpResult:
    """Solve outcome plus feasibility residuals and a certificate attempt."""

    trace: solve.IterationTrace
    point: np.ndarray
    residual_c: float
    residual_q: float
    feasible: bool
    gamma: float
    rho: float
    certificate: ContractionCertificate | None
    certificate_note: str


@dataclass
class VipResult:
    """Solve outcome plus the sampled inequality residual and certificates."""

    trace: solve.IterationTrace
    point: np.ndarray
    vi_residual: float
    vi_ok: bool
    gamma: float
    monotone_certificate: ContractionCertificate | None
    certificate: ContractionCertificate | None
    certificate_note: str


def _orbit_sample(trace: solve.IterationTrace, seed: int, domain) -> SampleSet | None:
    """Orbit iterates, newest first, plus 100 seeded random points in an inflated orbit box.

    The box is cut to the operator's ``domain`` box, if it has one.

    The row order decides no bit of a certificate: each pair's value holds
    for both orientations, and ties and witnesses go by lexicographic row
    rank, not by row index. It sets only how soon the sweeps find the sup.
    The largest ratios sit near the fixed point, among the newest iterates,
    so with those first each sweep meets the sup in its first block; losing
    ``k`` stop there, and the violation check can skip the later blocks.
    """
    orbit = trace.iterates[::-1]
    lo = orbit.min(axis=0)
    hi = orbit.max(axis=0)
    margin = np.maximum(0.5 * (hi - lo), 0.5)
    lo, hi = lo - margin, hi + margin
    if domain is not None:
        lo, hi = np.maximum(lo, domain[0]), np.minimum(hi, domain[1])
    rng = np.random.default_rng(seed)
    extra = lo + rng.uniform(size=(100, orbit.shape[1])) * (hi - lo)
    return certify.distinct_sample(
        np.concatenate([orbit, extra]),
        f"orbit ({trace.iterations + 1} iterates) + 100 random pts (seed {seed})",
        seed,
    )


def _attempt_certificate(operator, trace, seed, k_grid, estimator):
    sample = _orbit_sample(trace, seed, operator.domain)
    if sample is None:
        return None, "certification skipped: orbit collapses to fewer than 2 points"
    try:
        cert = estimator(operator, sample, k_grid)
    except DegenerateSampleError as exc:
        return None, f"certification skipped: {exc}"
    note = "certified" if cert.feasible else "certification infeasible on sample"
    return cert, note


def _solve(operator, c_set, cfg, start, seed, k_grid, estimators):
    """The projection-type solve shared by SFP and VIP: ``(trace, certificate, note)``.

    Auto lambda without a certificate takes the first feasible estimate in
    ``estimators`` order over 200 seeded points in C. After the run, the
    orbit certificate attempt uses ``estimators[0]``; a diverged run has
    no orbit to certify, and skips it.
    """
    if cfg.lam == solve.AUTO and cfg.certificate is None:
        sample = certify.distinct_sample(
            convex.sample_points(c_set, 200, seed), f"200 seeded pts in C (seed {seed})", seed
        )
        if sample is None:
            raise AutoLambdaError("auto lambda refused: C collapses to a single point")
        cfg = replace(cfg, certificate=solve.certify_for_auto(operator, sample, k_grid, estimators))
    trace = solve.krasnoselskij(operator, start, cfg)
    if trace.status == solve.STATUS_DIVERGED:
        return trace, None, "certification skipped: the iteration diverged"
    return (trace, *_attempt_certificate(operator, trace, seed, k_grid, estimators[0]))


def solve_sfp(
    instance: SfpInstance,
    cfg: solve.SolveConfig,
    x0,
    feas_tol: float = 1e-8,
    cert_seed: int = 0,
    k_grid=certify.DEFAULT_K_GRID,
) -> SfpResult:
    """Run the averaged iteration on the split-feasibility operator.

    The start point is projected onto C. After the run, feasibility is
    measured by dist(x*, C) and ||Ax* - P_Q(Ax*)||; converging to a fixed
    point with residuals above ``feas_tol`` flags the instance as
    inconsistent (a distinct outcome, not an error). An estimation-based
    certificate attempt over the orbit is attached either way. Auto lambda
    without a certificate certifies on C, displacement-sum class first.
    """
    operator = sfp_operator(instance)
    trace, cert, note = _solve(
        operator, instance.c_set, cfg, instance.c_set.project(as_point(x0)),
        as_seed(cert_seed, "cert_seed"), k_grid,
        (certify.estimate_kannan_constants, certify.estimate_bianchini_constants),
    )
    point = trace.final
    residual_c = convex.distance(instance.c_set, point)
    image = instance.matrix @ point
    residual_q = float(np.linalg.norm(image - instance.q_set.project(image)))
    feasible = residual_c <= feas_tol and residual_q <= feas_tol
    return SfpResult(
        trace=trace,
        point=point,
        residual_c=residual_c,
        residual_q=residual_q,
        feasible=feasible,
        gamma=operator.gamma,
        rho=operator.rho,
        certificate=cert,
        certificate_note=note,
    )


def solve_vip(
    instance: VipInstance,
    cfg: solve.SolveConfig,
    x0,
    vi_tol: float = 1e-8,
    n_samples: int = 100,
    seed: int = 0,
    k_grid=certify.DEFAULT_K_GRID,
) -> VipResult:
    """Run the averaged iteration on the variational-inequality operator.

    The inequality is verified a posteriori: over ``n_samples`` seeded
    points z in C, min <G(x*), z - x*> must not drop below ``-vi_tol``;
    ``vi_ok`` is False too when the residual is not finite or the run
    diverged. A monotonicity certificate for G over the same region and a
    max-displacement certification attempt for the operator are attached.
    Auto lambda without a certificate certifies on C, max-displacement first.
    """
    operator = vip_operator(instance)
    trace, cert, note = _solve(
        operator, instance.c_set, cfg, as_point(x0), as_seed(seed), k_grid,
        (certify.estimate_bianchini_constants, certify.estimate_kannan_constants),
    )
    point = trace.final
    samples = convex.sample_points(instance.c_set, n_samples, seed)
    # G may overflow at the point a diverged run ends on; the residual is then inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        g_at_point = instance.operator.apply(point)
        vi_residual = float(np.min((samples - point) @ g_at_point))
    # an infinite residual (G overflowing at a diverged point) proves nothing
    vi_ok = trace.status != solve.STATUS_DIVERGED and -vi_tol <= vi_residual < math.inf

    mono_sample = certify.distinct_sample(
        samples, f"{n_samples} seeded pts in C (seed {seed})", seed
    )
    mono_cert = None
    if mono_sample is not None:
        mono_cert = certify.check_monotone(instance.operator, mono_sample)
    return VipResult(
        trace=trace,
        point=point,
        vi_residual=vi_residual,
        vi_ok=vi_ok,
        gamma=instance.gamma,
        monotone_certificate=mono_cert,
        certificate=cert,
        certificate_note=note,
    )
