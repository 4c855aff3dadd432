"""Averaged fixed-point iteration with monitored error bounds.

The engine iterates x_{n+1} = (1 - lam) x_n + lam T(x_n) and records, for
every step, the step norm, the ratio of consecutive step norms, and (when a
contraction rate is known) two computable error bounds:

* a priori:      rate^n / (1 - rate) * ||x_1 - x_0||
* a posteriori:  rate / (1 - rate) * ||x_n - x_{n-1}||

The a posteriori bound directly dominates the true distance to the fixed
point, so it is the default stopping certificate whenever a rate is
available; otherwise the raw step norm is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import certify
from .exceptions import (
    AutoLambdaError,
    DimensionMismatchError,
    DomainEscapeError,
    InvalidConstantError,
    OutOfDomainError,
)
from .mappings import Mapping, as_point, stacked_dot

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter_reached"
STATUS_DIVERGED = "diverged"

STOP_APOSTERIORI = "aposteriori_bound"
STOP_STEP_NORM = "step_norm"
STOP_AUTO = "auto"

AUTO = "auto"

# A step norm beyond this, or any non-finite component, counts as divergence.
DIVERGENCE_LIMIT = 1e12
# Ratios are omitted (NaN, not zero) when the previous step is below this.
RATIO_MIN_STEP = 1e-15
# Rows of a trace's first iterate buffer; it doubles whenever it fills.
_FIRST_ROWS = 256
# Most steps the solver runs before it tests its stop rule on them; batches
# grow 1, 2, 4, ... up to it, so a short run computes few steps past its stop.
_MAX_BATCH = 64


def auto_lambda(k: float) -> float:
    """Averaging factor paired with enrichment constant k: 1 / (k + 1).

    k = 0 gives exactly 1, i.e. plain Picard iteration.
    """
    if not (k >= 0.0 and math.isfinite(k)):
        raise InvalidConstantError(f"enrichment constant must be >= 0, got {k}")
    return 1.0 / (k + 1.0)


def contraction_rate_kannan(a: float) -> float:
    """Step-contraction factor a / (1 - a) induced by a displacement-sum rate."""
    if not (0.0 <= a < 0.5):
        raise InvalidConstantError(f"rate must lie in [0, 1/2), got {a}")
    return a / (1.0 - a)


def rate_from_certificate(cert: certify.ContractionCertificate) -> float:
    """Step-contraction factor implied by a feasible certificate."""
    if not cert.feasible:
        raise InvalidConstantError(f"certificate is infeasible: {cert}")
    if cert.class_tag in certify._CLASSES[certify.MODE_KANNAN][:2]:
        return contraction_rate_kannan(cert.rate)
    if cert.class_tag in certify._RATE_LIMITS:
        return float(cert.rate)  # in [0, 1): a feasible certificate checks it
    raise InvalidConstantError(
        f"no contraction rate is implied by a '{cert.class_tag}' certificate"
    )


def apriori_bound(rate: float, first_step: float, n: int) -> float:
    """Bound on ||x_n - p|| from the first step norm."""
    _check_rate(rate)
    if first_step < 0.0:
        raise InvalidConstantError("step norm must be >= 0")
    if n < 1:
        raise InvalidConstantError("bound is defined for n >= 1")
    return rate**n / (1.0 - rate) * first_step


def aposteriori_bound(rate: float, last_step: float) -> float:
    """Bound on ||x_n - p|| from the latest step norm."""
    _check_rate(rate)
    if last_step < 0.0:
        raise InvalidConstantError("step norm must be >= 0")
    return rate / (1.0 - rate) * last_step


def cauchy_window_bound(rate: float, base_step: float, n: int, m: int) -> float:
    """Bound on ||x_{n+m} - x_n|| from a base step norm.

    With ``base_step = ||x_1 - x_0||`` this is the finite-window Cauchy
    estimate rate^n (1 - rate^m) / (1 - rate) * base; m -> infinity recovers
    the a priori bound, and n = 1 applied to ``||x_n - x_{n-1}||`` recovers
    the a posteriori form.
    """
    _check_rate(rate)
    if base_step < 0.0:
        raise InvalidConstantError("step norm must be >= 0")
    if n < 0 or m < 1:
        raise InvalidConstantError("window needs n >= 0 and m >= 1")
    return rate**n * (1.0 - rate**m) / (1.0 - rate) * base_step


def required_iterations(rate: float, first_step: float, eps: float) -> int:
    """Smallest n >= 1 whose a priori bound is at or below eps."""
    _check_rate(rate)
    if not (first_step > 0.0 and eps > 0.0):
        raise InvalidConstantError("need first_step > 0 and eps > 0")
    if rate == 0.0:
        return 1
    # closed-form guess, then correct for rounding at the boundary
    guess = math.log(eps * (1.0 - rate) / first_step) / math.log(rate)
    n = max(1, math.ceil(guess) - 2)
    while apriori_bound(rate, first_step, n) > eps:
        n += 1
    while n > 1 and apriori_bound(rate, first_step, n - 1) <= eps:
        n -= 1
    return n


def _check_rate(rate: float) -> None:
    if not (0.0 <= rate < 1.0):
        raise InvalidConstantError(f"contraction rate must lie in [0, 1), got {rate}")


@dataclass
class SolveConfig:
    """Configuration for a single averaged-iteration run.

    ``lam`` may be the string "auto", in which case the factor is derived
    from ``certificate`` (or from ``certify_for_auto`` on the mapping's
    domain box, sampled with seed 0, over ``k_grid``) via ``auto_lambda``;
    an infeasible certification refuses auto mode. ``rate`` defaults to the
    certificate-implied step-contraction factor when one is available and
    the chosen lam matches its pairing.
    """

    lam: float | str = AUTO
    tol: float = 1e-10
    max_iter: int = 1000
    stop_rule: str = STOP_AUTO
    rate: float | None = None
    certificate: certify.ContractionCertificate | None = None
    k_grid: tuple = certify.DEFAULT_K_GRID

    def __post_init__(self):
        if not (self.tol > 0.0):
            raise InvalidConstantError(f"tol must be > 0, got {self.tol}")
        if self.max_iter < 1:
            raise InvalidConstantError("max_iter must be >= 1")
        if self.stop_rule not in (STOP_AUTO, STOP_APOSTERIORI, STOP_STEP_NORM):
            raise InvalidConstantError(f"unknown stop rule: {self.stop_rule}")
        if isinstance(self.lam, str):
            if self.lam != AUTO:
                raise InvalidConstantError(f"lam must be a number or 'auto': {self.lam}")
        elif not (0.0 < self.lam <= 1.0):
            raise InvalidConstantError(f"lam must lie in (0, 1], got {self.lam}")
        if self.rate is not None:
            _check_rate(self.rate)


@dataclass
class IterationTrace:
    """Per-step record of an averaged-iteration run, one float64 array a column.

    ``iterates`` is a ``(rows, d)`` array whose row n is x_n, x_0 included;
    the columns have one entry per step (``rows - 1``). ``step_norms[i]`` is
    ||x_{i+1} - x_i|| and ``ratios[i]`` the quotient of consecutive step
    norms, NaN for the first step or when the previous step is below
    ``RATIO_MIN_STEP`` (a step that is itself NaN gives a NaN ratio too).
    The bound columns are arrays only when a rate is known, else None.
    Every array is writable.
    """

    iterates: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    step_norms: np.ndarray = field(default_factory=lambda: np.empty(0))
    ratios: np.ndarray = field(default_factory=lambda: np.empty(0))
    apriori: np.ndarray | None = None
    aposteriori: np.ndarray | None = None
    status: str = STATUS_MAX_ITER
    lam: float = 1.0
    rate: float | None = None
    stop_rule: str = STOP_STEP_NORM
    tol: float = 0.0

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def iterations(self) -> int:
        return len(self.step_norms)

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED


def certify_for_auto(mapping: Mapping, sample, k_grid, estimators):
    """First feasible estimate on ``sample``, trying ``estimators`` in order.

    Auto mode pairs this certificate's k with lam = 1/(k+1). Raises
    ``AutoLambdaError`` naming the sample when no estimator certifies.
    """
    for estimator in estimators:
        cert = estimator(mapping, sample, k_grid)
        if cert.feasible:
            return cert
    raise AutoLambdaError(
        f"auto lambda refused: no feasible certificate on {sample.description}"
    )


def _resolve(mapping: Mapping, cfg: SolveConfig):
    cert = cfg.certificate
    if cfg.lam == AUTO:
        if cert is None:
            if mapping.domain is None:
                raise AutoLambdaError(
                    "auto lambda needs a certificate or a bounded mapping domain "
                    "to sample for estimation"
                )
            lo, hi = mapping.domain
            sample = certify.default_sample(list(zip(lo.tolist(), hi.tolist())))
            estimators = (certify.estimate_kannan_constants, certify.estimate_bianchini_constants)
            cert = certify_for_auto(mapping, sample, cfg.k_grid, estimators)
        if not cert.feasible:
            raise AutoLambdaError(
                "auto lambda refused: certification is infeasible "
                f"({cert}); supply an explicit lam"
            )
        lam = auto_lambda(cert.k)
    else:
        lam = float(cfg.lam)

    rate = cfg.rate
    if rate is None and cert is not None and cert.feasible:
        # the certificate rate is only valid for its paired averaging factor
        if abs(lam - auto_lambda(cert.k)) <= 1e-12:
            rate = rate_from_certificate(cert)

    stop_rule = cfg.stop_rule
    if stop_rule == STOP_AUTO:
        stop_rule = STOP_APOSTERIORI if rate is not None else STOP_STEP_NORM
    if stop_rule == STOP_APOSTERIORI and rate is None:
        raise InvalidConstantError(
            "a posteriori stopping requires a known contraction rate"
        )
    return lam, rate, stop_rule


def _grown(buffer: np.ndarray, rows: int) -> np.ndarray:
    """``buffer`` copied into the first rows of a new ``rows``-row buffer."""
    grown = np.empty((rows, *buffer.shape[1:]))
    grown[: len(buffer)] = buffer
    return grown


def _first_stop(iterates, norms, first, last, scratch, scale, tol):
    """Norms of steps ``first..last`` from their rows, and the first that ends the run.

    Writes ||x_n - x_{n-1}|| into ``norms[n - 1]`` for each step n of the
    span, as ``math.sqrt(dx.dot(dx))`` gives it bit for bit, and tests each
    in order as the per-step loop did: a norm that is not at most
    ``DIVERGENCE_LIMIT`` (NaN included) diverges, else a criterion
    (``scale * step``, or the step when ``scale`` is None) at most ``tol``
    converges. Returns ``(n, status)`` of the first such step, or None.
    """
    if last < first:
        return None
    dx = np.subtract(iterates[first : last + 1], iterates[first - 1 : last], out=scratch[: last - first + 1])
    steps = np.sqrt(stacked_dot(dx, dx), out=norms[first - 1 : last])
    diverged = ~(steps <= DIVERGENCE_LIMIT)
    ends = diverged | ((steps if scale is None else scale * steps) <= tol)
    if not ends.any():
        return None
    i = int(ends.argmax())
    return first + i, STATUS_DIVERGED if diverged[i] else STATUS_CONVERGED


def krasnoselskij(mapping: Mapping, x0, cfg: SolveConfig) -> IterationTrace:
    """Run the averaged iteration x_{n+1} = (1 - lam) x_n + lam T(x_n).

    With lam = 1 this is exactly Picard iteration. Stops when the configured
    criterion drops to ``cfg.tol`` (status "converged"), on non-finite or
    exploding iterates (status "diverged"), or at ``cfg.max_iter``. A point
    leaving the mapping's domain mid-run raises ``DomainEscapeError`` with
    the offending iterate; an image of another shape than the point raises
    ``DimensionMismatchError``.

    Each iterate is written into its row of a buffer that doubles when it
    fills. The steps run in batches of 1, 2, 4, ... up to ``_MAX_BATCH``
    steps (never past ``cfg.max_iter``); a step inside a batch only maps
    and averages. After each batch the step norms of its rows are computed
    in one pass and the stop rule is tested on them in step order, so a run
    that stops inside a batch has computed up to ``_MAX_BATCH - 1`` steps
    past its stop, which are dropped. An exception raised inside a batch
    (an escaped domain, a wrong image shape, or anything the mapping
    raises) is raised only if no earlier step of the batch ends the run.
    The ratios and bounds are computed from the step norms after the loop.
    Every array, status and exception has the bits of the per-step loop.
    """
    lam, rate, stop_rule = _resolve(mapping, cfg)
    x = as_point(x0)
    d = x.shape[0]
    if d != mapping.dim:
        raise DimensionMismatchError(
            f"{type(mapping).__name__} acts on R^{mapping.dim}, got dim {d}"
        )
    max_iter = cfg.max_iter
    capacity = min(max_iter + 1, _FIRST_ROWS)
    iterates = np.empty((capacity, d))
    norms = np.empty(capacity)  # norms[n - 1] is step n's
    iterates[0] = x
    x = iterates[0]
    # 0-d arrays: a ufunc takes them faster than Python floats, with the
    # same float64 products as (1 - lam) * x + lam * T(x)
    keep, weight = np.array(1.0 - lam), np.array(lam)
    image_part = np.empty(d)
    scratch = np.empty((_MAX_BATCH, d))  # a batch's x_n - x_{n-1}
    scale = None  # the criterion is the step norm, times this when given
    if rate is not None:
        # the same expressions as apriori_bound and aposteriori_bound; rate
        # was validated by _resolve
        complement = 1.0 - rate
        aposteriori_scale = rate / complement
        if stop_rule == STOP_APOSTERIORI:
            scale = aposteriori_scale

    # x0 is checked once above and a non-finite iterate ends the run, so the
    # loop skips Mapping.apply's point checks and calls the parts it needs,
    # bound once, as are the ufuncs (their third argument is the output).
    # One np.errstate for the whole loop (about 1.5 us an entry): an iterate
    # that overflows ends the run as diverged, and warns of nothing, nor do
    # the steps a batch computes past it
    check_domain = None if mapping._widened_domain is None else mapping._check_domain
    apply, multiply, add = mapping._apply, np.multiply, np.add
    shape, tol = x.shape, cfg.tol
    n, batch, stop = 0, 1, None
    with np.errstate(over="ignore", invalid="ignore"):
        while stop is None and n < max_iter:
            first, last = n + 1, min(n + batch, max_iter)
            if last >= capacity:
                capacity = min(2 * capacity, max_iter + 1)
                iterates, norms = _grown(iterates, capacity), _grown(norms, capacity)
                x = iterates[n]
            try:
                for n, row in enumerate(iterates[first : last + 1], first):
                    if check_domain is not None:
                        try:
                            check_domain(x)
                        except OutOfDomainError as exc:
                            raise DomainEscapeError(
                                f"iterate {n - 1} escaped the mapping domain: {exc}",
                                point=x.copy(),
                                iteration=n - 1,
                            ) from exc
                    image = apply(x)
                    # checked before the arithmetic, which would broadcast it
                    if image.shape != shape:
                        raise DimensionMismatchError(
                            f"{type(mapping).__name__} maps R^{d} to shape {image.shape}"
                        )
                    multiply(x, keep, row)
                    multiply(image, weight, image_part)
                    add(row, image_part, row)
                    x = row
            except Exception:
                # step n raised: the steps before it may end the run first
                stop = _first_stop(iterates, norms, first, n - 1, scratch, scale, tol)
                if stop is None:
                    raise
                break
            stop = _first_stop(iterates, norms, first, last, scratch, scale, tol)
            batch = min(2 * batch, _MAX_BATCH)

        status = STATUS_MAX_ITER
        if stop is not None:
            n, status = stop
        norms = norms[:n]
        ratios = np.full(n, np.nan)
        # a NaN step ends the run, so every previous step is a number
        np.divide(norms[1:], norms[:-1], out=ratios[1:], where=norms[:-1] >= RATIO_MIN_STEP)
        apriori = aposteriori = None
        if rate is not None:
            # Python's rate**n: np.power rounds some powers differently
            apriori = np.fromiter(map(rate.__pow__, range(1, n + 1)), np.float64, n)
            apriori /= complement
            apriori *= norms[0]
            aposteriori = aposteriori_scale * norms

    return IterationTrace(
        iterates=iterates[: n + 1],
        step_norms=norms,
        ratios=ratios,
        apriori=apriori,
        aposteriori=aposteriori,
        status=status,
        lam=lam,
        rate=rate,
        stop_rule=stop_rule,
        tol=cfg.tol,
    )
