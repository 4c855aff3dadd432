"""Empirical certification of contraction constants on finite samples.

A certificate never claims more than it measured: the quantified inequality
is checked over all ordered pairs of a recorded sample set, and the verdict
is explicitly "on S". Violations are reported net of a per-pair rounding
guard (`_kernels.CHECK_GUARD_EPS` times the magnitudes involved): double
precision cannot resolve the inequality closer than a few ulp of the pair's
scale, so constants that satisfy it with equality still certify, while any
genuine violation dwarfs the guard.

Rate estimation inverts the inequality: for each enrichment constant k the
minimal feasible rate is the supremum of lhs/rhs-scale over pairs with
positive displacement. Zero-displacement pairs (both points fixed) either
carry a zero numerator and are ignored, or prove the constant unsatisfiable
for any finite rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import MODE_BANACH, MODE_BIANCHINI, MODE_KANNAN
from .exceptions import (
    DegenerateSampleError,
    EnrichedFPError,
    InvalidConstantError,
)
from .mappings import Mapping

KANNAN_RATE_LIMIT = 0.5
BIANCHINI_RATE_LIMIT = 1.0
BANACH_RATE_LIMIT = 1.0

# The rates a feasible certificate of each class may carry: [0, limit).
_RATE_LIMITS = {
    "kannan": KANNAN_RATE_LIMIT,
    "enriched_kannan": KANNAN_RATE_LIMIT,
    "bianchini": BIANCHINI_RATE_LIMIT,
    "enriched_bianchini": BIANCHINI_RATE_LIMIT,
    "banach": BANACH_RATE_LIMIT,
}

# Rates within this window count as equal when breaking ties between
# enrichment constants; the smallest k then wins because it yields the
# largest averaging step 1/(k+1).
RATE_TIE_TOL = 1e-12

DEFAULT_K_GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """A finite witness set for the pairwise quantifier.

    ``points`` is an (N, d) array with N >= 2, finite entries and no
    duplicate rows. ``seed`` records the generator seed of any randomized
    part so certificates are reproducible.
    """

    points: np.ndarray
    description: str
    seed: int | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] < 1:
            raise InvalidConstantError(
                f"sample must be an (N>=2, d>=1) array, got shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise InvalidConstantError("sample contains non-finite points")
        if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
            raise InvalidConstantError("sample contains duplicate points")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _dedupe_rows(points: np.ndarray) -> np.ndarray:
    """Drop exact duplicate rows, keeping first occurrences in order."""
    _, idx = np.unique(points, axis=0, return_index=True)
    return points[np.sort(idx)]


def distinct_sample(points, description: str, seed: int | None) -> SampleSet | None:
    """Sample of the distinct rows of ``points``, first occurrences in order.

    Returns None when fewer than 2 distinct rows remain, so callers can skip
    a pairwise check that has no pair to sweep.
    """
    pts = _dedupe_rows(np.asarray(points, dtype=np.float64))
    if pts.shape[0] < 2:
        return None
    return SampleSet(points=pts, description=description, seed=seed)


def _as_bounds(bounds) -> list[tuple[float, float]]:
    out = []
    for axis, pair in enumerate(bounds):
        lo, hi = float(pair[0]), float(pair[1])
        if not lo < hi:
            raise InvalidConstantError(f"bounds axis {axis}: need lo < hi, got {pair}")
        out.append((lo, hi))
    return out


def grid_sample(bounds, points_per_axis: int) -> SampleSet:
    """Uniform tensor grid over a box."""
    bounds = _as_bounds(bounds)
    if points_per_axis < 2:
        raise InvalidConstantError("need at least 2 grid points per axis")
    axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return SampleSet(
        points=pts,
        description=f"grid {points_per_axis} pts/axis on {bounds}",
        seed=None,
    )


def random_sample(bounds, n: int, seed: int) -> SampleSet:
    """Seeded uniform sample over a box."""
    bounds = _as_bounds(bounds)
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    pts = lo + rng.uniform(size=(n, len(bounds))) * (hi - lo)
    return SampleSet(
        points=pts,
        description=f"uniform random {n} pts on {bounds} (seed {seed})",
        seed=seed,
    )


def default_sample(bounds, grid_points: int = 101, random_points: int = 100, seed: int = 0) -> SampleSet:
    """Uniform grid plus seeded random points over a box.

    ``grid_points`` is the total grid budget: 1-D boxes get exactly that
    many grid points; in 2 or 3 dimensions the per-axis count is reduced so
    the grid stays near this total. Above 3 dimensions the grid is dropped
    and ``2000`` random points are used, since a pairwise sweep over a
    per-axis-dense grid would be intractable.
    """
    bounds = _as_bounds(bounds)
    dim = len(bounds)
    if dim > 3:
        return random_sample(bounds, max(random_points, 2000), seed)
    per_axis = max(2, int(round(grid_points ** (1.0 / dim))))
    grid = grid_sample(bounds, per_axis)
    parts = [grid.points]
    if random_points > 0:
        parts.append(random_sample(bounds, random_points, seed).points)
    pts = _dedupe_rows(np.concatenate(parts, axis=0))
    return SampleSet(
        points=pts,
        description=(
            f"grid {per_axis} pts/axis + {random_points} random pts on "
            f"{bounds} (seed {seed})"
        ),
        seed=seed,
    )


@dataclass(frozen=True, eq=False)
class ContractionCertificate:
    """Outcome of a pairwise contraction check on a sample set.

    ``max_violation`` is the worst guarded excess lhs - rhs over all
    distinct ordered sample pairs; the condition holds on the sample iff it
    is <= 0. ``witness`` is the (lexicographically smallest) pair attaining
    it, kept for failure forensics; it is never a pair of equal points, so a
    kernel that returned a diagonal pair fails here. ``feasible`` is False
    when the rate falls outside its class range (estimation found no
    admissible constant), and whenever ``max_violation`` is NaN or +inf: the
    kernels report a NaN pair value as +inf, so some pair was not checked.
    A certificate marked feasible with either fails here.
    """

    class_tag: str
    k: float
    rate: float | None
    max_violation: float
    witness: tuple[np.ndarray, np.ndarray] | None
    sample: SampleSet
    feasible: bool = True

    def __post_init__(self):
        if self.witness is not None and np.array_equal(*self.witness):
            raise EnrichedFPError(
                f"{self.class_tag} certificate witness is a pair of equal points: "
                f"{self.witness[0].tolist()}"
            )
        if self.feasible and not _checked(self.max_violation):
            raise EnrichedFPError(
                f"{self.class_tag} certificate marked feasible with "
                f"max_violation={self.max_violation}"
            )
        limit = _RATE_LIMITS.get(self.class_tag)
        if self.feasible and limit is not None and not 0.0 <= self.rate < limit:
            raise EnrichedFPError(
                f"{self.class_tag} certificate marked feasible with rate={self.rate} "
                f"outside [0, {limit:g})"
            )

    @property
    def satisfied(self) -> bool:
        return self.max_violation <= 0.0

    def __str__(self):
        status = "holds" if self.satisfied else "violated"
        extra = "" if self.feasible else " [infeasible]"
        return (
            f"{self.class_tag}(k={self.k:g}, rate={self.rate}) {status} on "
            f"{self.sample.size} pts: max_violation={self.max_violation:.3e}{extra}"
        )


def _checked(max_violation: float) -> bool:
    """False for a NaN or +inf violation, which a pair that was not checked leaves."""
    return not (math.isnan(max_violation) or max_violation == math.inf)


def evaluate_on(mapping: Mapping, sample: SampleSet) -> np.ndarray:
    """Evaluate a mapping over every sample point (domain errors propagate)."""
    return mapping.apply_many(sample.points)


def _witness(sample: SampleSet, idx_pair) -> tuple[np.ndarray, np.ndarray] | None:
    i, j = idx_pair
    if i < 0 or j < 0:
        return None
    return sample.points[i].copy(), sample.points[j].copy()


def _plain_or_enriched(k: float, plain: str, enriched: str) -> str:
    return plain if k == 0.0 else enriched


def check_enriched_kannan(mapping: Mapping, k: float, a: float, sample: SampleSet) -> ContractionCertificate:
    """Check the (k, a) displacement-sum condition over all sample pairs.

    For every ordered pair the guarded excess
    ``||k(x-y) + Tx - Ty|| - a (||x-Tx|| + ||y-Ty||)`` is computed; the
    certificate records the maximum and its witness pair. A pass implies the
    (k, 2a) max-displacement condition on the same sample, pair by pair and
    guard included: ``fl(u + v) <= 2 max(u, v)`` (rounding is monotone and
    doubling exact), so that rhs is at least this one, its guard grows with
    it, and the guarded excess is monotone in each rounding.
    """
    if not (k >= 0.0 and math.isfinite(k)):
        raise InvalidConstantError(f"enrichment constant must be >= 0, got {k}")
    if not (0.0 <= a < KANNAN_RATE_LIMIT):
        raise InvalidConstantError(f"rate must lie in [0, 1/2), got {a}")
    images = evaluate_on(mapping, sample)
    viol, pair = _kernels.violation_max(sample.points, images, k, a, MODE_KANNAN)
    return ContractionCertificate(
        class_tag=_plain_or_enriched(k, "kannan", "enriched_kannan"),
        k=float(k),
        rate=float(a),
        max_violation=viol,
        witness=_witness(sample, pair),
        sample=sample,
        feasible=_checked(viol),
    )


def check_enriched_bianchini(mapping: Mapping, k: float, h: float, sample: SampleSet) -> ContractionCertificate:
    """Check ``||k(x-y) + Tx - Ty|| <= h max(||x-Tx||, ||y-Ty||)`` on the sample."""
    if not (k >= 0.0 and math.isfinite(k)):
        raise InvalidConstantError(f"enrichment constant must be >= 0, got {k}")
    if not (0.0 <= h < BIANCHINI_RATE_LIMIT):
        raise InvalidConstantError(f"rate must lie in [0, 1), got {h}")
    images = evaluate_on(mapping, sample)
    viol, pair = _kernels.violation_max(sample.points, images, k, h, MODE_BIANCHINI)
    return ContractionCertificate(
        class_tag=_plain_or_enriched(k, "bianchini", "enriched_bianchini"),
        k=float(k),
        rate=float(h),
        max_violation=viol,
        witness=_witness(sample, pair),
        sample=sample,
        feasible=_checked(viol),
    )


def check_banach(mapping: Mapping, c: float, sample: SampleSet) -> ContractionCertificate:
    """Check the plain Lipschitz condition ``||Tx - Ty|| <= c ||x - y||``."""
    if not (0.0 <= c < BANACH_RATE_LIMIT):
        raise InvalidConstantError(f"rate must lie in [0, 1), got {c}")
    images = evaluate_on(mapping, sample)
    viol, pair = _kernels.violation_max(sample.points, images, 0.0, c, MODE_BANACH)
    return ContractionCertificate(
        class_tag="banach",
        k=0.0,
        rate=float(c),
        max_violation=viol,
        witness=_witness(sample, pair),
        sample=sample,
        feasible=_checked(viol),
    )


def check_monotone(operator: Mapping, sample: SampleSet) -> ContractionCertificate:
    """Check ``<Gx - Gy, x - y> >= 0`` over all distinct sample pairs.

    The certificate stores ``max_violation = -min`` so the usual
    max_violation <= 0 reading applies.
    """
    images = evaluate_on(operator, sample)
    min_inner, pair = _kernels.inner_min(sample.points, images)
    return ContractionCertificate(
        class_tag="monotone",
        k=0.0,
        rate=None,
        max_violation=-min_inner,
        witness=_witness(sample, pair),
        sample=sample,
        feasible=_checked(-min_inner),
    )


def _estimate(mapping, sample, k_grid, mode, rate_limit, plain_tag, enriched_tag):
    """The grid ``k`` with the smallest rate, as a certificate checked at that (k, rate).

    The grid is walked in order. A ``k`` replaces the best so far when its
    sup is below ``best - RATE_TIE_TOL``, or within ``RATE_TIE_TOL`` of it
    with a smaller ``k``. So the sweep of a ``k`` at or above the best ``k``
    stops once its running sup reaches ``best - RATE_TIE_TOL``
    (``ratio_sup``'s ``stop_at``): that ``k`` cannot win, and its partial sup
    is never reported. A ``k`` below the best ``k`` (on an unsorted grid),
    and every ``k`` before a best exists, sweeps every pair. So the rate and
    witness of the chosen ``k``, and the fallback witness (read only when no
    ``k`` is feasible), come from full sweeps, and the violation check at
    the chosen ``(k, rate)`` covers every pair too.
    """
    k_values = [float(k) for k in k_grid]
    if not k_values:
        raise InvalidConstantError("k grid must be nonempty")
    if any(not (k >= 0.0 and math.isfinite(k)) for k in k_values):
        raise InvalidConstantError(f"k grid entries must be finite and >= 0: {k_values}")
    images = evaluate_on(mapping, sample)
    if np.all(sample.points == images):
        raise DegenerateSampleError(
            "every sample point is fixed; no displacement to estimate against"
        )

    rank = _kernels._row_rank(sample.points)  # one tie-break order for every sweep
    best = None  # (rate, k, witness_pair)
    fallback_witness = None
    for k in k_values:
        stop_at = best[0] - RATE_TIE_TOL if best is not None and k >= best[1] else None
        sup, pair, has_pos, infeasible, zpair = _kernels.ratio_sup(
            sample.points, images, k, mode, stop_at=stop_at, rank=rank
        )
        if infeasible:
            # a zero-displacement pair with nonzero numerator, or a NaN
            # pair value, rules k out
            if fallback_witness is None:
                fallback_witness = _witness(sample, zpair)
            continue
        if not has_pos:
            continue
        if (
            best is None
            or sup < best[0] - RATE_TIE_TOL
            or (abs(sup - best[0]) <= RATE_TIE_TOL and k < best[1])
        ):
            best = (sup, k, _witness(sample, pair))

    if best is None:
        return ContractionCertificate(
            class_tag=enriched_tag,
            k=k_values[0],
            rate=math.inf,
            max_violation=math.inf,
            witness=fallback_witness,
            sample=sample,
            feasible=False,
        )

    rate, k, witness = best
    viol, _ = _kernels.violation_max(sample.points, images, k, rate, mode, rank=rank)
    return ContractionCertificate(
        class_tag=_plain_or_enriched(k, plain_tag, enriched_tag),
        k=k,
        rate=rate,
        max_violation=viol,
        witness=witness,
        sample=sample,
        feasible=rate < rate_limit and _checked(viol),
    )


def estimate_kannan_constants(mapping: Mapping, sample: SampleSet, k_grid=DEFAULT_K_GRID) -> ContractionCertificate:
    """Smallest feasible displacement-sum rate over an enrichment grid.

    For each k the minimal rate is the supremum of
    ``||k(x-y) + Tx - Ty|| / (||x-Tx|| + ||y-Ty||)`` over pairs with positive
    displacement. Returns the (k, rate) with smallest rate; ties within
    ``RATE_TIE_TOL`` break toward smaller k. The certificate is marked
    infeasible when the best rate is not below 1/2.
    """
    return _estimate(
        mapping, sample, k_grid, MODE_KANNAN, KANNAN_RATE_LIMIT, "kannan", "enriched_kannan"
    )


def estimate_bianchini_constants(mapping: Mapping, sample: SampleSet, k_grid=DEFAULT_K_GRID) -> ContractionCertificate:
    """Smallest feasible max-displacement rate over an enrichment grid."""
    return _estimate(
        mapping,
        sample,
        k_grid,
        MODE_BIANCHINI,
        BIANCHINI_RATE_LIMIT,
        "bianchini",
        "enriched_bianchini",
    )
