"""Empirical certification of contraction constants on finite samples.

A certificate never claims more than it measured: the quantified inequality
is checked over all ordered pairs of a recorded sample set, and the verdict
is explicitly "on S". Each pair is checked either exactly or by a per-row
bound that proves it below the maximum found (``_kernels``). Violations are
reported net of a per-pair rounding guard (`_kernels.CHECK_GUARD_EPS` times
the magnitudes involved): double precision cannot resolve the inequality
closer than a few ulp of the pair's scale, so constants that satisfy it
with equality still certify, while any genuine violation dwarfs the guard.

Each class is defined once, in ``_CLASSES``, and otherwise differs only
in its rhs scale, ``_kernels.PAIR_SCALE``. All three checks are
``_check``, and both estimators ``_estimate``.

Rate estimation inverts the inequality: for each enrichment constant k the
minimal feasible rate is the supremum of lhs/rhs-scale over pairs with
positive displacement. Zero-displacement pairs (both points fixed) either
carry a zero numerator and are ignored, or prove the constant unsatisfiable
for any finite rate.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import _kernels
from ._kernels import MODE_BANACH, MODE_BIANCHINI, MODE_KANNAN
from .exceptions import (
    DegenerateSampleError,
    EnrichedFPError,
    InvalidConstantError,
)
from .mappings import Mapping, as_seed

KANNAN_RATE_LIMIT = 0.5
BIANCHINI_RATE_LIMIT = 1.0
BANACH_RATE_LIMIT = 1.0

# Each contraction class, by kernel mode: (tag at k = 0, tag at k > 0, rate
# limit, the rate range as messages print it).
_CLASSES = {
    MODE_KANNAN: ("kannan", "enriched_kannan", KANNAN_RATE_LIMIT, "[0, 1/2)"),
    MODE_BIANCHINI: ("bianchini", "enriched_bianchini", BIANCHINI_RATE_LIMIT, "[0, 1)"),
    MODE_BANACH: ("banach", "banach", BANACH_RATE_LIMIT, "[0, 1)"),
}

# The rates a feasible certificate of each class may carry: [0, limit).
_RATE_LIMITS = {tag: limit for *tags, limit, _ in _CLASSES.values() for tag in tags}

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
    part so certificates are reproducible. ``rank`` is each row's
    lexicographic rank (``_kernels._row_rank``), computed once, here: two
    rows that share a rank are duplicates, and every sweep of the sample
    breaks its ties by it. ``distinct_sample`` hands over the rank it has
    already computed as ``_rank``.

    The sample keeps a copy of ``points``, so that no later write to the
    caller's array can change it or make two of its rows equal. The grid,
    random and distinct samples hand over new arrays that no caller holds,
    as ``_fresh``, and these are kept as they are.
    """

    points: np.ndarray
    description: str
    seed: int | None = None
    rank: np.ndarray = field(init=False, repr=False)
    _rank: InitVar[np.ndarray | None] = None
    _fresh: InitVar[bool] = False

    def __post_init__(self, _rank, _fresh):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] < 1:
            raise InvalidConstantError(
                f"sample must be an (N>=2, d>=1) array, got shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise InvalidConstantError("sample contains non-finite points")
        pts = np.ascontiguousarray(pts) if _fresh else np.array(pts, order="C")
        rank = _kernels._row_rank(pts) if _rank is None else np.asarray(_rank)
        if rank.max() + 1 != pts.shape[0]:
            raise InvalidConstantError("sample contains duplicate points")
        for array, name in ((pts, "points"), (rank, "rank")):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def distinct_sample(points, description: str, seed: int | None) -> SampleSet | None:
    """Sample of the distinct rows of ``points``, first occurrences in order.

    The rows are ranked once: the first row of each rank is kept, and the
    kept rows' ranks become the sample's ``rank``. Returns None when fewer
    than 2 distinct rows remain, so callers can skip a pairwise check that
    has no pair to sweep.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    rank = _kernels._row_rank(pts)
    first = np.full(rank.max(initial=-1) + 1, len(rank))
    np.minimum.at(first, rank, np.arange(len(rank)))
    keep = np.zeros(len(rank), dtype=bool)
    keep[first] = True
    if np.count_nonzero(keep) < 2:
        return None
    return SampleSet(points=pts[keep], description=description, seed=seed, _rank=rank[keep], _fresh=True)


def _as_bounds(bounds) -> list[tuple[float, float]]:
    out = []
    for axis, pair in enumerate(bounds):
        lo, hi = float(pair[0]), float(pair[1])
        if not lo < hi:
            raise InvalidConstantError(f"bounds axis {axis}: need lo < hi, got {pair}")
        out.append((lo, hi))
    if not out:
        raise InvalidConstantError("bounds need at least one axis")
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
        _fresh=True,
    )


def random_sample(bounds, n: int, seed: int) -> SampleSet:
    """Seeded uniform sample over a box."""
    bounds = _as_bounds(bounds)
    if n < 0:
        raise InvalidConstantError(f"n must be >= 0, got {n}")
    rng = np.random.default_rng(as_seed(seed))
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    pts = lo + rng.uniform(size=(n, len(bounds))) * (hi - lo)
    return SampleSet(
        points=pts,
        description=f"uniform random {n} pts on {bounds} (seed {seed})",
        seed=seed,
        _fresh=True,
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
    for name, count in (("grid_points", grid_points), ("random_points", random_points)):
        if count < 0:
            raise InvalidConstantError(f"{name} must be >= 0, got {count}")
    as_seed(seed)  # recorded even where no point is random
    dim = len(bounds)
    if dim > 3:
        return random_sample(bounds, max(random_points, 2000), seed)
    per_axis = max(2, int(round(grid_points ** (1.0 / dim))))
    parts = [grid_sample(bounds, per_axis).points]
    if random_points > 0:
        parts.append(random_sample(bounds, random_points, seed).points)
    return distinct_sample(
        np.concatenate(parts, axis=0),
        f"grid {per_axis} pts/axis + {random_points} random pts on {bounds} (seed {seed})",
        seed,
    )


@dataclass(frozen=True, eq=False)
class ContractionCertificate:
    """Outcome of a pairwise contraction check on a sample set.

    ``max_violation`` is the worst guarded excess lhs - rhs over all
    distinct ordered sample pairs; the condition holds on the sample iff it
    is <= 0. Each pair's excess was either computed or bounded below the
    maximum by the kernel's per-row bound, so the maximum is that of
    the full pairwise loop, bit for bit. ``witness`` is the
    (lexicographically smallest) pair attaining it, kept for failure
    forensics; it is never a pair of equal points, so a kernel that
    returned a diagonal pair fails here. ``feasible`` is False
    when the rate falls outside its class range (estimation found no
    admissible constant), and whenever ``max_violation`` is NaN or +inf: the
    kernels report a NaN pair value as +inf, so some pair was not checked.
    A certificate marked feasible with either fails here. An estimate is
    also infeasible when ``max_violation`` is positive.
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
    """Evaluate a mapping over every sample point (domain errors propagate).

    An image that overflows or is invalid is inf or NaN, which the checks
    fail closed on, so those floating-point warnings are off here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return mapping.apply_many(sample.points)


def _witness(sample: SampleSet, idx_pair) -> tuple[np.ndarray, np.ndarray] | None:
    i, j = idx_pair
    if i < 0 or j < 0:
        return None
    return sample.points[i].copy(), sample.points[j].copy()


def _check(mapping: Mapping, sample: SampleSet, k: float, rate: float, mode: int) -> ContractionCertificate:
    """Check one class's condition at ``(k, rate)`` over all ordered sample pairs."""
    plain, enriched, limit, span = _CLASSES[mode]
    if not (k >= 0.0 and math.isfinite(k)):
        raise InvalidConstantError(f"enrichment constant must be >= 0, got {k}")
    if not (0.0 <= rate < limit):
        raise InvalidConstantError(f"rate must lie in {span}, got {rate}")
    images = evaluate_on(mapping, sample)
    viol, pair = _kernels.violation_max(sample.points, images, k, rate, mode, rank=sample.rank)
    return ContractionCertificate(
        class_tag=plain if k == 0.0 else enriched,
        k=float(k),
        rate=float(rate),
        max_violation=viol,
        witness=_witness(sample, pair),
        sample=sample,
        feasible=_checked(viol),
    )


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
    return _check(mapping, sample, k, a, MODE_KANNAN)


def check_enriched_bianchini(mapping: Mapping, k: float, h: float, sample: SampleSet) -> ContractionCertificate:
    """Check ``||k(x-y) + Tx - Ty|| <= h max(||x-Tx||, ||y-Ty||)`` on the sample."""
    return _check(mapping, sample, k, h, MODE_BIANCHINI)


def check_banach(mapping: Mapping, c: float, sample: SampleSet) -> ContractionCertificate:
    """Check the plain Lipschitz condition ``||Tx - Ty|| <= c ||x - y||``."""
    return _check(mapping, sample, 0.0, c, MODE_BANACH)


def check_monotone(operator: Mapping, sample: SampleSet) -> ContractionCertificate:
    """Check ``<Gx - Gy, x - y> >= 0`` over all distinct sample pairs.

    The certificate stores ``max_violation = -min`` so the usual
    max_violation <= 0 reading applies.
    """
    images = evaluate_on(operator, sample)
    min_inner, pair = _kernels.inner_min(sample.points, images, rank=sample.rank)
    return ContractionCertificate(
        class_tag="monotone",
        k=0.0,
        rate=None,
        max_violation=-min_inner,
        witness=_witness(sample, pair),
        sample=sample,
        feasible=_checked(-min_inner),
    )


def _probe(points, images, k_values, mode):
    """Each ``k``'s ``(sup, infeasible)`` over the probe pairs.

    The probe pairs are the pivot row, the first of least displacement (NaN
    displacements last), against every other row. On an orbit sample the
    pivot is the newest iterate, nearest the fixed point. Its pairs settle
    97 of the 98 losing ``k`` of a pass over the benchmark's three
    certifying workloads (``_estimate``).

    A pair's value has the bits of the kernels' sweeps: the literal
    ``k * (x_i - x_j) + (t_i - t_j)``, squared and summed in index order
    from ``0.0`` (a square is never ``-0.0``, so the first coordinate's
    square is that sum's first partial sum), its square root over
    ``_kernels.PAIR_SCALE[mode]`` of the two displacements. So ``sup``,
    the largest ratio of a pair with a positive scale, is the value of a
    pair every full sweep covers: a lower bound on that ``k``'s full sup,
    bit for bit, or ``-inf`` with no such pair. ``infeasible`` marks a NaN
    ratio, or a pair of two fixed rows whose numerator is NaN or exceeds
    ``_kernels.ZERO_NUM_TOL``; NaN ratios count nowhere in ``sup``.

    The pairs are laid out ``(d, n)``, one column each, so that the sum
    over the coordinates adds whole rows; the pivot's own column is no
    pair and counts nowhere. There are three such arrays, made once a call.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        disp = _kernels._displacements(points, images)
        pivot = int(np.argmax(disp == np.fmin.reduce(disp)))  # fmin passes over NaN
        dx = np.subtract(points[pivot, :, None], points.T, order="C")
        dt = np.subtract(images[pivot, :, None], images.T, order="C")
        scale = _kernels.PAIR_SCALE[mode](disp[pivot], disp)
        zero = np.flatnonzero(scale == 0.0)  # both rows fixed
        zero = zero[zero != pivot]
        sq, ratio = np.empty_like(dx), np.empty_like(scale)
        probes = []
        for k in k_values:
            np.multiply(dx, k, out=sq)
            sq += dt
            sq *= sq
            num = sq[0]
            for term in sq[1:]:
                num += term
            np.sqrt(num, out=num)
            np.divide(num, scale, out=ratio)
            # a zero pair carries no ratio, and rules k out unless its
            # numerator is at most ZERO_NUM_TOL
            infeasible = not np.all(num[zero] <= _kernels.ZERO_NUM_TOL)
            ratio[zero] = -np.inf
            ratio[pivot] = -np.inf
            sup = ratio.max()
            if math.isnan(sup):  # a NaN ratio: the sup of the others
                infeasible = True
                sup = np.fmax.reduce(ratio)
            probes.append((-math.inf if math.isnan(sup) else float(sup), infeasible))
    return probes


def _prune_bound(s_ref, n):
    """The sup at which a sweep may stop, once ``s_ref`` is the smallest full
    sup of a feasible ``k`` among ``n``; None when it is not finite."""
    bound = s_ref + 2 * n * (RATE_TIE_TOL + 4 * _kernels.EPS * abs(s_ref))
    return bound if math.isfinite(bound) else None


def _pick(k_values, outcomes):
    """The grid-order rule: ``(index of the chosen k, index of the first infeasible k)``.

    ``outcomes[i]`` is ``ratio_sup``'s full result at ``k_values[i]``, or
    None for a pruned ``k``, which is passed over. A ``k`` replaces the
    best so far when its sup is below ``best - RATE_TIE_TOL``, or within
    ``RATE_TIE_TOL`` of it with a smaller ``k``. Either index is None when
    there is no such ``k``.
    """
    best = fallback = None
    for i, outcome in enumerate(outcomes):
        if outcome is None:
            continue
        sup, _, infeasible, _ = outcome
        if infeasible:
            # a zero-displacement pair with nonzero numerator, or a NaN
            # pair value, rules k out
            if fallback is None:
                fallback = i
            continue
        if sup == -math.inf:  # no pair has a positive rhs scale
            continue
        top = None if best is None else outcomes[best][0]
        if (
            best is None
            or sup < top - RATE_TIE_TOL
            or (abs(sup - top) <= RATE_TIE_TOL and k_values[i] < k_values[best])
        ):
            best = i
    return best, fallback


# The winning sweep of the last estimate, for an estimate of the other class
# on the same sample right after it, under the key "sweep": (mode, weak
# reference to the sample, images, chosen k, that k's SweepRecord). A dict,
# so that an estimate takes and clears it in one step, ``pop``.
_parked = {}


def _handed_over(parked, sample, images, mode):
    """``parked``'s ``(k, record)`` when it is the other class's winning sweep
    on this very sample with these images, bit for bit; else None."""
    if parked is None:
        return None
    other, ref, seen, k, record = parked
    if other == mode or ref() is not sample:
        return None
    if (seen.dtype, seen.shape, seen.tobytes()) != (images.dtype, images.shape, images.tobytes()):
        return None
    return k, record


def _estimate(mapping, sample, k_grid, mode):
    """The grid ``k`` with the smallest rate, as a certificate checked at that (k, rate).

    The chosen ``k`` is ``_pick``'s over every ``k``'s full ratio sup, in
    grid order. Each ``k`` is swept at most once, in another order, and
    most sweeps stop early or are never made:

    * The ``k`` are swept in ascending ``_probe`` sup, over the pivot
      row's pairs, ``+inf`` for a ``k`` that those pairs show infeasible,
      ties by grid index, so that the winner tends to come first.
    * Once some ``k`` has a feasible full sup, with ``s_ref`` the smallest
      so far, each later ``k`` is held to ``_prune_bound(s_ref, n)``,
      about ``s_ref + 2 n RATE_TIE_TOL`` for ``n = len(k_grid)``. A ``k``
      whose probe sup reaches the bound is settled before any sweep:
      ``ratio_sup`` gets the probe sup as ``lower`` and returns it at
      once, since a pair's value is a lower bound on the full sup.
      Otherwise its sweep stops after the first block at which its running
      sup reaches the bound. A ``k`` whose sup reaches the bound, on the
      probe pairs or in its sweep, is pruned: ``_pick`` passes over it.
      Every other sweep covered every pair.

    The proof below needs only that a pruned ``k``'s full sup reaches its
    bound, which the value of any one pair shows; so which pairs the probe
    reads sets the order and the work, not the certificate.

    Pruning never changes the pick. Let ``T = RATE_TIE_TOL``, ``m`` the
    smallest full sup of a feasible ``k`` and ``θ = m + 2nT``; each bound
    is at least ``θ``, so each pruned sup is too. Replay the rule in grid
    order on all candidates and on those left after pruning.

    1. A step keeps the best, the candidate being at least ``best - T``;
       or replaces it by a candidate more than ``T`` lower; or by one
       within ``T`` with a smaller ``k``. So after a candidate ``c`` the
       best is at most ``c + T`` and rises by at most ``T`` a step.
    2. A candidate at or above ``θ`` acts only on a best at or above
       ``θ - T``. So where the replays first part, at step ``s``, (1) puts
       every candidate so far at or above ``θ - sT``. Apart, the lower of
       the two bests falls by at most ``T`` a step, unless a candidate
       more than ``T`` below both replaces both and they meet again. At
       ``m``'s step that lower best is at least ``θ - (n-1)T > m + T``, so
       they meet there at the latest.
    3. After ``m`` the best is at most ``m + nT < θ - T`` by (1), so no
       candidate at or above ``θ`` acts again.

    So both replays end on the same ``k``. A margin of ``(n-1)T`` would not
    do: sups ``0, T, 2T, 3T`` at ``k = 3, 2, 1, 0`` pick the last. The
    bound adds ``8 n eps |s_ref|`` for rounding in the rule's two
    comparisons, and is dropped when it is not finite (an infinite
    ``s_ref`` ties with nothing, so every infinite sup must be kept).

    The rate and witness of the chosen ``k`` come from its full sweep, and
    the violation check at the chosen ``(k, rate)`` covers every pair. The
    check reuses that sweep (``_kernels.SweepRecord``): its row order, its
    row bounds and the numerators of its leading blocks, which it reads in
    place of computing them again, with the same bits.
    The fallback witness, read only when no ``k`` is feasible, comes from
    the first infeasible ``k`` in grid order.

    The two classes share their numerators, so an estimate hands its
    winning sweep to an estimate of the other class that follows it on the
    same sample. Every estimate first takes what the last one parked
    (``_parked``) and clears it. It uses the parked record only when it is
    the other class's, on this same ``SampleSet`` object, with images equal
    bit for bit: then its sweep at the parked ``k`` reads that record's row
    order, row bounds and numerators in place of its own, and it parks
    nothing. Otherwise, once it has chosen a ``k``, it parks that ``k``'s
    record. So a record serves one estimate after its own, and an estimate
    repeated on one sample still sweeps each time; an estimate that raises
    or finds no ``k`` parks nothing.

    The estimate is feasible only when its rate is inside the class range
    and the check holds: ``max_violation <= 0``, which a NaN or +inf
    violation fails too. The rate sweep passes over a pair of two fixed
    points whose numerator is at most ``ZERO_NUM_TOL``, but the check
    counts it, so a rate can be in range while a pair violates it.
    """
    parked = _parked.pop("sweep", None)
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
    handed = _handed_over(parked, sample, images, mode)
    del parked  # a record not taken is freed before the sweeps

    rank = sample.rank  # one tie-break order for every sweep
    probes = _probe(sample.points, images, k_values, mode)
    guesses = [math.inf if infeasible else sup for sup, infeasible in probes]
    outcomes = [None] * len(k_values)
    records = [None] * len(k_values)  # each unpruned sweep's, for the check
    s_ref = None  # the smallest full sup of a feasible k so far
    for i in sorted(range(len(k_values)), key=lambda i: (guesses[i], i)):
        stop_at = None if s_ref is None else _prune_bound(s_ref, len(k_values))
        record = handed[1] if handed is not None and k_values[i] == handed[0] else _kernels.SweepRecord()
        outcome = _kernels.ratio_sup(
            sample.points, images, k_values[i], mode,
            stop_at=stop_at, rank=rank, lower=probes[i][0], record=record,
        )
        sup, _, infeasible, _ = outcome
        if stop_at is not None and sup >= stop_at:
            continue
        outcomes[i], records[i] = outcome, record
        if not infeasible and sup > -math.inf and (s_ref is None or sup < s_ref):
            s_ref = sup

    plain, enriched, limit, _ = _CLASSES[mode]
    best, fallback = _pick(k_values, outcomes)
    if best is None:
        return ContractionCertificate(
            class_tag=enriched,
            k=k_values[0],
            rate=math.inf,
            max_violation=math.inf,
            witness=None if fallback is None else _witness(sample, outcomes[fallback][3]),
            sample=sample,
            feasible=False,
        )

    k, rate, pair = k_values[best], outcomes[best][0], outcomes[best][1]
    viol, _ = _kernels.violation_max(sample.points, images, k, rate, mode, rank=rank, record=records[best])
    if handed is None:
        _parked["sweep"] = (mode, weakref.ref(sample), images, k, records[best])
    return ContractionCertificate(
        class_tag=plain if k == 0.0 else enriched,
        k=k,
        rate=rate,
        max_violation=viol,
        witness=_witness(sample, pair),
        sample=sample,
        feasible=rate < limit and viol <= 0.0,
    )


def estimate_kannan_constants(mapping: Mapping, sample: SampleSet, k_grid=DEFAULT_K_GRID) -> ContractionCertificate:
    """Smallest feasible displacement-sum rate over an enrichment grid.

    For each k the minimal rate is the supremum of
    ``||k(x-y) + Tx - Ty|| / (||x-Tx|| + ||y-Ty||)`` over pairs with positive
    displacement. Returns the (k, rate) with smallest rate; ties within
    ``RATE_TIE_TOL`` break toward smaller k. The certificate is marked
    infeasible when the best rate is not below 1/2.
    """
    return _estimate(mapping, sample, k_grid, MODE_KANNAN)


def estimate_bianchini_constants(mapping: Mapping, sample: SampleSet, k_grid=DEFAULT_K_GRID) -> ContractionCertificate:
    """Smallest feasible max-displacement rate over an enrichment grid."""
    return _estimate(mapping, sample, k_grid, MODE_BIANCHINI)
