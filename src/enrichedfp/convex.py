"""Nearest-point projections onto closed-form-projectable convex sets.

Every supported set has an exact projection formula (clamp, radial scaling,
or an affine correction along the normal), so projections are accurate to
machine precision and inherit the usual axioms: idempotence,
nonexpansiveness, and the variational characterization
``<x - Px, z - Px> <= 0`` for all z in the set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError, InvalidConstantError
from .mappings import as_point, as_seed, stacked_dot


@dataclass(frozen=True, eq=False)
class ConvexSet:
    """Base class for projectable convex sets in R^n."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def project(self, x) -> np.ndarray:
        point = as_point(x)
        if point.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"{type(self).__name__} lives in R^{self.dim}, got dim {point.shape[0]}"
            )
        return self._project(point)

    def _project(self, point: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _project_many(self, points: np.ndarray) -> np.ndarray:
        """``_project`` at each row of an (N, dim) array of finite points, bit
        for bit, into a new array."""
        return np.stack([self._project(p) for p in points])


def _finite_vector(value, name) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=np.float64))
    if arr.ndim != 1 or not np.all(np.isfinite(arr)):
        raise InvalidConstantError(f"{name} must be a finite vector")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Box(ConvexSet):
    """Axis-aligned box {x : lower <= x <= upper}; may be degenerate."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _finite_vector(self.lower, "lower")
        hi = _finite_vector(self.upper, "upper")
        if lo.shape != hi.shape:
            raise DimensionMismatchError("box bounds have mismatched dims")
        if np.any(lo > hi):
            raise InvalidConstantError("box needs lower <= upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self):
        return self.lower.shape[0]

    def _project(self, point):
        return np.clip(point, self.lower, self.upper)

    _project_many = _project


@dataclass(frozen=True, eq=False)
class Ball(ConvexSet):
    """Euclidean ball {x : ||x - center|| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = _finite_vector(self.center, "center")
        if not (self.radius > 0.0 and np.isfinite(self.radius)):
            raise InvalidConstantError(f"radius must be > 0, got {self.radius}")
        object.__setattr__(self, "center", c)

    @property
    def dim(self):
        return self.center.shape[0]

    def _project(self, point):
        with np.errstate(over="ignore"):
            offset = point - self.center
            dist = float(np.linalg.norm(offset))
        if dist <= self.radius:
            return point.copy()
        if dist == np.inf:
            return self._project_many(point[None, :])[0]
        return self.center + (self.radius / dist) * offset

    def _project_many(self, points):
        with np.errstate(over="ignore"):
            offset = points - self.center
            dist = np.sqrt(stacked_dot(offset, offset))
        huge = dist == np.inf
        far = ~(dist <= self.radius) & ~huge
        out = points.copy()
        out[far] = self.center + (self.radius / dist[far])[:, None] * offset[far]
        if huge.any():
            # the norm overflowed: scale the offset by its largest entry first
            # (halves, so that the offset itself cannot overflow)
            unit = points[huge] / 2 - self.center / 2
            unit /= np.max(np.abs(unit), axis=1, keepdims=True)
            norm = np.sqrt(stacked_dot(unit, unit))
            out[huge] = self.center + (self.radius / norm)[:, None] * unit
        return out


@dataclass(frozen=True, eq=False)
class _Plane(ConvexSet):
    """The shared part of ``Halfspace`` and ``Hyperplane``: a finite normal
    whose squared norm, the divisor of the projection, is neither 0 nor inf,
    and a finite offset."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        kind = type(self).__name__.lower()
        a = _finite_vector(self.normal, "normal")
        with np.errstate(over="ignore"):
            sq_norm = float(a @ a)
        if not 0.0 < sq_norm < np.inf:
            raise InvalidConstantError(
                f"{kind} normal must have a squared norm in (0, inf), got {sq_norm} for {a.tolist()}"
            )
        if not np.isfinite(self.offset):
            raise InvalidConstantError(f"{kind} offset must be finite")
        object.__setattr__(self, "normal", a)

    @property
    def dim(self):
        return self.normal.shape[0]


class Halfspace(_Plane):
    """Halfspace {x : <normal, x> <= offset}."""

    def _project(self, point):
        excess = float(self.normal @ point) - self.offset
        if excess <= 0.0:
            return point.copy()
        return point - (excess / float(self.normal @ self.normal)) * self.normal

    def _project_many(self, points):
        sq_norm = float(self.normal @ self.normal)
        excess = stacked_dot(self.normal, points) - self.offset
        far = ~(excess <= 0.0)
        out = points.copy()
        out[far] -= (excess[far] / sq_norm)[:, None] * self.normal
        return out


class Hyperplane(_Plane):
    """Hyperplane {x : <normal, x> = offset}."""

    def _project(self, point):
        shift = (float(self.normal @ point) - self.offset) / float(
            self.normal @ self.normal
        )
        return point - shift * self.normal

    def _project_many(self, points):
        sq_norm = float(self.normal @ self.normal)
        shift = (stacked_dot(self.normal, points) - self.offset) / sq_norm
        return points - shift[:, None] * self.normal


def project(convex_set: ConvexSet, x) -> np.ndarray:
    """Nearest point of the set to x in the Euclidean norm."""
    return convex_set.project(x)


def distance(convex_set: ConvexSet, x) -> float:
    """Euclidean distance from x to the set; where the norm of a finite
    ``x - P(x)`` overflows, it is taken after scaling by the largest entry."""
    point = as_point(x)
    with np.errstate(over="ignore"):
        offset = point - convex_set.project(point)
        dist = float(np.linalg.norm(offset))
        if dist == np.inf and np.all(np.isfinite(offset)):
            scale = float(np.max(np.abs(offset)))
            dist = scale * float(np.linalg.norm(offset / scale))
    return dist


def contains(convex_set: ConvexSet, x, tol: float = 0.0) -> bool:
    """True iff dist(x, S) <= tol."""
    if tol < 0.0:
        raise InvalidConstantError(f"tol must be >= 0, got {tol}")
    return distance(convex_set, x) <= tol


def _sampling_window(convex_set: ConvexSet):
    """A box guaranteed to overlap the set, used to seed sampling."""
    if isinstance(convex_set, Box):
        return convex_set.lower, convex_set.upper
    if isinstance(convex_set, Ball):
        return convex_set.center - convex_set.radius, convex_set.center + convex_set.radius
    a = convex_set.normal
    anchor = (convex_set.offset / float(a @ a)) * a
    if isinstance(convex_set, Halfspace):
        anchor = anchor - a / float(np.linalg.norm(a))
    return anchor - 2.0, anchor + 2.0


def _candidates(convex_set: ConvexSet, n: int, rng, lo, hi):
    """Rounds of candidate points for rejection: ``4 n`` uniform window
    points at a time, then, for a ball whose window rounds could not fill
    the sample, ``n`` points drawn in the ball at a time."""
    for _ in range(1000):
        yield lo + rng.uniform(size=(4 * n, convex_set.dim)) * (hi - lo)
    if isinstance(convex_set, Ball):
        # the ball's share of its window, about 1e-4 at d = 13 and 2e-14 at
        # d = 30, starves the window rounds: a Gaussian direction times
        # radius * u^(1/d) is uniform in the ball
        for _ in range(1000):
            direction = rng.standard_normal((n, convex_set.dim))
            direction /= np.sqrt(stacked_dot(direction, direction))[:, None]
            radius = convex_set.radius * rng.uniform(size=n) ** (1.0 / convex_set.dim)
            yield convex_set.center + radius[:, None] * direction


def sample_points(convex_set: ConvexSet, n: int, seed: int = 0) -> np.ndarray:
    """n seeded points inside the set.

    Boxes are sampled uniformly; balls and halfspaces by rejection inside a
    window that overlaps them, a round of ``4 n`` candidates at a time, each
    kept where ``contains`` would keep it: where its distance to the set,
    the norm of ``z - P(z)``, is 0. A ball whose window rounds cannot fill
    the sample (from about 13 dimensions on) goes on with points drawn in
    the ball, under the same rule. Hyperplanes have measure zero, so window
    samples are projected onto the plane instead of rejected.
    """
    if n < 1:
        raise InvalidConstantError("need n >= 1 sample points")
    rng = np.random.default_rng(as_seed(seed))
    lo, hi = _sampling_window(convex_set)
    dim = convex_set.dim

    if isinstance(convex_set, Box):
        return lo + rng.uniform(size=(n, dim)) * (hi - lo)
    if isinstance(convex_set, Hyperplane):
        raw = lo + rng.uniform(size=(n, dim)) * (hi - lo)
        return convex_set._project_many(raw)

    out, found = [], 0
    for raw in _candidates(convex_set, n, rng, lo, hi):
        with np.errstate(over="ignore"):
            off = raw - convex_set._project_many(raw)
            out.append(raw[np.sqrt(stacked_dot(off, off)) <= 0.0])
        found += len(out[-1])
        if found >= n:
            return np.concatenate(out)[:n]
    raise InvalidConstantError(
        f"rejection sampling failed to fill {n} points for {type(convex_set).__name__}"
    )
