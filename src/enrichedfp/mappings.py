"""Self-map catalog and the averaging transform.

Mappings act on points of R^n (1-D numpy arrays of float64). Every mapping
is immutable after construction and evaluation is a pure function, so
instances can be shared freely across threads. Some catalog members are
restricted to a box domain; evaluating them outside it is an error rather
than a silent extension, because certified contraction constants are only
claimed on the declared domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import DimensionMismatchError, InvalidConstantError, OutOfDomainError

# Inputs this close to the domain box are accepted; averaging and projection
# arithmetic can overshoot a boundary by a few ulp.
DOMAIN_ATOL = 1e-9


def as_point(x) -> np.ndarray:
    """Coerce scalars/sequences to a finite 1-D float64 array.

    A 1-D float64 array comes back as it is, after one finiteness test: the
    solvers' steps pass every projection such a vector.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        arr = np.atleast_1d(arr)
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionMismatchError(f"expected a 1-D point, got shape {arr.shape}")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise InvalidConstantError(f"point has non-finite entries: {arr}")
    return arr


def frozen_copy(value) -> np.ndarray:
    """A read-only float64 copy of ``value``, C- or F-ordered as given, any
    other layout made C-contiguous.

    The value objects keep such copies: a later write to the caller's array
    cannot change them, the caller's array stays writable, and ``.dot`` hands
    a stored matrix to BLAS as it is.
    """
    arr = np.asarray(value, dtype=np.float64)
    arr = arr.copy(order="K" if arr.flags.f_contiguous else "C")
    arr.setflags(write=False)
    return arr


def as_seed(seed, name: str = "seed"):
    """``seed`` for numpy's generator, with a negative one refused by a typed
    error here rather than by numpy's untyped one."""
    if seed < 0:
        raise InvalidConstantError(f"{name} must be >= 0, got {seed}")
    return seed


def norm_dist(x, y) -> float:
    """Euclidean distance between two points of equal dimension."""
    xa, ya = as_point(x), as_point(y)
    if xa.shape != ya.shape:
        raise DimensionMismatchError(
            f"dimension mismatch: {xa.shape[0]} vs {ya.shape[0]}"
        )
    return float(np.linalg.norm(xa - ya))


# Batched twins of per-point products. A per-point product is one ``.dot``
# on BLAS-ready arrays (``frozen_copy``): gemv for ``M.dot(p)``, ddot for
# ``a.dot(p)`` and for a squared norm ``v.dot(v)``, which is what
# ``np.linalg.norm`` squares. A stacked matmul runs, item by item, that same
# BLAS call, so each row gets the per-point bits. ``P @ M.T`` (gemm),
# ``einsum`` and ``norm(axis=1)`` sum in other orders and move last bits.


def stacked_matvec(matrix: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``matrix.dot(p)`` for each row p of ``points``, bit for bit, on a C- or
    F-ordered ``matrix``."""
    return np.matmul(matrix, points[:, :, None])[:, :, 0]


def stacked_dot(a: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``a.dot(p)`` for each row p of ``points``, bit for bit; ``a`` is one vector or one per row."""
    return np.matmul(a[..., None, :], points[:, :, None])[:, 0, 0]


def _inside(points, lo, hi) -> bool:
    """Every entry of ``points`` within ``[lo, hi]``, a box already widened
    by ``DOMAIN_ATOL`` (``Mapping._widened_domain``)."""
    return not (np.any(points < lo) or np.any(points > hi))


@dataclass(frozen=True, eq=False)
class Mapping:
    """Base class for self-maps of R^n."""

    def apply(self, x) -> np.ndarray:
        point = as_point(x)
        if point.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"{type(self).__name__} acts on R^{self.dim}, got dim {point.shape[0]}"
            )
        self._check_domain(point)
        return self._apply(point)

    __call__ = apply

    def apply_many(self, points) -> np.ndarray:
        """``apply`` at each row of an (N, dim) array, stacked: the same bits in one call.

        The rows pass ``apply``'s checks as one array and go to
        ``_apply_many``. If a check fails (a wrong dimension, a non-finite
        entry, a row outside the domain, or an intermediate that ``apply``
        would reject), or the mapping has no batched form, each row goes
        through ``apply`` instead, so an error is the one ``apply`` raises at
        the first bad row.
        """
        pts = np.asarray(points, dtype=np.float64)
        images = self._batched(pts)
        if images is None:
            images = np.stack([self.apply(p) for p in pts])
        return images

    def _batched(self, points: np.ndarray) -> np.ndarray | None:
        """``_apply_many(points)`` if every row passes ``apply``'s checks, else None."""
        box = self._widened_domain
        if (
            points.ndim != 2
            or points.shape[1] != self.dim
            or not np.all(np.isfinite(points))
            or (box is not None and not _inside(points, *box))
        ):
            return None
        return self._apply_many(points)

    @property
    def dim(self) -> int:
        raise NotImplementedError

    @property
    def domain(self):
        """``(lower, upper)`` box bounds, or ``None`` when unrestricted."""
        return None

    @cached_property
    def _widened_domain(self):
        """``domain`` widened by ``DOMAIN_ATOL``, computed once; None when unrestricted."""
        box = self.domain
        if box is None:
            return None
        lo, hi = box
        return lo - DOMAIN_ATOL, hi + DOMAIN_ATOL

    def _check_domain(self, point: np.ndarray) -> None:
        box = self._widened_domain
        if box is None:
            return
        if not _inside(point, *box):
            lo, hi = self.domain
            raise OutOfDomainError(
                f"{type(self).__name__}: point {point} outside domain box "
                f"[{lo}, {hi}]"
            )

    def _apply(self, point: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _apply_many(self, points: np.ndarray) -> np.ndarray | None:
        """``_apply`` at each row of checked (N, dim) points, as a new array the
        caller may overwrite. None, as here, leaves every row to ``apply``."""
        return None


@dataclass(frozen=True, eq=False)
class Reflection1D(Mapping):
    """x -> 1 - x on [0, 1]. An isometry with fixed point 1/2."""

    @property
    def dim(self):
        return 1

    @property
    def domain(self):
        return np.array([0.0]), np.array([1.0])

    def _apply(self, point):
        return 1.0 - point

    _apply_many = _apply


@dataclass(frozen=True, eq=False)
class Scale1D(Mapping):
    """x -> c * x with an optional box restriction."""

    c: float
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if not np.isfinite(self.c):
            raise InvalidConstantError("scale factor must be finite")
        if self.bounds is not None:
            lo, hi = self.bounds
            if not lo < hi:
                raise InvalidConstantError("bounds must satisfy lo < hi")

    @property
    def dim(self):
        return 1

    @property
    def domain(self):
        if self.bounds is None:
            return None
        lo, hi = self.bounds
        return np.array([lo]), np.array([hi])

    def _apply(self, point):
        return self.c * point

    _apply_many = _apply


@dataclass(frozen=True, eq=False)
class AffineMap(Mapping):
    """x -> M x + b with a dense square matrix M."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = frozen_copy(self.matrix)
        b = frozen_copy(self.offset)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"matrix must be square, got {m.shape}")
        if b.shape != (m.shape[0],):
            raise DimensionMismatchError(
                f"offset dim {b.shape} does not match matrix {m.shape}"
            )
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(b))):
            raise InvalidConstantError("affine map entries must be finite")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", b)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def _apply(self, point):
        image = self.matrix.dot(point)
        image += self.offset
        return image

    def _apply_many(self, points):
        images = stacked_matvec(self.matrix, points)
        images += self.offset
        return images


@dataclass(frozen=True, eq=False)
class AveragedMap(Mapping):
    """The averaged mapping x -> (1 - lam) x + lam T(x).

    Shares its fixed-point set with the inner map for any lam in (0, 1];
    lam = 1 reproduces the inner map exactly.
    """

    inner: Mapping
    lam: float

    def __post_init__(self):
        if not (0.0 < self.lam <= 1.0):
            raise InvalidConstantError(
                f"averaging factor must lie in (0, 1], got {self.lam}"
            )

    @property
    def dim(self):
        return self.inner.dim

    @property
    def domain(self):
        return self.inner.domain

    def _apply(self, point):
        return (1.0 - self.lam) * point + self.lam * self.inner.apply(point)

    def _apply_many(self, points):
        inner = self.inner._batched(points)
        if inner is None:
            return None
        inner *= self.lam
        images = (1.0 - self.lam) * points
        images += inner
        return images


@dataclass(frozen=True, eq=False)
class PiecewiseTable(Mapping):
    """1-D piecewise-affine map given by a breakpoint table.

    ``breakpoints`` b_0 < ... < b_m delimit m pieces; piece i applies
    ``slopes[i] * x + intercepts[i]`` on [b_i, b_{i+1}). The map is
    right-continuous at interior breakpoints and the final piece also covers
    x = b_m. Each piece must map its interval back into [b_0, b_m], which is
    the declared domain. This is the vehicle for discontinuous
    contraction examples.
    """

    breakpoints: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray

    def __post_init__(self):
        b = frozen_copy(self.breakpoints)
        s = frozen_copy(self.slopes)
        c = frozen_copy(self.intercepts)
        if b.ndim != 1 or b.size < 2:
            raise InvalidConstantError("need at least two breakpoints")
        if not all(np.all(np.isfinite(arr)) for arr in (b, s, c)):
            raise InvalidConstantError("piecewise table entries must be finite")
        if np.any(np.diff(b) <= 0):
            raise InvalidConstantError("breakpoints must be strictly increasing")
        if s.shape != c.shape or s.shape != (b.size - 1,):
            raise DimensionMismatchError(
                "need one (slope, intercept) pair per breakpoint interval"
            )
        lo, hi = b[0], b[-1]
        ends = np.concatenate([s * b[:-1] + c, s * b[1:] + c])
        if np.any(ends < lo - 1e-12) or np.any(ends > hi + 1e-12):
            raise InvalidConstantError(
                "piece images must stay inside the breakpoint span"
            )
        for name, arr in (("breakpoints", b), ("slopes", s), ("intercepts", c)):
            object.__setattr__(self, name, arr)

    @property
    def dim(self):
        return 1

    @property
    def domain(self):
        return np.array([self.breakpoints[0]]), np.array([self.breakpoints[-1]])

    def _apply(self, point):
        x = point[0]
        idx = int(np.searchsorted(self.breakpoints, x, side="right")) - 1
        idx = min(max(idx, 0), self.slopes.size - 1)
        return np.array([self.slopes[idx] * x + self.intercepts[idx]])

    def _apply_many(self, points):
        x = points[:, 0]
        idx = np.searchsorted(self.breakpoints, x, side="right") - 1
        np.clip(idx, 0, self.slopes.size - 1, out=idx)
        return (self.slopes[idx] * x + self.intercepts[idx])[:, None]


def apply(mapping: Mapping, x) -> np.ndarray:
    """Evaluate ``mapping`` at ``x``. Deterministic, no hidden state."""
    return mapping.apply(x)


def averaged(mapping: Mapping, lam: float) -> Mapping:
    """Build the averaged mapping with relaxation factor ``lam`` in (0, 1]."""
    return AveragedMap(inner=mapping, lam=float(lam))
