"""Pairwise reduction kernels behind the contraction certifier.

Certification sweeps all distinct ordered pairs of an N-point sample, an
O(N^2 d) loop that dominates runtime for the default sample sizes. Each
kernel is one numpy pass over the pairs in blocks of B rows by N columns,
with B derived from N so that one block buffer is 256 KB and the three or
four buffers a kernel uses stay in L2 cache; the extremum and its tied
candidates are found in the same pass.

The floating-point semantics, which the brute-force oracles in
``tests/test_kernels.py`` reproduce bit for bit:

* A pair sum over coordinates starts from ``0.0`` and adds one coordinate
  at a time in index order, and the enriched difference is evaluated
  literally as ``k * (x_i - x_j) + (t_i - t_j)``. (``np.sum`` switches to
  pairwise summation from 8 terms on, so it would tie the bits to how numpy
  splits the reduction.) Per-point norms (displacement, ``||x||``,
  ``||Tx||``) are ``np.sum`` reductions.
* Ties on exactly equal values go to the pair whose points ``x_i ++ x_j``
  are lexicographically smallest, components compared as Python tuples
  compare them (so ``-0.0`` ties with ``0.0``). Pairs with equal points go
  to the first in row-major order. The order comes from a row rank computed
  once per call.
* A NaN pair value fails closed: ``violation_max`` returns ``+inf`` and
  ``inner_min`` ``-inf``, and ``ratio_sup`` reports the pair as infeasible.
  The witness is then the smallest NaN pair in the same order.
* Diagonal pairs are masked with the extremum's sentinel (``-inf`` for a
  maximum, ``+inf`` for a minimum) and are never a witness, even when every
  distinct pair ties with the sentinel.

Overflow and invalid operations on huge or non-finite inputs are expected
(their inf and NaN results go through the rules above), so each kernel runs
with those floating-point warnings off.

``perfbench/`` measures these kernels end to end and per call.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# Rounding allowance per pair: a violation must clear this to count. Double
# precision cannot resolve the contraction inequality closer than a few ulp
# of the magnitudes involved, so certificates treat sub-guard excesses as
# satisfied-at-resolution rather than as violations.
CHECK_GUARD_EPS = 8.0 * EPS

# Zero-displacement pairs with a numerator above this make the constant
# unsatisfiable for any finite rate; below it the numerator is noise.
ZERO_NUM_TOL = 1e-14

MODE_KANNAN = 0  # rhs scale: dx + dy
MODE_BIANCHINI = 1  # rhs scale: max(dx, dy)
MODE_BANACH = 2  # rhs scale: ||x - y||

# There is no compiled kernel path; tools that report the kernel setup read this.
HAVE_NUMBA = False

_BLOCK_BYTES = 1 << 18  # one B x N float64 block buffer


def _prepare(points, images):
    x = np.ascontiguousarray(points, dtype=np.float64)
    t = np.ascontiguousarray(images, dtype=np.float64)
    if x.shape != t.shape or x.ndim != 2:
        raise ValueError(f"points/images shape mismatch: {x.shape} vs {t.shape}")
    disp = np.sqrt(np.sum((x - t) ** 2, axis=-1))
    pnorm = np.sqrt(np.sum(x**2, axis=-1))
    tnorm = np.sqrt(np.sum(t**2, axis=-1))
    return x, t, disp, pnorm, tnorm


def _row_rank(x):
    """Lexicographic rank of each row; rows that compare equal share a rank."""
    n = x.shape[0]
    order = np.lexsort(x.T[::-1])
    rows = x[order]
    new = np.ones(n, dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return rank


class _Block:
    """Row block ``lo:hi`` of the pair matrix, with reusable B x N buffers."""

    def __init__(self, n, buffers):
        self.n = n
        self.rows = max(1, _BLOCK_BYTES // (8 * max(n, 1)))
        self._bufs = [np.empty((min(self.rows, n), n)) for _ in range(buffers)]

    def __iter__(self):
        for lo in range(0, self.n, self.rows):
            hi = min(lo + self.rows, self.n)
            self.lo, self.hi = lo, hi
            yield [b[: hi - lo] for b in self._bufs]

    def outer(self, op, col, out):
        """``op(col[i], col[j])`` for rows i of the block and every column j."""
        return op(col[self.lo : self.hi, None], col[None, :], out=out)

    def set_diagonal(self, vals, value):
        r = np.arange(self.hi - self.lo)
        vals[r, r + self.lo] = value

    def enriched_sq(self, xt, tt, k, acc, diff, tmp, dx_sq=None):
        """``acc = sum_c (k*(x_ic - x_jc) + (t_ic - t_jc))**2`` in index order.

        When ``dx_sq`` is given it receives ``sum_c (x_ic - x_jc)**2`` too.
        """
        acc.fill(0.0)
        if dx_sq is not None:
            dx_sq.fill(0.0)
        for xc, tc in zip(xt, tt):
            self.outer(np.subtract, xc, diff)
            if dx_sq is not None:
                np.multiply(diff, diff, out=tmp)
                dx_sq += tmp
            diff *= k
            self.outer(np.subtract, tc, tmp)
            diff += tmp
            diff *= diff
            acc += diff


class _Smallest:
    """Smallest pair under the rank order among pairs offered in row-major order."""

    def __init__(self, rank):
        self.rank = rank
        self.pair, self.key = None, -1

    def offer(self, i, j):
        if i.size == 0:
            return
        keys = self.rank[i] * self.rank.shape[0] + self.rank[j]
        p = int(np.argmin(keys))
        if self.pair is None or keys[p] < self.key:
            self.pair, self.key = (int(i[p]), int(j[p])), int(keys[p])


class _Extremum:
    """Running max (or min) of pair values over row blocks.

    Keeps the winning pair and, apart from it, the smallest pair whose value
    is NaN. Diagonal pairs, which carry the sentinel, never join the ties.
    """

    def __init__(self, rank, largest):
        self.rank = rank
        self.largest = largest
        self.value = -np.inf if largest else np.inf
        self.winner = _Smallest(rank)
        self.nan = _Smallest(rank)

    def _reduce(self, vals):
        return vals.max() if self.largest else vals.min()

    def update(self, vals, lo):
        m = self._reduce(vals)
        if np.isnan(m):
            nan = np.isnan(vals)
            i, j = np.nonzero(nan)
            self.nan.offer(i + lo, j)
            vals[nan] = -np.inf if self.largest else np.inf
            m = self._reduce(vals)
        better = m > self.value if self.largest else m < self.value
        if better:
            self.value = float(m)
            self.winner = _Smallest(self.rank)
        if better or m == self.value:
            i, j = np.nonzero(vals == m)
            off_diagonal = i + lo != j
            self.winner.offer(i[off_diagonal] + lo, j[off_diagonal])

    @property
    def pair(self):
        return self.winner.pair or (-1, -1)


def violation_max(points, images, k, rate, mode, guard_eps=CHECK_GUARD_EPS):
    """Max over distinct ordered pairs of ``lhs - rhs - guard``.

    Returns ``(max_violation, (i, j))`` where the index pair is the
    lexicographically smallest argmax. Any NaN pair value gives
    ``(inf, smallest NaN pair)``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x, t, disp, pnorm, tnorm = _prepare(points, images)
        k, rate, guard_eps = float(k), float(rate), float(guard_eps)
        xt, tt = np.ascontiguousarray(x.T), np.ascontiguousarray(t.T)
        banach = mode not in (MODE_KANNAN, MODE_BIANCHINI)
        blocks = _Block(x.shape[0], 4 if banach else 3)
        best = _Extremum(_row_rank(x), largest=True)
        for acc, diff, tmp, *extra in blocks:
            dx_sq = extra[0] if banach else None
            blocks.enriched_sq(xt, tt, k, acc, diff, tmp, dx_sq)
            num = np.sqrt(acc, out=acc)
            rhs = diff
            if mode == MODE_KANNAN:
                blocks.outer(np.add, disp, rhs)
            elif mode == MODE_BIANCHINI:
                blocks.outer(np.maximum, disp, rhs)
            else:
                np.sqrt(dx_sq, out=rhs)
            rhs *= rate
            guard = np.add(num, rhs, out=tmp)
            guard += pnorm[blocks.lo : blocks.hi, None]
            guard += pnorm
            guard += tnorm[blocks.lo : blocks.hi, None]
            guard += tnorm
            guard *= guard_eps
            viol = np.subtract(num, rhs, out=num)
            viol -= guard
            blocks.set_diagonal(viol, -np.inf)
            best.update(viol, blocks.lo)
        if best.nan.pair is not None:
            return np.inf, best.nan.pair
        return best.value, best.pair


def ratio_sup(points, images, k, mode, zero_num_tol=ZERO_NUM_TOL):
    """Supremum over positive-displacement pairs of ``lhs / rhs_scale``.

    Returns ``(sup, (i, j), has_positive, infeasible, (zi, zj))``; ``sup`` is
    ``-inf`` when no pair has positive displacement, and ``infeasible`` marks
    a zero-displacement pair whose numerator exceeds ``zero_num_tol``, or any
    pair whose ratio is NaN; ``(zi, zj)`` is then the smallest such pair,
    NaN pairs first.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, t, disp, _, _ = _prepare(points, images)
        k = float(k)
        xt, tt = np.ascontiguousarray(x.T), np.ascontiguousarray(t.T)
        rank = _row_rank(x)
        # the rhs scale is zero exactly on pairs of two fixed points
        fixed = np.flatnonzero(disp == 0.0)
        best = _Extremum(rank, largest=True)
        zero = _Smallest(rank)
        blocks = _Block(x.shape[0], 3)
        for acc, den, tmp in blocks:
            blocks.enriched_sq(xt, tt, k, acc, den, tmp)
            num = np.sqrt(acc, out=acc)
            blocks.outer(np.add if mode == MODE_KANNAN else np.maximum, disp, den)
            ratio = np.divide(num, den, out=den)
            fixed_rows = fixed[(fixed >= blocks.lo) & (fixed < blocks.hi)]
            if fixed_rows.size:
                sub = np.ix_(fixed_rows - blocks.lo, fixed)
                off_diag = fixed_rows[:, None] != fixed[None, :]
                bad_i, bad_j = np.nonzero((num[sub] > zero_num_tol) & off_diag)
                if bad_i.size:
                    zero.offer(fixed_rows[bad_i], fixed[bad_j])
                # zero pairs carry no ratio; a NaN numerator still fails closed
                ratio[sub] = np.where(np.isnan(num[sub]) & off_diag, np.nan, -np.inf)
            blocks.set_diagonal(ratio, -np.inf)
            best.update(ratio, blocks.lo)
        valid = disp[~np.isnan(disp)]
        has_pos = valid.size >= 2 and bool(np.any(valid > 0.0))
        pair = best.pair if best.value > -np.inf else (-1, -1)
        zpair = best.nan.pair or zero.pair
        return best.value, pair, has_pos, zpair is not None, zpair or (-1, -1)


def inner_min(points, images):
    """Min over distinct ordered pairs of ``<g_i - g_j, x_i - x_j>``.

    Any NaN pair value gives ``(-inf, smallest NaN pair)``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.ascontiguousarray(points, dtype=np.float64)
        g = np.ascontiguousarray(images, dtype=np.float64)
        if x.shape != g.shape or x.ndim != 2:
            raise ValueError(f"points/images shape mismatch: {x.shape} vs {g.shape}")
        xt, gt = np.ascontiguousarray(x.T), np.ascontiguousarray(g.T)
        blocks = _Block(x.shape[0], 3)
        best = _Extremum(_row_rank(x), largest=False)
        for acc, diff, tmp in blocks:
            acc.fill(0.0)
            for xc, gc in zip(xt, gt):
                blocks.outer(np.subtract, gc, diff)
                blocks.outer(np.subtract, xc, tmp)
                diff *= tmp
                acc += diff
            blocks.set_diagonal(acc, np.inf)
            best.update(acc, blocks.lo)
        if best.nan.pair is not None:
            return -np.inf, best.nan.pair
        return best.value, best.pair
