"""Pairwise reduction kernels behind the contraction certifier.

Certification sweeps all distinct ordered pairs of an N-point sample, an
O(N^2 d) loop that dominates runtime for the default sample sizes. Each
kernel is one numpy pass over the pairs i < j only, each unordered pair
once, in upper-triangle blocks: a block pairs rows ``lo:hi`` with columns
``lo:n``. Each block is a contiguous ``(hi - lo, n - lo)`` view of a flat
256 KB buffer that starts on a cache line, so the blocks grow taller as
the columns right of the diagonal run out, and the three buffers a kernel
uses stay in L2 cache; the extremum and its tied candidates are found in
the same pass. Every kernel sets its sweep up in ``_sweep``.
Entries left of a block's diagonal repeat pairs found right of it and are
passed over.

The enriched Kannan and Bianchini conditions differ in one place only: a
pair's rhs scale is the sum or the maximum of its two displacements
``||x - Tx||``, ``PAIR_SCALE[mode]``. A mode with no entry there is the
Banach baseline, whose rhs scale is ``||x_i - x_j||``.

One pass over i < j gives the bits of a pass over all ordered pairs.
Round-to-nearest is sign-symmetric, so ``k * (x_i - x_j) + (t_i - t_j)``
is the exact negative of the (j, i) term, with the same square, and the
pair sum starts from ``+0.0``, so a ``-0.0`` term cannot change it;
``disp_i + disp_j``, ``maximum`` and ``(g_i - g_j) * (x_i - x_j)``
commute. So a ``ratio_sup`` or ``inner_min`` value holds for both
orientations, and a winning or NaN pair is reported in the orientation
that comes first in the tie-break order below. ``violation_max`` shares
the numerator and the rhs between the two orientations but adds its guard
terms once per ordered pair, in that pair's order, since ``p_i + p_j`` and
``p_j + p_i`` can round differently.

Each kernel sweeps its blocks on the calling thread with numpy's ufunc
buffer cut to ``_UFUNC_BUFSIZE`` (256) elements. A block is narrower than
numpy's default buffer of 8192 elements, and below that width numpy copies
the broadcast operands ``col[lo:hi, None]`` and ``col[None, lo:]`` of every
outer operation through its buffer: about 1.5 ns an entry against 0.33 ns
with the small buffer. Buffering only copies operands, so elementwise
ufuncs and ``max``/``min`` reductions give the same bits at any buffer
size. The size is set around the block loop only, so the ``np.sum``
reductions of the per-point norms keep numpy's default, and the caller's
size is restored on return and on any exception.

The floating-point semantics, which the brute-force oracles in
``tests/test_kernels.py`` reproduce bit for bit:

* A pair sum over coordinates starts from ``0.0`` and adds one coordinate
  at a time in index order, and the enriched difference is evaluated
  literally as ``k * (x_i - x_j) + (t_i - t_j)``. (``np.sum`` switches to
  pairwise summation from 8 terms on, so it would tie the bits to how numpy
  splits the reduction.) At ``k = 0`` the ``ratio_sup`` and
  ``violation_max`` sweeps drop the ``k * (x_i - x_j)`` term when every
  coordinate range is finite, which keeps every bit and nearly halves the
  sweep (``_x_term``). Banach's ``||x_i - x_j||`` is a separate sum
  (``_Triangle.sq_dist``).
  Per-point norms (displacement, ``||x||``, ``||Tx||``) are ``np.sum``
  reductions.
* Ties on exactly equal values go to the ordered pair whose points
  ``x_i ++ x_j`` are lexicographically smallest, components compared as
  Python tuples compare them (so ``-0.0`` ties with ``0.0``). Pairs with
  equal points go to the first in row-major order, whatever order the
  candidates are found in. The order comes from a row rank computed once
  per call, or once per sample by a caller that sweeps it several times
  (the ``rank`` keyword).
* A NaN pair value fails closed: ``violation_max`` returns ``+inf`` and
  ``inner_min`` ``-inf``, and ``ratio_sup`` reports the pair as infeasible.
  The witness is then the smallest NaN pair in the same order
  (``_Extremum.result``).
* Diagonal pairs are masked with the extremum's sentinel (``-inf`` for a
  maximum, ``+inf`` for a minimum) and are never a witness, even when every
  distinct pair ties with the sentinel.

Overflow and invalid operations on huge or non-finite inputs are expected
(their inf and NaN results go through the rules above), so each kernel runs
with those floating-point warnings off.

``ratio_sup`` can stop early, for a caller that only needs to know that
the sup is at least ``stop_at``: it returns after the first block at
which its running sup reaches the bound (``_until``). A caller may pass
``lower``, a sup it has found on pairs of its own with the pair
arithmetic above; if that reaches ``stop_at`` the call returns at once,
before any row key, sort or block. The estimators pass the sup over their
probe pairs (``certify._probe``), the row of least displacement against
every other row, which settles most losing ``k``.

The Kannan and Bianchini sweeps skip the pairs that cannot reach their
extremum, with the bits of a full sweep. Each row gets a key that bounds
every pair it forms with a row of smaller key; the rows are swept by
descending key, and the sweep stops at the first block whose leading key
is strictly below the running extremum (``_until``). Every pair of the
blocks left out is then below the extremum: not a tie with it, and not
NaN. The rows are mapped back to the sample's rows (``_Smallest``), so
the witness, the tie-break and every zero or NaN pair are those of the
full sweep. ``violation_max`` keys each row by ``2 (H_i - w rate d_i)``,
``w`` 1 (Kannan) or 1/2 (Bianchini), at a finite ``rate >= 0``;
``ratio_sup`` by ``H_i / d_i`` (Kannan) or twice it (Bianchini). Here
``d_i`` is the displacement the sweep uses and ``H_i`` is
``_pair_bound``'s, below.

*The pair bound.* Take a pivot row ``p``, the row of least displacement
among the small rows (those whose points and images have a norm up to
``2**500 / ((|k| + 1) d)``), and let ``h_i`` be the literal pair value
``||k (x_i - x_p) + (t_i - t_p)||`` in floating point. Exactly,
``v_ij = v_ip - v_jp`` for ``v_ij = k (x_i - x_j) + (t_i - t_j)``, so
``||v_ij|| <= ||v_ip|| + ||v_jp||``. With ``u = 2**-53`` and each
rounding ``fl(y) = y (1 + a) + b``, ``|a| <= u`` and ``|b| <= 2**-1075``
(``b = 0`` for a sum):

* a coordinate of the computed enriched difference is within
  ``3u (|k| |x_ic - x_jc| + |t_ic - t_jc|) + 2**-1074`` of the exact one,
  so the norm of those errors is at most ``3.01u (|k| + 1) (s_i + s_j)``,
  ``s_i`` the larger of the row's two norms, plus ``sqrt(d) 2**-1074``;
* the computed square sum lies within a factor ``(1 +- u)**d`` of the
  exact sum of the computed squares, up to ``d 2**-1075`` for squares that
  underflow, and the square root adds a factor ``1 +- u``.

So the computed ``num_ij`` is at most ``(1 + (d + 2) u)`` times the norm
of the exact difference plus those errors, and ``h_i`` at least
``(1 - (d + 2) u)`` times the exact ``||v_ip||`` less its own errors.
Chaining the three, ``num_ij <= H_i + H_j`` for

    H_i = h_i (1 + (d + 6) eps) + 5 eps (|k| + 1) (s_i + s_p) + d 2**-500,

``eps = 2u``, which is what ``_pair_bound`` computes, with room for its
own three roundings. The last term is far above every underflow error,
and keeps ``H_i``, and ``H_i / d_i`` of a small row (``d_i`` below
``2**501``), normal numbers. A small row's points are below ``2**500`` in
norm, so no operation on a pair of two small rows overflows, and its
``num`` is finite; the other rows get ``H = +inf``.

*The keys.* Take two rows with finite keys: small rows, so with a finite
displacement, positive in ``ratio_sup``. Their Kannan ratio
``fl(num / fl(d_i + d_j))`` is at most ``max(H_i / d_i, H_j / d_j) /
(1 - u)`` by monotone rounding, and the key ``fl(fl(H_i / d_i) (1 + 2
eps))``, a normal number, is at least ``(H_i / d_i) / (1 - u)``. Their
Bianchini ratio ``fl(num / max(d_i, d_j))`` is at most ``H_i / d_i +
H_j / d_j``, so at most twice the larger key. Their guarded excess
``fl(fl(num - rhs) - guard)`` is at most ``(1 + u) num - (1 - u) rhs``,
the guard being at least 0, with ``rhs`` at least ``(1 - u)**2 w rate
(d_i + d_j) - 2**-1075`` (a sum rounds the Kannan scale; the maximum is
exact and at least half the sum). The row key, rounded outward with
``nextafter``, is at least twice ``(1 + u) H_i - (1 - u)**3 w rate d_i``,
so the excess is at most the larger key plus ``2**-1075``, and no float
lies strictly between a float ``K`` and ``K + 2**-1074``. A pair of two
such rows has a finite ``num`` and scale, so no NaN value either (an
``rhs`` that overflows makes the excess ``-inf``). The other rows have
key +inf, NaN keys included: a row too large or not finite
(``H = +inf``), and in ``ratio_sup`` a fixed row (``H / 0``), whose pairs
with other fixed rows are zero pairs. These rows lead the order, so every
pair they form is swept. (The excess bound holds at ``d_i = 0`` too.)

A sweep of at most two blocks is not sorted (``_worth_sorting``): it
could skip at most its second block, and the keys and the sort cost about
what that block does. With 256 KB buffers that is every sample of up to
278 rows, the 201-point default samples among them, whose first block
holds 96% of the pairs.

``perfbench/`` measures these kernels end to end and per call.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache

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

# Each enriched class's rhs scale; Banach, with no entry, scales by ||x - y||.
PAIR_SCALE = {MODE_KANNAN: np.add, MODE_BIANCHINI: np.maximum}

# There is no compiled kernel path; tools that report the kernel setup read this.
HAVE_NUMBA = False

_BLOCK_BYTES = 1 << 18  # one flat float64 block buffer
_LINE_BYTES = 64  # the block buffers start on a cache line

# numpy's ufunc buffer, in elements, during a block loop: small enough that
# the broadcast operands of a block's outer operations are not copied
# through it (every size from 16 to 512 runs at the same speed).
_UFUNC_BUFSIZE = 256


def _prepare(points, images):
    """``(x, t, xt, tt, disp)``: points, images, both by coordinate (new
    arrays, which ``_sweep`` may reorder), displacements."""
    x = np.ascontiguousarray(points, dtype=np.float64)
    t = np.ascontiguousarray(images, dtype=np.float64)
    if x.shape != t.shape or x.ndim != 2:
        raise ValueError(f"points/images shape mismatch: {x.shape} vs {t.shape}")
    return x, t, x.T.copy(), t.T.copy(), _displacements(x, t)


def _displacements(x, t):
    """Each row's ``||x - Tx||``, an ``np.sum`` reduction."""
    return np.sqrt(np.sum((x - t) ** 2, axis=-1))


def _x_term(xt, k):
    """``xt``, or None where every ``k * (x_i - x_j)`` term of the pair sums is dead.

    At ``k == 0`` with every coordinate range ``ptp(xt, axis=1)`` finite,
    each ``x_i - x_j`` is finite (its magnitude rounds to at most the
    range, rounding being monotone), so ``0 * (x_i - x_j)`` is ``+-0``,
    and ``+-0 + d`` is ``d`` up to the sign of a zero, which squaring
    drops; a NaN or infinite ``d`` stays so. Dropping the term then keeps
    every bit. An infinite or NaN coordinate, or a range that overflows,
    makes some ``0 * (x_i - x_j)`` NaN, which the pair must keep. With no
    rows there is no range, and no pair either.
    """
    if k == 0.0 and xt.shape[1] and np.all(np.isfinite(np.ptp(xt, axis=1))):
        return None
    return xt


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


def _blocks(n):
    """Row ranges ``(lo, hi)`` of the triangle blocks, rows ``lo:hi`` against columns ``lo:n``.

    Each block holds at most one buffer of entries (one row if a row alone
    is wider), so the blocks grow taller as the columns right of the
    diagonal run out. A block is never taller than it is wide.
    """
    return list(_block_rows(n, _BLOCK_BYTES))


@lru_cache(maxsize=64)
def _block_rows(n, block_bytes):
    """``_blocks`` at ``block_bytes``, cached: each sweep of a sample asks for the same."""
    entries = block_bytes // 8
    blocks, lo = [], 0
    while lo < n:
        hi = min(n, lo + max(1, entries // (n - lo)))
        blocks.append((lo, hi))
        lo = hi
    return tuple(blocks)


@contextmanager
def _small_ufunc_buffer():
    """numpy's ufunc buffer at ``_UFUNC_BUFSIZE`` elements, then the caller's size again.

    The size is restored here, on return and on an exception, since numpy
    1.x does not restore it when an enclosing ``np.errstate`` exits.
    """
    old = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(old)


class _Triangle:
    """Triangle blocks of the pair matrix over three reusable flat buffers.

    Iterating yields, for each block of ``blocks``, one contiguous
    ``(hi - lo, n - lo)`` view of each buffer: entry ``[r, c]`` is the pair
    ``(lo + r, lo + c)``.
    """

    def __init__(self, n, blocks):
        self.n, self.blocks = n, blocks

    def __iter__(self):
        # One allocation, of one size for every sweep of more than about 180
        # points, so the chunk a call frees serves the next call. Separate
        # buffers went back to the system after each call and came back as
        # fresh pages: about 190 page faults a call at N = 201. It starts on
        # a cache line: malloc aligns to 16 bytes only, and 16 bytes off a
        # 32-byte boundary the sweeps at (2000, 5) ran about 15% slower
        # (numpy 2.4 on an AVX-512 Xeon). Made here, after ``_x_term`` has
        # dropped the x rows, it does not add to the peak memory.
        size = 3 * min(self.n * self.n, max(_BLOCK_BYTES // 8, self.n))
        raw = np.empty(size + _LINE_BYTES // 8)
        start = -raw.ctypes.data % _LINE_BYTES // 8
        self._flat = raw[start : start + size].reshape(3, -1)
        for lo, hi in self.blocks:
            self.lo, self.hi = lo, hi
            shape = (hi - lo, self.n - lo)
            yield [b[: shape[0] * shape[1]].reshape(shape) for b in self._flat]

    def ends(self, col):
        """``col`` at the block's rows (as a column) and at its columns (as a row)."""
        return col[self.lo : self.hi, None], col[None, self.lo :]

    def outer(self, op, col, out):
        """``op(col[i], col[j])`` for rows i and columns j of the block."""
        return op(*self.ends(col), out=out)

    def sq_dist(self, cols, acc, diff):
        """``acc = sum_c (col_ic - col_jc)**2`` over the rows ``cols``, in index order."""
        acc.fill(0.0)
        for col in cols:
            self.outer(np.subtract, col, diff)
            diff *= diff
            acc += diff

    def enriched_sq(self, xt, tt, k, acc, diff, tmp):
        """``acc = sum_c (k*(x_ic - x_jc) + (t_ic - t_jc))**2`` in index order.

        With ``xt`` None (``_x_term``), the ``k*(x_ic - x_jc)`` term is
        dropped, with the same bits.
        """
        if xt is None:
            return self.sq_dist(tt, acc, diff)
        acc.fill(0.0)
        for xc, tc in zip(xt, tt):
            self.outer(np.subtract, xc, diff)
            diff *= k
            self.outer(np.subtract, tc, tmp)
            diff += tmp
            diff *= diff
            acc += diff


class _Smallest:
    """Smallest ordered pair by ``(rank key, i, j)`` among the pairs offered, in any order.

    A sweep over the rows in another order offers positions in that order:
    ``order[pos]`` is the sample row at ``pos`` (None: the sample's order).
    """

    def __init__(self, rank, order=None):
        self.rank, self.order = rank, order
        self.best = None  # (key, i, j)

    def offer(self, i, j, either=False):
        """Offer the pairs ``(i, j)``; with ``either``, each in whichever
        orientation comes first, for values that hold for ``(j, i)`` too."""
        if i.size == 0:
            return
        if self.order is not None:
            i, j = self.order[i], self.order[j]
        if either:  # equal points keep i < j, the first in row-major order
            i, j = np.minimum(i, j), np.maximum(i, j)
            flip = self.rank[j] < self.rank[i]
            i, j = np.where(flip, j, i), np.where(flip, i, j)
        keys = self.rank[i] * self.rank.shape[0] + self.rank[j]
        at = np.flatnonzero(keys == keys.min())
        p = at[np.lexsort((j[at], i[at]))[0]]  # equal points: first in row-major order
        best = (int(keys[p]), int(i[p]), int(j[p]))
        if self.best is None or best < self.best:
            self.best = best

    @property
    def pair(self):
        return None if self.best is None else self.best[1:]


class _Extremum:
    """Running max (or min) of pair values over triangle blocks.

    Keeps the winning pair and, apart from it, the smallest pair whose value
    is NaN. A block's entries left of its diagonal repeat pairs i < j found
    right of it, so only those right of the diagonal join; the diagonal,
    masked with the sentinel, never does.
    """

    def __init__(self, rank, largest, order=None):
        self.rank, self.order = rank, order
        self.largest = largest
        self.value = -np.inf if largest else np.inf
        self.winner = _Smallest(rank, order)
        self.nan = _Smallest(rank, order)

    def _reduce(self, vals):
        return vals.max() if self.largest else vals.min()

    def update(self, vals, lo, sides=None):
        """Fold in a block's values: ``vals[r, c]`` is the pair ``(lo + r, lo + c)``.

        Without ``sides`` a value holds for both orientations of its pair.
        With ``sides = (fwd, rev)``, the values of ``(i, j)`` and of
        ``(j, i)``, ``vals`` is their elementwise extremum, and an
        orientation joins only where its own value is the one found.
        """
        sentinel = -np.inf if self.largest else np.inf
        np.fill_diagonal(vals, sentinel)
        m = self._reduce(vals)
        if np.isnan(m):
            nan = np.isnan(vals)
            self.nan.offer(*_found(nan, lo, sides, np.isnan), either=sides is None)
            vals[nan] = sentinel
            m = self._reduce(vals)
        better = m > self.value if self.largest else m < self.value
        if better:
            self.value = float(m)
            self.winner = _Smallest(self.rank, self.order)
        if better or m == self.value:
            self.winner.offer(*_found(vals == m, lo, sides, lambda v: v == m), either=sides is None)

    @property
    def pair(self):
        return self.winner.pair or (-1, -1)

    @property
    def result(self):
        """``(value, pair)``; with a NaN pair, ``+inf`` for a max (``-inf``
        for a min) and the smallest NaN pair: NaN fails closed."""
        if self.nan.pair is not None:
            return (np.inf if self.largest else -np.inf), self.nan.pair
        return self.value, self.pair


def _found(hits, lo, sides, test):
    """The pairs ``(i, j)``, ``i < j``, right of the diagonal where ``hits`` is set.

    With ``sides``, the ordered pairs instead: ``(i, j)`` and ``(j, i)``
    wherever their own value passes ``test``.
    """
    r, c = np.divmod(np.flatnonzero(hits), hits.shape[1])
    upper = c > r
    i, j = r[upper] + lo, c[upper] + lo
    if sides is None:
        return i, j
    fwd, rev = (test(side[r[upper], c[upper]]) for side in sides)
    return np.concatenate((i[fwd], j[rev])), np.concatenate((j[fwd], i[rev]))


def _pair_bound(xt, tt, disp, k):
    """Per row ``H`` such that ``fl(num_ij) <= H_i + H_j`` for any two rows of finite ``H``.

    ``xt`` and ``tt`` are the points and images by coordinate. ``H`` is
    +inf on the rows too large to bound and NaN on a row with a NaN entry;
    it is None when it bounds no row: ``k`` is not finite, or every row is
    too large or NaN. The module docstring has the proof.
    """
    d, n = xt.shape
    if not math.isfinite(k):
        return None
    # a few coordinates at a time, so that no temporary outgrows half a block
    # buffer: larger ones raised the peak memory of a sweep
    step = max(1, _BLOCK_BYTES // 16 // n)
    chunks = [slice(c, c + step) for c in range(0, d, step)]
    sq_x, sq_t = np.zeros(n), np.zeros(n)
    for c in chunks:
        sq_x += np.sum(xt[c] * xt[c], axis=0)
        sq_t += np.sum(tt[c] * tt[c], axis=0)
    # the larger of each row's two norms; inf or NaN for a row with one
    size = np.sqrt(np.maximum(sq_x, sq_t))
    # a NaN row is not large, but its H is NaN, which its key reads as +inf
    large = size > 2.0**500 / ((abs(k) + 1.0) * d)
    least = np.where(large, np.inf, disp)
    least[np.isnan(least)] = np.inf
    if least.min() == np.inf:
        return None
    p = np.flatnonzero(least == least.min())[0]  # the pivot: least displacement
    acc = np.zeros(n)
    for c in chunks:
        e = np.subtract(xt[c], xt[c, p, None])
        e *= k
        e += tt[c] - tt[c, p, None]
        e *= e
        acc += np.sum(e, axis=0)
    h = np.sqrt(acc)
    spread = (abs(k) + 1.0) * (size + size[p])
    bound = h * (1.0 + (d + 6) * EPS) + spread * (5.0 * EPS) + d * 2.0**-500
    return np.where(large, np.inf, bound)


def _up(v):
    return np.nextafter(v, np.inf)


def _down(v):
    return np.nextafter(v, -np.inf)


def _row_keys(xt, tt, disp, k, mode, rate=None):
    """Per row a bound on its pairs: every pair of two rows has a ratio
    (``rate`` None) or a guarded excess at ``rate`` at most the larger key
    of the two, +inf for a row with no bound. None where no sweep can stop
    early: Banach mode, a ``rate`` that is negative or not finite, or too
    few blocks.
    """
    if mode not in PAIR_SCALE or not _worth_sorting(len(disp)):
        return None
    if rate is not None and not 0.0 <= rate < np.inf:
        return None
    pair_bound = _pair_bound(xt, tt, disp, k)
    if pair_bound is None:
        return None
    if rate is None:  # ratio <= max(key_i, key_j) (Kannan), <= key_i + key_j (Bianchini)
        key = pair_bound / disp * (1.0 + 2.0 * EPS)
        if mode == MODE_BIANCHINI:
            key *= 2.0
    else:  # excess <= key_i + key_j
        w = 1.0 if mode == MODE_KANNAN else 0.5
        rhs_low = _down(_down(rate * disp) * (w * (1.0 - 2.0 * EPS)))
        key = 2.0 * _up(_up(pair_bound * (1.0 + EPS)) - rhs_low)
    key[np.isnan(key)] = np.inf  # no bound
    return key


def _until(blocks, key, best, stop_at=None):
    """``blocks`` up to the first whose leading row's ``key`` is below
    ``best``'s running value, or to the first that takes it to ``stop_at``.

    Rows come by descending key, and a key bounds every pair of its row
    with a later one, so no pair of a block left out reaches the extremum
    or ties with it. With no key and no ``stop_at``, every block.
    """
    for lo, hi in blocks:
        if key is not None and key[lo] < best.value:
            return
        yield lo, hi
        if stop_at is not None and best.value >= stop_at:
            return


def _sweep(x, rank, key, cols, stop_at=None, largest=True):
    """The set-up every kernel shares: ``(tri, best)``.

    ``rank`` is ``_row_rank(x)`` when None. With a row ``key``, the rows go
    by descending key: each of ``cols``, the kernel's own arrays whose last
    axis runs over the rows, is permuted in place. ``best`` is the running
    ``_Extremum`` over the sample's rows, ``tri`` the triangle over the
    blocks that ``_until`` lets through.
    """
    if rank is None:
        rank = _row_rank(x)
    order = None
    if key is not None:
        order = np.argsort(key, kind="stable")[::-1]
        key = key[order]
        for c in cols:  # in place: one spare copy at a time, for the peak memory
            # np.take: 11 us at (5, 2000), c[..., order] 35 us (numpy 2.4, x86-64)
            c[...] = np.take(c, order, axis=-1)
    best = _Extremum(rank, largest, order)
    n = x.shape[0]
    blocks = _until(_blocks(n), key, best, stop_at)
    return _Triangle(n, blocks), best


def _worth_sorting(n):
    """Whether a sweep of ``n`` rows sorts them: only with more than two
    blocks, since a sort could skip at most the second (module docstring)."""
    return len(_blocks(n)) > 2


def violation_max(points, images, k, rate, mode, *, rank=None):
    """Max over distinct ordered pairs of ``lhs - rhs - guard``.

    Returns ``(max_violation, (i, j))`` where the index pair is the
    lexicographically smallest argmax. Any NaN pair value gives
    ``(inf, smallest NaN pair)``. ``rank`` is ``_row_rank(points)`` when a
    caller already has it; by default it is computed here.

    The Kannan and Bianchini modes at a finite ``rate >= 0`` sweep sorted
    rows and stop below the running maximum (module docstring).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x, t, xt, tt, disp = _prepare(points, images)
        pnorm = np.sqrt(np.sum(x**2, axis=-1))
        tnorm = np.sqrt(np.sum(t**2, axis=-1))
        k, rate = float(k), float(rate)
        key = _row_keys(xt, tt, disp, k, mode, rate)
        tri, best = _sweep(x, rank, key, (xt, tt, disp, pnorm, tnorm))
        scale = PAIR_SCALE.get(mode)
        x_rows = xt if scale is None else None  # Banach's rhs: ||x_i - x_j||
        xt = _x_term(xt, k)
        with _small_ufunc_buffer():
            for num, rhs, back in tri:
                tri.enriched_sq(xt, tt, k, num, rhs, back)
                np.sqrt(num, out=num)
                if scale is None:
                    tri.sq_dist(x_rows, rhs, back)
                    np.sqrt(rhs, out=rhs)
                else:
                    tri.outer(scale, disp, rhs)
                rhs *= rate
                # num and rhs serve (i, j) and (j, i) alike; the guard adds
                # the point norms in each ordered pair's own order
                p_i, p_j = tri.ends(pnorm)
                t_i, t_j = tri.ends(tnorm)
                np.add(num, rhs, out=back)
                net = np.subtract(num, rhs, out=num)
                fwd = np.add(back, p_i, out=rhs)
                for term in (p_j, t_i, t_j):
                    fwd += term
                for term in (p_j, p_i, t_j, t_i):
                    back += term
                sides = []
                for guard in (fwd, back):
                    guard *= CHECK_GUARD_EPS
                    sides.append(np.subtract(net, guard, out=guard))
                best.update(np.maximum(*sides, out=net), tri.lo, sides)
        return best.result


def ratio_sup(points, images, k, mode, *, stop_at=None, rank=None, lower=None):
    """Supremum of ``lhs / rhs_scale`` over pairs with a positive rhs scale.

    The rhs scale is ``PAIR_SCALE[mode]`` of the pair's two displacements,
    so ``mode`` is Kannan or Bianchini. Returns ``(sup, (i, j), infeasible,
    (zi, zj))``. ``infeasible`` marks a zero-displacement pair whose
    numerator exceeds ``ZERO_NUM_TOL``, or any pair whose ratio is NaN;
    ``(zi, zj)`` is then the smallest such pair, NaN pairs first. ``sup`` is
    ``-inf`` when no pair has a positive rhs scale, and after a full sweep
    that is not infeasible only then: a pair with a positive scale has a
    ratio of at least 0, or a NaN one.

    The rows are swept sorted and stop below the running sup (module
    docstring).

    With ``stop_at``, the sweep returns after the first triangle block at
    which the running sup is ``>= stop_at``. The sup returned then is only
    a lower bound on the full sup that has reached ``stop_at``, and the
    witness pair, ``infeasible`` and ``(zi, zj)`` cover only the blocks
    swept, as the oracle over those pairs gives them. A call that never
    reaches ``stop_at`` returns what it returns without it, over the same
    blocks. ``lower`` is a sup the caller has already found over some of
    the pairs with this arithmetic (the estimators' pivot-row pairs,
    ``certify._probe``), so a lower bound on the full sup; if it reaches
    ``stop_at`` the call returns ``(lower, (-1, -1), False, (-1, -1))`` at
    once, before any row key, sort or block. ``rank`` is
    ``_row_rank(points)`` when a caller already has it; by default it is
    computed here.
    """
    if stop_at is not None and lower is not None and lower >= stop_at:
        return lower, (-1, -1), False, (-1, -1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, _, xt, tt, disp = _prepare(points, images)
        k = float(k)
        key = _row_keys(xt, tt, disp, k, mode)
        tri, best = _sweep(x, rank, key, (xt, tt, disp), stop_at)
        zero = _Smallest(best.rank, best.order)
        xt = _x_term(xt, k)
        # the rhs scale is zero exactly on pairs of two fixed points
        fixed = np.flatnonzero(disp == 0.0)
        with _small_ufunc_buffer():
            for num, scale, tmp in tri:
                tri.enriched_sq(xt, tt, k, num, scale, tmp)
                np.sqrt(num, out=num)
                tri.outer(PAIR_SCALE[mode], disp, scale)
                ratio = np.divide(num, scale, out=tmp)
                first, last = np.searchsorted(fixed, (tri.lo, tri.hi))
                rows, cols = fixed[first:last], fixed[first:]
                if rows.size:
                    sub = np.ix_(rows - tri.lo, cols - tri.lo)
                    upper = rows[:, None] < cols[None, :]
                    bad_r, bad_c = np.nonzero((num[sub] > ZERO_NUM_TOL) & upper)
                    zero.offer(rows[bad_r], cols[bad_c], either=True)
                    # zero pairs carry no ratio; a NaN numerator still fails closed
                    ratio[sub] = np.where(np.isnan(num[sub]) & upper, np.nan, -np.inf)
                best.update(ratio, tri.lo)
        pair = best.pair if best.value > -np.inf else (-1, -1)
        zpair = best.nan.pair or zero.pair
        return best.value, pair, zpair is not None, zpair or (-1, -1)


def inner_min(points, images, *, rank=None):
    """Min over distinct ordered pairs of ``<g_i - g_j, x_i - x_j>``.

    Any NaN pair value gives ``(-inf, smallest NaN pair)``. ``rank`` is
    ``_row_rank(points)`` when a caller already has it; by default it is
    computed here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x, _, xt, gt, _ = _prepare(points, images)
        tri, best = _sweep(x, rank, None, (), largest=False)
        with _small_ufunc_buffer():
            for acc, diff, tmp in tri:
                acc.fill(0.0)
                for xc, gc in zip(xt, gt):
                    tri.outer(np.subtract, gc, diff)
                    tri.outer(np.subtract, xc, tmp)
                    diff *= tmp
                    acc += diff
                best.update(acc, tri.lo)
        return best.result
