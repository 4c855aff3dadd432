"""Pairwise reduction kernels behind the contraction certifier.

Certification sweeps all distinct ordered pairs of an N-point sample, an
O(N^2 d) loop that dominates runtime for the default sample sizes. Each
kernel is one numpy pass over the pairs i < j only, each unordered pair
once, in upper-triangle blocks: a block pairs rows ``lo:hi`` with columns
``lo:n``. Each block is a contiguous ``(hi - lo, n - lo)`` view of a flat
256 KB buffer that starts on a cache line, so the blocks grow taller as
the columns right of the diagonal run out, and the three buffers a kernel
uses stay in L2 cache; the extremum and its tied candidates are found in
the same pass. ``ratio_sup`` and ``violation_max`` lay their rows out in
``_laid_out``, and every kernel sets its sweep up in ``_sweep``.
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
extremum, with the bits of a full sweep. Each row gets a key, and every
pair of two rows is bounded by the larger of their two keys. The sweep
stops at the first block from whose leading row ``lo`` on every key is
strictly below the running extremum (``_until``). The blocks swept so far
hold every pair with a row before ``lo``, so each pair left out has both
rows from ``lo`` on, and is below the extremum: not a tie with it, and
not NaN. This holds for any row order. A sweep laid out afresh orders the
rows by its descending key, so that the largest key from ``lo`` on is
``key[lo]``.
The rows are mapped back to the sample's rows (``_Smallest``), so the
witness, the tie-break and every zero or NaN pair are those of the full
sweep, whatever the order. ``violation_max`` keys each row by
``2 (H_i - w rate d_i)``, ``w`` 1 (Kannan) or 1/2 (Bianchini), at a
finite ``rate >= 0``;
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
with other fixed rows are zero pairs. No sweep stops before it has swept
these rows (a sorted one sweeps them first), so every pair they form is
swept. (The excess bound holds at ``d_i = 0`` too.)

*The rows a check guards.* The same holds pair by pair, with the exact
``net = fl(num - rhs)`` in place of a bound. In each block
``violation_max`` computes ``net`` first and adds the guard only on the
span of rows whose largest ``net`` right of the diagonal is not below a
floor (``_guarded_rows``), as views of the block buffers, in the dense
expression order. At a ``rate >= 0`` every guard term (``num``,
``rhs``, the four norms) is at least 0, ``+inf`` or NaN, so the guard is
at least 0 or NaN, and ``fl(net - guard) <= net`` by monotone rounding
(``-inf`` when the guard is ``+inf``). A NaN guard has a NaN term, and
each makes ``net`` NaN: a NaN norm comes from a NaN coordinate, which
the pair sum keeps (``_x_term``). So a pair whose ``net`` is below the
floor (not NaN, nor ``+inf``) has an excess below it, and not NaN. The floor is the running max or, before
there is one, the guarded excess of the block's largest ``net``,
computed in the kernel's order (the first maximum in row-major order is
right of the diagonal: an entry left of it repeats one right of it that
comes first); its row is guarded, so the pair is folded in again with
the same bits and the max ends at least there. A
pair left out neither beats the max nor ties with it, and is not NaN: the
max, its witness and the smallest NaN pair are those of the dense sweep.
Below 0 (or at NaN) the ``rate`` can make the guard negative, and every
row is guarded.

*The hand-off.* The estimators check the chosen ``(k, rate)`` right
after the ratio sweep at that ``k`` (``certify._estimate``), and both
sweeps compute the same numerator ``||k (x_i - x_j) + (t_i - t_j)||`` on
each pair. So a sweep's layout is a ``SweepRecord``, made in one place,
``_laid_out``: ``_prepare``, ``_pair_bound``'s H, the rows sorted by the
sweep's keys with each array permuted in place, and ``_x_term``. A
``ratio_sup`` handed a record keeps the numerators of its first
``_RECORD_BLOCKS`` blocks there, each in a slot the record takes when the
sweep reaches that block, as the sweep's numerator block. A sweep handed
a laid-out record keys the rows from the stored H in its order (no
second ``_pair_bound`` or sort) and reads each held block in place of
computing it: the same arithmetic on the same arrays, so the same bits.
The keys are not sorted in that order, which the stop rule above allows;
the blocks are those of the one schedule ``_blocks`` every sweep uses.

Nothing in a layout depends on the mode: H, the row order and the
numerators are those of ``(k, n)`` alone, and a Bianchini ratio key is
exactly twice the Kannan key. So a record serves the check in either
class, and the other class's ratio sweep at the same ``k`` (the estimate
of one class right after the other's on the same sample), which
computes, and holds while slots are left, only the blocks past the held
ones. The check holds no block. Only a Banach check's layout keeps the
points by coordinate, its rhs.

A sweep of at most two blocks is not sorted (``_worth_sorting``): it
could skip at most its second block, and the keys and the sort cost about
what that block does. With 256 KB buffers that is every sample of up to
278 rows, the 201-point default samples among them, whose first block
holds 96% of the pairs.

``perfbench/`` measures these kernels end to end and per call.
"""

from __future__ import annotations

import math
import weakref
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
# the leading blocks whose numerators a ratio sweep keeps for the other
# sweeps at its k (``SweepRecord``): at most 2 MB at 256 KB a block
_RECORD_BLOCKS = 8
_LINE_BYTES = 64  # the block buffers start on a cache line

# numpy's ufunc buffer, in elements, during a block loop: small enough that
# the broadcast operands of a block's outer operations are not copied
# through it (every size from 16 to 512 runs at the same speed).
_UFUNC_BUFSIZE = 256


def _prepare(points, images):
    """``(xt, tt, disp)``: points and images by coordinate (new arrays,
    which ``_laid_out`` may reorder), displacements."""
    x = np.ascontiguousarray(points, dtype=np.float64)
    t = np.ascontiguousarray(images, dtype=np.float64)
    if x.shape != t.shape or x.ndim != 2:
        raise ValueError(f"points/images shape mismatch: {x.shape} vs {t.shape}")
    return x.T.copy(), t.T.copy(), _displacements(x, t)


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


def _aligned(rows, cols):
    """An uninitialised float64 ``(rows, cols)`` array that starts on a cache line.

    malloc aligns to 16 bytes only, and 16 bytes off a 32-byte boundary
    the sweeps at (2000, 5) ran about 15% slower (numpy 2.4 on an AVX-512
    Xeon).
    """
    size = rows * cols
    raw = np.empty(size + _LINE_BYTES // 8)
    start = -raw.ctypes.data % _LINE_BYTES // 8
    return raw[start : start + size].reshape(rows, cols)


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
        # fresh pages: about 190 page faults a call at N = 201. Made here,
        # after ``_x_term`` has dropped the x rows, it does not add to the
        # peak memory.
        self._flat = _aligned(3, min(self.n * self.n, max(_BLOCK_BYTES // 8, self.n)))
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


def _keys(pair_bound, disp, mode, rate=None):
    """Per row a bound on its pairs from ``_pair_bound``'s H, row for row
    with ``disp``: every pair of two rows has a ratio (``rate`` None) or a
    guarded excess at ``rate`` at most the larger key of the two, +inf for
    a row with no bound. None where no sweep can stop early: no H, or a
    ``rate`` that is negative or not finite."""
    if pair_bound is None or (rate is not None and not 0.0 <= rate < np.inf):
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
    """``blocks`` up to the first from whose row ``lo`` on every ``key`` is
    below ``best``'s running value, or to the first that takes it to
    ``stop_at``.

    ``key`` is in sweep order. Each pair of a block left out has both rows
    from ``lo`` on, and is bounded by the larger of their keys, so it does
    not reach the extremum or tie with it. With the keys descending, the
    largest from ``lo`` on is ``key[lo]``. With no key and no ``stop_at``,
    every block.
    """
    if key is not None:
        key = np.maximum.accumulate(key[::-1])[::-1]  # the largest key from each row on
    for lo, hi in blocks:
        if key is not None and key[lo] < best.value:
            return
        yield lo, hi
        if stop_at is not None and best.value >= stop_at:
            return


def _sweep(points, rank, key, order=None, stop_at=None, largest=True):
    """The set-up every kernel shares once its rows are laid out: ``(tri, best)``.

    ``rank`` is ``_row_rank(points)`` when None. ``order`` is the row
    order the kernel sweeps in (None: the sample's, ``SweepRecord.order``),
    and ``key`` its row keys in that order (None: every block). ``best`` is
    the running ``_Extremum`` over the sample's rows, ``tri`` the triangle
    over the blocks that ``_until`` lets through.
    """
    if rank is None:
        rank = _row_rank(np.asarray(points, dtype=np.float64))
    best = _Extremum(rank, largest, order)
    n = len(points)
    blocks = _until(_blocks(n), key, best, stop_at)
    return _Triangle(n, blocks), best


def _worth_sorting(n):
    """Whether a sweep of ``n`` rows sorts them: only with more than two
    blocks, since a sort could skip at most the second (module docstring)."""
    return len(_blocks(n)) > 2


class SweepRecord:
    """A sweep's layout at ``(k, n)``, and the numerators a ratio sweep keeps there.

    ``_laid_out`` fills the layout: ``of``, the sweep's ``(k, n)``;
    ``order``, its row order (None: the sample's); ``xt`` (after
    ``_x_term``), ``tt`` and ``disp`` in that order; ``bound``,
    ``_pair_bound``'s H in that order (None: no row key); and ``x_rows``,
    the points by coordinate for a Banach check (None otherwise). A
    ``ratio_sup`` sweep handed a record keeps in ``held``, by block start,
    the square-rooted numerators of the first ``_RECORD_BLOCKS`` blocks it
    swept, each in a slot taken when the sweep reached its block, which
    served as the sweep's numerator block; a block wider than a block
    buffer (a one-row block of more than ``_BLOCK_BYTES / 8`` entries) is
    not held. The slots go back to ``_spare_slots`` when the record is gone.

    ``ratio_sup(..., record=r)`` begins a record with no layout at its
    ``(k, n)``; a call that ``lower`` settles fills in ``of`` alone. A
    laid-out record serves any number of sweeps of the same points and
    images at its ``(k, n)``, in either class (module docstring, *the
    hand-off*).
    """

    def __init__(self):
        self._slots = []  # the flat slots under ``held``
        self._begin(None, None)

    def _begin(self, k, n):
        self.of = (k, n)
        self.order = self.xt = self.tt = self.disp = self.bound = self.x_rows = None
        self.held = {}

    def _take(self, k, n):
        """Take the record for a ratio sweep at ``(k, n)``: one with no layout
        begins there; a laid-out one must be of ``(k, n)``."""
        if self.disp is None:
            self._begin(k, n)
        elif self.of != (k, n):
            raise ValueError(f"a record of (k, n) = {self.of} for a ratio sweep at {(k, n)}")

    def _num(self, lo, hi, spare):
        """The sweep's numerator block for rows ``lo:hi``: a slot, held, or
        ``spare`` when the record holds its last slot or the block is wider
        than a block buffer."""
        shape = (hi - lo, self.of[1] - lo)
        size = shape[0] * shape[1]
        if len(self.held) == _RECORD_BLOCKS or size > _BLOCK_BYTES // 8:
            return spare
        if not self._slots:  # the record's first slot: they all go back with the record
            weakref.finalize(self, _release, self._slots)
        try:
            slot = _spare_slots.pop()  # one step, so no two threads take one slot
        except IndexError:
            slot = None
        if slot is None or slot.size < size:  # a new slot holds any block of the sweep
            slot = _aligned(1, min(_BLOCK_BYTES // 8, self.of[1] ** 2))[0]
        self._slots.append(slot)
        num = self.held[lo] = slot[:size].reshape(shape)
        return num


# The slots of records that are gone, at most ``_RECORD_BLOCKS``, for the
# next records' blocks. Slots allocated afresh for each record came back
# from malloc as fresh pages, and freeing them trimmed the heap that the
# block buffers reuse: about 650 page faults and 0.6 ms a ``certify_5d``
# pass, against none with this list.
_spare_slots = []


def _release(slots):
    """Keep ``slots`` for later records while fewer than ``_RECORD_BLOCKS`` are kept."""
    for slot in slots:
        if len(_spare_slots) < _RECORD_BLOCKS:
            _spare_slots.append(slot)
    slots.clear()


def _laid_out(points, images, k, mode, record=None, rate=None):
    """``(record, key)``: the layout of a sweep of ``mode`` at ``k``, and its row keys.

    The one set-up of a ``ratio_sup`` (``rate`` None) or ``violation_max``
    sweep. A given ``record`` must be of ``(k, len(points))`` and for an
    enriched mode; laid out already, it serves as it is. Otherwise the
    record, or a new one when ``record`` is None, is laid out here:
    ``_prepare``, ``_pair_bound``'s H when the rows are worth sorting, the
    rows by descending key, and ``_x_term``. ``key``, the ``_keys`` of the
    record's rows in its order, is None where no sweep can stop early.
    """
    n = len(points)
    if record is None:
        record = SweepRecord()
        record._begin(k, n)
    elif record.of != (k, n) or mode not in PAIR_SCALE:
        raise ValueError(f"a record of (k, n) = {record.of} for a mode {mode} sweep at {(k, n)}")
    if record.disp is not None:
        return record, _keys(record.bound, record.disp, mode, rate)
    xt, tt, disp = _prepare(points, images)
    bound = _pair_bound(xt, tt, disp, k) if mode in PAIR_SCALE and _worth_sorting(n) else None
    key = _keys(bound, disp, mode, rate)
    if key is not None:
        record.order = np.argsort(key, kind="stable")[::-1]
        key = key[record.order]
        for c in (xt, tt, disp, bound):  # in place: one spare copy at a time, for the peak memory
            # np.take: 11 us at (5, 2000), c[..., order] 35 us (numpy 2.4, x86-64)
            c[...] = np.take(c, record.order, axis=-1)
    record.xt, record.tt, record.disp, record.bound = _x_term(xt, k), tt, disp, bound
    if mode not in PAIR_SCALE:
        record.x_rows = xt  # Banach's rhs: ||x_i - x_j||
    return record, key


def _norms(rows):
    """Each row's norm, an ``np.sum`` reduction."""
    return np.sqrt(np.sum(rows**2, axis=-1))


@lru_cache(maxsize=16)
def _right_of_diagonal(h, w):
    """An ``(h, w)`` mask of the entries right of a block's diagonal (read-only)."""
    mask = ~np.tri(h, w, dtype=bool)
    mask.flags.writeable = False
    return mask


def _guarded_rows(tri, best, num, rhs, net, pnorm, tnorm):
    """The span ``(a, b)`` of a block's rows whose pairs can reach ``best``'s
    max once guarded, at ``rate >= 0`` (module docstring, *the rows a check
    guards*).

    A row is left out when every ``net`` right of its diagonal is below the
    floor: the running max or, before there is one, the guarded excess of
    the block's largest ``net``, whose row is guarded.
    """
    h, w = net.shape
    floor = best.value
    if floor == -np.inf:  # seed with a pair's own excess, in the kernel's order
        np.fill_diagonal(net, -np.inf)  # no pair
        # right of the diagonal, or the first NaN, which is kept and seeds nothing
        r, c = divmod(int(net.argmax()), w)
        seed = _pair_excess(tri.lo, r, c, num, rhs, net, pnorm, tnorm)
        if seed > floor:  # not NaN: at net = +inf both sides are NaN
            floor = seed
    reach = np.greater(_right_of_diagonal(h, w), net < floor)  # a NaN reaches it
    first = int(reach.argmax())
    if not reach.flat[first]:
        return 0, 0
    return first // w, h - int(reach[::-1].argmax()) // w


def _pair_excess(lo, r, c, num, rhs, net, pnorm, tnorm):
    """The guarded excess of the block entry ``(r, c)``, pair ``(lo + r,
    lo + c)``, the larger of its two orientations': ``_fold_excess``'s
    operations in its order, on Python floats, which round as the ufuncs do."""
    p_i, p_j = pnorm.item(lo + r), pnorm.item(lo + c)
    t_i, t_j = tnorm.item(lo + r), tnorm.item(lo + c)
    s, d = num.item(r, c) + rhs.item(r, c), net.item(r, c)
    fwd = (((s + p_i) + p_j) + t_i) + t_j
    back = (((s + p_j) + p_i) + t_j) + t_i
    return max(d - fwd * CHECK_GUARD_EPS, d - back * CHECK_GUARD_EPS)


def _fold_excess(tri, best, num, rhs, net, spare, pnorm, tnorm, skip):
    """Fold a block's guarded excesses into ``best``.

    ``net`` is ``num - rhs``; ``spare`` is free once ``num`` has been read
    (it may be ``num``). With ``skip`` only the rows that ``_guarded_rows``
    keeps are guarded, as the views ``[a:b, a:]`` of the block: entries left
    of the diagonal repeat pairs found right of it.
    """
    a, b = _guarded_rows(tri, best, num, rhs, net, pnorm, tnorm) if skip else (0, net.shape[0])
    if a == b:
        return
    lo, hi = tri.lo + a, tri.lo + b
    span = (slice(a, b), slice(a, None))
    net, fwd, back = net[span], rhs[span], spare[span]
    # num and rhs serve (i, j) and (j, i) alike; the guard adds the point
    # norms in each ordered pair's own order
    p_i, p_j = pnorm[lo:hi, None], pnorm[None, lo:]
    t_i, t_j = tnorm[lo:hi, None], tnorm[None, lo:]
    np.add(num[span], fwd, out=fwd)  # num + rhs
    np.add(fwd, p_j, out=back)
    for term in (p_i, t_j, t_i):
        back += term
    for term in (p_i, p_j, t_i, t_j):
        fwd += term
    sides = []
    for guard in (fwd, back):
        guard *= CHECK_GUARD_EPS
        sides.append(np.subtract(net, guard, out=guard))
    best.update(np.maximum(*sides, out=net), lo, sides)


def violation_max(points, images, k, rate, mode, *, rank=None, record=None):
    """Max over distinct ordered pairs of ``lhs - rhs - guard``.

    Returns ``(max_violation, (i, j))`` where the index pair is the
    lexicographically smallest argmax. Any NaN pair value gives
    ``(inf, smallest NaN pair)``. ``rank`` is ``_row_rank(points)`` when a
    caller already has it; by default it is computed here.

    The Kannan and Bianchini modes at a finite ``rate >= 0`` sweep sorted
    rows and stop below the running maximum (module docstring). At any
    ``rate >= 0`` a block adds the rounding guard, which is then at least
    0, only on the rows whose largest ``lhs - rhs`` is not below the
    running maximum (before there is one, the guarded excess of the
    block's largest pair); a NaN row is always guarded. At a ``rate``
    below 0 or NaN every row is guarded. A
    ``record`` that a ``ratio_sup`` sweep of the same points and images
    laid out (``SweepRecord``) gives the check that sweep's row order, row
    bounds and leading numerators, with the same bits, in either class; one
    of another ``(k, n)``, or a Banach check, raises ``ValueError``. The
    check holds no block in the record; one that ``lower`` settled, with no
    layout, it lays out.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        k, rate = float(k), float(rate)
        record, key = _laid_out(points, images, k, mode, record, rate)
        pnorm, tnorm = (_norms(np.ascontiguousarray(a, dtype=np.float64)) for a in (points, images))
        if record.order is not None:
            pnorm, tnorm = pnorm[record.order], tnorm[record.order]
        tri, best = _sweep(points, rank, key, record.order)
        xt, tt, disp = record.xt, record.tt, record.disp
        scale = PAIR_SCALE.get(mode)
        skip = rate >= 0.0  # the guard is then >= 0, so a pair's excess is at most its net
        with _small_ufunc_buffer():
            for spare, rhs, net in tri:
                num = record.held.get(tri.lo)  # both sweeps go by the one block schedule
                if num is None:
                    num = spare
                    tri.enriched_sq(xt, tt, k, num, rhs, net)
                    np.sqrt(num, out=num)
                if scale is None:
                    tri.sq_dist(record.x_rows, rhs, net)
                    np.sqrt(rhs, out=rhs)
                else:
                    tri.outer(scale, disp, rhs)
                rhs *= rate
                np.subtract(num, rhs, out=net)  # a held block stays as it is
                _fold_excess(tri, best, num, rhs, net, spare, pnorm, tnorm, skip)
        return best.result


def ratio_sup(points, images, k, mode, *, stop_at=None, rank=None, lower=None, record=None):
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
    computed here. A ``record`` (``SweepRecord``) with no layout is laid
    out here, and holds this sweep's leading numerators, for the other
    sweeps at this ``k``; a laid-out one, of a sweep of the same points and
    images at this ``(k, n)`` in either class, gives this sweep its row
    order, row bounds and held numerators, with the same bits, and takes
    the blocks it computes past them while slots are left. A laid-out
    record of another ``(k, n)`` raises ``ValueError``, even when ``lower``
    settles the call.
    """
    k = float(k)
    if record is not None:
        record._take(k, len(points))
    if stop_at is not None and lower is not None and lower >= stop_at:
        return lower, (-1, -1), False, (-1, -1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        keep = record is not None  # a caller's record holds the blocks swept
        record, key = _laid_out(points, images, k, mode, record)
        tri, best = _sweep(points, rank, key, record.order, stop_at)
        xt, tt, disp = record.xt, record.tt, record.disp
        zero = _Smallest(best.rank, best.order)
        # the rhs scale is zero exactly on pairs of two fixed points
        fixed = np.flatnonzero(disp == 0.0)
        with _small_ufunc_buffer():
            for spare, scale, tmp in tri:
                num = record.held.get(tri.lo)
                if num is None:
                    num = record._num(tri.lo, tri.hi, spare) if keep else spare
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
        xt, gt, _ = _prepare(points, images)
        tri, best = _sweep(points, rank, None, largest=False)
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
