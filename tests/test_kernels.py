"""Oracle tests for the pairwise kernels.

Every kernel result must equal, bit for bit and witness included, a literal
per-pair loop over the documented semantics: pair sums start from 0.0 and
add coordinates in index order, ties go to the lexicographically smallest
pair of points (first in row-major order on equal points), and a NaN pair
value fails closed. Samples above one triangle block make the kernels carry
their extremum and tie-break across blocks.
"""

import math
import sys
import threading
import warnings
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from enrichedfp import _kernels, certify
from enrichedfp._kernels import (
    CHECK_GUARD_EPS,
    MODE_BANACH,
    MODE_BIANCHINI,
    MODE_KANNAN,
    ZERO_NUM_TOL,
    inner_min,
    ratio_sup,
    violation_max,
)

DIMS = [1, 2, 3, 4, 6, 8, 12]
N_MULTI_BLOCK = 200


def _norm(v):
    """Euclidean norm with squares summed from 0.0 in index order."""
    acc = 0.0
    for c in v:
        acc += c * c
    return math.sqrt(acc)


def _witness(keyed):
    """Smallest (points_i ++ points_j, i, j) entry: lexicographic, then row-major."""
    _, i, j = min(keyed)
    return (i, j)


def _key(points, i, j):
    return (tuple(points[i]) + tuple(points[j]), i, j)


def _point_norms(points, images):
    disp = np.sqrt(np.sum((points - images) ** 2, axis=-1))
    pnorm = np.sqrt(np.sum(points**2, axis=-1))
    tnorm = np.sqrt(np.sum(images**2, axis=-1))
    return disp, pnorm, tnorm


def _pairs(n):
    return ((i, j) for i in range(n) for j in range(n) if i != j)


def brute_violations(points, images, k, rate, mode, guard_eps=CHECK_GUARD_EPS):
    """Literal nested-loop reference: ``(guarded excess, i, j)`` for each ordered pair, row-major."""
    disp, pnorm, tnorm = _point_norms(points, images)
    x, t = points.tolist(), images.tolist()
    vals = []
    for i, j in _pairs(len(x)):
        num = _norm([k * (a - b) + (c - e) for a, b, c, e in zip(x[i], x[j], t[i], t[j])])
        if mode == MODE_KANNAN:
            rhs = rate * (disp[i] + disp[j])
        elif mode == MODE_BIANCHINI:
            rhs = rate * np.maximum(disp[i], disp[j])
        else:
            rhs = rate * _norm([a - b for a, b in zip(x[i], x[j])])
        guard = guard_eps * (num + rhs + pnorm[i] + pnorm[j] + tnorm[i] + tnorm[j])
        vals.append(((num - rhs) - guard, i, j))
    return vals


def brute_violation(points, images, k, rate, mode, guard_eps=CHECK_GUARD_EPS):
    """Literal nested-loop reference for the guarded violation maximum."""
    vals = brute_violations(points, images, k, rate, mode, guard_eps)
    nan = [_key(points, i, j) for v, i, j in vals if math.isnan(v)]
    if nan:
        return math.inf, _witness(nan)
    best = max(v for v, _, _ in vals)
    return best, _witness([_key(points, i, j) for v, i, j in vals if v == best])


def brute_ratio(points, images, k, mode, pairs=None):
    """Literal reference for ``ratio_sup``: (sup, witness, infeasible, zpair),
    over every ordered pair or over the ordered ``pairs`` given."""
    disp, _, _ = _point_norms(points, images)
    x, t = points.tolist(), images.tolist()
    ratios, nan, bad = [], [], []
    for i, j in _pairs(len(x)) if pairs is None else pairs:
        num = _norm([k * (a - b) + (c - e) for a, b, c, e in zip(x[i], x[j], t[i], t[j])])
        den = disp[i] + disp[j] if mode == MODE_KANNAN else np.maximum(disp[i], disp[j])
        if den == 0.0:
            if math.isnan(num):
                nan.append(_key(points, i, j))
            elif num > ZERO_NUM_TOL:
                bad.append(_key(points, i, j))
            continue
        r = num / den
        if math.isnan(r):
            nan.append(_key(points, i, j))
        else:
            ratios.append((r, i, j))
    sup, witness = -math.inf, (-1, -1)
    if ratios:
        sup = max(r for r, _, _ in ratios)
        witness = _witness([_key(points, i, j) for r, i, j in ratios if r == sup])
    zpair = _witness(nan or bad) if nan or bad else (-1, -1)
    return sup, witness, bool(nan or bad), zpair


def brute_inner(points, images):
    x, g = points.tolist(), images.tolist()
    vals = []
    for i, j in _pairs(len(x)):
        acc = 0.0
        for a, b, c, e in zip(g[i], g[j], x[i], x[j]):
            acc += (a - b) * (c - e)
        vals.append((acc, i, j))
    nan = [_key(points, i, j) for v, i, j in vals if math.isnan(v)]
    if nan:
        return -math.inf, _witness(nan)
    best = min(v for v, _, _ in vals)
    return best, _witness([_key(points, i, j) for v, i, j in vals if v == best])


def _bits(result):
    """Result with every float replaced by its bytes, so -0.0 != 0.0."""
    if isinstance(result, tuple):
        return tuple(_bits(r) for r in result)
    if isinstance(result, float):
        return np.float64(result).tobytes()
    return result


def _random_case(seed, n, d, contraction=0.4):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(n, d))
    mat = contraction * rng.uniform(-1.0, 1.0, size=(d, d)) / d
    images = pts @ mat.T + 0.1
    return pts, images


def _tie_heavy_case(seed, n, d):
    """Coarse values with duplicate rows, signed zeros and fixed points."""
    rng = np.random.default_rng(seed)
    pts = np.round(rng.uniform(-2.0, 2.0, size=(n, d))) / 2
    pts[rng.random((n, d)) < 0.2] = -0.0
    pts[n // 2 :: 7] = pts[: len(pts[n // 2 :: 7])]  # duplicate rows
    images = np.round(pts @ (np.round(rng.uniform(-2.0, 2.0, size=(d, d))) / 4).T, 2)
    fixed = rng.random(n) < 0.2
    images[fixed] = pts[fixed]
    return pts, images


# (kernel, oracle) for every kernel and mode at fixed constants, each a
# function of (points, images)
KERNELS = [
    *((partial(violation_max, k=0.5, rate=0.2, mode=m),
       partial(brute_violation, k=0.5, rate=0.2, mode=m))
      for m in (MODE_KANNAN, MODE_BIANCHINI, MODE_BANACH)),
    *((partial(ratio_sup, k=k, mode=m), partial(brute_ratio, k=k, mode=m))
      for m in (MODE_KANNAN, MODE_BIANCHINI) for k in (0.0, 1.0)),
    (inner_min, brute_inner),
]


def _every_kernel(pts, images):
    """(call, oracle) for every kernel and mode on one sample."""
    for kernel, oracle in KERNELS:
        yield partial(kernel, pts, images), partial(oracle, pts, images)


def test_multi_block_size_spans_blocks():
    # the oracle cases below rely on N_MULTI_BLOCK rows needing several blocks
    assert len(_kernels._blocks(N_MULTI_BLOCK)) > 1


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("mode", [MODE_KANNAN, MODE_BIANCHINI, MODE_BANACH])
def test_violation_paths_agree_exactly(d, mode):
    # the blocked numpy pass and the literal per-pair loop
    pts, images = _random_case(seed=d * 10 + mode, n=N_MULTI_BLOCK, d=d)
    got = violation_max(pts, images, 0.3, 0.25, mode)
    assert _bits(got) == _bits(brute_violation(pts, images, 0.3, 0.25, mode))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("mode", [MODE_KANNAN, MODE_BIANCHINI])
def test_ratio_paths_agree_exactly(d, mode):
    pts, images = _random_case(seed=5 * d + mode, n=N_MULTI_BLOCK, d=d)
    got = ratio_sup(pts, images, 0.5, mode)
    assert _bits(got) == _bits(brute_ratio(pts, images, 0.5, mode))


@pytest.mark.parametrize("d", DIMS)
def test_inner_min_paths_agree_exactly(d):
    pts, images = _random_case(seed=77 + d, n=N_MULTI_BLOCK, d=d)
    assert _bits(inner_min(pts, images)) == _bits(brute_inner(pts, images))


@pytest.mark.parametrize("d", [1, 2, 3, 6, 8, 12])
def test_tie_heavy_samples_match_oracle(d):
    # exact ties within and across blocks, duplicate rows, -0.0/0.0 and
    # zero-displacement pairs, on every kernel and mode
    pts, images = _tie_heavy_case(seed=d, n=N_MULTI_BLOCK, d=d)
    for call, oracle in _every_kernel(pts, images):
        assert _bits(call()) == _bits(oracle())


@pytest.mark.parametrize("mode", [MODE_KANNAN, MODE_BIANCHINI, MODE_BANACH])
def test_violation_matches_brute_force(mode):
    pts, images = _random_case(seed=mode + 40, n=17, d=2)
    expected = brute_violation(pts, images, 0.7, 0.3, mode)
    assert violation_max(pts, images, 0.7, 0.3, mode) == expected


@pytest.mark.parametrize("mode", [MODE_KANNAN, MODE_BIANCHINI])
def test_ratio_matches_brute_force(mode):
    pts, images = _random_case(seed=mode + 91, n=17, d=3)
    assert ratio_sup(pts, images, 0.2, mode) == brute_ratio(pts, images, 0.2, mode)


def test_inner_min_matches_brute_force():
    pts, images = _random_case(seed=3, n=15, d=2)
    assert inner_min(pts, images) == brute_inner(pts, images)


def test_lexicographic_tie_break_on_symmetric_ties():
    # the reflection map on a symmetric grid produces exact argmax ties in
    # (i, j) vs (j, i); the lexicographically least pair must win
    pts = np.linspace(0.0, 1.0, 9)[:, None]
    images = 1.0 - pts
    _, (i, j) = violation_max(pts, images, 0.0, 0.49, MODE_KANNAN)
    pair = (pts[i, 0], pts[j, 0])
    assert pair == (0.0, 1.0)  # violation ties at (0,1)/(1,0); lex order wins


def test_tie_break_across_blocks():
    # the tied pairs (1, 0) and (0, 1) sit in the first and the last block;
    # the scan meets the larger one first and must give way to the later one
    pts = np.linspace(0.0, 1.0, N_MULTI_BLOCK)[::-1, None].copy()
    images = 1.0 - pts
    got = violation_max(pts, images, 0.0, 0.49, MODE_KANNAN)
    assert got == brute_violation(pts, images, 0.0, 0.49, MODE_KANNAN)
    assert got[1] == (N_MULTI_BLOCK - 1, 0)


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_signed_zeros_tie_like_tuples(first):
    # rows 0 and 1 differ only in the sign of a zero, so (0, 2) and (1, 2)
    # tie on value and on points; the first in row-major order wins
    pts = np.array([[first, 1.0], [-first, 1.0], [1.0, 0.0], [0.5, 0.5]])
    images = 1.0 - pts
    got = violation_max(pts, images, 0.0, 0.1, MODE_KANNAN)
    assert got == brute_violation(pts, images, 0.0, 0.1, MODE_KANNAN)
    assert got[1] == (0, 2)


def test_zero_displacement_pair_flags_infeasible():
    # two distinct fixed points make any constant unsatisfiable
    pts = np.array([[0.0], [1.0], [0.25]])
    images = np.array([[0.0], [1.0], [0.5]])
    _, _, infeasible, (zi, zj) = ratio_sup(pts, images, 0.0, MODE_KANNAN)
    assert infeasible
    assert {zi, zj} == {0, 1}


def test_guard_scales_with_magnitude():
    # identical geometry at 1000x scale must still certify boundary equality
    base = np.linspace(0.0, 1.0, 51)[:, None]
    for scale in (1.0, 1000.0):
        pts = scale * base
        images = scale - pts
        viol, _ = violation_max(pts, images, 0.5, 0.25, MODE_KANNAN)
        assert viol <= 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_guard_adds_in_each_orientations_own_order(eight_blocks, d):
    # x -> -x is an isometry, so at Banach rate 1 every pair's violation is
    # exactly -guard, and (i, j) and (j, i) differ only in the rounding of
    # the guard's sum, which adds the norms of point i before those of j
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1.0, 1.0, size=(6, 2)) * rng.uniform(0.1, 10.0, size=(6, 1))
    got = violation_max(pts, -pts, 0.0, 1.0, MODE_BANACH)
    assert got == brute_violation(pts, -pts, 0.0, 1.0, MODE_BANACH)
    assert got[1] == (2, 0)
    pts, _ = _random_case(seed=8, n=N_MULTI_BLOCK, d=d)
    pts *= rng.uniform(0.1, 10.0, size=(N_MULTI_BLOCK, 1))
    assert _bits(violation_max(pts, -pts, 0.0, 1.0, MODE_BANACH)) == _bits(
        brute_violation(pts, -pts, 0.0, 1.0, MODE_BANACH))


def _nan_case():
    # 0.3 x on an 11-point grid, with the image of x = 0.5 replaced by NaN
    pts = np.linspace(0.0, 1.0, 11)[:, None]
    images = 0.3 * pts
    images[5] = np.nan
    return pts, images


@pytest.mark.parametrize("mode", [MODE_KANNAN, MODE_BIANCHINI, MODE_BANACH])
def test_violation_fails_closed_on_nan(mode):
    pts, images = _nan_case()
    got = violation_max(pts, images, 0.0, 0.25, mode)
    assert got == (math.inf, (0, 5))
    assert got == brute_violation(pts, images, 0.0, 0.25, mode)


@pytest.mark.parametrize("mode", [MODE_KANNAN, MODE_BIANCHINI])
def test_ratio_marks_nan_pair_infeasible(mode):
    pts, images = _nan_case()
    got = ratio_sup(pts, images, 0.5, mode)
    assert got[2:] == (True, (0, 5))
    assert _bits(got) == _bits(brute_ratio(pts, images, 0.5, mode))


def test_ratio_nan_between_fixed_points():
    # fixed points at +-1e308: at k = 0 their numerator is 0 * inf + inf =
    # NaN, while both pairs with the fixed point 0 exceed the tolerance
    pts = np.array([[1e308], [-1e308], [0.0], [0.5]])
    images = np.array([[1e308], [-1e308], [0.0], [0.25]])
    with np.errstate(over="ignore", invalid="ignore"):
        got = ratio_sup(pts, images, 0.0, MODE_KANNAN)
        expected = brute_ratio(pts, images, 0.0, MODE_KANNAN)
    assert got[2:] == (True, (1, 0))
    assert _bits(got) == _bits(expected)


def test_all_fixed_overflow_never_picks_a_diagonal_witness():
    # fixed points at +-1e308: every inner product overflows to +inf, the
    # value that masks the diagonal, and every kernel follows its oracle
    pts = np.array([[1e308], [-1e308], [0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        expected_inner = brute_inner(pts, pts)
        expected = {
            mode: (brute_violation(pts, pts, 0.5, 0.25, mode), brute_ratio(pts, pts, 0.5, mode))
            for mode in (MODE_KANNAN, MODE_BIANCHINI)
        }
    assert inner_min(pts, pts) == expected_inner == (math.inf, (1, 2))
    for mode, (viol, ratio) in expected.items():
        assert _bits(violation_max(pts, pts, 0.5, 0.25, mode)) == _bits(viol)
        assert _bits(ratio_sup(pts, pts, 0.5, mode)) == _bits(ratio)


@pytest.mark.parametrize("mode", [MODE_KANNAN, MODE_BIANCHINI, MODE_BANACH])
def test_violation_sentinel_ties_never_pick_a_diagonal_witness(mode):
    # displacements and norms overflow, so every guard is inf and every pair
    # value is -inf, the value that masks the diagonal
    pts = np.array([[0.0, 1e200], [1.0, 1e200], [2.0, 1e200]])
    images = pts * np.array([0.5, -1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        expected = brute_violation(pts, images, 0.5, 0.25, mode)
    assert violation_max(pts, images, 0.5, 0.25, mode) == expected == (-math.inf, (0, 1))


def test_inner_min_fails_closed_on_nan():
    pts, images = _nan_case()
    got = inner_min(pts, images)
    assert got == (-math.inf, (0, 5))
    assert got == brute_inner(pts, images)


def test_nan_witness_is_smallest_across_blocks():
    # NaN rows in the first and the last block; the smallest pair by points
    # comes from the last block
    pts = np.linspace(0.0, 1.0, N_MULTI_BLOCK)[::-1, None].copy()
    images = 0.3 * pts
    images[[1, N_MULTI_BLOCK - 2]] = np.nan
    expected = (N_MULTI_BLOCK - 1, N_MULTI_BLOCK - 2)
    assert violation_max(pts, images, 0.0, 0.25, MODE_KANNAN) == (math.inf, expected)
    assert ratio_sup(pts, images, 0.0, MODE_KANNAN)[2:] == (True, expected)
    assert inner_min(pts, images) == (-math.inf, expected)


# --- many small triangle blocks, called from several threads at once -----------
#
# A worker here is a thread that calls the kernels. Each call sweeps all its
# blocks on its own thread, under its own numpy error state and ufunc buffer
# size, so callers running at once must each get the serial answer.

BLOCK_BYTES_8_BLOCKS = 8 * 3000  # 3000 entries a block: 8 triangle blocks of 200 rows


@pytest.fixture
def eight_blocks(monkeypatch):
    """Blocks of 3000 entries, so that N_MULTI_BLOCK rows take 8 triangle blocks."""
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", BLOCK_BYTES_8_BLOCKS)
    assert len(_kernels._blocks(N_MULTI_BLOCK)) == 8
    assert _kernels._blocks(N_MULTI_BLOCK)[:2] == [(0, 15), (15, 31)]


@pytest.fixture
def started_threads(monkeypatch):
    """Record every thread started while the test runs."""
    started = []
    start = threading.Thread.start

    def record(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    return started


def _on_threads(workers, check):
    """Run ``check`` on ``workers`` threads released together; re-raise the first failure."""
    barrier = threading.Barrier(workers)
    errors = []

    def run():
        try:
            barrier.wait(timeout=60)
            check()
        except BaseException as exc:  # noqa: BLE001 - handed to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


@pytest.mark.parametrize("case", [_random_case, _tie_heavy_case])
@pytest.mark.parametrize("d", [1, 3, 8])
def test_split_sweep_matches_oracle_for_any_worker_count(eight_blocks, started_threads, case, d):
    # every kernel and mode over 8 blocks, from 1, 2 and 3 threads at once
    pts, images = case(seed=100 + d, n=N_MULTI_BLOCK, d=d)
    checks = [(call, _bits(oracle())) for call, oracle in _every_kernel(pts, images)]

    def check():
        for call, expected in checks:
            assert _bits(call()) == expected

    for workers in (1, 2, 3):
        _on_threads(workers, check)
    assert len(started_threads) == 1 + 2 + 3  # the kernels start no thread of their own


@pytest.mark.parametrize("workers", [2, 3])
def test_merge_decides_ties_nan_and_zero_pairs_from_later_workers(eight_blocks, workers):
    # points descend, so each winning pair below starts in the last block,
    # and the candidate an earlier block found must give way to it, on
    # every thread calling at once
    n = N_MULTI_BLOCK
    pts = np.linspace(0.0, 1.0, n)[::-1, None].copy()

    def check():
        tie = violation_max(pts, 1.0 - pts, 0.0, 0.49, MODE_KANNAN)
        assert tie == brute_violation(pts, 1.0 - pts, 0.0, 0.49, MODE_KANNAN)
        assert tie[1] == (n - 1, 0)

        images = 0.3 * pts
        images[[1, n - 2]] = np.nan
        assert violation_max(pts, images, 0.0, 0.25, MODE_KANNAN) == (math.inf, (n - 1, n - 2))
        assert ratio_sup(pts, images, 0.0, MODE_KANNAN)[2:] == (True, (n - 1, n - 2))
        assert inner_min(pts, images) == (-math.inf, (n - 1, n - 2))

        images = 0.3 * pts
        fixed = [0, 1, n - 2, n - 1]
        images[fixed] = pts[fixed]
        got = ratio_sup(pts, images, 0.5, MODE_KANNAN)
        assert _bits(got) == _bits(brute_ratio(pts, images, 0.5, MODE_KANNAN))
        assert got[2:] == (True, (n - 1, n - 2))

    _on_threads(workers, check)


def test_equal_points_tie_keeps_the_earlier_worker(eight_blocks):
    # rows 0 and n-1 are the same point, so (0, 1) and (n-1, 1) tie on value
    # and on points; the first in row-major order wins across blocks, so the
    # candidate of the earlier block is kept, on both threads calling at once
    n = N_MULTI_BLOCK
    pts = np.linspace(0.0, 1.0, n)[:, None].copy()
    pts[n - 1] = pts[0]
    images = 1.0 - pts

    def check():
        got = violation_max(pts, images, 0.0, 0.49, MODE_KANNAN)
        assert got == brute_violation(pts, images, 0.0, 0.49, MODE_KANNAN)
        assert got[1] == (0, n - 2)

    _on_threads(2, check)


def test_worker_threads_raise_no_float_warnings(eight_blocks):
    # overflowing and NaN images: a kernel runs under its own error state, so
    # it warns on a new thread, with numpy's default state, no more than on
    # the main thread
    pts = np.linspace(-1.0, 1.0, N_MULTI_BLOCK)[:, None] * np.array([1e308, 1.0])
    images = pts * np.array([-1.0, 0.5])
    images[N_MULTI_BLOCK - 3] = np.nan
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _bits((
            brute_violation(pts, images, 0.5, 0.25, MODE_BIANCHINI),
            brute_ratio(pts, images, 0.5, MODE_KANNAN),
            brute_inner(pts, images),
        ))

    def check():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = (
                violation_max(pts, images, 0.5, 0.25, MODE_BIANCHINI),
                ratio_sup(pts, images, 0.5, MODE_KANNAN),
                inner_min(pts, images),
            )
        assert _bits(got) == expected
        assert got[0][0] == math.inf and got[1][2] and got[2][0] == -math.inf

    check()
    _on_threads(1, check)


def test_sweep_below_the_threshold_starts_no_thread(started_threads):
    # every sweep runs all its blocks on the calling thread
    pts, images = _random_case(seed=1, n=N_MULTI_BLOCK, d=2)
    assert len(_kernels._blocks(N_MULTI_BLOCK)) > 1
    for call, _ in _every_kernel(pts, images):
        call()
    assert started_threads == []


def test_worker_exception_is_raised_in_the_caller(eight_blocks, monkeypatch):
    # an exception from a later block reaches the thread that called the
    # kernel, and no thread is left running
    update = _kernels._Extremum.update
    later = _kernels._blocks(N_MULTI_BLOCK)[4][0]  # the fifth block's first row

    def fail_from_a_later_block(self, vals, lo, *sides):
        if lo >= later:
            raise MemoryError("block buffer")
        update(self, vals, lo, *sides)

    monkeypatch.setattr(_kernels._Extremum, "update", fail_from_a_later_block)
    before = threading.active_count()
    pts, images = _random_case(seed=3, n=N_MULTI_BLOCK, d=2)

    def check():
        with pytest.raises(MemoryError, match="block buffer"):
            inner_min(pts, images)

    check()
    _on_threads(2, check)
    assert threading.active_count() == before


def test_more_workers_than_cores_with_fast_switching(eight_blocks):
    # a time-bounded stress run: 8 threads calling at once on 8 blocks,
    # switching threads every microsecond; state shared between calls (a
    # block buffer, a ufunc buffer size) would change an answer or leak
    pts, images = _tie_heavy_case(seed=9, n=N_MULTI_BLOCK, d=3)
    expected = _bits(ratio_sup(pts, images, 1.0, MODE_BIANCHINI))

    def check():
        size = np.getbufsize()
        for _ in range(5):
            assert _bits(ratio_sup(pts, images, 1.0, MODE_BIANCHINI)) == expected
            assert np.getbufsize() == size

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _on_threads(8, check)
    finally:
        sys.setswitchinterval(interval)


def test_records_on_many_threads_with_fast_switching(eight_blocks):
    # a time-bounded stress run: 8 threads filling records, handing them to
    # the other class and to the checks, and dropping them, so that their
    # slots pass through _spare_slots; two records sharing a slot would
    # change an answer
    pts, images = _random_case(seed=46, n=N_MULTI_BLOCK, d=3)
    rates = {mode: ratio_sup(pts, images, 0.5, mode)[0] for mode in (MODE_KANNAN, MODE_BIANCHINI)}
    expected = {mode: _bits(violation_max(pts, images, 0.5, rate, mode)) for mode, rate in rates.items()}

    def check():
        for _ in range(5):
            record = _kernels.SweepRecord()
            for mode in (MODE_KANNAN, MODE_BIANCHINI):
                assert ratio_sup(pts, images, 0.5, mode, record=record)[0] == rates[mode]
                assert _bits(violation_max(pts, images, 0.5, rates[mode], mode, record=record)) == expected[mode]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _on_threads(8, check)
    finally:
        sys.setswitchinterval(interval)
    assert len(_kernels._spare_slots) <= _kernels._RECORD_BLOCKS + 8


# --- numpy state around a sweep ------------------------------------------------

# each kernel and the per-block step it folds a block with
SWEEPS = [
    (partial(ratio_sup, k=0.5, mode=MODE_KANNAN), (_kernels._Extremum, "update")),
    (partial(violation_max, k=0.5, rate=0.25, mode=MODE_BIANCHINI), (_kernels, "_fold_excess")),
    (inner_min, (_kernels._Extremum, "update")),
]


@pytest.fixture
def caller_bufsize():
    """A ufunc buffer size of the caller's own, restored after the test."""
    size = 8192 * 4
    old = np.setbufsize(size)
    yield size
    np.setbufsize(old)


@pytest.mark.parametrize("kernel, step", SWEEPS, ids=["ratio_sup", "violation_max", "inner_min"])
def test_kernel_leaves_numpy_state_as_found(caller_bufsize, monkeypatch, kernel, step):
    pts, images = _random_case(seed=4, n=N_MULTI_BLOCK, d=3)
    with np.errstate(all="raise", under="ignore"):
        state = np.geterr()
        kernel(pts, images)
        assert (np.getbufsize(), np.geterr()) == (caller_bufsize, state)

        owner, name = step
        fold = getattr(owner, name)
        blocks = []

        def fail_on_second_block(*args):
            blocks.append(args)
            if len(blocks) == 2:
                raise MemoryError("block buffer")
            fold(*args)

        monkeypatch.setattr(owner, name, fail_on_second_block)
        with pytest.raises(MemoryError, match="block buffer"):
            kernel(pts, images)
        assert len(blocks) == 2  # it failed folding the second block, before the sweep's end
        assert (np.getbufsize(), np.geterr()) == (caller_bufsize, state)


def test_small_ufunc_buffer_restores_the_size_without_an_errstate(caller_bufsize):
    # numpy 2 also restores the size when the kernel's np.errstate exits,
    # numpy 1.x does not, so the buffer context must restore it itself
    with pytest.raises(MemoryError):
        with _kernels._small_ufunc_buffer():
            assert np.getbufsize() == _kernels._UFUNC_BUFSIZE
            raise MemoryError
    assert np.getbufsize() == caller_bufsize


@pytest.mark.parametrize("case", [_random_case, _tie_heavy_case])
def test_caller_bufsize_changes_no_kernel_bit(case):
    pts, images = case(seed=12, n=N_MULTI_BLOCK, d=6)
    expected = [_bits(kernel(pts, images)) for kernel, _ in KERNELS]
    old = np.setbufsize(8192 * 4)
    try:
        got = [_bits(kernel(pts, images)) for kernel, _ in KERNELS]
    finally:
        np.setbufsize(old)
    assert got == expected


# --- triangle blocks: each unordered pair once ---------------------------------


@pytest.mark.parametrize("n, entries", [(1, 300), (2, 300), (60, 300), (200, 3000), (2000, 1 << 15), (500, 300)])
def test_blocks_are_contiguous_views_of_one_buffer(monkeypatch, n, entries):
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 8 * entries)
    blocks = _kernels._blocks(n)
    assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
    assert blocks[-1][1] == n
    tri = _kernels._Triangle(n, blocks)
    for (lo, hi), views in zip(blocks, tri):
        assert len(views) == 3
        for view in views:
            assert view.shape == (hi - lo, n - lo) and view.flags.c_contiguous
        # never taller than wide, and one buffer's worth unless one row is wider
        assert hi - lo <= n - lo
        assert (hi - lo) * (n - lo) <= max(entries, n - lo)
        # as tall as a buffer allows: one row more would overfill it
        assert hi == n or (hi - lo + 1) * (n - lo) > entries


@pytest.mark.parametrize("n", [1, 7, 201, 2000])
def test_block_buffers_start_on_a_cache_line(n):
    # malloc aligns to 16 bytes only, wherever earlier allocations left the heap
    held = []
    for size in (3, 5, 1001, 70001):
        held.append(np.empty(size))
        tri = _kernels._Triangle(n, _kernels._blocks(n))
        next(iter(tri))  # the buffer is made when the sweep starts
        assert tri._flat.ctypes.data % _kernels._LINE_BYTES == 0
        assert tri._flat.shape == (3, min(n * n, max(_kernels._BLOCK_BYTES // 8, n)))


N_EDGES = 60
BLOCK_BYTES_EDGES = 8 * 300  # 300 entries a block: 8 triangle blocks of 60 rows


def _edge_case(kind):
    """A 2-D sample without equal points whose witnesses are winning, tied, NaN or zero-displacement pairs."""
    rng = np.random.default_rng(["winning", "tied", "nan", "zero"].index(kind))
    if kind == "tied":
        # distinct points of a half-integer grid and a scaled quarter turn:
        # every inner product is exactly 0 and many other pair values tie
        grid = np.stack(np.meshgrid(np.arange(8), np.arange(8)), axis=-1).reshape(-1, 2)
        pts = rng.permutation(grid)[:N_EDGES] / 2 - 2.0
        return pts, pts @ np.array([[0.0, -0.5], [0.5, 0.0]]).T + 0.25
    pts, images = _random_case(seed=rng.integers(1000), n=N_EDGES, d=2)
    if kind == "nan":
        images[[7, 40]] = np.nan
    if kind == "zero":
        fixed = [3, 20, 33, 58]
        images[fixed] = pts[fixed]
    return pts, images


def _reported(result):
    """The pair a kernel reports: for ``ratio_sup``, the infeasible pair when there is one."""
    return result[3] if len(result) == 4 and result[2] else result[1]


def _edge_place(place, n):
    """Two rows at an edge of the current block schedule."""
    blocks = _kernels._blocks(n)
    if place == "first and last row":
        return 0, n - 1
    if place == "diagonal square":  # rows of one block: right of its diagonal, inside its leading square
        lo, hi = blocks[3]
        return lo, hi - 1
    if place == "last block":
        return blocks[-1][0], n - 1
    cut = blocks[len(blocks) // 2][0]
    return cut - 1, cut  # "worker cut": one row each side of where two workers would split the blocks


def _moved(n, rows, to):
    """Row order that puts ``rows`` at positions ``to`` and keeps the others in order."""
    order = [r for r in range(n) if r not in rows]
    for pos, row in sorted(zip(to, rows)):
        order.insert(pos, row)
    return np.array(order)


@pytest.mark.parametrize("kind", ["winning", "tied", "nan", "zero"])
@pytest.mark.parametrize("place", ["first and last row", "diagonal square", "last block", "worker cut"])
def test_witness_at_triangle_edges_matches_oracle(monkeypatch, kind, place):
    # the reported pair of every kernel and mode is moved to rows at an edge of
    # the triangle blocks, in both orientations, so that half the time the
    # reported orientation puts the larger row index first
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", BLOCK_BYTES_EDGES)
    assert len(_kernels._blocks(N_EDGES)) == 8
    pts, images = _edge_case(kind)
    if kind == "tied":
        assert brute_inner(pts, images)[0] == 0.0  # every pair ties
    a, b = _edge_place(place, N_EDGES)
    for number, (kernel, oracle) in enumerate(KERNELS):
        pair = _reported(oracle(pts, images))
        for to in ((a, b), (b, a)):
            order = _moved(N_EDGES, pair, to)
            got = kernel(pts[order], images[order])
            assert _bits(got) == _bits(oracle(pts[order], images[order])), (number, to)
            assert _reported(got) == to


def _in_rows(result, order):
    """``result`` with its index pairs mapped through the row order ``order``."""
    return tuple(
        tuple(int(order[i]) if i >= 0 else i for i in r) if isinstance(r, tuple) else r
        for r in result
    )


@given(d=st.integers(1, 12), n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_row_order_changes_no_value_and_no_witness_point(d, n, seed):
    # near-ties: coarse coordinates, some nudged by a few ulp, no equal
    # points; a coarse affine map with some fixed points
    rng = np.random.default_rng(seed)
    pts = rng.integers(-2, 3, size=(n, d)) / 2
    pts *= 1.0 + _kernels.EPS * rng.integers(-2, 3, size=(n, d))
    pts = pts[np.sort(np.unique(pts, axis=0, return_index=True)[1])]
    assume(len(pts) >= 2)
    images = pts @ (rng.integers(-2, 3, size=(d, d)) / 4).T + 0.25
    fixed = rng.random(len(pts)) < 0.2
    images[fixed] = pts[fixed]
    order = rng.permutation(len(pts))
    with pytest.MonkeyPatch.context() as patch:  # several blocks
        patch.setattr(_kernels, "_BLOCK_BYTES", 8 * 64)
        for kernel, _ in KERNELS:
            got = kernel(pts, images)
            assert _bits(_in_rows(kernel(pts[order], images[order]), order)) == _bits(got)


@given(
    d=st.integers(1, 12),
    n=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
    k=st.floats(0.0, 0.5),
    a=st.floats(0.0, 0.5, exclude_max=True),
)
@settings(max_examples=80, derandomize=True, deadline=None)
def test_kannan_holds_implies_bianchini_at_twice_the_rate(d, n, seed, k, a):
    # u + v <= 2 max(u, v) and rounding is monotone, so a pair's guarded
    # Bianchini (k, 2a) violation is at most its guarded Kannan (k, a) one.
    # An affine map of Lipschitz constant c passes Kannan (0, a) for every
    # a >= c / (1 - c); with c below 0.15 and k below 0.5 about two thirds
    # of the examples pass Kannan
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(n, d))
    mat = rng.uniform(-1.0, 1.0, size=(d, d))
    mat *= rng.uniform(0.0, 0.15) / max(np.linalg.norm(mat, 2), 1e-300)
    images = pts @ mat.T + rng.uniform(-1.0, 1.0, size=d)
    if violation_max(pts, images, k, a, MODE_KANNAN)[0] <= 0.0:
        assert violation_max(pts, images, k, 2.0 * a, MODE_BIANCHINI)[0] <= 0.0


@given(
    d=st.integers(1, 12),
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    k=st.floats(0.0, 3.0),
    a=st.floats(0.0, 0.5, exclude_max=True),
)
@settings(max_examples=80, derandomize=True, deadline=None)
def test_bianchini_excess_at_twice_the_rate_is_at_most_kannans_pair_by_pair(d, n, seed, k, a):
    # fl(u + v) <= 2 max(u, v) (rounding is monotone, doubling exact), so the
    # Bianchini (k, 2a) rhs is at least the Kannan (k, a) one, its guard too,
    # and num - rhs - guard is monotone in each rounding. Points and images
    # span scales from 1e-150 to 1e150; some points are fixed
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-150, 151, size=(n, 1))
    images = pts @ rng.standard_normal((d, d)).T * 10.0 ** rng.integers(-3, 4)
    fixed = rng.random(n) < 0.2
    images[fixed] = pts[fixed]
    kannan = brute_violations(pts, images, k, a, MODE_KANNAN)
    bianchini = brute_violations(pts, images, k, 2.0 * a, MODE_BIANCHINI)
    for (kv, _, _), (bv, _, _) in zip(kannan, bianchini):
        assert bv <= kv


# --- ratio_sup's stop_at: a sweep that ends once its running sup reaches a bound


@pytest.fixture
def swept_blocks(monkeypatch):
    """The number of triangle blocks each kernel call sweeps, one entry a call."""
    counts = []
    blocks = _kernels._Triangle.__iter__

    def counting(self):
        counts.append(0)
        for views in blocks(self):
            counts[-1] += 1
            yield views

    monkeypatch.setattr(_kernels._Triangle, "__iter__", counting)
    return counts


def _unsorted(call):
    """``call()`` with no row key: a full sweep, the reference for a sorted one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "_keys", lambda *args, **kwargs: None)
        return call()


RATIO_MODES = pytest.mark.parametrize(
    "mode, k", [(m, k) for m in (MODE_KANNAN, MODE_BIANCHINI) for k in (0.0, 1.0)]
)


@pytest.mark.parametrize("case", [_random_case, _tie_heavy_case])
@RATIO_MODES
def test_stop_above_the_sup_changes_no_bit(eight_blocks, swept_blocks, case, mode, k):
    pts, images = case(seed=21, n=N_MULTI_BLOCK, d=3)
    full = ratio_sup(pts, images, k, mode)
    assert _bits(full) == _bits(brute_ratio(pts, images, k, mode))
    for stop in (None, math.nextafter(full[0], math.inf), full[0] + 1.0, math.inf):
        assert repr(ratio_sup(pts, images, k, mode, stop_at=stop)) == repr(full)
    # the sorted sweep stops at the first block whose leading key is below
    # its sup, with or without a bound above the sup: every sweep has one
    # block schedule, so the bound adds no block
    full_blocks = swept_blocks[0]
    assert swept_blocks == [full_blocks] * 5 and full_blocks < 8


def _probe_pivot(points, images):
    """The pivot of ``certify._probe``: the first row of least displacement, NaN last."""
    disp, _, _ = _point_norms(points, images)
    return min(range(len(points)), key=lambda i: (bool(np.isnan(disp[i])), np.nan_to_num(disp[i]), i))


def _probe_pairs(points, images):
    """The ordered pairs ``certify._probe`` reads: the pivot against every
    other row, each pair in both orientations."""
    pivot = _probe_pivot(points, images)
    return [p for j in range(len(points)) if j != pivot for p in ((pivot, j), (j, pivot))]


def _probed(points, images, k, mode):
    """The oracle's ``(sup, infeasible)`` over the probe pairs."""
    with np.errstate(invalid="ignore", over="ignore"):  # the oracle's inf / inf
        sup, _, infeasible, _ = brute_ratio(points, images, k, mode, _probe_pairs(points, images))
    return float(sup), infeasible


# Blocks swept per call at seed 22 by a sweep that stops at the full sup, one
# ulp below it, half of it, the first block's sup, 0 and -inf: 1 where the
# first block, of 15 rows, reaches the bound
STOP_BLOCKS = {"_random_case": [1, 1, 1, 1, 1, 1], "_tie_heavy_case": [3, 3, 1, 1, 1, 1]}


@pytest.mark.parametrize("case", [_random_case, _tie_heavy_case])
@RATIO_MODES
def test_stop_at_or_below_the_sup_returns_a_bound_that_reached_it(eight_blocks, swept_blocks, case, mode, k):
    pts, images = case(seed=22, n=N_MULTI_BLOCK, d=3)
    full = ratio_sup(pts, images, k, mode)
    # with a bound no sweep can miss, the call ends after its first block
    first = ratio_sup(pts, images, k, mode, stop_at=-math.inf)
    assert swept_blocks[-1] == 1
    assert -math.inf < first[0] <= full[0]
    bounds = (full[0], math.nextafter(full[0], -math.inf), full[0] / 2, first[0], 0.0, -math.inf)
    counts = []
    for stop in bounds:
        got = ratio_sup(pts, images, k, mode, stop_at=stop)
        counts.append(swept_blocks[-1])
        assert stop <= got[0] <= full[0]
    assert counts == STOP_BLOCKS[case.__name__]


@pytest.mark.parametrize("mode", [MODE_KANNAN, MODE_BIANCHINI])
def test_a_lower_bound_at_the_stop_returns_it_before_any_block(eight_blocks, swept_blocks, mode):
    # a lower at or above stop_at comes back at once, with no witness, no
    # verdict and no block; one below it, or with no stop_at, changes no bit
    pts, images = _random_case(seed=22, n=N_MULTI_BLOCK, d=3)
    full = ratio_sup(pts, images, 1.0, mode)
    blocks = len(swept_blocks)
    for lower, stop in ((0.5, 0.5), (0.7, 0.5), (math.inf, 0.5)):
        assert _bits(ratio_sup(pts, images, 1.0, mode, stop_at=stop, lower=lower)) == _bits(
            (lower, (-1, -1), False, (-1, -1))
        )
    assert len(swept_blocks) == blocks
    stop = full[0] * 2
    assert _bits(ratio_sup(pts, images, 1.0, mode, stop_at=stop, lower=full[0])) == _bits(full)
    assert _bits(ratio_sup(pts, images, 1.0, mode, lower=full[0])) == _bits(full)
    assert len(swept_blocks) == blocks + 2


@pytest.mark.parametrize("d", [1, 3, 12, 30])
@pytest.mark.parametrize("mode", [MODE_KANNAN, MODE_BIANCHINI])
def test_the_probe_is_the_oracle_over_the_probe_pairs(d, mode):
    # NaN and infinite images, fixed rows (the pivot, 0, among them, with a
    # duplicate, 1, and two rows, 2 and 3, whose pairs with it have a
    # numerator above ZERO_NUM_TOL), and at d = 30 sums long enough that a
    # pairwise sum would move bits: each k's sup and verdict are the
    # oracle's over the pivot's pairs alone, and the sup is a lower bound on
    # the full one
    pts, images = _tie_heavy_case(seed=25, n=90, d=d)
    pts[:4], images[:4] = [0.0] * d, [0.0] * d
    pts[2:4, 0] += 1e-13
    images[2:4] = pts[2:4]
    for k in (0.0, 0.5, 2.0):
        # the zero pair (0, 2) rules k out; (0, 1) does not
        assert brute_ratio(pts, images, k, mode, [(0, 1), (1, 0)])[2:] == (False, (-1, -1))
        assert brute_ratio(pts, images, k, mode, [(0, 2)])[2:] == (True, (0, 2))
        for rows, value in ((), np.nan), ((30,), np.nan), ((30, 47), np.inf), ((75,), np.nan):
            bad = images.copy()
            bad[list(rows), 0] = value
            assert _probe_pivot(pts, bad) == 0
            if value is np.nan and rows:  # a NaN pair among the pivot's
                assert brute_ratio(pts, bad, k, mode, [(0, rows[0])])[2:] == (True, (0, rows[0]))
            got = certify._probe(pts, bad, [k], mode)
            assert repr(got) == repr([_probed(pts, bad, k, mode)])
            assert got[0][1]
            assert got[0][0] <= ratio_sup(pts, bad, k, mode)[0]


@pytest.mark.parametrize("mode", [MODE_KANNAN, MODE_BIANCHINI])
def test_the_probe_pivot_is_the_least_displacement(mode):
    # random rows with one nearly fixed row, the pivot, late or early in the
    # sample; with a NaN displacement there, that row ranks last and another
    # is the pivot
    pts, images = _random_case(seed=26, n=120, d=4)
    for pivot, nan_row in ((100, None), (3, None), (100, 100)):
        moved = images.copy()
        moved[pivot] = pts[pivot] + 1e-9
        if nan_row is not None:
            moved[nan_row, 0] = np.nan
        for k in (0.0, 1.0):
            assert repr(certify._probe(pts, moved, [k], mode)) == repr([_probed(pts, moved, k, mode)])


def test_stop_sweeps_on_until_a_block_reaches_the_bound(eight_blocks, swept_blocks):
    # with the rows in the sample's order, the winning pair is moved to the
    # last two rows, so only the last block holds a pair at the sup and a
    # stop at the sup must sweep all 8 blocks, as the full sweep does
    n = N_MULTI_BLOCK
    pts, images = _random_case(seed=23, n=n, d=3)
    order = _moved(n, brute_ratio(pts, images, 0.5, MODE_KANNAN)[1], (n - 2, n - 1))
    pts, images = pts[order], images[order]
    full = _unsorted(lambda: ratio_sup(pts, images, 0.5, MODE_KANNAN))
    assert full[1] == (n - 2, n - 1) or full[1] == (n - 1, n - 2)
    stopped = _unsorted(lambda: ratio_sup(pts, images, 0.5, MODE_KANNAN, stop_at=full[0]))
    assert repr(stopped) == repr(full)
    assert swept_blocks == [8, 8]


@pytest.mark.parametrize("case", [_random_case, _tie_heavy_case])
def test_a_given_row_rank_changes_no_bit(case):
    pts, images = case(seed=24, n=N_MULTI_BLOCK, d=4)
    rank = _kernels._row_rank(pts)
    for kernel, _ in KERNELS:
        assert _bits(kernel(pts, images, rank=rank)) == _bits(kernel(pts, images))


def _through(blocks, seen):
    for block in blocks:
        seen.append(block)
        yield block


@pytest.fixture
def sweeps(monkeypatch):
    """Per sweep set up: ``(n, blocks, order)``, the blocks filled in as they are
    swept and ``order`` the row order (None: the sample's)."""
    calls = []
    sweep = _kernels._sweep

    def recorded(*args, **kwargs):
        tri, best = sweep(*args, **kwargs)
        blocks = []
        tri.blocks = _through(tri.blocks, blocks)
        calls.append((tri.n, blocks, best.order))
        return tri, best

    monkeypatch.setattr(_kernels, "_sweep", recorded)
    return calls


def _covered(n, blocks, order):
    """The ordered sample pairs of the triangle blocks swept."""
    order = np.arange(n) if order is None else order
    return [
        pair
        for lo, hi in blocks
        for r in range(lo, hi)
        for c in range(r + 1, n)
        for pair in ((order[r], order[c]), (order[c], order[r]))
    ]


STOPS = {
    "-inf": lambda sup, probe: -math.inf,
    "probe": lambda sup, probe: probe,
    "half": lambda sup, probe: sup / 2,
    "below": lambda sup, probe: math.nextafter(sup, -math.inf),
    "at": lambda sup, probe: sup,
    "above": lambda sup, probe: math.nextafter(sup, math.inf),
    "inf": lambda sup, probe: math.inf,
}


@given(
    d=st.integers(1, 12),
    n=st.sampled_from([2, 3, 40, 65, 66, 120, 200, 200]),
    seed=st.integers(0, 2**32 - 1),
    coarse=st.booleans(),
    fixed=st.sampled_from([0.0, 0.0, 0.2, 1.0]),
    nonfinite=st.sampled_from([(), (), (np.nan,), (np.inf,), (np.nan, np.inf, np.inf)]),
    mode=st.sampled_from([MODE_KANNAN, MODE_BIANCHINI]),
    k=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    stop=st.sampled_from(["-inf", "probe", "half", "below", "below", "at", "at", "above", "inf"]),
)
@settings(
    max_examples=200, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_a_stopped_sweep_is_the_oracle_over_the_pairs_it_covered(
    eight_blocks, sweeps, d, n, seed, coarse, fixed, nonfinite, mode, k, stop
):
    # random or coarse rows (ties, duplicates, signed zeros), a share fixed, and
    # NaN and infinite images at random rows. A sweep stopped at or below the
    # full sup (the probe's sup among the bounds) returns a sup at or above
    # the bound and at most the full sup, the oracle's result over the
    # triangle blocks it swept. Above the full sup it returns the full
    # sweep's bits
    rng = np.random.default_rng(seed)
    if coarse:
        pts = rng.integers(-4, 5, size=(n, d)) / 4
        pts[rng.random((n, d)) < 0.1] = -0.0
        images = -0.75 * pts[:, ::-1] + rng.integers(-2, 3, size=(n, d)) / 8
    else:
        pts, images = _random_case(seed, n, d, contraction=2.0)
    rows = rng.random(n) < fixed
    images[rows] = pts[rows]
    for value in nonfinite:
        images[rng.integers(n), rng.integers(d)] = value
    full = ratio_sup(pts, images, k, mode)
    # the estimators' probe: the oracle over its pairs, a lower bound on the full sup
    probe = certify._probe(pts, images, [k], mode)[0]
    assert repr(probe) == repr(_probed(pts, images, k, mode))
    assert probe[0] <= full[0]
    bound = STOPS[stop](full[0], probe[0])
    sweeps.clear()
    got = ratio_sup(pts, images, k, mode, stop_at=bound)
    if got[0] >= bound:
        assert got[0] <= full[0]
        covered = _covered(*sweeps[0])
        with np.errstate(invalid="ignore", over="ignore"):  # the oracle's inf / inf
            oracle = brute_ratio(pts, images, k, mode, covered)
        assert _bits(got) == _bits(oracle)
    else:  # a bound above the full sup, or NaN: no sweep reaches it
        assert not bound <= full[0]
        assert _bits(got) == _bits(full)


# --- the sorted sweep: rows by descending key, stopped below the extremum ---------


def _fixed_rows_case(seed, n, d, k):
    """Random rows, a fifth fixed exactly: half of those one repeated point, so
    that some zero-scale pairs have a zero numerator and others do not."""
    pts, images = _random_case(seed, n, d)
    rng = np.random.default_rng(seed)
    fixed = np.flatnonzero(rng.random(n) < 0.2)
    pts[fixed[: len(fixed) // 2]] = pts[fixed[0]] if fixed.size else 0.0
    images[fixed] = pts[fixed]
    return pts, images


def _orbit_case(seed, n, d, k):
    """Rows in orbit order of an affine contraction, each row's image the next
    row, converging to the fixed point until rows repeat it to the last bit."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    mat, offset = rng.uniform(0.3, 0.95) * q, rng.uniform(-1.0, 1.0, d)
    orbit = [rng.uniform(-4.0, 4.0, d)]
    for _ in range(n):
        orbit.append(mat @ orbit[-1] + offset)
    return np.array(orbit[:-1]), np.array(orbit[1:])


def _overflow_case(seed, n, d, k):
    """``x -> 0.25 - k x`` on coarse rows, one of them at 1e160: every ratio at
    ``k`` is exactly 0, and the far row's displacement overflows to inf, so a
    sweep at ``k`` has sup 0, a bound ``0 * inf`` (NaN) and a check at rate 0
    a NaN rhs."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(-8, 9, size=(n, d)) / 4
    pts[rng.integers(n)] = 1e160
    return pts, 0.25 - k * pts


BOUNDED_CASES = {
    "random": lambda seed, n, d, k: _random_case(seed, n, d),
    "tie_heavy": lambda seed, n, d, k: _tie_heavy_case(seed, n, d),
    "fixed_rows": _fixed_rows_case,
    "orbit": _orbit_case,
    "overflow": _overflow_case,
}


def _bounded_check(pts, images, k, mode, above=0.0):
    """``(rate, full, bounded)``: ``violation_max`` at ``k`` and a rate
    ``above`` the sup of a ``ratio_sup`` sweep (and 0), unsorted over every
    block and sorted by row key. None when the sup is +inf."""
    ratio = ratio_sup(pts, images, k, mode)
    assert _bits(ratio) == _bits(_unsorted(lambda: ratio_sup(pts, images, k, mode)))
    sup = ratio[0]
    if sup == math.inf:
        return None
    rate = max(sup, 0.0) * (1.0 + above) + above
    return (rate, _unsorted(lambda: violation_max(pts, images, k, rate, mode)),
            violation_max(pts, images, k, rate, mode))


@given(
    d=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(BOUNDED_CASES)),
    mode=st.sampled_from([MODE_KANNAN, MODE_BIANCHINI]),
    k=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    above=st.sampled_from([0.0, 1e-12, 1.0]),
)
@settings(
    max_examples=150, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_bounded_check_is_the_full_check(eight_blocks, d, seed, kind, mode, k, above):
    # at the sup of a full sweep, and above it, the sweeps that skip the
    # blocks whose leading key is below their extremum give the bits of
    # the sweeps over every block
    pts, images = BOUNDED_CASES[kind](seed, N_MULTI_BLOCK, d, k)
    checked = _bounded_check(pts, images, k, mode, above)
    assume(checked is not None)
    _, full, bounded = checked
    assert _bits(bounded) == _bits(full)


@pytest.mark.parametrize("mode", [MODE_KANNAN, MODE_BIANCHINI])
@pytest.mark.parametrize("kind", sorted(BOUNDED_CASES))
def test_bounded_check_matches_the_oracle(eight_blocks, swept_blocks, kind, mode):
    pts, images = BOUNDED_CASES[kind](5, N_MULTI_BLOCK, 3, 0.5)
    rate, full, bounded = _bounded_check(pts, images, 0.5, mode)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _bits(bounded) == _bits(full) == _bits(brute_violation(pts, images, 0.5, rate, mode))
    # per call: the sorted ratio sweep, the full one, the full check, the sorted check
    assert swept_blocks[1:3] == [8, 8]
    if kind in ("random", "fixed_rows", "tie_heavy"):  # some rows are bounded below the extremum
        assert swept_blocks[0] < 8 and swept_blocks[3] < 8
    if kind == "overflow":  # the far row leads, and its pairs are NaN
        assert full[0] == math.inf


@pytest.mark.parametrize("d", [1, 3])
def test_sorted_sweeps_leave_the_inputs_alone(eight_blocks, swept_blocks, d):
    # the sweeps reorder their own copies of the columns in place; at d = 1
    # the points by coordinate could otherwise be a view of the points
    pts, images = _random_case(seed=d, n=N_MULTI_BLOCK, d=d)
    before = pts.copy(), images.copy()
    ratio_sup(pts, images, 0.5, MODE_KANNAN)
    violation_max(pts, images, 0.5, 0.3, MODE_BIANCHINI)
    assert swept_blocks[0] < 8 and swept_blocks[1] < 8  # both sorted, and stopped early
    assert pts.tobytes() == before[0].tobytes() and images.tobytes() == before[1].tobytes()


def test_nan_bound_keeps_the_far_rows_blocks(eight_blocks, swept_blocks):
    # sup 0 and an infinite displacement: the far row has no bound, so it
    # leads the order and its pairs are swept first, where 0 * inf in the
    # rhs is NaN and the smallest NaN pair is found
    pts, images = _overflow_case(seed=1, n=N_MULTI_BLOCK, d=2, k=1.0)
    far = int(np.flatnonzero(pts[:, 0] == 1e160)[0])
    rate, full, bounded = _bounded_check(pts, images, 1.0, MODE_KANNAN)
    assert rate == 0.0
    assert _bits(bounded) == _bits(full) and full[0] == math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        record, key = _kernels._laid_out(pts, images, 1.0, MODE_KANNAN, rate=rate)
    assert key[0] == math.inf and record.order[0] == far


def _tie_across_blocks():
    """A sample whose worst pair, at rows 0 and 120, ties with the pair of
    row 120 and row 199, a copy of row 0; and the rate, the sup at k = 0.5."""
    n = N_MULTI_BLOCK
    pts, images = _random_case(seed=31, n=n - 1, d=3)
    rate = ratio_sup(pts, images, 0.5, MODE_KANNAN)[0]
    order = _moved(n - 1, violation_max(pts, images, 0.5, rate, MODE_KANNAN)[1], (0, 120))
    order = np.append(order, order[0])
    return pts[order], images[order], rate


def test_ties_straddle_skipped_blocks(eight_blocks, swept_blocks):
    # the tied pairs share row 120, and rows 0 and 199 are copies, so they
    # have one key; the blocks below the maximum are skipped, and the
    # earlier pair in row-major order wins
    pts, images, rate = _tie_across_blocks()
    _, full, bounded = _bounded_check(pts, images, 0.5, MODE_KANNAN)
    assert _bits(bounded) == _bits(full)
    assert full[1] in ((0, 120), (120, 0))
    tied = [(i, j) for v, i, j in brute_violations(pts, images, 0.5, rate, MODE_KANNAN) if v == full[0]]
    assert {min(pair) for pair in tied} == {0, 120}
    assert swept_blocks[-1] < 8


def test_a_block_whose_key_is_at_the_maximum_is_swept(eight_blocks, monkeypatch):
    # a block whose leading key equals the running extremum may hold a tie,
    # so the sweep stops only at a key strictly below it
    blocks = [(0, 1), (1, 3), (3, 4), (4, 6)]
    key = np.array([math.inf, 0.5, 0.5, 0.25, 0.125, 0.0])
    running = SimpleNamespace(value=0.25)
    assert list(_kernels._until(blocks, key, running)) == blocks[:3]
    assert list(_kernels._until(blocks, None, running)) == blocks
    # keyed by each row's own largest excess, a valid bound: row 199 and 14
    # others lead, so the first block finds the losing tie (199, 120) and
    # the second leads with row 120, whose key is the maximum itself; it
    # holds the winning tie (0, 120), the first in row-major order
    pts, images, rate = _tie_across_blocks()
    full = violation_max(pts, images, 0.5, rate, MODE_KANNAN)
    own = np.full(N_MULTI_BLOCK, -math.inf)
    for v, i, j in brute_violations(pts, images, 0.5, rate, MODE_KANNAN):
        own[i] = max(own[i], v)
    own[[199, *range(1, 15)]] = math.inf
    assert own[0] == own[120] == full[0] and np.sum(own >= full[0]) == 17
    monkeypatch.setattr(_kernels, "_keys", lambda *args, **kwargs: own.copy())
    assert _bits(violation_max(pts, images, 0.5, rate, MODE_KANNAN)) == _bits(full)


# --- properties: the sorted sweeps against the literal oracles -------------------

N_PROPERTY = 100  # three triangle blocks under eight_blocks: enough for a sorted sweep


@st.composite
def _oracle_cases(draw):
    """``(points, images)``: an affine contraction's rows at a scale from
    1e-300 to 1e300, with NaN or inf images, fixed rows (the pivot among
    them), every row fixed, duplicate rows, or near-ties."""
    d = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["plain", "nonfinite", "fixed_pivot", "all_fixed", "duplicates", "near_ties"]))
    scale = draw(st.sampled_from([1e-300, 1e-160, 1e-20, 1.0, 1e20, 1e150, 1e300]))
    n = N_PROPERTY
    rng = np.random.default_rng(seed)
    pts, images = _random_case(seed, n, d)
    if kind == "nonfinite":
        rows = rng.choice(n, size=rng.integers(1, 4), replace=False)
        images[rows, rng.integers(d, size=len(rows))] = rng.choice([np.nan, np.inf, -np.inf], size=len(rows))
    elif kind == "fixed_pivot":  # the least displacement is 0, so the pivot is a fixed point
        fixed = rng.choice(n, size=rng.integers(1, 4), replace=False)
        images[fixed] = pts[fixed]
    elif kind == "all_fixed":
        images = pts.copy()
    elif kind == "duplicates":
        rows, copies = rng.choice(n, size=n // 4, replace=False), rng.integers(n, size=n // 4)
        pts[rows], images[rows] = pts[copies], images[copies]
    elif kind == "near_ties":
        # x -> c - x on rows symmetric about c / 2: every pair across c / 2 is
        # at the sup; a few images one ulp off make near-ties
        c = rng.uniform(-1.0, 1.0, d)
        pts = np.concatenate([pts[: n // 2], c - pts[: n // 2]])
        images = c - pts
        nudged = rng.choice(n, size=5, replace=False)
        images[nudged] = np.nextafter(images[nudged], np.inf)
    return pts * scale, images * scale


@given(
    case=_oracle_cases(),
    mode=st.sampled_from([MODE_KANNAN, MODE_BIANCHINI]),
    k=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    above=st.sampled_from([0.0, 0.5]),
)
@settings(
    max_examples=120, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_sorted_sweeps_match_the_oracles(eight_blocks, case, mode, k, above):
    # the sup, its witness, the infeasible flag and zero pair, the maximum
    # violation at and above the sup, and its witness, bit for bit
    assert _kernels._worth_sorting(N_PROPERTY)
    pts, images = case
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = ratio_sup(pts, images, k, mode)
        assert _bits(ratio) == _bits(brute_ratio(pts, images, k, mode))
        rate = max(ratio[0], 0.0) * (1.0 + above) if math.isfinite(ratio[0]) else 0.25
        got = violation_max(pts, images, k, rate, mode)
        assert _bits(got) == _bits(brute_violation(pts, images, k, rate, mode))


# --- ratio_sup's sup alone tells whether some pair has a positive rhs scale --------


def _some_positive_scale(points, images, mode):
    """Literal loop: does any distinct ordered pair have a positive rhs scale?"""
    disp, _, _ = _point_norms(points, images)
    scale = np.add if mode == MODE_KANNAN else np.maximum
    return any(scale(disp[i], disp[j]) > 0.0 for i, j in _pairs(len(points)))


def _row(kind, d, rng):
    """A point and its image: coarse, or tiny where a displacement should underflow."""
    x = rng.integers(-4, 5, size=d) / 4
    tiny = rng.integers(-4, 5, size=d) * 1e-171
    step = np.zeros(d)
    step[rng.integers(d)] = 1.0
    return {
        "moving": (x, rng.integers(-4, 5, size=d) / 4),
        "fixed": (x, x),
        "tiny_fixed": (tiny, tiny),
        "underflow": (tiny, tiny + 1e-170 * step),  # a displacement whose square is 0
        "subnormal": (tiny, tiny + 1e-160 * step),  # one whose square is subnormal
        "huge": (x, x + 1e200 * step),  # one whose square overflows
        "nan": (x, np.where(step == 1.0, np.nan, x)),
        "inf": (x, np.where(step == 1.0, np.inf, x)),
    }[kind]


ROW_KINDS = [
    ("moving", "fixed", "tiny_fixed", "underflow", "subnormal", "huge", "nan", "inf"),
    ("tiny_fixed", "underflow"),
    ("tiny_fixed", "underflow", "subnormal"),
    ("fixed", "underflow"),
    ("moving", "fixed"),
    ("moving", "nan", "inf", "huge"),
    ("subnormal",),
]


@given(
    d=st.integers(1, 12),
    n=st.integers(2, 16),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.sampled_from(ROW_KINDS),
    mode=st.sampled_from([MODE_KANNAN, MODE_BIANCHINI]),
    k=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_a_full_sweep_has_no_sup_exactly_when_no_pair_has_a_positive_scale(d, n, seed, kinds, mode, k):
    # a pair with a positive scale has a ratio of at least 0, or a NaN one,
    # which marks the sweep infeasible; every other pair is masked to -inf
    rng = np.random.default_rng(seed)
    pts, images = map(np.array, zip(*(_row(rng.choice(kinds), d, rng) for _ in range(n))))
    got = ratio_sup(pts, images, k, mode)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _bits(got) == _bits(brute_ratio(pts, images, k, mode))
        positive = _some_positive_scale(pts, images, mode)
    sup, _, infeasible, _ = got
    if not infeasible:
        assert (sup == -math.inf) == (not positive)


# --- k = 0: the dead k * (x_i - x_j) term is skipped where every range is finite --


@pytest.fixture
def x_terms(monkeypatch):
    """Per ``enriched_sq`` call: True when it got the x differences, False when it skipped them."""
    seen = []
    real = _kernels._Triangle.enriched_sq

    def spy(self, xt, *args, **kwargs):
        seen.append(xt is not None)
        return real(self, xt, *args, **kwargs)

    monkeypatch.setattr(_kernels._Triangle, "enriched_sq", spy)
    return seen


def _wide_case(seed, n, d):
    """Random rows whose first coordinate spans about 2e150: huge, but a finite range."""
    pts, images = _random_case(seed, n, d)
    pts[:, 0] *= 1e150
    images[:, 0] *= 1e150
    return pts, images


def _range_overflow_case(seed, n, d):
    """Random rows, with fixed points at +-1e308 in the first coordinate (its
    range overflows; the others stay small) and one more fixed point."""
    pts, images = _random_case(seed, n, d)
    far, near = [n // 3, 2 * n // 3], n // 2
    pts[far, 0] = 1e308, -1e308
    images[far + [near]] = pts[far + [near]]
    return pts, images


def _k0_results(pts, images, kernels):
    """``ratio_sup`` at k = 0, then ``violation_max`` at k = 0 at that sup and at 0.2, per mode."""
    out = []
    for mode in (MODE_KANNAN, MODE_BIANCHINI):
        ratio = kernels[0](pts, images, 0.0, mode)
        out.append(ratio)
        rate = max(ratio[0], 0.0) if math.isfinite(ratio[0]) else 0.2
        out += [kernels[1](pts, images, 0.0, r, mode) for r in (rate, 0.2)]
    return out


ORACLES = (brute_ratio, brute_violation)


@pytest.mark.parametrize("case", [_random_case, _tie_heavy_case, _wide_case])
@pytest.mark.parametrize("d", DIMS)
def test_k0_sweeps_skip_the_x_term_and_match_the_oracle(eight_blocks, x_terms, case, d):
    pts, images = case(seed=60 + d, n=80, d=d)
    got = _k0_results(pts, images, (ratio_sup, violation_max))
    assert not any(x_terms)
    assert _bits(got) == _bits(_k0_results(pts, images, ORACLES))


@pytest.mark.parametrize("d", [1, 2, 5, 12])
def test_k0_keeps_the_x_term_where_one_coordinate_range_overflows(eight_blocks, x_terms, d):
    # x_i - x_j overflows to inf for the two far rows, so 0 * (x_i - x_j) is
    # NaN and their pair fails closed. Without the x term its numerator would
    # be inf instead, and the smallest zero-scale pair (53, 40) the witness
    pts, images = _range_overflow_case(seed=d, n=80, d=d)
    got = _k0_results(pts, images, (ratio_sup, violation_max))
    assert x_terms and all(x_terms)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _k0_results(pts, images, ORACLES)
    assert _bits(got) == _bits(want)
    assert got[0][2:] == got[3][2:] == (True, (53, 26))


@pytest.mark.parametrize("d", [1, 3, 12])
def test_banach_at_k0_skips_the_x_term_where_every_range_is_finite(eight_blocks, x_terms, d):
    # Banach's rhs ||x_i - x_j|| is its own sum, so the numerator drops the
    # dead term as the other modes' do
    pts, images = _random_case(seed=d, n=80, d=d)
    got = violation_max(pts, images, 0.0, 0.3, MODE_BANACH)
    assert x_terms and not any(x_terms)
    assert _bits(got) == _bits(brute_violation(pts, images, 0.0, 0.3, MODE_BANACH))


@pytest.mark.parametrize("d", [1, 3, 12])
def test_banach_at_k0_keeps_the_x_term_where_one_coordinate_range_overflows(eight_blocks, x_terms, d):
    pts, images = _range_overflow_case(seed=d, n=80, d=d)
    got = violation_max(pts, images, 0.0, 0.3, MODE_BANACH)
    assert x_terms and all(x_terms)
    with np.errstate(over="ignore", invalid="ignore"):
        want = brute_violation(pts, images, 0.0, 0.3, MODE_BANACH)
    assert _bits(got) == _bits(want) and got[0] == math.inf


@pytest.mark.parametrize("n", [0, 1])
def test_k0_sweeps_without_a_pair(n):
    x = np.zeros((n, 3))
    assert ratio_sup(x, x, 0.0, MODE_KANNAN) == (-math.inf, (-1, -1), False, (-1, -1))
    assert violation_max(x, x, 0.0, 0.2, MODE_BIANCHINI) == (-math.inf, (-1, -1))


# --- the hand-off: the check at a ratio sweep's k reads that sweep's record ----------


@pytest.fixture
def block_work(monkeypatch):
    """Over every kernel call: ``swept``, the start row of each triangle block
    swept, and ``computed``, of each block whose numerators were computed."""
    work = SimpleNamespace(swept=[], computed=[])
    iterate, enriched_sq = _kernels._Triangle.__iter__, _kernels._Triangle.enriched_sq

    def counting(self):
        for views in iterate(self):
            work.swept.append(self.lo)
            yield views

    def counted(self, *args):
        work.computed.append(self.lo)
        return enriched_sq(self, *args)

    monkeypatch.setattr(_kernels._Triangle, "__iter__", counting)
    monkeypatch.setattr(_kernels._Triangle, "enriched_sq", counted)
    return work


def _held_bytes(record):
    """A record's held numerator blocks, each as its bytes, by block start."""
    return {lo: block.tobytes() for lo, block in record.held.items()}


def _check_reads(record, pts, images, k, rate, mode, work):
    """The check at ``(k, rate)`` with a filled ``record``, pinned to the check
    without one and to the oracle; every block of the record that the check
    reaches is read, and no other, and the record keeps its bytes. Returns
    the start rows of the blocks the check computed."""
    held = _held_bytes(record)
    work.swept.clear(), work.computed.clear()
    got = violation_max(pts, images, k, rate, mode, record=record)
    computed = list(work.computed)
    assert computed == [lo for lo in work.swept if lo not in held]
    assert _held_bytes(record) == held  # the check leaves the record as it is
    assert _bits(got) == _bits(violation_max(pts, images, k, rate, mode))
    with np.errstate(over="ignore", invalid="ignore"):
        assert _bits(got) == _bits(brute_violation(pts, images, k, rate, mode))
    return computed


def _handed_off(pts, images, k, mode, rate, work, stop_at=None, lower=None):
    """The check at ``(k, rate)`` with the record of a ``ratio_sup`` sweep at
    ``k`` (``_check_reads``). Returns the start rows of the blocks the record
    held and of those the check computed."""
    record = _kernels.SweepRecord()
    ratio_sup(pts, images, k, mode, stop_at=stop_at, lower=lower, record=record)
    return set(record.held), _check_reads(record, pts, images, k, rate, mode, work)


def _other(mode):
    return MODE_BIANCHINI if mode == MODE_KANNAN else MODE_KANNAN


def _handed_across(pts, images, k, mode, work, stop_at=None):
    """The ``mode`` ratio sweep at ``k`` with the record of the other class's
    full sweep at ``k``, pinned to the sweep without a record (and to the
    oracle when it is full): it computes only the blocks the record does not
    hold, and the held ones keep their bytes. Returns the record and the
    start rows of the blocks the sweep computed."""
    record = _kernels.SweepRecord()
    ratio_sup(pts, images, k, _other(mode), record=record)
    held = _held_bytes(record)
    work.swept.clear(), work.computed.clear()
    got = ratio_sup(pts, images, k, mode, stop_at=stop_at, record=record)
    computed = list(work.computed)
    assert computed == [lo for lo in work.swept if lo not in held]
    after = _held_bytes(record)
    assert {lo: after[lo] for lo in held} == held and set(after) - set(held) <= set(computed)
    own = ratio_sup(pts, images, k, mode, stop_at=stop_at)
    if stop_at is None or not own[0] >= stop_at:
        assert _bits(got) == _bits(own)
    else:  # stopped: each sweep returns a lower bound that reached stop_at
        assert got[0] >= stop_at
    if stop_at is None:
        with np.errstate(over="ignore", invalid="ignore"):
            assert _bits(got) == _bits(brute_ratio(pts, images, k, mode))
    return record, computed


def _hand_off_case(rng, seed, n, d, coarse, fixed, nonfinite):
    """Random or coarse rows (ties, duplicates, signed zeros), a share of them
    fixed, and NaN or infinite images."""
    if coarse:
        pts = rng.integers(-4, 5, size=(n, d)) / 4
        pts[rng.random((n, d)) < 0.1] = -0.0
        images = -0.75 * pts[:, ::-1] + rng.integers(-2, 3, size=(n, d)) / 8
    else:
        pts, images = _random_case(seed, n, d, contraction=2.0)
    rows = rng.random(n) < fixed
    images[rows] = pts[rows]
    for value in nonfinite:
        images[rng.integers(n), rng.integers(d)] = value
    return pts, images


@given(
    d=st.integers(1, 12),
    n=st.sampled_from([2, 3, 40, 65, N_PROPERTY]),
    seed=st.integers(0, 2**32 - 1),
    coarse=st.booleans(),
    fixed=st.sampled_from([0.0, 0.0, 0.2, 1.0]),
    nonfinite=st.sampled_from([(), (), (np.nan,), (np.inf,), (np.nan, np.inf, np.inf)]),
    mode=st.sampled_from([MODE_KANNAN, MODE_BIANCHINI]),
    k=st.sampled_from(certify.DEFAULT_K_GRID),
    stop=st.sampled_from(["none", "none", "half", "first"]),
    above=st.sampled_from([0.0, 1e-12, 0.5]),
)
@settings(
    max_examples=150, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_a_record_hands_the_check_its_sweep(
    eight_blocks, block_work, d, n, seed, coarse, fixed, nonfinite, mode, k, stop, above
):
    # the record of a full sweep, or of one stopped at half its sup or after
    # its first block; the check at the sup and above
    rng = np.random.default_rng(seed)
    pts, images = _hand_off_case(rng, seed, n, d, coarse, fixed, nonfinite)
    sup = ratio_sup(pts, images, k, mode)[0]
    rate = max(sup, 0.0) * (1.0 + above) + above if math.isfinite(sup) else 0.25
    stop_at = {"none": None, "half": sup / 2, "first": -math.inf}[stop]
    _handed_off(pts, images, k, mode, rate, block_work, stop_at=stop_at)


@given(
    d=st.integers(1, 12),
    n=st.sampled_from([2, 3, 40, 65, N_PROPERTY]),
    seed=st.integers(0, 2**32 - 1),
    coarse=st.booleans(),
    fixed=st.sampled_from([0.0, 0.0, 0.2, 1.0]),
    nonfinite=st.sampled_from([(), (), (np.nan,), (np.inf,), (np.nan, np.inf, np.inf)]),
    mode=st.sampled_from([MODE_KANNAN, MODE_BIANCHINI]),
    k=st.sampled_from(certify.DEFAULT_K_GRID),
    stop=st.sampled_from(["none", "none", "half", "first"]),
    above=st.sampled_from([0.0, 1e-12, 0.5]),
)
@settings(
    max_examples=150, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_a_record_hands_the_other_class_its_sweep(
    eight_blocks, block_work, d, n, seed, coarse, fixed, nonfinite, mode, k, stop, above
):
    # the other class's full sweep at k hands this class's ratio sweep, full
    # or stopped, its record; the check at this class's sup then reads the
    # blocks of both sweeps
    rng = np.random.default_rng(seed)
    pts, images = _hand_off_case(rng, seed, n, d, coarse, fixed, nonfinite)
    sup = ratio_sup(pts, images, k, mode)[0]
    rate = max(sup, 0.0) * (1.0 + above) + above if math.isfinite(sup) else 0.25
    stop_at = {"none": None, "half": sup / 2, "first": -math.inf}[stop]
    record, _ = _handed_across(pts, images, k, mode, block_work, stop_at=stop_at)
    _check_reads(record, pts, images, k, rate, mode, block_work)


def test_the_other_class_computes_only_the_blocks_past_the_record(eight_blocks, block_work):
    # a contraction on 200 rows (8 blocks): the Kannan sweep at k = 0.5 stops
    # after its first block, the Bianchini sweep after its second. So after
    # Bianchini, Kannan computes no block; after Kannan, Bianchini computes
    # its second alone and holds it too. Each check, at its own sup, then
    # computes nothing
    pts, images = _random_case(seed=45, n=N_MULTI_BLOCK, d=3)
    for mode, computed in ((MODE_KANNAN, []), (MODE_BIANCHINI, [15])):
        record, swept = _handed_across(pts, images, 0.5, mode, block_work)
        assert swept == computed and sorted(record.held) == [0, 15]
        sup = ratio_sup(pts, images, 0.5, mode)[0]
        assert _check_reads(record, pts, images, 0.5, sup, mode, block_work) == []


def test_a_record_holds_the_blocks_it_swept_and_no_more(eight_blocks):
    # each slot is allocated when the sweep reaches its block, at that
    # block's shape: a sweep that stops early holds only the blocks it swept
    pts, images = _random_case(seed=45, n=N_MULTI_BLOCK, d=3)
    blocks = _kernels._blocks(N_MULTI_BLOCK)
    for stop_at, swept in ((-math.inf, 1), (None, None)):
        record = _kernels.SweepRecord()
        ratio_sup(pts, images, 0.5, MODE_KANNAN, stop_at=stop_at, record=record)
        held = sorted(record.held)
        assert held == [lo for lo, _ in blocks[: len(held)]]
        assert 0 < len(held) < len(blocks) and len(held) == (swept or len(held))
        for lo, hi in blocks[: len(held)]:
            assert record.held[lo].shape == (hi - lo, N_MULTI_BLOCK - lo)
            assert record.held[lo].ctypes.data % _kernels._LINE_BYTES == 0


@pytest.mark.parametrize("mode", [MODE_KANNAN, MODE_BIANCHINI])
@pytest.mark.parametrize("k", certify.DEFAULT_K_GRID)
def test_every_grid_k_hands_off(eight_blocks, block_work, mode, k):
    # fixed rows (some repeating one point) and a NaN image, at the sup
    pts, images = _fixed_rows_case(seed=41, n=N_PROPERTY, d=4, k=k)
    rate = ratio_sup(pts, images, k, mode)[0]
    held, _ = _handed_off(pts, images, k, mode, rate, block_work)
    assert 0 in held
    images[17, 2] = np.nan
    _handed_off(pts, images, k, mode, rate, block_work)


@pytest.mark.parametrize("mode", [MODE_KANNAN, MODE_BIANCHINI])
def test_a_settled_record_leaves_the_check_its_own_sweep(eight_blocks, block_work, mode):
    # a sweep that ``lower`` settled holds nothing: the check sorts and
    # computes as it does without a record
    pts, images = _random_case(seed=42, n=N_MULTI_BLOCK, d=3)
    record = _kernels.SweepRecord()
    assert ratio_sup(pts, images, 0.5, mode, stop_at=0.1, lower=0.2, record=record)[0] == 0.2
    assert (record.order, record.disp, record.held) == (None, None, {})
    block_work.swept.clear()
    got = violation_max(pts, images, 0.5, 0.3, mode, record=record)
    own = list(block_work.swept)
    block_work.swept.clear()
    assert _bits(got) == _bits(violation_max(pts, images, 0.5, 0.3, mode))
    assert own == block_work.swept and block_work.computed == own + own


def test_the_slots_of_a_record_that_is_gone_serve_the_next(eight_blocks, monkeypatch):
    # a live record's slots are its own; a dropped record's serve the next
    # record, and no more than _RECORD_BLOCKS of them are kept
    monkeypatch.setattr(_kernels, "_spare_slots", [])
    pts, images = _random_case(seed=45, n=N_MULTI_BLOCK, d=3)
    first = _kernels.SweepRecord()
    ratio_sup(pts, images, 0.5, MODE_KANNAN, record=first)
    kept, slots = _held_bytes(first), {block.ctypes.data for block in first.held.values()}
    second = _kernels.SweepRecord()
    ratio_sup(pts, images, 1.0, MODE_BIANCHINI, record=second)
    assert _held_bytes(first) == kept and not slots & {block.ctypes.data for block in second.held.values()}
    del first
    third = _kernels.SweepRecord()
    ratio_sup(pts, images, 3.0, MODE_KANNAN, record=third)
    assert slots <= {block.ctypes.data for block in third.held.values()}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "_RECORD_BLOCKS", 1)
        del second, third
        assert len(_kernels._spare_slots) == 1


def test_a_record_of_another_sweep_is_refused():
    # a record serves the sweeps of either class at its own (k, n), and no
    # other: not another k or n, nor a Banach check; a check takes no empty
    # record
    pts, images = _random_case(seed=43, n=50, d=2)
    record = _kernels.SweepRecord()
    ratio_sup(pts, images, 0.5, MODE_KANNAN, record=record)
    for args in (
        (pts, images, 1.0, 0.3, MODE_KANNAN),
        (pts[:-1], images[:-1], 0.5, 0.3, MODE_KANNAN),
        (pts, images, 0.5, 0.3, MODE_BANACH),
    ):
        with pytest.raises(ValueError, match="record"):
            violation_max(*args, record=record)
    with pytest.raises(ValueError, match="record"):
        violation_max(pts, images, 0.5, 0.3, MODE_KANNAN, record=_kernels.SweepRecord())
    for args in ((pts, images, 1.0, MODE_BIANCHINI), (pts[:-1], images[:-1], 0.5, MODE_BIANCHINI)):
        for settle in ({}, {"stop_at": 0.1, "lower": 0.2}):  # refused before lower settles the call
            with pytest.raises(ValueError, match="record"):
                ratio_sup(*args, record=record, **settle)
    settled = _kernels.SweepRecord()
    ratio_sup(pts, images, 0.5, MODE_KANNAN, stop_at=0.1, lower=0.2, record=settled)
    with pytest.raises(ValueError, match="record"):
        violation_max(pts, images, 0.75, 0.3, MODE_KANNAN, record=settled)
    for mode in (MODE_KANNAN, MODE_BIANCHINI):
        assert _bits(violation_max(pts, images, 0.5, 0.3, mode, record=record)) == _bits(
            violation_max(pts, images, 0.5, 0.3, mode)
        )
        assert _bits(ratio_sup(pts, images, 0.5, mode, record=record)) == _bits(ratio_sup(pts, images, 0.5, mode))


@pytest.mark.parametrize("mode", [MODE_KANNAN, MODE_BIANCHINI])
@pytest.mark.parametrize("sorted_rows", [False, True])
def test_blocks_past_the_cap_or_wider_than_a_slot_are_recomputed(monkeypatch, block_work, mode, sorted_rows):
    # 64-entry blocks: at 70 rows, rows 0 to 5 are one-row blocks wider than
    # a slot. With two slots, the next two blocks are held, sorted or not,
    # and the check computes every other block it sweeps, with the same bits
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 8 * 64)
    monkeypatch.setattr(_kernels, "_RECORD_BLOCKS", 2)
    n = 70
    pts, images = _random_case(seed=44, n=n, d=3)
    los = [lo for lo, _ in _kernels._blocks(n)]
    assert los[:9] == list(range(9)) and (n - 5) * 1 > 64 >= (n - 6) * 1
    sup = ratio_sup(pts, images, 0.5, mode)[0]
    with pytest.MonkeyPatch.context() as patch:
        if not sorted_rows:
            patch.setattr(_kernels, "_keys", lambda *args, **kwargs: None)
        held, computed = _handed_off(pts, images, 0.5, mode, sup, block_work)
        # the other class's sweep takes no slot past the cap either
        assert set(_handed_across(pts, images, 0.5, mode, block_work)[0].held) == {6, 7}
    assert held == {6, 7}
    if not sorted_rows:  # every block, in the sample's order
        assert computed == los[:6] + los[8:]


# --- the guard only on the rows that can reach the max -------------------------


@pytest.fixture
def guarded(monkeypatch):
    """Each block's ``(lo, hi, a, b)`` over every check: the span ``a:b`` of
    the block's rows that ``_guarded_rows`` guards."""
    spans = []
    rows = _kernels._guarded_rows

    def spying(tri, *args):
        span = rows(tri, *args)
        spans.append((tri.lo, tri.hi, *span))
        return span

    monkeypatch.setattr(_kernels, "_guarded_rows", spying)
    return spans


def _every_row_guarded(tri, best, num, rhs, net, pnorm, tnorm):
    return 0, net.shape[0]


def _checked(pts, images, k, rate, mode):
    """The check at ``(k, rate)`` without a record and, in the enriched
    modes, with the record of the ratio sweep at ``k``: each bit for bit the
    check that guards every row, and the oracle. (With NaN points the oracle
    gives the value alone: its tuple comparisons do not order NaN.)"""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "_guarded_rows", _every_row_guarded)
        expected = _bits(violation_max(pts, images, k, rate, mode))
    with np.errstate(over="ignore", invalid="ignore"):
        oracle = _bits(brute_violation(pts, images, k, rate, mode))
    assert expected[0] == oracle[0] and (np.isnan(pts).any() or expected == oracle)
    assert _bits(violation_max(pts, images, k, rate, mode)) == expected
    if mode != MODE_BANACH:
        record = _kernels.SweepRecord()
        ratio_sup(pts, images, k, mode, record=record)
        assert _bits(violation_max(pts, images, k, rate, mode, record=record)) == expected
    return expected


def _reflection_sample():
    """demo's sample: the default 201 points of [0, 1], and their images 1 - x."""
    pts = certify.default_sample([(0.0, 1.0)]).points
    return pts, 1.0 - pts


@pytest.mark.parametrize("k, rate, mode", [
    (0.5, 0.25, MODE_KANNAN), (0.5, 0.5, MODE_BIANCHINI), (1.5, 0.5, MODE_BIANCHINI),
], ids=["kannan", "bianchini k=1-2a", "bianchini k=2(1-a)"])
def test_demo_reflection_checks_match_the_oracle(guarded, k, rate, mode):
    # about half the pairs' net values reach the max excess, so most rows are guarded
    pts, images = _reflection_sample()
    _checked(pts, images, k, rate, mode)
    assert any(a < b for _, _, a, b in guarded)


def test_demo_kannan_check_is_the_pinned_one():
    pts, images = _reflection_sample()
    value, (i, j) = violation_max(pts, images, 0.5, 0.25, MODE_KANNAN)
    assert value == -3.552898750869021e-15
    assert (pts[i, 0], pts[j, 0]) == (0.499895813687647, 0.5)


@pytest.mark.parametrize("sample", ["dyadic", "demo"])
def test_reflection_at_k1_rate0_guards_every_row_with_a_pair(guarded, sample):
    # k (x - y) + (1 - x) - (1 - y) is exactly 0 on a dyadic grid, so every
    # pair's net is 0: every row with a pair right of the diagonal is guarded
    if sample == "dyadic":
        pts = np.linspace(0.0, 1.0, 257)[:, None]
        images = 1.0 - pts
        assert np.all((pts - pts.T) + (images - images.T) == 0.0)
    else:
        pts, images = _reflection_sample()
    for mode in (MODE_KANNAN, MODE_BIANCHINI, MODE_BANACH):
        guarded.clear()
        _checked(pts, images, 1.0, 0.0, mode)
        if sample == "dyadic":  # the last row has no pair right of the diagonal
            checks = 1 if mode == MODE_BANACH else 2
            assert sum(b - a for _, _, a, b in guarded) == checks * (len(pts) - 1)


@pytest.mark.parametrize("mode", [MODE_KANNAN, MODE_BIANCHINI, MODE_BANACH])
@pytest.mark.parametrize("rate", [-0.25, -0.0, math.nan], ids=["negative", "minus zero", "nan"])
def test_a_negative_or_nan_rate_takes_the_dense_path(guarded, mode, rate):
    # below 0 the guard can be negative, so no row is left out; -0.0 is not
    # below 0, and guards only the rows that can reach the max
    pts, images = _random_case(seed=31, n=N_MULTI_BLOCK, d=3)
    _checked(pts, images, 0.5, rate, mode)
    assert bool(guarded) == (rate == 0.0)


def _nonfinite_case(seed, n, d, where, value):
    pts, images = _random_case(seed, n, d)
    rng = np.random.default_rng(seed)
    rows = rng.choice(n, size=3, replace=False)
    target = pts if where == "points" else images
    target[rows, rng.integers(d, size=3)] = value
    return pts, images


# (block bytes, rows): 3000-entry blocks take 100 rows in three blocks, so
# the enriched checks sort them, and 60 rows in two, which are not sorted
LAYOUTS = {
    "sorted multi-block": (BLOCK_BYTES_8_BLOCKS, N_PROPERTY),
    "unsorted two blocks": (BLOCK_BYTES_8_BLOCKS, 60),
    "unsorted one block": (None, 40),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("mode", [MODE_KANNAN, MODE_BIANCHINI, MODE_BANACH])
@pytest.mark.parametrize("case", [
    "random", "tie_heavy", "nan points", "inf points", "nan images", "inf images", "-inf images",
])
@pytest.mark.parametrize("k", [0.0, 0.5])
def test_guarded_rows_match_the_oracle(monkeypatch, layout, mode, case, k):
    block_bytes, n = LAYOUTS[layout]
    if block_bytes is not None:
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", block_bytes)
    assert len(_kernels._blocks(n)) == {"sorted multi-block": 3, "unsorted two blocks": 2}.get(layout, 1)
    d, seed = 3, 17 + mode
    if case == "random":
        pts, images = _random_case(seed, n, d)
    elif case == "tie_heavy":
        pts, images = _tie_heavy_case(seed, n, d)
    else:
        value, where = case.split()
        pts, images = _nonfinite_case(seed, n, d, where, float(value))
    with np.errstate(over="ignore", invalid="ignore"):
        sup = ratio_sup(pts, images, k, MODE_KANNAN if mode == MODE_BANACH else mode)[0]
    for rate in (max(sup, 0.0) if math.isfinite(sup) else 0.25, math.inf):
        _checked(pts, images, k, rate, mode)


def test_a_check_at_the_sup_guards_one_row(eight_blocks, guarded):
    # a contraction at its Kannan sup: the check without a record and the
    # one with it each sweep 4 blocks, 67 rows, and guard one row, the
    # winning pair's
    pts, images = _random_case(seed=5, n=N_MULTI_BLOCK, d=5)
    sup = ratio_sup(pts, images, 0.5, MODE_KANNAN)[0]
    _checked(pts, images, 0.5, sup, MODE_KANNAN)
    assert len(guarded) == 2 * 4 and sum(hi - lo for lo, hi, _, _ in guarded) == 2 * 67
    assert sum(b - a for _, _, a, b in guarded) == 2, guarded


@pytest.mark.parametrize("mode", [MODE_KANNAN, MODE_BIANCHINI, MODE_BANACH])
@pytest.mark.parametrize("d", [1, 3])
def test_the_seed_is_the_pairs_excess_bit_for_bit(monkeypatch, mode, d):
    # x -> -x on rows spanning six decades of norm, at k = 1 and rate 0
    # (Banach: k = 0, rate 1): every pair's net is exactly 0, so its excess
    # is -guard, whose sum rounds differently in the two orientations. For
    # every pair of the one block, the excess a seed takes is the larger of
    # the oracle's two, bit for bit
    rng = np.random.default_rng(40 + d)
    pts = rng.uniform(-1.0, 1.0, size=(40, d)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(40, 1))
    k, rate = (0.0, 1.0) if mode == MODE_BANACH else (1.0, 0.0)
    blocks = []
    rows = _kernels._guarded_rows

    def keep(tri, best, num, rhs, net, pnorm, tnorm):
        blocks.append((tri.lo, num.copy(), rhs.copy(), net.copy(), pnorm, tnorm))
        return rows(tri, best, num, rhs, net, pnorm, tnorm)

    monkeypatch.setattr(_kernels, "_guarded_rows", keep)
    violation_max(pts, -pts, k, rate, mode)
    assert [lo for lo, *_ in blocks] == [0] and not blocks[0][3].any()
    oracle = {(i, j): v for v, i, j in brute_violations(pts, -pts, k, rate, mode)}
    assert any(oracle[i, j] != oracle[j, i] for i, j in oracle)
    for i in range(40):
        for j in range(i + 1, 40):
            got = _kernels._pair_excess(0, i, j, *blocks[0][1:])
            assert _bits(got) == _bits(max(oracle[i, j], oracle[j, i])), (i, j)
