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

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enrichedfp import _kernels
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


def brute_violation(points, images, k, rate, mode, guard_eps=CHECK_GUARD_EPS):
    """Literal nested-loop reference for the guarded violation maximum."""
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
    nan = [_key(points, i, j) for v, i, j in vals if math.isnan(v)]
    if nan:
        return math.inf, _witness(nan)
    best = max(v for v, _, _ in vals)
    return best, _witness([_key(points, i, j) for v, i, j in vals if v == best])


def brute_ratio(points, images, k, mode):
    """Literal reference for ``ratio_sup``: (sup, witness, has_pos, infeasible, zpair)."""
    disp, _, _ = _point_norms(points, images)
    x, t = points.tolist(), images.tolist()
    ratios, nan, bad, has_pos = [], [], [], False
    for i, j in _pairs(len(x)):
        num = _norm([k * (a - b) + (c - e) for a, b, c, e in zip(x[i], x[j], t[i], t[j])])
        den = disp[i] + disp[j] if mode == MODE_KANNAN else np.maximum(disp[i], disp[j])
        has_pos = has_pos or den > 0.0
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
    return sup, witness, has_pos, bool(nan or bad), zpair


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
    _, _, _, infeasible, (zi, zj) = ratio_sup(pts, images, 0.0, MODE_KANNAN)
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


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_guard_adds_in_each_orientations_own_order(split_sweeps, workers):
    # x -> -x is an isometry, so at Banach rate 1 every pair's violation is
    # exactly -guard, and (i, j) and (j, i) differ only in the rounding of
    # the guard's sum, which adds the norms of point i before those of j
    split_sweeps(workers)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1.0, 1.0, size=(6, 2)) * rng.uniform(0.1, 10.0, size=(6, 1))
    got = violation_max(pts, -pts, 0.0, 1.0, MODE_BANACH)
    assert got == brute_violation(pts, -pts, 0.0, 1.0, MODE_BANACH)
    assert got[1] == (2, 0)
    pts, _ = _random_case(seed=8, n=N_MULTI_BLOCK, d=3)
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
    assert got[3:] == (True, (0, 5))
    assert _bits(got) == _bits(brute_ratio(pts, images, 0.5, mode))


def test_ratio_nan_between_fixed_points():
    # fixed points at +-1e308: at k = 0 their numerator is 0 * inf + inf =
    # NaN, while both pairs with the fixed point 0 exceed the tolerance
    pts = np.array([[1e308], [-1e308], [0.0], [0.5]])
    images = np.array([[1e308], [-1e308], [0.0], [0.25]])
    with np.errstate(over="ignore", invalid="ignore"):
        got = ratio_sup(pts, images, 0.0, MODE_KANNAN)
        expected = brute_ratio(pts, images, 0.0, MODE_KANNAN)
    assert got[3:] == (True, (1, 0))
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
    assert ratio_sup(pts, images, 0.0, MODE_KANNAN)[3:] == (True, expected)
    assert inner_min(pts, images) == (-math.inf, expected)


# --- triangle blocks split across workers -------------------------------------

BLOCK_BYTES_8_BLOCKS = 8 * 3000  # 3000 entries a block: 8 triangle blocks of 200 rows


@pytest.fixture
def split_sweeps(monkeypatch):
    """Small blocks and no work threshold; returns a setter for the worker count."""
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", BLOCK_BYTES_8_BLOCKS)
    monkeypatch.setattr(_kernels, "_PARALLEL_WORK", 0)
    return lambda workers: monkeypatch.setattr(_kernels, "_WORKERS", workers)


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


@pytest.mark.parametrize("case", [_random_case, _tie_heavy_case])
@pytest.mark.parametrize("d", [1, 3, 8])
def test_split_sweep_matches_oracle_for_any_worker_count(split_sweeps, started_threads, case, d):
    assert len(_kernels._blocks(N_MULTI_BLOCK)) == 8
    pts, images = case(seed=100 + d, n=N_MULTI_BLOCK, d=d)
    for call, oracle in _every_kernel(pts, images):
        expected = _bits(oracle())
        for workers in (1, 2, 3):
            split_sweeps(workers)
            assert _bits(call()) == expected, workers
    assert len(started_threads) == 8 * (1 + 2)  # 8 kernel calls with 2 and 3 workers


@pytest.mark.parametrize("workers", [2, 3])
def test_merge_decides_ties_nan_and_zero_pairs_from_later_workers(split_sweeps, workers):
    # points descend, so each winning pair below starts in the last block,
    # and the candidate an earlier worker found must give way to it
    split_sweeps(workers)
    n = N_MULTI_BLOCK
    pts = np.linspace(0.0, 1.0, n)[::-1, None].copy()
    tie = violation_max(pts, 1.0 - pts, 0.0, 0.49, MODE_KANNAN)
    assert tie == brute_violation(pts, 1.0 - pts, 0.0, 0.49, MODE_KANNAN)
    assert tie[1] == (n - 1, 0)

    images = 0.3 * pts
    images[[1, n - 2]] = np.nan
    assert violation_max(pts, images, 0.0, 0.25, MODE_KANNAN) == (math.inf, (n - 1, n - 2))
    assert ratio_sup(pts, images, 0.0, MODE_KANNAN)[3:] == (True, (n - 1, n - 2))
    assert inner_min(pts, images) == (-math.inf, (n - 1, n - 2))

    images = 0.3 * pts
    fixed = [0, 1, n - 2, n - 1]
    images[fixed] = pts[fixed]
    got = ratio_sup(pts, images, 0.5, MODE_KANNAN)
    assert _bits(got) == _bits(brute_ratio(pts, images, 0.5, MODE_KANNAN))
    assert got[3:] == (True, (n - 1, n - 2))


def test_equal_points_tie_keeps_the_earlier_worker(split_sweeps):
    # rows 0 and n-1 are the same point, so (0, 1) and (n-1, 1) tie on value
    # and on points; the first in row-major order wins across workers
    split_sweeps(2)
    n = N_MULTI_BLOCK
    pts = np.linspace(0.0, 1.0, n)[:, None].copy()
    pts[n - 1] = pts[0]
    images = 1.0 - pts
    got = violation_max(pts, images, 0.0, 0.49, MODE_KANNAN)
    assert got == brute_violation(pts, images, 0.0, 0.49, MODE_KANNAN)
    assert got[1] == (0, n - 2)


def test_worker_threads_raise_no_float_warnings(split_sweeps):
    # overflowing and NaN images: the workers run under the kernels' own
    # error state, so they warn no more than the calling thread does
    split_sweeps(2)
    pts = np.linspace(-1.0, 1.0, N_MULTI_BLOCK)[:, None] * np.array([1e308, 1.0])
    images = pts * np.array([-1.0, 0.5])
    images[N_MULTI_BLOCK - 3] = np.nan
    with np.errstate(over="ignore", invalid="ignore"):
        expected = (
            brute_violation(pts, images, 0.5, 0.25, MODE_BIANCHINI),
            brute_ratio(pts, images, 0.5, MODE_KANNAN),
            brute_inner(pts, images),
        )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = (
            violation_max(pts, images, 0.5, 0.25, MODE_BIANCHINI),
            ratio_sup(pts, images, 0.5, MODE_KANNAN),
            inner_min(pts, images),
        )
    assert _bits(got) == _bits(expected)
    assert got[0][0] == math.inf and got[1][3] and got[2][0] == -math.inf


def test_sweep_below_the_threshold_starts_no_thread(monkeypatch, started_threads):
    monkeypatch.setattr(_kernels, "_WORKERS", 2)
    pts, images = _random_case(seed=1, n=N_MULTI_BLOCK, d=2)
    assert N_MULTI_BLOCK**2 * 2 < _kernels._PARALLEL_WORK
    ratio_sup(pts, images, 0.5, MODE_KANNAN)
    assert started_threads == []


def test_large_sweep_starts_one_thread_per_extra_worker(monkeypatch, started_threads):
    monkeypatch.setattr(_kernels, "_WORKERS", 2)
    pts, images = _random_case(seed=2, n=2000, d=5)
    ratio_sup(pts, images, 0.5, MODE_KANNAN)
    assert len(started_threads) == 1
    assert not started_threads[0].is_alive()


def test_worker_exception_is_raised_in_the_caller(split_sweeps, monkeypatch):
    split_sweeps(3)
    update = _kernels._Extremum.update
    later = _kernels._ranges(N_MULTI_BLOCK, 2)[1][0][0]  # the second range's first row

    def fail_after_first_range(self, vals, lo, *sides):
        if lo >= later:
            raise MemoryError("block buffer")
        update(self, vals, lo, *sides)

    monkeypatch.setattr(_kernels._Extremum, "update", fail_after_first_range)
    before = threading.active_count()
    pts, images = _random_case(seed=3, n=N_MULTI_BLOCK, d=2)
    with pytest.raises(MemoryError, match="block buffer"):
        inner_min(pts, images)
    assert threading.active_count() == before


def test_more_workers_than_cores_with_fast_switching(split_sweeps):
    # a time-bounded stress run: 8 workers on 8 blocks, switching threads
    # every microsecond; a lost partial result would change the answer
    pts, images = _tie_heavy_case(seed=9, n=N_MULTI_BLOCK, d=3)
    expected = _bits(ratio_sup(pts, images, 1.0, MODE_BIANCHINI))
    split_sweeps(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert _bits(ratio_sup(pts, images, 1.0, MODE_BIANCHINI)) == expected
    finally:
        sys.setswitchinterval(interval)


# --- triangle blocks: each unordered pair once ---------------------------------


@pytest.mark.parametrize("n, entries", [(1, 300), (2, 300), (60, 300), (200, 3000), (2000, 1 << 15), (500, 300)])
def test_blocks_are_contiguous_views_of_one_buffer(monkeypatch, n, entries):
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 8 * entries)
    blocks = _kernels._blocks(n)
    assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
    assert blocks[-1][1] == n
    tri = _kernels._Triangle(n, 2, blocks)
    for (lo, hi), views in zip(blocks, tri):
        for view in views:
            assert view.shape == (hi - lo, n - lo) and view.flags.c_contiguous
        # never taller than wide, and one buffer's worth unless one row is wider
        assert hi - lo <= n - lo
        assert (hi - lo) * (n - lo) <= max(entries, n - lo)


@pytest.mark.parametrize("workers", [2, 3, 5])
@pytest.mark.parametrize("n, entries", [(60, 300), (200, 3000), (1064, 1 << 15), (2000, 1 << 15)])
def test_ranges_cut_the_triangle_where_the_pair_counts_are_equal(monkeypatch, n, entries, workers):
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 8 * entries)
    monkeypatch.setattr(_kernels, "_PARALLEL_WORK", 0)
    monkeypatch.setattr(_kernels, "_WORKERS", workers)
    blocks = _kernels._blocks(n)
    ranges = _kernels._ranges(n, 1)
    # contiguous ranges of whole blocks, covering [0, n) in order
    assert len(ranges) == workers
    assert [block for blocks_of in ranges for block in blocks_of] == blocks

    def pairs(lo, hi):
        return sum(n - 1 - i for i in range(lo, hi))

    counts = [sum(pairs(*block) for block in blocks_of) for blocks_of in ranges]
    largest = max(pairs(*block) for block in blocks)
    assert sum(counts) == n * (n - 1) // 2
    for count in counts:
        assert abs(count - n * (n - 1) / 2 / workers) <= largest
    if workers == 2:
        assert abs(counts[0] - counts[1]) <= largest


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
    return result[4] if len(result) == 5 and result[3] else result[1]


def _edge_place(place, n):
    """Two rows at an edge of the current block schedule and worker ranges."""
    blocks = _kernels._blocks(n)
    if place == "first and last row":
        return 0, n - 1
    if place == "diagonal square":  # rows of one block: right of its diagonal, inside its leading square
        lo, hi = blocks[3]
        return lo, hi - 1
    if place == "last block":
        return blocks[-1][0], n - 1
    ranges = _kernels._ranges(n, 1)
    cut = ranges[-1][0][0] if len(ranges) > 1 else blocks[len(blocks) // 2][0]
    return cut - 1, cut  # "worker cut": one row each side of the last cut


def _moved(n, rows, to):
    """Row order that puts ``rows`` at positions ``to`` and keeps the others in order."""
    order = [r for r in range(n) if r not in rows]
    for pos, row in sorted(zip(to, rows)):
        order.insert(pos, row)
    return np.array(order)


@pytest.mark.parametrize("kind", ["winning", "tied", "nan", "zero"])
@pytest.mark.parametrize("place", ["first and last row", "diagonal square", "last block", "worker cut"])
def test_witness_at_triangle_edges_matches_oracle(split_sweeps, monkeypatch, kind, place):
    # the reported pair of every kernel and mode is moved to rows at an edge of
    # the triangle blocks, in both orientations, so that half the time the
    # reported orientation puts the larger row index first
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", BLOCK_BYTES_EDGES)
    assert len(_kernels._blocks(N_EDGES)) == 8
    pts, images = _edge_case(kind)
    if kind == "tied":
        assert brute_inner(pts, images)[0] == 0.0  # every pair ties
    expected = {}
    for number, (kernel, oracle) in enumerate(KERNELS):
        pair = _reported(oracle(pts, images))
        for workers in (1, 2, 3):
            split_sweeps(workers)
            a, b = _edge_place(place, N_EDGES)
            for to in ((a, b), (b, a)):
                order = _moved(N_EDGES, pair, to)
                key = (number, tuple(order))
                if key not in expected:
                    expected[key] = _bits(oracle(pts[order], images[order]))
                got = kernel(pts[order], images[order])
                assert _bits(got) == expected[key], (number, workers, to)
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
    with pytest.MonkeyPatch.context() as patch:  # several blocks over two workers
        patch.setattr(_kernels, "_BLOCK_BYTES", 8 * 64)
        patch.setattr(_kernels, "_PARALLEL_WORK", 0)
        patch.setattr(_kernels, "_WORKERS", 2)
        for kernel, _ in KERNELS:
            got = kernel(pts, images)
            assert _bits(_in_rows(kernel(pts[order], images[order]), order)) == _bits(got)
