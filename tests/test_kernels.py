"""Oracle tests for the pairwise kernels.

Every kernel result must equal, bit for bit and witness included, a literal
per-pair loop over the documented semantics: pair sums start from 0.0 and
add coordinates in index order, ties go to the lexicographically smallest
pair of points (first in row-major order on equal points), and a NaN pair
value fails closed. Samples above one row block make the kernels carry
their extremum and tie-break across blocks.
"""

import math

import numpy as np
import pytest

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


def test_multi_block_size_spans_blocks():
    # the oracle cases below rely on N_MULTI_BLOCK rows needing several blocks
    assert _kernels._Block(N_MULTI_BLOCK, 1).rows < N_MULTI_BLOCK


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
    for mode in (MODE_KANNAN, MODE_BIANCHINI, MODE_BANACH):
        got = violation_max(pts, images, 0.5, 0.2, mode)
        assert _bits(got) == _bits(brute_violation(pts, images, 0.5, 0.2, mode))
    for mode in (MODE_KANNAN, MODE_BIANCHINI):
        for k in (0.0, 1.0):
            got = ratio_sup(pts, images, k, mode)
            assert _bits(got) == _bits(brute_ratio(pts, images, k, mode))
    assert _bits(inner_min(pts, images)) == _bits(brute_inner(pts, images))


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
