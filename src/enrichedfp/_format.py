"""``FLOAT_FMT % v`` for blocks of floats, in numpy.

``format_rows`` prints a 2-D block of floats, each cell followed by its
column's separator, with the bytes ``FLOAT_FMT % v`` gives each value but
without a call per value.

Write a finite, normal v as m * 2**e2 (m the 53-bit significand) and let
x = floor(log10 |v|), p = 16 - x and s = -(e2 + p). When 1 <= p <= 27
(x in [-11, 15]) and 1 <= s <= 63, its 17 digits are d = m * 5**p / 2**s
rounded half to even: 5**p fits in 64 bits, so the product is exact in two
uint64 words built from 32-bit limbs, and the quotient and the remainder
are shifts of them. That covers exactly the v with 1e-11 <= |v| < 2**51:
s >= 1 asks e2 <= -2 at x = 15, and s stays below 63 at x = -11. Any
other value (zero, a subnormal, inf, nan, a larger or smaller
magnitude) is printed by ``FLOAT_FMT % v`` and spliced in.

A cell is _W bytes. Its text is a subsequence of them, picked by the row
of the keep table for (x, trailing zeros of d, sign):

    0 '-' | 1 '0' | 3..19 the 17 digits (copy A) | 20 '.' | 24..26 '000' |
    27..43 the 17 digits again (copy B) | 44..47 'e-XX' | 48..49 separator

Fixed notation (x >= -4 here) is A up to digit x, then '.' and B from
digit x + 1 (for x < 0: '0', '.', -x - 1 zeros and all of B); exponent
notation (x < -4 here) is A's first digit, '.', B from digit 1, 'e-XX'.
Copies A and B keep each group of four digits on a 4-byte boundary, so one
'<u4' store from the table of 4-digit groups writes it. The tables are explicitly
little-endian, so the bytes do not depend on the machine's byte order.
"""

import functools

import numpy as np

from .serialize import FLOAT_FMT

_W = 52
_X_MIN, _X_MAX = -11, 15
_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_POW5 = 5 ** np.arange(16 - _X_MIN, 16 - _X_MAX - 1, -1, dtype=np.uint64)  # 5**p by x - _X_MIN
_POW5_LO, _POW5_HI = _POW5 & _M32, _POW5 >> _U64(32)
_E4, _E8, _E16, _E17 = _U64(10**4), _U64(10**8), _U64(10**16), _U64(10**17)
# the keep table's rows for (x, trailing zeros, sign); the next row is blank
_BLANK = (_X_MAX - _X_MIN + 1) * 17 * 2


@functools.cache
def _tables():
    """The 4-digit groups and their trailing zeros, the keep table, the
    exponents and the cell template, built on first use: a process that
    prints no long trace pays nothing for them."""
    g = np.arange(10000, dtype=np.int16)
    digits4 = (48 + np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)).astype(np.uint8)
    zeros4 = (g % 10 == 0).astype(np.uint8) + (g % 100 == 0) + (g % 1000 == 0) + (g == 0)
    x = np.arange(_X_MIN, _X_MAX + 1)[:, None, None, None]
    nd = 17 - np.arange(17)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None]
    pos = np.arange(_W)
    a, b = pos - 3, pos - 27
    expo, small, fixed = x < -4, (x < 0) & (x >= -4), x >= 0
    last_a = np.where(fixed, x, np.where(expo, 0, -1))
    first_b = np.where(fixed, x + 1, np.where(expo, 1, 0))
    keep = (
        (pos == 0) & (neg == 1)
        | (pos == 1) & small
        | (a >= 0) & (a <= last_a)
        | (pos == 20) & (nd - 1 >= first_b)
        | (pos >= 28 + x) & (pos <= 26) & small
        | (b >= first_b) & (b <= nd - 1) & (pos <= 43)
        | (pos >= 44) & (pos <= 47) & expo
        | (pos == 48)
    )
    # the last row keeps the separator alone: a blank or spliced-in cell
    keep = np.concatenate([keep.reshape(-1, _W), (pos == 48)[None]])
    ax = np.abs(x.ravel())
    exponent = np.stack([np.full_like(ax, ord("e")), np.full_like(ax, ord("-")), 48 + ax // 10, 48 + ax % 10],
                        axis=1)
    template = np.zeros(_W, np.uint8)
    template[[0, 1, 20, 24, 25, 26]] = np.frombuffer(b"-0.000", np.uint8)
    return (
        digits4.view("<u4").ravel(), zeros4, keep,
        exponent.astype(np.uint8).view("<u4").ravel(), template,
    )


def _digits(mant, e2, x):
    """``(ok, d)``: d = mant * 2**e2 * 10**(16 - x) rounded half to even,
    exact where ``ok``, which also asks it to have 17 digits (so x is
    right)."""
    i = x - _X_MIN
    s = x - 16 - e2
    # unsigned views: a negative i or s - 1 wraps past the bound
    ok = (i.view(np.uint64) <= _U64(_X_MAX - _X_MIN)) & ((s - 1).view(np.uint64) <= _U64(62))
    f, fl, fh = (table.take(i, mode="clip") for table in (_POW5, _POW5_LO, _POW5_HI))
    s = np.clip(s, 1, 63).view(np.uint64)
    ml, mh = mant & _M32, mant >> _U64(32)
    t = ml * fh + ((ml * fl) >> _U64(32))
    u = mh * fl + (t & _M32)
    hi = mh * fh + (t >> _U64(32)) + (u >> _U64(32))
    lo = mant * f  # the low word: uint64 products wrap
    up_shift = _U64(64) - s
    q = (hi << up_shift) | (lo >> s)
    # the dropped bits, at the top of a word, against one half (ties to even)
    d = q + (lo << up_shift > _U64(1 << 63) - (q & _U64(1)))
    # 17 digits before and after rounding: no double with x in [-11, 15]
    # rounds up to 10**17 (1e-14 is the nearest that does), but one that did
    # would fall back to FLOAT_FMT
    ok &= (q >= _E16) & (d < _E17)
    return ok, d


def format_rows(values: np.ndarray, blank: np.ndarray, seps) -> np.ndarray:
    """The bytes of rows of cells, as a uint8 array: ``FLOAT_FMT %
    values[i, j]``, or nothing where ``blank[i, j]``, then ``seps[j]`` (one
    or two characters). ``values`` is a C-contiguous float64 array."""
    rows, cols = values.shape
    flat = values.reshape(-1)
    blank = blank.reshape(-1)
    bits = flat.view(np.uint64)
    field = (bits >> _U64(52)) & _U64(0x7FF)
    normal = (field - _U64(1) < _U64(0x7FE)) & ~blank
    mant = (bits & _U64((1 << 52) - 1)) | _U64(1 << 52)
    e2 = field.view(np.int64) - 1075
    with np.errstate(divide="ignore", invalid="ignore"):  # x of a value not normal is unused
        x = np.floor(np.log10(np.abs(flat))).astype(np.int64)
    digits4, zeros4, keep_rows, exponent, cell = _tables()
    ok, d = _digits(mant, e2, x)
    ok &= normal
    # log10 may put x one off near a power of ten: d then has 16 or 18 digits
    miss = np.flatnonzero(normal & ~ok)
    if miss.size:
        x[miss] += np.where(d[miss] >= _E17, 1, -1)
        ok[miss], d[miss] = _digits(mant[miss], e2[miss], x[miss])

    template = np.tile(cell, (cols, 1))
    template[:, 48:50] = np.array(seps, dtype="S2").view(np.uint8).reshape(cols, 2)
    buf = np.empty((rows, cols, _W), np.uint8)
    buf[:] = template
    buf = buf.reshape(-1, _W)
    words = buf.view("<u4")
    top = d // _E8  # the first nine digits
    low = d - top * _E8
    first = top // _E8
    top -= first * _E8
    buf[:, 3] = buf[:, 27] = (first + _U64(48)).astype(np.uint8)
    groups = []  # four digits each, below 10**4 whatever d is: int64 indices
    for whole in (top, low):
        part = whole // _E4
        groups += [part.view(np.int64), (whole - part * _E4).view(np.int64)]
    for k, group in enumerate(groups):
        words[:, 1 + k] = words[:, 7 + k] = digits4.take(group)
    i = x - _X_MIN
    words[:, 11] = exponent.take(i, mode="clip")
    tail = zeros4.take(groups[0])  # trailing zeros of the 16 digits after the first
    for group in groups[1:]:
        tail = zeros4.take(group) + (group == 0) * tail
    keep = keep_rows.take(np.where(ok, (i * 17 + tail) * 2 + np.signbit(flat), _BLANK), axis=0)
    keep.reshape(rows, cols, _W)[:, :, 49] = template[:, 49] != 0

    spliced = np.flatnonzero(~ok & ~blank)
    if spliced.size:
        texts = [FLOAT_FMT % v for v in flat[spliced].tolist()]
        buf[spliced, :24] = np.array(texts, dtype="S24").view(np.uint8).reshape(-1, 24)
        keep[spliced, :24] = np.arange(24) < np.array([len(t) for t in texts])[:, None]
    return buf.reshape(-1)[keep.reshape(-1)]
