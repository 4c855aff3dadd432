"""``FLOAT_FMT % v`` for blocks of floats, in numpy.

``format_rows`` prints a 2-D block of floats, each cell followed by its
column's separator, with the bytes ``FLOAT_FMT % v`` gives each value but
without a call per value. A ``Formatter`` prints many blocks of the same
columns on one workspace: every large array a block needs is allocated
once, when the formatter is made, and each block overwrites them through
``out=``.

Write a finite, normal v as m * 2**e2 (m the 53-bit significand) and let
x = floor(log10 |v|), p = 16 - x and s = -(e2 + p). x is exact: with
|v| in [2**E, 2**(E + 1)), x is floor(E log10 2) or one more, and it is one
more exactly when the significand reaches that of the least double at or
above the next power of ten (both looked up by the exponent field). When
1 <= p <= 27 (x in [-11, 15]) and 1 <= s <= 63, its 17 digits are
d = m * 5**p / 2**s rounded half to even: 5**p fits in 64 bits, so the
product is exact in two uint64 words built from 32-bit limbs, and the
quotient and the remainder are shifts of them. That covers exactly the v
with 1e-11 <= |v| < 2**51: s >= 1 asks e2 <= -2 at x = 15, and s stays
below 63 at x = -11. Any other value (zero, a subnormal, inf, nan, a larger
or smaller magnitude) is printed by ``FLOAT_FMT % v`` and spliced in.

A cell is _W bytes, 13 '<u4' words. Its text is a subsequence of them,
picked by the row of the keep table for (x, trailing zeros of d, sign):

    0 '-' | 1 '0' | 3..19 the 17 digits (copy A) | 20 '.' | 24..26 '000' |
    27..43 the 17 digits again (copy B) | 44..47 'e-XX' | 48..49 separator

Fixed notation (x >= -4 here) is A up to digit x, then '.' and B from
digit x + 1 (for x < 0: '0', '.', -x - 1 zeros and all of B); exponent
notation (x < -4 here) is A's first digit, '.', B from digit 1, 'e-XX'.
Copies A and B keep each group of four digits on a 4-byte boundary, so one
'<u4' store from the table of 4-digit groups writes it. A row of the keep
table is 13 '<u4' words: a 0xFF byte where the text keeps the cell's byte,
0x00 where it drops it, and at 44..47, where the cell holds 0xFF, the
bytes 'e-XX' themselves in exponent notation. ANDed into the cell's words,
it leaves the text and zeroes the rest, and one C pass,
``bytes.translate(None, b"\\0")``, then drops every NUL byte of the block.
That is sound because no byte the text keeps is NUL: digits, '-', '.',
'0', 'e', separators and ``FLOAT_FMT`` text. A one-character separator
leaves the cell's last kept byte NUL, so it is dropped with the rest. The
tables are explicitly little-endian, so the bytes do not depend on the
machine's byte order.
"""

import functools
import math

import numpy as np

from .serialize import FLOAT_FMT

_W = 52
_X_MIN, _X_MAX = -11, 15
_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_POW5 = 5 ** np.arange(16 - _X_MIN, 16 - _X_MAX - 1, -1, dtype=np.uint64)  # 5**p by x - _X_MIN
_POW5_LO, _POW5_HI = _POW5 & _M32, _POW5 >> _U64(32)
_E4, _E8, _E16, _E17 = _U64(10**4), _U64(10**8), _U64(10**16), _U64(10**17)
_HALF = _U64(1 << 63)
_IMPLICIT = 1 << 52
# the keep table's rows for (x, trailing zeros, sign); the next row is blank
_BLANK = (_X_MAX - _X_MIN + 1) * 17 * 2


def _ten_above(k: int) -> float:
    """The least double at or above 10**k."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    t = num / den  # an int quotient is correctly rounded
    n, d = t.as_integer_ratio()
    return t if n * den >= num * d else math.nextafter(t, math.inf)


@functools.cache
def _tables():
    """The 4-digit groups and their trailing zeros, the keep table, the
    exponents, the cell template and the two tables of x by exponent field,
    built on first use: a process that prints no long trace pays nothing for
    them."""
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
    sep = (pos == 48) | (pos == 49)
    keep = (
        (pos == 0) & (neg == 1)
        | (pos == 1) & small
        | (a >= 0) & (a <= last_a)
        | (pos == 20) & (nd - 1 >= first_b)
        | (pos >= 28 + x) & (pos <= 26) & small
        | (b >= first_b) & (b <= nd - 1) & (pos <= 43)
        | (pos >= 44) & (pos <= 47) & expo
        | sep
    )
    # the last row keeps the separator alone: a blank or spliced-in cell
    keep = np.concatenate([keep.reshape(-1, _W), sep[None]]) * np.uint8(0xFF)
    # the exponent's bytes are the keep table's own: the template holds 0xFF
    # there, so the AND leaves 'e-XX' in exponent notation and NULs elsewhere
    ax = np.repeat(np.abs(x.ravel()), 17 * 2)
    keep[:-1, 44:48] &= np.stack([np.full_like(ax, ord("e")), np.full_like(ax, ord("-")), 48 + ax // 10,
                                  48 + ax % 10], axis=1).astype(np.uint8)
    template = np.zeros(_W, np.uint8)
    template[[0, 1, 20, 24, 25, 26, 44, 45, 46, 47]] = np.frombuffer(b"-0.000\xff\xff\xff\xff", np.uint8)
    # by exponent field f (|v| in [2**E, 2**(E + 1)), E = f - 1023): x0 - _X_MIN
    # with x0 = floor(E log10 2), and the significand at and above which x is
    # x0 + 1 (2**53, never, where the next power of ten lies in a higher
    # binade). Only x0 in [-12, 15] can end in range, so only those need it.
    x0 = np.floor((np.arange(2048) - 1023) * math.log10(2)).astype(np.int64)
    step_up = np.full(2048, 1 << 53, np.uint64)
    for k in range(_X_MIN, _X_MAX + 2):
        bits = int(np.float64(_ten_above(k)).view(np.uint64))
        if x0[bits >> 52] == k - 1:  # not 10**0 = 2**0, where x0 is already 0
            step_up[bits >> 52] = (bits & (_IMPLICIT - 1)) | _IMPLICIT
    return digits4.view("<u4").ravel(), zeros4, keep.view("<u4"), template, x0 - _X_MIN, step_up


class Formatter:
    """Prints blocks of up to ``rows`` rows of ``len(seps)`` cells, each
    followed by its column's separator (one or two characters), on one
    workspace allocated here and reused by every block.

    The workspace is the block's cells, nine uint64 arrays of one entry a
    cell, and the digit words, trailing zeros and flags. The uint64 arrays
    hold the 128-bit products, then the digit groups (rows 0 to 3), and at
    last, in their first 52 bytes a cell, the block's keep words; row 7
    holds x - _X_MIN and then the keep table's row of each cell.
    """

    def __init__(self, rows: int, seps):
        cols = len(seps)
        n = rows * cols
        template = np.tile(_tables()[3], (cols, 1))
        template[:, 48:50] = np.array(seps, dtype="S2").view(np.uint8).reshape(cols, 2)
        self._template = template.view("<u4")
        self._words = np.empty((n, _W // 4), "<u4")
        self._u64 = np.empty((9, n), np.uint64)
        self._digit_words = np.empty((4, n), "<u4")
        self._zeros = np.empty((4, n), np.uint8)
        self._tail = np.empty(n, np.uint8)
        self._flags = np.empty((3, n), bool)

    def format(self, values: np.ndarray, blank: np.ndarray) -> np.ndarray:
        """The bytes of rows of cells, as a uint8 array: ``FLOAT_FMT %
        values[i, j]``, or nothing where ``blank[i, j]``, then ``seps[j]``.
        ``values`` is a C-contiguous float64 array of at most ``rows`` rows."""
        rows, cols = values.shape
        n = rows * cols
        flat = values.reshape(-1)
        blank = blank.reshape(-1)
        bits = flat.view(np.uint64)
        field, mant, a1, a2, a3, a4, a5, a6, c = self._u64[:, :n]
        ok, flag, sign = self._flags[:, :n]
        i = a6.view(np.int64)  # x - _X_MIN
        digits4, zeros4, keep_rows, _, x0, step_up = _tables()
        np.right_shift(bits, _U64(52), out=field)
        np.bitwise_and(field, _U64(0x7FF), out=field)
        np.bitwise_and(bits, _U64(_IMPLICIT - 1), out=mant)
        np.bitwise_or(mant, _U64(_IMPLICIT), out=mant)
        e = field.view(np.int64)
        x0.take(e, mode="clip", out=i)
        step_up.take(e, mode="clip", out=a1)
        np.greater_equal(mant, a1, out=flag)
        np.add(i, flag, out=i)

        # d = mant * 2**e2 * 10**(16 - x) rounded half to even, exact where
        # ok; s = x - 16 - e2, with e2 = field - 1075
        s = a1.view(np.int64)
        np.subtract(i, e, out=s)
        np.add(s, 1075 - 16 + _X_MIN, out=s)
        # unsigned views: a negative i or s - 1 wraps past the bound (a
        # field of 0 or 0x7FF, not normal, puts i out of range)
        np.less_equal(i.view(np.uint64), _U64(_X_MAX - _X_MIN), out=ok)
        np.subtract(a1, _U64(1), out=a2)
        np.less_equal(a2, _U64(62), out=flag)
        np.logical_and(ok, flag, out=ok)
        np.clip(s, 1, 63, out=s)
        f, fl, fh = (table.take(i, mode="clip", out=out) for table, out in zip((_POW5, _POW5_LO, _POW5_HI),
                                                                               (a2, a3, a4)))
        ml, mh = np.bitwise_and(mant, _M32, out=a5), np.right_shift(mant, _U64(32), out=field)
        # t = ml * fh + ((ml * fl) >> 32), in a5
        np.multiply(ml, fl, out=c)
        np.right_shift(c, _U64(32), out=c)
        np.multiply(ml, fh, out=a5)
        t = np.add(a5, c, out=a5)
        # u = mh * fl + (t & M32), in a3
        np.multiply(mh, fl, out=a3)
        np.bitwise_and(t, _M32, out=c)
        u = np.add(a3, c, out=a3)
        # hi = mh * fh + (t >> 32) + (u >> 32), in a4
        np.multiply(mh, fh, out=a4)
        np.right_shift(t, _U64(32), out=t)
        np.add(a4, t, out=a4)
        np.right_shift(u, _U64(32), out=u)
        hi = np.add(a4, u, out=a4)
        lo = np.multiply(mant, f, out=a2)  # the low word: uint64 products wrap
        up_shift = np.subtract(_U64(64), a1, out=a3)
        np.left_shift(hi, up_shift, out=hi)
        np.right_shift(lo, a1, out=a5)
        q = np.bitwise_or(hi, a5, out=a4)
        # the dropped bits, at the top of a word, against one half (ties to even)
        np.left_shift(lo, up_shift, out=lo)
        np.bitwise_and(q, _U64(1), out=a5)
        np.subtract(_HALF, a5, out=a5)
        np.greater(lo, a5, out=flag)
        d = np.add(q, flag, out=a5)
        # 17 digits before and after rounding: no double with x in [-11, 15]
        # rounds up to 10**17 (1e-14 is the nearest that does), but one that did
        # would fall back to FLOAT_FMT
        np.greater_equal(q, _E16, out=flag)
        np.logical_and(ok, flag, out=ok)
        np.less(d, _E17, out=flag)
        np.logical_and(ok, flag, out=ok)
        np.greater(ok, blank, out=ok)

        # the first digit, then four groups of four digits, below 10**4
        # whatever d is, in rows 0 to 3
        top = np.floor_divide(d, _E8, out=a3)
        np.multiply(top, _E8, out=field)
        low = np.subtract(d, field, out=c)
        first = np.floor_divide(top, _E8, out=a5)
        np.multiply(first, _E8, out=field)
        np.subtract(top, field, out=top)
        for k, whole in ((0, top), (2, low)):
            part = np.floor_divide(whole, _E4, out=self._u64[k, :n])
            np.multiply(part, _E4, out=self._u64[k + 1, :n])
            np.subtract(whole, self._u64[k + 1, :n], out=self._u64[k + 1, :n])
        groups = self._u64[:4, :n].view(np.int64)
        text = digits4.take(groups, mode="clip", out=self._digit_words[:, :n])
        words = self._words[:n]
        words.reshape(rows, cols, _W // 4)[:] = self._template
        words[:, 1:5] = words[:, 7:11] = text.T
        cells = words.view(np.uint8)
        np.add(first, _U64(48), out=first)
        cells[:, 3] = cells[:, 27] = first
        # trailing zeros of the 16 digits after the first, in the last group
        # and then in each group before it while those after it are all zero
        zeros = zeros4.take(groups, mode="clip", out=self._zeros[:, :n])
        tail = self._tail[:n]
        tail[:] = zeros[0]
        for z in zeros[1:]:
            np.equal(z, 4, out=flag)
            np.multiply(tail, flag, out=tail)
            np.add(tail, z, out=tail)
        row = i  # the keep row: (i * 17 + tail) * 2 + sign, or blank
        np.multiply(row, 17, out=row)
        np.add(row, tail, out=row)
        np.multiply(row, 2, out=row)
        np.signbit(flat, out=sign)
        np.add(row, sign, out=row)
        np.logical_not(ok, out=flag)
        np.copyto(row, _BLANK, where=flag)
        keep = self._u64.reshape(-1).view("<u4")[: words.size].reshape(words.shape)  # rows 0 to 6
        np.bitwise_and(words, keep_rows.take(row, axis=0, mode="clip", out=keep), out=words)

        np.greater(flag, blank, out=flag)
        spliced = np.flatnonzero(flag)
        if spliced.size:
            texts = [FLOAT_FMT % v for v in flat[spliced].tolist()]
            cells[spliced, :24] = np.array(texts, dtype="S24").view(np.uint8).reshape(-1, 24)
        return np.frombuffer(words.tobytes().translate(None, b"\0"), np.uint8)


def format_rows(values: np.ndarray, blank: np.ndarray, seps) -> np.ndarray:
    """The bytes of rows of cells, as a uint8 array: ``FLOAT_FMT %
    values[i, j]``, or nothing where ``blank[i, j]``, then ``seps[j]`` (one
    or two characters). ``values`` is a C-contiguous float64 array."""
    return Formatter(len(values), seps).format(values, blank)
