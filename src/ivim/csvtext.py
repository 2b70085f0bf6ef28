"""CSV rows of float64 cells spelled ``%.17g``, a block of rows at a time.

``"%.17g" % x`` asks CPython's dtoa (Gay, "Correctly rounded binary-decimal
and decimal-binary conversions", 1990) for 17 digits, past its floating-point
fast path, so every cell costs a bignum conversion.  ``_Speller`` finds the
same bytes with numpy, a block of cells at a time.  For a = |x|,
e = floor(log10(a)) and p = 16 - e, the digits are y = a * 10**p rounded to
an integer D in [10**16, 10**17), with exponent X = e.

* 10**p is the double-double P_hi + P_lo of ``_spelling_tables``, made by
  exact integer arithmetic.  a * P_hi = hi + err exactly by Dekker's
  TwoProduct (Numer. Math. 18, 1971) with Veltkamp's split; every step is its
  own ufunc, so none is fused into an FMA.  y is taken as hi + lo with
  lo = err + a * P_lo.  Its error is below 2**-46 while y < 2**57:
  a * |P_hi + P_lo - 10**p| <= 2**-106 * y, and rounding a * P_lo and then
  err + a * P_lo (both below 2**5) adds at most 2**-49 each.
* For 0 <= p <= 22, 10**p is a double (P_lo == 0), so hi + lo is y exactly:
  a fraction of exactly 1/2 is a real tie, and rounds half to even as dtoa
  does.  For every other p a fraction within 2**-20 of 1/2 might round
  either way, so the cell goes to the fallback.
* e comes from a rounded log10 and can be one off next to a power of ten,
  so a cell falls back unless 10**16 <= y and D < 10**17.  D >= 10**17 is
  an e one too low or a y within 1/2 of 10**17.  The lower edge tests
  D0 = hi + floor(lo) before rounding: that is floor(hi + lo) exactly, as
  hi >= 2**53 is an integer and a smaller hi leaves D0 below 10**16.  Only
  a true y within 2**-46 of 10**16 could land on the wrong side; adjacent
  doubles give y more than 1 apart there, so only the doubles next to
  10**e can, and the tests spell 10.0**k and its neighbours for every k.
* The fallback is ``"%.17g" % x`` itself.  It takes the cells above, +-0,
  +-inf, nan and |x| outside [1e-290, 1e290), where the split or the table
  could overflow.

The text of a cell is a row of the layout table, chosen by the sign, the
class of X (one per X in -4..16, which %g spells in fixed notation, and four
for the sign and digit count of an exponent) and the count of significant
digits (%g drops trailing zeros and a bare point).  The row lists, for each
output byte, a byte of the cell's 28-byte source: its 17 digits, the four
digits of |X| and the constants.  It is padded with NUL to 24 bytes, the
longest %.17g, and ends with the separator; one ``bytes.translate`` drops the
padding of a whole block.  The source is seven table words, four digits or
four constant bytes each, written by one gather; the first digit then takes
its byte.  The row number is a table's entry for X (its class and 17
digits), less the trailing zeros, plus the offset of a negative sign.  Most
cells need only the zeros of their last four digits; the groups before are
read only where those are all zero.

``_float_rows`` asks its caller to fill one reused block of rows at a time,
so a writer holds no column of the whole grid beyond what it already has.
Its memory is the block buffer, the speller's work arrays and their
temporaries, whatever the row count: tracemalloc traces 3.2 MiB for blocks
of 768 rows of 8 columns (4.4 MiB for 1024).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterator

import numpy as np

# Rows per spelled block.  A block holds about 320 bytes of reused work
# arrays a cell, and as much again in temporaries.  On the benchmark's
# solve_csv (8 columns) 768 rows ran as fast as 1024 (op_s_p50 0.1317 and
# 0.1315 s, medians of 10) at 0.9 MiB less peak RSS; 512 were slower.
_BLOCK_ROWS = 768

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_P_MIN, _P_MAX = 16 - 290, 16 + 291  # p for e in [-291, 290], log10's range
_WIDTH = 24
_FALLBACK = "%-24.17g"  # %.17g padded with spaces, which translate drops
# A cell's 28-byte source is seven 4-byte words: d1..d16, |X| as four digits,
# then d0 (over the NUL) with ".0-", and "e+", the separator and a NUL.  The
# last three are rows _LEAD_ROW.. of the quads table, after the 10**4 digit quads.
_LEAD_ROW = 10**4
_WORDS = b"\0.0-" + b"e+,\0" + b"e+\n\0"
_DIGIT = (20,) + tuple(range(16))  # the source byte of digit k
_EXP3 = (17, 18, 19)  # |X| as three digits; as two, the last two
_DOT, _ZERO, _MINUS, _E, _PLUS, _SEP, _NUL = range(21, 28)


def _layout(neg: bool, xclass: int, sig: int) -> list:
    out = [_MINUS] if neg else []
    if xclass <= 20:  # fixed notation, X = xclass - 4
        X = xclass - 4
        if X >= 0:  # the integer part keeps its zeros
            ndigits = max(sig, X + 1)
            out += _DIGIT[:X + 1]
            if ndigits > X + 1:
                out += [_DOT, *_DIGIT[X + 1:ndigits]]
        else:
            out += [_ZERO, _DOT] + [_ZERO] * (-X - 1) + list(_DIGIT[:sig])
    else:  # 21: X <= -100, 22: -99 <= X <= -5, 23: 17 <= X <= 99, 24: X >= 100
        out += _DIGIT[:1]
        if sig > 1:
            out += [_DOT, *_DIGIT[1:sig]]
        out += [_E, _MINUS if xclass <= 22 else _PLUS]
        out += _EXP3 if xclass in (21, 24) else _EXP3[1:]
    return out + [_NUL] * (_WIDTH - len(out)) + [_SEP]


@functools.cache
def _spelling_tables() -> tuple:
    """(powers, quads, zeros, layout, kinds), built once per process on first use.

    Row p - _P_MIN of ``powers`` is 10**p as the double-double (hi, lo) and
    hi's Veltkamp halves.  ``quads[g]`` is g < 10**4 as four ASCII digits in
    one uint32, then the source's three constant words, and ``zeros[g]`` the
    count of g's trailing zero digits.  Row ``(neg * 25 + xclass) * 17 +
    sig - 1`` of ``layout`` is ``_layout``'s; ``kinds[r]``, for the row r of
    ``powers`` that scales a cell, is that row for neg = 0 and sig = 17.
    """
    powers = []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = 10**max(p, 0), 10**max(-p, 0)
        hi = num / den  # int division rounds correctly
        a, b = hi.as_integer_ratio()
        lo = (num * b - a * den) / (den * b)
        m, ex = math.frexp(hi)  # split the mantissa, where m * _SPLIT cannot overflow
        s = m * _SPLIT
        m_hi = s - (s - m)
        powers.append((hi, lo, math.ldexp(m_hi, ex), math.ldexp(m - m_hi, ex)))
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # row g: the digits of g
    quads = np.ascontiguousarray(digits + ord("0")).view(np.uint32).ravel()
    quads = np.concatenate([quads, np.frombuffer(_WORDS, np.uint32)])
    zeros = (digits[:, ::-1] == 0).cumprod(axis=1).sum(axis=1, dtype=np.uint8)
    layout = [_layout(neg, xclass, sig) for neg in (False, True)
              for xclass in range(25) for sig in range(1, 18)]
    X = 16 - np.arange(_P_MIN, _P_MAX + 1)
    xclass = np.where((X >= -4) & (X < 17), X + 4, 21 + (X > -100) + (X >= 17) + (X >= 100))
    return np.array(powers), quads, zeros, np.array(layout, np.intp), xclass * 17 + 16


class _Speller:
    """Spells rows of ``c`` cells, at most ``cells`` cells a call, as CSV bytes.

    A row of ``groups`` holds the quads rows of a cell's seven source words:
    d1..d4 .. d13..d16, |X|, the lead and the tail (a comma, or a newline on
    a row's last cell).  The last two do not change, and are written once.
    The work arrays of more than eight bytes a cell are made once and reused.
    Made afresh for each block, they went back to the system and were faulted
    in again as new pages, which about doubled the time of a solve_csv op.
    """

    def __init__(self, cells: int, c: int):
        self.groups = np.empty((cells, 7), np.intp)
        self.groups[:, 5] = _LEAD_ROW
        self.groups[:, 6] = _LEAD_ROW + 1
        self.groups[c - 1::c, 6] = _LEAD_ROW + 2  # a row's last cell ends it
        self.source = np.empty((cells, 7), np.uint32)
        self.offsets = np.arange(0, 7 * 4 * cells, 7 * 4)[:, None]  # of each source row
        self.at = np.empty((cells, _WIDTH + 1), np.intp)
        self.text = np.empty((cells, _WIDTH + 1), np.uint8)

    def __call__(self, x: np.ndarray) -> bytes:
        """The rows of the flat float64 array ``x``, comma-separated and
        newline-terminated, each cell the bytes of ``"%.17g" % cell``."""
        powers, quads, zeros, layout, kinds = _spelling_tables()
        n = x.size
        a = np.abs(x)
        fast = (a >= 1e-290) & (a < 1e290)  # False for nan
        if not fast.all():
            a[~fast] = 1.0  # keeps log10 and the products quiet
        e = np.floor(np.log10(a)).astype(np.intp)
        r = 16 - _P_MIN - e  # the row of powers, for p = 16 - e
        p_hi, p_lo, h_hi, h_lo = powers.take(r, axis=0).T
        s = a * _SPLIT
        a_hi = s - (s - a)
        a_lo = a - a_hi
        hi = a * p_hi
        lo = ((a_hi * h_hi - hi) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo
        lo += a * p_lo
        whole = np.floor(lo)
        frac = lo - whole  # exact
        D = hi.astype(np.int64) + whole.astype(np.int64)
        exact = p_lo == 0.0
        slow = ~fast | (~exact & (np.abs(frac - 0.5) < 2.0**-20)) | (D < 10**16)
        D += (frac > 0.5) | ((frac == 0.5) & exact & ((D & 1) == 1))
        slow |= D >= 10**17
        # a slow cell's D and e may be off, but its groups and kind stay in
        # the tables and the fallback replaces its text

        G = self.groups[:n]
        top, low = np.divmod(D, 10**8)
        d0, mid = np.divmod(top, 10**8)
        np.divmod(mid, 10**4, out=(G[:, 0], G[:, 1]))
        np.divmod(low, 10**4, out=(G[:, 2], G[:, 3]))
        np.abs(e, out=G[:, 4])
        # take into an out array fills a temporary first unless mode="clip";
        # every index here is in range
        src = quads.take(G, out=self.source[:n], mode="clip").view(np.uint8)
        src[:, 20] = d0 + ord("0")

        tz = zeros.take(G[:, 3])  # trailing zeros of d1..d16
        i = np.flatnonzero(tz == 4)
        if i.size:  # four zeros carry the count into the group before
            z, t = zeros.take(G[i, :3]), tz[i]
            for j in (2, 1, 0):
                t += (t == 12 - 4 * j) * z[:, j]
            tz[i] = t
        kind = kinds.take(r)
        kind -= tz
        kind += 25 * 17 * (x < 0)
        at = layout.take(kind, axis=0, out=self.at[:n], mode="clip")
        at += self.offsets[:n]
        text = src.ravel().take(at, out=self.text[:n], mode="clip")
        i = np.flatnonzero(slow)
        if i.size:
            spelled = (_FALLBACK * i.size) % tuple(x[i].tolist())
            text[i, :_WIDTH] = np.frombuffer(spelled.encode("ascii"), np.uint8).reshape(-1, _WIDTH)
        return text.tobytes().translate(None, b"\0 ")


def _float_rows(c: int, n: int, fill: Callable) -> Iterator[bytes]:
    """``n`` CSV rows of ``c`` float64 cells, as bytes, one block of rows at a time.

    ``fill(block, s, e)`` writes rows ``s .. e-1`` of every column into
    ``block``, a ``(c, e - s)`` view of one buffer that every block reuses;
    row ``j`` of ``block`` is column ``j``.  Every value is spelled ``%.17g``
    (round-trip exact; ``-inf``, ``inf`` and ``nan`` as such), the same bytes
    as ``f"{x:.17g}"`` per cell.
    """
    rows = min(n, _BLOCK_ROWS)
    spell = _Speller(rows * c, c)
    buffer = np.empty((rows, c))  # row-major, so a block is its cells in CSV order
    for s in range(0, n, _BLOCK_ROWS):
        block = buffer[:min(n - s, _BLOCK_ROWS)]
        fill(block.T, s, s + len(block))
        yield spell(block.ravel())
