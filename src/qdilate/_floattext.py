"""The text ``float.__repr__`` gives, for whole float64 arrays at once.

A float's repr is the shortest decimal that reads back as the same float,
and of several such decimals the one nearest to it (Steele & White, PLDI
1990). :func:`shortest` finds it with elementwise float64 arithmetic. Each
|x| is scaled by 10**k into s = |x| 10**k in [1e16, 1e17), formed as a
double-double with Dekker's exact product (Numer. Math. 18, 1971): s_hi is
an integer and s_lo the rest, to within about 1e-14. The decimals that read
back as x are those within h = 10**k ulp(x)/2 of s, h in (0.55, 11.1]
(h/2 below s when x is a power of two, whose lower neighbour is closer). A window at most 22.2 wide holds at most one multiple of 100, so
the nearest multiple of 100, if it lies within h, is the shortest decimal;
otherwise the nearest multiple of 10, if it does; otherwise the nearest
integer, which always does. A float whose decision comes within 1e-9 of the
window's edges or of a rounding tie, one outside 1e-250 to 1e250 in
magnitude (subnormals included), a NaN or an infinity is left undecided
and goes through ``float.__repr__`` (json's spelling for the non-finite).

:func:`rows_text` lays the digits out by repr's rules (positional for
1e-4 <= |x| < 1e16, else ``d.ddde-05``) in three little-endian uint64 words
per float, puts each after its separator in a fixed-width record, and
compacts a block of records by dropping their NUL bytes. Everything is
elementwise numpy: no BLAS, so the text does not depend on the BLAS thread
count.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_FAST_MIN, _FAST_MAX = 1e-250, 1e250  # keeps 10**k and the splits finite
_MARGIN = 1e-9  # a decision closer than this, in units of s, is left undecided
_EXPONENT, _MANTISSA = np.uint64(0x7FF << 52), np.uint64(2**52 - 1)
_HALF_ULP = np.uint64(53 << 52)  # subtracted from the exponent bits: ulp / 2
_WIDTH = 24  # bytes per float; the longest repr is "-1.2345678901234567e-100"
_BLOCK = 16384  # floats per block; the block's temporaries set the memory used
# Matrices with fewer floats go through float.__repr__ one at a time: below
# about this many, the kernel's fixed cost of some 200 numpy calls is more
# than repr's.
_KERNEL_MIN = 512
_ZEROS = np.uint64(0x3030303030303030)  # eight ASCII '0'


def _byte_table(text_at) -> list:
    """Word k (k < 3) of the 24-byte string ``text_at(p)`` for each p in [0, 25]."""
    rows = [int.from_bytes(text_at(p)[:_WIDTH].ljust(_WIDTH, b"\0"), "little") for p in range(26)]
    return [np.array([r >> 64 * k & 2**64 - 1 for r in rows], dtype=np.uint64) for k in range(3)]


def _prefix(index: int) -> int:
    """The text before the digits for ``index`` = 8 * sign + start, as a word."""
    sign, start = divmod(index, 8)
    zeros = start - sign - 2  # after "0.", when 1e-4 <= |x| < 1
    return int.from_bytes(b"-" * sign + (b"0." + b"0" * zeros if zeros >= 0 else b""), "little")


_BEFORE = _byte_table(lambda p: b"\xff" * p)  # a mask of the bytes before byte p
_DOT = _byte_table(lambda p: b"\0" * p + b".")  # '.' at byte p
_PREFIX = np.array([_prefix(i) for i in range(16)], dtype=np.uint64)


@functools.cache
def _pow10(k: int) -> tuple:
    """10**k as a double-double (hi, lo), then hi split into two 26-bit halves."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den  # int true division rounds correctly
    a, b = hi.as_integer_ratio()
    lo = (num * b - a * den) / (den * b)
    split = hi * _SPLIT
    hi_hi = split - (split - hi)
    return hi, lo, hi_hi, hi - hi_hi


def shortest(x: np.ndarray) -> tuple:
    """``(digits, exp10, decided)`` for the contiguous 1-d float64 array ``x``.

    Where ``decided``, repr(x) has the significant digits of the int64
    ``digits`` (in [1e16, 1e17), padded with trailing zeros to 17 digits)
    and its first digit at 10**exp10; a zero is decided as digits 0 and
    exp10 0. Elsewhere the two arrays hold placeholders.
    """
    ax = np.abs(x)
    fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)
    if not fast.all():
        ax[~fast] = 1.0  # a stand-in that keeps the arithmetic warning-free
    k = 16 - np.floor(np.log10(ax)).astype(np.int64)
    k0 = int(k.min()) - 1
    table = [np.array(row) for row in zip(*map(_pow10, range(k0, int(k.max()) + 2)))]
    split = ax * _SPLIT
    a_hi = split - (split - ax)
    a_lo = ax - a_hi

    def scaled(k):
        p_hi, p_lo, p_hh, p_hl = (np.take(row, k - k0) for row in table)
        s_hi = ax * p_hi
        err = (((a_hi * p_hh - s_hi) + a_hi * p_hl) + a_lo * p_hh) + a_lo * p_hl
        return s_hi, err + ax * p_lo, p_hi

    s_hi, s_lo, p_hi = scaled(k)
    # log10 can miss the decade by one next to a power of ten.
    fix = (s_hi < 1e16).astype(np.int64) - (s_hi >= 1e17)
    if fix.any():
        k += fix
        s_hi, s_lo, p_hi = scaled(k)
    above = ((ax.view(np.uint64) & _EXPONENT) - _HALF_ULP).view(np.float64) * p_hi
    pow2 = (x.view(np.uint64) & _MANTISSA) == 0
    below = above - 0.5 * above * pow2
    # A candidate d away from s reads back as x when lo_in < d < hi_in, and
    # surely does not when d < lo_out or d > hi_out.
    lo_in, hi_in = _MARGIN - below, above - _MARGIN
    lo_out, hi_out = -below - _MARGIN, above + _MARGIN
    whole = s_hi.astype(np.int64)
    rest100 = whole - whole // 100 * 100
    rest10 = rest100 - rest100 // 10 * 10

    def nearest(rest, step):
        # The multiple of step nearest to s and its offset d from s.
        frac = rest + s_lo
        n = np.rint(frac * (1 / step))
        return whole - rest + n.astype(np.int64) * step, n * step - frac

    c100, d100 = nearest(rest100, 100)
    c10, d10 = nearest(rest10, 10)
    c1, d1 = nearest(0, 1)
    in100 = (d100 > lo_in) & (d100 < hi_in)
    out100 = (d100 < lo_out) | (d100 > hi_out)
    in10 = (d10 > lo_in) & (d10 < hi_in) & (np.abs(np.abs(d10) - 5) > _MARGIN)
    out10 = (d10 < lo_out) | (d10 > hi_out)
    in1 = (d1 > lo_in) & (d1 < hi_in) & (np.abs(np.abs(d1) - 0.5) > _MARGIN)
    # A power of two's window is lopsided: when the nearest multiple of 10
    # falls outside it, the next one may not, so that case stays undecided.
    decided = in100 | out100 & (in10 | out10 & ~pow2 & in1)
    digits = c1 + in10 * (c10 - c1)
    digits += in100 * (c100 - digits)
    decided &= fast & (digits >= 10**16) & (s_hi >= 1e16) & (s_hi < 1e17)
    top = digits == 10**17
    digits -= top * (10**17 - 10**16)
    exp10 = 16 - k + top
    zero = x == 0
    if zero.any():
        digits[zero] = 0
        exp10[zero] = 0
        decided |= zero
    return digits, exp10, decided


def _ascii8(v: np.ndarray) -> np.ndarray:
    """The eight ASCII digits of each uint64 ``v`` < 10**8, first digit in the low byte."""
    hi = v // 10000
    x = hi | (v - hi * 10000) << 32
    q = (x * 10486 >> 20) & 0x0000007F0000007F  # both 4-digit halves // 100
    x = q | (x - q * 100) << 16
    q = (x * 103 >> 10) & 0x000F000F000F000F  # all four 2-digit quarters // 10
    return (q | (x - q * 10) << 8) | _ZEROS


def _significant(word: np.ndarray) -> np.ndarray:
    """Bytes of an eight-digit ASCII word up to its last digit other than '0'."""
    # Each byte is at most 9, so rounding to a float cannot carry into the
    # next byte: the exponent gives the highest nonzero byte exactly.
    return (np.frexp((word ^ _ZEROS).astype(np.float64))[1] + 7) // 8


def _repr_words(digits, exp10, neg) -> list:
    """repr's text of each decided float as three little-endian uint64 words, NUL-padded."""
    lead = digits // 10**16
    rest = digits - lead * 10**16
    hi = rest // 10**8
    hi8 = _ascii8(hi.astype(np.uint64))
    lo8 = _ascii8((rest - hi * 10**8).astype(np.uint64))
    sig_hi, sig_lo = _significant(hi8), _significant(lo8)
    nd = 1 + sig_hi + (sig_lo > 0) * (8 + sig_lo - sig_hi)
    sign = neg.astype(np.int64)
    sci = (exp10 < -4) | (exp10 > 15)
    fixed = (exp10 >= 0) & ~sci
    small = (exp10 < 0) & ~sci
    # The digits start at byte `start`, after the prefix; from byte `split`
    # on they move up one byte, for the '.' at `split` (24: no '.').
    start = sign + small * (1 - exp10)
    split = np.where(fixed, sign + exp10 + 1, np.where(sci & (nd > 1), sign + 1, _WIDTH))
    end = sign + nd + (nd > 1)  # where a scientific mantissa ends
    size = np.where(fixed, sign + np.maximum(nd, exp10 + 2) + 1, start + nd)

    shift = start.astype(np.uint64) * 8
    back = 64 - shift
    g0 = (lead.astype(np.uint64) | 0x30) | hi8 << 8
    g1 = hi8 >> 56 | lo8 << 8
    low = [g0 << shift, g1 << shift | g0 >> back, lo8 >> 56 << shift | g1 >> back]
    high = [low[0] << 8, low[1] << 8 | low[0] >> 56, low[2] << 8 | low[1] >> 56]
    words = [
        low[j] & np.take(_BEFORE[j], split)
        | high[j] & ~np.take(_BEFORE[j], split + 1)
        | np.take(_DOT[j], split)
        for j in range(3)
    ]
    words[0] |= np.take(_PREFIX, 8 * sign + start)
    sci = np.flatnonzero(sci)
    if sci.size:
        # "e", the exponent's sign and its two or three digits, after the mantissa.
        e = exp10[sci]
        mag = np.abs(e).astype(np.uint64)
        tens = mag // 10
        exp_digits = tens - tens // 10 * 10 | (mag - tens * 10) << 8
        three = mag >= 100
        exp_digits = np.where(three, mag // 100 | exp_digits << 8, exp_digits)
        exp_digits = (exp_digits | _ZEROS) & np.where(three, 0xFFFFFF, 0xFFFF).astype(np.uint64)
        tail = 0x65 | (0x2B + 2 * (e < 0)).astype(np.uint64) << 8 | exp_digits << 16
        end = end[sci]
        size[sci] = end + 4 + three
        for j in range(3):
            at = end - 8 * j  # where the tail starts, counted from word j's first byte
            up = (np.maximum(at, 0) * 8).astype(np.uint64)
            down = (np.maximum(-at, 0) * 8).astype(np.uint64)
            words[j][sci] = words[j][sci] & np.take(_BEFORE[j], end) | tail << up >> down
    for j in range(3):
        words[j] &= np.take(_BEFORE[j], size)
    return words


def _json_float(v: float) -> str:
    """json's text for one float: ``float.__repr__``, or NaN and Infinity."""
    if v != v:
        return "NaN"
    if v in (float("inf"), float("-inf")):
        return "Infinity" if v > 0 else "-Infinity"
    return float.__repr__(v)


def _block_text(x: np.ndarray, record: np.ndarray) -> str:
    """The text of ``record``'s separators, each followed by json's text of a float of ``x``.

    ``record`` holds one row per float of the 1-d ``x``: its separator,
    right-aligned after NUL bytes, then _WIDTH bytes the number is written to.
    """
    digits, exp10, decided = shortest(x)
    undecided = np.flatnonzero(~decided)
    digits[undecided] = 0
    exp10[undecided] = 0
    number = record[:, -_WIDTH:]
    for j, word in enumerate(_repr_words(digits, exp10, np.signbit(x))):
        number.view("<u8")[:, j] = word
    for i in undecided:
        text = _json_float(float(x[i])).encode("ascii")
        number[i] = np.frombuffer(text.ljust(_WIDTH, b"\0"), dtype=np.uint8)
    return record[record != 0].tobytes().decode("ascii")


def rows_text(values: np.ndarray, seps: list):
    """Yield the text of ``seps[j] + json(values[i, j])``, row by row, in blocks.

    ``values`` is a 2-d float64 array and ``seps`` a string per column. A
    block is whole rows of about _BLOCK floats, or part of one row when a row
    is longer, so memory is set by the block, not by ``values``. Fewer than
    _KERNEL_MIN floats go through ``float.__repr__`` in one piece.
    """
    if values.size < _KERNEL_MIN:
        floats = values.ravel().tolist()
        texts = map(float.__repr__ if np.isfinite(values).all() else _json_float, floats)
        yield "".join(map(operator.add, itertools.cycle(seps), texts))
        return
    rows, width = values.shape
    height, chunk = min(rows, max(1, _BLOCK // width)), min(width, _BLOCK)
    # Each separator right-aligned in whole words, so the numbers sit aligned.
    sep_width = -(-max(map(len, seps)) // 8) * 8
    sep_bytes = "".join(sep.rjust(sep_width, "\0") for sep in seps).encode("ascii")
    sep_bytes = np.frombuffer(sep_bytes, dtype=np.uint8).reshape(width, sep_width)
    record = np.empty((height, chunk, sep_width + _WIDTH), dtype=np.uint8)
    filled = None
    for r in range(0, rows, height):
        for c in range(0, width, chunk):
            block = np.ascontiguousarray(values[r : r + height, c : c + chunk])
            if c != filled:
                record[:, : block.shape[1], :sep_width] = sep_bytes[c : c + chunk]
                filled = c
            text = record[: block.shape[0], : block.shape[1]].reshape(block.size, -1)
            yield _block_text(block.reshape(-1), text)
