"""Float64 columns as the bytes of their repr texts, with no Python float per value.

rows(columns, sep, end, threads) is the bytes of
``"".join(sep.join(map(repr, row)) + end for row in zip(*columns))``, encoded.
It formats blocks of BLOCK_ROWS rows with numpy array operations, shared over
up to `threads` threads (numpy releases the GIL inside its loops).

For each |x| in (1e-280, 1e280) a block finds repr's digits by the shortest
round-trip rule, in the spirit of Ryu (Adams, PLDI 2018):

- y = |x| 10^k, k = 16 - floor(log10 |x|), in double-double: a Dekker
  product with 10^k as an exact (hi, lo) pair, so y = N + f with N an int64
  of 17 digits (or 18, just above a power of ten) and 0 <= f < 1;
- every integer in [lo, hi] = [N + ceil(f - h_dn), N + floor(f + h_up)], where
  h_dn and h_up are the half-gaps to |x|'s neighbours scaled by 10^k, reads
  back as x. The digits are the integer in it with the most trailing zeros,
  and of those the one nearest y. Both half-gaps are below 11.2, so the
  interval holds at most 24 integers and a multiple of 100 in it is its only
  one;
- the text is laid out by repr's rules (fixed notation for -4 < decpt <= 16,
  else d.ddde+XX): each row gets a source of fixed layout (sign, "0.000",
  the digits, '.', the digits again, the exponent, the separator), and a
  table gives, for each text class (sign, digit count, and decimal point or
  exponent width), the source bytes the text keeps. One boolean compaction
  of a block's sources is its bytes.

repr itself formats an element that the double-double arithmetic cannot
settle (an interval end within SETTLE of an integer, or a near tie between
two candidates), and one with |x| outside (1e-280, 1e280) that is not nan,
inf or 0 (those have fixed texts).
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import cache

import numpy as np

# Rows per block: a block's temporaries stay in cache.
BLOCK_ROWS = 16_384
SETTLE = 1e-9  # nearer than this to an integer (or a tie), repr decides
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's splitter
_EXP_BITS = 0x7FF0000000000000
_FRACTION_BITS = 0x000FFFFFFFFFFFFF

# A row's source is 14 little-endian 4-byte words, 56 bytes: "-0.000"; the 17
# digits (bytes 11-27, after 3 unused); a '.' (byte 30) and the 17 digits
# again (bytes 31-47); "e", the exponent's sign and 3 digits, then the
# separator (bytes 48-54). A text is the bytes its class keeps, in order: the
# digits before the decimal point from the first copy, those after it from
# the second, so that every text is a few runs of the row.
_WORDS = 14
_FIRST, _POINT, _SECOND, _EXP, _SEP = 11, 30, 31, 48, 53
_DIGITS4 = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
_DIG4 = _DIGITS4.view("<u4").ravel()
# The first digit's word less this has a '.' for its third byte.
_POINT_WORD = np.uint32((ord("0") - ord(".")) << 16)
_PREFIX = np.frombuffer(b"-0.000\0\0", "<u8")[0]
# The first word of nan, inf, -inf, 0.0 and -0.0.
_SPECIAL_WORDS = np.frombuffer(b"nan\0inf\0-inf-0.0-0.0", "<u4")
# The significant length of a 4-digit group (its last nonzero digit's
# position + 1), -99 for 0000.
_SIGNIFICANT4 = 4 - np.argmax(_DIGITS4[:, ::-1] != ord("0"), axis=1).astype(np.int8)
_SIGNIFICANT4[0] = -99
_EXP_MAX = 300  # beyond every exponent in (1e-280, 1e280)


def _layout(neg: int, nd: int, slot: int) -> list[int]:
    """The bytes a text keeps, with sign neg and nd digits: slot is decpt + 3
    in fixed notation (decpt in -3..16), 20 or 21 with an exponent of 2 or 3
    digits."""
    if slot >= 20:
        fraction = [_POINT] + [_SECOND + i for i in range(1, nd)] if nd > 1 else []
        exp = [_EXP + 3, _EXP + 4] if slot == 20 else [_EXP + 2, _EXP + 3, _EXP + 4]
        body = [_FIRST] + fraction + [_EXP, _EXP + 1] + exp
    elif slot <= 3:  # decpt <= 0: "0." and -decpt zeros
        body = [1, 2] + [3, 4, 5][: 3 - slot] + [_FIRST + i for i in range(nd)]
    else:  # a '0' after the point if nd <= decpt
        decpt = slot - 3
        body = [_FIRST + i for i in range(decpt)] + [_POINT]
        body += [_SECOND + i for i in range(decpt, max(nd, decpt + 1))]
    return [0] * neg + body


# Text class ((neg * 17) + nd - 1) * 22 + slot, then _SPECIAL + kind for nan,
# inf, -inf, 0.0 and -0.0 (the first four bytes: "nan", "inf", "-inf" or
# "-0.0").
_LAYOUTS = [_layout(neg, nd, slot) for neg in (0, 1) for nd in range(1, 18) for slot in range(22)]
_SPECIAL = len(_LAYOUTS)
_LAYOUTS += [[0, 1, 2], [0, 1, 2], [0, 1, 2, 3], [1, 2, 3], [0, 1, 2, 3]]
# Each class with a separator of 1 byte, then of 2.
_KEEP = np.zeros((2, len(_LAYOUTS), 4 * _WORDS), bool)
_KEEP[:, np.repeat(np.arange(len(_LAYOUTS)), list(map(len, _LAYOUTS))), np.concatenate(_LAYOUTS)] = True
_KEEP[:, :, _SEP] = True
_KEEP[1, :, _SEP + 1] = True
_KEEP = _KEEP.reshape(2 * len(_LAYOUTS), -1)


# The slot of each decpt from 1 - _EXP_MAX.
_SLOT = np.arange(1 - _EXP_MAX, _EXP_MAX + 2)
_SLOT = np.where((_SLOT > -4) & (_SLOT <= 16), _SLOT + 3, 20 + (np.abs(_SLOT - 1) >= 100))


@cache
def _exponents(sep: bytes) -> np.ndarray:
    """The last two source words for each decpt from 1 - _EXP_MAX: "e", the
    exponent's sign and 3 digits, and sep."""
    exp = np.arange(-_EXP_MAX, _EXP_MAX + 1)
    words = np.zeros((exp.size, 8), np.uint8)
    words[:, 0] = ord("e")
    words[:, 1] = np.where(exp < 0, ord("-"), ord("+"))
    words[:, 2:5] = _DIGITS4[np.abs(exp), 1:]
    words[:, 5 : 5 + len(sep)] = np.frombuffer(sep, np.uint8)
    return words.view("<u8").ravel()


@cache
def _power(k: int) -> tuple[float, float]:
    """10^k as hi + lo, hi the nearest double, exact to double-double."""
    exact = Fraction(10) ** k
    hi = float(exact)
    return hi, float(exact - Fraction(hi))


def _fill(x: np.ndarray, words: np.ndarray, sep: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Fill the source rows of x's texts followed by sep; return (class,
    unsettled), where unsettled marks the rows whose texts repr must give."""
    n = x.size
    a = np.abs(x)
    fast = (a > 1e-280) & (a < 1e280)
    if not fast.all():
        a[~fast] = 1.0
    e10 = np.floor(np.log10(a) - 1e-12).astype(np.intp)  # never above the exponent
    low = int(e10.min())
    powers = np.array([_power(16 - e) for e in range(low, int(e10.max()) + 1)]).T
    hi, lo = (np.take(table, e10 - low) for table in powers)

    # y = a 10^(16 - e10) = p + r: p = fl(a hi), r its Dekker error plus a lo.
    p = a * hi
    c = _SPLIT * a
    a_head = c - (c - a)
    a_tail = a - a_head
    c = _SPLIT * hi
    head = c - (c - hi)
    tail = hi - head
    r = (((a_head * head - p) + a_head * tail) + a_tail * head) + a_tail * tail + a * lo
    floor_r = np.floor(r)
    f = r - floor_r
    big = p.astype(np.int64)
    big += floor_r.astype(np.int64)  # N

    # The half-gaps to a's neighbours, scaled; the lower one is half as wide
    # at a power of two.
    bits = a.view(np.int64)
    up = (bits & _EXP_BITS).view(np.float64) * hi
    up *= 2.0**-53
    down = up - (0.5 * up) * ((bits & _FRACTION_BITS) == 0)
    t_lo = f - down
    t_hi = f + up
    c_lo = np.ceil(t_lo)
    c_hi = np.floor(t_hi)
    unsettled = np.abs(c_lo - t_lo - 0.5) > 0.5 - SETTLE
    unsettled |= np.abs(t_hi - c_hi - 0.5) > 0.5 - SETTLE
    if big.min() < 10**16 or big.max() >= 10**18:  # k from log10 is never that far off
        unsettled |= (big < 10**16) | (big >= 10**18)

    # The step m = 10^q of the candidates with the most trailing zeros: the
    # largest q <= 2 with the top end modulo 10^q below the w integers.
    n2 = big - big // 100 * 100
    n2 = n2.astype(np.float64)
    w = c_hi - c_lo + 1.0
    h2 = n2 + c_hi
    h2 -= 100.0 * (h2 >= 100.0)
    m = 1.0 + 9.0 * (h2 - 10.0 * np.floor(0.1 * h2) < w)
    m += 90.0 * (h2 < w)
    # The multiple of m nearest y, moved up into the interval where it lies
    # below (only h_dn < h_up, at a power of two, lets it lie outside).
    below = n2 - m * np.floor(n2 / m)
    tie = (below - 0.5 * m) + f
    unsettled |= np.abs(tie) < SETTLE
    shift = m * (tie > 0.0) - below
    shift += m * (shift < c_lo)
    digits = big + shift.astype(np.int64)
    decpt = e10 + 1
    if digits.max() >= 10**17:
        wide = digits >= 10**17
        digits[wide] //= 10
        decpt += wide

    # The source words, 2 to a pair (the first digit's, then the 4-digit
    # groups', twice), and the class.
    lead = digits // 10**16
    rest = digits - lead * 10**16
    groups = [_DIG4[lead]]
    last = np.zeros(n, np.int8)  # the last nonzero digit's position: nd - 1
    for word, power in enumerate((10**12, 10**8, 10**4, 1)):
        group = rest // power
        rest -= group * power
        groups.append(_DIG4[group])
        np.maximum(last, _SIGNIFICANT4[group] + np.int8(4 * word), out=last)
    groups.append(groups[0] - _POINT_WORD)
    pairs = words.view(np.uint64)
    pairs[:, 0] = _PREFIX
    for pair, (first, second) in enumerate(((0, 1), (2, 3), (4, 5), (1, 2), (3, 4)), 1):
        pairs[:, pair] = groups[first] | groups[second].astype(np.uint64) << 32
    index = decpt + (_EXP_MAX - 1)  # that of decpt - 1 from -_EXP_MAX
    pairs[:, 6] = _exponents(sep)[index]
    cls = _SLOT[index]
    cls += (np.signbit(x) * 17 + last) * 22
    if not fast.all():
        rows = np.flatnonzero(~fast)
        v = x[rows]
        kind = np.select([np.isnan(v), v == np.inf, v == -np.inf, v == 0.0], [0, 1, 2, 3 + np.signbit(v)], -1)
        unsettled[rows] = kind < 0
        rows, kind = rows[kind >= 0], kind[kind >= 0]
        cls[rows] = _SPECIAL + kind
        words[rows, 0] = _SPECIAL_WORDS[kind]
    cls += len(_LAYOUTS) * (len(sep) - 1)
    return cls, unsettled


def _block(columns: list[np.ndarray], seps: list[bytes], start: int, stop: int) -> bytes:
    """Rows start:stop: each column's text followed by its separator."""
    n = stop - start
    words = np.empty((n, len(columns), _WORDS), np.uint32)
    cls = np.empty((n, len(columns)), np.intp)
    unsettled = []
    for c, (column, sep) in enumerate(zip(columns, seps)):
        cls[:, c], column_unsettled = _fill(column[start:stop], words[:, c], sep)
        unsettled += [(i, c) for i in np.flatnonzero(column_unsettled).tolist()]
    keep = np.take(_KEEP, cls, axis=0)
    text = words.view(np.uint8)
    for i, c in unsettled:
        chars = repr(float(columns[c][start + i])).encode() + seps[c]
        text[i, c, : len(chars)] = np.frombuffer(chars, np.uint8)
        keep[i, c] = np.arange(keep.shape[2]) < len(chars)
    return text[keep].tobytes()


def _part(columns: list[np.ndarray], seps: list[bytes], done: list, first: int, step: int):
    """Blocks first, first + step, ... of the rows, into done."""
    total = len(columns[0])
    for b in range(first, len(done), step):
        done[b] = _block(columns, seps, b * BLOCK_ROWS, min(total, (b + 1) * BLOCK_ROWS))


def rows(columns, sep: bytes, end: bytes, threads: int = 1) -> bytes:
    """The repr texts of equal-length float64 columns, row by row: a row's
    texts joined by sep, each row followed by end (sep and end of 1 or 2
    bytes). The blocks of BLOCK_ROWS rows are formatted in up to `threads`
    parts, all but the first on their own threads; the bytes do not depend
    on how many. An exception in a part is raised here."""
    columns = [np.ascontiguousarray(c, dtype=np.float64) for c in columns]
    seps = [sep] * (len(columns) - 1) + [end]
    done = [b""] * -(-len(columns[0]) // BLOCK_ROWS)
    parts = max(1, min(threads, len(done)))
    failed = []

    def worker(first: int):
        try:
            _part(columns, seps, done, first, parts)
        except Exception as exc:  # raised by the caller after the join
            failed.append(exc)

    workers = [threading.Thread(target=worker, args=(i,)) for i in range(1, parts)]
    for thread in workers:
        thread.start()
    try:
        _part(columns, seps, done, 0, parts)
    finally:
        for thread in workers:
            thread.join()
    if failed:
        raise failed[0]
    return b"".join(done)
