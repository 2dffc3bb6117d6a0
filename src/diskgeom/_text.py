"""repr(float) text for numpy columns, and rows of text joined from them.

Digits come from Schubfach (Giulietti, "The Schubfach way to render doubles", 2020) on uint64
arrays, laid out by CPython's repr rule in three 8-byte words per value, byte 0 in the low bits."""

import functools

import numpy as np

WIDTH = 24  # "-", 17 digits, "." and "e-308" at most
_U, _M32, _M63 = np.uint64, np.uint64(2**32 - 1), np.uint64(2**63 - 1)


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """32-bit limbs (4, 617) of g1 2^63 + g0 = floor(10^-k 2^-r) + 1 in [2^125, 2^126), k in
    [-324, 292]; words (3, 36) keeping the first m of 24 bytes, m < 18, then "." at byte b - 1."""
    g = [(10**-k << 126 >> (10**-k).bit_length()) + 1 for k in range(-324, 1)]
    g += [(1 << 125 + (10**k).bit_length()) // 10**k + 1 for k in range(1, 293)]
    keep = [b"\xff" * m + bytes(WIDTH - m) for m in range(18)]
    dots = [bytes(b - 1) + b"." + bytes(WIDTH - b) if 0 < b < 17 else bytes(WIDTH) for b in range(18)]
    limbs = [[v >> 95, v >> 63 & 2**32 - 1, v >> 32 & 2**31 - 1, v & 2**32 - 1] for v in g]
    return np.array(limbs, _U).T.copy(), np.frombuffer(b"".join(keep + dots), "<u8").reshape(-1, 3).T


def _product(ah, al, bh, bl):
    """High and low words of the products (ah 2^32 + al)(bh 2^32 + bl) of 32-bit limbs."""
    low = al * bl
    mid = ah * bl + (low >> 32)  # (2^32 - 1)^2 + 2^32 < 2^64, so no sum here overflows
    mid2 = al * bh + (mid & _M32)
    return ah * bh + (mid >> 32) + (mid2 >> 32), mid2 << 32 | low & _M32


def _shortest(bits):
    """The shortest, then closest, decimals d 10^k that round to the positive normal doubles."""
    c, bq = bits & _U(2**52 - 1), (bits >> 52).astype(np.int64)
    irregular = (c == 0) & (bq > 1)  # the lower neighbour is closer than the upper one
    k = ((bq - 1075) * 661971961083 - irregular * 274743187321) >> 41  # floor log10 of 2^q or 3/4 2^q
    cb = (c | _U(2**52)) << 2  # 4 c between the ends of its rounding interval, times 2^h
    cp = np.stack([cb - 2 + irregular, cb, cb + 2]) << (bq - 1073 + (-k * 913124641741 >> 38)).astype(_U)
    # Schubfach's round-to-odd floor(g cp / 2^127): 4 10^-k times those three
    g1h, g1l, g0h, g0l = np.take(_tables()[0], k + 324, axis=1)
    ch, cl = cp >> 32, cp & _M32
    high, low = _product(g1h, g1l, ch, cl)
    z = (low >> 1) + _product(g0h, g0l, ch, cl)[0]
    vbl, vb, vbr = high + (z >> 63) | ((z & _M63) != 0)
    lo, hi, s = vbl + (c & 1), vbr - (c & 1), vb >> 2  # an odd c excludes the interval ends
    sp = s // 10 * 10
    up, wp = lo <= sp << 2, sp + 10 << 2 <= hi
    u, w = lo <= s << 2, s + 1 << 2 <= hi
    take_s = np.where(u != w, u, (vb < 4 * s + 2) | (vb == 4 * s + 2) & (s & 1 == 0))
    return np.where(up != wp, np.where(up, sp, sp + 10), s + ~take_s), k


def _repr_words(bits, neg):
    """Words (N, 3) of the repr text of the positive normal doubles bits, negated where neg."""
    d, k = _shortest(bits)
    wide = d >= 10**16  # d has 16 or 17 digits
    d = np.where(wide, d, d * 10)
    words = np.stack([d // 10**9, d // 10 % 10**8])  # digits 0-7 and 8-15; digit 16 is last
    last = d % 10
    # split into lanes of 4, 2, then 1 digits, the leading lane in the lower bits
    lanes = words // 10000
    words = lanes | (words - lanes * 10000) << 32
    lanes = words * 5243 >> 19 & _U(0x7F0000007F)  # x // 100 for x < 10^4
    words = lanes | (words - lanes * 100) << 16
    lanes = words * 103 >> 10 & _U(0xF000F000F000F)  # x // 10 for x < 100
    words = lanes | (words - lanes * 10) << 8
    # a word's highest nonzero byte is its float exponent over 8
    top = ((words.astype(np.float64).view(_U) >> 52).astype(np.int64) - 1023) >> 3
    n = np.where(last != 0, 17, np.where(words[1] != 0, 9 + top[1], 1 + top[0]))  # less trailing zeros
    digits = np.concatenate([words, last[None]]) | _U(0x3030303030303030)
    decpt = k + 16 + wide  # |x| = 0.DIGITS 10^decpt
    fixed = (decpt > -4) & (decpt <= 16)  # CPython's repr rule
    point = fixed & (decpt <= 0)  # "0." and zeros come before the digits
    lead = neg + np.where(point, 2 - decpt, 0)  # bytes before the first digit
    dot = np.where(fixed, np.where(point, 17, decpt), np.where(n > 1, 1, 17))  # digits before "."
    end = np.where(fixed, np.maximum(n, decpt + 1), n)  # digits written, with zeros up to the "."
    masks, shift = _tables()[1], (8 * lead).astype(_U)
    left = digits & np.take(masks, np.minimum(dot, end), axis=1)
    right = digits & np.take(masks, end, axis=1) & ~np.take(masks, dot, axis=1)
    right |= np.take(masks, dot + 18, axis=1)
    words = left << shift | right << shift + 8  # the "." takes a byte; carries below, where >> 64 gives 0
    words[1:] |= left[:-1] >> 64 - shift | right[:-1] >> 56 - shift
    zeros = 0x3030302E30 & np.take(masks[0], np.where(point, 2 - decpt, 0))  # "0.000"
    words[0] |= np.where(neg, zeros << 8 | ord("-"), zeros)
    if fixed.all():  # no exponent to write
        return words.T
    exp = np.abs(decpt - 1).astype(_U)
    text = exp // 100 | exp // 10 % 10 << 8 | exp % 10 << 16 | 0x303030  # 2 digits or more, below
    suffix = text >> (exp < 100) * _U(8) << 16 | np.where(decpt > 0, _U(43), _U(45)) << 8 | 101  # e+, e-
    at = np.where(fixed, 8 * WIDTH, 8 * (lead + end + (dot < end))) - np.array([[0], [64], [128]])
    # shifts past 63 give 0, so negative ones, wrapped, do too
    return (words | suffix << at.astype(_U) | suffix >> (-at).astype(_U)).T


def repr_rows(x) -> np.ndarray:
    """The bytes of repr(float(v)) for each v of the 1-D x, in rows (N, WIDTH) padded with NULs.

    Temporaries take some 200 bytes a value, so callers pass a chunk at a time.  Zeros, subnormals
    and non-finite values, which the digit kernel does not cover, go through repr."""
    x = np.asarray(x, np.float64)
    bits = x.view(_U) & _M63
    special = np.flatnonzero((bits < 2**52) | (bits >= 0x7FF << 52))
    bits[special] = 0x3FF << 52  # 1.0 keeps the kernel in range; the rows are replaced below
    neg, step = np.signbit(x), 2048  # values formatted at a time, which bounds the temporaries
    parts = [_repr_words(bits[i : i + step], neg[i : i + step]) for i in range(0, max(len(x), 1), step)]
    rows = np.ascontiguousarray(np.vstack(parts), "<u8").view(np.uint8)
    rows[special] = text_rows([repr(v) for v in x[special].tolist()], WIDTH)
    return rows


def text_rows(strings, width: int = 0) -> np.ndarray:
    """ASCII strings as the rows of a uint8 matrix, padded with NULs to at least width."""
    return np.array(strings, f"S{width}" if width else "S")[:, None].view(np.uint8)


def join_rows(*pieces):
    """Constant strings and (N, w) uint8 field rows joined row-wise, NULs dropped, 512 rows a piece."""
    n = next(len(p) for p in pieces if isinstance(p, np.ndarray))
    rows = [p if isinstance(p, np.ndarray) else np.frombuffer(p.encode(), np.uint8) for p in pieces]
    for i in range(0, n, 512):  # few enough rows that the temporaries stay small
        text = np.concatenate([np.broadcast_to(r, (n, r.shape[-1]))[i : i + 512] for r in rows], axis=1)
        yield str(text[text != 0].data, "ascii")
