"""Fast Hadamard transform and first-order ML decoding.

fht() transforms along axis 0 over array indices with the pairing
(-1)^{popcount(s & t)}.  Under the coordinate convention (point = index XOR
(n-1)) index reversal IS complementation, so a reversed word is the word in
point order.  Every first-order decision reads column_peaks, whose columns
hold words in point order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _exact_dtype(v: np.ndarray, n: int):
    """Working type of a length-n transform of v: float64 for non-integer
    input; for integer input the narrowest of int16, int32 and int64 that
    holds n times the largest magnitude of the input type, which bounds
    every butterfly output, or else int64 while n max|v| fits it.  Input
    past that (64-bit values only) raises ValueError rather than wrap."""
    if not np.issubdtype(v.dtype, np.integer):
        return np.float64
    info = np.iinfo(v.dtype)
    bound = n * max(-int(info.min), int(info.max))
    for t in (np.int16, np.int32, np.int64):
        if bound <= np.iinfo(t).max:
            return t
    if v.size and n * max(-int(v.min()), int(v.max())) > np.iinfo(np.int64).max:
        raise ValueError("integer input too large for an exact int64 transform")
    return np.int64


def fht(values: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along axis 0 (length a power of two).

    Integer input runs exactly in the type _exact_dtype picks (int8 signs
    in int16 up to n = 128, int32 beyond), other input in float64.  Each
    butterfly stage is two long operations over (n/2h, 2, h * rest) blocks
    of an (n, rest) copy, writing a+b / a-b into a second buffer; every
    element sees the same additions as the textbook slice-by-slice loop,
    and results are bit-identical to it.
    """
    v = np.asarray(values)
    n = v.shape[0]
    if n == 0 or n & (n - 1):
        raise ValueError("length must be a power of two")
    rest = v.size // n
    src = v.reshape(n, rest).astype(_exact_dtype(v, n), order="C", copy=True)
    dst = np.empty_like(src)
    h = 1
    while h < n:
        shape = (n // (2 * h), 2, h * rest)
        s, d = src.reshape(shape), dst.reshape(shape)
        np.add(s[:, 0], s[:, 1], out=d[:, 0])
        np.subtract(s[:, 0], s[:, 1], out=d[:, 1])
        src, dst = dst, src
        h *= 2
    return src.reshape(v.shape)


def hard_signs(words) -> np.ndarray:
    """int8 +/-1 image of 0/1 words (bit 1 -> -1), the exact transform input
    of hard-input decoders."""
    return 1 - 2 * np.asarray(words, dtype=np.int8)


@lru_cache(maxsize=None)
def _parity_table(m: int) -> np.ndarray:
    # row u, column j: <u, point(j)> over GF(2)
    n = 1 << m
    pts = np.arange(n, dtype=np.uint32) ^ (n - 1)
    return (np.bitwise_count(np.arange(n, dtype=np.uint32)[:, None] & pts[None, :]) & 1).astype(
        np.uint8
    )


def column_peaks(values) -> tuple[np.ndarray, np.ndarray]:
    """Per column of an (n, cols) array whose row z holds the value at point
    z: the smallest u of maximal |sum_z (-1)^{<u, z>} value_z|, the best
    first-order linear part, and whether that sum is negative (its constant
    term).  Integer (hard_signs) and float images of the same +/-1 words
    give equal peaks: every sum of +/-1 terms is exact in both."""
    spec = fht(values)
    u = np.argmax(np.abs(spec), axis=0)
    return u, spec[u, np.arange(spec.shape[1])] < 0


def fht_decode_words(L) -> np.ndarray:
    """ML decoding of RM(m, 1) by exhaustive correlation, for every row of
    L, a (..., 2^m) array; m is read from the row length, and any leading
    axes are batch axes, so a single word decodes as it is.

    Ties on |transform| pick the smallest u, and a zero correlation picks
    constant term 0.
    """
    L = np.asarray(L)
    n = L.shape[-1]
    u, neg = column_peaks(L.reshape(-1, n)[:, ::-1].T)
    return (_parity_table(n.bit_length() - 1)[u] ^ neg[:, None]).reshape(L.shape)
