"""Fast Hadamard transform and first-order ML decoding.

fht() transforms over array indices with the pairing (-1)^{popcount(s & t)}.
The decoder wants the transform over evaluation points; with the coordinate
convention (point = index XOR (n-1)) that is just the reversed array, since
index reversal IS complementation here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _exact_dtype(dtype: np.dtype, n: int):
    """Working type of a length-n transform: float64 for non-integer input;
    for integer input the narrowest of int16, int32 and int64 that holds n
    times the largest magnitude of the input type, which bounds every
    butterfly output.  int64 and unsigned 64-bit input work in int64."""
    if not np.issubdtype(dtype, np.integer):
        return np.float64
    info = np.iinfo(dtype)
    bound = n * max(-int(info.min), int(info.max))
    for t in (np.int16, np.int32):
        if bound <= np.iinfo(t).max:
            return t
    return np.int64


def fht(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis or along axis 0 (length
    a power of two).

    Integer input is transformed exactly in the narrowest signed type that
    cannot overflow for its dtype and n: int8 signs run in int16 up to
    n = 128 and in int32 from n = 256, and int64 input stays int64.  Other
    input runs in float64.  The butterflies run over an (n, rest) copy
    whose first axis is the transform axis, so each stage is two long
    operations over (n/2h, 2, h * rest) blocks writing a+b / a-b into a
    second buffer rather than many short ones; every element sees the same
    additions as the textbook slice-by-slice loop and results are
    bit-identical to it.  Along the last axis the copy is a transpose and
    so is the result; along axis 0 neither is.
    """
    v = np.asarray(values)
    last = axis in (-1, v.ndim - 1)
    if not (last or axis == 0):
        raise ValueError("axis must be 0 or the last")
    n = v.shape[axis]
    if n == 0 or n & (n - 1):
        raise ValueError("length must be a power of two")
    rest = v.size // n
    lay = v.reshape(rest, n).T if last else v.reshape(n, rest)
    src = lay.astype(_exact_dtype(v.dtype, n), order="C", copy=True)
    dst = np.empty_like(src)
    h = 1
    while h < n:
        shape = (n // (2 * h), 2, h * rest)
        s, d = src.reshape(shape), dst.reshape(shape)
        np.add(s[:, 0], s[:, 1], out=d[:, 0])
        np.subtract(s[:, 0], s[:, 1], out=d[:, 1])
        src, dst = dst, src
        h *= 2
    return (np.ascontiguousarray(src.T) if last else src).reshape(v.shape)


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


def point_transform(L) -> np.ndarray:
    """Transform of L over points: entry u is sum_z (-1)^{<u, z>} L_z.
    Integer L is transformed exactly (see fht), any other L in float64."""
    return fht(np.asarray(L)[..., ::-1])


def transform_peak(L) -> tuple[np.ndarray, np.ndarray]:
    """Point transform of every row of L, a (..., 2^m) array, and per row the
    smallest u of maximal |transform|, the best first-order linear part.  Its
    constant term is 1 exactly when the entry at u is negative.  Integer
    (hard_signs) and float images of the same +/-1 words give equal spectra
    and peaks: every sum of +/-1 terms is exact in both.
    """
    spec = point_transform(L)
    return spec, np.argmax(np.abs(spec), axis=-1)


def column_peaks(values) -> tuple[np.ndarray, np.ndarray]:
    """transform_peak on the columns of an (n, cols) array whose row z holds
    the value at point z, so the transform runs along axis 0 with no
    reversal and no transpose.  Per column: the smallest u of maximal
    |transform| and whether the transform is negative there (the best
    first-order word's constant term)."""
    spec = fht(values, axis=0)
    u = np.argmax(np.abs(spec), axis=0)
    return u, spec[u, np.arange(spec.shape[1])] < 0


def fht_decode_words(L) -> np.ndarray:
    """ML decoding of RM(m, 1) by exhaustive correlation, for every row of
    L, a (..., 2^m) array; m is read from the row length, and any leading
    axes are batch axes, so a single word decodes as it is.

    Ties on |transform| pick the smallest u, and a zero correlation picks
    constant term 0.
    """
    spec, u = transform_peak(L)
    rows = spec.reshape(-1, spec.shape[-1])
    u0 = rows[np.arange(rows.shape[0]), u.ravel()] < 0
    table = _parity_table(spec.shape[-1].bit_length() - 1)
    return table[u] ^ u0.reshape(np.shape(u) + (1,)).astype(np.uint8)
