"""Fast Hadamard transform and first-order ML decoding.

fht() transforms over array indices with the pairing (-1)^{popcount(s & t)}.
The decoder wants the transform over evaluation points; with the coordinate
convention (point = index XOR (n-1)) that is just the reversed array, since
index reversal IS complementation here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .. import rmcode
from .types import DecodeResult, llr_word, soft_metric


def fht(values: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (length a power of two).

    Integer inputs stay in exact int64 arithmetic.  The rows are copied
    into an (n, rows) transpose, so each butterfly stage is two long
    operations over (n/2h, 2, h * rows) blocks writing a+b / a-b into a
    second buffer rather than many short ones; every element sees the same
    additions as the textbook slice-by-slice loop and results are
    bit-identical to it.
    """
    v = np.asarray(values)
    dtype = np.int64 if np.issubdtype(v.dtype, np.integer) else np.float64
    n = v.shape[-1]
    if n == 0 or n & (n - 1):
        raise ValueError("length must be a power of two")
    rows = v.size // n
    src = v.reshape(rows, n).T.astype(dtype, order="C", copy=True)
    dst = np.empty_like(src)
    h = 1
    while h < n:
        shape = (n // (2 * h), 2, h * rows)
        s, d = src.reshape(shape), dst.reshape(shape)
        np.add(s[:, 0], s[:, 1], out=d[:, 0])
        np.subtract(s[:, 0], s[:, 1], out=d[:, 1])
        src, dst = dst, src
        h *= 2
    return np.ascontiguousarray(src.T).reshape(v.shape)


@lru_cache(maxsize=None)
def _parity_table(m: int) -> np.ndarray:
    # row u, column j: <u, point(j)> over GF(2)
    n = 1 << m
    pts = np.arange(n, dtype=np.uint32) ^ (n - 1)
    return (np.bitwise_count(np.arange(n, dtype=np.uint32)[:, None] & pts[None, :]) & 1).astype(
        np.uint8
    )


def linear_word(m: int, u: int, u0: int) -> np.ndarray:
    """Codeword of u0 + sum_i u_i x_i; u in point encoding (bit m-i = u_i)."""
    return _parity_table(m)[u] ^ np.uint8(u0)


def linear_coeffs(m: int, u: int, u0: int) -> dict[int, int]:
    """Nonzero message coefficients of u0 + sum_i u_i x_i by subset mask."""
    coeffs = {1 << (i - 1): 1 for i in range(1, m + 1) if (u >> (m - i)) & 1}
    if u0:
        coeffs[0] = 1
    return coeffs


def point_transform(L) -> np.ndarray:
    """Transform of L over points: entry u is sum_z (-1)^{<u, z>} L_z."""
    arr = np.asarray(L, dtype=np.float64)
    return fht(arr[..., ::-1])


def transform_peak(L) -> tuple[np.ndarray, np.ndarray]:
    """Point transform of every row of L, a (..., 2^m) array, and per row the
    smallest u of maximal |transform|, the best first-order linear part.  Its
    constant term is 1 exactly when the entry at u is negative.
    """
    spec = point_transform(L)
    return spec, np.argmax(np.abs(spec), axis=-1)


def _linear_result(params: rmcode.CodeParams, L: np.ndarray, spec: np.ndarray, u) -> DecodeResult:
    u = int(u)
    u0 = 1 if spec[u] < 0 else 0
    c = linear_word(params.m, u, u0)
    msg = rmcode.Message(params, linear_coeffs(params.m, u, u0))
    return DecodeResult(params, c, msg, soft_metric(c, L))


def fht_decode_order1(m: int, L) -> DecodeResult:
    """ML decoding of RM(m, 1) by exhaustive correlation.

    Ties on |transform| pick the smallest index u, and a zero correlation
    picks constant term 0.
    """
    params = rmcode.CodeParams(m, 1)
    L = llr_word(params, L)
    spec, u = transform_peak(L)
    return _linear_result(params, L, spec, u)


def fht_list_decode_order1(m: int, L, s: int) -> list[DecodeResult]:
    """The s best first-order candidates by |transform|, best first."""
    params = rmcode.CodeParams(m, 1)
    L = llr_word(params, L)
    if not (1 <= s <= params.n):
        raise ValueError("list size out of range")
    spec = point_transform(L)
    order = np.argsort(-np.abs(spec), kind="stable")[:s]
    return [_linear_result(params, L, spec, u) for u in order]


def fht_decode_words(L) -> np.ndarray:
    """Codeword of fht_decode_order1 for every row of L, a (..., 2^m) array;
    m is read from the row length, and any leading axes are batch axes.
    """
    spec, u = transform_peak(L)
    rows = spec.reshape(-1, spec.shape[-1])
    u0 = rows[np.arange(rows.shape[0]), u.ravel()] < 0
    table = _parity_table(spec.shape[-1].bit_length() - 1)
    return table[u] ^ u0.reshape(np.shape(u) + (1,)).astype(np.uint8)
