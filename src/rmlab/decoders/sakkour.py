"""Second-order decoding via decoded directional derivatives.

For every direction b the derivative word (y_{z+b} + y_z over z) is a
noisy first-order codeword whose linear part is bU, U the symmetric matrix
of degree-2 coefficients.  Each derivative is FHT-decoded, the estimates
are cleaned by a coordinatewise majority over the difference identities
D_{b+b'} + D_{b'}, and per-column FHT decoding recovers U.  Subtracting
the degree-2 evaluation leaves a first-order word for a final FHT pass.

Under the coordinate convention translating points by b is plain index
XOR, so derivative words never need explicit reindexing.

Every transform input is a 0/1 word, so all three passes feed int8 +/-1
signs (fht.hard_signs) and the transforms run exactly in int16 up to
n = 128; the majority votes are int16 too.  Only the degree-2 evaluation
runs in floats, as a product of small integers that is exact.

sakkour_codewords runs every step over a (T, n) block, in chunks of rows
whose (rows, n, n) derivative arrays hold at most _CELLS cells.
sakkour_decode_order2 runs it on a block of one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .. import rmcode
# fht is unused here: bench/replay.py's --trace patches decoders.sakkour.fht
from .fht import fht, fht_decode_words, hard_signs, transform_peak  # noqa: F401
from .types import DecodeResult, hard_input_llr, hard_rows, hard_word, result_for

# Cells of each (rows, n, n) array one chunk of rows may hold: 64 rows at
# n = 32, whose int16 transform and vote arrays take 128 KB each and the
# intp bincount index 512 KB.  With the harness's steady heap, at RM(5,2),
# 2^15 was slower on the light sweep's 160-row block in 9 of 10 alternated
# runs, and 2^17 won only 6 of 10 there and 7 of 10 on 2048-row blocks.
_CELLS = 1 << 16


@lru_cache(maxsize=None)
def _tables(m: int):
    """xor (n, n), row b holding J ^ b; per pair i < j the column j - 1 and shift m - i
    that read u_ij (the later column wins), and the float (pairs, n) evaluations of x_i x_j."""
    J = np.arange(1 << m)
    pairs = list(combinations(range(1, m + 1), 2))
    cols = np.array([j - 1 for _, j in pairs])
    shifts = np.array([m - i for i, _ in pairs])
    evals = rmcode.evaluations(m, [(1 << (i - 1)) | (1 << (j - 1)) for i, j in pairs])
    return J[:, None] ^ J[None, :], cols, shifts, evals.astype(np.float64)


def _majority(D: np.ndarray, xor: np.ndarray) -> np.ndarray:
    """Coordinatewise majority of D_{b+b'} + D_{b'} over all b', per b and
    per row of D, a (..., n) array.

    Row b of xor holds J ^ b.  Ties pick the lexicographically smallest
    vector (= smallest packed int): argmax returns the first maximal count.
    D may have any integer type; the votes, values in [0, n), are int16.
    """
    n = D.shape[-1]
    D = D.astype(np.int16, copy=False)
    votes = D[..., xor]  # (..., b, b')
    votes ^= D[..., None, :]
    offsets = n * np.arange(votes.size // n).reshape(votes.shape[:-1] + (1,))
    counts = np.bincount((votes + offsets).ravel(), minlength=votes.size)
    return np.argmax(counts.reshape(votes.shape), axis=-1)


def sakkour_codewords(m: int, Ys) -> np.ndarray:
    """Second-order decoding of every row of a (T, 2^m) block of 0/1 words."""
    if m < 2:
        raise ValueError("order-2 decoding needs m >= 2")
    n = 1 << m
    Ys = hard_rows(n, Ys)
    xor, cols, shifts, evals = _tables(m)
    out = np.empty(Ys.shape, dtype=np.uint8)
    step = max(1, _CELLS // (n * n))
    for lo in range(0, len(Ys), step):
        y = Ys[lo : lo + step]
        # derivative words, one per direction; b = 0 decodes to zero harmlessly
        Dstar = _majority(transform_peak(hard_signs(y[:, None, :] ^ y[:, xor]))[1], xor)
        # column i of U from the word of i-th coordinates of D*_b over b
        col_bits = (Dstar[:, None, ::-1] >> np.arange(m - 1, -1, -1)[:, None]) & 1
        col_u = transform_peak(hard_signs(col_bits))[1]
        # exact: each entry counts at most m(m-1)/2 pairs
        quad = (col_u[:, cols] >> shifts) & 1
        deg2 = ((quad @ evals).astype(np.int64) & 1).astype(np.uint8)
        out[lo : lo + step] = deg2 ^ fht_decode_words(hard_signs(y ^ deg2))
    return out


def sakkour_decode_order2(m: int, y) -> DecodeResult:
    params = rmcode.CodeParams(m, 2)
    y = hard_word(params, y)
    return result_for(params, sakkour_codewords(m, y[None])[0], hard_input_llr(y))
