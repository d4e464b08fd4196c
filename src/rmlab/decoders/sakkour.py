"""Second-order decoding via decoded directional derivatives.

For every direction b the derivative word (y_{z+b} + y_z over z) is a
noisy first-order codeword whose linear part is bU, U the symmetric matrix
of degree-2 coefficients.  Each derivative is FHT-decoded, the estimates
are cleaned by a plurality vote over the difference identities: D*_b is
the m-bit vector D_{b+b'} + D_{b'} that the most b' give, counted as whole
vectors (one bincount), and per-column FHT decoding recovers U.  Subtracting
the degree-2 evaluation leaves a first-order word for a final FHT pass.

Words are gathered as columns of the block's point-order transpose
pt = y[:, ::-1].T, the layout fht.column_peaks reads; translating points
by b is then a row XOR, one np.take along axis 0.

Every transform input is a 0/1 word, so all three passes feed int8 +/-1
signs (fht.hard_signs) and the transforms run exactly in int16 up to
n = 128; the plurality votes are int16 too.  Only the degree-2 evaluation
runs in floats, as a product of small integers that is exact.

sakkour_codewords runs every step over a (T, n) block, in chunks of rows
whose (n, n, rows) derivative arrays hold at most _CELLS cells.  A
single word decodes as a block of one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .. import rmcode
# fht is unused here: bench/replay.py's --trace patches decoders.sakkour.fht
from .fht import column_peaks, fht, fht_decode_words, hard_signs  # noqa: F401
from .types import hard_rows

# Cells of each (n, n, rows) array one chunk of rows may hold: 64 rows at
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
    """Plurality of the whole m-bit vectors D_{b+b'} + D_{b'} over all b',
    per b and per column of D, an (n, ...) array whose row b holds D_b: one
    bincount of the n votes of every (b, column) over the n values.

    Row b of xor holds J ^ b.  Ties pick the lexicographically smallest
    vector (= smallest packed int): argmax returns the first maximal count.
    D may have any integer type; the votes, values in [0, n), are int16.
    """
    n = len(D)
    D = D.astype(np.int16, copy=False)
    votes = np.take(D, xor, axis=0)  # (b, b', ...)
    votes ^= D
    offsets = n * np.arange(D.size).reshape((n, 1) + D.shape[1:])
    counts = np.bincount((votes + offsets).ravel(), minlength=votes.size)
    return np.argmax(counts.reshape(D.shape + (n,)), axis=-1)


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
        pt = y[:, ::-1].T
        # derivative columns: entry (z, b, row) is y(z + b) + y(z); b = 0 is harmless
        D = column_peaks(hard_signs(np.take(pt, xor, axis=0) ^ pt[:, None]).reshape(n, -1))[0]
        Dstar = _majority(D.reshape(pt.shape), xor)
        # column i of U from the word of i-th coordinates of D*_b over b
        col_bits = (Dstar[:, None] >> np.arange(m - 1, -1, -1)[:, None]) & 1
        col_u = column_peaks(hard_signs(col_bits).reshape(n, -1))[0].reshape(m, -1)
        # exact: each entry counts at most m(m-1)/2 pairs
        quad = (col_u[cols] >> shifts[:, None]) & 1
        deg2 = ((quad.T @ evals).astype(np.int64) & 1).astype(np.uint8)
        out[lo : lo + step] = deg2 ^ fht_decode_words(hard_signs(y ^ deg2))
    return out
