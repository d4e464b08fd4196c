"""Second-order decoding via decoded directional derivatives.

For every direction b the derivative word (y_{z+b} + y_z over z) is a
noisy first-order codeword whose linear part is bU, U the symmetric matrix
of degree-2 coefficients.  Each derivative is FHT-decoded, the estimates
are cleaned by a coordinatewise majority over the difference identities
D_{b+b'} + D_{b'}, and per-column FHT decoding recovers U.  Subtracting
the degree-2 evaluation leaves a first-order word for a final FHT pass.

Under the coordinate convention translating points by b is plain index
XOR, so derivative words never need explicit reindexing.

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
from .fht import fht, fht_decode_words, transform_peak  # noqa: F401
from .types import DecodeResult, block_rows, hard_input_llr, hard_word, result_for

# Cells of each (rows, n, n) array one chunk of rows may hold
_CELLS = 1 << 16


@lru_cache(maxsize=None)
def _tables(m: int):
    """xor (n, n), row b holding J ^ b; per pair i < j the column j - 1 and shift m - i
    that read u_ij (the later column wins), and the float (pairs, n) evaluations of x_i x_j."""
    J = np.arange(1 << m)
    pairs = list(combinations(range(1, m + 1), 2))
    cols = np.array([j - 1 for _, j in pairs])
    shifts = np.array([m - i for i, _ in pairs])
    evals = np.stack([rmcode.eval_monomial((1 << (i - 1)) | (1 << (j - 1)), m) for i, j in pairs])
    return J[:, None] ^ J[None, :], cols, shifts, evals.astype(np.float64)


def _majority(D: np.ndarray, xor: np.ndarray) -> np.ndarray:
    """Coordinatewise majority of D_{b+b'} + D_{b'} over all b', per b and
    per row of D, a (..., n) array.

    Row b of xor holds J ^ b.  Ties pick the lexicographically smallest
    vector (= smallest packed int): argmax returns the first maximal count.
    """
    n = D.shape[-1]
    votes = D[..., xor] ^ D[..., None, :]  # (..., b, b'), values in [0, n)
    offsets = n * np.arange(votes.size // n).reshape(votes.shape[:-1] + (1,))
    counts = np.bincount((votes + offsets).ravel(), minlength=votes.size)
    return np.argmax(counts.reshape(votes.shape), axis=-1)


def sakkour_codewords(m: int, Ys) -> np.ndarray:
    """Second-order decoding of every row of a (T, 2^m) block of 0/1 words."""
    if m < 2:
        raise ValueError("order-2 decoding needs m >= 2")
    n = 1 << m
    Ys = block_rows(n, Ys, np.uint8)
    xor, cols, shifts, evals = _tables(m)
    out = np.empty(Ys.shape, dtype=np.uint8)
    step = max(1, _CELLS // (n * n))
    for lo in range(0, len(Ys), step):
        y = Ys[lo : lo + step]
        # derivative words, one per direction; b = 0 decodes to zero harmlessly
        Dstar = _majority(transform_peak(1.0 - 2.0 * (y[:, None, :] ^ y[:, xor]))[1], xor)
        # column i of U from the word of i-th coordinates of D*_b over b
        col_bits = (Dstar[:, None, ::-1] >> np.arange(m - 1, -1, -1)[:, None]) & 1
        col_u = transform_peak(1.0 - 2.0 * col_bits)[1]
        # exact: each entry counts at most m(m-1)/2 pairs
        quad = (col_u[:, cols] >> shifts) & 1
        deg2 = ((quad @ evals).astype(np.int64) & 1).astype(np.uint8)
        out[lo : lo + step] = deg2 ^ fht_decode_words(1.0 - 2.0 * (y ^ deg2))
    return out


def sakkour_decode_order2(m: int, y) -> DecodeResult:
    params = rmcode.CodeParams(m, 2)
    y = hard_word(params, y)
    return result_for(params, sakkour_codewords(m, y[None])[0], hard_input_llr(y))
