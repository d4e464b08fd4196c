"""Reference decoders: exhaustive ML and erasure solving.

ml_decode enumerates all 2^k codewords (guarded at k <= 24), so it serves
as the ground truth the structured decoders are compared against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Union

import numpy as np

from .. import channel, gf2, rmcode
from ..rmcode import TooLarge
from .types import Ambiguous, DecodeResult, block_rows, llr_word, result_for, soft_metric

_ML_GUARD_K = 24
_CACHE_K = 16
_BLOCK = 1 << 16


@lru_cache(maxsize=4)
def _sign_codebook(params: rmcode.CodeParams) -> np.ndarray:
    return _sign_block(params, 0, 1 << params.k)


def _index_bits(k: int, idx) -> np.ndarray:
    """Coefficient rows of message indices.  Bit k-1-row of an index is the coefficient
    of generator row `row`, so ascending index = lexicographic coefficient order."""
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint64)
    return ((np.asarray(idx, dtype=np.uint64)[:, None] >> shifts) & 1).astype(np.uint8)


def _sign_block(params: rmcode.CodeParams, start: int, count: int) -> np.ndarray:
    bits = _index_bits(params.k, np.arange(start, start + count))
    words = (bits @ rmcode.generator_matrix(params)) & 1
    return 1.0 - 2.0 * words.astype(np.float64)


def _ml_index(params: rmcode.CodeParams, L: np.ndarray) -> int:
    """Index of the first codeword of maximal correlation with L."""
    if params.k <= _CACHE_K:
        return int(np.argmax(_sign_codebook(params) @ L))
    best_idx, best_score = -1, -np.inf
    total = 1 << params.k
    for start in range(0, total, _BLOCK):
        scores = _sign_block(params, start, min(_BLOCK, total - start)) @ L
        i = int(np.argmax(scores))
        if scores[i] > best_score:
            best_idx, best_score = start + i, scores[i]
    return best_idx


def ml_codewords(params: rmcode.CodeParams, Ls) -> np.ndarray:
    """Exhaustive ML decoding of every row of a (T, n) LLR block, one product per row."""
    if params.k > _ML_GUARD_K:
        raise TooLarge(f"k = {params.k} exceeds the exhaustive guard of {_ML_GUARD_K}")
    idx = [_ml_index(params, L) for L in block_rows(params.n, Ls, np.float64)]
    return rmcode.encode_rows(params, _index_bits(params.k, idx))


def ml_decode(params: rmcode.CodeParams, L) -> DecodeResult:
    """Exhaustive maximum-likelihood decoding.

    Metric ties resolve to the lexicographically smallest coefficient
    vector in generator row order.  Raises TooLarge for k > 24.
    """
    L = llr_word(params, L)
    return result_for(params, ml_codewords(params, L[None])[0], L)


def erasure_decode(params: rmcode.CodeParams, y) -> Union[DecodeResult, Ambiguous]:
    """Solve for the message from the unerased coordinates.

    y is a uint8 word with channel.ERASURE marking erased positions.
    Returns Ambiguous(count_exponent) when 2^count_exponent codewords are
    consistent; raises gf2.InconsistentSystem when none is.
    """
    y = np.asarray(y, dtype=np.uint8)
    if y.shape != (params.n,):
        raise ValueError(f"expected a length-{params.n} word")
    cols = gf2.transpose(rmcode.generator_rows(params), params.n)
    rows = []
    b = 0
    for j in np.flatnonzero(y != channel.ERASURE):
        if y[j]:
            b |= 1 << len(rows)
        rows.append(cols[j])
    sol = gf2.solve_affine(rows, params.k, b)
    if sol.nullspace_basis:
        return Ambiguous(sol.count_exponent)
    order = rmcode.monomials(params)
    msg = rmcode.Message(
        params, {order[i]: 1 for i in range(params.k) if (sol.particular >> i) & 1}
    )
    c = rmcode.encode(msg)
    L = np.where(y == channel.ERASURE, 0.0, 1.0 - 2.0 * np.minimum(y, 1).astype(np.float64))
    return DecodeResult(params, c, msg, soft_metric(c, L))
