"""Majority-vote decoding, highest degree first.

For each subset A of size t the coefficient u_A is read off as the
majority of the 2^{m-t} coset sums of the current word over V_A; after a
degree layer is decided its evaluation is subtracted.  Majority ties
decode to 1.  Guaranteed exact for error weight below 2^{m-r-1}.

reed_codewords decodes a (T, n) block one degree layer at a time: one
gather of every coset of every degree-t monomial, one XOR-reduce, one vote
count, and the layer's evaluation subtracted as one product mod 2.
reed_decode runs it on a block of one.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .. import rmcode
from .types import DecodeResult, hard_input_llr, hard_rows, hard_word, result_for


@lru_cache(maxsize=None)
def _layer(m: int, t: int):
    """Degree-t tables: the (monomials, cosets, 2^t) coordinates of each V_A's cosets,
    the float (monomials, n) evaluation rows, and the vote threshold."""
    subsets = [a for a in rmcode.monomial_order(m) if a.bit_count() == t]
    # point p sits at coordinate n - 1 - p
    gather = (1 << m) - 1 - rmcode.cosets_of_subspace(subsets, m)
    evals = rmcode.evaluations(m, subsets).astype(np.float64)
    # half the coset count; the single coset at t == m votes alone
    threshold = 1 if t == m else 1 << (m - t - 1)
    return gather, evals, threshold


def reed_codewords(params: rmcode.CodeParams, Ys) -> np.ndarray:
    """Majority decoding of every row of a (T, n) block of 0/1 words."""
    Ys = hard_rows(params.n, Ys)
    work = Ys.copy()
    for t in range(params.r, -1, -1):
        gather, evals, threshold = _layer(params.m, t)
        sums = np.bitwise_xor.reduce(work[:, gather], axis=-1)
        votes = np.count_nonzero(sums, axis=-1) >= threshold
        # exact: each entry counts at most the layer's monomials
        work ^= ((votes @ evals).astype(np.int64) & 1).astype(np.uint8)
    return Ys ^ work


def reed_decode(params: rmcode.CodeParams, y) -> DecodeResult:
    y = hard_word(params, y)
    return result_for(params, reed_codewords(params, y[None])[0], hard_input_llr(y))
