"""Recursive Plotkin-decomposition decoding, plain and list flavors.

A length-2^m LLR vector splits into the z_m = 0 half L0 (odd coordinates)
and z_m = 1 half L1 (even coordinates).  The derivative part v sees the
LLR-of-sum of the halves; once v is decided the two halves combine
coherently for u.  The plain recursion stops at first-order leaves (FHT)
and full codes (per-coordinate signs).  The list variant stops at
zero-order and full leaves, branching 2 resp. 4 ways per path, pruning to
list size mu by the cumulative penalty

    sum over decided bits of ln(1 + exp(-(1 - 2 bit) * llr)),

which telescopes exactly to the channel-domain negative log-likelihood, so
an exhaustive list reproduces ML ranking.

Both recursions decode a whole block of T trials at once: the plain one
over (T, n) LLR rows, the list one over T * P path rows, P paths per
trial, stored trial-major.  Every path count depends only on (m, r, mu),
so all trials of a block branch and prune in lockstep; pruning sorts
each trial's penalties on its own.  The public single-word decoders
run the same kernels on a block of one, so each family has one kernel.
"""

from __future__ import annotations

import numpy as np

from .. import rmcode
from ..channel import llr_of_sum
from .fht import fht_decode_words
from .types import DecodeResult, block_rows, llr_word, result_for


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _plain_rec(m: int, r: int, L: np.ndarray) -> np.ndarray:
    """Decoded words for the rows of L, an (..., 2^m) LLR array."""
    if r == 0:
        bits = (L.sum(axis=-1) < 0).astype(np.uint8)
        return np.repeat(bits[..., None], L.shape[-1], axis=-1)
    if r == 1:
        return fht_decode_words(L)
    if r == m:
        return (L < 0).astype(np.uint8)
    L0, L1 = L[..., 1::2], L[..., 0::2]
    v = _plain_rec(m - 1, r - 1, llr_of_sum(L0, L1))
    u = _plain_rec(m - 1, r, L0 + (1.0 - 2.0 * v) * L1)
    out = np.empty(L.shape, dtype=np.uint8)
    out[..., 1::2] = u
    out[..., 0::2] = u ^ v
    return out


def dumer_codewords(params: rmcode.CodeParams, Ls) -> np.ndarray:
    """Plain recursive decoding of every row of a (T, n) LLR block."""
    return _plain_rec(params.m, params.r, block_rows(params.n, Ls, np.float64))


def dumer_decode(params: rmcode.CodeParams, L) -> DecodeResult:
    """Greedy recursive decoding with first-order and full-code leaves."""
    L = llr_word(params, L)
    return result_for(params, dumer_codewords(params, L[None])[0], L)


def _prune(bits: np.ndarray, pens: np.ndarray, parents: np.ndarray, mu: int):
    """Keep per trial the mu cheapest paths; ties keep path order.

    pens is (T, Q); bits and parents hold the T * Q paths trial-major.
    """
    T, Q = pens.shape
    if Q <= mu:
        return bits, pens, parents
    keep = np.argsort(pens, axis=1, kind="stable")[:, :mu]
    flat = (keep + Q * np.arange(T)[:, None]).ravel()
    return bits[flat], pens.ravel()[flat].reshape(T, mu), parents[flat]


def _full_leaf(Ls: np.ndarray, pens: np.ndarray):
    """Full-code leaf: per path the up-to-4 cheapest words among the hard
    decision and its flips of the 3 least reliable positions.

    Returns (bits, penalties, parent) unpruned, path-major and cheapest
    first within a path, which fixes the order _prune's stable sort sees.
    """
    P, n = Ls.shape
    prow = np.arange(P)[:, None]
    hard = (Ls < 0).astype(np.uint8)
    mag = np.abs(Ls)
    base = pens + _softplus(-mag).sum(axis=1)
    t = min(3, n)
    pos = np.argsort(mag, axis=1, kind="stable")[:, :t]
    combos = ((np.arange(1 << t)[:, None] >> np.arange(t)[None, :]) & 1).astype(np.float64)
    cand_pen = base[:, None] + mag[prow, pos] @ combos.T  # (P, 2^t)
    take = np.argsort(cand_pen, axis=1, kind="stable")[:, :4]  # (P, K)
    K = take.shape[1]
    flips = np.zeros((P, K, n), dtype=np.uint8)
    # positions within a path are distinct, so the scatter never collides
    flips[prow[:, :, None], np.arange(K)[None, :, None], pos[:, None, :]] = combos[take]
    rows = (hard[:, None, :] ^ flips).reshape(P * K, n)
    return rows, cand_pen[prow, take].ravel(), np.repeat(np.arange(P), K)


def _list_rec(m: int, r: int, Ls: np.ndarray, pens: np.ndarray, mu: int):
    """Returns (bits, penalties, parent) for the surviving paths.

    pens is (T, P): P paths for each of T trials.  Ls holds their LLRs as
    (T * P, 2^m) rows, trial-major, and so do bits; parent maps each
    surviving path to its input row.
    """
    T, P = pens.shape
    n = Ls.shape[1]
    if r == 0:
        pen0 = pens + _softplus(-Ls).sum(axis=1).reshape(T, P)
        pen1 = pens + _softplus(Ls).sum(axis=1).reshape(T, P)
        bits = np.zeros((T, 2, P, n), dtype=np.uint8)
        bits[:, 1] = 1
        parents = np.tile(np.arange(T * P).reshape(T, 1, P), (1, 2, 1))
        cand = np.concatenate([pen0, pen1], axis=1)
        return _prune(bits.reshape(-1, n), cand, parents.ravel(), mu)
    if r == m:
        bits, leaf_pens, parents = _full_leaf(Ls, pens.ravel())
        return _prune(bits, leaf_pens.reshape(T, -1), parents, mu)
    L0, L1 = Ls[:, 1::2], Ls[:, 0::2]
    vbits, vpens, vpar = _list_rec(m - 1, r - 1, llr_of_sum(L0, L1), pens, mu)
    Lt = L0[vpar] + (1.0 - 2.0 * vbits) * L1[vpar]
    ubits, upens, upar = _list_rec(m - 1, r, Lt, vpens, mu)
    vsel = vbits[upar]
    out = np.empty((ubits.shape[0], n), dtype=np.uint8)
    out[:, 1::2] = ubits
    out[:, 0::2] = ubits ^ vsel
    return out, upens, vpar[upar]


# LLR cells (trials x paths x n) one list-recursion pass may hold per array
_LIST_CELLS = 1 << 18


def dumer_list_codewords(params: rmcode.CodeParams, Ls, mu: int) -> np.ndarray:
    """List decoding of every row of a (T, n) LLR block, list size mu.

    Per row the first path of minimal penalty wins.  Rows go through the
    recursion in chunks of at most _LIST_CELLS // (mu * n) trials, which
    bounds the working memory.
    """
    if mu < 1:
        raise ValueError("mu must be >= 1")
    Ls = block_rows(params.n, Ls, np.float64)
    out = np.empty(Ls.shape, dtype=np.uint8)
    step = max(1, _LIST_CELLS // (mu * params.n))
    for lo in range(0, Ls.shape[0], step):
        chunk = Ls[lo : lo + step]
        T = chunk.shape[0]
        bits, pens, _ = _list_rec(params.m, params.r, chunk, np.zeros((T, 1)), mu)
        # first minimum per trial = deterministic tie-break
        out[lo : lo + step] = bits[np.argmin(pens, axis=1) + pens.shape[1] * np.arange(T)]
    return out


def dumer_list_decode(params: rmcode.CodeParams, L, mu: int) -> DecodeResult:
    """List decoding with zero-order and full-code leaves, list size mu."""
    L = llr_word(params, L)
    return result_for(params, dumer_list_codewords(params, L[None], mu)[0], L)
