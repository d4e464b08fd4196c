"""Recursive Plotkin-decomposition decoding, plain and list flavors.

A length-2^m LLR vector splits into the z_m = 0 half L0 (odd coordinates)
and z_m = 1 half L1 (even coordinates).  The derivative part v sees the
LLR-of-sum of the halves; once v is decided the two halves combine
coherently for u.  The plain recursion stops at first-order leaves
(fht_decode_words, through fht.column_peaks) and full codes
(per-coordinate signs).  The list variant stops at zero-order and full
leaves, branching 2 resp. 4 ways per path, pruning to list size mu by the
cumulative penalty

    sum over decided bits of ln(1 + exp(-(1 - 2 bit) * llr)),

which telescopes exactly to the channel-domain negative log-likelihood, so
an exhaustive list reproduces ML ranking.

Both recursions decode a whole block of T trials at once: the plain one
over (T, n) LLR rows, the list one over T * P path rows, P paths per
trial, stored trial-major.  Every path count depends only on (m, r, mu),
so all trials of a block branch and prune in lockstep.  A list leaf
first scores its candidates (bit-major at zero order, path-major and
cheapest first at full codes), then keeps per trial the mu cheapest by a
stable sort of that trial's penalties, and only then builds the words
and parents of the survivors.  A full-code leaf needs no sort of its own:
with m1 <= m2 <= m3 the three least reliable magnitudes of a path, its 4
cheapest flip sets are {}, {1}, {2} and then {1,2} or {3}, picked by one
comparison of base + (m1 + m2) with base + m3.  Gathers between levels
take rows along axis 0 or flat offsets, never a 2-D fancy index.  A
single word decodes as a block of one, so each flavor has one kernel.
"""

from __future__ import annotations

import numpy as np

from .. import rmcode
from ..channel import llr_of_sum
from .fht import fht_decode_words
from .types import block_rows


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
    return rmcode.plotkin_join(u, v)


def dumer_codewords(params: rmcode.CodeParams, Ls) -> np.ndarray:
    """Plain recursive decoding of every row of a (T, n) LLR block."""
    return _plain_rec(params.m, params.r, block_rows(params.n, Ls, np.float64))


def _prune(pens: np.ndarray, mu: int):
    """Per trial the indices of the mu cheapest of the Q candidates in
    pens, a (T, Q) array, and their penalties; ties keep candidate order."""
    T, Q = pens.shape
    if Q <= mu:
        return np.broadcast_to(np.arange(Q), (T, Q)), pens
    keep = np.argsort(pens, axis=1, kind="stable")[:, :mu]
    return keep, pens.take(keep + Q * np.arange(T)[:, None])


_SIGNS = np.array([1.0, -1.0])  # 1 - 2 * bit


def _list_rec(m: int, r: int, Ls: np.ndarray, pens: np.ndarray, mu: int):
    """Returns (bits, penalties, parent) for the surviving paths.

    pens is (T, P): P paths for each of T trials.  Ls holds their LLRs as
    (T * P, 2^m) rows, trial-major, and so do bits; parent maps each
    surviving path to its input row.  A leaf scores its candidates, prunes
    them, and builds the words of the survivors only.
    """
    if 0 < r < m:
        L0, L1 = Ls[:, 1::2], Ls[:, 0::2]
        vbits, vpens, vpar = _list_rec(m - 1, r - 1, llr_of_sum(L0, L1), pens, mu)
        # L0 + (1 - 2 v) * L1 on the parents' halves; rounded addition
        # commutes, so adding L0 last gives the same doubles
        Lt = L1.take(vpar, axis=0)
        Lt *= _SIGNS.take(vbits)
        Lt += L0.take(vpar, axis=0)
        ubits, upens, upar = _list_rec(m - 1, r, Lt, vpens, mu)
        return rmcode.plotkin_join(ubits, vbits.take(upar, axis=0)), upens, vpar.take(upar)
    T, P = pens.shape
    n = Ls.shape[1]
    trial = P * np.arange(T)[:, None]
    if r == 0:
        # candidate q = bit * P + path; softplus(x) = max(x, 0) + E with
        # E = softplus(-|x|), bit for bit as numpy's logaddexp computes it;
        # both bits' rows, each contiguous, go through one row sum
        E = _softplus(-np.abs(Ls)).reshape(T, 1, P, n)
        both = np.empty((T, 2, P, n))
        np.maximum(-Ls.reshape(T, P, n), 0.0, out=both[:, 0])
        np.maximum(Ls.reshape(T, P, n), 0.0, out=both[:, 1])
        both += E
        keep, kept = _prune((pens[:, None, :] + both.sum(axis=3)).reshape(T, 2 * P), mu)
        bits = np.repeat((keep // P).astype(np.uint8).reshape(-1, 1), n, axis=1)
        return bits, kept, (trial + keep % P).ravel()
    # r == m: per path the 4 cheapest words among the hard decision and its
    # flips of the t = min(3, n) least reliable positions, magnitudes
    # m1 <= m2 <= m3, cheapest first under a stable sort of base + (flip
    # cost): {}, {1}, {2}, then {1,2} if base + (m1 + m2) <= base + m3, else
    # {3}.  Rounded addition is monotone, so every other set costs at least
    # base + m3 and comes later.  Candidate q = path * 4 + rank; combo
    # numbers the flip sets as bit masks, bit i flipping position i
    rows = T * P
    mag = np.abs(Ls)
    base = pens.ravel() + _softplus(-mag).sum(axis=1)
    t = min(3, n)
    pos = np.argsort(mag, axis=1, kind="stable")[:, :t]
    least = mag.take(pos + n * np.arange(rows)[:, None])
    cost = np.zeros((rows, 4))
    cost[:, 1:3] = least[:, :2]
    np.add(least[:, 0], least[:, 1], out=cost[:, 3])
    third = np.zeros(rows, dtype=bool)
    if t == 3:
        third = ~(base + cost[:, 3] <= base + least[:, 2])
        np.copyto(cost[:, 3], least[:, 2], where=third)
    keep, kept = _prune((base[:, None] + cost).reshape(T, 4 * P), mu)
    parents = (trial + keep // 4).ravel()
    rank = (keep % 4).ravel()
    combo = rank + (rank == 3) * third.take(parents)
    bits = (Ls.take(parents, axis=0) < 0).astype(np.uint8)
    # positions within a path are distinct, so the flat scatter never collides
    at = pos.take(parents, axis=0) + n * np.arange(len(parents))[:, None]
    bits.reshape(-1)[at] ^= ((combo[:, None] >> np.arange(t)) & 1).astype(np.uint8)
    return bits, kept, parents


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
