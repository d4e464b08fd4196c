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
"""

from __future__ import annotations

import numpy as np

from .. import rmcode
from ..channel import llr_of_sum
from .fht import order1_codeword
from .types import DecodeResult, result_for


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _plain_rec(m: int, r: int, L: np.ndarray) -> np.ndarray:
    if r == 0:
        bit = 1 if L.sum() < 0 else 0
        return np.full(L.size, bit, dtype=np.uint8)
    if r == 1:
        return order1_codeword(m, L)
    if r == m:
        return (L < 0).astype(np.uint8)
    L0, L1 = L[1::2], L[0::2]
    v = _plain_rec(m - 1, r - 1, llr_of_sum(L0, L1))
    u = _plain_rec(m - 1, r, L0 + (1.0 - 2.0 * v) * L1)
    out = np.empty(L.size, dtype=np.uint8)
    out[1::2] = u
    out[0::2] = u ^ v
    return out


def _llrs(params: rmcode.CodeParams, L) -> np.ndarray:
    L = np.asarray(L, dtype=np.float64)
    if L.shape != (params.n,):
        raise ValueError(f"expected {params.n} LLRs")
    return L


def dumer_codeword(params: rmcode.CodeParams, L) -> np.ndarray:
    """Codeword of dumer_decode(params, L), without message extraction."""
    return _plain_rec(params.m, params.r, _llrs(params, L))


def dumer_decode(params: rmcode.CodeParams, L) -> DecodeResult:
    """Greedy recursive decoding with first-order and full-code leaves."""
    L = _llrs(params, L)
    return result_for(params, _plain_rec(params.m, params.r, L), L)


def _prune(bits: np.ndarray, pens: np.ndarray, parents: np.ndarray, mu: int):
    if pens.size <= mu:
        return bits, pens, parents
    keep = np.argsort(pens, kind="stable")[:mu]
    return bits[keep], pens[keep], parents[keep]


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
    """Returns (bits, penalties, parent) for surviving paths.

    Ls is (paths, 2^m); parent maps each surviving path to its input row.
    """
    P, n = Ls.shape
    if r == 0:
        pen0 = pens + _softplus(-Ls).sum(axis=1)
        pen1 = pens + _softplus(Ls).sum(axis=1)
        bits = np.zeros((2 * P, n), dtype=np.uint8)
        bits[P:] = 1
        return _prune(bits, np.concatenate([pen0, pen1]), np.tile(np.arange(P), 2), mu)
    if r == m:
        return _prune(*_full_leaf(Ls, pens), mu)
    L0, L1 = Ls[:, 1::2], Ls[:, 0::2]
    vbits, vpens, vpar = _list_rec(m - 1, r - 1, llr_of_sum(L0, L1), pens, mu)
    Lt = L0[vpar] + (1.0 - 2.0 * vbits) * L1[vpar]
    ubits, upens, upar = _list_rec(m - 1, r, Lt, vpens, mu)
    vsel = vbits[upar]
    out = np.empty((ubits.shape[0], n), dtype=np.uint8)
    out[:, 1::2] = ubits
    out[:, 0::2] = ubits ^ vsel
    return out, upens, vpar[upar]


def dumer_list_codeword(params: rmcode.CodeParams, L, mu: int) -> np.ndarray:
    """Codeword of dumer_list_decode(params, L, mu), without message extraction."""
    if mu < 1:
        raise ValueError("mu must be >= 1")
    bits, pens, _ = _list_rec(params.m, params.r, _llrs(params, L)[None, :], np.zeros(1), mu)
    return bits[int(np.argmin(pens))]  # first minimum = deterministic tie-break


def dumer_list_decode(params: rmcode.CodeParams, L, mu: int) -> DecodeResult:
    """List decoding with zero-order and full-code leaves, list size mu."""
    L = _llrs(params, L)
    return result_for(params, dumer_list_codeword(params, L, mu), L)
