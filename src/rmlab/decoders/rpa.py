"""Recursive projection-aggregation decoding and a Chase-style list wrap.

Each round projects the word onto all n-1 one-dimensional coset
structures, decodes every projection recursively (first order bottoms out
in an FHT pass), and re-estimates each coordinate from the n-1 projected
verdicts: a plain majority for the hard variant, the weighted average

    Lhat_z = (1/(n-1)) * sum_{z' != z} ytilde_(z,z') * L_{z'}

for the LLR variant, whose vector replaces L before the next round.  The
hard variant stops early at a fixed point; both run at most n_max rounds.
Final hard decisions map an exact zero to bit 0.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from .. import rmcode
from ..channel import llr_of_sum
from .fht import fht_decode_words
from .types import DecodeResult, result_for, soft_metric

CHASE_MAX_T = 16  # a Chase list runs 2^t + 1 decodes


@lru_cache(maxsize=None)
def _tables(m: int):
    """Index tables covering all nonzero directions b.

    mem0/mem1: the two coordinates of each projected coset; cos: coordinate
    -> its coset's projected index; xorb: coordinate of the b-translate.
    """
    n = 1 << m
    half = n // 2
    mem0 = np.empty((n - 1, half), dtype=np.intp)
    mem1 = np.empty((n - 1, half), dtype=np.intp)
    cos = np.empty((n - 1, n), dtype=np.intp)
    xorb = np.empty((n - 1, n), dtype=np.intp)
    jp = np.arange(half)
    j = np.arange(n)
    for b in range(1, n):
        h = b.bit_length() - 1
        rep = ((jp >> h) << (h + 1)) | (jp & ((1 << h) - 1))
        mem0[b - 1] = rep
        mem1[b - 1] = rep ^ b
        cos[b - 1] = rmcode.coset_index_map(m, b)
        xorb[b - 1] = j ^ b
    return mem0, mem1, cos, xorb


def rpa_decode_bsc(params: rmcode.CodeParams, y, n_max: int = 3) -> np.ndarray:
    """Hard-input variant; returns a word (a codeword only on convergence)."""
    if params.r < 1:
        raise ValueError("need r >= 1")
    m, r = params.m, params.r
    y = np.asarray(y, dtype=np.uint8)
    if y.shape != (params.n,):
        raise ValueError(f"expected a length-{params.n} word")
    if r == 1:
        return fht_decode_words(1.0 - 2.0 * y.astype(np.float64))
    n = params.n
    mem0, mem1, cos, xorb = _tables(m)
    rows = np.arange(n - 1)[:, None]
    for _ in range(n_max):
        proj = y[mem0] ^ y[mem1]
        if r == 2:
            dec = fht_decode_words(1.0 - 2.0 * proj.astype(np.float64))
        else:
            sub = rmcode.CodeParams(m - 1, r - 1)
            dec = np.stack([rpa_decode_bsc(sub, proj[i], n_max) for i in range(n - 1)])
        est = dec[rows, cos] ^ y[xorb]
        num1 = est.sum(axis=0)
        new = (2 * num1 > (n - 1)).astype(np.uint8)
        if np.array_equal(new, y):
            return new
        y = new
    return y


def rpa_decode_llr(params: rmcode.CodeParams, L, n_max: int = 3) -> np.ndarray:
    """Soft-input variant; returns the hard decision after the last round."""
    if params.r < 1:
        raise ValueError("need r >= 1")
    m, r = params.m, params.r
    L = np.asarray(L, dtype=np.float64)
    if L.shape != (params.n,):
        raise ValueError(f"expected {params.n} LLRs")
    if r == 1:
        return fht_decode_words(L)
    n = params.n
    mem0, mem1, cos, xorb = _tables(m)
    rows = np.arange(n - 1)[:, None]
    for _ in range(n_max):
        proj = llr_of_sum(L[mem0], L[mem1])
        if r == 2:
            dec = fht_decode_words(proj)
        else:
            sub = rmcode.CodeParams(m - 1, r - 1)
            dec = np.stack([rpa_decode_llr(sub, proj[i], n_max) for i in range(n - 1)])
        tilde = 1.0 - 2.0 * dec[rows, cos]
        L = (tilde * L[xorb]).sum(axis=0) / (n - 1)
    return (L < 0).astype(np.uint8)


def chase_list(
    decode_fn, L, t: int, params: Optional[rmcode.CodeParams] = None
) -> DecodeResult:
    """Perturb the t least-reliable positions to certainty, both ways.

    decode_fn maps an LLR vector to a word.  Candidates are the unmodified
    run plus the 2^t perturbed runs (perturbation magnitude 2 * max |L|);
    the best soft metric against the original L wins, so the result never
    scores below the bare decoder.  When params is supplied the message is
    extracted if the winner is a codeword, else left None.
    """
    L = np.asarray(L, dtype=np.float64)
    n = L.size
    if not (0 <= t <= min(CHASE_MAX_T, n)):
        raise ValueError("t out of range")
    pos = np.argsort(np.abs(L), kind="stable")[:t]
    lmax = 2.0 * float(np.abs(L).max()) if n else 0.0
    best = None
    best_metric = -np.inf
    for cand in _chase_candidates(decode_fn, L, pos, lmax, t):
        cand = np.asarray(cand, dtype=np.uint8)
        metric = soft_metric(cand, L)
        if metric > best_metric:
            best, best_metric = cand, metric
    if params is not None:
        return result_for(params, best, L)
    return DecodeResult(None, best, None, best_metric)


def _chase_candidates(decode_fn, L, pos, lmax, t):
    yield decode_fn(L.copy())
    for mask in range(1 << t):
        Lp = L.copy()
        for b in range(t):
            Lp[pos[b]] = -lmax if (mask >> b) & 1 else lmax
        yield decode_fn(Lp)
