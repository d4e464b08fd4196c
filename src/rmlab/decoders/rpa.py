"""Recursive projection-aggregation decoding and a Chase-style list wrap.

Each round projects the word onto all n-1 one-dimensional coset
structures, decodes every projection recursively (first order bottoms out
in an FHT pass), and re-estimates each coordinate from the n-1 projected
verdicts: a plain majority for the hard variant, the weighted average

    Lhat_z = (1/(n-1)) * sum_{z' != z} ytilde_(z,z') * L_{z'}

for the LLR variant, whose vector replaces L before the next round.  The
hard variant stops early at a fixed point; both run at most n_max rounds.
Final hard decisions map an exact zero to bit 0.

The block kernels rpa_llr_codewords and rpa_bsc_codewords decode a (T, n)
block at once.  A round gathers the projections of all rows as one
(T, n-1, n/2) array, decodes them as T * (n-1) rows of the order r-1
kernel, and aggregates over the n-1 axis.  In the hard variant a row that
reaches its fixed point is frozen while the others go on.  Rows go
through in chunks so that each (rows, n-1, n) array holds at most _CELLS
cells.  chase_codewords decodes every trial's 2^t + 1 Chase candidates as
rows of the LLR kernel.  The single-word decoders run the block kernels
on a block of one, so each variant has one kernel.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from .. import rmcode
from ..channel import llr_of_sum
from .fht import fht_decode_words
from .types import DecodeResult, block_rows, hard_word, llr_word, result_for, soft_metric

CHASE_MAX_T = 16  # a Chase list runs 2^t + 1 decodes

# Cells of each float array one chunk of rows may hold: (rows, n-1, n) in
# an RPA round, (rows, n) for Chase candidates.  At n = 128 a chunk is one
# row; larger caps buy little speed and cost peak memory.
_CELLS = 1 << 14


@lru_cache(maxsize=None)
def _tables(m: int):
    """Gather tables over all nonzero directions b, as column indices.

    mem0/mem1 (n-1, n/2): the two coordinates of each projected coset;
    fcos (n-1, n): where coordinate z's coset sits among the flattened
    (n-1) * n/2 projected values; xorb (n-1, n): the coordinate z ^ b.
    """
    n = 1 << m
    half = n // 2
    mem0 = np.empty((n - 1, half), dtype=np.intp)
    mem1 = np.empty((n - 1, half), dtype=np.intp)
    fcos = np.empty((n - 1, n), dtype=np.intp)
    xorb = np.empty((n - 1, n), dtype=np.intp)
    jp = np.arange(half)
    j = np.arange(n)
    for b in range(1, n):
        h = b.bit_length() - 1
        rep = ((jp >> h) << (h + 1)) | (jp & ((1 << h) - 1))
        mem0[b - 1] = rep
        mem1[b - 1] = rep ^ b
        fcos[b - 1] = (b - 1) * half + rmcode.coset_index_map(m, b)
        xorb[b - 1] = j ^ b
    return mem0, mem1, fcos, xorb


def _rows(params: rmcode.CodeParams, words, dtype) -> np.ndarray:
    if params.r < 1:
        raise ValueError("need r >= 1")
    return block_rows(params.n, words, dtype)


def _chunks(rows: int, cells_per_row: int):
    step = max(1, _CELLS // cells_per_row)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _decode_projections(params: rmcode.CodeParams, kernel, proj: np.ndarray, n_max: int) -> np.ndarray:
    """Decode (R, n-1, n/2) projections as R * (n-1) rows of RM(m-1, r-1);
    returns the words as (R, (n-1) * n/2)."""
    sub = rmcode.CodeParams(params.m - 1, params.r - 1)
    return kernel(sub, proj.reshape(-1, proj.shape[-1]), n_max).reshape(proj.shape[0], -1)


def rpa_llr_codewords(params: rmcode.CodeParams, Ls, n_max: int = 3) -> np.ndarray:
    """Soft-input RPA of every row of a (T, n) LLR block; each row's hard
    decision after the last round."""
    Ls = _rows(params, Ls, np.float64)
    if params.r == 1:
        return fht_decode_words(Ls)
    n = params.n
    mem0, mem1, fcos, xorb = _tables(params.m)
    out = np.empty(Ls.shape, dtype=np.uint8)
    for rows in _chunks(len(Ls), (n - 1) * n):
        L = Ls[rows]
        for _ in range(n_max):
            proj = llr_of_sum(np.take(L, mem0, axis=1), np.take(L, mem1, axis=1))
            tilde = 1.0 - 2.0 * _decode_projections(params, rpa_llr_codewords, proj, n_max)
            est = np.take(L, xorb, axis=1)
            est *= np.take(tilde, fcos, axis=1)
            L = est.sum(axis=1) / (n - 1)
        out[rows] = L < 0
    return out


def rpa_bsc_codewords(params: rmcode.CodeParams, Ys, n_max: int = 3) -> np.ndarray:
    """Hard-input RPA of every row of a (T, n) block of 0/1 words.

    A row stops at its fixed point; a row that reaches none within n_max
    rounds keeps its last word, which need not be a codeword.
    """
    Ys = _rows(params, Ys, np.uint8)
    if params.r == 1:
        return fht_decode_words(1.0 - 2.0 * Ys)
    n = params.n
    mem0, mem1, fcos, xorb = _tables(params.m)
    out = Ys.copy()
    for rows in _chunks(len(out), (n - 1) * n):
        Y = out[rows]
        live = np.arange(len(Y))
        for _ in range(n_max):
            if not live.size:
                break
            y = Y[live]
            proj = np.take(y, mem0, axis=1) ^ np.take(y, mem1, axis=1)
            dec = _decode_projections(params, rpa_bsc_codewords, proj, n_max)
            est = np.take(dec, fcos, axis=1) ^ np.take(y, xorb, axis=1)
            new = (2 * np.count_nonzero(est, axis=1) > n - 1).astype(np.uint8)
            Y[live] = new
            live = live[(new != y).any(axis=1)]
    return out


def rpa_decode_bsc(params: rmcode.CodeParams, y, n_max: int = 3) -> np.ndarray:
    """Hard-input variant; returns a word (a codeword only on convergence)."""
    return rpa_bsc_codewords(params, hard_word(params, y)[None], n_max)[0]


def rpa_decode_llr(params: rmcode.CodeParams, L, n_max: int = 3) -> np.ndarray:
    """Soft-input variant; returns the hard decision after the last round."""
    return rpa_llr_codewords(params, llr_word(params, L)[None], n_max)[0]


def _chase_inputs(Ls, pos, lmax, trial, cand) -> np.ndarray:
    """LLR rows of the Chase candidates (trial[i], cand[i]).

    Candidate 0 is the trial's own L.  Candidate 1 + mask sets position
    pos[trial, b] to -lmax[trial] if bit b of mask is set, else to
    +lmax[trial].
    """
    rows = Ls[trial]
    hit = np.flatnonzero(cand)
    bits = ((cand[hit, None] - 1) >> np.arange(pos.shape[1])) & 1
    mag = lmax[trial[hit]][:, None]
    rows[hit[:, None], pos[trial[hit]]] = np.where(bits, -mag, mag)
    return rows


def _chase(decode_rows, Ls: np.ndarray, t: int) -> np.ndarray:
    """The Chase winner for every row of a (T, n) LLR block.

    decode_rows maps a block of candidate LLR rows to words.  Per trial the
    candidates run in order (the unperturbed L, then masks 0 .. 2^t - 1),
    and the first strict maximum of soft_metric against the trial's L wins.
    """
    T, n = Ls.shape
    if not (0 <= t <= min(CHASE_MAX_T, n)):
        raise ValueError("t out of range")
    mag = np.abs(Ls)
    pos = np.argsort(mag, axis=1, kind="stable")[:, :t]
    lmax = 2.0 * mag.max(axis=1)  # perturbation magnitude 2 * max |L|
    K = (1 << t) + 1
    best = np.empty(Ls.shape, dtype=np.uint8)
    best_metric = [-np.inf] * T
    for rows in _chunks(T * K, n):
        trial, cand = np.divmod(np.arange(rows.start, rows.stop), K)
        words = decode_rows(_chase_inputs(Ls, pos, lmax, trial, cand))
        signs = 1.0 - 2.0 * words
        for i, tr in enumerate(trial.tolist()):
            metric = 0.5 * float(np.dot(signs[i], Ls[tr]))  # soft_metric(words[i], Ls[tr])
            if metric > best_metric[tr]:
                best[tr], best_metric[tr] = words[i], metric
    return best


def chase_codewords(params: rmcode.CodeParams, Ls, t: int) -> np.ndarray:
    """Chase-RPA of every row of a (T, n) LLR block: each trial's 2^t + 1
    candidates are rows of rpa_llr_codewords blocks."""
    Ls = _rows(params, Ls, np.float64)
    return _chase(lambda rows: rpa_llr_codewords(params, rows), Ls, t)


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

    def each(rows):
        return np.array([np.asarray(decode_fn(row), dtype=np.uint8) for row in rows]).reshape(rows.shape)

    best = _chase(each, L[None], t)[0]
    if params is not None:
        return result_for(params, best, L)
    return DecodeResult(None, best, None, soft_metric(best, L))
