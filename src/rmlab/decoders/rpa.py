"""Recursive projection-aggregation decoding and its Chase-style list.

Each round projects the word onto all n-1 one-dimensional coset
structures, decodes every projection recursively (first order bottoms out
in an FHT pass), and re-estimates each coordinate from the n-1 projected
verdicts: a plain majority for the hard variant, the weighted average

    Lhat_z = (1/(n-1)) * sum_{z' != z} ytilde_(z,z') * L_{z'}

for the LLR variant, whose vector replaces L before the next round.  The
hard variant stops early at a fixed point; both run at most n_max rounds.
Final hard decisions map an exact zero to bit 0.

The block kernels rpa_llr_codewords and rpa_bsc_codewords decode a (R, n)
block at once, and every round, at every order, runs one step: it
gathers the projections of all R rows from the block's (n, R) transpose
through cached closed-form tables, so they come out as the
(n/2, (n-1) * R) columns the transform runs along.  At r = 2 each
column's verdict is read from its transform peak (position and sign),
and a lift table maps it to a row of the 2n affine words of RM(m, 1), so
the lifted verdicts of all rows are one row gather.  At r >= 3 the
columns, put back in coordinate order, are decoded as R * (n-1) rows of
the order r-1 kernel, and the verdicts are gathered from the decoded
words.  Either way the aggregation runs over the n-1 axis of a
(R, n-1, n) array.  In the hard variant a row that reaches its fixed point
is frozen while the others go on.  Rows go through in chunks so that each
(rows, n-1, n) array holds at most _CELLS cells.  chase_codewords decodes
the Chase candidates as rows of the LLR kernel, and only candidates that
are codewords of RM(m, r) compete, tested by rmcode.in_code (one binary
Moebius transform per chunk, no coefficient of degree > r); a trial with
no codeword candidate keeps its unperturbed word w0.  First every
trial's unperturbed L is decoded, then the 2^t perturbed copies of only
those trials that w0 does not settle.  A codeword w0 settles its trial
when it agrees with the hard decision L < 0 at every z with L_z != 0
(its metric is then the most any word's can be, summed in the same
order), or when oracle.distance_certified proves it ML by more than any
summation order can err; ties keep the earlier w0 anyway.  At bsc:0.032
on RM(5,2) about 98% of trials settle.  A single word decodes as a block
of one, so each variant has one kernel.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .. import rmcode
from ..channel import llr_of_sum
from .fht import _parity_table, column_peaks, fht_decode_words, hard_signs
from .oracle import distance_certified
from .types import block_rows, hard_rows, llr_word

CHASE_MAX_T = 16  # a Chase list runs 2^t + 1 decodes

# Cells of each float array one chunk of rows may hold: (rows, n-1, n) in
# an RPA round, (rows, n) for Chase candidates.  At n = 128 a chunk is four
# rows, at n = 32 sixty-six.  With the harness's steady heap (no minor
# faults at either size), 2^16 beat 2^15 on rpa RM(7,2) awgn:1.3 (T = 100)
# in 26 of 32 alternated fresh-process runs, by about a tenth in the
# median, and 2^17 was no faster; rpa-chase:3 RM(5,2) bsc:0.032 was within
# noise (7 of 10).  Without that heap, 2^16 re-faulted its pages each round.
_CELLS = 1 << 16


def _directions(m: int):
    """The nonzero directions b as an (n-1, 1) column, and ins/rem for
    each: with h the top bit of b, ins(x) inserts a 0 at bit h and rem(x)
    drops bit h."""
    b = np.arange(1, 1 << m)[:, None]
    h = np.repeat(np.arange(m), 1 << np.arange(m))[:, None]
    low = (1 << h) - 1

    def ins(x):
        return ((x >> h) << (h + 1)) | (x & low)

    def rem(x):
        return ((x >> (h + 1)) << h) | (x & low)

    return b, h, ins, rem


# Gather tables over all directions b, as indices, cached per m.  Every
# level reads _gathers; a level at r >= 3 also reads _fcos, one at r = 2
# _affine, so neither is built for a level that does not read it.


@lru_cache(maxsize=None)
def _gathers(m: int):
    """pair0/pair1 (n/2, n-1): the two coordinates ins(n/2-1-q) and that
    ^ b of the coset at projected point q, so a gather from the (n, R)
    transpose of a block lays each projection out as a column whose row q
    holds the value at point q; xorb (n-1, n): the coordinate z ^ b."""
    half = 1 << (m - 1)
    b, _, ins, _ = _directions(m)
    pair0 = np.ascontiguousarray(ins(half - 1 - np.arange(half)).T)
    return pair0, pair0 ^ b.T, np.arange(1 << m) ^ b


@lru_cache(maxsize=None)
def _fcos(m: int) -> np.ndarray:
    """(n-1, n): where coordinate z's coset rem(z ^ z_h * b) sits among the
    flattened (n-1) * n/2 projected values in coordinate order."""
    b, h, _, rem = _directions(m)
    z = np.arange(1 << m)
    return (b - 1) * (1 << (m - 1)) + rem(z ^ ((z >> h) & 1) * b)


@lru_cache(maxsize=None)
def _affine(m: int):
    """lift (n-1, n/2): the row of the affine tables that projection b's
    first-order verdict with linear part u lifts to, for constant term 0
    (constant term 1 is that row ^ n); words (2n, n): the 2n affine words
    of RM(m, 1), row v + n*c = <v, point> + c; signs: their +/-1 images.

    The verdict lifts to the word z -> <u, rem(p ^ (1 - p_h) * b)> at the
    point p of z, which is <ins(u) | c << h, p> + c with c = <u, rem(b)>.
    """
    b, h, ins, rem = _directions(m)
    q = np.arange(1 << (m - 1))
    c = (np.bitwise_count(q & rem(b)) & 1).astype(np.intp)  # uint8 would wrap c << m from m = 8
    words = np.concatenate([_parity_table(m), _parity_table(m) ^ 1])
    return ins(q) | c << h | c << m, words, 1.0 - 2.0 * words


def _rows(params: rmcode.CodeParams, words, hard: bool = False, n_max: int = 0) -> np.ndarray:
    if params.r < 1 or n_max < 0:
        raise ValueError("need r >= 1 and n_max >= 0")
    return hard_rows(params.n, words) if hard else block_rows(params.n, words, np.float64)


def _chunks(rows: int, cells_per_row: int):
    step = max(1, _CELLS // cells_per_row)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _verdicts(params: rmcode.CodeParams, x: np.ndarray, hard: bool, n_max: int) -> np.ndarray:
    """The (R, n-1, n) lifted verdicts of all n-1 projections of a (R, n)
    block x: 0/1 words for hard input (projections x_z ^ x_z'), +/-1 signs
    for LLRs (projections llr_of_sum).  The projections come out as the
    (n/2, n-1, R) columns the transform runs along.  At r = 2 each column's
    verdict is a row of the affine tables read from its peak; at r >= 3 the
    columns, put back in coordinate order, are decoded as R * (n-1) rows of
    the order r-1 kernel and lifted through fcos."""
    m, n = params.m, params.n
    pair0, pair1, _ = _gathers(m)
    xt = np.ascontiguousarray(x.T)
    a, b = np.take(xt, pair0, axis=0), np.take(xt, pair1, axis=0)
    # drop the gathers and projections once used: alive until the verdict
    # gather, they made the heap top shrink and re-fault every round
    proj = a ^ b if hard else llr_of_sum(a, b)
    del a, b
    if params.r > 2:
        sub = rmcode.CodeParams(m - 1, params.r - 1)
        rows = proj[::-1].transpose(2, 1, 0).reshape(-1, n // 2)
        del proj
        dec = (rpa_bsc_codewords if hard else rpa_llr_codewords)(sub, rows, n_max).reshape(len(x), -1)
        return np.take(dec if hard else 1.0 - 2.0 * dec, _fcos(m), axis=1)
    lift, words, signs = _affine(m)
    u, neg = column_peaks((hard_signs(proj) if hard else proj).reshape(n // 2, -1))
    del proj
    shape = (n - 1, len(x))
    rows = lift[np.arange(n - 1)[:, None], u.reshape(shape)] ^ (neg.reshape(shape) << m)
    return np.take(words if hard else signs, rows.T, axis=0)


def rpa_llr_codewords(params: rmcode.CodeParams, Ls, n_max: int = 3) -> np.ndarray:
    """Soft-input RPA of every row of a (T, n) LLR block; each row's hard
    decision after the last round."""
    Ls = _rows(params, Ls, n_max=n_max)
    if params.r == 1:
        return fht_decode_words(Ls)
    n = params.n
    xorb = _gathers(params.m)[2]
    out = np.empty(Ls.shape, dtype=np.uint8)
    for rows in _chunks(len(Ls), (n - 1) * n):
        L = Ls[rows]
        for _ in range(n_max):
            est = _verdicts(params, L, False, n_max)
            est *= np.take(L, xorb, axis=1)
            L = est.sum(axis=1) / (n - 1)
        out[rows] = L < 0
    return out


def rpa_bsc_codewords(params: rmcode.CodeParams, Ys, n_max: int = 3) -> np.ndarray:
    """Hard-input RPA of every row of a (T, n) block of 0/1 words.

    A row stops at its fixed point; a row that reaches none within n_max
    rounds keeps its last word, which need not be a codeword.
    """
    Ys = _rows(params, Ys, hard=True, n_max=n_max)
    if params.r == 1:
        return fht_decode_words(hard_signs(Ys))
    n = params.n
    xorb = _gathers(params.m)[2]
    out = Ys.copy()
    for rows in _chunks(len(out), (n - 1) * n):
        Y = out[rows]
        live = np.arange(len(Y))
        for _ in range(n_max):
            if not live.size:
                break
            y = Y[live]
            est = _verdicts(params, y, True, n_max)
            est ^= np.take(y, xorb, axis=1)
            new = (2 * np.count_nonzero(est, axis=1) > n - 1).astype(np.uint8)
            Y[live] = new
            live = live[(new != y).any(axis=1)]
    return out


def rpa_decode_bsc(params: rmcode.CodeParams, y, n_max: int = 3) -> np.ndarray:
    """Hard-input variant; returns a word (a codeword only on convergence)."""
    return rpa_bsc_codewords(params, np.asarray(y)[None], n_max)[0]


def rpa_decode_llr(params: rmcode.CodeParams, L, n_max: int = 3) -> np.ndarray:
    """Soft-input variant; returns the hard decision after the last round."""
    return rpa_llr_codewords(params, llr_word(params, L)[None], n_max)[0]


def _chase_inputs(Ls, pos, lmax, trial, mask) -> np.ndarray:
    """LLR rows of the perturbed Chase candidates (trial[i], mask[i]): row
    trial[i] of Ls with position pos[trial, b] set to -lmax[trial] if bit b
    of the mask is set, else to +lmax[trial]."""
    rows = Ls[trial]
    bits = (mask[:, None] >> np.arange(pos.shape[1])) & 1
    mag = lmax[trial][:, None]
    rows[np.arange(len(trial))[:, None], pos[trial]] = np.where(bits, -mag, mag)
    return rows


def _keep_better(params, best, best_metric, trial, words, Ls) -> None:
    """Score each candidate words[i] of trial[i] that is a codeword by
    soft_metric against the trial's row of Ls, one np.dot each, in order;
    keep strict maxima."""
    ok = np.flatnonzero(rmcode.in_code(params, words))
    signs = 1.0 - 2.0 * words[ok]
    for i, tr in enumerate(trial[ok].tolist()):
        metric = 0.5 * float(np.dot(signs[i], Ls[tr]))  # soft_metric(words[ok[i]], Ls[tr])
        if metric > best_metric[tr]:
            best[tr], best_metric[tr] = words[ok[i]], metric


def _chase(params: rmcode.CodeParams, decode_rows, Ls: np.ndarray, t: int) -> np.ndarray:
    """The Chase winner for every row of a (T, n) LLR block of RM(m, r).

    decode_rows maps a block of candidate LLR rows to new words; it chunks
    the block itself and never writes into it.  Per trial the
    candidates run in order (the unperturbed L, then masks 0 .. 2^t - 1),
    and the first codeword with the strict maximum of soft_metric against
    the trial's L wins; a trial with no codeword candidate, or whose
    codeword metrics are all NaN, keeps its unperturbed word.

    Candidate 0 of every trial is decoded first.  A trial is settled when
    that word w0 is a codeword and either equals the hard decision L < 0
    wherever L != 0 or passes oracle.distance_certified.  In the first
    case each term (1 - 2 w0_z) L_z of its metric is |L_z| (or a signed
    zero), no other word's term exceeds it, and rounded addition is
    monotone, so no candidate's metric, summed by np.dot in the same
    order, exceeds w0's.  In the second w0 beats every other codeword by
    more than any summation order can err (the certificate's docstring).
    Ties keep the earlier candidate, so w0 wins.  Only the other trials
    decode their 2^t perturbed candidates.
    """
    n = Ls.shape[1]
    if not (0 <= t <= min(CHASE_MAX_T, n)):
        raise ValueError("t out of range")
    best = decode_rows(Ls)
    hard = ((best == (Ls < 0)) | (Ls == 0)).all(axis=1)
    live = np.flatnonzero(~(rmcode.in_code(params, best) & (hard | distance_certified(params, Ls, best))))
    Lo = Ls[live]
    mag = np.abs(Lo)
    pos = np.argsort(mag, axis=1, kind="stable")[:, :t]
    lmax = 2.0 * mag.max(axis=1)  # perturbation magnitude 2 * max |L|
    won, won_metric = best[live], [-np.inf] * len(live)
    _keep_better(params, won, won_metric, np.arange(len(live)), best[live], Lo)
    for rows in _chunks(len(live) << t, n):
        k = np.arange(rows.start, rows.stop)
        trial = k >> t
        words = decode_rows(_chase_inputs(Lo, pos, lmax, trial, k & ((1 << t) - 1)))
        _keep_better(params, won, won_metric, trial, words, Lo)
    best[live] = won
    return best


def chase_codewords(params: rmcode.CodeParams, Ls, t: int) -> np.ndarray:
    """Chase-RPA of every row of a (T, n) LLR block: each trial's 2^t + 1
    candidates are rows of rpa_llr_codewords blocks."""
    Ls = _rows(params, Ls)
    return _chase(params, lambda rows: rpa_llr_codewords(params, rows), Ls, t)
