"""Reference decoders: exhaustive ML and erasure solving.

ml_codewords returns the ML codeword of every row (guarded at k <= 24),
so it serves as the ground truth the structured decoders are compared
against.  A row whose answer a certificate proves skips the search.

The certificate.  Reed's majority decoder turns the hard decision y of
a row into a codeword c.  Let D be the positions where c and y differ,
delta = |D| and lambda = sum_D |L|.  A codeword x scores sum|L| minus
twice its discrepancy, the sum of |L| where x and y differ.  Every other
codeword differs from c in at least d = 2^(m-r) positions, at least
d - delta of them outside D, where it differs from y too, so its
discrepancy is at least LB, the sum of the d - delta smallest |L|
outside D (0 when delta >= d).  So c's correlation exceeds every other's
by at least 2 (LB - lambda), and the row is certified when LB - lambda >
slack.  Reed's decoder finds the sent word below d/2 errors, so most
rows of a good channel certify; a BSC row with d/2 errors never does
(there LB <= lambda).

The slack makes the certified word the one the search returns, ties
included.  Two correlations tie when their exact sums round to the same
double f.  Both are integer multiples of 2^-1074, so one below 2^-1022
in magnitude is a double already and ties only with itself; otherwise
they lie within ulp(f) <= 2^-52 |f| <= 2^-52 (1 + u) sum|L| of each
other, u = 2^-53.  Two correlations further apart than that never tie,
and the larger one stays on top after rounding.  The test runs on the
row scaled by the power of two that puts its max|L| in [0.5, 1), with A
= sum|L| after scaling, so A >= 1/2 for any nonzero row:

  - scaling is exact but for entries pushed below 2^-1022, each moved by
    at most 2^-1075;
  - lambda, LB and A are float64 sums of at most n nonnegative terms,
    each within gamma_(n-1) < 1.01 (n-1) u of its exact value (an
    addition whose result is subnormal is exact), and the difference and
    the slack add three roundings of u;
  - so with

      slack = n 2^-50 A = 8 n u A

    a computed LB - lambda above slack leaves the exact one above half
    the tie spacing, 2^-53 (1 + u) A: the summation errors take at most
    2.1 (n-1) u A and the tie spacing 1.01 u A, and the scaling's at
    most n 2^-1074 falls far below the rest since A >= 1/2.

Subnormals need no absolute term: their correlations tie only when
equal, and scaling lifts a row of them into the normal range.  An
all-zero row has slack 0 = LB - lambda and is searched.

The search.  Uncertified rows score all 2^k codewords and never hold
the 2^k x n codebook.  With t = min(k, 8), the codeword of
message index a << t | b has signs head[a] * tail[b], where head spans
the first k - t generator rows and tail the last t (the linear rows, the
last quadratic ones and, last of all, the constant row).  The constant
row flips every sign, so tail[2c + 1] = -tail[2c]: the kernel keeps only
the 2^(t-1) even tail words, the span of the t - 1 rows above the
constant row, and one entry S of the product tail @ (head * L).T,
(2^(t-1), 2^(k-t)), scores the pair b = 2c (score S) and b = 2c + 1
(score -S), the first step of the coset decomposition of Be'ery and
Snyders.  Pass 1 keeps each head row's maximum of |S|; pass 2 recomputes
the head rows that can hold the maximum and reads both signs.  Both
products run in float32.

Ties go to the smallest message index, that is the lexicographically
smallest coefficient vector in generator row order, whatever the BLAS:
two correlations tie when their exact sums round to the same double.  A
row of integer multiples of one unit (sign-quantized or integer LLRs)
whose integers sum below 2^24 is divided by that unit and scored
exactly: every partial sum is an integer float32 holds.  Any other row
is scaled by a power of two so that its max|L| lies in [0.5, 1), and
there a computed correlation lies within eps of its exact (scaled)
value, with u = 2^-24 and A = sum|L| after scaling:

  - the cast to float32 moves each entry by at most u|L_j| + 2^-150 (half
    the smallest subnormal; the scaling itself is exact in float64 but
    for entries below 2^-1074, which the same term covers);
  - the signs are exact, and any summation tree of n terms adds at most
    gamma_(n-1) = (n-1)u / (1 - (n-1)u) of the sum of their magnitudes,
    itself at most (1 + u)A + n 2^-150 (an addition whose result is
    subnormal is exact);
  - k <= 24 keeps n <= 2^23, so (n-1)u < 1/2 and gamma_(n-1) < 2(n-1)u:
    the error is below 2nuA + n 2^-149, and

      eps = n 2^-22 A + n 2^-140

    exceeds it by at least 2nuA >= 2^-23 A, room for two exact sums that
    round to the same double (they differ by at most 2^-52 A) and for the
    rounding of the threshold top - 2 eps.

So the candidates, the codewords within 2 * eps of the row's top score,
hold every exact maximum: a lone candidate wins, and otherwise the
candidates are rescored with math.fsum from the float64 row.  A
complement's exact score is the negated exact score, so both bounds hold
for either sign.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Union

import numpy as np

from .. import channel, gf2, rmcode
from ..rmcode import TooLarge
from .reed import reed_codewords
from .types import Ambiguous, DecodeResult, block_rows, llr_word, result_for, soft_metric

_ML_GUARD_K = 24
_TAIL_ROWS = 8
# Each product, its operand and the per-(trial, head row) maxima hold at
# most about _CELLS float32 cells.
_CELLS = 1 << 18


def _index_bits(k: int, idx) -> np.ndarray:
    """Coefficient rows of message indices.  Bit k-1-row of an index is the coefficient
    of generator row `row`, so ascending index = lexicographic coefficient order."""
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint64)
    return ((np.asarray(idx, dtype=np.uint64)[:, None] >> shifts) & 1).astype(np.uint8)


def _span_signs(rows: np.ndarray) -> np.ndarray:
    """(+/-1) float32 signs of all 2^len(rows) sums of the generator rows, by index."""
    bits = _index_bits(len(rows), np.arange(1 << len(rows)))
    return 1.0 - 2.0 * ((bits @ rows) & 1).astype(np.float32)


def _tail_rows(params: rmcode.CodeParams) -> int:
    return min(params.k, _TAIL_ROWS)


@lru_cache(maxsize=4)
def _sign_codebook(params: rmcode.CodeParams) -> np.ndarray:
    """The half tail factor: signs of the 2^(t-1) even tail words, the span of
    the t - 1 generator rows above the last one, the constant row.  The
    kernel uses it only as the left operand of @."""
    return _span_signs(rmcode.generator_matrix(params)[params.k - _tail_rows(params):-1])


@lru_cache(maxsize=4)
def _head_signs(params: rmcode.CodeParams) -> np.ndarray:
    """The head factor: signs of the 2^(k-t) codewords of the first k - t rows."""
    return _span_signs(rmcode.generator_matrix(params)[: params.k - _tail_rows(params)])


def _in_units(L: np.ndarray):
    """The float32 rows the products score, and each row's rounding bound
    eps (see the module docstring).

    A row that is a multiple of one unit u by integers of total size below
    2^24 is divided by u, with eps = 0: its correlations are u * N with
    integer N, exact in float32 when computed from L / u, and distinct N
    stay distinct after rounding, so every order and every tie is kept.
    Sign-quantized rows (BSC, BEC, Chase perturbations) and small integer
    LLRs are divided.  Any other row is scaled by the power of two that
    puts its max|L| in [0.5, 1), so its float32 copy neither overflows nor
    loses more than the bound's absolute term to underflow.
    """
    mag = np.abs(L)
    frac, ex = np.frexp(mag)
    M = (frac * 2.0**53).astype(np.int64)  # |L| = M * 2^(ex - 53)
    tz = np.frexp((M & -M).astype(np.float64))[1] - 1  # trailing zero bits of M, -1 for M = 0
    g = np.gcd.reduce(M >> np.maximum(tz, 0), axis=1)  # gcd of the odd parts, 0 for a zero row
    low = np.where(M > 0, ex - 53 + tz, 0x7FFF).min(axis=1)
    unit = np.ldexp(np.maximum(g, 1).astype(np.float64), np.where(g > 0, low, 0))
    with np.errstate(over="ignore"):
        scaled = L / unit[:, None]
    divided = np.abs(scaled).sum(axis=1) < 2.0**24
    top_ex = np.frexp(mag.max(axis=1, initial=0.0))[1]
    scaled = np.where(divided[:, None], scaled, np.ldexp(L, -top_ex[:, None]))
    n = L.shape[1]
    eps = np.where(divided, 0.0, n * 2.0**-22 * np.abs(scaled).sum(axis=1) + n * 2.0**-140)
    return scaled.astype(np.float32), eps


def _ml_indices(params: rmcode.CodeParams, L: np.ndarray) -> np.ndarray:
    """Message index of the ML codeword of each row of L, smallest index on ties."""
    t = _tail_rows(params)
    head = _head_signs(params)
    T, H = len(L), len(head)
    width = max(1 << t, params.n)  # bounds the cells per (trial, head row) in a product or its operand
    step = max(1, _CELLS // width)  # (trial, head row) pairs per product
    X32, eps = _in_units(L)

    # pass 1: the best correlation of every (trial, head row)
    rowmax = np.empty((T, H), np.float32)
    tc, hc = max(1, step // H), min(H, step)
    for i in range(0, T, tc):
        for j in range(0, H, hc):
            X = (head[j:j + hc] * X32[i:i + tc, None]).reshape(-1, params.n)
            S = _sign_codebook(params) @ X.T  # b = 2c scores S, b = 2c + 1 scores -S
            # in place: with a second product-sized temporary, glibc returned
            # and refaulted heap pages on every product in one free order
            # (half the kernel's speed)
            np.abs(S, out=S)
            rowmax[i:i + tc, j:j + hc] = S.max(axis=0).reshape(-1, min(hc, H - j))
    top = rowmax.max(axis=1)
    near = rowmax >= (top - 2 * eps)[:, None]
    # a row scored exactly (eps = 0) needs only its first maximal head row,
    # and its first candidate wins
    exact = eps == 0
    near[exact] = False
    near[exact, rowmax[exact].argmax(axis=1)] = True

    # pass 2: every word of a near head row within 2 * eps of the top, read
    # from both signs of S; hit[2c + s] holds the word b = 2c + s
    trial, a = np.nonzero(near)
    cand_trial, cand_idx = [], []
    for lo in range(0, len(trial), step):
        tr, hd = trial[lo:lo + step], a[lo:lo + step]
        S = _sign_codebook(params) @ (head[hd] * X32[tr]).T
        thr = top[tr] - 2 * eps[tr]
        hit = np.stack((S >= thr, S <= -thr), axis=1).reshape(1 << t, -1)
        col, b = np.nonzero(hit.T)
        cand_trial.append(tr[col])
        cand_idx.append((hd[col] << t) | b)
    cand_trial = np.concatenate(cand_trial)
    cand_idx = np.concatenate(cand_idx)

    # candidates come sorted by (trial, index), so a trial's first is its smallest
    counts = np.bincount(cand_trial, minlength=T)
    starts = np.cumsum(counts) - counts
    best = cand_idx[starts]
    for i in np.flatnonzero((counts > 1) & ~exact):
        idx = cand_idx[starts[i]:starts[i] + counts[i]]
        scores = _fsum_scores(params, idx, L[i])
        best[i] = idx[scores.index(max(scores))]
    return best


def _fsum_scores(params: rmcode.CodeParams, idx: np.ndarray, L: np.ndarray) -> list[float]:
    """Correctly rounded correlations of L with the codewords of message indices idx."""
    step = max(1, _CELLS // params.n)
    scores = []
    for lo in range(0, len(idx), step):
        words = rmcode.encode_rows(params, _index_bits(params.k, idx[lo:lo + step]))
        scores += [math.fsum(row) for row in ((1.0 - 2.0 * words) * L).tolist()]
    return scores


def _certified(params: rmcode.CodeParams, L: np.ndarray):
    """Reed's codeword of each row's hard decision, and whether the
    certificate proves it the row's ML answer (see the module docstring)."""
    y = channel.hard_decision(L)
    c = reed_codewords(params, y)
    mag = np.abs(L)
    a = np.ldexp(mag, -np.frexp(mag.max(axis=1, initial=0.0))[1][:, None])  # max|L| in [0.5, 1)
    D = c != y
    lam = np.where(D, a, 0.0).sum(axis=1)
    # the smallest |L| outside D, ascending; D's positions sort last
    outside = np.cumsum(np.sort(np.where(D, np.inf, a), axis=1), axis=1)
    need = params.d - D.sum(axis=1)  # d <= n: never past the n - delta entries outside D
    LB = np.where(need > 0, outside[np.arange(len(L)), np.maximum(need, 1) - 1], 0.0)
    slack = params.n * 2.0**-50 * a.sum(axis=1)
    return c, LB - lam > slack


def ml_codewords(params: rmcode.CodeParams, Ls) -> np.ndarray:
    """ML decoding of every row of a (T, n) LLR block: rows the certificate
    settles keep Reed's word, the others go through the exhaustive search
    (see the module docstring for both and for the exact tie rule)."""
    if params.k > _ML_GUARD_K:
        raise TooLarge(f"k = {params.k} exceeds the exhaustive guard of {_ML_GUARD_K}")
    Ls = block_rows(params.n, Ls, np.float64)
    if not np.isfinite(Ls).all():
        raise ValueError("LLRs must be finite")
    words, certified = _certified(params, Ls)
    rest = Ls[~certified]
    step = max(1, _CELLS // len(_head_signs(params)))  # trials whose (trials, head rows) maxima fit
    idx = [np.empty(0, np.int64)]  # so that an empty block decodes too
    idx += [_ml_indices(params, rest[lo:lo + step]) for lo in range(0, len(rest), step)]
    words[~certified] = rmcode.encode_rows(params, _index_bits(params.k, np.concatenate(idx)))
    return words


def ml_decode(params: rmcode.CodeParams, L) -> DecodeResult:
    """Maximum-likelihood decoding, by certificate or exhaustive search.

    Returns the codeword of maximal correlation with L.  Ties, equal
    correlations after one correct rounding of their exact sums, resolve
    to the lexicographically smallest coefficient vector in generator row
    order, whatever the BLAS.  Raises TooLarge for k > 24.
    """
    L = llr_word(params, L)
    return result_for(params, ml_codewords(params, L[None])[0], L)


def erasure_decode(params: rmcode.CodeParams, y) -> Union[DecodeResult, Ambiguous]:
    """Solve for the message from the unerased coordinates.

    y is a uint8 word with channel.ERASURE marking erased positions.
    Returns Ambiguous(count_exponent) when 2^count_exponent codewords are
    consistent; raises gf2.InconsistentSystem when none is.
    """
    y = np.asarray(y)
    if y.shape != (params.n,):
        raise ValueError(f"expected a length-{params.n} word")
    if not ((y == 0) | (y == 1) | (y == channel.ERASURE)).all():
        raise ValueError(f"entries must be 0, 1 or {channel.ERASURE} (erased)")
    cols = rmcode.generator_columns(params)
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
    L = np.where(y == channel.ERASURE, 0.0, 1.0 - 2.0 * y)
    return DecodeResult(params, c, msg, soft_metric(c, L))
