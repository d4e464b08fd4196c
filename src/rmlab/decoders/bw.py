"""Error location by multiplier words, then erasure filling.

Decodes C = RM(m, m-2r-2) from hard words y = c + e, a (T, n) block at a
time.  With E = RM(m, r+1), N = RM(m, m-r-1) and R = RM(m, r), the dual of
N: every multiplier a in E with a*y in N vanishes on any error support that
N could correct from erasures (E*C lies in N, so a*y in N forces a*e in N,
and such a support carries no nonzero N-word).  Erasing the common zeros U
of these multipliers reduces decoding to erasure filling.

Step 1.  a = sum_j alpha_j e_j has a*y in N iff S alpha = 0, S_ij =
<g_i e_j, y> = <x_{A_i | B_j}, y> over the rows g_i = x_{A_i} of R, a sum
that one Moebius transform of the reversed y gives for every monomial.  A
point is in U iff E's column there is orthogonal to S's nullspace, that is
in S's row space: the n columns join S as rows that are only reduced
(never pivots), and U is where they reduce to zero.

Step 2 is oracle.erasure_solve over C; an inconsistent row is undecodable
and keeps its hard word.  A consistent row has exactly one codeword, so no
row ever meets several.  Proof: let y - c' be supported on U, c' in C.  The
multipliers are then the a in E vanishing on U, so a -> (g -> <g a, y - c'>)
maps E|U one to one into the dual of R|U.  So E|U = R|U, and by induction
(x_i times a degree-s monomial) RM(m, s)|U = R|U for every s >= r: C's dual
RM(m, 2r+1) restricted to U holds every function on U, and a codeword of C
supported on U, orthogonal to all of them, is zero.

So the words alone tell the undecodable rows: a consistent row comes back
encoded, in C, and a kept hard word y lies outside C, since a codeword y
agrees with itself off any U and makes step 2 consistent.  On a single
word, sim.resolve_decoder raises Undecodable for a word outside C.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .. import gf2, rmcode
from .oracle import erasure_solve
from .types import hard_rows

_BYTES = 1 << 20  # of each chunk's S bits and packed rows, or one row's


@lru_cache(maxsize=4)
def _step1_tables(m: int, r: int):
    """The position of each S_ij in the Moebius transform of the reversed
    word, (k_R, k_E): x_S(p) = 1 iff p is above point_mask(S), the reversed
    word holds y(p) at coordinate p, so the transform's entry point_mask(S)
    sums y over x_S's support, and point_mask(A | B) is the OR of the two
    masks; and E's columns as rows, (n, words).  E's generator is built
    first, so that its TooLarge guard fires before the index is."""
    mults = rmcode.CodeParams(m, r + 1)
    columns = gf2.pack_rows(rmcode.generator_matrix(mults).T)
    masks = [rmcode.point_mask(rmcode.monomials(code), m).astype(np.int32) for code in (rmcode.CodeParams(m, r), mults)]
    return np.bitwise_or.outer(*masks), columns


def _erasures(m: int, r: int, Ys: np.ndarray) -> np.ndarray:
    """Step 1: each row's (T, n) common zeros U."""
    index, columns = _step1_tables(m, r)
    F = rmcode.moebius(Ys[:, ::-1])
    rows = np.concatenate((gf2.pack_rows(F[:, index]), np.broadcast_to(columns, (len(F), *columns.shape))), axis=2)
    gf2.eliminate(rows, index.shape[1], index.shape[0])
    return ~rows[:, :, index.shape[0]:].any(axis=1)


def bw_codewords(params: rmcode.CodeParams, Ys) -> np.ndarray:
    """Decode each row of a (T, n) block of hard words in C = params, with
    r = (m - params.r) // 2 - 1; an undecodable row keeps its hard word."""
    m, r = params.m, (params.m - params.r) // 2 - 1
    if r < 0 or (m - params.r) % 2:
        raise ValueError("need m - r even and >= 2")
    k_r, k_e = _step1_tables(m, r)[0].shape
    Ys = hard_rows(params.n, Ys)
    words = Ys.copy()
    words_e = -(-k_e // 64)
    step = max(1, _BYTES // max(64 * words_e * k_r, 8 * words_e * (k_r + params.n), 8 * params.n * (params.k // 64 + 1)))
    for lo in range(0, len(Ys), step):
        chunk = Ys[lo:lo + step]
        bits, consistent, _ = erasure_solve(params, chunk, _erasures(m, r, chunk))
        words[lo + np.flatnonzero(consistent)] = rmcode.encode_rows(params, bits[consistent])
    return words
