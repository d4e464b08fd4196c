"""Reference copies of structure-layer code that src/rmlab no longer has.

rmlab evaluates monomials over a point array in one place
(rmcode.evaluations) and enumerates the monomial order by size and
itertools.combinations.  This module keeps the per-point loops and the
sort they replaced, as they were, so the tests can check the array forms
against them, the GF(2) and coset helpers that only tests call, and the
first-order codeword of a linear part and the first-order list decoder,
which the tests use to check fht_decode_words.  It also keeps the
row-layout point transform and peak reader that the first-order decoders
used before they all read fht.column_peaks, so the tests can check the
column layout against them.  Last, the Python-int affine solver with its
M x and x^T M helpers, and the per-word erasure and bw decoders built on
it, which the block erasure solve and bw_codewords replaced.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence, Union

import numpy as np

from rmlab import channel, gf2, rmcode
from rmlab.decoders.fht import _parity_table, fht
from rmlab.decoders.types import Ambiguous, DecodeResult, Undecodable, hard_rows, llr_word, result_for, soft_metric


class InvalidDirection(ValueError):
    """Direction must be a nonzero point of F_2^m."""


def parity(x: int) -> int:
    return x.bit_count() & 1


def transpose(rows, ncols: int) -> list[int]:
    out = [0] * ncols
    for i, row in enumerate(rows):
        bit = 1 << i
        r = row
        while r:
            j = r.bit_length() - 1
            out[j] |= bit
            r ^= 1 << j
    return out


def project_coset(y: np.ndarray, b: int) -> np.ndarray:
    """Sum y over the cosets of {0, b}, one output coordinate per coset.

    b is a nonzero point in the integer encoding of rmlab.rmcode.  The
    coset containing points {p, p^b} is indexed by its member with the
    smaller coordinate index; outputs are compacted in increasing order of
    that index.
    """
    y = np.asarray(y)
    n = y.size
    if n < 2 or n & (n - 1):
        raise ValueError("word length must be 2^m")
    if not (0 < b < n):
        raise InvalidDirection(f"direction {b!r} not a nonzero point of F_2^m")
    h = b.bit_length() - 1
    jp = np.arange(n // 2)
    rep = ((jp >> h) << (h + 1)) | (jp & ((1 << h) - 1))
    return (y[rep] ^ y[rep ^ b]).astype(np.uint8)


def coset_index_map(m: int, b: int) -> np.ndarray:
    """For each coordinate j, the projected coordinate of its {0,b}-coset."""
    n = 1 << m
    if not (0 < b < n):
        raise InvalidDirection(f"direction {b!r} not a nonzero point of F_2^m")
    h = b.bit_length() - 1
    j = np.arange(n)
    rep = np.where((j >> h) & 1, j ^ b, j)
    return ((rep >> (h + 1)) << h) | (rep & ((1 << h) - 1))


# --- the sorted monomial order and the per-point evaluations ---------------


def _subset_key(mask: int):
    elems = tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)
    return (-len(elems), elems)


@lru_cache(maxsize=None)
def monomial_order(m: int) -> tuple[int, ...]:
    return tuple(sorted(range(1 << m), key=_subset_key))


def monomials(m: int, r: int) -> tuple[int, ...]:
    return tuple(a for a in monomial_order(m) if a.bit_count() <= r)


def point_mask(subset: int, m: int) -> int:
    out = 0
    for i in range(m):
        if (subset >> i) & 1:
            out |= 1 << (m - 1 - i)
    return out


@lru_cache(maxsize=None)
def eval_monomial_packed(subset: int, m: int) -> int:
    n = 1 << m
    pmask = point_mask(subset, m)
    word = 0
    for p in range(n):
        if p & pmask == pmask:
            word |= 1 << (n - 1 - p)
    return word


def eval_monomial(subset: int, m: int) -> np.ndarray:
    return gf2.unpack_bits(eval_monomial_packed(subset, m), 1 << m)


def generator_matrix(m: int, r: int) -> np.ndarray:
    return np.stack([eval_monomial(a, m) for a in monomials(m, r)])


def rm_full_rows(m: int) -> tuple[int, ...]:
    return tuple(eval_monomial_packed(a, m) for a in monomial_order(m))


def monomial_at(m: int) -> np.ndarray:
    """The monomial whose coefficient the Moebius transform puts at each position."""
    return np.array([point_mask(p, m) for p in range((1 << m) - 1, -1, -1)])


def _submasks(mask: int) -> list[int]:
    out = [0]
    bits = [1 << i for i in range(mask.bit_length()) if (mask >> i) & 1]
    for bit in bits:
        out += [s | bit for s in out]
    return sorted(out)


def cosets_of_subspace(subset: int, m: int) -> list[list[int]]:
    pmask = point_mask(subset, m)
    free = ((1 << m) - 1) ^ pmask
    members = _submasks(pmask)
    return [[rep | v for v in members] for rep in _submasks(free)]


def reed_layer(m: int, t: int):
    subsets = [a for a in monomial_order(m) if a.bit_count() == t]
    gather = (1 << m) - 1 - np.array([cosets_of_subspace(a, m) for a in subsets], dtype=np.intp)
    evals = np.stack([eval_monomial(a, m) for a in subsets]).astype(np.float64)
    threshold = 1 if t == m else 1 << (m - t - 1)
    return gather, evals, threshold


def sakkour_tables(m: int):
    J = np.arange(1 << m)
    pairs = list(combinations(range(1, m + 1), 2))
    cols = np.array([j - 1 for _, j in pairs])
    shifts = np.array([m - i for i, _ in pairs])
    evals = np.stack([eval_monomial((1 << (i - 1)) | (1 << (j - 1)), m) for i, j in pairs])
    return J[:, None] ^ J[None, :], cols, shifts, evals.astype(np.float64)


def point_transform(L) -> np.ndarray:
    """Transform of every row of L, a (..., 2^m) array, over points: entry
    u is sum_z (-1)^{<u, z>} L_z.  Integer L is transformed exactly (see
    fht), any other L in float64.  fht runs along axis 0, so the reversed
    rows move there and back."""
    return np.moveaxis(fht(np.moveaxis(np.asarray(L)[..., ::-1], -1, 0)), 0, -1)


def transform_peak(L) -> tuple[np.ndarray, np.ndarray]:
    """Point transform of every row of L, a (..., 2^m) array, and per row the
    smallest u of maximal |transform|, the best first-order linear part.  Its
    constant term is 1 exactly when the entry at u is negative.
    """
    spec = point_transform(L)
    return spec, np.argmax(np.abs(spec), axis=-1)


def linear_word(m: int, u: int, u0: int) -> np.ndarray:
    """Codeword of u0 + sum_i u_i x_i; u in point encoding (bit m-i = u_i)."""
    return _parity_table(m)[u] ^ np.uint8(u0)


def fht_list_decode_order1(m: int, L, s: int) -> list[DecodeResult]:
    """The s best first-order candidates by |transform|, best first."""
    params = rmcode.CodeParams(m, 1)
    L = llr_word(params, L)
    if not (1 <= s <= params.n):
        raise ValueError("list size out of range")
    spec = point_transform(L)
    order = np.argsort(-np.abs(spec), kind="stable")[:s]
    return [result_for(params, linear_word(m, u, 1 if spec[u] < 0 else 0), L) for u in order.tolist()]


# --- the Python-int affine solver and the per-word erasure and bw decoders ---


def mat_vec(rows: Sequence[int], x: int) -> int:
    """y with y_i = <row_i, x> over GF(2), packed over row indices."""
    y = 0
    for i, row in enumerate(rows):
        if (row & x).bit_count() & 1:
            y |= 1 << i
    return y


def vec_mat(rows: Sequence[int], x: int) -> int:
    """x^T M: the XOR of the rows[i] whose bit i of x is set."""
    y = 0
    while x:
        y ^= rows[(x & -x).bit_length() - 1]
        x &= x - 1
    return y


@dataclass(frozen=True)
class AffineSolution:
    """Solution set {particular + span(nullspace_basis)} of M x = b."""

    particular: int
    nullspace_basis: tuple[int, ...]

    @property
    def count_exponent(self) -> int:
        return len(self.nullspace_basis)


def solve_affine(rows: Sequence[int], ncols: int, b: int) -> AffineSolution:
    """Solve M x = b for x over GF(2).

    rows: packed rows of M (bit j of rows[i] is M[i][j]), b packed over row
    indices.  The particular solution sets every free variable to zero.
    Raises InconsistentSystem when no solution exists.
    """
    # column j sits at bit j + 1 and b_i at bit 0, so each pivot is still a
    # row's highest column, and a basis row equal to 1 reads 0 = 1
    basis, _ = gf2._echelon([row << 1 | (b >> i) & 1 for i, row in enumerate(rows)])
    if 0 in basis:
        raise gf2.InconsistentSystem("no solution")
    # back-substitute in ascending pivot order: each row then has zeros at
    # every other pivot column (the reduced echelon form)
    reduced: dict[int, int] = {}
    for col, v in sorted(basis.items()):
        for prev, w in reduced.items():
            if (v >> prev) & 1:
                v ^= w
        reduced[col] = v

    particular = sum((v & 1) << (col - 1) for col, v in reduced.items())
    nullspace = tuple(
        1 << (free - 1) | sum(1 << (col - 1) for col, v in reduced.items() if (v >> free) & 1)
        for free in range(1, ncols + 1)
        if free not in reduced
    )
    return AffineSolution(particular, nullspace)


def erasure_decode(params: rmcode.CodeParams, y) -> Union[DecodeResult, Ambiguous]:
    """The message from the unerased coordinates of y, by solve_affine over
    their generator columns."""
    y = np.asarray(y)
    cols = rmcode.generator_columns(params)
    rows = []
    b = 0
    for j in np.flatnonzero(y != channel.ERASURE):
        if y[j]:
            b |= 1 << len(rows)
        rows.append(cols[j])
    sol = solve_affine(rows, params.k, b)
    if sol.nullspace_basis:
        return Ambiguous(sol.count_exponent)
    order = rmcode.monomials(params)
    msg = rmcode.Message(
        params, {order[i]: 1 for i in range(params.k) if (sol.particular >> i) & 1}
    )
    c = rmcode.encode(msg)
    L = np.where(y == channel.ERASURE, 0.0, 1.0 - 2.0 * y)
    return DecodeResult(params, c, msg, soft_metric(c, L))


def bw_decode(m: int, r: int, y) -> DecodeResult:
    """Decode RM(m, m-2r-2) one word at a time: the multipliers' nullspace
    basis, the union of their supports, and erasure_decode on the rest;
    raises Undecodable when erasure filling fails."""
    if r < 0 or m - 2 * r - 2 < 0:
        raise ValueError("need 0 <= r <= m/2 - 1")
    code_c = rmcode.CodeParams(m, m - 2 * r - 2)
    y = hard_rows(code_c.n, np.asarray(y)[None])[0]
    ybits = gf2.pack_bits(y)

    code_e = rmcode.CodeParams(m, r + 1)
    e_rows = rmcode.generator_rows(code_e)
    # a y lies in N iff <g, a y> = sum_j alpha_j <e_j, g y> = 0 for every check g
    system = [mat_vec(e_rows, g & ybits) for g in rmcode.generator_rows(rmcode.CodeParams(m, r))]
    sol = solve_affine(system, len(e_rows), 0)

    # Multiplier words; their common zeros cover the error support.
    support = 0
    for alpha in sol.nullspace_basis:
        support |= vec_mat(e_rows, alpha)
    erased = y.copy()
    erased[gf2.unpack_bits(support, code_c.n) == 0] = channel.ERASURE

    try:
        result = erasure_decode(code_c, erased)
    except gf2.InconsistentSystem:
        raise Undecodable("erased word inconsistent with the code") from None
    if isinstance(result, Ambiguous):
        raise Undecodable(f"2^{result.count_exponent} codewords fit the unerased part")
    return result
