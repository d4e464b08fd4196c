"""Reference copies of structure-layer code that src/rmlab no longer has.

rmlab evaluates monomials over a point array in one place
(rmcode.evaluations) and enumerates the monomial order by size and
itertools.combinations.  This module keeps the per-point loops and the
sort they replaced, as they were, so the tests can check the array forms
against them, and the GF(2) and coset helpers that only tests call.
"""

from functools import lru_cache
from itertools import combinations

import numpy as np

from rmlab import gf2


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


def moebius_tables(m: int, r: int):
    j = np.arange(1 << m)
    steps = tuple((1 << h, gf2.pack_bits((j >> h) & 1)) for h in range(m))
    high = gf2.pack_bits(np.bitwise_count(j) < m - r)
    return steps, high, np.array([point_mask(p, m) for p in j[::-1]])


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
