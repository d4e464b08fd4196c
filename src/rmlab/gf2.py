"""Bit-packed linear algebra over GF(2).

Binary words are Python ints with bit j holding coordinate j (LSB first).
A matrix is a sequence of such ints, one per row.  _echelon serves rank
and span membership; packed ints keep it fast enough for pattern
enumeration.  eliminate reduces blocks of systems, one per trial, packed
into uint64 words, for the erasure solve and the bw decoder.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class InconsistentSystem(Exception):
    """Affine system M x = b has no solution."""


def pack_bits(bits: Iterable[int]) -> int:
    """Pack 0/1 entries into an int, index 0 -> bit 0."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d bit vector")
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def unpack_bits(word: int, n: int) -> np.ndarray:
    """Inverse of pack_bits, returning a length-n uint8 array."""
    if word < 0:
        raise ValueError("negative word")
    nbytes = max(1, (n + 7) // 8)
    buf = word.to_bytes(nbytes, "little")
    return np.unpackbits(np.frombuffer(buf, dtype=np.uint8), bitorder="little")[:n].copy()


def pack_rows(bits) -> np.ndarray:
    """Rows of 0/1 entries (..., R, c) packed as eliminate reads them:
    (..., words, R) uint64, entry j of a row at bit j % 64 of word j // 64."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), axis=-1, bitorder="little")
    words = np.zeros((*packed.shape[:-1], -(-packed.shape[-1] // 8) * 8), np.uint8)
    words[..., :packed.shape[-1]] = packed
    return np.ascontiguousarray(np.swapaxes(words.view("<u8"), -1, -2))


def _echelon(rows: Sequence[int]) -> tuple[dict[int, int], list[int]]:
    """Leading-bit-indexed basis of the row space, and the indices of the
    rows that reduced to zero (each lies in the span of the rows before it)."""
    basis: dict[int, int] = {}
    dependent: list[int] = []
    for i, v in enumerate(rows):
        while v:
            b = v.bit_length() - 1
            if b in basis:
                v ^= basis[b]
            else:
                basis[b] = v
                break
        else:
            dependent.append(i)
    return basis, dependent


def rank(rows: Sequence[int]) -> int:
    return len(_echelon(rows)[0])


def in_span(rows: Sequence[int], v: int) -> bool:
    """True iff v lies in the row space of rows: v, put last, reduces to 0."""
    return len(rows) in _echelon([*rows, v])[1]


def eliminate(rows: np.ndarray, top: int, pivots: int) -> np.ndarray:
    """Gauss-Jordan elimination, in place, of each trial's rows (T, words, R)
    packed by pack_rows.  For c from top - 1 down to 0, the first of the first
    `pivots` rows that is not yet a pivot and has bit c set becomes c's pivot
    and is XORed into every other row with bit c set (later rows are only
    reduced).  As in _echelon each pivot is its row's highest bit, so pivot
    columns, reduced rows, rank and solutions are the row space's own.
    Returns (T, top): each column's pivot row, -1 where it has none."""
    T = rows.shape[0]
    pivot_of = np.full((T, top), -1, np.intp)
    taken = np.zeros((T, pivots), bool)
    trial = np.arange(T)
    for c in range(top - 1, -1, -1):
        w, b = divmod(c, 64)
        bit = (rows[:, w] >> np.uint64(b)) & np.uint64(1)
        free = (bit[:, :pivots] != 0) & ~taken
        p = free.argmax(axis=1)
        found = free[trial, p]
        taken[trial, p] |= found
        pivot_of[found, c] = p[found]
        bit[trial, p] = 0
        bit *= found[:, None]
        # the pivot's highest bit is c: words above w keep their bits
        rows[:, :w + 1] ^= rows[trial, :w + 1, p][:, :, None] * bit[:, None, :]
    return pivot_of
