"""Bit-packed linear algebra over GF(2).

Binary words are Python ints with bit j holding coordinate j (LSB first).
A matrix is a sequence of such ints, one per row, with an explicit column
count where the operation needs it.  mat_vec is M x and vec_mat x^T M.
One elimination, _echelon, serves rank, span membership and affine
solves; packed ints keep it fast enough for pattern enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    basis, _ = _echelon([row << 1 | (b >> i) & 1 for i, row in enumerate(rows)])
    if 0 in basis:
        raise InconsistentSystem("no solution")
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
