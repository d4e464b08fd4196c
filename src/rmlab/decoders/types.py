"""Shared result types, input checks, scoring and result packaging for
decoders; result_for reads messages by rmcode.message_of_codeword, the
encoder's Moebius transform, which is its own inverse."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import gf2, rmcode


class Undecodable(Exception):
    """Decoder could not produce a unique codeword."""


@dataclass(frozen=True)
class Ambiguous:
    """Erasure decoding hit a solution space of size 2^count_exponent > 1."""

    count_exponent: int


@dataclass
class DecodeResult:
    params: rmcode.CodeParams
    codeword: np.ndarray
    message: Optional[rmcode.Message]
    metric: float


def soft_metric(codeword, L) -> float:
    """(1/2) sum_z (-1)^{c_z} L_z; the shared ML comparison score."""
    c = np.asarray(codeword, dtype=np.float64)
    return 0.5 * float(np.dot(1.0 - 2.0 * c, np.asarray(L, dtype=np.float64)))


def llr_word(params: rmcode.CodeParams, L) -> np.ndarray:
    """L as a float64 vector of n LLRs; raises ValueError for another shape."""
    L = np.asarray(L, dtype=np.float64)
    if L.shape != (params.n,):
        raise ValueError(f"expected {params.n} LLRs")
    return L


def block_rows(n: int, words, dtype) -> np.ndarray:
    """words as a (T, n) array of dtype; raises ValueError for another shape."""
    words = np.asarray(words, dtype=dtype)
    if words.ndim != 2 or words.shape[1] != n:
        raise ValueError(f"expected rows of {n} values")
    return words


def hard_rows(n: int, words) -> np.ndarray:
    """words as a (T, n) uint8 array; raises ValueError for another shape
    or unless every entry is 0 or 1."""
    words = block_rows(n, words, None)
    if not ((words == 0) | (words == 1)).all():
        raise ValueError("hard word expected")
    return words.astype(np.uint8, copy=False)


def hard_input_llr(y) -> np.ndarray:
    """+/-1 image of a hard word, used to score hard-input decoders."""
    return 1.0 - 2.0 * np.asarray(y, dtype=np.float64)


def result_for(params: rmcode.CodeParams, codeword: np.ndarray, L) -> DecodeResult:
    """Package a decoded word, with its message when it is a codeword."""
    try:
        msg = rmcode.message_of_codeword(params, codeword)
    except gf2.InconsistentSystem:
        msg = None
    return DecodeResult(params, np.asarray(codeword, dtype=np.uint8), msg, soft_metric(codeword, L))
