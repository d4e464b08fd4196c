"""Decoders for Reed-Muller codes.

Every decoder is a pure function.  Hard-input decoders take uint8 words,
soft-input decoders take LLR vectors (positive = 0 more likely).  Each
family has one kernel, a `*_codewords` function that decodes a (T, n)
block at once and returns the (T, n) words and nothing else (a row that
bw_codewords could not decode keeps its hard word, outside the code); the
harness binds them, and a single word decodes as a block of one,
reed_codewords(params, y[None])[0].  types.result_for
packages a word as a DecodeResult: its message when it is a codeword, and
its metric, the soft score (1/2) * sum_z (-1)^{c_z} L_z against the
decoder's input (hard inputs are scored against their +/-1 image), so
maximum-likelihood decoders can be compared on exact metric equality.
"""

from ..rmcode import TooLarge
from .types import Ambiguous, DecodeResult, Undecodable, soft_metric
from .fht import fht
from .reed import reed_codewords
from .oracle import ML_MAX_K, erasure_decode, ml_codewords
from .dumer import dumer_codewords, dumer_list_codewords
from .sakkour import sakkour_codewords
from .rpa import (
    CHASE_MAX_T,
    chase_codewords,
    rpa_bsc_codewords,
    rpa_decode_bsc,
    rpa_decode_llr,
    rpa_llr_codewords,
)
from .bw import bw_codewords

__all__ = [
    "Ambiguous",
    "DecodeResult",
    "TooLarge",
    "Undecodable",
    "soft_metric",
    "fht",
    "reed_codewords",
    "ML_MAX_K",
    "erasure_decode",
    "ml_codewords",
    "dumer_codewords",
    "dumer_list_codewords",
    "sakkour_codewords",
    "CHASE_MAX_T",
    "chase_codewords",
    "rpa_bsc_codewords",
    "rpa_decode_bsc",
    "rpa_decode_llr",
    "rpa_llr_codewords",
    "bw_codewords",
]
