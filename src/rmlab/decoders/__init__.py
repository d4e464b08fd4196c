"""Decoders for Reed-Muller codes.

Every decoder is a pure function.  Hard-input decoders take uint8 words,
soft-input decoders take LLR vectors (positive = 0 more likely).  Where a
decoder returns a DecodeResult, result.metric is the soft score
(1/2) * sum_z (-1)^{c_z} L_z computed against the decoder's input (hard
inputs are scored against their +/-1 image), so maximum-likelihood
decoders can be compared on exact metric equality.  Each family but bw
has one kernel, a `*_codewords` function that decodes a (T, n) block at
once and returns the words alone; the simulation harness binds them, and
the public single-word decoders run them on a block of one.  bw_decode
is per word only: it raises Undecodable.
"""

from ..rmcode import TooLarge
from .types import Ambiguous, DecodeResult, Undecodable, soft_metric
from .fht import fht, fht_decode_order1, fht_list_decode_order1
from .reed import reed_codewords, reed_decode
from .oracle import erasure_decode, ml_codewords, ml_decode
from .dumer import (
    dumer_codewords,
    dumer_decode,
    dumer_list_codewords,
    dumer_list_decode,
)
from .sakkour import sakkour_codewords, sakkour_decode_order2
from .rpa import (
    CHASE_MAX_T,
    chase_codewords,
    chase_list,
    rpa_bsc_codewords,
    rpa_decode_bsc,
    rpa_decode_llr,
    rpa_llr_codewords,
)
from .bw import bw_decode

__all__ = [
    "Ambiguous",
    "DecodeResult",
    "TooLarge",
    "Undecodable",
    "soft_metric",
    "fht",
    "fht_decode_order1",
    "fht_list_decode_order1",
    "reed_codewords",
    "reed_decode",
    "erasure_decode",
    "ml_codewords",
    "ml_decode",
    "dumer_codewords",
    "dumer_decode",
    "dumer_list_codewords",
    "dumer_list_decode",
    "sakkour_codewords",
    "sakkour_decode_order2",
    "CHASE_MAX_T",
    "chase_codewords",
    "chase_list",
    "rpa_bsc_codewords",
    "rpa_decode_bsc",
    "rpa_decode_llr",
    "rpa_llr_codewords",
    "bw_decode",
]
