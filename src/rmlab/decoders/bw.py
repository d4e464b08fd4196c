"""Error location by multiplier words, then erasure filling.

Decodes C = RM(m, m-2r-2) from a hard word y = c + e.  Every multiplier
a in E = RM(m, r+1) with a*y in N = RM(m, m-r-1) must vanish on any error
support that N could correct from erasures (E*C is contained in N, so
a*y in N forces a*e in N, and a correctable support admits no nonzero
N-word living on it).  The common zero set of all such multipliers
therefore covers the error support; erasing it reduces decoding in C to
plain erasure filling.

Membership of a*y in N is imposed through the dual checks of N, which
are spanned by the degree-r generator rows, turning step 1 into one
homogeneous F2 system over the E-coefficients.
"""

from __future__ import annotations

from .. import gf2, rmcode
from ..channel import ERASURE
from .oracle import erasure_decode
from .types import Ambiguous, DecodeResult, Undecodable, hard_word


def bw_decode(m: int, r: int, y) -> DecodeResult:
    """Decode RM(m, m-2r-2); raises Undecodable when erasure filling fails."""
    if r < 0 or m - 2 * r - 2 < 0:
        raise ValueError("need 0 <= r <= m/2 - 1")
    code_c = rmcode.CodeParams(m, m - 2 * r - 2)
    y = hard_word(code_c, y)
    ybits = gf2.pack_bits(y)

    code_e = rmcode.CodeParams(m, r + 1)
    e_rows = rmcode.generator_rows(code_e)
    # a y lies in N iff <g, a y> = sum_j alpha_j <e_j, g y> = 0 for every check g
    system = [gf2.mat_vec(e_rows, g & ybits) for g in rmcode.generator_rows(rmcode.CodeParams(m, r))]
    sol = gf2.solve_affine(system, len(e_rows), 0)

    # Multiplier words; their common zeros cover the error support.
    support = 0
    for alpha in sol.nullspace_basis:
        support |= gf2.vec_mat(e_rows, alpha)
    erased = y.copy()
    erased[gf2.unpack_bits(support, code_c.n) == 0] = ERASURE

    try:
        result = erasure_decode(code_c, erased)
    except gf2.InconsistentSystem:
        raise Undecodable("erased word inconsistent with the code") from None
    if isinstance(result, Ambiguous):
        raise Undecodable(f"2^{result.count_exponent} codewords fit the unerased part")
    return result
