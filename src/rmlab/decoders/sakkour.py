"""Second-order decoding via decoded directional derivatives.

For every direction b the derivative word (y_{z+b} + y_z over z) is a
noisy first-order codeword whose linear part is bU, U the symmetric matrix
of degree-2 coefficients.  Each derivative is FHT-decoded, the estimates
are cleaned by a coordinatewise majority over the difference identities
D_{b+b'} + D_{b'}, and per-column FHT decoding recovers U.  Subtracting
the degree-2 evaluation leaves a first-order word for a final FHT pass.

Under the coordinate convention translating points by b is plain index
XOR, so derivative words never need explicit reindexing.
"""

from __future__ import annotations

import numpy as np

from .. import rmcode
# fht is unused here: bench/replay.py's --trace patches decoders.sakkour.fht
from .fht import fht, linear_coeffs, transform_peak  # noqa: F401
from .types import DecodeResult, hard_input_llr, soft_metric


def _majority(D: np.ndarray, xor: np.ndarray) -> np.ndarray:
    """Coordinatewise majority of D_{b+b'} + D_{b'} over all b', per b.

    Row b of xor holds J ^ b.  Ties pick the lexicographically smallest
    vector (= smallest packed int): argmax returns the first maximal count.
    """
    n = D.size
    votes = D[xor] ^ D[None, :]  # (b, b'), values in [0, n)
    counts = np.bincount((votes + n * np.arange(n)[:, None]).ravel(), minlength=n * n)
    return np.argmax(counts.reshape(n, n), axis=1).astype(np.int64)


def sakkour_decode_order2(m: int, y) -> DecodeResult:
    if m < 2:
        raise ValueError("order-2 decoding needs m >= 2")
    params = rmcode.CodeParams(m, 2)
    n = params.n
    y = np.asarray(y, dtype=np.uint8)
    if y.shape != (n,):
        raise ValueError(f"expected a length-{n} word")
    J = np.arange(n)

    # derivative words, one row per direction; b = 0 decodes to zero harmlessly
    xor = J[:, None] ^ J[None, :]
    D = transform_peak(1.0 - 2.0 * (y[None, :] ^ y[xor]))[1]
    Dstar = _majority(D, xor)

    # column i of U from the word of i-th coordinates of D*_b over b;
    # writes to u_{ij} from a later column win
    col_words = np.empty((m, n), dtype=np.float64)
    for i in range(1, m + 1):
        col_words[i - 1] = 1.0 - 2.0 * ((Dstar[J ^ (n - 1)] >> (m - i)) & 1)
    col_u = transform_peak(col_words)[1]
    quad: dict[int, int] = {}
    for i in range(1, m + 1):
        u = int(col_u[i - 1])
        for j in range(1, m + 1):
            if j != i:
                quad[(1 << (i - 1)) | (1 << (j - 1))] = (u >> (m - j)) & 1

    deg2 = rmcode.Message(params, {a: v for a, v in quad.items() if v})
    resid = y ^ rmcode.encode(deg2)
    lin_spec, u = transform_peak(1.0 - 2.0 * resid)
    u = int(u)
    msg = rmcode.Message(params, deg2.coeffs | linear_coeffs(m, u, 1 if lin_spec[u] < 0 else 0))
    c = rmcode.encode(msg)
    return DecodeResult(params, c, msg, soft_metric(c, hard_input_llr(y)))
