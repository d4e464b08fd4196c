"""Reed-Muller code construction and serialization.

Monomials are subsets A of {1..m}, encoded as bitmasks with bit i-1 for
variable x_i.  Codewords are evaluations of multilinear polynomials over
F_2^m.

Coordinate convention: coordinate j of a length-n word (n = 2^m) holds the
value at the point z whose bits z_1 ... z_m are the binary digits of
n-1-j, z_1 most significant.  Points are therefore enumerated from
(1,...,1) down to (0,...,0).  Equivalently the point of coordinate j is
the integer p = j XOR (n-1), with z_i = bit (m-i) of p.  All direction /
point arguments below use that integer encoding.  A handy consequence:
translating a point by a direction b is coordinate index XOR b.

Every monomial evaluation goes through one array evaluator, evaluations(),
which raises TooLarge past _EVAL_CELLS cells.  The monomial order is
enumerated size by size, so RM(m, r) never lists a degree above r.

is_codeword and message_of_codeword read a word's polynomial by one binary
Moebius transform of the packed word (m shift-and-XOR steps).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import gf2


class DegenerateDual(Exception):
    """The dual of RM(m, m) has no generator (dimension 0)."""


class TooShort(Exception):
    """Word too short to split."""


class TooLarge(Exception):
    """Requested exhaustive computation exceeds the resource guard."""


@dataclass(frozen=True)
class CodeParams:
    """Parameters of RM(m, r)."""

    m: int
    r: int

    def __post_init__(self):
        if not (isinstance(self.m, int) and isinstance(self.r, int)):
            raise ValueError("m and r must be ints")
        if self.m < 1 or not (0 <= self.r <= self.m):
            raise ValueError(f"need m >= 1 and 0 <= r <= m, got ({self.m}, {self.r})")

    @property
    def n(self) -> int:
        return 1 << self.m

    @property
    def k(self) -> int:
        return sum(math.comb(self.m, i) for i in range(self.r + 1))

    @property
    def d(self) -> int:
        return 1 << (self.m - self.r)


def dual_params(params: CodeParams) -> CodeParams:
    if params.r == params.m:
        raise DegenerateDual("RM(m, m) has a zero-dimensional dual")
    return CodeParams(params.m, params.m - params.r - 1)


# Cells (rows x points) one evaluations() call may return: the full-order
# matrix at m = 14, the largest the mc reports build (256 MB of uint8)
_EVAL_CELLS = 1 << 28


@lru_cache(maxsize=None)
def _restricted_order(m: int, r: int) -> tuple[int, ...]:
    # combinations of the bits of x_1 ... x_m come in lexicographic order
    bits = [1 << i for i in range(m)]
    return tuple(sum(c) for size in range(r, -1, -1) for c in combinations(bits, size))


def monomial_order(m: int) -> tuple[int, ...]:
    """All 2^m subset masks: larger sets first, lexicographic within a size."""
    return _restricted_order(m, m)


def monomials(params: CodeParams) -> tuple[int, ...]:
    """Row order of the generator matrix: |A| <= r slice of monomial_order."""
    return _restricted_order(params.m, params.r)


def point_mask(subset, m: int):
    """Subset masks (bit i-1 = x_i) to point masks (bit m-i = z_i), elementwise."""
    i = np.arange(m)
    return ((np.asarray(subset)[..., None] >> i) & 1) @ (1 << (m - 1 - i))


def _check_cells(rows: int, m: int):
    if rows << m > _EVAL_CELLS:
        raise TooLarge(f"{rows} x 2^{m} evaluations pass 2^{_EVAL_CELLS.bit_length() - 1} cells")


def evaluations(m: int, subsets) -> np.ndarray:
    """(len(subsets), n) uint8 rows: x_A(p) for A in subsets, p = n-1-j at
    coordinate j, is 1 iff p lies above point_mask(A).  The high and low
    halves of p's bits are tested apart and joined by one outer AND."""
    subsets = np.asarray(subsets, dtype=np.int64)
    n = 1 << m
    _check_cells(len(subsets), m)
    if (subsets >> m).any():
        raise ValueError("subset mask out of range")
    h = m // 2
    low = (1 << h) - 1
    pm = point_mask(subsets, m)[:, None]
    above_high = (np.arange((n >> h) - 1, -1, -1) & (pm >> h)) == pm >> h
    above_low = (np.arange(low, -1, -1) & (pm & low)) == pm & low
    return (above_high[:, :, None] & above_low[:, None, :]).reshape(len(subsets), n).view(np.uint8)


@lru_cache(maxsize=None)
def eval_monomial_packed(subset: int, m: int) -> int:
    return gf2.pack_bits(evaluations(m, [subset])[0])


def eval_monomial(subset: int, m: int) -> np.ndarray:
    """Evaluation vector of the monomial x_A, A given as a bitmask."""
    return evaluations(m, [subset])[0]


@lru_cache(maxsize=None)
def generator_rows(params: CodeParams) -> tuple[int, ...]:
    return tuple(map(gf2.pack_bits, generator_matrix(params)))


@lru_cache(maxsize=None)
def generator_columns(params: CodeParams) -> tuple[int, ...]:
    """Column j of the generator, packed over monomial indices."""
    return tuple(map(gf2.pack_bits, generator_matrix(params).T))


def generator_matrix(params: CodeParams) -> np.ndarray:
    """k x n generator of RM(m, r), rows in monomial order."""
    return evaluations(params.m, monomials(params))


@lru_cache(maxsize=None)
def rm_full_rows(m: int) -> tuple[int, ...]:
    return tuple(map(gf2.pack_bits, rm_full_matrix(m)))


def rm_full_matrix(m: int) -> np.ndarray:
    """The invertible n x n matrix whose rows are all monomial evaluations."""
    return evaluations(m, monomial_order(m))


@dataclass
class Message:
    """Coefficients u_A of a degree <= r polynomial; missing keys mean 0."""

    params: CodeParams
    coeffs: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for a, v in self.coeffs.items():
            if not isinstance(a, int) or a < 0 or a >> self.params.m:
                raise ValueError(f"bad subset mask {a!r}")
            if a.bit_count() > self.params.r:
                raise ValueError(f"monomial degree {a.bit_count()} exceeds r={self.params.r}")
            if v not in (0, 1):
                raise ValueError("coefficients must be 0 or 1")
            if v:
                clean[a] = 1
        self.coeffs = clean


def encode_packed(msg: Message) -> int:
    word = 0
    for a in msg.coeffs:
        word ^= eval_monomial_packed(a, msg.params.m)
    return word


def encode(msg: Message) -> np.ndarray:
    _check_cells(1, msg.params.m)  # the n-bit word, even where no monomial is evaluated
    return gf2.unpack_bits(encode_packed(msg), msg.params.n)


@lru_cache(maxsize=None)
def _generator_float(params: CodeParams) -> np.ndarray:
    return generator_matrix(params).astype(np.float64)


def encode_rows(params: CodeParams, bits) -> np.ndarray:
    """Codewords of coefficient rows (T, k) in generator row order.

    Row t equals encode(Message) of the message whose coefficient of
    monomials(params)[i] is bits[t, i].  The float64 product is exact: its
    entries are integers of at most k.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] != params.k:
        raise ValueError(f"expected rows of {params.k} coefficients")
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("coefficients must be 0 or 1")
    counts = bits.astype(np.float64) @ _generator_float(params)
    return (counts.astype(np.int64) & 1).astype(np.uint8)


def as_packed(y, n: int) -> int:
    """y, a word of n entries 0 or 1, as an int with bit j = coordinate j."""
    arr = np.asarray(y)
    if arr.shape != (n,):
        raise ValueError(f"expected a length-{n} word")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("word entries must be 0 or 1")
    return gf2.pack_bits(arr)


@lru_cache(maxsize=None)
def _moebius_tables(m: int, r: int):
    # per step (2^h, positions with bit h set); positions of degree > r; monomial per position
    j = np.arange(1 << m)
    steps = tuple((1 << h, gf2.pack_bits((j >> h) & 1)) for h in range(m))
    high = gf2.pack_bits(np.bitwise_count(j) < m - r)
    return steps, high, point_mask(j[::-1], m)


def _coefficient_word(params: CodeParams, y) -> int | None:
    """The binary Moebius transform of y (its own inverse), or None if y is not
    a codeword.  Bit n-1-point_mask(A) of the transform is u_A."""
    steps, high, _ = _moebius_tables(params.m, params.r)
    w = as_packed(y, params.n)
    for shift, mask in steps:
        w ^= (w & mask) >> shift
    return None if w & high else w


def is_codeword(params: CodeParams, y) -> bool:
    """True iff y's polynomial has degree <= r; RM(m, m) accepts every word."""
    return _coefficient_word(params, y) is not None


def message_of_codeword(params: CodeParams, y) -> Message:
    """Recover the unique coefficient vector of a codeword.

    Raises gf2.InconsistentSystem when y is not in the code.
    """
    u = _coefficient_word(params, y)
    if u is None:
        raise gf2.InconsistentSystem(f"word is not in RM({params.m}, {params.r})")
    monomial_at = _moebius_tables(params.m, params.r)[2]
    chosen = monomial_at[np.flatnonzero(gf2.unpack_bits(u, params.n))]
    return Message(params, dict.fromkeys(chosen.tolist(), 1))


def plotkin_split(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split c into (u, v): u the z_m = 0 half, v = u XOR (z_m = 1 half).

    Under the coordinate convention the z_m = 0 points sit at odd
    coordinates, so the halves interleave rather than concatenate.
    """
    c = np.asarray(c, dtype=np.uint8)
    if c.size < 2 or c.size & (c.size - 1):
        raise TooShort("need length 2^m with m >= 1")
    u = c[1::2].copy()
    v = u ^ c[0::2]
    return u, v


def plotkin_join(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Inverse of plotkin_split along the last axis; leading axes are a batch."""
    u = np.asarray(u, dtype=np.uint8)
    v = np.asarray(v, dtype=np.uint8)
    if u.shape != v.shape:
        raise ValueError("halves must have equal length")
    out = np.empty(u.shape[:-1] + (2 * u.shape[-1],), dtype=np.uint8)
    out[..., 1::2] = u
    out[..., 0::2] = u ^ v
    return out


def cosets_of_subspace(subset, m: int) -> np.ndarray:
    """The cosets of V_A = {z : z_i = 0 for i not in A} partitioning F_2^m, as a
    (..., cosets, 2^|A|) array of points: cosets by representative, members
    ascending.  subset is a variable mask or an array of masks of one size."""
    pm = point_mask(subset, m)[..., None]
    points = np.broadcast_to(np.arange(1 << m), pm.shape[:-1] + (1 << m,))
    reps = points[points & pm == 0].reshape(pm.shape[:-1] + (-1,))
    members = points[points & ~pm == 0].reshape(pm.shape[:-1] + (-1,))
    return reps[..., :, None] | members[..., None, :]


# --- serialization ---------------------------------------------------------


def word_to_hex(y) -> str:
    """Hex string; the most significant digit covers coordinates 0..3."""
    arr = np.asarray(y, dtype=np.uint8)
    return np.packbits(arr).tobytes().hex().upper()[: -(-arr.size // 4)]


def word_from_hex(s: str, n: int) -> np.ndarray:
    s = s.strip()
    if not re.fullmatch(r"[0-9a-fA-F]+", s or ""):
        raise ValueError(f"not a hex word: {s!r}")
    bits = np.unpackbits(np.frombuffer(bytes.fromhex(s + "0" * (len(s) % 2)), dtype=np.uint8))
    if 4 * len(s) < n or bits[n:].any():
        raise ValueError(f"hex word {s!r} does not fit length {n}")
    return bits[:n]


def monomial_name(subset: int) -> str:
    if subset == 0:
        return "1"
    return "".join(f"x{i + 1}" for i in range(subset.bit_length()) if (subset >> i) & 1)


def parse_monomial_key(key: str, m: int) -> int:
    """Accept either a decimal subset mask or a symbolic name like x1x3."""
    key = key.strip()
    if re.fullmatch(r"\d+", key):
        mask = int(key)  # canonical bitmask form; "0" is the constant term
    elif re.fullmatch(r"(x\d+)+", key):
        mask = 0
        for i in re.findall(r"x(\d+)", key):
            idx = int(i)
            if not (1 <= idx <= m):
                raise ValueError(f"variable x{idx} out of range for m={m}")
            mask |= 1 << (idx - 1)
    else:
        raise ValueError(f"bad monomial key {key!r}")
    if mask >> m:
        raise ValueError(f"subset mask {mask} out of range for m={m}")
    return mask


def message_to_json(msg: Message) -> str:
    items = sorted(msg.coeffs)
    return json.dumps({str(a): 1 for a in items})


def message_from_json(params: CodeParams, text) -> Message:
    data = json.loads(text) if isinstance(text, str) else text
    if not isinstance(data, dict):
        raise ValueError("message JSON must be an object")
    coeffs: dict[int, int] = {}
    for key, val in data.items():
        mask = parse_monomial_key(str(key), params.m)
        if val not in (0, 1):
            raise ValueError(f"coefficient for {key!r} must be 0 or 1")
        if val:
            coeffs[mask] = 1
    return Message(params, coeffs)
