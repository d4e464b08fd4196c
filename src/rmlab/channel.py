"""Binary-input memoryless channels and log-likelihood ratios.

Randomness contract: every transmit call builds a fresh counter-based
Philox generator from the 128-bit key given as `seed`, so output is a pure
function of (codeword, channel, seed).  Substreams for independent trials
are derived by the harness as disjoint key values.  The uniform stream is
numpy's documented Philox4x64-10 double generation (top 53 bits / 2^53);
Gaussians come from the inverse normal CDF applied to that stream, which
keeps the byte stream identical across platforms.

A block of keyed streams is drawn at once by one vectorized Philox4x64-10
kernel (philox_words, with philox_uniforms and philox_bits on top).  Row i
of its output equals, bit for bit, what numpy's own
Generator(Philox(key_i)) gives for .random(n) and .integers(0, 2, size=k),
so the harness's blocks and transmit's single words draw the same numbers.

LLR sign convention: positive means "0 more likely".  All LLRs are
saturated to +/- LLR_SATURATION = 40, and tests must not depend on
distinctions beyond that magnitude.

BEC outputs use the symbol ERASURE (= 2) inside uint8 words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LLR_SATURATION = 40.0
ERASURE = 2

_KINDS = ("bsc", "bec", "awgn")


@dataclass(frozen=True)
class ChannelSpec:
    """Channel family plus its single parameter.

    bsc: crossover probability, bec: erasure probability, awgn: noise
    standard deviation sigma for unit-energy BPSK (0 -> +1, 1 -> -1).
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        p = self.param
        if not math.isfinite(p):
            raise ValueError(f"{self.kind} parameter must be finite")
        if self.kind in ("bsc", "bec"):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{self.kind} parameter must be in [0, 1]")
        elif p <= 0.0:
            raise ValueError("awgn sigma must be positive")

    @classmethod
    def parse(cls, text: str) -> "ChannelSpec":
        try:
            kind, _, param = text.partition(":")
            return cls(kind.strip(), float(param))
        except ValueError as e:
            raise ValueError(f"bad channel spec {text!r}: {e}") from None

    def __str__(self) -> str:
        return f"{self.kind}:{self.param:g}"


@dataclass(frozen=True)
class ChannelOutput:
    kind: str
    data: np.ndarray


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & ((1 << 128) - 1)))


# Philox4x64-10 (Salmon et al., SC'11) as numpy implements it: the round
# multipliers, the Weyl key increments, and the low-32-bit limb mask
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LO32 = np.uint64(0xFFFFFFFF)
_BITS32 = np.uint64(32)


def _mulhilo(a: np.uint64, b: np.ndarray):
    """Low and high 64-bit words of the 128-bit product a * b, the high
    word from 32-bit limbs; uint64 array products wrap mod 2^64."""
    a0, a1 = a & _LO32, a >> _BITS32
    b0, b1 = b & _LO32, b >> _BITS32
    t = a0 * b0
    mid1 = a1 * b0 + (t >> _BITS32)
    mid2 = a0 * b1 + (mid1 & _LO32)
    return a * b, a1 * b1 + (mid1 >> _BITS32) + (mid2 >> _BITS32)


def philox_words(key_lo, key_hi, count: int) -> np.ndarray:
    """(T, count) uint64: row i is the first `count` outputs of numpy's
    Philox(key=key_hi[i] << 64 | key_lo[i]).  key_lo and key_hi broadcast
    to a common 1-d shape (T,) of uint64 words."""
    k0, k1 = (np.asarray(k, dtype=np.uint64)[:, None] for k in np.broadcast_arrays(key_lo, key_hi))
    blocks = -(-count // 4)
    # counters (j, 0, 0, 0) for j = 1, 2, ...: numpy bumps the counter before
    # its first block.  Broadcasting against the keys makes every word (T, blocks).
    zero = np.uint64(0)
    c0, c1, c2, c3 = np.arange(1, blocks + 1, dtype=np.uint64), zero, zero, zero
    for rnd in range(10):
        if rnd:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(k0.shape[0], 4 * blocks)[:, :count]


def philox_uniforms(key_lo, key_hi, n: int) -> np.ndarray:
    """(T, n) float64, row i equal to Generator(Philox(key_i)).random(n)."""
    return (philox_words(key_lo, key_hi, n) >> np.uint64(11)) * 2.0**-53


def philox_bits(key_lo, key_hi, k: int) -> np.ndarray:
    """(T, k) int64, row i equal to Generator(Philox(key_i)).integers(0, 2, size=k):
    Lemire's method with range 2 takes bit 31 of each uint32, low half first."""
    x = philox_words(key_lo, key_hi, -(-k // 2))
    halves = np.stack(((x >> np.uint64(31)) & np.uint64(1), x >> np.uint64(63)), axis=-1)
    return halves.reshape(x.shape[0], -1)[:, :k].astype(np.int64)


def transmit(codeword, spec: ChannelSpec, seed: int) -> ChannelOutput:
    """Send a binary word through the channel; pure in (codeword, spec, seed)."""
    c = np.asarray(codeword, dtype=np.uint8)
    if c.ndim != 1 or not np.isin(c, (0, 1)).all():
        raise ValueError("codeword must be a 1-d 0/1 array")
    return apply_noise(c, _rng(seed).random(c.size), spec)


def apply_noise(c: np.ndarray, u: np.ndarray, spec: ChannelSpec) -> ChannelOutput:
    """Channel output for 0/1 words c (uint8) given uniforms u in [0, 1).

    c and u have the same shape; leading axes are batch axes, so a block
    of words sees exactly the noise transmit gives each word alone.
    """
    if spec.kind == "bsc":
        return ChannelOutput("bsc", (c ^ (u < spec.param)).astype(np.uint8))
    if spec.kind == "bec":
        out = c.copy()
        out[u < spec.param] = ERASURE
        return ChannelOutput("bec", out)
    from scipy.special import ndtri  # imported here: it takes about 0.2 s, and only AWGN needs it

    x = 1.0 - 2.0 * c.astype(np.float64)
    g = ndtri(np.clip(u, 1e-300, None))
    return ChannelOutput("awgn", x + spec.param * g)


def llr(out: ChannelOutput, spec: ChannelSpec) -> np.ndarray:
    """Per-coordinate LLR ln(P[y|0]/P[y|1]), saturated to +/- 40.

    Works on outputs of any shape, such as a block from apply_noise.
    """
    if out.kind != spec.kind:
        raise ValueError(f"output kind {out.kind!r} does not match spec {spec.kind!r}")
    S = LLR_SATURATION
    if spec.kind == "bsc":
        p = spec.param
        if p <= 0.0:
            mag = S
        elif p >= 1.0:
            mag = -S
        else:
            mag = min(max(math.log((1.0 - p) / p), -S), S)
        return np.where(out.data == 0, mag, -mag).astype(np.float64)
    if spec.kind == "bec":
        vals = np.zeros(out.data.shape, dtype=np.float64)
        vals[out.data == 0] = S
        vals[out.data == 1] = -S
        return vals
    return np.clip(2.0 * out.data / (spec.param ** 2), -S, S)


def llr_of_sum(l1, l2):
    """LLR of the XOR of two bits with independent LLRs l1 and l2.

    Numerically stable evaluation of
    ln(e^{l1+l2} + 1) - ln(e^{l1} + e^{l2}); the magnitude never exceeds
    min(|l1|, |l2|).  Works elementwise on arrays.
    """
    a = np.asarray(l1, dtype=np.float64)
    b = np.asarray(l2, dtype=np.float64)
    s = a + b
    out = (
        np.maximum(s, 0.0)
        - np.maximum(a, b)
        + np.log1p(np.exp(-np.abs(s)))
        - np.log1p(np.exp(-np.abs(a - b)))
    )
    if np.ndim(l1) == 0 and np.ndim(l2) == 0:
        return float(out)
    return out


def hard_decision(L) -> np.ndarray:
    """Sign-quantize LLRs; exact zero maps to bit 0."""
    return (np.asarray(L, dtype=np.float64) < 0).astype(np.uint8)
