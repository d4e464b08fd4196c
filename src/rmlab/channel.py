"""Binary-input memoryless channels and log-likelihood ratios.

Randomness contract: every transmit call builds a fresh counter-based
Philox generator from the 128-bit key given as `seed`, so output is a pure
function of (codeword, channel, seed).  Substreams for independent trials
are derived by the harness as disjoint key values.  The uniform stream is
numpy's documented Philox4x64-10 double generation (top 53 bits / 2^53);
Gaussians come from the inverse normal CDF applied to that stream, which
keeps the byte stream identical across platforms.  The harness draws a
block's message bits and uniforms in one pass of a vectorized Philox4x64-10
kernel (philox_draws) whose rows equal numpy's draws bit for bit.

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


# Philox4x64-10 (Salmon et al., SC'11) as numpy implements it: the limb mask and shift, the
# round multipliers and their 32-bit limbs, the Weyl key increments, as 0-d arrays (a small op
# is up to 2x slower with an np.uint64 operand).
_LO32, _BITS32, *_PHILOX_M, _W0, _W1 = (np.array(x, dtype=np.uint64) for x in (
    0xFFFFFFFF, 32, 0xD2E7470EE14C6C93, 0xCA5A826395121157, 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B))
_LIMBS = [(np.array(m & _LO32), np.array(m >> _BITS32)) for m in _PHILOX_M]


def _mulhilo(a: int, b):
    """Low and high words of _PHILOX_M[a] * b; uint64 arrays wrap mod 2^64."""
    (a0, a1), b0, b1 = _LIMBS[a], b & _LO32, b >> _BITS32
    mid = a0 * b0
    mid >>= _BITS32
    mid += a1 * b0
    hi = mid & _LO32
    hi += a0 * b1
    hi >>= _BITS32
    mid >>= _BITS32
    hi += mid
    hi += a1 * b1
    return _PHILOX_M[a] * b, hi


def _philox_lanes(k0: np.ndarray, k1: np.ndarray, ctr: np.ndarray) -> np.ndarray:
    """(L, 4) uint64: row j is numpy's Philox block for key k1[j] << 64 | k0[j]
    and counter (ctr[j], 0, 0, 0).  Advances the 1-d uint64 lanes k0, k1 in place."""
    c0, c1, c2, c3 = ctr, np.uint64(0), np.uint64(0), np.uint64(0)
    for _ in range(10):
        lo0, hi0 = _mulhilo(0, c0)
        lo1, hi1 = _mulhilo(1, c2)
        hi1 ^= c1
        hi1 ^= k0
        hi0 ^= c3
        hi0 ^= k1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
        k0 += _W0
        k1 += _W1
    return np.stack((c0, c1, c2, c3), axis=-1)


def philox_draws(bit_keys, u_keys, k: int, n: int):
    """Bits (T, k) int64, row i equal to Generator(Philox(bit key i)).integers(0, 2, size=k),
    and u (T, n) float64, row i equal to Generator(Philox(u key i)).random(n), from one
    kernel pass.  Each keys argument is a (lo, hi) pair of (T,) uint64 arrays."""
    T, nb, nu = len(bit_keys[0]), -(-k // 8), -(-n // 4)
    # a lane is one (key, counter) pair, counter-major; numpy's counters start at 1
    k0, k1 = (np.concatenate([b] * nb + [u] * nu) for b, u in zip(bit_keys, u_keys))
    ctr = np.repeat(np.concatenate([np.arange(1, c + 1, dtype=np.uint64) for c in (nb, nu)]), T)
    words = _philox_lanes(k0, k1, ctr)
    # integers(0, 2) is Lemire's: bit 31 of each uint32, low half first
    halves = words[: nb * T].astype("<u8", copy=False).view("<u4").reshape(nb, T, 8) >> np.uint32(31)
    bits = halves.transpose(1, 0, 2).reshape(T, 8 * nb)[:, :k].astype(np.int64)
    u = words[nb * T:].reshape(nu, T, 4).transpose(1, 0, 2).reshape(T, 4 * nu)[:, :n] >> np.uint64(11)
    return bits, u * 2.0**-53


def transmit(codeword, spec: ChannelSpec, seed: int) -> ChannelOutput:
    """Send a binary word through the channel; pure in (codeword, spec, seed)."""
    c = np.asarray(codeword)
    if c.ndim != 1 or not ((c == 0) | (c == 1)).all():
        raise ValueError("codeword must be a 1-d 0/1 array")
    return apply_noise(c.astype(np.uint8), _rng(seed).random(c.size), spec)


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
    scalar = a.ndim == 0 and b.ndim == 0
    if scalar:  # so that the ufuncs return arrays to write into
        a, b = a.reshape(1), b.reshape(1)
    # max(s, 0) - max(a, b) + log1p(exp(-|s|)) - log1p(exp(-|a - b|)) with
    # s = a + b, left to right, in the result and one scratch buffer w; s is
    # computed twice rather than kept in a third buffer
    out = a + b
    np.maximum(out, 0.0, out=out)
    w = np.maximum(a, b)
    out -= w
    out += _log1p_exp_neg_abs(np.add(a, b, out=w))
    out -= _log1p_exp_neg_abs(np.subtract(a, b, out=w))
    return float(out[0]) if scalar else out


def _log1p_exp_neg_abs(x: np.ndarray) -> np.ndarray:
    """log1p(exp(-|x|)), overwriting x."""
    np.abs(x, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    return np.log1p(x, out=x)


def hard_decision(L) -> np.ndarray:
    """Sign-quantize LLRs; exact zero maps to bit 0."""
    return (np.asarray(L, dtype=np.float64) < 0).astype(np.uint8)
