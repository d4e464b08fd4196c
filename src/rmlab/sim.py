"""Monte-Carlo error-rate harness.

Every trial draws its message and channel noise from Philox substreams
keyed by (seed, sweep point, trial, purpose), so results are a pure
function of the config and identical under any execution order or worker
count.  The sweep's trials run as one range of rows, point after point,
in blocks of T = BLOCK_CELLS // n rows that may span consecutive points of
one channel kind: each block draws its rows' message bits and uniforms in
one Philox kernel call, encodes them in one product, applies each point's
channel to its rows, decodes them in one kernel call and counts errors
with array operations.  Only the rows outside the kernel's reach get
decoded; a row inside it counts zero errors, and a block with none
outside calls no kernel.

One table, REACH, gives per decoder name the least distance w from the
sent codeword c at which a sign-quantized row reaches the kernel:
ceil(d/2), d = 2^(m-r) the code's minimum distance, for reed, sakkour,
rpa (hard and soft), ml, fht and rpa-chase, and 1 for bw, dumer and
dumer-list.  A row is sign-quantized when it is a hard word, or a soft
row whose |L_z| all equal one M > 0 (every BSC row); w is the distance
from the word, or from the row's hard decision L < 0, to c.  Any other
soft row skips only at w = 0.  A soft row also keeps a floor
(_clean_rows): g, the r-fold self-composition of channel.llr_of_sum,
must exceed n * CLEAN_FLOOR = n 2^-40, folded from the row's smallest |L|
when w = 0 and from M/2 when a one-magnitude row has w >= 1.  This rests
on one contract: every kernel returns c for every row inside its reach.

- Hard input, for every error of weight w with 2 w < d:
  - reed: the reed docstring states the guarantee, and
    test_reed_corrects_every_error_below_half_the_distance checks it.
  - First-order FHT decoding (rpa at r = 1, and inside sakkour and rpa):
    every affine word but c and its complement differs from c in n/2 = d
    places, so its |correlation| with y is at most 2 w, below c's
    n - 2 w: the peak is unique, and its sign picks c.
  - sakkour (d = n/4): a derivative y(z + b) + y(z) has at most 2 w flips,
    and first-order decoding corrects fewer than n/4, so every D_b is
    right while w < n/8 = d/2.  The vote, a plurality over whole m-bit
    vectors D_{b+b'} + D_{b'}, is then unanimous and U exact, and the
    final first-order pass sees w < n/4 flips.
  - rpa, by induction on r from the first-order case: a projection
    y_z + y_{z+b} has at most w flips over n/2 points, and RM(m-1, r-1)
    has the same d, so every projection decodes to c's.  Coordinate z's
    n - 1 votes c_z + e_{z+b} are wrong at most w < (n - 1)/2 times, so
    round 1 returns c and round 2 is a fixed point.
  - bw meets it only at w = 0, where it erases nothing; it is not
    bounded-distance (at RM(6,2), where d/2 = 8, 9 of 400 random
    weight-4 errors failed).
- Soft input at w = 0 (every L_z has the sign of 1 - 2 c_z), at the
  floor folded from min|L|:
  - ml: the hard decision is c, Reed's decoder returns it, so D is empty
    and the distance certificate holds (the oracle docstring); without it
    the exact search would still return c, whose correlation beats every
    other codeword's by at least 2 d min|L|.
  - fht: every butterfly value of a +-|L| affine word is exact at equal
    magnitudes.  Otherwise the peak beats every other |correlation| by
    n min|L|, far above the transform's rounding, at most about
    2 m u sum|L| <= m n 2^-46 with u = 2^-53 and |L| <= 40.
  - dumer and rpa: by induction each subproblem gets a clean input and
    returns its codeword.  Every llr_of_sum of the halves (Dumer's v part,
    RPA's projections) has the sign of the sum's bit; every Plotkin sum
    L0 + (1 - 2v) L1 and every aggregation average adds terms of one
    sign.  So signs hold, sums and averages keep the smallest |L| (up to a
    relative n u), and along any path to a first-order leaf r - 1
    llr_of_sum steps take it no lower than g, up to an absolute error of
    a few ulp of the largest input, at most 40 n / 2, per step.  The
    leaf's FHT, of length n' >= 2, has a peak gap of at least n' g against
    the same rounding bound (Plotkin sums keep sum|L| <= 40 n), so it needs
    g > m n 2^-47.  Near p = 1/2 llr_of_sum(mag, mag) ~ mag^2/2 is lost to
    rounding and g reaches 0: that is where Dumer and RPA move a clean
    codeword, and the floor keeps such rows decoded.
  - rpa-chase: its unperturbed word w0 is rpa's, c, a codeword equal to the
    hard decision, so the trial settles on c.
  - dumer-list: in exact arithmetic a partial penalty is the negative
    log-likelihood of the decided prefix, so on a clean row the sent path
    is strictly best at every prune.  Rounding breaks this only where the
    zero-order leaf's input g vanishes and both bits tie at ln 2: on RM(8,3)
    at +-0.012, +-0.014 and +-0.016 (g = 0) u = 16 moved 105, 59 and 0 of
    200 clean words, u = 4 187, 162 and 74; from +-0.018 none moved.
- One magnitude M, at 1 <= w with 2 w < d, at the floor folded from M/2:
  - ml: a codeword x scores M (n - 2 dist(x, y)) against the hard
    decision y, so c, the only codeword within d/2 of y, is the unique
    ML word, and ml returns it (the oracle docstring).  The certificate
    settles it without a search: Reed's decoder returns c, D holds the w
    flips, and with every scaled |L| one a, LB - lambda = (d - 2 w) a >= a
    lies above the slack, n^2 2^-50 a, while n < 2^25.
  - fht: c's correlation is M (n - 2 w), and every other affine word but
    c's complement agrees with c in n/2 places, so its |correlation| is at
    most 2 w M.  The gap M (n - 4 w) >= 2 M (4 w <= 2 d - 2 = n - 2) lies
    far above the transform's rounding, about m u n M.
  - rpa, by induction on r from fht: a projection llr_of_sum(L_z, L_z')
    is +-g, g = llr_of_sum(M, M), up to a few ulp of M (like and unlike
    signs round along different paths), with at most w sign errors over
    n/2 points, and RM(m-1, r-1) has the same d.  At r = 2 the
    first-order gap (n/2 - 4 w) g >= 2 g lies far above n/2 such ulp,
    since the floor keeps g > n 2^-40; at r >= 3 the projection keeps
    RM(m-1, r-1)'s floor folded from g/2, since g/2 >= llr_of_sum(M/2,
    M/2) (a -> llr_of_sum(a, a) is convex and 0 at 0).  So every
    projection decodes to c's, and coordinate z's n - 1 votes are +-M
    with at most w wrong: round 1 leaves every L_z with the sign of
    1 - 2 c_z and |L_z| >= M (n - 1 - 2 w)/(n - 1) > M/2, as 2 w <= d - 1
    <= n/2 - 1.  The later rounds see a sign-clean row whose floor, folded
    from above M/2, holds, and return c by the w = 0 argument.
  - rpa-chase: its unperturbed word w0 is rpa's, c, and the certificate
    settles the trial as for ml (n <= 2^10 under KERNEL_MAX_CELLS).
  - bw, dumer and dumer-list have no such proof and keep reach 1.

A row the rule rejects is only decoded, so the skip returns what the
kernel would have returned and the CSV is unchanged.  n 2^-40 lies about
200 / m above those bounds (and the r llr_of_sum errors, of about
n 2^-47 each); with the floor 2^12 times lower no tested clean codeword
moved (2^16 lower, dumer-list's RM(1, 0) leaf ties at min|L| ~ 2^-55).
tests/test_block_engine.py checks the contract per id, the soft radius
included, and tests/test_decoders_hard.py each hard radius.
Wall-clock seconds are recorded only when timing is enabled; the default
keeps the CSV byte-reproducible.
"""

from __future__ import annotations

import contextlib
import ctypes
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import channel, decoders, rmcode
from .channel import ChannelSpec
# unused here: bench/replay.py's --trace patches sim.rpa_decode_bsc and sim.rpa_decode_llr
from .decoders import rpa_decode_bsc, rpa_decode_llr  # noqa: F401
from .decoders.fht import fht_decode_words
from .decoders.types import block_rows

# float(scipy.special.ndtri(0.975)), the 95% two-sided normal quantile, as
# a literal: importing scipy.special takes about 0.2 s, and only AWGN needs it
_WILSON_Z = 1.959963984540054

CSV_HEADER = (
    "code_m,code_r,decoder,channel,param,trials,bit_err,blk_err,"
    "ber,fer,fer_lo,fer_hi,seconds"
)

# _stream_key packs the sweep point into 16 bits and the trial into 32
MAX_POINTS = 1 << 16
MAX_TRIALS = 1 << 32

# A block holds T = BLOCK_CELLS // n rows (at least one), so each of its
# (T, n) arrays has about BLOCK_CELLS cells: 2048 rows at n = 32.
BLOCK_CELLS = 1 << 16

# A soft row is clean only while its llr_of_sum chain stays above
# n * CLEAN_FLOOR (see the module docstring and _clean_rows).
CLEAN_FLOOR = 2.0**-40


def _half_d(d: int) -> int:
    return (d + 1) // 2  # the least w with 2 w >= d


def _one(d: int) -> int:
    return 1


# Per decoder name, the least distance w from c, of a hard word or of a
# one-magnitude soft row's hard decision, at which the row reaches the
# kernel, from the code's minimum distance d: the kernel returns c for
# every nearer row that keeps the floor (see the module docstring).
REACH = {
    "reed": _half_d, "fht": _half_d, "sakkour": _half_d, "dumer": _one, "dumer-list": _one,
    "rpa": _half_d, "rpa-chase": _half_d, "bw": _one, "ml": _half_d,
}

# run_simulation's pool size limit: a fork pool starts all its workers at once
MAX_WORKERS = 256


class ConfigError(Exception):
    """Invalid simulation configuration."""


@dataclass(frozen=True)
class SimConfig:
    m: int
    r: int
    decoder: str
    channels: tuple
    trials: int
    seed: int = 0
    max_errors_to_log: int = 0
    hard: bool = False
    timing: bool = False

    def __post_init__(self):
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ConfigError(f"trials must be in [1, 2^32], got {self.trials}")
        if not self.channels:
            raise ConfigError("empty channel sweep")
        if len(self.channels) > MAX_POINTS:
            raise ConfigError(f"at most {MAX_POINTS} sweep points, got {len(self.channels)}")
        if self.max_errors_to_log < 0:
            raise ConfigError("max_errors_to_log must be >= 0")
        for kind in dict.fromkeys(spec.kind for spec in self.channels):
            resolve_decoder(self.decoder, self.params, kind, self.hard)

    @property
    def params(self) -> rmcode.CodeParams:
        return rmcode.CodeParams(self.m, self.r)


@dataclass(frozen=True)
class SimPoint:
    spec: ChannelSpec
    trials: int
    bit_err: int
    blk_err: int
    ber: float
    fer: float
    fer_lo: float
    fer_hi: float
    seconds: float
    error_trials: tuple = ()


_CONFIG_KEYS = {
    "m", "r", "decoder", "trials", "seed", "channels", "channel",
    "params", "max_errors_to_log", "hard", "timing",
}


def _integer(key: str, value) -> int:
    """An integral JSON number; bools, strings and fractions are rejected."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def _flag(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key!r} must be true or false, got {value!r}")
    return value


def _channels(data: dict) -> tuple:
    """The sweep's ChannelSpecs, from 'channels' or 'channel' + 'params'."""
    try:
        if "channels" in data:
            texts = data["channels"]
            if not isinstance(texts, (list, tuple)) or not all(isinstance(s, str) for s in texts):
                raise ConfigError(f"'channels' must be a list of strings like \"bsc:0.1\", got {texts!r}")
            return tuple(ChannelSpec.parse(s) for s in texts)
        if "channel" in data and "params" in data:
            kind, values = str(data["channel"]), data["params"]
            if not isinstance(values, (list, tuple)) or not all(
                isinstance(p, numbers.Real) and not isinstance(p, bool) for p in values
            ):
                raise ConfigError(f"'params' must be a list of numbers, got {values!r}")
            return tuple(ChannelSpec(kind, float(p)) for p in values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    raise ConfigError("need 'channels' or 'channel' + 'params'")


def config_from_dict(data: dict) -> SimConfig:
    if not isinstance(data, dict):
        raise ConfigError("config JSON must be an object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        m, r = _integer("m", data["m"]), _integer("r", data["r"])
        decoder = str(data["decoder"])
        trials = _integer("trials", data["trials"])
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc.args[0]}") from None
    channels = _channels(data)
    try:
        cfg = SimConfig(
            m=m,
            r=r,
            decoder=decoder,
            channels=channels,
            trials=trials,
            seed=_integer("seed", data.get("seed", 0)),
            max_errors_to_log=_integer("max_errors_to_log", data.get("max_errors_to_log", 0)),
            hard=_flag("hard", data.get("hard", False)),
            timing=_flag("timing", data.get("timing", False)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


# Cap on min(u, 2^k) * n, the LLR cells of one row's list: a dumer-list:u
# row holds at most min(u, 2^k) paths of n LLRs.  Its tracemalloc peak was
# about 12.6 bytes per cell for one row at 2^20 and 2^21 cells (RM(8,3),
# RM(10,3), RM(12,2)), so a row at the cap peaks near 50 MB.
LIST_MAX_CELLS = 1 << 22

# Cap on k_R * k_E, the cells of bw's step-1 index (decoders.bw), with
# R = RM(m, r_bw) and E = RM(m, r_bw + 1).  Building the tables and
# decoding one row peaked at 12.9, 8.4 and 8.5 bytes per cell (tracemalloc:
# RM(10,2) 0.07 M cells, 0.9 MB; RM(12,0) 4.0 M, 33 MB; RM(13,1) 9.7 M,
# 83 MB), so a code at the cap peaks near 40 MB.  RM(14,0) holds 64 M cells.
BW_MAX_CELLS = 1 << 22

# Cap on the cells of the largest array rpa, rpa-chase, sakkour, fht and
# dumer build for a code: (n - 1) * n per RPA row (its (rows, n-1, n) round
# arrays and gather tables), n^2 per Sakkour row (its (n, n, rows)
# derivatives), n^2 for fht (the (n, n) parity table fht_decode_words
# reads words from) and, for dumer at 1 <= r < m, the same table of its
# largest first-order leaf RM(m-r+1, 1).  Tracemalloc peaks, tables built,
# one row: hard rpa 59.6 and soft rpa 24.0 bytes per cell at RM(9,2) and
# RM(10,2) (51.1 and 58.4 at RM(9,3)), sakkour 26.6 and 26.4, the parity
# table 5.0 at RM(10,1) and RM(11,1); so a code at the cap peaks near
# 63 MB.  RM(11,r) holds 4 M cells.
KERNEL_MAX_CELLS = 1 << 20

# Every decoder id with its input and its constraint, in the order of
# README's decoder table, which must equal these rows.  An id written
# name:x takes an integer :argument x.  Input "both" (rpa) is hard on the
# BSC or with hard=true, soft otherwise.
DECODERS = (
    ("reed", "hard", "any (m, r)"),
    ("fht", "soft", "r == 1"),
    ("sakkour", "hard", "r == 2"),
    ("dumer", "soft", "any (m, r)"),
    ("dumer-list:u", "soft",
     f"u >= 1; min(u, 2^k) * n <= 2^{LIST_MAX_CELLS.bit_length() - 1} LLR cells per row"),
    ("rpa", "both", "r >= 1"),
    ("rpa-chase:t", "soft", f"r >= 1; 0 <= t <= min({decoders.CHASE_MAX_T}, n)"),
    ("bw", "hard", "m - r even and >= 2"),
    ("ml", "soft", f"k <= {decoders.ML_MAX_K}"),
)
# decoder name -> (input, whether it takes an :argument)
DECODER_RULES = {ident.partition(":")[0]: (kind, ":" in ident) for ident, kind, _ in DECODERS}


def _combo_help() -> str:
    """The `valid decoders:` text of every bad-decoder error, one DECODERS row per id."""
    rows = ", ".join(f"{ident} ({kind}: {why})" for ident, kind, why in DECODERS)
    return (f"valid decoders: {rows}; both is hard on bsc or with hard=true, soft otherwise; "
            "hard decoders on bec/awgn need hard=true (sign quantization)")


def resolve_decoder(decoder_id: str, params: rmcode.CodeParams, channel_kind: str, hard: bool):
    """Map a decoder id to (input kind, word -> codeword callable): its block
    kernel on a block of one.  For bw the callable raises Undecodable when
    the word is outside the code, which happens exactly when erasure filling
    failed (decoders.bw).  The callables return the decoded word only; a
    caller that wants the message or the metric packages the word with
    types.result_for, as `rmlab decode` does.  Raises ConfigError on the
    combinations DECODERS rules out; TooLarge guards ml, dumer-list, bw, rpa,
    rpa-chase, sakkour, fht and dumer.  A callable given a word that is not
    n long raises ValueError("expected rows of n values").
    """
    kind, fn = resolve_block_decoder(decoder_id, params, channel_kind, hard)

    def decode(word):
        out = fn(np.asarray(word)[None])
        if decoder_id == "bw" and not rmcode.in_code(params, out)[0]:
            raise decoders.Undecodable("erased word inconsistent with the code")
        return out[0]

    return kind, decode


def resolve_block_decoder(decoder_id: str, params: rmcode.CodeParams, channel_kind: str, hard: bool):
    """Map a decoder id to (input kind, (T, n) block -> (T, n) words), the
    harness's kernel.  Every id decodes the block at once, and row t equals
    the decode of row t alone; a bw row that is undecodable keeps its hard
    word, which is outside the code.  The input kind and the :argument rule
    come from DECODER_RULES; the branch that binds an id's kernel checks its
    constraints."""
    name, _, arg = decoder_id.partition(":")
    m, r = params.m, params.r

    def bad(why):
        return ConfigError(f"{decoder_id!r} on {channel_kind}: {why}; {_combo_help()}")

    def capped(cells, what):
        if cells > KERNEL_MAX_CELLS:
            raise rmcode.TooLarge(f"{decoder_id} on RM({m},{r}) needs {cells} cells of {what}, "
                                  f"past {KERNEL_MAX_CELLS}")

    if name not in DECODER_RULES:
        raise bad("unknown decoder id")
    kind, takes_arg = DECODER_RULES[name]
    if kind == "both":
        kind = "hard" if channel_kind == "bsc" or hard else "soft"
    if kind == "hard" and channel_kind != "bsc" and not hard:
        raise bad("hard-input decoder needs hard=true off the BSC")
    if arg and not takes_arg:
        raise bad("this decoder takes no :argument")

    if name == "reed":
        return kind, lambda Ys: decoders.reed_codewords(params, Ys)
    if name == "fht":
        if r != 1:
            raise bad("fht decodes first-order codes only")
        capped(params.n**2, "parity table")
        return kind, lambda Ls: fht_decode_words(block_rows(params.n, Ls, np.float64))
    if name == "sakkour":
        if r != 2:
            raise bad("sakkour decodes second-order codes only")
        capped(params.n**2, "derivatives per row")
        return kind, lambda Ys: decoders.sakkour_codewords(m, Ys)
    if name == "dumer":
        if 1 <= r < m:
            capped(4 ** (m - r + 1), "parity table")  # of its largest first-order leaf
        return kind, lambda Ls: decoders.dumer_codewords(params, Ls)
    if name == "dumer-list":
        mu = _int_arg(arg, decoder_id)
        if mu < 1:
            raise bad("list size must be >= 1")
        paths = min(mu, 1 << min(params.k, 63))
        if paths * params.n > LIST_MAX_CELLS:
            raise rmcode.TooLarge(f"{decoder_id} holds {paths} paths of {params.n} LLRs per row, "
                                  f"past {LIST_MAX_CELLS} cells")
        return kind, lambda Ls: decoders.dumer_list_codewords(params, Ls, mu)
    if name == "rpa":
        if r < 1:
            raise bad("rpa needs r >= 1")
        capped((params.n - 1) * params.n, "projections per row")
        if kind == "hard":
            return kind, lambda Ys: decoders.rpa_bsc_codewords(params, Ys)
        return kind, lambda Ls: decoders.rpa_llr_codewords(params, Ls)
    if name == "rpa-chase":
        if r < 1:
            raise bad("rpa needs r >= 1")
        t = _int_arg(arg, decoder_id)
        if not 0 <= t <= min(decoders.CHASE_MAX_T, params.n):
            raise bad(f"t must be in [0, {min(decoders.CHASE_MAX_T, params.n)}]")
        capped((params.n - 1) * params.n, "projections per row")
        return kind, lambda Ls: decoders.chase_codewords(params, Ls, t)
    if name == "bw":
        r_bw = (m - r) // 2 - 1  # RM(m, r) is RM(m, m - 2 r_bw - 2)
        if r_bw < 0 or (m - r) % 2:
            raise bad("bw needs m - r even and >= 2")
        cells = rmcode.CodeParams(m, r_bw).k * rmcode.CodeParams(m, r_bw + 1).k
        if cells > BW_MAX_CELLS:
            raise rmcode.TooLarge(f"{decoder_id} on RM({m},{r}) indexes {cells} step-1 cells, "
                                  f"past {BW_MAX_CELLS}")
        return kind, lambda Ys: decoders.bw_codewords(params, Ys)
    if name == "ml":
        if params.k > decoders.ML_MAX_K:
            raise rmcode.TooLarge(f"ml over 2^{params.k} codewords")
        return kind, lambda Ls: decoders.ml_codewords(params, Ls)
    raise bad("unknown decoder id")  # pragma: no cover


def _int_arg(arg: str, decoder_id: str) -> int:
    if not arg:
        raise ConfigError(f"{decoder_id!r} needs an integer :argument")
    # int() alone would also take "1_6", " 8", "+8" and non-ASCII digits
    if arg.isascii() and arg.isdigit():
        with contextlib.suppress(ValueError):  # past int()'s digit limit
            return int(arg)
    raise ConfigError(f"bad :argument in {decoder_id!r}")


_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def _stream_key(seed: int, point: int, trial: int, tag: int) -> int:
    """128-bit Philox key: seed | point | trial | purpose tag."""
    return (
        ((seed & _MASK64) << 64)
        | ((point & 0xFFFF) << 48)
        | ((trial & _MASK32) << 16)
        | (tag & 0xFFFF)
    )


def _streams(config: SimConfig, point, trials):
    """Message bits (T, k) and channel uniforms (T, n): row i holds the draws of the Philox
    streams with keys _stream_key(seed, point[i], trials[i], tag), tag 0 for bits and 1 for
    uniforms.  point and trials are (T,) arrays."""
    trial = np.asarray(trials, dtype=np.uint64) & np.uint64(_MASK32)
    point = np.asarray(point, dtype=np.uint64) & np.uint64(0xFFFF)
    low = (point << np.uint64(48)) | (trial << np.uint64(16))
    high = np.full(trial.shape, config.seed & _MASK64, dtype=np.uint64)
    return channel.philox_draws((low, high), (low | np.uint64(1), high), config.params.k, config.params.n)


def _clean_rows(params: rmcode.CodeParams, Ls: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Whether each LLR row of Ls keeps the floor for its codeword row of c:
    g, the r-fold self-composition of llr_of_sum, exceeds n * CLEAN_FLOOR,
    folded from the row's smallest |L| when every L_z has the sign of
    1 - 2 c_z, and from M / 2 when every |L_z| equals one M and some sign
    differs; any other row fails (see the module docstring).  Whether the
    row lies inside its id's REACH is the caller's test.  A zero L_z passes
    the sign test but gives g = 0."""
    signed = Ls * (1.0 - 2.0 * c)  # positive where L_z has the sign of 1 - 2 c_z
    g = signed.min(axis=1, initial=np.inf)
    off = np.flatnonzero(~(g > 0))  # a sign that differs, or a zero
    mag = np.abs(signed[off])
    g[off] = np.where((mag == mag[:, :1]).all(axis=1), mag[:, 0] / 2, 0.0)
    for _ in range(params.r):
        g = channel.llr_of_sum(g, g)
    return g > params.n * CLEAN_FLOOR


def _inside_reach(params: rmcode.CodeParams, kind: str, words: np.ndarray, c: np.ndarray,
                  reach: int) -> np.ndarray:
    """Whether each row of a (T, n) block of hard words or LLRs skips its
    kernel, which returns c for it (see the module docstring): the word, or
    the row's hard decision L < 0, lies at distance w < reach from its
    codeword row of c, and a soft row keeps the floor (_clean_rows)."""
    wrong = words != c if kind == "hard" else (words < 0) ^ c.view(bool)
    inside = np.count_nonzero(wrong, axis=1) < reach
    if kind == "soft" and inside.any():
        rows = np.flatnonzero(inside)
        inside[rows] = _clean_rows(params, words[rows], c[rows])
    return inside


def _run_trials(config: SimConfig, lo: int, hi: int) -> dict:
    """Rows [lo, hi) of the whole sweep, row g being trial g % trials of point
    g // trials, block by block.  A block spans consecutive points of one
    channel kind.  Its kernel gets only the rows outside the id's reach
    (_inside_reach), and the block itself, uncopied, when every row is.
    Returns {point: (bit_err, blk_err, failing trials ascending, at most
    max_errors_to_log, seconds)} for every point the rows touch, each
    block's wall time charged to its points in proportion to their rows."""
    params, trials, specs = config.params, config.trials, config.channels
    # run_end[p]: the first point after p whose channel kind differs (or the end)
    run_end = [len(specs)] * len(specs)
    for p in range(len(specs) - 2, -1, -1):
        run_end[p] = run_end[p + 1] if specs[p + 1].kind == specs[p].kind else p + 1
    decoders = {kind: resolve_block_decoder(config.decoder, params, kind, config.hard)
                for kind in dict.fromkeys(spec.kind for spec in specs)}
    reach = REACH[config.decoder.partition(":")[0]](params.d)
    step = max(1, BLOCK_CELLS // params.n)
    tally = {}
    start = lo
    while start < hi:
        t0 = time.perf_counter()
        stop = min(start + step, hi, run_end[start // trials] * trials)
        point, trial = np.divmod(np.arange(start, stop, dtype=np.uint64), np.uint64(trials))
        bits, u = _streams(config, point, trial)
        c = rmcode.encode_rows(params, bits)
        kind, decode = decoders[specs[start // trials].kind]
        segments, words = [], []
        for p in range(start // trials, (stop - 1) // trials + 1):
            rows = slice(max(start, p * trials) - start, min(stop, (p + 1) * trials) - start)
            spec = specs[p]
            out = channel.apply_noise(c[rows], u[rows], spec)
            if kind == "hard":
                words.append(out.data if spec.kind == "bsc" else channel.hard_decision(channel.llr(out, spec)))
            else:
                words.append(channel.llr(out, spec))
            segments.append((p, rows))
        words = words[0] if len(words) == 1 else np.concatenate(words)
        live = np.flatnonzero(~_inside_reach(params, kind, words, c, reach))
        if live.size == stop - start:  # every row outside: the block goes whole, uncopied
            errs = np.count_nonzero(decode(words) != c, axis=1)
        else:
            errs = np.zeros(stop - start, dtype=np.intp)
            if live.size:
                errs[live] = np.count_nonzero(decode(words[live]) != c[live], axis=1)
        row_seconds = (time.perf_counter() - t0) / (stop - start)
        for p, rows in segments:
            bit_err, blk_err, logged, spent = tally.get(p, (0, 0, [], 0.0))
            failed = np.flatnonzero(errs[rows])
            first = start + rows.start - p * trials
            room = config.max_errors_to_log - len(logged)
            logged += (first + failed[:room]).tolist()
            tally[p] = (bit_err + int(errs[rows].sum()), blk_err + failed.size, logged,
                        spent + row_seconds * (rows.stop - rows.start))
        start = stop
    return tally


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = phat + z2 / (2.0 * trials)
    half = z * np.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, (center - half) / denom)
    hi = 1.0 if successes == trials else min(1.0, (center + half) / denom)
    return lo, hi


def _openblas(name: str):
    """OpenBLAS's `openblas_<name>` from the copy numpy wheels bundle in
    numpy.libs, or None when numpy runs on another BLAS."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}",
                       f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


# glibc maps each allocation from M_MMAP_THRESHOLD (128 KB at start) afresh
# and trims the heap's free top past M_TRIM_THRESHOLD, so every run faulted
# its block arrays in page by page (487 minor faults per light-sweep reed
# run).  4 MiB lies above the largest per-block array, 2 MiB of float64 at
# dumer._LIST_CELLS; the heap keeps twice that free.
_HEAP_BYTES = 4 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's malloc.h


def _mallopt():
    """The C library's mallopt, or None where it has none."""
    return getattr(ctypes.CDLL(None), "mallopt", None)


@cache
def _steady_heap():
    """Once per process: freed block arrays stay in the heap for later blocks."""
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _HEAP_BYTES)
        mallopt(_M_TRIM_THRESHOLD, 2 * _HEAP_BYTES)


def _init_worker():
    """Pool initializer: a steady heap (a spawned worker lacks the parent's)
    and one BLAS thread, since the workers already share the cores out and
    BLAS threads inside each of them would oversubscribe the machine."""
    _steady_heap()
    set_threads = _openblas("set_num_threads")
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def worker_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers keep a steady heap and one BLAS thread."""
    return ProcessPoolExecutor(max_workers=workers, initializer=_init_worker)


def run_simulation(config: SimConfig, workers: int = 1):
    """All sweep points; byte-identical output for any worker count.

    The sweep's rows (every point's trials, point after point) run as one
    range.  With workers > 1 one process pool serves the whole sweep, and
    the range is split into 4 * workers contiguous jobs whose per-point
    parts are merged.  The pool's workers run single-threaded BLAS; the
    serial path keeps BLAS's own thread count.  With timing on, each point's
    seconds are its share of the sweep's wall time, in proportion to the
    block time charged to it.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if workers > MAX_WORKERS:
        raise ConfigError(f"workers must be <= {MAX_WORKERS}, got {workers}")
    _steady_heap()
    total = config.trials * len(config.channels)
    start = time.perf_counter()
    if workers == 1:
        parts = [_run_trials(config, 0, total)]
    else:
        bounds = np.linspace(0, total, 4 * workers + 1, dtype=np.int64)
        spans = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]
        with worker_pool(workers) as pool:
            parts = list(pool.map(partial(_run_trials, config), *zip(*spans)))
    wall = time.perf_counter() - start
    per_point = [[part[idx] for part in parts if idx in part] for idx in range(len(config.channels))]
    charged = [sum(p[3] for p in point_parts) for point_parts in per_point]
    scale = wall / (sum(charged) or 1.0) if config.timing else 0.0
    return [_sim_point(config, idx, point_parts, scale * charged[idx])
            for idx, point_parts in enumerate(per_point)]


def _sim_point(config: SimConfig, idx: int, parts, seconds: float) -> SimPoint:
    n = config.params.n
    bit_err = sum(p[0] for p in parts)
    blk_err = sum(p[1] for p in parts)
    logged = sorted(t for p in parts for t in p[2])[: config.max_errors_to_log]
    lo, hi = wilson_interval(blk_err, config.trials)
    return SimPoint(
        spec=config.channels[idx],
        trials=config.trials,
        bit_err=bit_err,
        blk_err=blk_err,
        ber=bit_err / (config.trials * n),
        fer=blk_err / config.trials,
        fer_lo=lo,
        fer_hi=hi,
        seconds=seconds,
        error_trials=tuple(logged),
    )


def csv_report(config: SimConfig, points) -> str:
    lines = [CSV_HEADER]
    for pt in points:
        lines.append(
            f"{config.m},{config.r},{config.decoder},{pt.spec.kind},"
            f"{pt.spec.param:g},{pt.trials},{pt.bit_err},{pt.blk_err},"
            f"{pt.ber:.6g},{pt.fer:.6g},{pt.fer_lo:.6g},{pt.fer_hi:.6g},"
            f"{pt.seconds:.3f}"
        )
    return "\n".join(lines) + "\n"
