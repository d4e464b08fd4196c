"""Monte-Carlo error-rate harness.

Every trial draws its message and channel noise from Philox substreams
keyed by (seed, sweep point, trial, purpose), so results are a pure
function of the config and identical under any execution order or worker
count.  Trials run in blocks of T = BLOCK_CELLS // n: each block draws
its trials' message bits and uniforms in one Philox kernel call, encodes,
transmits and decodes as whole (T, n) arrays, and counts errors with array
operations.  Wall-clock seconds are recorded only when timing is enabled;
the default keeps the CSV byte-reproducible.
"""

from __future__ import annotations

import contextlib
import ctypes
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import channel, rmcode
from .channel import ChannelSpec
from .decoders import (
    CHASE_MAX_T,
    Undecodable,
    bw_decode,
    chase_codewords,
    dumer_codewords,
    dumer_list_codewords,
    ml_codewords,
    reed_codewords,
    rpa_bsc_codewords,
    rpa_llr_codewords,
    sakkour_codewords,
)
# unused here: bench/replay.py's --trace patches sim.rpa_decode_bsc and sim.rpa_decode_llr
from .decoders import rpa_decode_bsc, rpa_decode_llr  # noqa: F401
from .decoders.fht import fht_decode_words

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

# A block holds T = BLOCK_CELLS // n trials (at least one), so each of
# its (T, n) arrays has about BLOCK_CELLS cells: 2048 trials at n = 32.
BLOCK_CELLS = 1 << 16


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


def _combo_help() -> str:
    return (
        "valid decoders: reed (hard, any r), fht (soft, r=1), "
        "sakkour (hard, r=2), dumer (soft), dumer-list:<mu> (soft), "
        "rpa (r>=1; hard on bsc, soft otherwise), "
        "rpa-chase:<t> (soft, r>=1, t<=min(16, n)), "
        "bw (hard, m-r even >= 2), ml (soft, k<=24); hard decoders on "
        "bec/awgn need hard=true (sign quantization)"
    )


def resolve_decoder(decoder_id: str, params: rmcode.CodeParams, channel_kind: str, hard: bool):
    """Map a decoder id to (input kind, word -> codeword callable).

    The callables return the decoded word only; where a decoder extracts
    the message, the public *_decode wrappers do it.  Raises ConfigError on
    unusable combinations; TooLarge guards ml.
    """
    kind, fn, batched = _resolve(decoder_id, params, channel_kind, hard)
    if batched:
        return kind, lambda word: fn(np.asarray(word)[None])[0]
    return kind, fn


def resolve_block_decoder(decoder_id: str, params: rmcode.CodeParams, channel_kind: str, hard: bool):
    """Map a decoder id to (input kind, (T, n) block -> (T, n) words).

    This is the harness's kernel.  Every decoder but bw decodes the block
    at once.  bw runs resolve_decoder's callable on each row, because
    `rmlab decode` needs its Undecodable; a row that raises it keeps its
    hard word.  Either way row t equals the single-word decode of row t.
    """
    kind, fn, batched = _resolve(decoder_id, params, channel_kind, hard)
    return kind, fn if batched else partial(_each_row, fn)


def _each_row(word_fn, words: np.ndarray) -> np.ndarray:
    out = np.array(words, dtype=np.uint8)
    for i, word in enumerate(words):
        with contextlib.suppress(Undecodable):
            out[i] = word_fn(word)
    return out


def _resolve(decoder_id: str, params: rmcode.CodeParams, channel_kind: str, hard: bool):
    """(input kind, kernel, batched): a batched kernel decodes (T, n) blocks."""
    name, _, arg = decoder_id.partition(":")
    m, r = params.m, params.r

    def bad(why):
        return ConfigError(f"{decoder_id!r} on {channel_kind}: {why}; {_combo_help()}")

    if name in ("reed", "sakkour", "bw") or (name == "rpa" and (channel_kind == "bsc" or hard)):
        if channel_kind != "bsc" and not hard:
            raise bad("hard-input decoder needs hard=true off the BSC")
        kind = "hard"
    elif name in ("fht", "dumer", "dumer-list", "rpa", "rpa-chase", "ml"):
        kind = "soft"
    else:
        raise bad("unknown decoder id")
    if arg and name not in ("dumer-list", "rpa-chase"):
        raise bad("this decoder takes no :argument")

    if name == "reed":
        return kind, lambda Ys: reed_codewords(params, Ys), True
    if name == "fht":
        if r != 1:
            raise bad("fht decodes first-order codes only")
        return kind, fht_decode_words, True
    if name == "sakkour":
        if r != 2 or m < 2:
            raise bad("sakkour decodes second-order codes only")
        return kind, lambda Ys: sakkour_codewords(m, Ys), True
    if name == "dumer":
        return kind, lambda Ls: dumer_codewords(params, Ls), True
    if name == "dumer-list":
        mu = _int_arg(arg, decoder_id)
        if mu < 1:
            raise bad("list size must be >= 1")
        return kind, lambda Ls: dumer_list_codewords(params, Ls, mu), True
    if name == "rpa":
        if r < 1:
            raise bad("rpa needs r >= 1")
        if kind == "hard":
            return kind, lambda Ys: rpa_bsc_codewords(params, Ys), True
        return kind, lambda Ls: rpa_llr_codewords(params, Ls), True
    if name == "rpa-chase":
        if r < 1:
            raise bad("rpa needs r >= 1")
        t = _int_arg(arg, decoder_id)
        if not 0 <= t <= min(CHASE_MAX_T, params.n):
            raise bad(f"t must be in [0, {min(CHASE_MAX_T, params.n)}]")
        return kind, lambda Ls: chase_codewords(params, Ls, t), True
    if name == "bw":
        gap = m - r - 2
        if gap < 0 or gap % 2:
            raise bad("bw needs m - r even and >= 2")
        r_bw = gap // 2
        return kind, lambda y: bw_decode(m, r_bw, y).codeword, False
    if name == "ml":
        if params.k > 24:
            raise rmcode.TooLarge(f"ml over 2^{params.k} codewords")
        return kind, lambda Ls: ml_codewords(params, Ls), True
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


def _streams(config: SimConfig, point: int, trials: range):
    """Message bits (T, k) and channel uniforms (T, n): row i holds the draws of trial trials[i]'s
    Philox streams, keys _stream_key(seed, point, trial, tag), tag 0 for bits and 1 for uniforms."""
    trial = np.arange(trials.start, trials.stop, trials.step, dtype=np.uint64) & np.uint64(_MASK32)
    low = np.uint64((point & 0xFFFF) << 48) | (trial << np.uint64(16))
    high = np.full(trial.shape, config.seed & _MASK64, dtype=np.uint64)
    return channel.philox_draws((low, high), (low | np.uint64(1), high), config.params.k, config.params.n)


def _run_trials(config: SimConfig, point: int, lo: int, hi: int):
    """Trials [lo, hi) of one sweep point, block by block; returns integer
    aggregates and the failing trials, ascending, at most max_errors_to_log."""
    params = config.params
    spec = config.channels[point]
    kind, decode = resolve_block_decoder(config.decoder, params, spec.kind, config.hard)
    step = max(1, BLOCK_CELLS // params.n)
    bit_err = 0
    blk_err = 0
    logged = []
    for start in range(lo, hi, step):
        bits, u = _streams(config, point, range(start, min(start + step, hi)))
        c = rmcode.encode_rows(params, bits)
        out = channel.apply_noise(c, u, spec)
        if kind == "hard":
            words = out.data if spec.kind == "bsc" else channel.hard_decision(channel.llr(out, spec))
        else:
            words = channel.llr(out, spec)
        errs = np.count_nonzero(decode(words) != c, axis=1)
        failed = np.flatnonzero(errs)
        bit_err += int(errs.sum())
        blk_err += failed.size
        room = config.max_errors_to_log - len(logged)
        logged += (start + failed[:room]).tolist()
    return bit_err, blk_err, logged


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


def _one_blas_thread():
    """Pool initializer: the worker's BLAS runs on one thread.  The workers
    already share the cores out, and BLAS threads inside each of them would
    oversubscribe the machine."""
    set_threads = _openblas("set_num_threads")
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def worker_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers run single-threaded BLAS."""
    return ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread)


def run_simulation(config: SimConfig, workers: int = 1):
    """All sweep points; byte-identical output for any worker count.

    With workers > 1 one process pool serves the whole sweep, and each
    point's trials are split into 4 * workers contiguous jobs.  The pool's
    workers run single-threaded BLAS; the serial path keeps BLAS's own
    thread count.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    spans = [(0, config.trials)]
    pool = contextlib.nullcontext()
    if workers > 1:
        bounds = np.linspace(0, config.trials, 4 * workers + 1, dtype=int)
        spans = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if lo < hi]
        pool = worker_pool(workers)
    points = []
    with pool:
        for idx in range(len(config.channels)):
            start = time.perf_counter()
            jobs = [(config, idx, lo, hi) for lo, hi in spans]
            parts = list(pool.map(_run_trials, *zip(*jobs))) if workers > 1 else [_run_trials(*jobs[0])]
            seconds = time.perf_counter() - start if config.timing else 0.0
            points.append(_sim_point(config, idx, parts, seconds))
    return points


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
