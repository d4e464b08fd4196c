"""Replay of the harness trial loop with per-layer timing.

`replay_point` repeats what `rmlab.sim._run_trials` does for one sweep
point, with the same Philox stream keys and the same public calls, and
times each layer around its call: message stream, encode, transmit, LLR,
decode.  Inside the decoders, `Tracer.installed()` swaps the names the
decoder modules look up at call time (`fht`, `llr_of_sum`, packaging,
the ML codebook product, the RPA entry points) for timed wrappers and
restores them on exit.  Nothing under `src/` is changed.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from rmlab import channel, rmcode, sim
from rmlab.decoders import Undecodable

_perf = time.perf_counter
_is_codeword = rmcode.is_codeword  # unwrapped, for the non-codeword count

# Spans inside decode whose time is not the decoder's own.
KERNEL_SPANS = ("fht", "llr_of_sum", "ml", "package")


class _TimedCodebook:
    """Stands in for the cached ML sign codebook; times `codebook @ L`."""

    def __init__(self, matrix: np.ndarray, tracer: "Tracer"):
        self.matrix = matrix
        self.tracer = tracer

    def __matmul__(self, other):
        t0 = _perf()
        out = self.matrix @ other
        tr = self.tracer
        tr.time["ml"] += _perf() - t0
        tr.count["ml_calls"] += 1
        rows, n = self.matrix.shape
        tr.count["ml_flop"] += 2 * rows * n
        tr.count["ml_bytes"] += 8 * (rows * n + n + rows)
        return out


class Tracer:
    """Accumulated span times (seconds) and counts for one traced replay."""

    def __init__(self):
        self.time = Counter()
        self.count = Counter()
        self._active = Counter()

    def span(self, name: str, fn, count=None):
        """Wrap fn; a call nested in a span of the same name is not counted twice."""

        def traced(*args, **kwargs):
            if self._active[name]:
                return fn(*args, **kwargs)
            self._active[name] += 1
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.time[name] += _perf() - t0
                self._active[name] -= 1
                self.count[name + "_calls"] += 1
                if count is not None:
                    count(self.count, *args)

        return traced

    @contextmanager
    def installed(self):
        mods = {
            name: importlib.import_module("rmlab." + name)
            for name in ("rmcode", "sim", "decoders.fht", "decoders.sakkour",
                         "decoders.dumer", "decoders.rpa", "decoders.oracle")
        }
        originals = []

        def patch(mod_name, attr, wrapped_of):
            mod = mods[mod_name]
            orig = getattr(mod, attr)
            originals.append((mod, attr, orig))
            setattr(mod, attr, wrapped_of(orig))

        for mod_name in ("decoders.fht", "decoders.sakkour"):
            patch(mod_name, "fht", lambda f: self.span("fht", f, _count_fht))
        for mod_name in ("decoders.dumer", "decoders.rpa"):
            patch(mod_name, "llr_of_sum", lambda f: self.span("llr_of_sum", f))
        patch("rmcode", "is_codeword", lambda f: self.span("package", f))
        patch("rmcode", "message_of_codeword", lambda f: self.span("package", f))
        patch("decoders.oracle", "_sign_codebook", lambda f: lambda params: _TimedCodebook(f(params), self))
        for attr in ("rpa_decode_llr", "rpa_decode_bsc"):
            patch("sim", attr, lambda f: self.span("rpa", f))
        try:
            yield self
        finally:
            for mod, attr, orig in reversed(originals):
                setattr(mod, attr, orig)


def _count_fht(count: Counter, values, *_):
    arr = np.asarray(values)
    n = arr.shape[-1]
    rows = arr.size // n
    count["fht_rows"] += rows
    count["fht_ops"] += rows * n * int(math.log2(n))


def replay_point(config: sim.SimConfig, point: int, tracer: Tracer | None = None):
    """Trials of one sweep point, serially; returns (bit_err, blk_err).

    With a tracer, layer times land in tracer.time under "stream",
    "encode", "transmit", "llr" and "decode", the loop's wall time under
    "wall", and decoder-internal spans under their own names once
    `tracer.installed()` is active.  Non-codeword outputs are counted
    after the loop, outside "wall".
    """
    params = config.params
    spec = config.channels[point]
    kind, fn = sim.resolve_decoder(config.decoder, params, spec.kind, config.hard)
    order = rmcode.monomials(params)
    k = params.k
    t = Counter()
    bit_err = blk_err = undecodable = 0
    outputs = []
    start = _perf()
    for trial in range(config.trials):
        t0 = _perf()
        rng = channel._rng(sim._stream_key(config.seed, point, trial, 0))
        bits = rng.integers(0, 2, size=k)
        msg = rmcode.Message(params, {order[i]: int(bits[i]) for i in range(k)})
        t1 = _perf()
        c = rmcode.encode(msg)
        t2 = _perf()
        out = channel.transmit(c, spec, sim._stream_key(config.seed, point, trial, 1))
        t3 = _perf()
        if kind == "hard":
            word = out.data if spec.kind == "bsc" else channel.hard_decision(channel.llr(out, spec))
        else:
            word = channel.llr(out, spec)
        t4 = _perf()
        try:
            decoded = fn(word)
        except Undecodable:
            decoded = word if kind == "hard" else channel.hard_decision(word)
            undecodable += 1
        t5 = _perf()
        t["stream"] += t1 - t0
        t["encode"] += t2 - t1
        t["transmit"] += t3 - t2
        t["llr"] += t4 - t3
        t["decode"] += t5 - t4
        errs = int(np.count_nonzero(decoded != c))
        if errs:
            bit_err += errs
            blk_err += 1
        if tracer is not None:
            outputs.append(decoded)
    if tracer is not None:
        t["wall"] += _perf() - start
        tracer.time.update(t)
        tracer.count["trials"] += config.trials
        tracer.count["undecodable"] += undecodable
        tracer.count["noncodeword"] += sum(not _is_codeword(params, w) for w in outputs)
    return bit_err, blk_err
