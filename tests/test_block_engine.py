"""The trial-batched harness against the single-trial path it replaced.

Every block kernel must give, row for row, exactly what the single-word
kernel of resolve_decoder gives; the block pieces of the harness (encode,
noise, LLR) must match their single-word forms; and run_simulation must
reproduce a per-trial reference loop kept here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlab import channel, rmcode, sim
from rmlab.channel import ChannelSpec
from rmlab.decoders import Undecodable
from rmlab.decoders import dumer as dumer_mod
from rmlab.sim import ConfigError, config_from_dict, resolve_block_decoder, resolve_decoder, run_simulation

# one case per decoder id and shape of recursion; every channel kind an id
# accepts is tried below
CASES = [
    ("reed", 4, 2), ("reed", 5, 1),
    ("fht", 4, 1), ("fht", 1, 1),
    ("sakkour", 4, 2),
    ("dumer", 4, 2), ("dumer", 5, 2), ("dumer", 6, 3), ("dumer", 3, 0), ("dumer", 3, 3), ("dumer", 1, 1),
    ("dumer-list:1", 4, 2), ("dumer-list:4", 5, 2), ("dumer-list:16", 6, 3),
    ("dumer-list:8", 3, 3), ("dumer-list:3", 3, 0), ("dumer-list:2048", 4, 2),
    ("rpa", 4, 2), ("rpa", 4, 1),
    ("rpa-chase:2", 4, 2),
    ("bw", 4, 2), ("bw", 5, 1),
    ("ml", 4, 2),
]

STYLES = ["bsc", "bec", "rounded", "awgn", "zeros"]


def block_llrs(params, style, rows, rng):
    """LLR rows of random codewords; every style but 'awgn' is tie-heavy."""
    G = rmcode.generator_matrix(params)
    x = 1.0 - 2.0 * ((rng.integers(0, 2, size=(rows, params.k)) @ G) & 1)
    shape = x.shape
    if style == "bsc":  # +-mag, as channel.llr gives on the BSC
        flips = rng.random(shape) < rng.uniform(0.0, 0.3)
        return np.where(flips, -x, x) * rng.choice([1.0, 2.2, 40.0])
    if style == "bec":  # +-40 or exact zero
        return np.where(rng.random(shape) < rng.uniform(0.2, 1.0), 0.0, 40.0 * x)
    if style == "rounded":  # rounded AWGN LLRs, exact zeros included
        return np.round(2.0 * (x + rng.uniform(0.6, 1.4) * rng.normal(size=shape)))
    if style == "zeros":  # mostly exact zeros: every comparison ties
        return np.where(rng.random(shape) < 0.8, 0.0, x)
    return 2.0 * (x + rng.uniform(0.5, 1.5) * rng.normal(size=shape))


def stacked(word_fn, kind, words):
    """The single-word kernel row by row, with the harness's fallback."""
    out = []
    for w in words:
        try:
            out.append(np.asarray(word_fn(w.copy()), dtype=np.uint8))
        except Undecodable:
            out.append(w.copy() if kind == "hard" else channel.hard_decision(w))
    return np.array(out, dtype=np.uint8).reshape(words.shape)


@pytest.mark.parametrize("decoder_id,m,r", CASES)
@settings(max_examples=15, deadline=None)
@given(style=st.sampled_from(STYLES), rows=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_block_kernel_equals_stacked_word_kernel(decoder_id, m, r, style, rows, seed):
    params = rmcode.CodeParams(m, r)
    L = block_llrs(params, style, rows, np.random.default_rng(seed))
    accepted = 0
    for channel_kind in ("bsc", "bec", "awgn"):
        for hard in (False, True):
            try:
                kind, block_fn = resolve_block_decoder(decoder_id, params, channel_kind, hard)
            except ConfigError:
                continue
            accepted += 1
            _, word_fn = resolve_decoder(decoder_id, params, channel_kind, hard)
            words = channel.hard_decision(L) if kind == "hard" else L
            got = block_fn(words)
            assert got.dtype == np.uint8 and got.shape == words.shape
            assert np.array_equal(got, stacked(word_fn, kind, words))
    assert accepted


@pytest.mark.parametrize(
    "decoder_id,m,r", [("fht", 3, 1), ("dumer", 3, 0), ("dumer", 4, 1), ("dumer-list:4", 3, 0), ("dumer-list:4", 4, 2)]
)
def test_all_zero_llrs_decode_to_the_zero_word(decoder_id, m, r):
    # documented tie rules: a zero sum or zero correlation decides bit 0,
    # and equal list penalties keep the earlier (bit-0) path
    params = rmcode.CodeParams(m, r)
    _, block_fn = resolve_block_decoder(decoder_id, params, "awgn", False)
    assert not block_fn(np.zeros((3, params.n))).any()


def test_list_kernel_chunks_agree(monkeypatch):
    params = rmcode.CodeParams(5, 2)
    L = block_llrs(params, "rounded", 7, np.random.default_rng(8))
    whole = dumer_mod.dumer_list_codewords(params, L, 16)
    monkeypatch.setattr(dumer_mod, "_LIST_CELLS", 2 * 16 * params.n)  # chunks of 2 trials
    assert np.array_equal(dumer_mod.dumer_list_codewords(params, L, 16), whole)


# ---- block pieces of the harness ----


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 6), rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_encode_rows_equals_encode(m, rows, seed, data):
    r = data.draw(st.integers(0, m))
    params = rmcode.CodeParams(m, r)
    bits = np.random.default_rng(seed).integers(0, 2, size=(rows, params.k))
    order = rmcode.monomials(params)
    want = [rmcode.encode(rmcode.Message(params, {order[i]: int(b[i]) for i in range(params.k)})) for b in bits]
    got = rmcode.encode_rows(params, bits)
    assert got.dtype == np.uint8
    assert np.array_equal(got, np.array(want))


def test_encode_rows_validation():
    params = rmcode.CodeParams(3, 1)
    with pytest.raises(ValueError):
        rmcode.encode_rows(params, np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        rmcode.encode_rows(params, np.full((2, 4), 2))


@pytest.mark.parametrize("spec", ["bsc:0.1", "bsc:0", "bsc:1", "bec:0.3", "awgn:0.8", "awgn:1e-3"])
def test_block_noise_and_llr_equal_transmit_row_by_row(spec):
    spec = ChannelSpec.parse(spec)
    params = rmcode.CodeParams(4, 2)
    rng = np.random.default_rng(3)
    c = rmcode.encode_rows(params, rng.integers(0, 2, size=(5, params.k)))
    keys = [sim._stream_key(11, 2, t, 1) for t in range(5)]
    u = np.stack([channel._rng(key).random(params.n) for key in keys])
    block = channel.apply_noise(c, u, spec)
    singles = [channel.transmit(row, spec, key) for row, key in zip(c, keys)]
    assert block.kind == spec.kind
    assert block.data.tobytes() == np.stack([s.data for s in singles]).tobytes()
    assert channel.llr(block, spec).tobytes() == np.stack([channel.llr(s, spec) for s in singles]).tobytes()


# ---- run_simulation against the per-trial loop ----


def reference_point(config, point):
    """The single-trial harness loop: one Message, encode and transmit per trial."""
    params = config.params
    spec = config.channels[point]
    kind, fn = resolve_decoder(config.decoder, params, spec.kind, config.hard)
    order = rmcode.monomials(params)
    bit_err = blk_err = 0
    failing = []
    for trial in range(config.trials):
        bits = channel._rng(sim._stream_key(config.seed, point, trial, 0)).integers(0, 2, size=params.k)
        c = rmcode.encode(rmcode.Message(params, {order[i]: int(bits[i]) for i in range(params.k)}))
        out = channel.transmit(c, spec, sim._stream_key(config.seed, point, trial, 1))
        if kind == "hard":
            word = out.data if spec.kind == "bsc" else channel.hard_decision(channel.llr(out, spec))
        else:
            word = channel.llr(out, spec)
        try:
            decoded = fn(word)
        except Undecodable:
            decoded = word if kind == "hard" else channel.hard_decision(word)
        errs = int(np.count_nonzero(decoded != c))
        if errs:
            bit_err += errs
            blk_err += 1
            failing.append(trial)
    return bit_err, blk_err, tuple(failing[: config.max_errors_to_log])


@pytest.mark.parametrize(
    "over",
    [
        # bw raises Undecodable at this noise, so the fallback runs too
        {"decoder": "bw", "channels": ["bsc:0.06", "bsc:0.12"]},
        {"decoder": "dumer-list:4", "channels": ["awgn:0.9", "bsc:0.08"]},
        {"decoder": "dumer", "channels": ["bec:0.45"]},
        {"decoder": "reed", "channels": ["bec:0.2", "awgn:1.1"], "hard": True},
    ],
)
def test_run_simulation_matches_per_trial_loop(over, monkeypatch):
    data = {"m": 4, "r": 2, "trials": 601, "seed": 5, "max_errors_to_log": 40} | over
    config = config_from_dict(data)
    assert config.trials % sim.BLOCK_TRIALS != 0
    want = [reference_point(config, p) for p in range(len(config.channels))]
    assert any(len(w[2]) == config.max_errors_to_log for w in want)
    runs = [run_simulation(config), run_simulation(config, workers=2)]
    monkeypatch.setattr(sim, "BLOCK_TRIALS", 7)  # many blocks, a partial one last
    runs.append(run_simulation(config))
    for points in runs:
        assert [(pt.bit_err, pt.blk_err, pt.error_trials) for pt in points] == want
