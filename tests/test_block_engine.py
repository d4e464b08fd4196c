"""The trial-batched harness against the single-trial path it replaced.

Every block kernel must give, row for row, exactly what the single-word
kernel of resolve_decoder gives; the block pieces of the harness (encode,
noise, LLR) must match their single-word forms; and run_simulation must
reproduce a per-trial reference loop kept here.
"""

import contextlib
import math
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlab import channel, gf2, rmcode, sim
from rmlab.channel import ChannelSpec
from rmlab.decoders import Ambiguous, Undecodable
from rmlab.decoders import dumer as dumer_mod
from rmlab.decoders import oracle as oracle_mod
from rmlab.decoders import reed as reed_mod
from rmlab.decoders import rpa as rpa_mod
from rmlab.decoders import sakkour as sakkour_mod
from rmlab.decoders.fht import _parity_table, fht_decode_words
from rmlab.decoders.types import hard_input_llr, result_for, soft_metric
from rmlab.sim import ConfigError, config_from_dict, resolve_block_decoder, resolve_decoder, run_simulation

import reference_structure as ref

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
def test_encode_rows_and_encode_equal_the_generator_product(m, rows, seed, data):
    # the reference generator's product mod 2, row by row through encode too
    r = data.draw(st.integers(0, m))
    params = rmcode.CodeParams(m, r)
    bits = np.random.default_rng(seed).integers(0, 2, size=(rows, params.k))
    want = bits @ ref.generator_matrix(m, r).astype(np.int64) % 2
    got = rmcode.encode_rows(params, bits)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)
    order = rmcode.monomials(params)
    for b, w in zip(bits, want):
        assert np.array_equal(rmcode.encode(rmcode.Message(params, {order[i]: int(b[i]) for i in range(params.k)})), w)


def test_encode_rows_validation():
    params = rmcode.CodeParams(3, 1)
    with pytest.raises(ValueError):
        rmcode.encode_rows(params, np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        rmcode.encode_rows(params, np.full((2, 4), 2))


@pytest.mark.parametrize("bad", [2, -1, 0.5, float("nan")])
def test_encode_rows_and_transmit_reject_entries_other_than_0_and_1(bad):
    params = rmcode.CodeParams(3, 1)
    bits, word = np.zeros((2, params.k)), np.zeros(params.n)
    bits[1, 2] = word[5] = bad
    with pytest.raises(ValueError):
        rmcode.encode_rows(params, bits)
    with pytest.raises(ValueError):
        channel.transmit(word, ChannelSpec("bsc", 0.1), 0)
    if bad in (2, -1):  # the integer forms too
        with pytest.raises(ValueError):
            rmcode.encode_rows(params, bits.astype(np.int64))
        with pytest.raises(ValueError):
            channel.transmit(word.astype(np.int64).tolist(), ChannelSpec("bsc", 0.1), 0)


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


def reference_words(config, point):
    """(codeword, decoder input) of each trial of a point: one Message, encode and transmit per trial."""
    params = config.params
    spec = config.channels[point]
    kind = resolve_decoder(config.decoder, params, spec.kind, config.hard)[0]
    order = rmcode.monomials(params)
    for trial in range(config.trials):
        bits = channel._rng(sim._stream_key(config.seed, point, trial, 0)).integers(0, 2, size=params.k)
        c = rmcode.encode(rmcode.Message(params, {order[i]: int(bits[i]) for i in range(params.k)}))
        out = channel.transmit(c, spec, sim._stream_key(config.seed, point, trial, 1))
        if kind == "hard":
            yield c, out.data if spec.kind == "bsc" else channel.hard_decision(channel.llr(out, spec))
        else:
            yield c, channel.llr(out, spec)


def reference_point(config, point):
    """The single-trial harness loop: every trial's word through the single-word decoder."""
    kind, fn = resolve_decoder(config.decoder, config.params, config.channels[point].kind, config.hard)
    bit_err = blk_err = 0
    failing = []
    for trial, (c, word) in enumerate(reference_words(config, point)):
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
    assert config.trials % (sim.BLOCK_CELLS // config.params.n) != 0
    want = [reference_point(config, p) for p in range(len(config.channels))]
    assert any(len(w[2]) == config.max_errors_to_log for w in want)
    runs = [run_simulation(config), run_simulation(config, workers=2)]
    monkeypatch.setattr(sim, "BLOCK_CELLS", 7 * config.params.n)  # many blocks, a partial one last
    runs.append(run_simulation(config))
    for points in runs:
        assert [(pt.bit_err, pt.blk_err, pt.error_trials) for pt in points] == want


@pytest.mark.parametrize(
    "over, block_rows",
    [
        # one kind, 7-row blocks over 3 points of 61 trials: most blocks hold one point, some two
        ({"decoder": "dumer-list:4", "channels": ["bsc:0.04", "bsc:0.08", "bsc:0.12"]}, 7),
        # rpa's kernel changes with the channel kind, so blocks stop where the kind does
        ({"decoder": "rpa", "channels": ["bsc:0.08", "awgn:0.8", "bsc:0.1"]}, 5),
        # blocks hold two or three points of 61 trials each
        ({"decoder": "dumer", "channels": ["bsc:0.02", "bec:0.3", "bec:0.4", "bec:0.5"]}, 150),
    ],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_blocks_straddling_sweep_points_match_per_trial_loop(over, block_rows, workers, monkeypatch):
    config = config_from_dict({"m": 4, "r": 2, "trials": 61, "seed": 9, "max_errors_to_log": 6} | over)
    want = [reference_point(config, p) for p in range(len(config.channels))]
    monkeypatch.setattr(sim, "BLOCK_CELLS", block_rows * config.params.n)
    points = run_simulation(config, workers=workers)
    assert [(pt.bit_err, pt.blk_err, pt.error_trials) for pt in points] == want


def test_error_log_cap_reached_across_a_block_boundary(monkeypatch):
    config = config_from_dict({"m": 4, "r": 2, "decoder": "dumer-list:4", "trials": 61, "seed": 3,
                               "channels": ["bsc:0.04", "bsc:0.12"], "max_errors_to_log": 4})
    want = [reference_point(config, p) for p in range(len(config.channels))]
    block_rows = 3
    # point 1's logged failures fall in more than one block, and it fails more often than the cap
    first = [(config.trials + t) // block_rows for t in want[1][2]]
    assert len(want[1][2]) == config.max_errors_to_log < want[1][1] and first[0] != first[-1]
    monkeypatch.setattr(sim, "BLOCK_CELLS", block_rows * config.params.n)
    for workers in (1, 2):
        points = run_simulation(config, workers=workers)
        assert [(pt.bit_err, pt.blk_err, pt.error_trials) for pt in points] == want


def test_block_streams_take_per_row_points_across_the_key_mask():
    config = config_from_dict({"m": 5, "r": 2, "decoder": "dumer", "channels": ["awgn:1"], "trials": 1,
                               "seed": -7})
    point = np.array([0xFFFE, 0xFFFF, 0x10000, 0x10001, 0x1FFFF, 3], dtype=np.uint64)
    trial = np.array([sim.MAX_TRIALS - 1, sim.MAX_TRIALS, 0, sim.MAX_TRIALS + 2, 5, 1 << 40], dtype=np.uint64)
    bits, u = sim._streams(config, point, trial)
    p, t = point.tolist(), trial.tolist()
    keys = [[sim._stream_key(config.seed, p[i], t[i], tag) for i in range(len(p))] for tag in (0, 1)]
    k, n = config.params.k, config.params.n
    assert np.array_equal(bits, np.stack([channel._rng(key).integers(0, 2, size=k) for key in keys[0]]))
    assert np.array_equal(u, np.stack([channel._rng(key).random(n) for key in keys[1]]))


# ---- hard input: only rows outside the kernel's radius reach it ----
# The harness counts zero errors for a hard row within distance w of its
# codeword c with 2 w < d (w = 0 for bw) without decoding it, which is exact
# because each hard-input kernel returns c for every such row
# (test_decoders_hard checks the radii).


def hard_cases(max_m):
    """Every (id, m, r) a hard-input kernel accepts on the BSC, m <= max_m."""
    cases = []
    for decoder_id in ("reed", "sakkour", "bw", "rpa"):
        for m in range(1, max_m + 1):
            for r in range(m + 1):
                with contextlib.suppress(ConfigError):
                    resolve_block_decoder(decoder_id, rmcode.CodeParams(m, r), "bsc", False)
                    cases.append((decoder_id, m, r))
    return cases


@pytest.mark.parametrize("decoder_id,m,r", hard_cases(6))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_hard_kernels_return_codewords_unchanged(decoder_id, m, r, data):
    params = rmcode.CodeParams(m, r)
    kind, block_fn = resolve_block_decoder(decoder_id, params, "bsc", False)
    messages = data.draw(st.lists(st.integers(0, (1 << params.k) - 1), min_size=1, max_size=3))
    bits = np.array([[(x >> i) & 1 for i in range(params.k)] for x in messages], dtype=np.uint8)
    codewords = rmcode.encode_rows(params, bits)
    assert kind == "hard"
    assert np.array_equal(block_fn(codewords.copy()), codewords)


def recording_kernels(monkeypatch, calls):
    """Patch the harness's kernels to append each block they receive to calls."""
    resolve = sim.resolve_block_decoder

    def recording(*args):
        kind, fn = resolve(*args)
        return kind, lambda words: calls.append(words.copy()) or fn(words)

    monkeypatch.setattr(sim, "resolve_block_decoder", recording)


def outside_radius(decoder_id, params, c, w):
    """Whether hard word w reaches decoder_id's kernel: 2 dist(w, c) >= d,
    or for bw, which is not bounded-distance, dist >= 1."""
    dist = int(np.count_nonzero(w != c))
    return dist >= 1 if decoder_id == "bw" else 2 * dist >= params.d


@pytest.mark.parametrize("decoder_id,m,r", [("reed", 4, 2), ("reed", 5, 1), ("sakkour", 4, 2),
                                            ("rpa", 4, 2), ("rpa", 5, 3), ("bw", 4, 2)])
def test_hard_kernel_receives_exactly_the_rows_outside_its_radius(decoder_id, m, r, monkeypatch):
    # BSC, BEC and AWGN points, blocks straddling points: the kernel sees
    # exactly the rows at 2 dist >= d from c (dist >= 1 for bw), and the
    # counts equal the row-by-row loop's
    config = config_from_dict({"m": m, "r": r, "decoder": decoder_id, "trials": 61, "seed": 4, "hard": True,
                               "max_errors_to_log": 5,
                               "channels": ["bsc:0.03", "bsc:0", "bsc:0.12", "awgn:0.8", "bec:0.2"]})
    sent = [(c, w) for p in range(len(config.channels)) for c, w in reference_words(config, p)]
    far = [w for c, w in sent if outside_radius(decoder_id, config.params, c, w)]
    changed = [w for c, w in sent if (w != c).any()]
    assert 0 < len(far) < len(sent)
    assert decoder_id == "bw" or len(far) < len(changed)  # the radius skips rows with flips
    calls = []
    recording_kernels(monkeypatch, calls)
    monkeypatch.setattr(sim, "BLOCK_CELLS", 50 * config.params.n)  # blocks straddle points
    points = run_simulation(config)
    assert np.array_equal(np.concatenate(calls), np.array(far))
    want = [reference_point(config, p) for p in range(len(config.channels))]
    assert [(pt.bit_err, pt.blk_err, pt.error_trials) for pt in points] == want


def test_every_hard_input_id_has_a_reach():
    # the harness reads HARD_REACH for every id that can decode hard input
    hard_ids = {name for name, (kind, _) in sim.DECODER_RULES.items() if kind in ("hard", "both")}
    assert set(sim.HARD_REACH) == hard_ids
    for d in (1, 2, 4, 8, 64):
        assert [sim.HARD_REACH[name](d) for name in ("reed", "sakkour", "rpa", "bw")] == [-(-d // 2)] * 3 + [1]


@pytest.mark.parametrize("decoder_id", ["reed", "sakkour", "bw", "rpa"])
def test_noiseless_hard_sweep_calls_no_kernel(decoder_id, monkeypatch):
    config = config_from_dict({"m": 4, "r": 2, "decoder": decoder_id, "trials": 300, "seed": 2,
                               "channels": ["bsc:0", "bsc:0"], "max_errors_to_log": 5})
    calls = []
    recording_kernels(monkeypatch, calls)
    points = run_simulation(config)
    assert calls == []
    assert [(pt.bit_err, pt.blk_err, pt.error_trials) for pt in points] == [(0, 0, ())] * 2


@pytest.mark.parametrize(
    "over",
    [
        {"decoder": "reed", "channels": ["bec:0.3", "awgn:0.9"], "hard": True},
        {"decoder": "rpa", "channels": ["awgn:1.0", "bec:0.25"], "hard": True},
        {"decoder": "reed", "channels": ["bsc:0.01", "bsc:0.05", "bsc:0", "bsc:0.12"]},
        {"decoder": "sakkour", "channels": ["bsc:0.02", "bsc:0.06", "bsc:0.1"]},
        {"decoder": "bw", "channels": ["bsc:0.02", "bsc:0.08"]},
        {"decoder": "rpa", "channels": ["bsc:0.03", "bsc:0.1"]},
    ],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_hard_sweeps_equal_row_by_row_replay_csv(over, workers, monkeypatch):
    config = config_from_dict({"m": 4, "r": 2, "trials": 97, "seed": 11, "max_errors_to_log": 8} | over)
    n, trials = config.params.n, config.trials
    want = []
    for p, spec in enumerate(config.channels):
        b, e, logged = reference_point(config, p)
        want.append(sim.SimPoint(spec, trials, b, e, b / (trials * n), e / trials,
                                 *sim.wilson_interval(e, trials), 0.0, logged))
    monkeypatch.setattr(sim, "BLOCK_CELLS", 40 * n)  # several blocks, some straddling points
    points = run_simulation(config, workers=workers)
    assert sim.csv_report(config, points) == sim.csv_report(config, want)
    assert [pt.error_trials for pt in points] == [pt.error_trials for pt in want]


# ---- soft input: clean rows above the floor skip the kernel ----
# A soft row is clean when every L_z has the sign of 1 - 2 c_z and the
# r-fold llr_of_sum chain from its smallest |L| stays above n 2^-40; the
# harness counts zero errors for it without decoding it, which is exact
# because every soft kernel returns a clean codeword unchanged (the sim
# docstring).


def ref_clean(params, L, c):
    """The clean-row rule on one row, in Python floats."""
    signed = [x if b == 0 else -x for x, b in zip(L.tolist(), c.tolist())]
    g = min(signed)
    if not g > 0:
        return False
    for _ in range(params.r):
        g = channel.llr_of_sum(g, g)
    return g > params.n * 2.0**-40


@lru_cache(maxsize=None)
def clean_floor(m, r):
    """The smallest equal magnitude of a clean row of RM(m, r), by bisection on the rule."""
    params, lo, hi = rmcode.CodeParams(m, r), 0.0, channel.LLR_SATURATION
    zero = np.zeros((1, params.n), np.uint8)
    for _ in range(80):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if sim._clean_rows(params, np.full((1, params.n), mid), zero)[0] else (mid, hi)
    return hi


def clean_rows(params, style, rows, rng):
    """Random codewords with clean LLRs: every magnitude at the floor
    ("equal"), log-uniform from the floor to the saturation ("loguniform"),
    or log-uniform with about 5% of the entries at the floor ("mixed")."""
    c = rmcode.encode_rows(params, rng.integers(0, 2, (rows, params.k)))
    f = clean_floor(params.m, params.r)
    mag = np.exp(rng.uniform(math.log(f), math.log(channel.LLR_SATURATION), c.shape))
    if style == "equal":
        mag[:] = f
    elif style == "mixed":
        mag[rng.random(c.shape) < 0.05] = f
    return c, (1.0 - 2.0 * c) * np.maximum(mag, f)


# codes per soft id, m <= 8, kept small where the kernel is slow
LIST_CODES = [(m, r) for m in range(1, 9) for r in range(m + 1) if m <= 6 or r <= 3]
CLEAN_CODES = {
    "dumer": [(m, r) for m in range(1, 9) for r in range(m + 1)],
    "dumer-list:4": LIST_CODES,
    "dumer-list:16": LIST_CODES,
    "rpa": [(m, r) for m in range(1, 8) for r in range(1, min(m, 3) + 1) if m <= 6 or r <= 2],
    "rpa-chase:3": [(4, 2), (5, 2), (5, 3), (6, 2)],
    "ml": [(m, r) for m in range(1, 7) for r in range(m + 1) if rmcode.CodeParams(m, r).k <= 16],
    "fht": [(m, 1) for m in range(1, 9)],
}


@pytest.mark.parametrize("decoder_id", sorted(CLEAN_CODES))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), style=st.sampled_from(["equal", "loguniform", "mixed"]), seed=st.integers(0, 2**32 - 1))
def test_soft_kernels_return_clean_codewords_unchanged(decoder_id, data, style, seed):
    # the contract the soft skip rests on, from the floor up; -k "ml or
    # chase" picks the ml and rpa-chase cases for CI's two-BLAS-thread step
    m, r = data.draw(st.sampled_from(CLEAN_CODES[decoder_id]))
    params = rmcode.CodeParams(m, r)
    c, L = clean_rows(params, style, 4, np.random.default_rng(seed))
    assert sim._clean_rows(params, L, c).all()
    assert [ref_clean(params, row, word) for row, word in zip(L, c)] == [True] * len(L)
    kind, fn = resolve_block_decoder(decoder_id, params, "awgn", False)
    assert kind == "soft"
    assert np.array_equal(fn(L.copy()), c)


@pytest.mark.parametrize("m,r,mag", [(8, 4, 0.01), (8, 3, 1e-4)])
def test_floor_rejects_the_rows_dumer_moves(m, r, mag):
    # at these magnitudes llr_of_sum's chain reaches 0 and Dumer moves clean
    # codewords; the rule decodes every such row
    params = rmcode.CodeParams(m, r)
    c, _ = clean_rows(params, "equal", 20, np.random.default_rng(m + r))
    L = (1.0 - 2.0 * c) * mag
    assert not sim._clean_rows(params, L, c).any()
    assert not any(ref_clean(params, row, word) for row, word in zip(L, c))
    assert (resolve_block_decoder("dumer", params, "awgn", False)[1](L) != c).any(axis=1).sum() >= 10
    assert mag < clean_floor(m, r)


@pytest.mark.parametrize("m,r,mag", [(8, 3, 0.012), (8, 3, 0.014), (8, 4, 0.01)])
def test_floor_rejects_the_rows_dumer_list_moves(m, r, mag):
    # here the zero-order leaf's input, r llr_of_sum steps down, is 0: both
    # bits tie and the list's prune drops the sent path; the rule decodes
    # every such row (at +-0.016 the u = 16 list moves none)
    params = rmcode.CodeParams(m, r)
    c, _ = clean_rows(params, "equal", 40, np.random.default_rng(m + r))
    L = (1.0 - 2.0 * c) * mag
    assert not sim._clean_rows(params, L, c).any()
    assert not any(ref_clean(params, row, word) for row, word in zip(L, c))
    assert (resolve_block_decoder("dumer-list:16", params, "awgn", False)[1](L) != c).any(axis=1).sum() >= 5
    assert mag < clean_floor(m, r)


def test_clean_rule_rejects_zero_wrong_signed_and_low_entries():
    params = rmcode.CodeParams(4, 2)
    c = rmcode.encode_rows(params, np.random.default_rng(0).integers(0, 2, (1, params.k)))
    base = (1.0 - 2.0 * c) * 3.0
    bad = [base.copy() for _ in range(4)]
    bad[0][0, 5] = 0.0
    bad[1][0, 5] = -0.0
    bad[2][0, 5] *= -1e-3
    bad[3][0, 5] = base[0, 5] * clean_floor(4, 2) / 3.0 / 2
    L = np.concatenate([base, *bad])
    want = [True, False, False, False, False]
    assert sim._clean_rows(params, L, np.repeat(c, 5, axis=0)).tolist() == want
    assert [ref_clean(params, row, c[0]) for row in L] == want


SOFT_SWEEP = ["bsc:0.03", "bsc:0.12", "bsc:0", "bec:0.05", "bec:0.3", "awgn:0.45", "awgn:0.8"]


@pytest.mark.parametrize("decoder_id,m,r", [
    ("dumer", 4, 2), ("rpa", 4, 2), ("rpa-chase:1", 4, 2), ("ml", 4, 2), ("fht", 4, 1), ("dumer-list:4", 4, 2),
])
def test_soft_kernel_receives_exactly_the_rows_that_are_not_clean(decoder_id, m, r, monkeypatch):
    # BSC, BEC and AWGN points, blocks straddling points of one kind: the
    # kernel sees exactly the rows that are not clean (rpa's BSC rows are
    # hard words, clean inside the radius: 2 dist < d), and the counts
    # equal the row-by-row loop's
    config = config_from_dict({"m": m, "r": r, "decoder": decoder_id, "trials": 41, "seed": 6,
                               "channels": SOFT_SWEEP, "max_errors_to_log": 5})
    want_rows, sent = [], 0
    for p, spec in enumerate(config.channels):
        hard = resolve_decoder(decoder_id, config.params, spec.kind, False)[0] == "hard"
        for c, w in reference_words(config, p):
            sent += 1
            if outside_radius(decoder_id, config.params, c, w) if hard else not ref_clean(config.params, w, c):
                want_rows.append(w)
    assert 0 < len(want_rows) < sent
    calls = []
    recording_kernels(monkeypatch, calls)
    monkeypatch.setattr(sim, "BLOCK_CELLS", 30 * config.params.n)
    points = run_simulation(config)
    assert np.array_equal(np.concatenate(calls), np.array(want_rows))
    want = [reference_point(config, p) for p in range(len(config.channels))]
    assert [(pt.bit_err, pt.blk_err, pt.error_trials) for pt in points] == want


def test_a_block_with_no_clean_row_reaches_the_kernel_uncopied(monkeypatch):
    # a one-point block's LLR array is the kernel's input itself
    config = config_from_dict({"m": 4, "r": 2, "decoder": "dumer", "trials": 20, "seed": 1,
                               "channels": ["awgn:3"]})
    made, seen = [], []
    llr, resolve = channel.llr, sim.resolve_block_decoder

    def recording(*args):
        kind, fn = resolve(*args)
        return kind, lambda words: seen.append(any(words is x for x in made)) or fn(words)

    monkeypatch.setattr(channel, "llr", lambda *args: made.append(llr(*args)) or made[-1])
    monkeypatch.setattr(sim, "resolve_block_decoder", recording)
    monkeypatch.setattr(sim, "_clean_rows", lambda params, Ls, c: np.zeros(len(Ls), bool))
    run_simulation(config)
    assert seen == [True]


# ---- the RPA family against copies of its per-word loops ----
# The public single-word RPA decoders are now blocks of one over the block
# kernels, so the references are the loops those decoders ran before.


def ref_tables(m):
    n = 1 << m
    half = n // 2
    mem0 = np.empty((n - 1, half), dtype=np.intp)
    mem1 = np.empty((n - 1, half), dtype=np.intp)
    cos = np.empty((n - 1, n), dtype=np.intp)
    xorb = np.empty((n - 1, n), dtype=np.intp)
    jp = np.arange(half)
    j = np.arange(n)
    for b in range(1, n):
        h = b.bit_length() - 1
        rep = ((jp >> h) << (h + 1)) | (jp & ((1 << h) - 1))
        mem0[b - 1] = rep
        mem1[b - 1] = rep ^ b
        cos[b - 1] = ref.coset_index_map(m, b)
        xorb[b - 1] = j ^ b
    return mem0, mem1, cos, xorb


def ref_order2_tables(m):
    """The order-2 tables as built before their closed form: pair0, pair1,
    lift, words, signs."""
    n = 1 << m
    half = n // 2
    mem0, mem1, cos, _ = ref_tables(m)
    u = np.arange(half)

    def bit(z: int) -> np.ndarray:
        return (np.bitwise_count(u & (cos[:, z : z + 1] ^ (half - 1))) & 1).astype(np.intp)

    const = bit(n - 1)
    lift = const << m
    for i in range(m):
        lift |= (bit((n - 1) ^ (1 << i)) ^ const) << i
    words = np.concatenate([_parity_table(m), _parity_table(m) ^ 1])
    return mem0[:, ::-1].T, mem1[:, ::-1].T, lift, words, 1.0 - 2.0 * words


def ref_rpa_bsc(params, y, n_max=3, rounds=None):
    """The per-word hard loop; appends the rounds it ran to `rounds`."""
    m, r = params.m, params.r
    y = np.asarray(y, dtype=np.uint8)
    if r == 1:
        return fht_decode_words(1.0 - 2.0 * y.astype(np.float64))
    n = params.n
    mem0, mem1, cos, xorb = ref_tables(m)
    rows = np.arange(n - 1)[:, None]
    for done in range(1, n_max + 1):
        proj = y[mem0] ^ y[mem1]
        if r == 2:
            dec = fht_decode_words(1.0 - 2.0 * proj.astype(np.float64))
        else:
            sub = rmcode.CodeParams(m - 1, r - 1)
            dec = np.stack([ref_rpa_bsc(sub, proj[i], n_max) for i in range(n - 1)])
        est = dec[rows, cos] ^ y[xorb]
        new = (2 * est.sum(axis=0) > (n - 1)).astype(np.uint8)
        if np.array_equal(new, y):
            if rounds is not None:
                rounds.append(done)
            return new
        y = new
    if rounds is not None:
        rounds.append(n_max + 1)  # no fixed point within n_max rounds
    return y


def ref_rpa_llr(params, L, n_max=3):
    m, r = params.m, params.r
    L = np.asarray(L, dtype=np.float64)
    if r == 1:
        return fht_decode_words(L)
    n = params.n
    mem0, mem1, cos, xorb = ref_tables(m)
    rows = np.arange(n - 1)[:, None]
    for _ in range(n_max):
        proj = channel.llr_of_sum(L[mem0], L[mem1])
        if r == 2:
            dec = fht_decode_words(proj)
        else:
            sub = rmcode.CodeParams(m - 1, r - 1)
            dec = np.stack([ref_rpa_llr(sub, proj[i], n_max) for i in range(n - 1)])
        tilde = 1.0 - 2.0 * dec[rows, cos]
        L = (tilde * L[xorb]).sum(axis=0) / (n - 1)
    return (L < 0).astype(np.uint8)


def ref_chase(params, decode_fn, L, t, ties=None):
    """The per-word Chase loop over the codeword candidates, keeping the
    unperturbed word when none is a codeword; counts in `ties` a winner
    whose metric a different later codeword candidate equals."""
    pos = np.argsort(np.abs(L), kind="stable")[:t]
    lmax = 2.0 * float(np.abs(L).max())
    inputs = [L.copy()]
    for mask in range(1 << t):
        Lp = L.copy()
        for b in range(t):
            Lp[pos[b]] = -lmax if (mask >> b) & 1 else lmax
        inputs.append(Lp)
    words = [np.asarray(decode_fn(Lc), dtype=np.uint8) for Lc in inputs]
    best, best_metric, scored = words[0], -np.inf, []
    for cand in words:
        if not rmcode.is_codeword(params, cand):
            continue
        metric = soft_metric(cand, L)
        scored.append((metric, cand))
        if metric > best_metric:
            best, best_metric = cand, metric
    if ties is not None:
        ties.append(any(mt == best_metric and not np.array_equal(c, best) for mt, c in scored))
    return best


def bsc_llrs(params, rows, p, mag, rng):
    G = rmcode.generator_matrix(params)
    c = (rng.integers(0, 2, size=(rows, params.k)) @ G) & 1
    y = c ^ (rng.random(c.shape) < p)
    return mag * (1.0 - 2.0 * y)


@pytest.mark.parametrize("m,r", [(2, 2), (3, 2), (4, 2), (5, 2), (7, 2), (3, 3), (4, 3), (5, 3), (6, 3), (4, 4)])
@settings(max_examples=8, deadline=None)
@given(style=st.sampled_from(STYLES), rows=st.integers(1, 4), n_max=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_rpa_kernels_equal_word_loops(m, r, style, rows, n_max, seed):
    params = rmcode.CodeParams(m, r)
    L = block_llrs(params, style, rows, np.random.default_rng(seed))
    got = rpa_mod.rpa_llr_codewords(params, L, n_max)
    assert got.dtype == np.uint8
    assert np.array_equal(got, np.array([ref_rpa_llr(params, row, n_max) for row in L]))
    y = channel.hard_decision(L)
    assert np.array_equal(rpa_mod.rpa_bsc_codewords(params, y, n_max),
                          np.array([ref_rpa_bsc(params, row, n_max) for row in y]))


def test_rpa_kernels_reject_negative_rounds():
    params = rmcode.CodeParams(4, 2)
    with pytest.raises(ValueError, match="n_max >= 0"):
        rpa_mod.rpa_decode_llr(params, np.ones(16), -1)
    with pytest.raises(ValueError, match="n_max >= 0"):
        rpa_mod.rpa_bsc_codewords(params, np.zeros((2, 16), dtype=np.uint8), -5)
    # zero rounds stay valid: the hard decision, and the input word
    L = np.linspace(-1.0, 1.0, 16)
    assert np.array_equal(rpa_mod.rpa_decode_llr(params, L, 0), (L < 0).astype(np.uint8))
    y = (np.arange(16) % 3 == 0).astype(np.uint8)
    assert np.array_equal(rpa_mod.rpa_decode_bsc(params, y, 0), y)


@pytest.mark.parametrize("m", range(2, 11))
def test_tables_equal_reference_copies(m):
    # m >= 8 catches a parity left in uint8, where c << m wraps
    n, half = 1 << m, 1 << (m - 1)
    _, _, cos, xorb = ref_tables(m)
    pair0, pair1, lift, words, signs = ref_order2_tables(m)
    fcos = cos + half * np.arange(n - 1)[:, None]
    # uncached: m = 10 holds 48 MB
    got = (*rpa_mod._gathers.__wrapped__(m), rpa_mod._fcos.__wrapped__(m), *rpa_mod._affine.__wrapped__(m))
    for g, want in zip(got, (pair0, pair1, xorb, fcos, lift, words, signs), strict=True):
        assert g.dtype == want.dtype and np.array_equal(g, want)


@pytest.mark.parametrize("m,r", [(5, 2), (10, 2), (6, 3), (5, 4)])
def test_rpa_builds_only_the_tables_its_levels_read(m, r, monkeypatch):
    # every level reads the gathers, a level at r >= 3 reads fcos, and the
    # r = 2 level each recursion ends in reads the affine tables; at m = 10
    # the unread fcos would be 8 MB
    built = []

    def recording(name):
        build = getattr(rpa_mod, name).__wrapped__

        @lru_cache(maxsize=None)
        def cached(k):
            built.append((name, k))
            return build(k)

        return cached

    for name in ("_gathers", "_fcos", "_affine"):
        monkeypatch.setattr(rpa_mod, name, recording(name))
    params = rmcode.CodeParams(m, r)
    rpa_mod.rpa_llr_codewords(params, np.ones((1, params.n)), 1)
    rpa_mod.rpa_bsc_codewords(params, np.ones((1, params.n), dtype=np.uint8), 1)
    order2 = m - r + 2  # the r = 2 level's m
    want = [("_gathers", k) for k in range(order2, m + 1)] + [("_fcos", k) for k in range(order2 + 1, m + 1)]
    assert sorted(built) == sorted(want + [("_affine", order2)])


@pytest.mark.parametrize("m", range(2, 8))
def test_order2_tables_equal_brute_force(m):
    # every first-order verdict (u, c) on projection b, expanded to n
    # coordinates through the coset map, looked up among the 2n affine words
    n, half = 1 << m, 1 << (m - 1)
    tables = rpa_mod._gathers(m) + rpa_mod._affine(m)
    pair0, pair1, _, lift, words, signs = tables
    mem0, mem1, cos, _ = ref_tables(m)
    affine = [ref.linear_word(m, v, c) for c in (0, 1) for v in range(n)]
    assert np.array_equal(words, np.stack(affine)) and np.array_equal(signs, 1.0 - 2.0 * words)
    row_of = {w.tobytes(): i for i, w in enumerate(affine)}
    for b in range(1, n):
        assert np.array_equal(pair0[:, b - 1], mem0[b - 1, ::-1])
        assert np.array_equal(pair1[:, b - 1], mem1[b - 1, ::-1])
        for u in range(half):
            for c in (0, 1):
                lifted = ref.linear_word(m - 1, u, c)[cos[b - 1]]
                assert row_of[lifted.tobytes()] == lift[b - 1, u] ^ (c * n)
    if m == 7:  # the benchmark's RM(7,2)
        assert sum(t.nbytes for t in tables) < 1 << 20


@pytest.mark.parametrize("t", [0, 2])
def test_chase_kernel_equals_word_loop_on_the_benchmark_code(t):
    params = rmcode.CodeParams(7, 2)
    rng = np.random.default_rng(70 + t)
    L = np.concatenate([bsc_llrs(params, 3, 0.05, 2.2, rng), block_llrs(params, "awgn", 2, rng)])
    want = np.array([ref_chase(params, lambda x: ref_rpa_llr(params, x), row, t) for row in L])
    assert np.array_equal(rpa_mod.chase_codewords(params, L, t), want)


@pytest.mark.parametrize("m,r,exhausted", [(5, 2, True), (5, 3, False)])
def test_hard_rpa_rows_stop_in_different_rounds(m, r, exhausted):
    params = rmcode.CodeParams(m, r)
    rng = np.random.default_rng(31)
    # clean words stop after one round, noisy ones later or never
    y = np.concatenate([channel.hard_decision(bsc_llrs(params, 6, p, 1.0, rng)) for p in (0.0, 0.03, 0.25, 0.5)])
    for n_max in (1, 2, 3, 5):
        rounds = []  # per row: the round it stopped in, n_max + 1 if none
        want = np.array([ref_rpa_bsc(params, row, n_max, rounds) for row in y])
        assert np.array_equal(rpa_mod.rpa_bsc_codewords(params, y, n_max), want)
        assert {1, 2} <= set(rounds)
        if n_max > 1:
            assert (n_max + 1 in rounds) == exhausted


@pytest.mark.parametrize("m", [5, 6])
def test_hard_rpa_sign_leaf_equals_float_leaf(monkeypatch, m):
    # the r = 1 leaf decodes int8 signs; patched to the float image it
    # decodes 1.0 - 2.0 * word, the leaf's earlier input
    params = rmcode.CodeParams(m, 2)
    rng = np.random.default_rng(90 + m)
    y = np.concatenate([channel.hard_decision(bsc_llrs(params, 16, p, 1.0, rng)) for p in (0.0, 0.05, 0.2, 0.5)])
    rounds = []
    want = np.array([ref_rpa_bsc(params, row, 3, rounds) for row in y])
    assert {1, 4} <= set(rounds)  # rows stopping at once and rows never reaching a fixed point
    got = rpa_mod.rpa_bsc_codewords(params, y)
    assert np.array_equal(got, want)
    monkeypatch.setattr(rpa_mod, "hard_signs", lambda words: 1.0 - 2.0 * words)
    assert np.array_equal(rpa_mod.rpa_bsc_codewords(params, y), got)


@pytest.mark.parametrize("t", [0, 1, 3])
@pytest.mark.parametrize("mag", [1.0, 2.2, 40.0])
def test_chase_kernel_equals_word_loop_on_tied_bsc_llrs(t, mag):
    params = rmcode.CodeParams(5, 2)
    L = bsc_llrs(params, 40, 0.08, mag, np.random.default_rng(int(10 * mag) + t))
    ties = []
    want = np.array([ref_chase(params, lambda x: ref_rpa_llr(params, x), row, t, ties) for row in L])
    if t:
        assert any(ties)  # the first-maximum rule decides some trials
    assert np.array_equal(rpa_mod.chase_codewords(params, L, t), want)


@pytest.mark.parametrize("t", [1, 3])
def test_chase_kernel_equals_word_loop_on_rounded_llrs(t):
    # several tied magnitudes: the stable sort picks the positions
    params = rmcode.CodeParams(5, 2)
    L = block_llrs(params, "rounded", 30, np.random.default_rng(40 + t))
    want = np.array([ref_chase(params, lambda x: ref_rpa_llr(params, x), row, t) for row in L])
    assert np.array_equal(rpa_mod.chase_codewords(params, L, t), want)


def test_rpa_blocks_span_chunks(monkeypatch):
    params = rmcode.CodeParams(5, 2)
    rng = np.random.default_rng(12)
    L = np.concatenate([bsc_llrs(params, 20, 0.08, 2.2, rng), block_llrs(params, "awgn", 19, rng)])
    y = channel.hard_decision(L)
    monkeypatch.setattr(rpa_mod, "_CELLS", 16 * (params.n - 1) * params.n)  # chunks of 16, 16 and 7 rows
    want = (
        np.array([ref_rpa_llr(params, row) for row in L]),
        np.array([ref_rpa_bsc(params, row) for row in y]),
        np.array([ref_chase(params, lambda x: ref_rpa_llr(params, x), row, 3) for row in L]),
    )

    def run():
        return (rpa_mod.rpa_llr_codewords(params, L), rpa_mod.rpa_bsc_codewords(params, y),
                rpa_mod.chase_codewords(params, L, 3))

    for got, w in zip(run(), want):
        assert np.array_equal(got, w)
    # chunks of 2 RPA rows and 5 Chase candidates: a trial's 8 perturbed
    # candidates straddle chunks
    monkeypatch.setattr(rpa_mod, "_CELLS", 5 * params.n)
    for got, w in zip(run(), want):
        assert np.array_equal(got, w)


def test_rpa_kernels_reject_bad_blocks():
    params = rmcode.CodeParams(4, 2)
    for kernel in (rpa_mod.rpa_llr_codewords, rpa_mod.rpa_bsc_codewords):
        with pytest.raises(ValueError):
            kernel(params, np.zeros(16))
        with pytest.raises(ValueError):
            kernel(params, np.zeros((2, 8)))
        with pytest.raises(ValueError):
            kernel(rmcode.CodeParams(4, 0), np.zeros((2, 16)))
    with pytest.raises(ValueError):
        rpa_mod.chase_codewords(params, np.zeros((2, 16)), 17)


# ---- the Chase rule against a copy of the block loop it replaced ----
# _chase now decodes a trial's perturbed candidates only when its
# unperturbed word misses the hard decision; the reference decodes and
# scores all 2^t + 1 candidates of every trial.


def ref_chase_inputs(Ls, pos, lmax, trial, cand):
    rows = Ls[trial]
    hit = np.flatnonzero(cand)
    bits = ((cand[hit, None] - 1) >> np.arange(pos.shape[1])) & 1
    mag = lmax[trial[hit]][:, None]
    rows[hit[:, None], pos[trial[hit]]] = np.where(bits, -mag, mag)
    return rows


def ref_chase_rows(params, decode_rows, Ls, t):
    """Every trial's 2^t + 1 candidates, decoded and scored in order; only
    codewords score, and a trial with none keeps its unperturbed word."""
    T, n = Ls.shape
    mag = np.abs(Ls)
    pos = np.argsort(mag, axis=1, kind="stable")[:, :t]
    lmax = 2.0 * mag.max(axis=1)
    K = (1 << t) + 1
    best = np.empty(Ls.shape, dtype=np.uint8)
    best_metric = [-np.inf] * T
    for rows in rpa_mod._chunks(T * K, n):
        trial, cand = np.divmod(np.arange(rows.start, rows.stop), K)
        words = decode_rows(ref_chase_inputs(Ls, pos, lmax, trial, cand))
        signs = 1.0 - 2.0 * words
        for i, (tr, c) in enumerate(zip(trial.tolist(), cand.tolist())):
            if c == 0:
                best[tr] = words[i]
            if not rmcode.is_codeword(params, words[i]):
                continue
            metric = 0.5 * float(np.dot(signs[i], Ls[tr]))
            if metric > best_metric[tr]:
                best[tr], best_metric[tr] = words[i], metric
    return best


def chase_rows(params, style, rows, rng):
    if style == "tied":  # two magnitudes: sort ties and metric ties
        x = 1.0 - 2.0 * rmcode.encode_rows(params, rng.integers(0, 2, size=(rows, params.k)))
        flips = rng.random(x.shape) < rng.uniform(0.0, 0.2)
        return np.where(flips, -x, x) * rng.choice([1.0, 2.0], size=x.shape)
    if style in ("flat", "half"):  # the certificate's near ties, and d/2 - 1 to d/2 + 1 BSC errors
        return certificate_rows(params, "flat" if style == "flat" else "bsc", rows, rng)
    return block_llrs(params, style, rows, rng)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mr=st.sampled_from([(4, 2), (5, 2), (5, 3), (6, 2)]),
       style=st.sampled_from(["bsc", "awgn", "rounded", "zeros", "tied", "flat", "half"]),
       scale=st.sampled_from([1.0, 1e-300, 1e-310]),
       t=st.integers(0, 4), decoder=st.sampled_from(["rpa", "dumer"]),
       chunk=st.sampled_from([1, 3, 5, None]), rows=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_chase_skip_equals_full_candidate_loop(mr, style, scale, t, decoder, chunk, rows, seed):
    # chunk: candidate rows per _chase chunk (None keeps _CELLS), so a
    # trial's candidates straddle chunks; scale 1e-310 puts every entry
    # among the subnormals, where the certificate's slack must still hold
    params = rmcode.CodeParams(*mr)
    L = chase_rows(params, style, rows, np.random.default_rng(seed)) * scale
    block = rpa_mod.rpa_llr_codewords if decoder == "rpa" else dumer_mod.dumer_codewords
    cells = rpa_mod._CELLS if chunk is None else chunk * params.n
    with mock.patch.object(rpa_mod, "_CELLS", cells):
        want = ref_chase_rows(params, lambda x: block(params, x), L, t)
        got = rpa_mod._chase(params, lambda x: block(params, x), L, t)
        if decoder == "rpa":
            assert np.array_equal(rpa_mod.chase_codewords(params, L, t), want)
    assert got.dtype == np.uint8 and np.array_equal(got, want)


@pytest.mark.parametrize("mr", [(4, 2), (5, 2), (6, 2)])
def test_chase_certificate_skip_holds_on_near_tie_rows(mr):
    # rows a few ulps from a tie between the sent codeword and another: a
    # certificate without its slack settles some of them, and then another
    # codeword candidate's np.dot metric beats w0's (seen with slack 0)
    params = rmcode.CodeParams(*mr)
    L = near_flat_rows(params, 300, np.random.default_rng(mr[0] * 10 + mr[1]))

    def decode(rows):
        return rpa_mod.rpa_llr_codewords(params, rows)

    assert np.array_equal(rpa_mod._chase(params, decode, L, 2), ref_chase_rows(params, decode, L, 2))


def test_chase_settles_criterion_9_traffic():
    # RM(5,2) at bsc:0.032, criterion 9's point: over 95% of trials keep
    # their unperturbed word without decoding the 2^3 perturbed ones, most
    # of them through the distance certificate (the hard-decision rule
    # alone settles about 36%)
    params = rmcode.CodeParams(5, 2)
    rng = np.random.default_rng(9)
    x = 1.0 - 2.0 * rmcode.encode_rows(params, rng.integers(0, 2, size=(4000, params.k)))
    L = np.where(rng.random(x.shape) < 0.032, -x, x) * math.log(0.968 / 0.032)
    decoded = []

    def decode(rows):
        decoded.append(len(rows))
        return rpa_mod.rpa_llr_codewords(params, rows)

    got = rpa_mod._chase(params, decode, L, 3)
    live = (sum(decoded) - len(L)) // 8
    assert live <= 0.05 * len(L)
    assert np.array_equal(got, ref_chase_rows(params, lambda rows: rpa_mod.rpa_llr_codewords(params, rows), L, 3))


def test_chase_keeps_the_unperturbed_word_when_every_metric_is_nan():
    # +-1e308 alternating: 2 max|L| overflows to inf and every candidate
    # scores NaN; a NaN entry makes every metric NaN too.  Each trial then
    # keeps its unperturbed word (the full loop left its row unassigned)
    params = rmcode.CodeParams(5, 2)
    L = np.tile([-1e308, 1e308], 16)[None]
    nan = np.ones((1, params.n))
    nan[0, 5] = np.nan
    for row in (L, nan, np.concatenate([L, nan, L])):
        with np.errstate(all="ignore"):
            got = rpa_mod.chase_codewords(params, row, 3)
            w0 = rpa_mod.rpa_llr_codewords(params, row)
        assert got.dtype == np.uint8 and np.array_equal(got, w0)


# ---- reed, sakkour and ml against copies of their per-word paths ----
# The references are the per-word bodies these decoders ran before their
# block kernels.  Each returns the Message, which result_for must read
# back from the kernel's word.


def ref_reed(params, y, ties=None):
    """The per-word majority loop; counts in `ties` the votes that split
    exactly at the threshold."""
    m, r, n = params.m, params.r, params.n
    work = np.asarray(y, dtype=np.uint8).copy()
    coeffs = {}
    for t in range(r, -1, -1):
        layer_word = 0
        threshold = 1 if t == m else 1 << (m - t - 1)
        for a in (a for a in rmcode.monomials(params) if a.bit_count() == t):
            coords = np.array([[n - 1 - p for p in coset] for coset in rmcode.cosets_of_subspace(a, m)])
            num1 = int(np.bitwise_xor.reduce(work[coords], axis=1).sum())
            if ties is not None and t < m:
                ties.append(num1 == threshold)
            if num1 >= threshold:
                coeffs[a] = 1
                layer_word ^= ref.eval_monomial_packed(a, m)
        if layer_word:
            work ^= gf2.unpack_bits(layer_word, n)
    return rmcode.Message(params, coeffs)


def linear_coeffs(m, u, u0):
    """Coefficients of u0 + sum_i u_i x_i, u in point encoding (bit m-i = u_i)."""
    coeffs = {1 << (i - 1): 1 for i in range(1, m + 1) if (u >> (m - i)) & 1}
    if u0:
        coeffs[0] = 1
    return coeffs


def ref_sakkour(m, y, ties=None):
    """The per-word derivative decoder; counts in `ties` the directions
    whose majority had more than one maximal count."""
    params = rmcode.CodeParams(m, 2)
    n = params.n
    y = np.asarray(y, dtype=np.uint8)
    J = np.arange(n)
    xor = J[:, None] ^ J[None, :]
    D = ref.transform_peak(1.0 - 2.0 * (y[None, :] ^ y[xor]))[1]
    votes = D[xor] ^ D[None, :]
    counts = np.bincount((votes + n * np.arange(n)[:, None]).ravel(), minlength=n * n).reshape(n, n)
    if ties is not None:
        ties.extend((counts == counts.max(axis=1, keepdims=True)).sum(axis=1) > 1)
    Dstar = np.argmax(counts, axis=1)
    col_words = np.empty((m, n), dtype=np.float64)
    for i in range(1, m + 1):
        col_words[i - 1] = 1.0 - 2.0 * ((Dstar[J ^ (n - 1)] >> (m - i)) & 1)
    col_u = ref.transform_peak(col_words)[1]
    quad = {}
    for i in range(1, m + 1):
        u = int(col_u[i - 1])
        for j in range(1, m + 1):
            if j != i:
                quad[(1 << (i - 1)) | (1 << (j - 1))] = (u >> (m - j)) & 1
    deg2 = rmcode.Message(params, {a: v for a, v in quad.items() if v})
    lin_spec, u = ref.transform_peak(1.0 - 2.0 * (y ^ rmcode.encode(deg2)))
    u = int(u)
    return rmcode.Message(params, deg2.coeffs | linear_coeffs(m, u, 1 if lin_spec[u] < 0 else 0))


@lru_cache(maxsize=None)
def codebook_signs(params):
    """All 2^k codewords as +/-1 integer rows, by message index."""
    idx = np.arange(1 << params.k)
    return 1 - 2 * rmcode.encode_rows(params, oracle_mod._index_bits(params.k, idx)).astype(np.int64)


def ml_maxima(params, L):
    """Indices of every codeword of maximal exact correlation with L: per
    codeword the math.fsum of its +/-L products."""
    signed = codebook_signs(params) * np.asarray(L, dtype=np.float64)
    scores = np.array([math.fsum(row) for row in signed.tolist()])
    return np.flatnonzero(scores == scores.max())


def ref_ml(params, L):
    """The exhaustive search, exact, ties to the smallest index (lexicographic coefficients)."""
    best = int(ml_maxima(params, L)[0])
    k = params.k
    order = rmcode.monomials(params)
    return rmcode.Message(params, {order[row]: 1 for row in range(k) if (best >> (k - 1 - row)) & 1})


def noisy_words(params, rows, rng, code=None):
    """Codewords of `code` (default params) plus errors of every weight up
    to n/2, many of them at the majority ties."""
    code = code or params
    c = rmcode.encode_rows(code, rng.integers(0, 2, size=(rows, code.k)))
    weights = rng.integers(0, params.n // 2 + 1, size=rows)
    errors = rng.random(c.shape).argsort(axis=1) < weights[:, None]
    return c ^ errors.astype(np.uint8)


def assert_same_result(res, msg, L):
    c = rmcode.encode(msg)
    assert np.array_equal(res.codeword, c) and res.codeword.dtype == np.uint8
    assert res.message == msg
    assert res.metric == soft_metric(c, L)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 6), rows=st.integers(1, 9), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_reed_kernel_equals_word_loop(m, rows, seed, data):
    params = rmcode.CodeParams(m, data.draw(st.integers(0, m)))
    y = noisy_words(params, rows, np.random.default_rng(seed))
    got = reed_mod.reed_codewords(params, y)
    assert got.dtype == np.uint8 and got.shape == y.shape
    msgs = [ref_reed(params, row) for row in y]
    assert np.array_equal(got, np.array([rmcode.encode(msg) for msg in msgs]))
    for row, word, msg in zip(y, got, msgs):
        assert_same_result(result_for(params, word, hard_input_llr(row)), msg, hard_input_llr(row))


@pytest.mark.parametrize("m,r", [(2, 0), (3, 1), (4, 0), (4, 1), (4, 2), (5, 2), (4, 4)])
def test_reed_kernel_on_tied_votes(m, r):
    params = rmcode.CodeParams(m, r)
    rng = np.random.default_rng(m * 10 + r)
    # error weight d/2 splits some votes exactly; uniform words split many
    d = params.d
    y = np.concatenate([noisy_words(params, 30, rng), rng.integers(0, 2, size=(30, params.n)).astype(np.uint8)])
    y[:10] = rmcode.encode_rows(params, rng.integers(0, 2, size=(10, params.k))) ^ (
        rng.random((10, params.n)).argsort(axis=1) < d // 2
    )
    ties = []
    want = np.array([rmcode.encode(ref_reed(params, row, ties)) for row in y])
    assert any(ties) or r == m
    assert np.array_equal(reed_mod.reed_codewords(params, y), want)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(2, 7), rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), uniform=st.booleans())
def test_sakkour_kernel_equals_word_loop(m, rows, seed, uniform):
    params = rmcode.CodeParams(m, 2)
    rng = np.random.default_rng(seed)
    if uniform:  # far from the code: majority ties are common
        y = rng.integers(0, 2, size=(rows, params.n)).astype(np.uint8)
    else:
        y = noisy_words(params, rows, rng)
    got = sakkour_mod.sakkour_codewords(m, y)
    assert got.dtype == np.uint8 and got.shape == y.shape
    msgs = [ref_sakkour(m, row) for row in y]
    assert np.array_equal(got, np.array([rmcode.encode(msg) for msg in msgs]))
    for row, word, msg in zip(y, got, msgs):
        assert_same_result(result_for(params, word, hard_input_llr(row)), msg, hard_input_llr(row))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(m=st.integers(2, 8), rows=st.integers(0, 4), style=st.sampled_from(["noisy", "uniform", "zeros"]),
       dtype=st.sampled_from([np.uint8, np.int8, np.int64, np.float64]), seed=st.integers(0, 2**32 - 1))
def test_sakkour_column_layout_equals_the_row_layout_reference(m, rows, style, dtype, seed):
    # ref_sakkour decodes in the row layout through reference_structure's
    # transform_peak; the kernel gathers its words as point-order columns
    params = rmcode.CodeParams(m, 2)
    rng = np.random.default_rng(seed)
    if style == "uniform":  # majority and peak ties are common
        y = rng.integers(0, 2, size=(rows, params.n)).astype(np.uint8)
    else:
        y = noisy_words(params, rows, rng)
        if style == "zeros":
            y[rng.random(rows) < 0.5] = 0
    want = np.array([rmcode.encode(ref_sakkour(m, row)) for row in y], dtype=np.uint8).reshape(y.shape)
    got = sakkour_mod.sakkour_codewords(m, y.astype(dtype))
    assert got.dtype == np.uint8 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [4, 5])
def test_sakkour_kernel_on_tied_majorities(m):
    # (below m = 4 random words gave no majority ties in 500 tries)
    rng = np.random.default_rng(70 + m)
    n = 1 << m
    y = np.concatenate([rng.integers(0, 2, size=(40, n)).astype(np.uint8),
                        noisy_words(rmcode.CodeParams(m, 2), 20, rng)])
    ties = []
    want = np.array([rmcode.encode(ref_sakkour(m, row, ties)) for row in y])
    assert any(ties)
    assert np.array_equal(sakkour_mod.sakkour_codewords(m, y), want)


def bsc_words(params, rows, p, rng):
    """Random codewords through a BSC with crossover probability p."""
    c = rmcode.encode_rows(params, rng.integers(0, 2, size=(rows, params.k)))
    return c ^ (rng.random(c.shape) < p).astype(np.uint8)


@pytest.mark.parametrize("p", [0.0, 0.02, 0.05, 0.1, 0.2, 0.5])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_sakkour_kernel_on_bsc_blocks(m, p):
    rows = 12 if m < 7 else 6
    y = bsc_words(rmcode.CodeParams(m, 2), rows, p, np.random.default_rng(100 * m + int(100 * p)))
    ties = []
    want = np.array([rmcode.encode(ref_sakkour(m, row, ties)) for row in y])
    if p == 0.5 and m >= 5:
        assert any(ties)
    assert np.array_equal(sakkour_mod.sakkour_codewords(m, y), want)


def test_sakkour_blocks_span_chunks(monkeypatch):
    cells = sakkour_mod._CELLS
    for m, p in [(4, None), (6, 0.2), (7, 0.5)]:
        n = 1 << m
        params = rmcode.CodeParams(m, 2)
        rng = np.random.default_rng(77 + m)
        y = noisy_words(params, 7, rng) if p is None else bsc_words(params, 7, p, rng)
        want = np.array([rmcode.encode(ref_sakkour(m, row)) for row in y])
        monkeypatch.setattr(sakkour_mod, "_CELLS", cells)
        assert np.array_equal(sakkour_mod.sakkour_codewords(m, y), want)
        monkeypatch.setattr(sakkour_mod, "_CELLS", 3 * n * n - 1)  # chunks of 2, 2, 2, 1 rows
        assert np.array_equal(sakkour_mod.sakkour_codewords(m, y), want)


@pytest.mark.parametrize("m,r", [(1, 0), (1, 1), (3, 0), (3, 1), (3, 3), (4, 2)])
@settings(max_examples=6, deadline=None)
@given(style=st.sampled_from(STYLES), rows=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_ml_kernel_equals_word_search(m, r, style, rows, seed):
    params = rmcode.CodeParams(m, r)
    L = block_llrs(params, style, rows, np.random.default_rng(seed))
    got = oracle_mod.ml_codewords(params, L)
    assert got.dtype == np.uint8 and got.shape == L.shape
    msgs = [ref_ml(params, row) for row in L]
    assert np.array_equal(got, np.array([rmcode.encode(msg) for msg in msgs]))
    for row, word, msg in zip(L, got, msgs):
        assert_same_result(result_for(params, word, row), msg, row)


def test_ml_kernel_over_codebook_blocks(monkeypatch):
    # RM(4,2) has 2^3 head rows of 2^8 tail words each.  The cell caps give
    # one (trial, head row) per product and one trial per search, head rows
    # in chunks of 3, 3 and 2, and two whole trials per product: exact ties
    # fall across head-row chunks and the first of them must still win
    params = rmcode.CodeParams(4, 2)
    L = np.concatenate([block_llrs(params, style, 6, np.random.default_rng(90)) for style in STYLES])
    assert sum(len(set(ml_maxima(params, row) >> 8)) > 1 for row in L) >= 5
    want = np.array([rmcode.encode(ref_ml(params, row)) for row in L])
    for cells in (1, 3 * 256, 20 * 256):
        monkeypatch.setattr(oracle_mod, "_CELLS", cells)
        assert np.array_equal(oracle_mod.ml_codewords(params, L), want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mr=st.sampled_from([(3, 0), (3, 1), (4, 2), (5, 1), (5, 2), (6, 1)]),
       mag=st.sampled_from([math.log(0.95 / 0.05), math.log(0.92 / 0.08), 2.2, 40.0]),
       style=st.sampled_from(["bsc", "chase", "bec", "zeros"]),
       rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_ml_equals_integer_agreement_argmax(mr, mag, style, rows, seed):
    # sign-quantized rows L = mag * w with integer w: the ML word maximizes
    # the integer correlation, and ties go to the smallest message index
    params = rmcode.CodeParams(*mr)
    rng = np.random.default_rng(seed)
    x = 1 - 2 * rmcode.encode_rows(params, rng.integers(0, 2, size=(rows, params.k))).astype(np.int64)
    w = np.where(rng.random(x.shape) < rng.uniform(0.0, 0.35), -x, x)  # BSC flips
    if style == "chase":  # +-2 max|L| at up to three positions, as rpa-chase perturbs
        for row in w:
            pos = rng.choice(params.n, size=min(3, params.n), replace=False)
            row[pos] = 2 * rng.choice([-1, 1], size=pos.size)
    elif style == "bec":
        w[rng.random(x.shape) < rng.uniform(0.2, 1.0)] = 0
    elif style == "zeros":
        w[rng.random(x.shape) < 0.9] = 0
    want = codebook_signs(params)[np.argmax(w @ codebook_signs(params).T, axis=1)]
    got = oracle_mod.ml_codewords(params, mag * w)
    assert np.array_equal(1 - 2 * got.astype(np.int64), want)


def test_ml_rescores_near_ties(monkeypatch):
    # multiples of 0.1 are not integer multiples of one unit, so these rows
    # keep the rounding bound, and sums such as 0.1 + 0.2 against 0.3 differ
    # in the last bits only: their near candidates are rescored exactly
    params = rmcode.CodeParams(4, 2)
    L = 0.1 * np.random.default_rng(91).integers(-3, 4, size=(40, params.n))
    rescored = []
    fsum_scores = oracle_mod._fsum_scores
    monkeypatch.setattr(oracle_mod, "_fsum_scores", lambda *args: rescored.append(1) or fsum_scores(*args))
    got = oracle_mod.ml_codewords(params, L)
    assert len(rescored) >= 5
    assert np.array_equal(got, np.array([rmcode.encode(ref_ml(params, row)) for row in L]))


def float32_rows(params, style, rng):
    """Rows outside what a float32 copy holds exactly: every one is on the
    rounding-bound path, and every style but the scaled AWGN ones is tie-heavy."""
    c, c2 = (rmcode.encode_rows(params, rng.integers(0, 2, size=(12, params.k))) for _ in range(2))
    x = 1.0 - 2.0 * c
    # half the positions where c and c2 differ flipped: both are at equal distance
    diff = c ^ c2
    rank = np.where(diff == 1, rng.random(x.shape), 2.0).argsort(axis=1).argsort(axis=1)
    flipped = np.where(rank < diff.sum(axis=1, keepdims=True) // 2, -x, x)
    if style == "pm1":  # ties in float32 but not in float64
        return flipped + 1e-7 * rng.normal(size=x.shape)
    if style == "int":  # integers summing past 2^24 with exact ties
        L = flipped * (3 << 22)
        L[:, 0] += 1
        return L
    return (x + rng.normal(size=x.shape)) * float(style)  # beyond float32's range


@pytest.mark.parametrize("mr", [(3, 1), (4, 2), (5, 1)])
@pytest.mark.parametrize("style", ["1e39", "1e300", "1e-45", "1e-300", "int", "pm1"])
def test_ml_float32_range_and_rounding_bound(mr, style, monkeypatch):
    params = rmcode.CodeParams(*mr)
    L = float32_rows(params, style, np.random.default_rng(92))
    X32, eps = oracle_mod._in_units(L)
    assert (eps > 0).all()
    top = np.abs(X32).max(axis=1)  # scaled by powers of two into [0.5, 1)
    assert ((top >= 0.5) & (top <= 1.0)).all()
    rescored = []
    fsum_scores = oracle_mod._fsum_scores
    monkeypatch.setattr(oracle_mod, "_fsum_scores",
                        lambda p, idx, row: rescored.append(row.dtype) or fsum_scores(p, idx, row))
    got = oracle_mod.ml_codewords(params, L)
    assert np.array_equal(got, np.array([rmcode.encode(ref_ml(params, row)) for row in L]))
    assert all(dtype == np.float64 for dtype in rescored)  # never the float32 copy
    if style == "pm1":
        # the float32 copy ties several words that the float64 row does not
        signs = codebook_signs(params).astype(np.float32)
        ties = [(s == s.max()).sum() > 1 for s in signs @ L.astype(np.float32).T]
        assert sum(ties) >= 3 and all(len(ml_maxima(params, row)) == 1 for row in L)
    if style in ("int", "pm1"):
        assert len(rescored) >= 3
    else:  # AWGN rows seldom come within the bound of a tie
        assert len(rescored) <= 2


def test_ml_kernel_at_k22():
    # RM(6,2), k = 22: up to 7 flips of +-1 LLRs decode back, an all-zero row ties
    # everywhere and gives index 0, and a lone +1 picks the first word with a 0 there
    params = rmcode.CodeParams(6, 2)
    rng = np.random.default_rng(22)
    c = rmcode.encode_rows(params, rng.integers(0, 2, size=(4, params.k)))
    flips = rng.random(c.shape).argsort(axis=1) < np.array([[0], [3], [5], [7]])
    L = np.concatenate([1.0 - 2.0 * (c ^ flips), np.zeros((1, 64)), np.eye(64)[[9]]])
    got = oracle_mod.ml_codewords(params, L)
    assert np.array_equal(got[:4], c)
    assert not got[4:].any()


def test_ml_constant_row_is_the_last_generator_row():
    # the half tail factor scores word 2c + 1 as the negated word 2c, which
    # holds only while the last generator row is all ones (r = 0: k = 1 and
    # the tail spans no rows)
    for m in range(1, 9):
        for r in range(m + 1):
            params = rmcode.CodeParams(m, r)
            if params.k > 24:
                continue
            assert rmcode.generator_matrix(params)[-1].all()
            tail = oracle_mod._sign_codebook(params)
            assert tail.shape == (1 << (oracle_mod._tail_rows(params) - 1), params.n)
            assert tail.flags.c_contiguous
            head = oracle_mod._head_signs(params)
            for factor in (tail, head):  # the products run in float32
                assert factor.dtype == np.float32 and factor.flags.c_contiguous


def pair_rows(params, style, rows, rng):
    """LLR rows that stress the pair b = 2c, 2c + 1 of the half product."""
    msg = rng.integers(0, 2, size=(rows, params.k))
    msg[:, -1] = 1  # odd message indices: complement words of the even ones
    x = 1.0 - 2.0 * rmcode.encode_rows(params, msg)
    n = params.n
    if style == "odd":  # fewer than d/2 flips: the odd word itself wins
        flips = rng.random(x.shape).argsort(axis=1) < rng.integers(0, (params.d + 1) // 2, size=(rows, 1))
        return np.where(flips, -x, x) * rng.choice([1.0, 2.2, 40.0])
    if style == "coset":  # BEC rows that erase every point off an affine hyperplane
        masked = np.arange(n) & rng.integers(1, n, size=(rows, 1))
        dot = sum((masked >> h) & 1 for h in range(params.m)) & 1
        return np.where(dot == rng.integers(0, 2, size=(rows, 1)), 40.0 * x, 0.0)
    if style == "zeros":  # all-zero rows tie every pair at 0; mostly zero rows tie many
        L = np.where(rng.random(x.shape) < 0.9, 0.0, x)
        L[::2] = 0.0
        return L
    # "sum0": AWGN values and their negatives, one of them nudged by at most
    # an ulp: at r = 0 the pair's exact scores are 0 or +-(tiny), both within
    # 2 * eps of the top, and math.fsum decides
    a = rng.normal(size=(rows, (n + 1) // 2)) * rng.choice([1e-3, 1.0, 800.0])
    L = np.concatenate([a, -a], axis=1)[:, :n]
    nudge = rng.random(rows) < 0.7
    L[:, -1] = np.where(nudge, np.nextafter(L[:, -1], rng.choice([-np.inf, np.inf], size=rows)), L[:, -1])
    return rng.permuted(L, axis=1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mr=st.sampled_from([(1, 0), (3, 0), (5, 0), (2, 1), (3, 1), (4, 2), (5, 1), (6, 1)]),
       style=st.sampled_from(["odd", "coset", "zeros", "sum0"]),
       rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_ml_half_product_reads_both_signs(mr, style, rows, seed):
    params = rmcode.CodeParams(*mr)
    L = pair_rows(params, style, rows, np.random.default_rng(seed))
    rescored = []
    fsum_scores = oracle_mod._fsum_scores
    with mock.patch.object(oracle_mod, "_fsum_scores",
                           lambda p, idx, row: rescored.append(idx.tolist()) or fsum_scores(p, idx, row)):
        got = oracle_mod.ml_codewords(params, L)
    best = [int(ml_maxima(params, row)[0]) for row in L]
    assert np.array_equal(got, np.array([rmcode.encode(ref_ml(params, row)) for row in L]))
    if style == "odd":
        assert all(b & 1 for b in best)
    if style == "zeros":
        assert best[0] == 0 and not got[0].any()
    if style == "sum0" and params.r == 0 and params.m > 1:
        # both members of the pair reach the exact rescoring
        assert [0, 1] in rescored


ML_CODES = [(m, r) for m in range(1, 7) for r in range(m + 1) if rmcode.CodeParams(m, r).k <= 24]


def ml_search_only(params, L):
    """The exhaustive search on every row, with no certificate."""
    return rmcode.encode_rows(params, oracle_mod._index_bits(params.k, oracle_mod._ml_indices(params, L)))


def with_errors(params, weights, mag, rng):
    """Random codewords sent as +-mag LLRs with exactly weights[i] sign errors in row i."""
    x = 1.0 - 2.0 * rmcode.encode_rows(params, rng.integers(0, 2, size=(len(weights), params.k)))
    flips = rng.random(x.shape).argsort(axis=1) < np.asarray(weights)[:, None]
    return np.where(flips, -x, x) * mag


def near_flat_rows(params, rows, rng):
    """Rows on the edge of a tie between a codeword x, sent with delta < d/2
    sign errors (the set D), and x + w, w a weight-d monomial word holding D:
    the d - delta positions of w outside D carry magnitudes that sum to
    lambda = sum_D |L| up to a few ulps, so x + w scores within rounding of x
    (with delta = 0 they are tiny).  The certificate's LB is exactly that sum."""
    m, r, d = params.m, params.r, params.d
    x = rmcode.encode_rows(params, rng.integers(0, 2, size=(rows, params.k)))
    mag = rng.uniform(1.0, 3.0, size=x.shape)
    sign = 1.0 - 2.0 * x
    for i in range(rows):
        a = sum(1 << int(v) for v in rng.choice(m, size=r, replace=False))
        support = np.flatnonzero(ref.eval_monomial(a, m))
        D = rng.choice(support, size=rng.integers(0, (d + 1) // 2), replace=False)
        rest = np.setdiff1d(support, D)
        mag[i, D] = rng.uniform(0.2, 1.0, size=len(D))
        lam = mag[i, D].sum() if len(D) else 1e-20
        t = rng.dirichlet(np.ones(len(rest))) * lam
        direction = rng.choice([-np.inf, np.inf])
        for _ in range(rng.integers(0, 4)):
            t[-1] = np.nextafter(t[-1], direction)
        mag[i, rest] = t
        sign[i, D] *= -1
    return sign * mag


def certificate_rows(params, style, rows, rng):
    if style == "bsc":  # d/2 - 1, d/2 and d/2 + 1 errors
        weights = np.clip(params.d // 2 + rng.integers(-1, 2, size=rows), 0, params.n)
        return with_errors(params, weights, rng.choice([1.0, math.log(0.968 / 0.032), 40.0]), rng)
    if style == "flat":
        return near_flat_rows(params, rows, rng)
    return block_llrs(params, style, rows, rng)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mr=st.sampled_from(ML_CODES), style=st.sampled_from(["bsc", "flat", "awgn", "rounded", "zeros"]),
       scale=st.sampled_from([1.0, 1e300, 1e-300, 1e-310, 2.0**-1074]),
       rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_ml_certificate_equals_search_only(mr, style, scale, rows, seed):
    # AWGN rows at several sigma, rounded ones with exact ties and zeros;
    # scale 1e-310 and 2^-1074 put every entry among the subnormals (the
    # latter rounds each to an integer multiple of 2^-1074)
    params = rmcode.CodeParams(*mr)
    rng = np.random.default_rng(seed)
    L = certificate_rows(params, style, rows if params.k < 20 else 1, rng) * scale
    assert np.array_equal(oracle_mod.ml_codewords(params, L), ml_search_only(params, L))


@pytest.mark.parametrize("mr", ML_CODES)
def test_ml_certificate_settles_below_half_distance_only(mr):
    # a BSC row with fewer than d/2 errors always certifies; one with
    # exactly d/2 never does, whether Reed's word is the sent one or not.
    # Also at the top of float64's range, where sum|L| overflows unless
    # the row is scaled, and at the smallest subnormal
    params = rmcode.CodeParams(*mr)
    d = params.d
    rng = np.random.default_rng(params.n + params.r)
    for mag in (2.2, 1.7e308, 2.0**-1074):
        below = with_errors(params, rng.integers(0, (d + 1) // 2, size=20), mag, rng)
        with np.errstate(all="raise"):
            assert oracle_mod._certified(params, below)[1].all()
        if d % 2 == 0:
            half = with_errors(params, np.full(20, d // 2), mag, rng)
            assert not oracle_mod._certified(params, half)[1].any()


def test_ml_certificate_bound_reads_only_positions_outside_d():
    # RM(4,2), d = 4: one weak error (|L| = 0.5) next to two erasures.
    # Outside D the three smallest |L| are 0, 0 and 5 > 0.5, so the row
    # certifies; counting D's own 0.5 among them would not
    params = rmcode.CodeParams(4, 2)
    L = np.full((1, params.n), 5.0)
    L[0, :3] = [-0.5, 0.0, 0.0]
    words, certified = oracle_mod._certified(params, L)
    assert certified[0] and not words.any()


def test_ml_certificate_covers_criterion_9_traffic():
    # RM(5,2) at bsc:0.032, criterion 9's point: the fast path must carry
    # the traffic, not the search behind it
    params = rmcode.CodeParams(5, 2)
    rng = np.random.default_rng(9)
    x = 1.0 - 2.0 * rmcode.encode_rows(params, rng.integers(0, 2, size=(4000, params.k)))
    L = np.where(rng.random(x.shape) < 0.032, -x, x) * math.log(0.968 / 0.032)
    words, certified = oracle_mod._certified(params, L)
    assert certified.mean() >= 0.95
    got = oracle_mod.ml_codewords(params, L)
    assert np.array_equal(got[certified], words[certified])
    assert np.array_equal(got[~certified], ml_search_only(params, L[~certified]))


def sent_rows(params, spec, rows, rng):
    """Random codewords c and their channel output's LLRs under spec."""
    c = rmcode.encode_rows(params, rng.integers(0, 2, size=(rows, params.k)))
    out = channel.apply_noise(c, rng.random(c.shape), spec)
    return c, out, channel.llr(out, spec)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mr=st.sampled_from([mr for mr in ML_CODES if mr[0] <= 5]),
       spec=st.sampled_from(["bsc:0.02", "bsc:0.08", "bsc:0.2", "awgn:0.5", "awgn:0.9", "awgn:1.3"]),
       rows=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_ml_search_returns_every_distance_certified_word(mr, spec, rows, seed):
    # the search, with no certificate, returns every codeword the certificate
    # accepts for its row: the sent word, and Reed's word of the hard decision
    params = rmcode.CodeParams(*mr)
    sent, _, L = sent_rows(params, ChannelSpec.parse(spec), rows, np.random.default_rng(seed))
    for c in (sent, reed_mod.reed_codewords(params, channel.hard_decision(L))):
        certified = oracle_mod.distance_certified(params, L, c)
        if certified.any():
            assert np.array_equal(ml_search_only(params, L[certified]), c[certified])


def test_ml_certificate_accepts_the_sent_word_on_good_channels():
    # the property above has rows to check: at bsc:0.02 and awgn:0.5 on
    # RM(5,2) most rows certify their sent word
    params = rmcode.CodeParams(5, 2)
    for spec in ("bsc:0.02", "awgn:0.5"):
        sent, _, L = sent_rows(params, ChannelSpec.parse(spec), 200, np.random.default_rng(3))
        assert oracle_mod.distance_certified(params, L, sent).mean() > 0.5


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mr=st.sampled_from([mr for mr in ML_CODES if mr[0] <= 5]), p=st.sampled_from([0.05, 0.2, 0.4, 0.6]),
       rows=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_ml_returns_the_unique_erasure_solution_on_the_bec(mr, p, rows, seed):
    # where erasure_decode finds exactly one consistent codeword, the ml id
    # returns it; an ambiguous row has several ML words and is not compared
    params = rmcode.CodeParams(*mr)
    spec = ChannelSpec("bec", p)
    _, out, L = sent_rows(params, spec, rows, np.random.default_rng(seed))
    decode = resolve_block_decoder("ml", params, "bec", False)[1]
    for y, word in zip(out.data, decode(L)):
        solved = oracle_mod.erasure_decode(params, y)
        if not isinstance(solved, Ambiguous):
            assert np.array_equal(word, solved.codeword)


def test_reed_sakkour_ml_kernels_reject_bad_blocks():
    params = rmcode.CodeParams(4, 2)
    for kernel in (reed_mod.reed_codewords, oracle_mod.ml_codewords,
                   lambda p, x: sakkour_mod.sakkour_codewords(p.m, x)):
        with pytest.raises(ValueError):
            kernel(params, np.zeros(16))
        with pytest.raises(ValueError):
            kernel(params, np.zeros((2, 8)))
    with pytest.raises(ValueError):
        sakkour_mod.sakkour_codewords(1, np.zeros((2, 2)))
    with pytest.raises(rmcode.TooLarge):
        oracle_mod.ml_codewords(rmcode.CodeParams(8, 3), np.zeros((1, 256)))
    for m, r in [(5, 3), (5, 5), (6, 3), (6, 6)]:  # the guard comes before the finite check
        with pytest.raises(rmcode.TooLarge):
            oracle_mod.ml_codewords(rmcode.CodeParams(m, r), np.full((1, 1 << m), np.nan))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            oracle_mod.ml_codewords(params, np.where(np.arange(16) == 3, bad, 1.0)[None])
    assert oracle_mod.ml_codewords(params, np.zeros((0, 16))).shape == (0, 16)


def test_every_id_kernel_decodes_a_block():
    # one kernel per family: every id's kernel takes a (T, n) block at once,
    # and its row t is the kernel's block of one of row t
    rng = np.random.default_rng(5)
    for decoder_id, m, r in CASES:
        params = rmcode.CodeParams(m, r)
        kind, fn = resolve_block_decoder(decoder_id, params, "bsc", True)
        L = block_llrs(params, "bsc", 6, rng)
        words = channel.hard_decision(L) if kind == "hard" else L
        got = fn(words)
        assert got.dtype == np.uint8 and got.shape == words.shape
        assert np.array_equal(got, np.concatenate([fn(words[t:t + 1]) for t in range(len(words))]))


@pytest.mark.parametrize("bad", [2, -1, 0.5])
def test_hard_block_kernels_reject_non_binary_entries(bad):
    params = rmcode.CodeParams(4, 2)
    words = noisy_words(params, 3, np.random.default_rng(3))
    for kernel in (reed_mod.reed_codewords, rpa_mod.rpa_bsc_codewords,
                   lambda p, x: sakkour_mod.sakkour_codewords(p.m, x)):
        want = kernel(params, words)
        # any 0/1 dtype is read as the same words
        for dtype in (np.int64, np.float64, bool):
            assert np.array_equal(kernel(params, words.astype(dtype)), want)
        bad_rows = words.astype(type(bad))
        bad_rows[1, 5] = bad
        with pytest.raises(ValueError, match="hard word expected"):
            kernel(params, bad_rows)
        with pytest.raises(ValueError, match="expected rows of 16"):
            kernel(params, words[:, :15])


# ---- dumer-list against a copy of its build-then-prune recursion ----
# The list leaves used to build every candidate word and then prune to mu
# per trial; they now prune first and build the survivors only.  The
# reference is the old recursion, unchunked.


def ref_prune(bits, pens, parents, mu):
    T, Q = pens.shape
    if Q <= mu:
        return bits, pens, parents
    keep = np.argsort(pens, axis=1, kind="stable")[:, :mu]
    flat = (keep + Q * np.arange(T)[:, None]).ravel()
    return bits[flat], pens.ravel()[flat].reshape(T, mu), parents[flat]


def ref_full_leaf(Ls, pens):
    P, n = Ls.shape
    prow = np.arange(P)[:, None]
    hard = (Ls < 0).astype(np.uint8)
    mag = np.abs(Ls)
    base = pens + np.logaddexp(0.0, -mag).sum(axis=1)
    t = min(3, n)
    pos = np.argsort(mag, axis=1, kind="stable")[:, :t]
    combos = ((np.arange(1 << t)[:, None] >> np.arange(t)[None, :]) & 1).astype(np.float64)
    cand_pen = base[:, None] + mag[prow, pos] @ combos.T
    take = np.argsort(cand_pen, axis=1, kind="stable")[:, :4]
    K = take.shape[1]
    flips = np.zeros((P, K, n), dtype=np.uint8)
    flips[prow[:, :, None], np.arange(K)[None, :, None], pos[:, None, :]] = combos[take]
    rows = (hard[:, None, :] ^ flips).reshape(P * K, n)
    return rows, cand_pen[prow, take].ravel(), np.repeat(np.arange(P), K)


def ref_list_rec(m, r, Ls, pens, mu):
    T, P = pens.shape
    n = Ls.shape[1]
    if r == 0:
        pen0 = pens + np.logaddexp(0.0, -Ls).sum(axis=1).reshape(T, P)
        pen1 = pens + np.logaddexp(0.0, Ls).sum(axis=1).reshape(T, P)
        bits = np.zeros((T, 2, P, n), dtype=np.uint8)
        bits[:, 1] = 1
        parents = np.tile(np.arange(T * P).reshape(T, 1, P), (1, 2, 1))
        cand = np.concatenate([pen0, pen1], axis=1)
        return ref_prune(bits.reshape(-1, n), cand, parents.ravel(), mu)
    if r == m:
        bits, leaf_pens, parents = ref_full_leaf(Ls, pens.ravel())
        return ref_prune(bits, leaf_pens.reshape(T, -1), parents, mu)
    L0, L1 = Ls[:, 1::2], Ls[:, 0::2]
    vbits, vpens, vpar = ref_list_rec(m - 1, r - 1, channel.llr_of_sum(L0, L1), pens, mu)
    Lt = L0[vpar] + (1.0 - 2.0 * vbits) * L1[vpar]
    ubits, upens, upar = ref_list_rec(m - 1, r, Lt, vpens, mu)
    out = np.empty((ubits.shape[0], n), dtype=np.uint8)
    out[:, 1::2] = ubits
    out[:, 0::2] = ubits ^ vbits[upar]
    return out, upens, vpar[upar]


def ref_dumer_list(params, Ls, mu):
    T = len(Ls)
    bits, pens, _ = ref_list_rec(params.m, params.r, Ls, np.zeros((T, 1)), mu)
    return bits[np.argmin(pens, axis=1) + pens.shape[1] * np.arange(T)]


@pytest.mark.parametrize("m,r", [(3, 0), (3, 3), (4, 2), (5, 2), (6, 3)])
@pytest.mark.parametrize("mu", [1, 2, 3, 4, 16, None])
@pytest.mark.parametrize("style", ["bsc", "bec", "rounded", "awgn"])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_list_kernel_equals_build_then_prune_recursion(m, r, mu, style, rows, seed):
    params = rmcode.CodeParams(m, r)
    # None: an exhaustive list, 2^k, where the reference can hold it
    mu = mu or 1 << min(params.k, 11)
    L = block_llrs(params, style, rows, np.random.default_rng(seed))
    got = dumer_mod.dumer_list_codewords(params, L, mu)
    assert got.dtype == np.uint8
    assert np.array_equal(got, ref_dumer_list(params, L, mu))


@pytest.mark.parametrize("m", [0, 3, 5, 7])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(trials=st.integers(1, 5), paths=st.integers(1, 9), mu=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_zero_order_leaf_equals_reference_at_long_rows(m, trials, paths, mu, seed):
    # the leaf sums both bits' rows in one (T, 2, P, n) buffer; each row's
    # pairwise sum must match the reference's (T * P, n) sums, also where
    # numpy's pairwise summation unrolls (n >= 8), as in RM(8,3)'s leaves
    rng = np.random.default_rng(seed)
    Ls = rng.normal(scale=3.0, size=(trials * paths, 1 << m))
    pens = rng.exponential(size=(trials, paths))
    got, want = dumer_mod._list_rec(m, 0, Ls, pens, mu), ref_list_rec(m, 0, Ls, pens, mu)
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
               40.0, -40.0, 1e-300, 745.2, -745.2, 1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False),
                            st.floats(-50.0, 50.0)), min_size=1, max_size=40))
def test_list_leaf_softplus_splits_bit_for_bit(x):
    # the zero-order leaf scores both bits from one softplus: numpy's
    # logaddexp(0, x) is max(x, 0) + log1p(exp(-|x|)) in both of its branches
    x = np.array(x)
    E = dumer_mod._softplus(-np.abs(x))
    for s in (x, -x):
        assert np.array_equal((np.maximum(s, 0.0) + E).view(np.uint64), dumer_mod._softplus(s).view(np.uint64))
