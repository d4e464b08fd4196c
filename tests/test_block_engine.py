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

from rmlab import channel, gf2, rmcode, sim
from rmlab.channel import ChannelSpec
from rmlab.decoders import Undecodable
from rmlab.decoders import dumer as dumer_mod
from rmlab.decoders import oracle as oracle_mod
from rmlab.decoders import reed as reed_mod
from rmlab.decoders import rpa as rpa_mod
from rmlab.decoders import sakkour as sakkour_mod
from rmlab.decoders.fht import fht_decode_words, linear_coeffs, transform_peak
from rmlab.decoders.types import hard_input_llr, soft_metric
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
        cos[b - 1] = rmcode.coset_index_map(m, b)
        xorb[b - 1] = j ^ b
    return mem0, mem1, cos, xorb


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


def ref_chase(decode_fn, L, t, ties=None):
    """The per-word Chase loop; counts in `ties` a winner whose metric a
    different later candidate word equals."""
    pos = np.argsort(np.abs(L), kind="stable")[:t]
    lmax = 2.0 * float(np.abs(L).max())
    inputs = [L.copy()]
    for mask in range(1 << t):
        Lp = L.copy()
        for b in range(t):
            Lp[pos[b]] = -lmax if (mask >> b) & 1 else lmax
        inputs.append(Lp)
    best, best_metric, scored = None, -np.inf, []
    for Lc in inputs:
        cand = np.asarray(decode_fn(Lc), dtype=np.uint8)
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


@pytest.mark.parametrize("m,r", [(4, 2), (5, 2), (5, 3), (6, 3)])
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


@pytest.mark.parametrize("t", [0, 1, 3])
@pytest.mark.parametrize("mag", [1.0, 2.2, 40.0])
def test_chase_kernel_equals_word_loop_on_tied_bsc_llrs(t, mag):
    params = rmcode.CodeParams(5, 2)
    L = bsc_llrs(params, 40, 0.08, mag, np.random.default_rng(int(10 * mag) + t))
    ties = []
    want = np.array([ref_chase(lambda x: ref_rpa_llr(params, x), row, t, ties) for row in L])
    if t:
        assert any(ties)  # the first-maximum rule decides some trials
    assert np.array_equal(rpa_mod.chase_codewords(params, L, t), want)
    for row, w in zip(L, want):
        res = rpa_mod.chase_list(lambda x: rpa_mod.rpa_decode_llr(params, x), row, t)
        assert np.array_equal(res.codeword, w) and res.metric == soft_metric(w, row)


@pytest.mark.parametrize("t", [1, 3])
def test_chase_kernel_equals_word_loop_on_rounded_llrs(t):
    # several tied magnitudes: the stable sort picks the positions
    params = rmcode.CodeParams(5, 2)
    L = block_llrs(params, "rounded", 30, np.random.default_rng(40 + t))
    want = np.array([ref_chase(lambda x: ref_rpa_llr(params, x), row, t) for row in L])
    assert np.array_equal(rpa_mod.chase_codewords(params, L, t), want)


def test_rpa_blocks_span_chunks(monkeypatch):
    params = rmcode.CodeParams(5, 2)
    rng = np.random.default_rng(12)
    L = np.concatenate([bsc_llrs(params, 20, 0.08, 2.2, rng), block_llrs(params, "awgn", 19, rng)])
    y = channel.hard_decision(L)
    assert len(L) > rpa_mod._CELLS // ((params.n - 1) * params.n)  # several chunks at the default cap
    want = (
        np.array([ref_rpa_llr(params, row) for row in L]),
        np.array([ref_rpa_bsc(params, row) for row in y]),
        np.array([ref_chase(lambda x: ref_rpa_llr(params, x), row, 3) for row in L]),
    )

    def run():
        return (rpa_mod.rpa_llr_codewords(params, L), rpa_mod.rpa_bsc_codewords(params, y),
                rpa_mod.chase_codewords(params, L, 3))

    for got, w in zip(run(), want):
        assert np.array_equal(got, w)
    # chunks of 2 RPA rows and 5 Chase candidates: a trial's 9 candidates
    # straddle chunks
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


# ---- reed, sakkour and ml against copies of their per-word paths ----
# The public reed_decode, sakkour_decode_order2 and ml_decode are now
# blocks of one over the block kernels, so the references are the
# per-word bodies those decoders ran before.  Each returns the Message.


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
                layer_word ^= rmcode.eval_monomial_packed(a, m)
        if layer_word:
            work ^= gf2.unpack_bits(layer_word, n)
    return rmcode.Message(params, coeffs)


def ref_sakkour(m, y, ties=None):
    """The per-word derivative decoder; counts in `ties` the directions
    whose majority had more than one maximal count."""
    params = rmcode.CodeParams(m, 2)
    n = params.n
    y = np.asarray(y, dtype=np.uint8)
    J = np.arange(n)
    xor = J[:, None] ^ J[None, :]
    D = transform_peak(1.0 - 2.0 * (y[None, :] ^ y[xor]))[1]
    votes = D[xor] ^ D[None, :]
    counts = np.bincount((votes + n * np.arange(n)[:, None]).ravel(), minlength=n * n).reshape(n, n)
    if ties is not None:
        ties.extend((counts == counts.max(axis=1, keepdims=True)).sum(axis=1) > 1)
    Dstar = np.argmax(counts, axis=1)
    col_words = np.empty((m, n), dtype=np.float64)
    for i in range(1, m + 1):
        col_words[i - 1] = 1.0 - 2.0 * ((Dstar[J ^ (n - 1)] >> (m - i)) & 1)
    col_u = transform_peak(col_words)[1]
    quad = {}
    for i in range(1, m + 1):
        u = int(col_u[i - 1])
        for j in range(1, m + 1):
            if j != i:
                quad[(1 << (i - 1)) | (1 << (j - 1))] = (u >> (m - j)) & 1
    deg2 = rmcode.Message(params, {a: v for a, v in quad.items() if v})
    lin_spec, u = transform_peak(1.0 - 2.0 * (y ^ rmcode.encode(deg2)))
    u = int(u)
    return rmcode.Message(params, deg2.coeffs | linear_coeffs(m, u, 1 if lin_spec[u] < 0 else 0))


def ref_ml(params, L):
    """The exhaustive search over the cached sign codebook."""
    k = params.k
    idx = np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)
    signs = 1.0 - 2.0 * (((idx & 1).astype(np.uint8) @ rmcode.generator_matrix(params)) & 1).astype(np.float64)
    best = int(np.argmax(signs @ np.asarray(L, dtype=np.float64)))
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
    for row, msg in zip(y, msgs):
        assert_same_result(reed_mod.reed_decode(params, row), msg, hard_input_llr(row))


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
@given(m=st.integers(2, 6), rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), uniform=st.booleans())
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
    for row, msg in zip(y, msgs):
        assert_same_result(sakkour_mod.sakkour_decode_order2(m, row), msg, hard_input_llr(row))


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


def test_sakkour_blocks_span_chunks(monkeypatch):
    m = 4
    n = 1 << m
    y = noisy_words(rmcode.CodeParams(m, 2), 7, np.random.default_rng(81))
    want = np.array([rmcode.encode(ref_sakkour(m, row)) for row in y])
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
    for row, msg in zip(L, msgs):
        assert_same_result(oracle_mod.ml_decode(params, row), msg, row)


def test_ml_kernel_over_codebook_blocks(monkeypatch):
    # past _CACHE_K the search runs block by block; ties keep the first block's word
    params = rmcode.CodeParams(4, 2)
    L = np.concatenate([block_llrs(params, style, 6, np.random.default_rng(90)) for style in STYLES])
    want = np.array([rmcode.encode(ref_ml(params, row)) for row in L])
    monkeypatch.setattr(oracle_mod, "_CACHE_K", 4)
    monkeypatch.setattr(oracle_mod, "_BLOCK", 1 << 5)
    assert np.array_equal(oracle_mod.ml_codewords(params, L), want)


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


def test_only_bw_runs_row_by_row():
    for decoder_id, m, r in CASES:
        batched = sim._resolve(decoder_id, rmcode.CodeParams(m, r), "bsc", True)[2]
        assert batched == (decoder_id != "bw")
