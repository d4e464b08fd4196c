"""The harness's codeword-only kernels and the vectorized decoder pieces.

Each vectorized piece is checked bit for bit against a copy of the loop it
replaced, kept here as the reference.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlab import rmcode
from rmlab.decoders import (
    Undecodable,
    bw_codewords,
    chase_codewords,
    dumer_codewords,
    dumer_list_codewords,
    fht,
    ml_codewords,
    reed_codewords,
    rpa_bsc_codewords,
    rpa_llr_codewords,
    sakkour_codewords,
)
from rmlab.decoders import dumer as dumer_mod
from rmlab.decoders import sakkour as sakkour_mod
from rmlab.decoders.fht import fht_decode_words
from rmlab.sim import ConfigError, resolve_decoder

# ---- loop references: the code the vectorized versions replaced ----


def naive_fht(values):
    # O(n^2) double sum over array indices, pairing (-1)^{popcount(s & t)}
    n = len(values)
    return [sum(values[t] * (-1) ** ((s & t).bit_count() & 1) for t in range(n)) for s in range(n)]


def loop_fht(values):
    v = np.asarray(values)
    dtype = np.int64 if np.issubdtype(v.dtype, np.integer) else np.float64
    v = v.astype(dtype, copy=True)
    n = v.shape[0]
    h = 1
    while h < n:
        for start in range(0, n, 2 * h):
            a = v[start : start + h].copy()
            b = v[start + h : start + 2 * h]
            v[start : start + h] = a + b
            v[start + h : start + 2 * h] = a - b
        h *= 2
    return v


def loop_full_leaf(Ls, pens):
    P, n = Ls.shape
    hard = (Ls < 0).astype(np.uint8)
    mag = np.abs(Ls)
    base = pens + np.logaddexp(0.0, -mag).sum(axis=1)
    t = min(3, n)
    pos = np.argsort(mag, axis=1, kind="stable")[:, :t]
    combos = ((np.arange(1 << t)[:, None] >> np.arange(t)[None, :]) & 1).astype(np.float64)
    flip_cost = np.take_along_axis(mag, pos, axis=1) @ combos.T
    cand_pen = base[:, None] + flip_cost
    take = np.argsort(cand_pen, axis=1, kind="stable")[:, :4]
    rows, out_pens, parents = [], [], []
    for p in range(P):
        for combo_idx in take[p]:
            w = hard[p].copy()
            sel = combos[combo_idx].astype(bool)
            w[pos[p][sel]] ^= 1
            rows.append(w)
            out_pens.append(cand_pen[p, combo_idx])
            parents.append(p)
    return np.array(rows, dtype=np.uint8), np.array(out_pens), np.array(parents)


def counter_majority(D):
    n = D.size
    J = np.arange(n)
    Dstar = np.empty(n, dtype=np.int64)
    for b in range(n):
        votes = Counter(int(v) for v in D[J ^ b] ^ D)
        top = max(votes.values())
        Dstar[b] = min(u for u, cnt in votes.items() if cnt == top)
    return Dstar


# ---- fht ----


@pytest.mark.parametrize("shape", [(1,), (2,), (16,), (8, 3), (32, 2, 3), (4, 5, 0)])
def test_butterfly_matches_naive_transform(shape):
    rng = np.random.default_rng(sum(shape) + len(shape))
    ints = rng.integers(-50, 50, size=shape)
    got = fht(ints)
    assert got.dtype == np.int64
    cols = ints.reshape(shape[0], -1).T
    want = np.array([naive_fht(col.tolist()) for col in cols], dtype=np.int64).reshape(cols.shape).T.reshape(shape)
    assert np.array_equal(got, want)
    # integer-valued floats are exact in any summation order
    assert np.array_equal(fht(ints.astype(np.float64)), want.astype(np.float64))


@settings(max_examples=60, deadline=None)
@given(
    lead=st.lists(st.integers(1, 3), max_size=2),
    log_n=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
    ints=st.booleans(),
)
def test_butterfly_bit_identical_to_slice_loop(lead, log_n, seed, ints):
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + (1 << log_n,)
    x = rng.integers(-9, 9, size=shape) if ints else rng.normal(scale=5.0, size=shape)
    x = x[..., ::-1].T  # callers pass reversed, transposed views
    got, want = fht(x), loop_fht(x)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, x)


@pytest.mark.parametrize("shape", [(64, 127), (16, 31, 4), (256, 1), (2, 300)])
def test_butterfly_bit_identical_to_slice_loop_on_many_rows(shape):
    x = np.random.default_rng(len(shape)).normal(scale=5.0, size=shape)
    assert fht(x).tobytes() == loop_fht(x).tobytes()


def test_butterfly_leaves_input_untouched():
    x = np.arange(8, dtype=np.float64)
    fht(x)
    assert np.array_equal(x, np.arange(8))


@pytest.mark.parametrize("shape", [(8, 1), (1, 8), (8, 3)])
def test_butterfly_returns_a_fresh_c_order_array(shape):
    # the stages run on an (n, rest) reshape, which for C-order input is a view
    x = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
    got = fht(x)
    assert np.array_equal(x, np.arange(np.prod(shape)).reshape(shape))
    assert got.shape == shape and got.flags.c_contiguous and not np.shares_memory(got, x)


# ---- vectorized list leaf and Sakkour votes ----


def leaf_draw(style, trials, paths, n, rng):
    """(Ls, pens) for the full-code leaf: (trials * paths, n) LLRs and
    (trials, paths) path penalties."""
    shape = (trials * paths, n)
    if style == "tied":  # few distinct magnitudes and equal path penalties: many exact ties
        return rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], size=shape), np.full((trials, paths), 0.5)
    if style == "sum_ties":
        # base + (m1 + m2) against base + m3: equal sums (1 + 2 = 3), and
        # near 2^53, where base + 0.7 and base + 0.6 round alike
        Ls = rng.choice([-0.6, -0.7, -1.0, -2.0, -3.0, 0.3, 0.4, 1.0, 2.0, 3.0], size=shape)
        pens = rng.choice([0.0, 0.5, 2.0**52, 2.0**53, 3.0 * 2.0**52], size=(trials, paths))
        return Ls, pens
    if style == "zeros":  # zero magnitudes, both signs
        return rng.choice([0.0, -0.0, 0.0, 1.5, -2.5], size=shape), rng.choice([0.0, 1.0], size=(trials, paths))
    if style == "huge":  # up to the n * max|L| < 2^1020 that rmlab decode --llr enforces
        Ls = rng.uniform(-1.0, 1.0, size=shape) * 2.0 ** rng.integers(900, 1020, size=shape) / n
        return Ls, rng.uniform(0.0, 2.0**1019, size=(trials, paths))
    return rng.normal(scale=3.0, size=shape), rng.exponential(size=(trials, paths))


@settings(max_examples=120, deadline=None)
@given(
    trials=st.integers(2, 4),
    paths=st.integers(1, 6),
    log_n=st.integers(1, 4),
    mu=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    style=st.sampled_from(["normal", "tied", "sum_ties", "zeros", "huge"]),
)
def test_full_leaf_matches_loop(trials, paths, log_n, mu, seed, style):
    # the r == m leaf of the list recursion keeps, per trial, the mu
    # cheapest of loop_full_leaf's candidates under a stable sort, or all
    # of them in their own order when there are at most mu
    Ls, pens = leaf_draw(style, trials, paths, 1 << log_n, np.random.default_rng(seed))
    bits, kept, parents = dumer_mod._list_rec(log_n, log_n, Ls, pens, mu)
    K = len(bits) // trials
    assert bits.dtype == np.uint8 and kept.shape == (trials, K)
    for t in range(trials):
        rows, want_pens, want_par = loop_full_leaf(Ls[t * paths : (t + 1) * paths], pens[t])
        keep = np.argsort(want_pens, kind="stable")[:mu] if len(rows) > mu else np.arange(len(rows))
        got = slice(t * K, (t + 1) * K)
        assert np.array_equal(bits[got], rows[keep])
        assert np.array_equal(kept[t].view(np.uint64), want_pens[keep].view(np.uint64))
        assert np.array_equal(parents[got], want_par[keep] + t * paths)


@pytest.mark.parametrize(
    "mags,pen,fourth",
    [
        ([1.0, 2.0, 3.0, 9.0], 0.0, {0, 1}),  # m1 + m2 == m3: the pair, the earlier candidate
        ([1.0, 2.5, 3.0, 9.0], 0.0, {2}),
        ([0.3, 0.4, 0.6, 9.0], 2.0**53, {0, 1}),  # 0.7 > 0.6, yet base + 0.7 == base + 0.6
        ([0.3, 0.4, 0.6, 9.0], 0.0, {2}),
        ([0.0, 0.0, 0.0, 0.0], 0.0, {0, 1}),
    ],
)
def test_full_leaf_fourth_word_at_the_tie(mags, pen, fourth):
    # one path of RM(2,2), all bits 0; the fourth candidate flips the
    # positions in `fourth`, as loop_full_leaf's stable sort ranks them
    Ls = np.array([mags])
    bits, kept, _ = dumer_mod._list_rec(2, 2, Ls, np.array([[pen]]), 4)
    assert set(np.flatnonzero(bits[3])) == fourth
    rows, want_pens, _ = loop_full_leaf(Ls, np.array([pen]))
    assert np.array_equal(bits, rows) and np.array_equal(kept[0], want_pens)


@settings(max_examples=80, deadline=None)
@given(log_n=st.integers(1, 7), spread=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from([np.int64, np.int16]))
def test_sakkour_majority_matches_counter(log_n, spread, seed, dtype):
    n = 1 << log_n
    rng = np.random.default_rng(seed)
    # a small value range makes vote ties common
    D = rng.integers(0, min(spread, n), size=n).astype(dtype)
    J = np.arange(n)
    got = sakkour_mod._majority(D, J[:, None] ^ J[None, :])
    assert got.dtype == np.int64
    assert np.array_equal(got, counter_majority(D))


# ---- resolve_decoder's bindings against the family kernels ----
# No recorded CLI output covers fht, dumer, dumer-list, rpa or rpa-chase,
# so this is where a wrong binding of params, list size, t or input kind
# in sim._resolve shows up.


def family_codeword(decoder_id, params, kind):
    """word -> codeword: decoder_id's family kernel on a block of one."""
    name, _, arg = decoder_id.partition(":")
    m = params.m
    if name == "reed":
        return lambda y: reed_codewords(params, y[None])[0]
    if name == "fht":
        return fht_decode_words
    if name == "sakkour":
        return lambda y: sakkour_codewords(m, y[None])[0]
    if name == "dumer":
        return lambda L: dumer_codewords(params, L[None])[0]
    if name == "dumer-list":
        return lambda L: dumer_list_codewords(params, L[None], int(arg))[0]
    if name == "rpa":
        if kind == "hard":
            return lambda y: rpa_bsc_codewords(params, y[None])[0]
        return lambda L: rpa_llr_codewords(params, L[None])[0]
    if name == "rpa-chase":
        return lambda L: chase_codewords(params, L[None], int(arg))[0]
    if name == "bw":
        return lambda y: bw_codewords(params, y[None])[0]
    if name == "ml":
        return lambda L: ml_codewords(params, L[None])[0]
    raise AssertionError(decoder_id)


CASES = [
    ("reed", 4, 2), ("reed", 5, 3),
    ("fht", 4, 1), ("fht", 5, 1),
    ("sakkour", 4, 2), ("sakkour", 5, 2),
    ("dumer", 4, 2), ("dumer", 5, 2), ("dumer", 6, 3), ("dumer", 3, 0), ("dumer", 3, 3),
    ("dumer-list:1", 5, 2), ("dumer-list:4", 5, 2), ("dumer-list:16", 6, 3), ("dumer-list:8", 3, 3),
    ("rpa", 4, 2), ("rpa", 5, 2), ("rpa", 4, 1),
    ("rpa-chase:0", 4, 2), ("rpa-chase:3", 5, 2),
    ("bw", 4, 2), ("bw", 5, 1),
    ("ml", 4, 2), ("ml", 5, 1),
]


def channel_llrs(params, style, rng):
    """LLRs of a random codeword; all styles but 'awgn' are tie-heavy."""
    G = rmcode.generator_matrix(params)
    c = (rng.integers(0, 2, size=params.k) @ G) & 1
    x = 1.0 - 2.0 * c
    n = params.n
    if style == "bsc":  # +-mag LLRs, as channel.llr gives on the BSC
        flips = rng.random(n) < rng.uniform(0.0, 0.25)
        return np.where(flips, -x, x) * rng.choice([1.0, 2.2, 40.0])
    if style == "bec":  # +-40 or exact zero, as channel.llr gives on the BEC
        return np.where(rng.random(n) < rng.uniform(0.2, 1.0), 0.0, 40.0 * x)
    if style == "rounded":  # AWGN LLRs rounded to integers, exact zeros included
        sigma = rng.uniform(0.6, 1.4)
        return np.round(2.0 * (x + sigma * rng.normal(size=n)) / sigma**2)
    return 2.0 * (x + rng.uniform(0.5, 1.5) * rng.normal(size=n))


def outcome(fn, word):
    """The decoded word's bytes; for Undecodable, those of the hard word,
    which the block kernel keeps."""
    try:
        return np.asarray(fn(word), dtype=np.uint8).tobytes()
    except Undecodable:
        return word.tobytes()


@pytest.mark.parametrize("decoder_id,m,r", CASES)
@settings(max_examples=20, deadline=None)
@given(style=st.sampled_from(["bsc", "bec", "rounded", "awgn"]), seed=st.integers(0, 2**32 - 1))
def test_harness_kernel_equals_public_wrapper(decoder_id, m, r, style, seed):
    # resolve_decoder's single-word callable against family_codeword
    params = rmcode.CodeParams(m, r)
    L = channel_llrs(params, style, np.random.default_rng(seed))
    for channel_kind in ("bsc", "awgn"):
        try:
            kind, kernel = resolve_decoder(decoder_id, params, channel_kind, False)
        except ConfigError:  # hard-input decoder off the BSC
            continue
        word = (L < 0).astype(np.uint8) if kind == "hard" else L
        assert outcome(kernel, word) == outcome(family_codeword(decoder_id, params, kind), word)
