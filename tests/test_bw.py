import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlab import gf2, rmcode
from rmlab.decoders import bw as bw_mod
from rmlab.decoders.bw import bw_codewords, bw_decode
from rmlab.decoders.types import Undecodable

import reference_structure as ref


def random_message(params, rng):
    return rmcode.Message(params, {a: 1 for a in rmcode.monomials(params) if rng.integers(2)})


def correctable_as_erasures(m, r_n, coords):
    # a pattern is erasure-correctable iff the unerased generator columns
    # still span all k coefficient positions
    params_n = rmcode.CodeParams(m, r_n)
    cols = ref.transpose(rmcode.generator_rows(params_n), 1 << m)
    keep = [cols[j] for j in range(1 << m) if j not in coords]
    return gf2.rank(keep) == params_n.k


def test_zero_errors_roundtrip():
    rng = np.random.default_rng(71)
    for m, r in [(4, 0), (5, 0), (6, 1)]:
        code_c = rmcode.CodeParams(m, m - 2 * r - 2)
        for _ in range(5):
            c = rmcode.encode(random_message(code_c, rng))
            res = bw_decode(m, r, c)
            assert np.array_equal(res.codeword, c)


def test_single_errors_exhaustive_small():
    # every singleton is erasure-correctable in RM(4,3) (min weight 2)
    rng = np.random.default_rng(72)
    code_c = rmcode.CodeParams(4, 2)
    for _ in range(3):
        c = rmcode.encode(random_message(code_c, rng))
        for j in range(16):
            y = c.copy()
            y[j] ^= 1
            res = bw_decode(4, 0, y)
            assert np.array_equal(res.codeword, c), j


def test_screened_five_error_sets_recover_exactly():
    # m=6, r=1: decode RM(6,2) with the degree-4 code screening erasures
    rng = np.random.default_rng(73)
    code_c = rmcode.CodeParams(6, 2)
    done = 0
    while done < 20:
        coords = tuple(sorted(rng.choice(64, size=5, replace=False).tolist()))
        if not correctable_as_erasures(6, 4, coords):
            continue
        c = rmcode.encode(random_message(code_c, rng))
        y = c.copy()
        y[list(coords)] ^= 1
        res = bw_decode(6, 1, y)
        assert np.array_equal(res.codeword, c), coords
        done += 1


def test_uncorrectable_support_gives_definite_outcome():
    # flipping the support of a weight-2 word of RM(4,3) is outside the
    # guarantee; accept Undecodable or some codeword, nothing else
    supp = np.flatnonzero(ref.eval_monomial(0b0111, 4))
    assert not correctable_as_erasures(4, 3, tuple(supp.tolist()))
    rng = np.random.default_rng(74)
    code_c = rmcode.CodeParams(4, 2)
    for _ in range(10):
        c = rmcode.encode(random_message(code_c, rng))
        y = c.copy()
        y[supp] ^= 1
        try:
            res = bw_decode(4, 0, y)
        except Undecodable:
            continue
        assert rmcode.is_codeword(code_c, res.codeword)


def test_parameter_validation():
    with pytest.raises(ValueError):
        bw_decode(5, 2, np.zeros(32, dtype=np.uint8))  # needs r <= m/2 - 1
    with pytest.raises(ValueError):
        bw_decode(4, 0, np.zeros(8, dtype=np.uint8))  # wrong length


def test_message_matches_codeword():
    rng = np.random.default_rng(75)
    code_c = rmcode.CodeParams(6, 2)
    c = rmcode.encode(random_message(code_c, rng))
    y = c.copy()
    y[[3, 17, 40]] ^= 1
    res = bw_decode(6, 1, y)
    assert np.array_equal(rmcode.encode(res.message), res.codeword)
    assert np.array_equal(res.codeword, c)


# ---- the block kernel against the per-word decoder it replaced ----


def noisy_block(m, r, p, rows, seed):
    code_c = rmcode.CodeParams(m, m - 2 * r - 2)
    rng = np.random.default_rng(seed)
    c = rmcode.encode_rows(code_c, rng.integers(0, 2, size=(rows, code_c.k)))
    return c ^ (rng.random(c.shape) < p).astype(np.uint8)


@st.composite
def bw_blocks(draw):
    m = draw(st.integers(2, 7))
    r = draw(st.integers(0, m // 2 - 1))
    p = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.2, 0.3]))
    return m, r, noisy_block(m, r, p, draw(st.integers(1, 8)), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(bw_blocks())
def test_block_equals_per_word_reference_row_by_row(case):
    # a flagged row keeps its hard word; the reference never meets more than
    # one codeword on the unerased part (see the module docstring's proof)
    m, r, Ys = case
    words, undecodable = bw_codewords(m, r, Ys)
    for y, word, flagged in zip(Ys, words, undecodable):
        try:
            want = ref.bw_decode(m, r, y).codeword
        except Undecodable as exc:
            assert str(exc) == "erased word inconsistent with the code"
            assert flagged and np.array_equal(word, y)
            continue
        assert not flagged and np.array_equal(word, want)


def test_bw_decode_returns_the_reference_result():
    for m, r, p in [(4, 0, 0.1), (6, 1, 0.05), (7, 2, 0.02)]:
        for y in noisy_block(m, r, p, 12, m):
            try:
                want = ref.bw_decode(m, r, y)
            except Undecodable as exc:
                with pytest.raises(Undecodable, match=f"^{exc}$"):
                    bw_decode(m, r, y)
                continue
            got = bw_decode(m, r, y)
            assert np.array_equal(got.codeword, want.codeword)
            assert (got.message, got.metric) == (want.message, want.metric)


@pytest.mark.parametrize("m,r_c", [(10, 2), (12, 0)])
def test_step1_tables_peak_near_their_size(m, r_c):
    # the (k_R, k_E) int32 index and E's (k_E, n) uint8 generator, with no
    # factor of m: the tables are built before the test above traces
    r = (m - r_c - 2) // 2
    k_r, k_e = rmcode.CodeParams(m, r).k, rmcode.CodeParams(m, r + 1).k
    bw_mod._step1_tables.cache_clear()
    tracemalloc.start()
    try:
        bw_mod._step1_tables(m, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (4 * k_r * k_e + (k_e << m)) + (1 << 16)


@pytest.mark.parametrize("m,r_c,rows", [(6, 2, 3000), (8, 4, 400), (10, 2, 30)])
def test_block_peak_stays_within_the_chunk_model(m, r_c, rows):
    # a chunk's largest array (S's bits, step 1's or step 2's packed rows)
    # holds at most bw._BYTES, or one row's; with the elimination's products
    # and encode_rows' a chunk peaks below four of them, and the block adds
    # its words and their copy
    r = (m - r_c - 2) // 2
    n, k = 1 << m, rmcode.CodeParams(m, r_c).k
    k_r, k_e = rmcode.CodeParams(m, r).k, rmcode.CodeParams(m, r + 1).k
    w = -(-k_e // 64)
    row_bytes = max(64 * w * k_r, 8 * w * (k_r + n), 8 * n * (k // 64 + 1))
    Ys = noisy_block(m, r, 0.02, rows, rows)
    bw_codewords(m, r, Ys[:1])  # the lazy tables
    tracemalloc.start()
    try:
        bw_codewords(m, r, Ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * max(bw_mod._BYTES, row_bytes) + 3 * rows * n
