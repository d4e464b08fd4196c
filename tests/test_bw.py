import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rmlab import gf2, rmcode, sim
from rmlab.decoders import bw as bw_mod
from rmlab.decoders.bw import bw_codewords
from rmlab.decoders.types import Undecodable

import reference_structure as ref


def random_message(params, rng):
    return rmcode.Message(params, {a: 1 for a in rmcode.monomials(params) if rng.integers(2)})


def screened(m, r, coords):
    """Criterion 6's screen: the complement of coords keeps RM(m, m-r-1) at
    full rank, so RM(m, m-r-1) corrects coords as erasures."""
    nbr = rmcode.CodeParams(m, m - r - 1)
    keep = ((1 << nbr.n) - 1) ^ sum(1 << z for z in coords)
    return gf2.rank([row & keep for row in rmcode.generator_rows(nbr)]) == nbr.k


def decode_one(params, y):
    """bw_codewords on a block of one."""
    return bw_codewords(params, y[None])[0]


def test_zero_errors_roundtrip():
    rng = np.random.default_rng(71)
    for m, r in [(4, 0), (5, 0), (6, 1)]:
        code_c = rmcode.CodeParams(m, m - 2 * r - 2)
        for _ in range(5):
            c = rmcode.encode(random_message(code_c, rng))
            assert np.array_equal(decode_one(code_c, c), c)


def test_single_errors_exhaustive_small():
    # every singleton is erasure-correctable in RM(4,3) (min weight 2)
    rng = np.random.default_rng(72)
    code_c = rmcode.CodeParams(4, 2)
    for _ in range(3):
        c = rmcode.encode(random_message(code_c, rng))
        for j in range(16):
            y = c.copy()
            y[j] ^= 1
            assert np.array_equal(decode_one(code_c, y), c), j


def test_screened_five_error_sets_recover_exactly():
    # m=6, r=1: decode RM(6,2) with the degree-4 code screening erasures
    rng = np.random.default_rng(73)
    code_c = rmcode.CodeParams(6, 2)
    done = 0
    while done < 20:
        coords = tuple(sorted(rng.choice(64, size=5, replace=False).tolist()))
        if not screened(6, 1, coords):
            continue
        c = rmcode.encode(random_message(code_c, rng))
        y = c.copy()
        y[list(coords)] ^= 1
        assert np.array_equal(decode_one(code_c, y), c), coords
        done += 1


@st.composite
def screened_errors(draw):
    m = draw(st.integers(2, 7))
    r = draw(st.integers(0, m // 2 - 1))
    # up to twice RM(m, m-r-1)'s minimum distance 2^(r+1): every smaller
    # set passes the screen, and larger ones pass or fail it
    size = draw(st.integers(0, 4 << r))
    coords = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=size, max_size=size, unique=True))
    assume(screened(m, r, coords))
    return m, r, coords, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(screened_errors())
def test_screened_error_sets_come_back_as_the_sent_word(case):
    # the decoder's guarantee: errors RM(m, m-r-1) corrects as erasures
    m, r, coords, seed = case
    code_c = rmcode.CodeParams(m, m - 2 * r - 2)
    c = rmcode.encode(random_message(code_c, np.random.default_rng(seed)))
    y = c.copy()
    y[coords] ^= 1
    assert np.array_equal(decode_one(code_c, y), c)


def test_uncorrectable_support_gives_definite_outcome():
    # flipping the support of a weight-2 word of RM(4,3) is outside the
    # guarantee; accept some codeword or the kept hard word, nothing else
    supp = np.flatnonzero(ref.eval_monomial(0b0111, 4))
    assert not screened(4, 0, supp.tolist())
    rng = np.random.default_rng(74)
    code_c = rmcode.CodeParams(4, 2)
    for _ in range(10):
        c = rmcode.encode(random_message(code_c, rng))
        y = c.copy()
        y[supp] ^= 1
        word = decode_one(code_c, y)
        assert rmcode.is_codeword(code_c, word) or np.array_equal(word, y)


def test_parameter_validation():
    for r_c in (2, 4, 5):  # m - r odd or below 2
        with pytest.raises(ValueError, match="m - r even"):
            bw_codewords(rmcode.CodeParams(5, r_c), np.zeros((1, 32), dtype=np.uint8))
    with pytest.raises(ValueError, match="rows of 16"):
        bw_codewords(rmcode.CodeParams(4, 2), np.zeros((1, 8), dtype=np.uint8))


def test_message_matches_codeword():
    rng = np.random.default_rng(75)
    code_c = rmcode.CodeParams(6, 2)
    c = rmcode.encode(random_message(code_c, rng))
    y = c.copy()
    y[[3, 17, 40]] ^= 1
    word = decode_one(code_c, y)
    assert np.array_equal(rmcode.encode(rmcode.message_of_codeword(code_c, word)), word)
    assert np.array_equal(word, c)


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
    # a row the reference cannot decode keeps its hard word, outside the
    # code, and the single-word callable raises Undecodable for exactly
    # those rows; the reference never meets more than one codeword on the
    # unerased part (see the module docstring's proof)
    m, r, Ys = case
    params = rmcode.CodeParams(m, m - 2 * r - 2)
    decode = sim.resolve_decoder("bw", params, "bsc", False)[1]
    words = bw_codewords(params, Ys)
    for y, word, in_code in zip(Ys, words, rmcode.in_code(params, words)):
        try:
            want = ref.bw_decode(m, r, y).codeword
        except Undecodable as exc:
            assert str(exc) == "erased word inconsistent with the code"
            assert not in_code and np.array_equal(word, y)
            with pytest.raises(Undecodable, match=f"^{exc}$"):
                decode(y)
            continue
        assert in_code and np.array_equal(word, want)
        assert np.array_equal(decode(y), word)


def test_bw_decode_returns_the_reference_result():
    # the word and its message; the callable raises the reference's error
    for m, r, p in [(4, 0, 0.1), (6, 1, 0.05), (7, 2, 0.02)]:
        params = rmcode.CodeParams(m, m - 2 * r - 2)
        decode = sim.resolve_decoder("bw", params, "bsc", False)[1]
        for y in noisy_block(m, r, p, 12, m):
            try:
                want = ref.bw_decode(m, r, y)
            except Undecodable as exc:
                with pytest.raises(Undecodable, match=f"^{exc}$"):
                    decode(y)
                continue
            got = decode(y)
            assert np.array_equal(got, want.codeword)
            assert rmcode.message_of_codeword(params, got) == want.message


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
    params = rmcode.CodeParams(m, r_c)
    bw_codewords(params, Ys[:1])  # the lazy tables
    tracemalloc.start()
    try:
        bw_codewords(params, Ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * max(bw_mod._BYTES, row_bytes) + 3 * rows * n
