from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlab import rmcode
from rmlab.decoders.bw import bw_codewords
from rmlab.decoders.oracle import ml_codewords
from rmlab.decoders.reed import reed_codewords
from rmlab.decoders.rpa import rpa_bsc_codewords, rpa_decode_bsc
from rmlab.decoders.sakkour import sakkour_codewords
from rmlab.decoders.types import hard_input_llr, result_for


def random_message(params, rng):
    return rmcode.Message(params, {a: 1 for a in rmcode.monomials(params) if rng.integers(2)})


def flip(word, coords):
    out = word.copy()
    for j in coords:
        out[j] ^= 1
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_reed_corrects_every_error_below_half_the_distance(data):
    # Reed's majority decoding corrects every error of weight < 2^(m-r-1),
    # half the distance; its weight-0 case is what ml's clean-row skip rests on
    m = data.draw(st.integers(1, 6))
    params = rmcode.CodeParams(m, data.draw(st.integers(0, m)))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=params.k, max_size=params.k))
    c = rmcode.encode_rows(params, np.array([bits]))[0]
    radius = max(0, -(-params.d // 2) - 1)  # the largest weight below d/2
    errors = data.draw(st.sets(st.integers(0, params.n - 1), max_size=radius))
    y = flip(c, sorted(errors))
    assert np.array_equal(reed_codewords(params, y[None])[0], c)


# Sakkour's order-2 decoder and hard-input RPA at every r, m <= 6: the
# harness skips every hard row with 2 w < d on their proofs (the sim docstring)
RADIUS_CODES = [("sakkour", m, 2) for m in range(2, 7)] + [
    ("rpa", m, r) for m in range(1, 7) for r in range(1, m + 1)
]


@pytest.mark.parametrize("decoder_id,m,r", RADIUS_CODES)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_sakkour_and_hard_rpa_correct_every_error_below_half_the_distance(decoder_id, m, r, data):
    params = rmcode.CodeParams(m, r)
    radius = (params.d + 1) // 2 - 1  # the largest weight w with 2 w < d
    rows = data.draw(st.integers(1, 4))
    bits = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=params.k, max_size=params.k),
                              min_size=rows, max_size=rows))
    c = rmcode.encode_rows(params, np.array(bits))
    # the first row's weight is the radius itself
    weights = [radius] + data.draw(st.lists(st.integers(0, radius), min_size=rows - 1, max_size=rows - 1))
    y = np.array([flip(word, sorted(data.draw(st.sets(st.integers(0, params.n - 1), min_size=w, max_size=w))))
                  for word, w in zip(c, weights)])
    if decoder_id == "sakkour":
        got = sakkour_codewords(m, y)
    else:
        got = rpa_bsc_codewords(params, y)
    assert np.array_equal(got, c)


def test_reed_clean_codewords():
    rng = np.random.default_rng(21)
    for m, r in [(3, 1), (4, 2), (5, 2), (5, 5), (4, 0)]:
        params = rmcode.CodeParams(m, r)
        for _ in range(10):
            msg = random_message(params, rng)
            c = rmcode.encode(msg)
            res = result_for(params, reed_codewords(params, c[None])[0], hard_input_llr(c))
            assert res.message.coeffs == msg.coeffs


def test_reed_single_flip_rm31():
    params = rmcode.CodeParams(3, 1)
    c = rmcode.evaluations(3, [0b001])[0]  # 11110000
    assert rmcode.word_to_hex(c) == "F0"
    for j in range(8):
        y = flip(c, [j])
        res = result_for(params, reed_codewords(params, y[None])[0], hard_input_llr(y))
        assert res.message.coeffs == {0b001: 1}
        assert np.array_equal(res.codeword, c)


def test_reed_half_distance_guarantee():
    # exhaustive below half distance for the small pairs, sampled for the rest
    rng = np.random.default_rng(22)
    for m, r, budget in [(3, 1, None), (4, 2, None), (4, 1, 300), (5, 2, 300)]:
        params = rmcode.CodeParams(m, r)
        radius = (1 << (m - r - 1)) - 1
        patterns = [()]
        for w in range(1, radius + 1):
            patterns.extend(combinations(range(params.n), w))
        if budget is not None and len(patterns) > budget:
            picks = rng.choice(len(patterns), size=budget, replace=False)
            patterns = [patterns[i] for i in picks]
        for _ in range(5):
            c = rmcode.encode(random_message(params, rng))
            for pat in patterns:
                word = reed_codewords(params, flip(c, pat)[None])[0]
                assert np.array_equal(word, c), (m, r, pat)


def test_reed_majority_tie_decodes_to_one():
    # weight-1 input to RM(2,1): every degree-1 coset vote splits 1-1,
    # the tie rule turns all coefficients on
    params = rmcode.CodeParams(2, 1)
    y = np.array([1, 0, 0, 0], dtype=np.uint8)
    res = result_for(params, reed_codewords(params, y[None])[0], hard_input_llr(y))
    assert res.message.coeffs == {0b01: 1, 0b10: 1, 0: 1}
    assert res.codeword.tolist() == [1, 0, 0, 1]


def test_reed_constant_layer_majority():
    # repetition decoding, exact tie goes to 1
    params = rmcode.CodeParams(2, 0)
    words = reed_codewords(params, np.array([[1, 1, 0, 0], [1, 0, 0, 0], [1, 1, 1, 0]], dtype=np.uint8))
    assert words.tolist() == [[1] * 4, [0] * 4, [1] * 4]


def test_reed_metric_counts_agreements():
    rng = np.random.default_rng(23)
    params = rmcode.CodeParams(4, 2)
    for _ in range(20):
        y = rng.integers(0, 2, size=16).astype(np.uint8)
        res = result_for(params, reed_codewords(params, y[None])[0], hard_input_llr(y))
        # scored against +/-1 hard-input LLRs: (agreements - disagreements) / 2
        assert res.metric == 8 - int((res.codeword != y).sum())
        assert rmcode.is_codeword(params, res.codeword)


def test_sakkour_clean_codewords():
    rng = np.random.default_rng(24)
    for m in (3, 4, 5, 6):
        params = rmcode.CodeParams(m, 2)
        for _ in range(10):
            msg = random_message(params, rng)
            c = rmcode.encode(msg)
            res = result_for(params, sakkour_codewords(m, c[None])[0], hard_input_llr(c))
            assert res.message.coeffs == msg.coeffs


def test_sakkour_single_flip_exhaustive():
    # one error leaves every derivative within half distance of RM(m-?,1),
    # so recovery is deterministic
    rng = np.random.default_rng(25)
    params = rmcode.CodeParams(5, 2)
    for _ in range(3):
        c = rmcode.encode(random_message(params, rng))
        for j in range(32):
            assert np.array_equal(sakkour_codewords(5, flip(c, [j])[None])[0], c)


def test_sakkour_three_errors_rm52():
    rng = np.random.default_rng(26)
    params = rmcode.CodeParams(5, 2)
    exact = 0
    for _ in range(200):
        c = rmcode.encode(random_message(params, rng))
        pat = rng.choice(32, size=3, replace=False)
        if np.array_equal(sakkour_codewords(5, flip(c, pat)[None])[0], c):
            exact += 1
    assert exact >= 198


def test_sakkour_agrees_with_ml_spot_check():
    rng = np.random.default_rng(27)
    params = rmcode.CodeParams(4, 2)
    hits = 0
    for _ in range(50):
        c = rmcode.encode(random_message(params, rng))
        y = flip(c, rng.choice(16, size=1, replace=False))
        word = sakkour_codewords(4, y[None])[0]
        ml = ml_codewords(params, hard_input_llr(y)[None])[0]
        assert rmcode.is_codeword(params, word)
        if np.array_equal(word, ml):
            hits += 1
    assert hits >= 45


# the four hard-input decoders on length-8 words, RM(3,1), RM(3,2), RM(3,1)
# and RM(3,1): the reed, sakkour and bw kernels on a block of one and the
# hard RPA word, which share the block kernels' check
HARD_DECODERS = [
    lambda y: reed_codewords(rmcode.CodeParams(3, 1), np.asarray(y)[None])[0],
    lambda y: sakkour_codewords(3, np.asarray(y)[None])[0],
    lambda y: rpa_decode_bsc(rmcode.CodeParams(3, 1), y),
    lambda y: bw_codewords(rmcode.CodeParams(3, 1), np.asarray(y)[None])[0],
]


@pytest.mark.parametrize("decode", HARD_DECODERS)
@pytest.mark.parametrize("word", [[2, 0, 0, 0, 0, 0, 0, 3], [-1, 0, 0, 0, 0, 0, 0, 0], [0.5] + [0] * 7, [256] + [0] * 7])
def test_hard_decoders_reject_non_binary_words(decode, word):
    with pytest.raises(ValueError, match="hard word expected"):
        decode(word)


@pytest.mark.parametrize("decode", HARD_DECODERS)
def test_hard_decoders_check_length_and_accept_any_binary_dtype(decode):
    # a word checks as length-8, a block of one as rows of 8 values
    with pytest.raises(ValueError, match="length-8|rows of 8"):
        decode([0] * 7)
    word = [1, 0, 0, 0, 0, 0, 0, 0]

    want = decode(np.array(word, dtype=np.uint8))
    for same in (word, np.array(word, dtype=bool), np.array(word, dtype=np.float64)):
        assert np.array_equal(decode(same), want)
