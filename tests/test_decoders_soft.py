import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmlab import channel, gf2, rmcode
from rmlab.channel import llr_of_sum
from rmlab.decoders import dumer as dumer_mod
from rmlab.decoders.dumer import dumer_codewords, dumer_list_codewords
from rmlab.decoders.fht import fht_decode_words
from rmlab.decoders.oracle import erasure_decode, ml_codewords
from rmlab.decoders.reed import reed_codewords
from rmlab.decoders.types import Ambiguous, result_for, soft_metric

import reference_structure as ref


def random_message(params, rng):
    return rmcode.Message(params, {a: 1 for a in rmcode.monomials(params) if rng.integers(2)})


def awgn_llr(c, sigma, rng):
    return 2.0 * ((1.0 - 2.0 * c) + sigma * rng.normal(size=c.size)) / sigma**2


# ---- ml_codewords ----


def test_ml_clean_input():
    rng = np.random.default_rng(31)
    params = rmcode.CodeParams(3, 2)
    for _ in range(20):
        c = rmcode.encode(random_message(params, rng))
        assert np.array_equal(ml_codewords(params, 4.0 * (1.0 - 2.0 * c)[None])[0], c)


def test_ml_achieves_codebook_maximum():
    rng = np.random.default_rng(32)
    params = rmcode.CodeParams(3, 2)
    words = [rmcode.encode(rmcode.Message(params, {a: (i >> j) & 1 for j, a in enumerate(rmcode.monomials(params))})) for i in range(1 << params.k)]
    for _ in range(200):
        L = rng.normal(size=8)
        best = max(soft_metric(w, L) for w in words)
        assert soft_metric(ml_codewords(params, L[None])[0], L) == best


def test_ml_dominates_other_decoders():
    rng = np.random.default_rng(33)
    params = rmcode.CodeParams(4, 2)
    for _ in range(100):
        L = rng.normal(size=16)
        opt = soft_metric(ml_codewords(params, L[None])[0], L)
        assert opt >= soft_metric(dumer_codewords(params, L[None])[0], L)
        # reed decodes the hard decision; score its word on L
        reed_word = reed_codewords(params, (L < 0).astype(np.uint8)[None])[0]
        assert opt >= soft_metric(reed_word, L)


def test_ml_tie_breaks_to_lexicographically_smallest_message():
    params = rmcode.CodeParams(3, 1)
    L = np.zeros(8)
    res = result_for(params, ml_codewords(params, L[None])[0], L)
    assert res.metric == 0.0
    assert res.message.coeffs == {}


def test_ml_guard_and_validation():
    with pytest.raises(rmcode.TooLarge):
        ml_codewords(rmcode.CodeParams(5, 3), np.zeros((1, 32)))
    with pytest.raises(ValueError):
        ml_codewords(rmcode.CodeParams(3, 1), np.zeros((1, 4)))


# ---- erasure_decode ----


@pytest.mark.parametrize("bad", [3, -1, 0.5, float("nan")])
def test_erasure_decode_rejects_symbols_other_than_0_1_and_erasure(bad):
    y = np.zeros(8)
    y[[2, 5]] = channel.ERASURE, bad
    with pytest.raises(ValueError):
        erasure_decode(rmcode.CodeParams(3, 1), y)


def test_erasure_no_erasures_roundtrip():
    rng = np.random.default_rng(34)
    params = rmcode.CodeParams(4, 2)
    for _ in range(10):
        msg = random_message(params, rng)
        res = erasure_decode(params, rmcode.encode(msg))
        assert res.message.coeffs == msg.coeffs


def test_erasure_repetition_survives_all_but_one():
    params = rmcode.CodeParams(3, 0)
    for bit in (0, 1):
        for keep in range(8):
            y = np.full(8, channel.ERASURE, dtype=np.uint8)
            y[keep] = bit
            res = erasure_decode(params, y)
            assert res.codeword.tolist() == [bit] * 8


def test_erasure_of_codeword_support_is_ambiguous():
    params = rmcode.CodeParams(3, 1)
    c = rmcode.word_from_hex("F0", 8)
    y = np.where(c == 1, channel.ERASURE, 0).astype(np.uint8)
    res = erasure_decode(params, y)
    assert isinstance(res, Ambiguous)
    assert res.count_exponent == 1
    # cross-check by enumeration: exactly the zero word and 11110000 fit
    fits = [
        i
        for i in range(16)
        if rmcode.encode(
            rmcode.Message(params, {a: (i >> j) & 1 for j, a in enumerate(rmcode.monomials(params))})
        )[y != channel.ERASURE]
        .astype(int)
        .sum()
        == 0
    ]
    assert len(fits) == 2


def test_erasure_below_distance_always_recovers():
    from itertools import combinations

    rng = np.random.default_rng(35)
    params = rmcode.CodeParams(3, 1)
    for _ in range(3):
        c = rmcode.encode(random_message(params, rng))
        for pat in combinations(range(8), 3):
            y = c.copy()
            y[list(pat)] = channel.ERASURE
            res = erasure_decode(params, y)
            assert np.array_equal(res.codeword, c)


def test_erasure_inconsistent_word_raises():
    params = rmcode.CodeParams(3, 1)
    y = np.zeros(8, dtype=np.uint8)
    y[0] = 1  # weight 1 < d, not a codeword
    with pytest.raises(gf2.InconsistentSystem):
        erasure_decode(params, y)


@pytest.mark.parametrize("bad", [3, 255, -1, 0.5])
def test_erasure_rejects_entries_outside_bits_and_erasure(bad):
    params = rmcode.CodeParams(3, 1)
    with pytest.raises(ValueError, match="entries"):
        erasure_decode(params, [bad] * 4 + [0] * 4)
    with pytest.raises(ValueError, match="length"):
        erasure_decode(params, np.zeros(7, dtype=np.uint8))


def test_erasure_all_erased_counts_whole_code():
    params = rmcode.CodeParams(3, 1)
    res = erasure_decode(params, np.full(8, channel.ERASURE, dtype=np.uint8))
    assert isinstance(res, Ambiguous)
    assert res.count_exponent == params.k


def _erasure_outcome(decode, params, y):
    try:
        res = decode(params, y)
    except gf2.InconsistentSystem as exc:
        return "inconsistent", str(exc)
    if isinstance(res, Ambiguous):
        return res
    return rmcode.word_to_hex(res.codeword), res.message, res.metric


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 6), r=st.integers(0, 6), q=st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9, 1.0]),
       flips=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
@example(m=3, r=1, q=1.0, flips=0, seed=0)  # every coordinate erased
def test_erasure_decode_equals_the_per_word_reference(m, r, q, flips, seed):
    # BEC words of random codewords, some with flipped bits so that the
    # unerased part may fit no codeword
    params = rmcode.CodeParams(m, min(r, m))
    rng = np.random.default_rng(seed)
    y = rmcode.encode_rows(params, rng.integers(0, 2, size=(1, params.k)))[0]
    y[rng.integers(0, params.n, size=flips)] ^= 1
    y[rng.random(params.n) < q] = channel.ERASURE
    assert _erasure_outcome(erasure_decode, params, y) == _erasure_outcome(ref.erasure_decode, params, y)


# ---- dumer_codewords ----


def test_dumer_order1_matches_fht():
    rng = np.random.default_rng(36)
    params = rmcode.CodeParams(4, 1)
    for _ in range(500):
        L = rng.normal(size=16)
        assert np.array_equal(dumer_codewords(params, L[None])[0], fht_decode_words(L))


def test_dumer_full_code_sign_rule():
    params = rmcode.CodeParams(3, 3)
    assert dumer_codewords(params, np.full((1, 8), 2.5))[0].tolist() == [0] * 8
    rng = np.random.default_rng(37)
    L = rng.normal(size=8)
    assert dumer_codewords(params, L[None])[0].tolist() == (L < 0).astype(int).tolist()


def test_dumer_clean_codewords():
    rng = np.random.default_rng(38)
    for m, r in [(4, 2), (5, 2), (5, 3), (6, 3)]:
        params = rmcode.CodeParams(m, r)
        for _ in range(5):
            c = rmcode.encode(random_message(params, rng))
            assert np.array_equal(dumer_codewords(params, 3.0 * (1.0 - 2.0 * c)[None])[0], c)


def test_dumer_recursion_visits_fixed_leaf_sequence(monkeypatch):
    seen = []
    orig = dumer_mod._plain_rec

    def spy(m, r, L):
        if r <= 1 or r == m:
            seen.append((m, r))
        return orig(m, r, L)

    monkeypatch.setattr(dumer_mod, "_plain_rec", spy)
    rng = np.random.default_rng(39)
    dumer_codewords(rmcode.CodeParams(6, 3), rng.normal(size=(1, 64)))
    assert seen == [
        (4, 1),
        (3, 1),
        (2, 1),
        (2, 2),
        (3, 1),
        (2, 1),
        (2, 2),
        (2, 1),
        (2, 2),
        (3, 3),
    ]


def test_dumer_output_is_codeword():
    rng = np.random.default_rng(40)
    params = rmcode.CodeParams(5, 2)
    for _ in range(50):
        assert rmcode.is_codeword(params, dumer_codewords(params, rng.normal(size=(1, 32)))[0])


# ---- dumer_list_codewords ----


def greedy_zero_order(m, r, L):
    # reference: greedy recursion whose leaves are repetition / full codes
    if r == 0:
        bit = 1 if L.sum() < 0 else 0
        return np.full(L.size, bit, dtype=np.uint8)
    if r == m:
        return (L < 0).astype(np.uint8)
    L0, L1 = L[1::2], L[0::2]
    v = greedy_zero_order(m - 1, r - 1, llr_of_sum(L0, L1))
    u = greedy_zero_order(m - 1, r, L0 + (1.0 - 2.0 * v) * L1)
    out = np.empty(L.size, dtype=np.uint8)
    out[1::2] = u
    out[0::2] = u ^ v
    return out


def test_list_mu1_is_greedy():
    rng = np.random.default_rng(41)
    for m, r in [(4, 2), (5, 2), (5, 3)]:
        params = rmcode.CodeParams(m, r)
        for _ in range(50):
            L = rng.normal(size=params.n)
            assert np.array_equal(dumer_list_codewords(params, L[None], 1)[0], greedy_zero_order(m, r, L))


def test_list_exhaustive_equals_ml():
    rng = np.random.default_rng(42)
    for m, r in [(3, 2), (4, 2)]:
        params = rmcode.CodeParams(m, r)
        mu = 1 << params.k
        for _ in range(200):
            c = rmcode.encode(random_message(params, rng))
            L = awgn_llr(c, 1.0, rng)
            words = dumer_list_codewords(params, L[None], mu)[0], ml_codewords(params, L[None])[0]
            assert soft_metric(words[0], L) == soft_metric(words[1], L)


def test_list_metric_monotone_in_mu():
    rng = np.random.default_rng(43)
    params = rmcode.CodeParams(5, 2)
    for _ in range(30):
        L = rng.normal(size=32)
        metrics = [soft_metric(dumer_list_codewords(params, L[None], mu)[0], L) for mu in (1, 4, 16, 64)]
        assert all(a <= b + 1e-12 for a, b in zip(metrics, metrics[1:]))


# ---- oracle properties: decoders the survey proves ML reach the ML metric ----


def noisy_llrs(params, style, rows, rng):
    """LLR rows of random codewords: AWGN at a random sigma, BSC (equal
    magnitudes, so metrics tie exactly), or BEC-like zeros among +-2."""
    c = rmcode.encode_rows(params, rng.integers(0, 2, (rows, params.k)))
    if style == "awgn":
        sigma = rng.uniform(0.3, 1.5)
        return 2.0 * ((1.0 - 2.0 * c) + sigma * rng.normal(size=c.shape)) / sigma**2
    if style == "bsc":
        return 2.0 * (1.0 - 2.0 * (c ^ (rng.random(c.shape) < rng.uniform(0, 0.5))))
    return 2.0 * (1.0 - 2.0 * c) * (rng.random(c.shape) >= rng.uniform(0, 1))


def assert_reaches_ml_metric(params, words, Ls):
    for word, best, L in zip(words, ml_codewords(params, Ls), Ls):
        # equal up to rounding: a decoder may take another word of tied metric
        assert soft_metric(word, L) == pytest.approx(soft_metric(best, L), rel=0, abs=1e-12 * np.abs(L).sum())


ORACLE_STYLES = st.sampled_from(["awgn", "bsc", "bec"])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(m=st.integers(1, 6), style=ORACLE_STYLES, seed=st.integers(0, 2**32 - 1))
def test_fht_reaches_the_ml_metric_on_first_order_codes(m, style, seed):
    params = rmcode.CodeParams(m, 1)
    Ls = noisy_llrs(params, style, 8, np.random.default_rng(seed))
    assert_reaches_ml_metric(params, fht_decode_words(Ls), Ls)


ORACLE_LIST_CODES = [(m, r) for m in range(1, 7) for r in range(m + 1) if rmcode.CodeParams(m, r).k <= 12]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(code=st.sampled_from(ORACLE_LIST_CODES), extra=st.integers(0, 3), style=ORACLE_STYLES,
       seed=st.integers(0, 2**32 - 1))
def test_dumer_list_reaches_the_ml_metric_once_it_holds_the_codebook(code, extra, style, seed):
    params = rmcode.CodeParams(*code)
    Ls = noisy_llrs(params, style, 8, np.random.default_rng(seed))
    assert_reaches_ml_metric(params, dumer_list_codewords(params, Ls, (1 << params.k) + extra), Ls)


def test_list_validation():
    params = rmcode.CodeParams(3, 1)
    with pytest.raises(ValueError):
        dumer_list_codewords(params, np.zeros((1, 8)), 0)
    with pytest.raises(ValueError):
        dumer_list_codewords(params, np.zeros((1, 4)), 4)


def test_list_quality_tracks_ml_under_noise():
    rng = np.random.default_rng(44)
    params = rmcode.CodeParams(5, 2)
    failures_list = failures_ml = 0
    for _ in range(150):
        c = rmcode.encode(random_message(params, rng))
        L = awgn_llr(c, 0.9, rng)
        if not np.array_equal(dumer_list_codewords(params, L[None], 16)[0], c):
            failures_list += 1
        if not np.array_equal(ml_codewords(params, L[None])[0], c):
            failures_ml += 1
    assert failures_list <= failures_ml + 5


def test_metric_field_consistency():
    rng = np.random.default_rng(45)
    params = rmcode.CodeParams(4, 2)
    L = rng.normal(size=16)
    for word in (
        dumer_codewords(params, L[None])[0],
        dumer_list_codewords(params, L[None], 8)[0],
        ml_codewords(params, L[None])[0],
    ):
        res = result_for(params, word, L)
        assert res.metric == soft_metric(word, L)
        assert np.array_equal(res.codeword, rmcode.encode(res.message))
