import math

import numpy as np
import pytest

from rmlab import rmcode, sim
from rmlab.channel import ChannelSpec
from rmlab.decoders.fht import fht_decode_words
from rmlab.decoders.oracle import ml_codewords
from rmlab.decoders.rpa import chase_codewords, rpa_decode_bsc, rpa_decode_llr
from rmlab.decoders.types import result_for, soft_metric


def random_message(params, rng):
    return rmcode.Message(params, {a: 1 for a in rmcode.monomials(params) if rng.integers(2)})


def flip(word, coords):
    out = word.copy()
    out[np.asarray(coords, dtype=np.intp)] ^= 1
    return out


def test_order1_reduces_to_fht():
    rng = np.random.default_rng(51)
    params = rmcode.CodeParams(4, 1)
    for _ in range(100):
        y = rng.integers(0, 2, size=16).astype(np.uint8)
        assert np.array_equal(rpa_decode_bsc(params, y), fht_decode_words(1.0 - 2.0 * y))


def test_clean_codeword_is_fixed_point():
    rng = np.random.default_rng(52)
    for m, r in [(4, 2), (5, 2), (6, 2), (5, 3)]:
        params = rmcode.CodeParams(m, r)
        for _ in range(5):
            c = rmcode.encode(random_message(params, rng))
            assert np.array_equal(rpa_decode_bsc(params, c), c)


def test_weight_one_errors_corrected_exhaustively():
    rng = np.random.default_rng(53)
    params = rmcode.CodeParams(4, 2)
    for _ in range(20):
        c = rmcode.encode(random_message(params, rng))
        for j in range(16):
            assert np.array_equal(rpa_decode_bsc(params, flip(c, [j])), c)


def test_llr_all_positive_gives_zero_word():
    params = rmcode.CodeParams(4, 2)
    assert rpa_decode_llr(params, np.full(16, 1.5)).tolist() == [0] * 16


def test_llr_clean_codeword():
    rng = np.random.default_rng(54)
    params = rmcode.CodeParams(5, 2)
    for _ in range(10):
        c = rmcode.encode(random_message(params, rng))
        assert np.array_equal(rpa_decode_llr(params, 4.0 * (1.0 - 2.0 * c)), c)


def test_variants_agree_at_moderate_noise():
    # same fixed channel, RM(5,2), p = 0.05; the majority vote and the
    # weighted-sum aggregation disagree on a small fraction of words
    # (measured 2.6% at this seed) and their failure rates stay close
    rng = np.random.default_rng(50)
    params = rmcode.CodeParams(5, 2)
    p = 0.05
    mag = math.log((1 - p) / p)
    div = fail_hard = fail_soft = 0
    for _ in range(500):
        c = rmcode.encode(random_message(params, rng))
        y = c ^ (rng.random(32) < p).astype(np.uint8)
        a = rpa_decode_bsc(params, y)
        b = rpa_decode_llr(params, mag * (1.0 - 2.0 * y))
        div += not np.array_equal(a, b)
        fail_hard += not np.array_equal(a, c)
        fail_soft += not np.array_equal(b, c)
    assert div <= 25
    assert abs(fail_hard - fail_soft) <= 15


def test_outputs_are_codewords_at_low_noise():
    rng = np.random.default_rng(55)
    params = rmcode.CodeParams(5, 2)
    for _ in range(20):
        c = rmcode.encode(random_message(params, rng))
        y = flip(c, rng.choice(32, size=2, replace=False))
        assert rmcode.is_codeword(params, rpa_decode_bsc(params, y))


def test_validation():
    with pytest.raises(ValueError):
        rpa_decode_bsc(rmcode.CodeParams(3, 0), np.zeros(8, dtype=np.uint8))
    with pytest.raises(ValueError):
        rpa_decode_llr(rmcode.CodeParams(4, 2), np.zeros(8))


# ---- chase ----


def test_chase_t0_is_bare_decoder():
    rng = np.random.default_rng(56)
    params = rmcode.CodeParams(4, 2)
    for _ in range(20):
        L = rng.normal(size=16)
        assert np.array_equal(chase_codewords(params, L[None], 0)[0], rpa_decode_llr(params, L))


def test_chase_dominance_over_bare_output():
    # only codewords compete, so Chase dominates the bare RPA word when
    # that word is a codeword (74 of these 75 trials)
    rng = np.random.default_rng(57)
    params = rmcode.CodeParams(5, 2)
    dominated = 0
    for t in (1, 2, 3):
        for _ in range(25):
            L = rng.normal(size=32)
            bare = rpa_decode_llr(params, L)
            if rmcode.is_codeword(params, bare):
                word = chase_codewords(params, L[None], t)[0]
                assert rmcode.is_codeword(params, word)
                assert soft_metric(word, L) >= soft_metric(bare, L) - 1e-12
                dominated += 1
    assert dominated >= 60


def test_chase_metric_scored_on_original_llrs():
    rng = np.random.default_rng(58)
    params = rmcode.CodeParams(4, 2)
    L = rng.normal(size=16)
    res = result_for(params, chase_codewords(params, L[None], 3)[0], L)
    assert res.metric == soft_metric(res.codeword, L)
    assert res.message is not None


def test_chase_tracks_ml_error_rate():
    # chase is metric-argmax over its codeword candidates, a superset of
    # the bare output whenever that is a codeword, so its block errors stay
    # within a whisker of exhaustive ML; it is NOT guaranteed below the bare
    # decoder trial-by-trial (the bare decoder can be luckily right on
    # trials every metric maximizer gets wrong)
    rng = np.random.default_rng(61)
    params = rmcode.CodeParams(4, 2)
    sigma = 0.8
    chase_fail = ml_fail = 0
    for _ in range(400):
        c = rmcode.encode(random_message(params, rng))
        L = 2.0 * ((1.0 - 2.0 * c) + sigma * rng.normal(size=16)) / sigma**2
        if not np.array_equal(chase_codewords(params, L[None], 3)[0], c):
            chase_fail += 1
        if not np.array_equal(ml_codewords(params, L[None])[0], c):
            ml_fail += 1
    assert chase_fail <= 1.2 * ml_fail + 5


def test_shipped_chase_id_stays_within_1_2x_of_ml_at_criterion_9s_point():
    # criterion 9's streams through the harness, but with the id's own
    # three RPA rounds: only codeword candidates win, so rpa-chase:3 fails
    # at most 1.2 times as often as ML (scoring every candidate failed 283
    # times against ML's 211)
    fails = {}
    for decoder in ("ml", "rpa-chase:3"):
        cfg = sim.SimConfig(m=5, r=2, decoder=decoder, channels=(ChannelSpec("bsc", 0.032),),
                            trials=20_000, seed=123)
        fails[decoder] = sim.run_simulation(cfg, workers=2)[0].blk_err
    assert fails["rpa-chase:3"] <= 1.2 * fails["ml"]
