import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlab import rmcode
from rmlab.decoders.fht import _parity_table, column_peaks, fht, fht_decode_words, hard_signs
from rmlab.decoders.oracle import ml_codewords
from rmlab.decoders.types import result_for, soft_metric

from reference_structure import (
    eval_monomial,
    fht_list_decode_order1,
    linear_word,
    point_transform,
    transform_peak,
)


def random_message(params, rng):
    return rmcode.Message(params, {a: 1 for a in rmcode.monomials(params) if rng.integers(2)})


def naive_fht(values):
    # O(n^2) double sum over array indices, pairing (-1)^{popcount(s & t)}
    n = len(values)
    out = []
    for s in range(n):
        acc = 0
        for t in range(n):
            acc += values[t] * (-1) ** ((s & t).bit_count() & 1)
        out.append(acc)
    return out


def naive_point_transform(L):
    # entry u is sum over points z of (-1)^{<u,z>} L_z; coordinate j holds point j^(n-1)
    n = len(L)
    out = []
    for u in range(n):
        acc = 0.0
        for j in range(n):
            z = j ^ (n - 1)
            acc += L[j] * (-1) ** ((u & z).bit_count() & 1)
        out.append(acc)
    return out


def test_all_ones_concentrates_at_zero():
    got = fht(np.ones(8, dtype=np.int64))
    assert got.tolist() == [8, 0, 0, 0, 0, 0, 0, 0]


def test_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        fht(np.arange(6))


def test_matches_naive_exactly_on_integers():
    rng = np.random.default_rng(11)
    for m in range(0, 11):
        n = 1 << m
        v = rng.integers(-1000, 1001, size=n)
        got = fht(v)
        assert got.dtype == np.int64
        assert got.tolist() == naive_fht([int(x) for x in v])


def textbook_fht(values):
    # in-place slice-by-slice butterflies in float64
    a = np.array(values, dtype=np.float64)
    n = a.shape[-1]
    h = 1
    while h < n:
        for i in range(0, n, 2 * h):
            x, y = a[..., i : i + h].copy(), a[..., i + h : i + 2 * h].copy()
            a[..., i : i + h], a[..., i + h : i + 2 * h] = x + y, x - y
        h *= 2
    return a


@pytest.mark.parametrize(
    "dtype,n,want",
    [
        (np.int8, 1, np.int16),
        (np.int8, 128, np.int16),
        (np.int8, 256, np.int32),
        (np.uint8, 128, np.int16),
        (np.int16, 2, np.int32),
        (np.int32, 2, np.int64),
        (np.int64, 2, np.int64),
        (np.uint64, 2, np.int64),
    ],
)
def test_integer_input_runs_in_the_narrowest_exact_type(dtype, n, want):
    got = fht(np.zeros((n, 3), dtype=dtype))
    assert got.dtype == want and got.shape == (n, 3)


def test_64_bit_input_raises_rather_than_wraps():
    # n max|x| must stay below 2^63, read from the values
    for v in ([2**62, 2**62], [-(2**62), -(2**62)], [2**63 - 1, 0]):
        with pytest.raises(ValueError, match="too large"):
            fht(np.array(v, dtype=np.int64))
    with pytest.raises(ValueError, match="too large"):
        fht(np.array([2**62, 0], dtype=np.uint64))
    with pytest.raises(ValueError, match="too large"):
        fht_decode_words(np.array([2**62, 2**62, 2**62, -(2**62)]))
    big = 2**62 - 1
    assert fht(np.array([big, big])).tolist() == [2 * big, 0]
    assert fht(np.array([[big, 1], [-big, 1]])).tolist() == [[0, 2], [2 * big, 0]]
    assert fht(np.array([big, 0], dtype=np.uint64)).tolist() == [big, big]


def test_extreme_int8_input_does_not_wrap():
    # -128 everywhere sums to -128 n at entry 0, which |.| must still read
    for n in (128, 256):
        spec, u = transform_peak(np.full(n, -128, dtype=np.int8))
        assert spec[0] == -128 * n and u == 0
        assert np.abs(spec).max() == 128 * n
        u, neg = column_peaks(np.full((n, 1), -128, dtype=np.int8))
        assert u.tolist() == [0] and neg.tolist() == [True]


def test_hard_signs():
    got = hard_signs(np.array([[0, 1], [1, 0]], dtype=np.uint8))
    assert got.dtype == np.int8 and got.tolist() == [[1, -1], [-1, 1]]


def test_constant_sign_rows_peak_at_plus_minus_n():
    for m in range(0, 11):
        n = 1 << m
        signs = hard_signs(np.array([[0] * n, [1] * n], dtype=np.uint8))
        spec, u = transform_peak(signs)
        assert spec.dtype == (np.int16 if n <= 128 else np.int32)
        assert u.tolist() == [0, 0] and spec[:, 0].tolist() == [n, -n]
        assert not spec[:, 1:].any()
        assert fht_decode_words(signs).tolist() == [[0] * n, [1] * n]


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_])
def test_non_integer_input_is_unchanged_float64(dtype):
    rng = np.random.default_rng(21)
    for m in range(0, 9):
        v = rng.normal(scale=40.0, size=(3, 1 << m))
        v = v > 0 if dtype is np.bool_ else v.astype(dtype)
        got = fht(v.T)
        assert got.dtype == np.float64
        assert got.tobytes() == textbook_fht(v).T.tobytes()
        assert point_transform(v).tobytes() == fht(v[..., ::-1].T.astype(np.float64)).T.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.integers(0, 9), rows=st.integers(1, 4), p=st.sampled_from([0.0, 0.05, 0.2, 0.5]),
       seed=st.integers(0, 2**32 - 1))
def test_sign_path_equals_float_path_on_hard_words(m, rows, p, seed):
    # first-order codewords under BSC noise: p = 0.5 gives uniform words,
    # whose peaks tie often
    n = 1 << m
    rng = np.random.default_rng(seed)
    u, u0 = rng.integers(0, n, size=rows), rng.integers(0, 2, size=rows)
    words = np.stack([linear_word(m, int(a), int(b)) for a, b in zip(u, u0)])
    words ^= (rng.random(words.shape) < p).astype(np.uint8)
    spec, peak = transform_peak(hard_signs(words))
    spec_f, peak_f = transform_peak(1.0 - 2.0 * words)
    assert np.issubdtype(spec.dtype, np.integer) and spec_f.dtype == np.float64
    assert np.array_equal(spec, spec_f) and np.array_equal(peak, peak_f)
    assert np.array_equal(fht_decode_words(hard_signs(words)), fht_decode_words(1.0 - 2.0 * words))


@pytest.mark.parametrize("dtype", [np.float64, np.int8, np.int64])
def test_axis_zero_is_the_transposed_transform(dtype):
    # fht transforms the columns: the transpose of the textbook row loop,
    # whatever the layout of its input
    rng = np.random.default_rng(23)
    for m in range(0, 9):
        v = rng.integers(-128, 128, size=(3, 1 << m)).astype(dtype)
        if dtype is np.float64:
            v = v * rng.normal(size=v.shape)
        got = fht(np.ascontiguousarray(v.T))
        assert got.flags.c_contiguous and got.tobytes() == fht(v.T).tobytes()
        if dtype is np.float64:
            assert got.tobytes() == textbook_fht(v).T.tobytes()
        else:
            assert got.dtype == (np.int64 if dtype is np.int64 else np.int16 if m <= 7 else np.int32)
            assert np.array_equal(got, textbook_fht(v).T)
    v = rng.normal(size=(8, 4, 3))
    assert fht(v).tobytes() == np.moveaxis(textbook_fht(np.moveaxis(v, 0, -1)), -1, 0).tobytes()
    with pytest.raises(ValueError):
        fht(np.zeros((6, 2)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(m=st.integers(1, 8), lead=st.lists(st.integers(0, 3), max_size=2),
       style=st.sampled_from(["int8", "int64", "float64", "ties", "zeros"]), seed=st.integers(0, 2**32 - 1))
def test_decode_words_equal_the_row_layout_reference(m, lead, style, seed):
    # the row-layout decoder the column layout replaced, bit for bit
    n = 1 << m
    shape = (*lead, n)
    rng = np.random.default_rng(seed)
    if style == "int8":
        L = hard_signs(rng.random(shape) < 0.5)
    elif style == "int64":  # large values that still tie
        L = rng.integers(-3, 4, size=shape) << 50
    elif style == "ties":
        L = rng.integers(-2, 3, size=shape).astype(np.float64)
    else:
        L = rng.normal(size=shape)
        if style == "zeros":
            L *= rng.random((*lead, 1)) < 0.5
    spec, u = transform_peak(L)
    neg = np.take_along_axis(spec, u[..., None], axis=-1) < 0
    want = _parity_table(m)[u] ^ neg.astype(np.uint8)
    got = fht_decode_words(L)
    assert got.dtype == np.uint8 and got.shape == shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(0, 8), (0, 1), (2, 0, 4)])
def test_decode_words_of_an_empty_block(shape):
    for dtype in (np.float64, np.int8, np.int64):
        got = fht_decode_words(np.zeros(shape, dtype=dtype))
        assert got.dtype == np.uint8 and got.shape == shape


@pytest.mark.parametrize("style", ["awgn", "signs"])
def test_column_peaks_equal_transform_peak(style):
    # columns in point order are the reversed rows; sign words tie often
    rng = np.random.default_rng(24)
    for m in range(0, 8):
        n = 1 << m
        if style == "signs":
            rows = hard_signs((rng.random((40, n)) < 0.5).astype(np.uint8))
        else:
            rows = np.round(rng.normal(size=(40, n)), 1)
        spec, u = transform_peak(rows)
        got_u, got_neg = column_peaks(np.ascontiguousarray(rows[:, ::-1].T))
        assert np.array_equal(got_u, u)
        assert np.array_equal(got_neg, spec[np.arange(40), u] < 0)
        assert np.array_equal(fht_decode_words(rows), linear_word_rows(m, got_u, got_neg))


def linear_word_rows(m, u, neg):
    return np.stack([linear_word(m, int(a), int(b)) for a, b in zip(u, neg)])


def test_matches_naive_on_reals():
    rng = np.random.default_rng(12)
    for m in range(1, 8):
        v = rng.normal(size=1 << m)
        ref = np.array(naive_fht(list(v)))
        assert np.allclose(fht(v), ref, rtol=1e-9, atol=1e-9)


def test_involution_up_to_scale():
    rng = np.random.default_rng(13)
    for m in range(0, 8):
        v = rng.integers(-50, 51, size=1 << m)
        assert np.array_equal(fht(fht(v)), (1 << m) * v)


@settings(max_examples=40)
@given(st.lists(st.floats(-100, 100), min_size=16, max_size=16))
def test_parseval(vals):
    v = np.array(vals)
    spec = fht(v)
    assert np.dot(spec, spec) == pytest.approx(16 * np.dot(v, v), rel=1e-9, abs=1e-9)


def test_point_transform_is_reversed_fht():
    rng = np.random.default_rng(14)
    for m in range(1, 7):
        L = rng.normal(size=1 << m)
        assert np.array_equal(point_transform(L), fht(L[::-1]))
        assert np.allclose(point_transform(L), naive_point_transform(list(L)), rtol=1e-9)


def test_linear_word_fixtures():
    assert linear_word(3, 0, 0).tolist() == [0] * 8
    assert linear_word(3, 0, 1).tolist() == [1] * 8
    # u = e_1 (bit m-1) is the monomial x1
    x1 = eval_monomial(0b001, 3)
    assert linear_word(3, 4, 0).tolist() == x1.tolist()


def test_linear_word_matches_encoder():
    for m in (2, 3, 4):
        params = rmcode.CodeParams(m, 1)
        for u in range(1 << m):
            for u0 in (0, 1):
                coeffs = {1 << (i - 1): (u >> (m - i)) & 1 for i in range(1, m + 1)}
                coeffs[0] = u0
                msg = rmcode.Message(params, {a: v for a, v in coeffs.items() if v})
                assert linear_word(m, u, u0).tolist() == rmcode.encode(msg).tolist()


def test_clean_codeword_decodes_with_known_metric():
    p = 0.05
    mag = math.log((1 - p) / p)
    rng = np.random.default_rng(15)
    for m in (3, 4, 5):
        params = rmcode.CodeParams(m, 1)
        msg = random_message(params, rng)
        c = rmcode.encode(msg)
        L = mag * (1.0 - 2.0 * c)
        res = result_for(params, fht_decode_words(L), L)
        assert np.array_equal(res.codeword, c)
        assert res.metric == pytest.approx((params.n / 2) * mag, rel=1e-12)


def test_total_erasure_tie_break():
    res = result_for(rmcode.CodeParams(3, 1), fht_decode_words(np.zeros(8)), np.zeros(8))
    assert res.metric == 0.0
    assert res.codeword.tolist() == [0] * 8
    assert res.message.coeffs == {}


def test_metric_equals_ml_metric_on_awgn():
    rng = np.random.default_rng(16)
    for m in (3, 4):
        params = rmcode.CodeParams(m, 1)
        for _ in range(100):
            c = rmcode.encode(random_message(params, rng))
            L = 2.0 * ((1.0 - 2.0 * c) + 0.9 * rng.normal(size=params.n)) / 0.9**2
            a = result_for(params, fht_decode_words(L), L)
            b = ml_codewords(params, L[None])[0]
            assert a.metric == soft_metric(b, L)
            assert soft_metric(a.codeword, L) == a.metric


def test_list_head_is_single_decode_and_full_list_hits_ml():
    rng = np.random.default_rng(17)
    for _ in range(25):
        L = rng.normal(size=16)
        full = fht_list_decode_order1(4, L, 16)
        assert np.array_equal(full[0].codeword, fht_decode_words(L))
        words = {bytes(r.codeword.tolist()) for r in full}
        assert len(words) == 16
        best = max(r.metric for r in full)
        assert best == soft_metric(ml_codewords(rmcode.CodeParams(4, 1), L[None])[0], L)


def test_list_size_validation():
    with pytest.raises(ValueError):
        fht_list_decode_order1(3, np.zeros(8), 0)
    with pytest.raises(ValueError):
        fht_list_decode_order1(3, np.zeros(8), 9)


@pytest.mark.parametrize("shape", [(16,), (4,), (2, 8)])
def test_list_decoder_checks_llr_length(shape):
    with pytest.raises(ValueError, match="expected 8 LLRs"):
        fht_list_decode_order1(3, np.zeros(shape), 2)


def test_batch_decode_matches_scalar_decoder():
    # each row as a word of its own, and as the head of the length-1 list
    rng = np.random.default_rng(18)
    rows = rng.normal(size=(20, 16))
    batch = fht_decode_words(rows)
    for i in range(20):
        assert batch[i].tolist() == fht_decode_words(rows[i]).tolist()
        assert batch[i].tolist() == fht_list_decode_order1(4, rows[i], 1)[0].codeword.tolist()


def test_batch_decode_on_hard_words():
    # +1/-1 style input from hard bits: clean first-order words decode to themselves
    rng = np.random.default_rng(19)
    params = rmcode.CodeParams(4, 1)
    words = np.stack([rmcode.encode(random_message(params, rng)) for _ in range(8)])
    batch = fht_decode_words(1.0 - 2.0 * words.astype(np.float64))
    assert np.array_equal(batch, words)


def test_batch_decode_takes_any_leading_axes():
    # m comes from the row length; a 1-D word is a block with no leading axes
    rng = np.random.default_rng(20)
    rows = rng.normal(size=(2, 3, 8))
    rows[0, 0] = 0.0  # a zero correlation: u = 0 and constant term 0
    batch = fht_decode_words(rows)
    assert batch.shape == (2, 3, 8) and batch.dtype == np.uint8
    for i in range(2):
        for j in range(3):
            word = fht_list_decode_order1(3, rows[i, j], 1)[0].codeword
            assert batch[i, j].tolist() == word.tolist()
            assert fht_decode_words(rows[i, j]).tolist() == word.tolist()
