import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmlab import channel
from rmlab.channel import ChannelSpec


def test_spec_parse():
    assert ChannelSpec.parse("bsc:0.05") == ChannelSpec("bsc", 0.05)
    assert ChannelSpec.parse("bec:0.3") == ChannelSpec("bec", 0.3)
    assert ChannelSpec.parse("awgn:0.7071") == ChannelSpec("awgn", 0.7071)
    assert str(ChannelSpec("bsc", 0.05)) == "bsc:0.05"


def test_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec("bsc", 1.5)
    with pytest.raises(ValueError):
        ChannelSpec("bec", -0.1)
    with pytest.raises(ValueError):
        ChannelSpec("awgn", 0.0)
    with pytest.raises(ValueError):
        ChannelSpec("laplace", 0.5)
    with pytest.raises(ValueError):
        ChannelSpec.parse("bsc-0.05")


def test_bsc_p0_identity():
    c = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
    out = channel.transmit(c, ChannelSpec("bsc", 0.0), seed=3)
    assert np.array_equal(out.data, c)


def test_bec_p1_all_erasures():
    c = np.zeros(16, dtype=np.uint8)
    out = channel.transmit(c, ChannelSpec("bec", 1.0), seed=3)
    assert (out.data == channel.ERASURE).all()


def test_bsc_half_flip_rate():
    c = np.zeros(100_000, dtype=np.uint8)
    out = channel.transmit(c, ChannelSpec("bsc", 0.5), seed=12)
    rate = out.data.mean()
    assert abs(rate - 0.5) < 0.01


def test_transmit_deterministic():
    c = np.zeros(64, dtype=np.uint8)
    spec = ChannelSpec("awgn", 1.0)
    a = channel.transmit(c, spec, seed=99).data
    b = channel.transmit(c, spec, seed=99).data
    d = channel.transmit(c, spec, seed=100).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, d)


def test_transmit_reference_stream():
    # pinned output of the documented generator, guards the bit-stream
    c = np.zeros(8, dtype=np.uint8)
    out = channel.transmit(c, ChannelSpec("bsc", 0.4), seed=2024)
    expected = channel._rng(2024).random(8) < 0.4
    assert np.array_equal(out.data, expected.astype(np.uint8))


def test_llr_bsc_fixture():
    spec = ChannelSpec("bsc", 0.11)
    out = channel.ChannelOutput("bsc", np.array([0, 1], dtype=np.uint8))
    L = channel.llr(out, spec)
    assert L[0] == pytest.approx(math.log(0.89 / 0.11), abs=1e-12)
    assert L[1] == pytest.approx(-math.log(0.89 / 0.11), abs=1e-12)


def test_llr_bsc_saturated():
    out = channel.ChannelOutput("bsc", np.array([0, 1], dtype=np.uint8))
    L = channel.llr(out, ChannelSpec("bsc", 0.0))
    assert L[0] == channel.LLR_SATURATION
    assert L[1] == -channel.LLR_SATURATION


def test_llr_bec():
    out = channel.ChannelOutput(
        "bec", np.array([0, 1, channel.ERASURE], dtype=np.uint8)
    )
    L = channel.llr(out, ChannelSpec("bec", 0.3))
    S = channel.LLR_SATURATION
    assert list(L) == [S, -S, 0.0]


def test_llr_awgn_fixture():
    out = channel.ChannelOutput("awgn", np.array([1.0, -0.5]))
    L = channel.llr(out, ChannelSpec("awgn", 1.0))
    assert L[0] == pytest.approx(2.0)
    assert L[1] == pytest.approx(-1.0)


def test_llr_of_sum_zero_annihilates():
    for l2 in (-7.0, -0.3, 0.0, 2.5, 40.0):
        assert channel.llr_of_sum(0.0, l2) == pytest.approx(0.0, abs=1e-12)


def test_llr_of_sum_both_reliable():
    # exact limit is S - ln 2: still a confident zero
    S = 30.0
    assert channel.llr_of_sum(S, S) == pytest.approx(S - math.log(2), abs=1e-9)
    assert channel.llr_of_sum(S, S) > S - 1.0


def test_llr_of_sum_landmark():
    # ln(e^{l1+l2}+1) - ln(e^{l1}+e^{l2}) at (3, -2)
    direct = math.log(math.exp(1.0) + 1.0) - math.log(math.exp(3.0) + math.exp(-2.0))
    tanh_form = 2.0 * math.atanh(math.tanh(1.5) * math.tanh(-1.0))
    got = channel.llr_of_sum(3.0, -2.0)
    assert direct == pytest.approx(tanh_form, abs=1e-9)
    assert got == pytest.approx(direct, abs=1e-9)
    assert got == pytest.approx(-1.6934536609708954, abs=1e-12)


@given(
    st.floats(-20, 20, allow_nan=False),
    st.floats(-20, 20, allow_nan=False),
)
def test_llr_of_sum_properties(l1, l2):
    r = channel.llr_of_sum(l1, l2)
    assert r == pytest.approx(channel.llr_of_sum(l2, l1), abs=1e-12)
    assert abs(r) <= min(abs(l1), abs(l2)) + 1e-12
    if l1 != 0 and l2 != 0:
        assert math.copysign(1, r) == math.copysign(1, l1) * math.copysign(1, l2) or r == 0


def test_llr_of_sum_matches_both_forms_on_grid():
    # direct form is float-stable on all of [-20,20]^2; the tanh form loses
    # ~1e-8 once |L| pushes tanh within an ulp of 1, so it gets two bands
    grid = np.linspace(-20.0, 20.0, 41)
    for l1 in grid:
        for l2 in grid:
            got = channel.llr_of_sum(l1, l2)
            direct = math.log(math.exp(l1 + l2) + 1.0) - math.log(
                math.exp(l1) + math.exp(l2)
            )
            assert got == pytest.approx(direct, abs=1e-9)
            tanh_form = 2.0 * math.atanh(math.tanh(l1 / 2) * math.tanh(l2 / 2))
            tol = 1e-9 if max(abs(l1), abs(l2)) <= 14 else 1e-6
            assert got == pytest.approx(tanh_form, abs=tol)


def test_llr_of_sum_vectorized():
    a = np.array([3.0, 0.0, -1.0])
    b = np.array([-2.0, 5.0, -1.0])
    r = channel.llr_of_sum(a, b)
    assert r.shape == (3,)
    assert r[0] == pytest.approx(-1.6934536609708954)


def llr_of_sum_expression(l1, l2):
    """llr_of_sum as one expression with a temporary per operation."""
    a = np.asarray(l1, dtype=np.float64)
    b = np.asarray(l2, dtype=np.float64)
    s = a + b
    return (
        np.maximum(s, 0.0)
        - np.maximum(a, b)
        + np.log1p(np.exp(-np.abs(s)))
        - np.log1p(np.exp(-np.abs(a - b)))
    )


def test_llr_of_sum_equals_the_expression_bit_for_bit():
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array([0.0, -0.0, 1e308, -1e308, tiny, -tiny, 3 * tiny, 1e-310, -2.5e-320, 1.0, -40.0])
    rng = np.random.default_rng(17)
    scales = np.array([1e-3, 1e-1, 1.0, 40.0, 800.0])
    rand = rng.normal(size=(len(scales), 4000)) * scales[:, None]
    a = np.concatenate([np.repeat(special, len(special)), rand[:, :2000].ravel()])
    b = np.concatenate([np.tile(special, len(special)), rand[::-1, 2000:].ravel()])
    with np.errstate(all="ignore"):  # 1e308 + 1e308 overflows in both forms
        got = channel.llr_of_sum(a, b)
        want = llr_of_sum_expression(a, b)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # broadcast shapes, and the scalar path still returns a float
        col = channel.llr_of_sum(a[:50, None], b[None, :50])
        assert np.array_equal(col.view(np.uint64), llr_of_sum_expression(a[:50, None], b[None, :50]).view(np.uint64))
        for x, y in zip(a[:200].tolist(), b[:200].tolist()):
            r = channel.llr_of_sum(x, y)
            assert type(r) is float
            assert np.float64(r).view(np.uint64) == llr_of_sum_expression(x, y).view(np.uint64)


def test_output_symmetry_bsc_awgn():
    # L | transmitted 1 is distributed as -(L | transmitted 0)
    n = 100_000
    for spec in (ChannelSpec("bsc", 0.2), ChannelSpec("awgn", 1.3)):
        zeros = np.zeros(n, dtype=np.uint8)
        ones = np.ones(n, dtype=np.uint8)
        L0 = channel.llr(channel.transmit(zeros, spec, seed=5), spec)
        L1 = channel.llr(channel.transmit(ones, spec, seed=6), spec)
        q0 = np.quantile(L0, [0.1, 0.25, 0.5, 0.75, 0.9])
        q1 = np.quantile(-L1, [0.1, 0.25, 0.5, 0.75, 0.9])
        assert np.allclose(q0, q1, atol=0.05 * np.abs(q0).max() + 0.02)


def test_hard_decision():
    L = np.array([1.5, -0.2, 0.0, -40.0])
    assert list(channel.hard_decision(L)) == [0, 1, 0, 1]


def test_transmit_rejects_nonbinary():
    with pytest.raises(ValueError):
        channel.transmit(np.array([0, 2], dtype=np.uint8), ChannelSpec("bsc", 0.1), 0)


@pytest.mark.parametrize("kind", ["bsc", "bec", "awgn"])
@pytest.mark.parametrize("param", [float("nan"), float("inf"), float("-inf")])
def test_spec_rejects_non_finite_parameters(kind, param):
    with pytest.raises(ValueError, match="finite"):
        ChannelSpec(kind, param)
    with pytest.raises(ValueError):
        ChannelSpec.parse(f"{kind}:{param}")


# ---- the vectorized Philox4x64-10 kernel against numpy's generator ----

_KEY128 = st.one_of(st.sampled_from([0, (1 << 128) - 1]), st.integers(0, (1 << 128) - 1))
_LENGTHS = st.one_of(st.sampled_from([1, 2, 3, 5, 7, 9, 13, 255, 299]), st.integers(1, 300))


def _key_words(keys):
    """(lo, hi) uint64 arrays of 128-bit keys."""
    return (np.array([key & ((1 << 64) - 1) for key in keys], dtype=np.uint64),
            np.array([key >> 64 for key in keys], dtype=np.uint64))


def _assert_draws_equal_generators(bit_keys, u_keys, k, n):
    bits, u = channel.philox_draws(_key_words(bit_keys), _key_words(u_keys), k, n)
    assert bits.shape == (len(bit_keys), k) and u.shape == (len(u_keys), n)
    for i, (bit_key, u_key) in enumerate(zip(bit_keys, u_keys)):
        want_bits = np.random.Generator(np.random.Philox(key=bit_key)).integers(0, 2, size=k)
        want_u = np.random.Generator(np.random.Philox(key=u_key)).random(n)
        assert bits.dtype == want_bits.dtype and np.array_equal(bits[i], want_bits)
        assert u.dtype == want_u.dtype and np.array_equal(u[i], want_u)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(keys=st.lists(st.tuples(_KEY128, _KEY128), min_size=1, max_size=4), n=_LENGTHS, k=_LENGTHS)
@example(keys=[(0, 0), ((1 << 128) - 1, (1 << 128) - 1)], n=1, k=1)
@example(keys=[((1 << 128) - 1, (1 << 128) - 1)], n=299, k=257)
def test_philox_kernel_equals_numpy_generator(keys, n, k):
    """One philox_draws call gives every row's bits and uniforms, from
    independent keys per row and per stream kind."""
    _assert_draws_equal_generators([b for b, _ in keys], [u for _, u in keys], k, n)


@pytest.mark.parametrize(
    "T, k, n",
    [
        (3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 1, 5),  # one bit counter block, few uniform ones
        (2, 5, 4), (2, 10, 7), (2, 17, 64), (2, 58, 3),  # ceil(k / 2) not a multiple of 4
        (2, 257, 299),
        (1, 16, 32), (1, 93, 256), (1, 1, 1),  # one-trial blocks
        (300, 64, 128),  # 12 000 lanes
    ],
)
def test_philox_draws_where_the_stream_kinds_need_different_counter_counts(T, k, n):
    keys = [(0x9E3779B97F4A7C15 * (i + 1)) << 17 for i in range(T)]  # both key words vary
    _assert_draws_equal_generators(keys, [key | 1 for key in keys], k, n)


@pytest.mark.parametrize("chunk", [1, 5, 8])
def test_philox_draws_across_chunk_boundaries(chunk):
    """Rows split over several philox_draws calls, `chunk` rows each, draw
    what one call over all rows draws: a row depends only on its keys."""
    keys = [0, 1, (1 << 128) - 1, 1 << 64, (1 << 64) - 1] * 2
    u_keys = keys[::-1]
    _assert_draws_equal_generators(keys, u_keys, 19, 13)
    whole = channel.philox_draws(_key_words(keys), _key_words(u_keys), 19, 13)
    parts = [channel.philox_draws(_key_words(keys[i:i + chunk]), _key_words(u_keys[i:i + chunk]), 19, 13)
             for i in range(0, len(keys), chunk)]
    for got, want in zip((np.concatenate(p) for p in zip(*parts)), whole):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("blocks", [1, 3])
def test_philox_lanes_equal_raw_words(blocks):
    """Lane j of the kernel is block ctr[j] of its key's raw Philox stream."""
    keys = [0, (1 << 128) - 1, 0x0123456789ABCDEF_FEDCBA9876543210]
    lo, hi = (np.repeat(w, blocks) for w in _key_words(keys))
    ctr = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), len(keys))
    words = channel._philox_lanes(lo, hi, ctr).reshape(len(keys), 4 * blocks)
    for i, key in enumerate(keys):
        assert np.array_equal(words[i], np.random.Philox(key=key).random_raw(4 * blocks))
