import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlab import analysis, gf2, rmcode
from rmlab.decoders import reed as reed_mod
from rmlab.decoders import sakkour as sakkour_mod
from rmlab.decoders.fht import fht_decode_order1, fht_list_decode_order1, linear_word, transform_peak
from rmlab.rmcode import CodeParams

import reference_structure as ref


def word(s: str) -> np.ndarray:
    """'11010' -> array, leftmost char = coordinate 0."""
    return np.array([int(ch) for ch in s], dtype=np.uint8)


def row_strings(params) -> list:
    G = rmcode.generator_matrix(params)
    return ["".join(str(int(b)) for b in row) for row in G]


# printed 2^3-length generator matrices, degree-descending rows
G30 = ["11111111"]
G31 = ["11110000", "11001100", "10101010", "11111111"]
G32 = ["11000000", "10100000", "10001000"] + G31
G33 = ["10000000"] + G32


def test_generator_fixtures_m3():
    assert row_strings(CodeParams(3, 0)) == G30
    assert row_strings(CodeParams(3, 1)) == G31
    assert row_strings(CodeParams(3, 2)) == G32
    assert row_strings(CodeParams(3, 3)) == G33


def test_full_matrix_m3_fixture():
    R = rmcode.rm_full_matrix(3)
    assert ["".join(str(int(b)) for b in row) for row in R] == G33


def test_generator_fixture_m1():
    assert row_strings(CodeParams(1, 1)) == ["10", "11"]


def test_monomial_order_m3():
    names = [rmcode.monomial_name(a) for a in rmcode.monomial_order(3)]
    assert names == ["x1x2x3", "x1x2", "x1x3", "x2x3", "x1", "x2", "x3", "1"]


def test_monomial_order_m4_is_lexicographic_within_a_degree():
    degree2 = [rmcode.monomial_name(a) for a in rmcode.monomial_order(4) if a.bit_count() == 2]
    assert degree2 == ["x1x2", "x1x3", "x1x4", "x2x3", "x2x4", "x3x4"]


def test_monomial_order_is_permutation():
    for m in range(1, 7):
        order = rmcode.monomial_order(m)
        assert sorted(order) == list(range(1 << m))
        sizes = [a.bit_count() for a in order]
        assert sizes == sorted(sizes, reverse=True)


def test_eval_monomial_fixtures():
    assert np.array_equal(rmcode.eval_monomial(0, 3), word("11111111"))
    assert np.array_equal(rmcode.eval_monomial(0b100, 3), word("10101010"))
    assert np.array_equal(rmcode.eval_monomial(0b011, 3), word("11000000"))


def test_eval_monomial_weight():
    for m in range(1, 6):
        for a in range(1 << m):
            assert rmcode.eval_monomial(a, m).sum() == 1 << (m - a.bit_count())


def test_monomial_order_matches_the_sorted_reference():
    # the enumeration by size and combinations against sorting all 2^m masks
    assert rmcode.monomial_order(0) == ref.monomial_order(0) == (0,)
    for m in range(1, 17):
        assert rmcode.monomial_order(m) == ref.monomial_order(m), m
        for r in range(m + 1):
            assert rmcode.monomials(CodeParams(m, r)) == ref.monomials(m, r), (m, r)


def test_builders_match_the_per_point_reference():
    for m in range(13):
        n = 1 << m
        full = ref.rm_full_rows(m)
        assert rmcode.rm_full_rows(m) == full, m
        assert np.array_equal(rmcode.rm_full_matrix(m), np.stack([gf2.unpack_bits(w, n) for w in full]))
        for a, word in zip(ref.monomial_order(m), full):
            assert rmcode.eval_monomial_packed(a, m) == word, (m, a)
            got = rmcode.eval_monomial(a, m)
            assert got.dtype == np.uint8 and np.array_equal(got, gf2.unpack_bits(word, n)), (m, a)
        full_cols = ref.transpose(full, n)
        ref_steps, _, ref_monomial_at = ref.moebius_tables(m, m)
        for r in range(m + 1) if m else ():
            p = CodeParams(m, r)
            # RM(m, r)'s rows are the last k of the full order, so its
            # columns are the full columns' top k bits
            assert ref.monomials(m, r) == ref.monomial_order(m)[n - p.k :]
            G = rmcode.generator_matrix(p)
            assert G.dtype == np.uint8 and np.array_equal(G, ref.generator_matrix(m, r)), (m, r)
            assert rmcode.generator_rows(p) == full[n - p.k :], (m, r)
            assert rmcode.generator_columns(p) == tuple(c >> (n - p.k) for c in full_cols), (m, r)
            steps, high, monomial_at = rmcode._moebius_tables(m, r)
            assert (steps, high) == (ref_steps, ref.moebius_tables(m, r)[1]), (m, r)
            assert monomial_at.dtype == ref_monomial_at.dtype
            assert np.array_equal(monomial_at, ref_monomial_at), (m, r)


def test_decoder_tables_match_the_per_point_reference():
    for m in range(1, 11):
        for t in range(m + 1):
            got, want = reed_mod._layer(m, t), ref.reed_layer(m, t)
            for g, w in zip(got[:2], want[:2]):
                assert g.dtype == w.dtype and np.array_equal(g, w), (m, t)
            assert got[2] == want[2]
        if m >= 2:
            for g, w in zip(sakkour_mod._tables(m), ref.sakkour_tables(m)):
                assert g.dtype == w.dtype and np.array_equal(g, w), m


def test_evaluations_guard_sits_at_its_cell_cap(monkeypatch):
    # the cap admits the largest build the mc reports make: the full-order
    # matrix at the largest m their n cap admits
    m_mc = analysis._MC_N_MAX.bit_length() - 1
    assert len(rmcode.monomial_order(m_mc)) << m_mc <= rmcode._EVAL_CELLS
    monkeypatch.setattr(rmcode, "_EVAL_CELLS", 8 * 16)
    assert rmcode.evaluations(4, range(8)).shape == (8, 16)
    with pytest.raises(rmcode.TooLarge):
        rmcode.evaluations(4, range(9))
    with pytest.raises(rmcode.TooLarge):
        rmcode.eval_monomial(0, 8)


def test_evaluations_reject_masks_out_of_range():
    for bad in (8, -1):
        with pytest.raises(ValueError):
            rmcode.evaluations(3, [0, bad])
        with pytest.raises(ValueError):
            rmcode.eval_monomial_packed(bad, 3)


def test_params_arithmetic():
    p = CodeParams(4, 2)
    assert (p.n, p.k, p.d) == (16, 11, 4)
    for m in range(1, 9):
        for r in range(m):
            assert CodeParams(m, r).k + CodeParams(m, m - r - 1).k == 1 << m


def test_params_validation():
    with pytest.raises(ValueError):
        CodeParams(0, 0)
    with pytest.raises(ValueError):
        CodeParams(3, 4)
    with pytest.raises(ValueError):
        CodeParams(3, -1)


def test_dual_params():
    assert rmcode.dual_params(CodeParams(3, 1)) == CodeParams(3, 1)
    assert rmcode.dual_params(CodeParams(4, 1)) == CodeParams(4, 2)
    for m in range(1, 6):
        assert rmcode.dual_params(CodeParams(m, 0)) == CodeParams(m, m - 1)
    with pytest.raises(rmcode.DegenerateDual):
        rmcode.dual_params(CodeParams(3, 3))


def test_duality_orthogonality():
    for m in range(1, 9):
        for r in range(m):
            G = rmcode.generator_rows(CodeParams(m, r))
            H = rmcode.generator_rows(CodeParams(m, m - r - 1))
            assert all(ref.parity(g & h) == 0 for g in G for h in H)


def test_generator_rank():
    for m in range(1, 7):
        for r in range(m + 1):
            p = CodeParams(m, r)
            assert gf2.rank(rmcode.generator_rows(p)) == p.k


def test_encode_fixtures():
    p = CodeParams(3, 1)
    assert np.array_equal(rmcode.encode(rmcode.Message(p, {})), word("00000000"))
    assert np.array_equal(
        rmcode.encode(rmcode.Message(p, {0: 1})), word("11111111")
    )
    assert np.array_equal(
        rmcode.encode(rmcode.Message(p, {0b001: 1, 0: 1})), word("00001111")
    )


def test_encode_linearity():
    p = CodeParams(4, 2)
    rng = np.random.default_rng(3)
    order = rmcode.monomials(p)
    for _ in range(20):
        a = {mon: int(rng.integers(2)) for mon in order}
        b = {mon: int(rng.integers(2)) for mon in order}
        ab = {mon: a[mon] ^ b[mon] for mon in order}
        lhs = rmcode.encode(rmcode.Message(p, a)) ^ rmcode.encode(rmcode.Message(p, b))
        assert np.array_equal(lhs, rmcode.encode(rmcode.Message(p, ab)))


def test_message_degree_validation():
    with pytest.raises(ValueError):
        rmcode.Message(CodeParams(3, 1), {0b011: 1})
    with pytest.raises(ValueError):
        rmcode.Message(CodeParams(3, 1), {1 << 3: 1})


def test_is_codeword_fixtures():
    p = CodeParams(3, 1)
    assert rmcode.is_codeword(p, word("11110000"))
    assert not rmcode.is_codeword(p, word("10000000"))


def test_message_of_codeword_roundtrip():
    rng = np.random.default_rng(11)
    for m, r in [(3, 1), (4, 2), (5, 3), (3, 3)]:
        p = CodeParams(m, r)
        order = rmcode.monomials(p)
        for _ in range(10):
            coeffs = {mon: int(rng.integers(2)) for mon in order}
            msg = rmcode.Message(p, coeffs)
            c = rmcode.encode(msg)
            back = rmcode.message_of_codeword(p, c)
            assert back.coeffs == msg.coeffs


def ref_is_codeword(params, y):
    """The dual-generator parity check the Moebius transform replaced."""
    if params.r == params.m:
        return True
    return gf2.mat_vec(rmcode.generator_rows(rmcode.dual_params(params)), gf2.pack_bits(y)) == 0


def ref_message_of_codeword(params, y):
    """The coefficients by elimination over the transposed generator;
    raises gf2.InconsistentSystem off the code."""
    cols = ref.transpose(rmcode.generator_rows(params), params.n)
    sol = gf2.solve_affine(cols, params.k, gf2.pack_bits(y))
    order = rmcode.monomials(params)
    return {order[i]: 1 for i in range(params.k) if (sol.particular >> i) & 1}


def ref_linear_coeffs(m, u, u0):
    """Coefficients of u0 + sum_i u_i x_i, u in point encoding (bit m-i = u_i)."""
    coeffs = {1 << (i - 1): 1 for i in range(1, m + 1) if (u >> (m - i)) & 1}
    if u0:
        coeffs[0] = 1
    return coeffs


@st.composite
def code_and_words(draw):
    """RM(m, r) with m <= 9, a codeword, and its one- and two-bit corruptions."""
    m = draw(st.integers(1, 9))
    p = CodeParams(m, draw(st.integers(0, m)))
    order = rmcode.monomials(p)
    chosen = draw(st.lists(st.sampled_from(order), max_size=p.k, unique=True))
    c = rmcode.encode(rmcode.Message(p, dict.fromkeys(chosen, 1)))
    i, j = draw(st.integers(0, p.n - 1)), draw(st.integers(0, p.n - 1))
    one, two = c.copy(), c.copy()
    one[i] ^= 1
    two[[i, j]] ^= 1
    return p, [c, one, two]


@settings(max_examples=80, deadline=None)
@given(code_and_words())
def test_moebius_membership_and_message_match_linear_algebra(case):
    p, words = case
    for y in words:
        member = rmcode.is_codeword(p, y)
        assert member == ref_is_codeword(p, y)
        if member:
            assert rmcode.message_of_codeword(p, y).coeffs == ref_message_of_codeword(p, y)
        else:
            with pytest.raises(gf2.InconsistentSystem):
                ref_message_of_codeword(p, y)
            with pytest.raises(gf2.InconsistentSystem):
                rmcode.message_of_codeword(p, y)
    c = words[0]
    bads = [c[:-1], np.append(c, 0)]
    for entry in (2, -1, 0.5):
        bads.append(np.append(c[:-1], entry))
    for bad in bads:
        for fn in (rmcode.is_codeword, rmcode.message_of_codeword):
            with pytest.raises(ValueError):
                fn(p, bad)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2**32 - 1), st.booleans())
def test_first_order_messages_match_linear_coeffs(m, seed, tied):
    rng = np.random.default_rng(seed)
    # small integer LLRs give tied peaks and zero correlations
    L = rng.integers(-2, 3, size=1 << m).astype(float) if tied else rng.normal(size=1 << m)
    spec, peak = transform_peak(L)
    s = min(4, 1 << m)
    results = [fht_decode_order1(m, L)] + fht_list_decode_order1(m, L, s)
    for res, u in zip(results, [peak, *np.argsort(-np.abs(spec), kind="stable")[:s]]):
        u0 = 1 if spec[u] < 0 else 0
        assert res.message.coeffs == ref_linear_coeffs(m, int(u), u0)
        assert np.array_equal(res.codeword, linear_word(m, int(u), u0))


def test_plotkin_fixture():
    u, v = rmcode.plotkin_split(rmcode.eval_monomial(0b100, 3))
    assert rmcode.is_codeword(CodeParams(2, 1), u)
    assert rmcode.is_codeword(CodeParams(2, 0), v)
    assert np.array_equal(u, word("0000"))
    assert np.array_equal(v, word("1111"))


def test_plotkin_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        c = rng.integers(0, 2, size=16).astype(np.uint8)
        u, v = rmcode.plotkin_split(c)
        assert np.array_equal(rmcode.plotkin_join(u, v), c)


def test_plotkin_join_over_batch_axes():
    c = np.random.default_rng(5).integers(0, 2, size=(3, 2, 16)).astype(np.uint8)
    u, v = c[..., 1::2], c[..., 1::2] ^ c[..., 0::2]
    assert np.array_equal(rmcode.plotkin_join(u, v), c)
    with pytest.raises(ValueError):
        rmcode.plotkin_join(u, v[0])


def test_plotkin_too_short():
    with pytest.raises(rmcode.TooShort):
        rmcode.plotkin_split(np.array([1], dtype=np.uint8))


def test_plotkin_membership():
    rng = np.random.default_rng(5)
    for m, r in [(3, 1), (4, 2), (5, 2)]:
        p = CodeParams(m, r)
        order = rmcode.monomials(p)
        for _ in range(50):
            coeffs = {mon: int(rng.integers(2)) for mon in order}
            c = rmcode.encode(rmcode.Message(p, coeffs))
            u, v = rmcode.plotkin_split(c)
            assert rmcode.is_codeword(CodeParams(m - 1, r), u)
            assert rmcode.is_codeword(CodeParams(m - 1, r - 1), v)


def test_project_coset_trivia():
    zero = np.zeros(8, dtype=np.uint8)
    ones = np.ones(8, dtype=np.uint8)
    for b in range(1, 8):
        assert not ref.project_coset(zero, b).any()
        assert not ref.project_coset(ones, b).any()


def test_project_coset_fixture():
    # direction 0b100: the quadratic row 11000000 projects to 1100
    y = rmcode.eval_monomial(0b011, 3)
    assert np.array_equal(ref.project_coset(y, 0b100), word("1100"))


def test_project_coset_invalid_direction():
    with pytest.raises(ref.InvalidDirection):
        ref.project_coset(np.zeros(8, dtype=np.uint8), 0)


def test_project_coset_membership_all_directions():
    rng = np.random.default_rng(6)
    for m, r in [(3, 2), (4, 2), (5, 3), (6, 2)]:
        p = CodeParams(m, r)
        order = rmcode.monomials(p)
        coeffs = {mon: int(rng.integers(2)) for mon in order}
        c = rmcode.encode(rmcode.Message(p, coeffs))
        for b in range(1, p.n):
            proj = ref.project_coset(c, b)
            assert rmcode.is_codeword(CodeParams(m - 1, r - 1), proj)


def test_coset_index_map_matches_projection():
    rng = np.random.default_rng(7)
    for m in (3, 4):
        n = 1 << m
        y = rng.integers(0, 2, size=n).astype(np.uint8)
        for b in range(1, n):
            proj = ref.project_coset(y, b)
            idx = ref.coset_index_map(m, b)
            for j in range(n):
                assert proj[idx[j]] == y[j] ^ y[j ^ b]


def test_cosets_of_subspace():
    # full subspace: one coset covering everything
    assert rmcode.cosets_of_subspace((1 << 3) - 1, 3).tolist() == [list(range(8))]
    halves = rmcode.cosets_of_subspace(0b011, 3)
    assert len(halves) == 2 and all(len(c) == 4 for c in halves)
    flat = sorted(pt for c in rmcode.cosets_of_subspace(0b101, 3) for pt in c)
    assert flat == list(range(8))


def test_coset_sum_identities():
    # over any coset of V_A: sum of Eval(x_A) is 1; sum of Eval(x_B) is 0
    # unless A is contained in B
    m = 4
    for a_mask in (0b0011, 0b0101, 0b1000, 0b1111):
        cosets = rmcode.cosets_of_subspace(a_mask, m)
        ev_a = rmcode.eval_monomial(a_mask, m)
        n1 = (1 << m) - 1
        for coset in cosets:
            coords = [p ^ n1 for p in coset]
            assert ev_a[coords].sum() % 2 == 1
            for b_mask in range(1 << m):
                if a_mask & b_mask != a_mask:
                    ev_b = rmcode.eval_monomial(b_mask, m)
                    assert ev_b[coords].sum() % 2 == 0


def _random_invertible(rng, m):
    while True:
        rows = [int(rng.integers(1 << m)) for _ in range(m)]
        if gf2.rank(rows) == m:
            return rows


def test_affine_invariance():
    rng = np.random.default_rng(8)
    for m, r in [(3, 1), (4, 2), (5, 2), (5, 3)]:
        p = CodeParams(m, r)
        order = rmcode.monomials(p)
        n1 = p.n - 1
        for _ in range(25):
            coeffs = {mon: int(rng.integers(2)) for mon in order}
            c = rmcode.encode(rmcode.Message(p, coeffs))
            A = _random_invertible(rng, m)
            shift = int(rng.integers(1 << m))
            moved = np.zeros_like(c)
            for j in range(p.n):
                z = j ^ n1
                gz = gf2.mat_vec(A, z) ^ shift
                moved[gz ^ n1] = c[j]
            assert rmcode.is_codeword(p, moved)


def test_hex_roundtrip_fixture():
    assert rmcode.word_to_hex(word("11110000")) == "F0"
    assert np.array_equal(rmcode.word_from_hex("F0", 8), word("11110000"))


@given(st.integers(1, 6), st.data())
def test_hex_roundtrip_random(m, data):
    n = 1 << m
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
    assert np.array_equal(rmcode.word_from_hex(rmcode.word_to_hex(y), n), y)


def test_word_from_hex_overflow():
    with pytest.raises(ValueError):
        rmcode.word_from_hex("FFF", 8)


def old_word_to_hex(y):
    """word_to_hex as one string per coordinate, before it packed bits."""
    bits = "".join("1" if b else "0" for b in np.asarray(y, dtype=np.uint8))
    bits += "0" * ((-len(bits)) % 4)
    return format(int(bits, 2), f"0{len(bits) // 4}X")


def old_word_from_hex(s, n):
    """word_from_hex through one Python int per coordinate, before it unpacked bits."""
    s = s.strip()
    if not re.fullmatch(r"[0-9a-fA-F]+", s or ""):
        raise ValueError(f"not a hex word: {s!r}")
    bits = format(int(s, 16), f"0{4 * len(s)}b")
    if len(bits) < n or int(bits[n:] or "0", 2):
        raise ValueError(f"hex word {s!r} does not fit length {n}")
    return np.array([int(b) for b in bits[:n]], dtype=np.uint8)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("m", range(13))
def test_hex_equals_the_per_coordinate_joins(m):
    n = 1 << m
    rng = np.random.default_rng(m)
    words = [np.zeros(n, np.uint8), np.ones(n, np.uint8), *rng.integers(0, 2, size=(6, n), dtype=np.uint8)]
    for y in words:
        text = rmcode.word_to_hex(y)
        assert text == old_word_to_hex(y)
        digits = len(text)
        cases = [text, text.lower(), f" {text}\n", text + "0", text + "1", text + "00", text[:-1], "",
                 "0x" + text, text[:1] + "g" + text[2:], "F" * digits, "8" * (digits + 1)]
        for s in cases:
            got, want = outcome(rmcode.word_from_hex, s, n), outcome(old_word_from_hex, s, n)
            assert type(got) is type(want)
            assert got == want if isinstance(want, str) else np.array_equal(got, want) and got.dtype == np.uint8


def test_message_json_roundtrip():
    p = CodeParams(3, 2)
    msg = rmcode.Message(p, {0b011: 1, 0b100: 1, 0: 1})
    text = rmcode.message_to_json(msg)
    assert json.loads(text) == {"0": 1, "3": 1, "4": 1}
    back = rmcode.message_from_json(p, text)
    assert back.coeffs == msg.coeffs


def test_message_json_symbolic_keys():
    p = CodeParams(3, 1)
    msg = rmcode.message_from_json(p, '{"x1": 1}')
    assert np.array_equal(rmcode.encode(msg), word("11110000"))


def test_monomial_name():
    assert rmcode.monomial_name(0) == "1"
    assert rmcode.monomial_name(0b101) == "x1x3"
