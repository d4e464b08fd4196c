import math
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlab import analysis, channel, gf2, rmcode
from rmlab.analysis import (
    EntropyProfile,
    OutOfRange,
    area_theorem_check,
    bitchannel_entropies_bec,
    check_interlacing,
    check_partial_order,
    exit_function_bec,
    generalized_hamming_weight,
    low_weight_exact_count,
    low_weight_lower_bound,
    twin_rm_report,
    twin_rm_select,
    weight_distribution,
)
from rmlab.decoders.oracle import erasure_decode
from rmlab.decoders.types import Ambiguous
from rmlab.rmcode import CodeParams, TooLarge

import reference_structure as ref


# ---- weight distribution ----


def test_weight_distribution_fixtures():
    assert weight_distribution(CodeParams(2, 1)).counts == {0: 1, 2: 6, 4: 1}
    assert weight_distribution(CodeParams(3, 1)).counts == {0: 1, 4: 14, 8: 1}
    assert weight_distribution(CodeParams(4, 2)).counts == {
        0: 1,
        4: 140,
        6: 448,
        8: 870,
        10: 448,
        12: 140,
        16: 1,
    }


def test_weight_distribution_invariants():
    for m, r in [(3, 2), (4, 1), (4, 3), (5, 1), (5, 2), (4, 4)]:
        params = CodeParams(m, r)
        wd = weight_distribution(params).counts
        assert sum(wd.values()) == 1 << params.k
        assert wd[0] == 1
        nonzero = [w for w in wd if w > 0]
        assert min(nonzero) == params.d
        for w, a in wd.items():
            assert wd.get(params.n - w) == a  # all-ones complement symmetry


def test_weight_distribution_guard():
    with pytest.raises(TooLarge):
        weight_distribution(CodeParams(5, 3))


# ---- low-weight bounds ----


def test_low_weight_lower_bound_fixture():
    coeff, c = low_weight_lower_bound(4, 2, 2)
    assert (coeff, c) == (0.5, 4)


def test_low_weight_bound_holds_exactly():
    for m, r, ell in [(4, 2, 2), (5, 2, 2), (5, 2, 1), (4, 2, 1), (3, 1, 1)]:
        coeff, c = low_weight_lower_bound(m, r, ell)
        bound = coeff * 2.0**c
        exact = low_weight_exact_count(CodeParams(m, r), ell)
        assert exact >= bound, (m, r, ell, exact, bound)


def test_low_weight_validation():
    with pytest.raises(OutOfRange):
        low_weight_lower_bound(4, 2, 3)
    with pytest.raises(OutOfRange):
        low_weight_exact_count(CodeParams(4, 2), 0)


# ---- generalized Hamming weights ----


def test_ghw_fixtures():
    assert [generalized_hamming_weight(3, 1, a) for a in range(1, 5)] == [4, 6, 7, 8]
    assert [generalized_hamming_weight(5, 2, a) for a in (1, 2, 3)] == [8, 12, 14]
    assert generalized_hamming_weight(4, 2, 1) == 4  # d_1 is the minimum distance


def test_ghw_boundaries():
    # d_k is always the full length, d_1 the minimum distance
    for m, r in [(3, 1), (4, 2), (5, 2)]:
        params = CodeParams(m, r)
        assert generalized_hamming_weight(m, r, params.k) == params.n
        assert generalized_hamming_weight(m, r, 1) == params.d
    with pytest.raises(OutOfRange):
        generalized_hamming_weight(3, 1, 5)


def subcode_support_minimum(params, a):
    # brute force: minimum union-support over all a-dimensional subcodes
    words = []
    rows = rmcode.generator_rows(params)
    for i in range(1, 1 << params.k):
        w = 0
        x = i
        j = 0
        while x:
            if x & 1:
                w ^= rows[j]
            x >>= 1
            j += 1
        words.append(w)
    best = params.n
    seen = set()
    for combo in combinations(range(len(words)), a):
        vs = [words[i] for i in combo]
        if gf2.rank(vs) != a:
            continue
        key = frozenset(vs)
        if key in seen:
            continue
        seen.add(key)
        supp = 0
        for v in vs:
            supp |= v
        best = min(best, supp.bit_count())
    return best


def test_ghw_matches_subcode_brute_force_rm31():
    params = CodeParams(3, 1)
    for a in range(1, params.k + 1):
        assert generalized_hamming_weight(3, 1, a) == subcode_support_minimum(params, a)


def test_ghw_strictly_increasing():
    for m, r in [(4, 2), (5, 2)]:
        params = CodeParams(m, r)
        seq = [generalized_hamming_weight(m, r, a) for a in range(1, params.k + 1)]
        assert all(x < y for x, y in zip(seq, seq[1:]))


# ---- EXIT function on the BEC ----


def test_exit_closed_forms():
    params_rep = CodeParams(3, 0)
    params_par = CodeParams(3, 2)
    for p in (0.0, 0.1, 0.35, 0.8, 1.0):
        assert exit_function_bec(params_rep, p) == pytest.approx(p**7, abs=1e-12)
        assert exit_function_bec(params_par, p) == pytest.approx(1 - (1 - p) ** 7, abs=1e-12)
    # the full code never recovers an erased coordinate
    assert exit_function_bec(CodeParams(1, 1), 0.3) == 1.0


def test_exit_monotone_and_bounded():
    params = CodeParams(4, 2)
    grid = [exit_function_bec(params, 0.05 * i) for i in range(21)]
    assert grid[0] == 0.0
    assert grid[-1] == 1.0
    assert all(a <= b + 1e-12 for a, b in zip(grid, grid[1:]))


def test_exit_symmetry_across_coordinates():
    params, p = CodeParams(3, 1), 0.4
    n = params.n

    def h(z):
        counts = analysis._exit_counts_for_coord(params, z)
        return math.fsum(counts[e] * p**e * (1.0 - p) ** (n - 1 - e) for e in range(n))

    h0 = exit_function_bec(params, p)
    assert h(0) == h0
    for z in range(1, n):
        assert abs(h(z) - h0) <= 1e-9, z


def test_exit_mc_agrees_with_exact():
    params = CodeParams(3, 1)
    p = 0.35
    exact = exit_function_bec(params, p)
    trials = 20_000
    est = exit_function_bec(params, p, mode="mc", trials=trials, seed=1)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(est - exact) <= 3 * sigma


@pytest.mark.parametrize("trials", [0, -3])
def test_mc_modes_reject_trials_below_one(trials):
    with pytest.raises(ValueError, match="trials >= 1"):
        exit_function_bec(CodeParams(3, 1), 0.5, mode="mc", trials=trials)
    with pytest.raises(ValueError, match="trials >= 1"):
        bitchannel_entropies_bec(2, 0.5, mode="mc", trials=trials)
    # exact mode ignores trials
    assert exit_function_bec(CodeParams(3, 1), 0.5, trials=trials) == exit_function_bec(CodeParams(3, 1), 0.5)


def test_exit_counts_against_rank_oracle():
    # independent recount over every pattern via rank equality; the exact
    # counts walk only the patterns erasing the first other coordinate
    cases = [(3, 1, 0), (3, 1, 5), (1, 0, 0), (1, 1, 1), (2, 1, 3), (4, 2, 9)]
    for m, r, z in cases + [(4, r, 0) for r in range(5)]:
        params = CodeParams(m, r)
        n = params.n
        cols = ref.transpose(rmcode.generator_rows(params), n)
        gz, others = cols[z], cols[:z] + cols[z + 1 :]
        counts = [0] * n
        for pat in range(1 << (n - 1)):
            unerased = [others[j] for j in range(n - 1) if not (pat >> j) & 1]
            if gf2.rank(unerased + [gz]) != gf2.rank(unerased):
                counts[pat.bit_count()] += 1
        assert analysis._exit_counts_for_coord(params, z) == tuple(counts), (m, r, z)
        if z == 0:
            assert analysis._exit_counts(m, r) == tuple(counts)


def test_exit_guards():
    with pytest.raises(TooLarge):
        exit_function_bec(CodeParams(5, 1), 0.3)
    with pytest.raises(ValueError):
        exit_function_bec(CodeParams(3, 1), 1.5)
    with pytest.raises(ValueError):
        exit_function_bec(CodeParams(3, 1), 0.3, mode="bogus")


def test_area_theorem_fixtures():
    integral, rate, diff = area_theorem_check(CodeParams(3, 1))
    assert rate == 0.5
    assert diff < 1e-3
    integral, rate, diff = area_theorem_check(CodeParams(4, 2))
    assert rate == 0.6875
    assert diff < 1e-3


def test_area_theorem_repetition():
    # integral of p^(n-1) over [0,1] is exactly 1/n = k/n
    integral, rate, diff = area_theorem_check(CodeParams(3, 0))
    assert rate == 1 / 8
    assert diff < 1e-6


def test_area_grid_validation():
    with pytest.raises(ValueError):
        area_theorem_check(CodeParams(3, 1), grid_size=65)
    with pytest.raises(ValueError):
        area_theorem_check(CodeParams(3, 1), grid_size=130)


# ---- ordered bit-channel entropies ----


def test_profile_fixture_m2():
    prof = bitchannel_entropies_bec(2, 0.5)
    order = rmcode.monomial_order(2)
    assert [mask for mask, _ in prof.entries] == list(order)
    values = [h for _, h in prof.entries]
    assert values == pytest.approx([0.9375, 0.5625, 0.4375, 0.0625], abs=1e-12)


def test_profile_against_rank_oracle_m2():
    # recount undetermined rows for all 16 patterns with plain rank calls
    rows = rmcode.rm_full_rows(2)
    p = 0.3
    expect = [0.0] * 4
    for S in range(16):
        weight = p ** (4 - S.bit_count()) * (1 - p) ** S.bit_count()
        restricted = [row & S for row in rows]
        for i in range(4):
            if gf2.rank(restricted[i:]) == gf2.rank(restricted[i + 1 :]):
                expect[i] += weight
    prof = bitchannel_entropies_bec(2, p)
    for i, (_, h) in enumerate(prof.entries):
        assert h == pytest.approx(expect[i], abs=1e-12)


def test_balance_equation_exact():
    for m in (1, 2, 3, 4):
        for p in (0.1, 0.5, 0.9):
            prof = bitchannel_entropies_bec(m, p)
            assert prof.total() == pytest.approx((1 << m) * p, abs=1e-9)


def test_entropies_within_unit_interval():
    prof = bitchannel_entropies_bec(3, 0.45)
    for _, h in prof.entries:
        assert -1e-12 <= h <= 1 + 1e-12


def test_partial_order_holds():
    for m in (2, 3, 4):
        for p in (0.2, 0.5, 0.8):
            prof = bitchannel_entropies_bec(m, p)
            assert check_partial_order(prof) == []


def test_partial_order_negative_control():
    prof = bitchannel_entropies_bec(2, 0.5)
    # swap the entropies of x1x2 (largest) and the constant (smallest)
    entries = list(prof.entries)
    entries[0], entries[-1] = (entries[0][0], entries[-1][1]), (entries[-1][0], entries[0][1])
    bad = EntropyProfile(2, 0.5, tuple(entries))
    assert check_partial_order(bad) != []


def test_interlacing_holds_small_m():
    for m in (1, 2, 3):
        for p in (0.25, 0.5, 0.75):
            assert check_interlacing(m, p) == []


def test_bitchannel_guards():
    with pytest.raises(TooLarge):
        bitchannel_entropies_bec(5, 0.5)
    with pytest.raises(ValueError):
        bitchannel_entropies_bec(3, -0.1)
    with pytest.raises(ValueError):
        bitchannel_entropies_bec(3, 0.5, mode="bogus")


def test_mc_profile_tracks_exact():
    p = 0.4
    exact = bitchannel_entropies_bec(3, p).as_dict()
    est = bitchannel_entropies_bec(3, p, mode="mc", trials=20_000, seed=3)
    assert est.mode == "mc"
    for mask, h in est.entries:
        sigma = math.sqrt(max(exact[mask] * (1 - exact[mask]), 1e-12) / 20_000)
        assert abs(h - exact[mask]) <= 4 * sigma + 1e-3


def ref_undetermined_rows(rows, S):
    """analysis._undetermined_rows with its own echelon loop, as it stood
    before it ran on gf2._echelon."""
    out = []
    basis = {}
    for i in range(len(rows) - 1, -1, -1):
        v = rows[i] & S
        while v:
            h = v.bit_length() - 1
            b = basis.get(h)
            if b is None:
                break
            v ^= b
        if v:
            basis[v.bit_length() - 1] = v
        else:
            out.append(i)
    return out


@settings(max_examples=300)
@given(st.lists(st.integers(0, (1 << 12) - 1), max_size=12), st.integers(0, (1 << 12) - 1))
def test_undetermined_rows_equal_former_loop(rows, S):
    assert set(analysis._undetermined_rows(rows, S)) == set(ref_undetermined_rows(rows, S))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_bitchannel_counts_equal_full_enumeration(m):
    # the exact counts walk only the S holding coordinate 0 and weight them
    # by translation symmetry; recount over every S with the former loop
    n = 1 << m
    rows = rmcode.rm_full_rows(m)
    counts = [[0] * (n + 1) for _ in range(n)]
    for S in range(1 << n):
        for i in ref_undetermined_rows(rows, S):
            counts[i][n - S.bit_count()] += 1
    assert analysis._bitchannel_counts(m) == tuple(tuple(c) for c in counts)


def test_mc_values_pinned_for_fixed_seeds():
    # recorded before the mc draws were packed with gf2.pack_bits: the same
    # draws must give the same hits
    for (m, r), p, trials, seed, bad in [
        ((3, 1), 0.35, 500, 1, 110),
        ((4, 2), 0.4, 300, 7, 234),
        ((5, 2), 0.45, 200, 0, 72),
    ]:
        assert exit_function_bec(CodeParams(m, r), p, mode="mc", trials=trials, seed=seed) == bad / trials
    for m, p, trials, seed, hits in [
        (3, 0.4, 500, 3, [494, 375, 317, 251, 59, 33, 23, 0]),
        (5, 0.3, 200, 0, [200, 200, 198, 195, 189, 188, 153, 138, 112, 95, 77, 52, 62, 39, 24, 19,
                          4, 1, 0, 0, 1] + [0] * 11),
    ]:
        prof = bitchannel_entropies_bec(m, p, mode="mc", trials=trials, seed=seed)
        assert [mask for mask, _ in prof.entries] == list(rmcode.monomial_order(m))
        assert [h for _, h in prof.entries] == [k / trials for k in hits]


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_bitchannel_rejects_negative_m(mode):
    with pytest.raises(ValueError, match="m must be >= 0"):
        bitchannel_entropies_bec(-1, 0.3, mode=mode, trials=1)


def test_size_guards_run_before_any_allocation():
    # past a cap nothing is built: 2^21 monomial keys take seconds to sort,
    # and 2^30 or 2^40 of them do not fit in memory
    start = time.perf_counter()
    for m in (21, 30):
        with pytest.raises(TooLarge):
            bitchannel_entropies_bec(m, 0.3)
    with pytest.raises(TooLarge):
        bitchannel_entropies_bec(40, 0.3, mode="mc", trials=1)
    for m in (15, 17):
        with pytest.raises(TooLarge):
            exit_function_bec(CodeParams(m, 1), 0.3, mode="mc", trials=1)
    with pytest.raises(TooLarge):
        bitchannel_entropies_bec(15, 0.3, mode="mc", trials=1)
    assert time.perf_counter() - start < 2.0
    # the mc cap is n <= 2^14; small m still runs
    assert len(bitchannel_entropies_bec(6, 0.3, mode="mc", trials=1).entries) == 64


# ---- twin code selection ----


def test_twin_select_keeps_low_entropy_monomials():
    prof = bitchannel_entropies_bec(3, 0.45)
    picked = twin_rm_select(prof, 0.4)
    degree_le_1 = {mask for mask in rmcode.monomial_order(3) if mask.bit_count() <= 1}
    assert set(picked) == degree_le_1
    # kept in MonomialOrder
    order = list(rmcode.monomial_order(3))
    assert picked == [mask for mask in order if mask in set(picked)]


def test_twin_report_matches_degree_sets_at_half():
    report = twin_rm_report(bitchannel_entropies_bec(3, 0.5))
    assert [row["r"] for row in report] == [0, 1, 2, 3]
    assert [row["k"] for row in report] == [1, 4, 7, 8]
    assert all(row["symmetric_difference"] == 0 for row in report)


def test_twin_select_extremes():
    prof = bitchannel_entropies_bec(2, 0.5)
    assert twin_rm_select(prof, 1.0) == list(rmcode.monomial_order(2))
    assert twin_rm_select(prof, -0.1) == []


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_twin_select_rejects_non_finite_eps(eps):
    prof = bitchannel_entropies_bec(2, 0.5)
    with pytest.raises(ValueError, match="eps must be finite"):
        twin_rm_select(prof, eps)


# ---- cross-module consistency ----


def test_recoverability_matches_erasure_decoder():
    # a pattern is uniquely erasure-decodable iff the unerased columns have
    # full rank; spot-check the oracle decoder against the rank criterion
    rng = np.random.default_rng(81)
    params = CodeParams(3, 2)
    cols = ref.transpose(rmcode.generator_rows(params), 8)
    for _ in range(200):
        erased = rng.random(8) < 0.4
        y = np.zeros(8, dtype=np.uint8)
        y[erased] = channel.ERASURE
        unerased = [cols[j] for j in range(8) if not erased[j]]
        unique = gf2.rank(unerased) == params.k
        res = erasure_decode(params, y)
        if unique:
            assert res.codeword.tolist() == [0] * 8
        else:
            assert isinstance(res, Ambiguous)
