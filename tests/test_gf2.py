import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmlab import gf2, rmcode

import reference_structure as ref


def bits(*vals):
    """Little helper: (1,0,1) -> int with bit i = vals[i]."""
    word = 0
    for i, v in enumerate(vals):
        if v:
            word |= 1 << i
    return word


def test_rank_zero_matrix():
    assert gf2.rank([0, 0, 0]) == 0


def test_rank_identity():
    assert gf2.rank([1 << i for i in range(4)]) == 4


def test_rank_first_order_generator():
    rows = rmcode.generator_rows(rmcode.CodeParams(3, 1))
    assert gf2.rank(rows) == 4


def test_solve_affine_identity():
    sol = gf2.solve_affine([1, 2, 4], 3, bits(1, 0, 1))
    assert sol.particular == bits(1, 0, 1)
    assert list(sol.nullspace_basis) == []


def test_solve_affine_parity_constraint():
    sol = gf2.solve_affine([bits(1, 1)], 2, 0)
    assert sol.particular == 0
    assert list(sol.nullspace_basis) == [bits(1, 1)]


def test_solve_affine_inconsistent():
    with pytest.raises(gf2.InconsistentSystem):
        gf2.solve_affine([bits(1, 0), bits(1, 0)], 2, bits(1, 0))


def test_in_span_zero_vector():
    assert gf2.in_span([bits(1, 1, 0)], 0)
    assert gf2.in_span([], 0)


def test_in_span_sum_of_rows():
    assert gf2.in_span([bits(1, 1, 0), bits(0, 1, 1)], bits(1, 0, 1))


def test_in_span_negative():
    assert not gf2.in_span([bits(1, 1, 0)], bits(1, 0, 0))


def test_pack_unpack_roundtrip():
    y = np.array([1, 0, 1, 1, 0, 0, 0, 1], dtype=np.uint8)
    assert np.array_equal(gf2.unpack_bits(gf2.pack_bits(y), 8), y)


def test_parity():
    assert ref.parity(0) == 0
    assert ref.parity(0b1011) == 1
    assert ref.parity(0b1111) == 0


def test_transpose_shapes():
    rows = [bits(1, 1, 0), bits(0, 1, 1)]
    cols = ref.transpose(rows, 3)
    assert cols == [bits(1, 0), bits(1, 1), bits(0, 1)]


def test_mat_vec():
    rows = [bits(1, 1, 0), bits(0, 1, 1)]
    assert gf2.mat_vec(rows, bits(1, 1, 0)) == bits(0, 1)


def test_vec_mat():
    rows = [bits(1, 1, 0), bits(0, 1, 1)]
    assert gf2.vec_mat(rows, bits(1, 1)) == bits(1, 0, 1)
    assert gf2.vec_mat(rows, bits(0, 1)) == rows[1]
    assert gf2.vec_mat(rows, 0) == 0


@st.composite
def _matrices(draw, max_dim=10):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    rows = draw(
        st.lists(st.integers(0, (1 << ncols) - 1), min_size=nrows, max_size=nrows)
    )
    return rows, ncols


@given(_matrices())
def test_rank_transpose_invariant(mat):
    rows, ncols = mat
    assert gf2.rank(rows) == gf2.rank(ref.transpose(rows, ncols))


@given(_matrices(), st.data())
def test_vec_mat_is_mat_vec_over_the_transpose(mat, data):
    rows, ncols = mat
    x = data.draw(st.integers(0, (1 << len(rows)) - 1))
    assert gf2.vec_mat(rows, x) == gf2.mat_vec(ref.transpose(rows, ncols), x)


@given(_matrices())
def test_rank_bounds(mat):
    rows, ncols = mat
    assert 0 <= gf2.rank(rows) <= min(len(rows), ncols)


@given(_matrices(max_dim=8), st.integers(0, 255))
def test_solve_affine_contract(mat, b_raw):
    rows, ncols = mat
    b = b_raw & ((1 << len(rows)) - 1)
    try:
        sol = gf2.solve_affine(rows, ncols, b)
    except gf2.InconsistentSystem:
        # b must really be outside the column span
        cols = ref.transpose(rows, ncols)
        assert not gf2.in_span(cols, b)
        return
    assert gf2.mat_vec(rows, sol.particular) == b
    for v in sol.nullspace_basis:
        assert gf2.mat_vec(rows, v) == 0
    assert len(sol.nullspace_basis) == ncols - gf2.rank(rows)


@settings(max_examples=30)
@given(_matrices(max_dim=6))
def test_in_span_matches_enumeration(mat):
    rows, ncols = mat
    spanned = set()
    for mask in range(1 << len(rows)):
        acc = 0
        for i, row in enumerate(rows):
            if (mask >> i) & 1:
                acc ^= row
        spanned.add(acc)
    for v in range(1 << ncols):
        assert gf2.in_span(rows, v) == (v in spanned)


def test_solution_set_size_exhaustive():
    # every solution of M x = b is particular + span(nullspace)
    rows = [bits(1, 0, 1, 1), bits(0, 1, 1, 0), bits(1, 1, 0, 1)]
    ncols = 4
    b = gf2.mat_vec(rows, bits(1, 1, 0, 0))
    sol = gf2.solve_affine(rows, ncols, b)
    brute = {x for x in range(1 << ncols) if gf2.mat_vec(rows, x) == b}
    assert len(brute) == 1 << sol.count_exponent
    assert sol.particular in brute


@settings(max_examples=60)
@given(_matrices(max_dim=6), st.integers(0, 63))
def test_particular_is_lexicographically_smallest(mat, x_raw):
    # lex order on the bit sequence (x_0, x_1, ...); b chosen solvable
    rows, ncols = mat
    b = gf2.mat_vec(rows, x_raw & ((1 << ncols) - 1))
    sol = gf2.solve_affine(rows, ncols, b)

    def seq(x):
        return tuple((x >> i) & 1 for i in range(ncols))

    brute = min(
        (x for x in range(1 << ncols) if gf2.mat_vec(rows, x) == b), key=seq
    )
    assert sol.particular == brute


# ---- solve_affine against its former pivot loop ----


def ref_solve_affine(rows, ncols, b):
    """solve_affine as it stood with its own pivot loop, before it ran on
    gf2._echelon; returns (particular, nullspace_basis)."""
    aug = [row | (((b >> i) & 1) << ncols) for i, row in enumerate(rows)]
    pivot_of_col = {}
    reduced = []
    for row in aug:
        v = row
        for col, idx in pivot_of_col.items():
            if (v >> col) & 1:
                v ^= reduced[idx]
        if v == 0:
            continue
        if v == 1 << ncols:
            raise gf2.InconsistentSystem("no solution")
        col = (v & ((1 << ncols) - 1)).bit_length() - 1
        for i, prev in enumerate(reduced):
            if (prev >> col) & 1:
                reduced[i] = prev ^ v
        pivot_of_col[col] = len(reduced)
        reduced.append(v)
    particular = 0
    for col, idx in pivot_of_col.items():
        if (reduced[idx] >> ncols) & 1:
            particular |= 1 << col
    basis = []
    for free in range(ncols):
        if free in pivot_of_col:
            continue
        vec = 1 << free
        for col, idx in pivot_of_col.items():
            if (reduced[idx] >> free) & 1:
                vec |= 1 << col
        basis.append(vec)
    return particular, tuple(basis)


@st.composite
def _systems(draw, max_dim=10):
    # rows drawn from zero, a small pool (so rows repeat) or anywhere
    ncols = draw(st.integers(0, max_dim))
    word = st.integers(0, (1 << ncols) - 1)
    pool = draw(st.lists(word, min_size=1, max_size=3))
    rows = draw(st.lists(st.one_of(st.just(0), st.sampled_from(pool), word), max_size=max_dim))
    b = draw(st.integers(0, (1 << len(rows)) - 1))
    return rows, ncols, b


def _outcome(solve, rows, ncols, b):
    try:
        sol = solve(rows, ncols, b)
    except gf2.InconsistentSystem as exc:
        return "inconsistent", str(exc)
    return sol if isinstance(sol, tuple) else (sol.particular, sol.nullspace_basis)


@settings(max_examples=400)
@given(_systems())
@example(([0, 0], 3, 0b10))  # b set on a zero row: 0 = 1
@example(([0b101, 0b101, 0b101], 3, 0b011))  # repeated rows, b off the column span
@example(([0b11, 0b01, 0b10], 2, 0b111))  # three rows of rank two, b off the span
@example(([], 4, 0))
@example(([0, 0b1], 0, 0b1))
def test_solve_affine_equals_former_pivot_loop(system):
    rows, ncols, b = system
    rows = [row & ((1 << ncols) - 1) for row in rows]
    assert _outcome(gf2.solve_affine, rows, ncols, b) == _outcome(ref_solve_affine, rows, ncols, b)


def test_solve_affine_reference_sweep_hits_both_outcomes():
    # the same comparison on a seeded sweep, which must meet consistent and
    # inconsistent systems, zero rows and repeated rows
    rng = np.random.default_rng(20)
    inconsistent, zero_rows, repeats = set(), False, False
    for _ in range(3000):
        ncols = int(rng.integers(0, 11))
        pool = [0, *rng.integers(0, 1 << ncols, size=2).tolist()]
        rows = [
            pool[int(rng.integers(3))] if rng.integers(2) else int(rng.integers(0, 1 << ncols))
            for _ in range(int(rng.integers(0, 11)))
        ]
        b = int(rng.integers(0, 1 << len(rows)))
        got = _outcome(gf2.solve_affine, rows, ncols, b)
        assert got == _outcome(ref_solve_affine, rows, ncols, b), (rows, ncols, b)
        inconsistent.add(got[0] == "inconsistent")
        zero_rows |= 0 in rows
        repeats |= len(set(rows)) < len(rows)
    assert inconsistent == {True, False} and zero_rows and repeats


def test_echelon_reports_the_rows_that_reduced_to_zero():
    # row 1 is zero, row 3 = row 0 ^ row 2, row 4 repeats row 0
    basis, dependent = gf2._echelon([0b110, 0, 0b011, 0b101, 0b110, 0b001])
    assert dependent == [1, 3, 4]
    assert basis == {2: 0b110, 1: 0b011, 0: 0b001}
