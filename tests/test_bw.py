import numpy as np
import pytest

from rmlab import gf2, rmcode
from rmlab.decoders.bw import bw_decode
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
    supp = np.flatnonzero(rmcode.eval_monomial(0b0111, 4))
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
