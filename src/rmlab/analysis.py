"""Structural and statistical code analysis, exact at desk scale.

Weight distributions by Gray-code enumeration, generalized Hamming
weights from the greedy binomial representation, and the BEC quantities
(EXIT function, area theorem, ordered bit-channel entropies with the
partial-order / interlacing / twin-code checks).  "Exact" BEC results
enumerate all erasure patterns, so they are restricted to n <= 16;
everything larger must go through the Monte-Carlo mode (n <= 2^14), which
packs its draws into the bitmask that the exact loop walks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from . import channel, gf2, rmcode
from .rmcode import CodeParams, TooLarge


class OutOfRange(Exception):
    """Argument outside the valid range for the requested quantity."""


_ENUM_K_MAX = 24
_EXACT_N_MAX = 16
# one polarize trial: m = 14 about 5 s, 310 MB on a 2-vCPU VM; m = 15 23 s,
# 1.3 GB, and a 2^30-cell full-order matrix past rmcode._EVAL_CELLS
_MC_N_MAX = 1 << 14


def _check_mc(n: int, trials: int) -> None:
    if trials < 1:
        raise ValueError(f"mc mode needs trials >= 1, got {trials}")
    if n > _MC_N_MAX:
        raise TooLarge(f"mc mode needs n <= 2^{_MC_N_MAX.bit_length() - 1}, got n = 2^{n.bit_length() - 1}")


def _binomsum(m: int, r: int) -> int:
    """sum_{i<=r} C(m,i), clamped: 0 when r < 0, 2^m when r >= m."""
    if r < 0:
        return 0
    return sum(math.comb(m, i) for i in range(min(r, m) + 1))


# ---------------------------------------------------------------- weights

@dataclass(frozen=True)
class WeightDistribution:
    params: CodeParams
    counts: dict


def weight_distribution(params: CodeParams) -> WeightDistribution:
    """Exact codeword weight counts via a Gray-code walk over all messages."""
    if params.k > _ENUM_K_MAX:
        raise TooLarge(f"2^{params.k} codewords is beyond enumeration range")
    rows = rmcode.generator_rows(params)
    counts: dict = {}
    word = 0
    counts[0] = 1
    for i in range(1, 1 << params.k):
        word ^= rows[(i & -i).bit_length() - 1]
        w = word.bit_count()
        counts[w] = counts.get(w, 0) + 1
    return WeightDistribution(params, dict(sorted(counts.items())))


def low_weight_lower_bound(m: int, r: int, ell: int):
    """(1/2, c): at least 2^(c-1) codewords have relative weight <= 2^-ell."""
    if not 1 <= ell <= r:
        raise OutOfRange("need 1 <= ell <= r")
    return 0.5, _binomsum(m - ell + 1, r - ell + 1)


def low_weight_exact_count(params: CodeParams, ell: int) -> int:
    """Exact number of codewords (zero included) of weight <= 2^(m-ell)."""
    if not 1 <= ell <= params.r:
        raise OutOfRange("need 1 <= ell <= r")
    threshold = 1 << (params.m - ell)
    wd = weight_distribution(params)
    return sum(a for w, a in wd.counts.items() if w <= threshold)


def generalized_hamming_weight(m: int, r: int, a: int) -> int:
    """Minimum support size over a-dimensional subcodes of RM(m,r).

    Uses the unique greedy representation a = sum_i C(m_i, <= r_i) with
    m_i strictly decreasing and m_i - r_i = m - r - i + 1; the weight is
    then sum_i 2^{m_i}.
    """
    k = _binomsum(m, r)
    if not 1 <= a <= k:
        raise OutOfRange(f"need 1 <= a <= {k}")
    total = 0
    remaining = a
    prev = m + 1
    i = 1
    while remaining > 0:
        delta = m - r - i + 1
        mi = None
        for cand in range(prev - 1, -1, -1):
            c = _binomsum(cand, cand - delta)
            if 0 < c <= remaining:
                mi = cand
                break
        if mi is None:  # cannot happen for valid a; guards a broken invariant
            raise OutOfRange(f"no greedy representation for a={a}")
        remaining -= _binomsum(mi, mi - delta)
        total += 1 << mi
        prev = mi
        i += 1
    return total


# ---------------------------------------------------------------- BEC EXIT

def _recovers(g: int, others, pat: int) -> bool:
    """True iff g lies in the span of the others[j] that pat leaves unerased."""
    return gf2.in_span([c for j, c in enumerate(others) if not (pat >> j) & 1], g)


def _exit_counts_for_coord(params: CodeParams, z: int):
    """counts[e] = erasure patterns of size e on the other n-1 coordinates
    from which coordinate z is NOT recoverable."""
    n = params.n
    cols = rmcode.generator_columns(params)
    others = cols[:z] + cols[z + 1 :]
    # The linear maps about z's point are automorphisms fixing z that carry
    # others[0] to every other coordinate: each of the n-1 is erased by equally
    # many unrecoverable patterns of size e, and each pattern erases e, so the
    # odd pat (others[0] erased), weighted (n-1)/e, count them all.
    counts = [int(not _recovers(cols[z], others, 0))] + [0] * (n - 1)
    for pat in range(1, 1 << (n - 1), 2):
        if not _recovers(cols[z], others, pat):
            counts[pat.bit_count()] += 1
    return (counts[0],) + tuple(counts[e] * (n - 1) // e for e in range(1, n))


@lru_cache(maxsize=None)
def _exit_counts(m: int, r: int):
    params = CodeParams(m, r)
    if params.n > _EXACT_N_MAX:
        raise TooLarge(f"exact mode enumerates 2^{params.n - 1} patterns")
    return _exit_counts_for_coord(params, 0)


def exit_function_bec(
    params: CodeParams,
    p: float,
    mode: str = "exact",
    trials: int = 100_000,
    seed: int = 0,
) -> float:
    """h(p): probability that coordinate 0 is unrecoverable from the rest.

    A coordinate is recoverable from an unerased set S exactly when its
    generator column lies in the span of the columns indexed by S.  The
    exact mode sums binomial pattern weights over all 2^(n-1) patterns.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    n = params.n
    if mode == "exact":
        counts = _exit_counts(params.m, params.r)
        return math.fsum(counts[e] * p**e * (1.0 - p) ** (n - 1 - e) for e in range(n))
    if mode == "mc":
        _check_mc(n, trials)
        cols = rmcode.generator_columns(params)
        others = cols[1:]
        rng = channel._rng(seed)
        bad = sum(
            not _recovers(cols[0], others, gf2.pack_bits(rng.random(n - 1) < p))
            for _ in range(trials)
        )
        return bad / trials
    raise ValueError(f"unknown mode {mode!r}")


def area_theorem_check(params: CodeParams, grid_size: int = 129):
    """Composite-Simpson integral of h over [0,1] against the rate k/n."""
    if grid_size < 129 or grid_size % 2 == 0:
        raise ValueError("grid_size must be odd and >= 129")
    xs = np.linspace(0.0, 1.0, grid_size)
    ys = np.array([exit_function_bec(params, float(x)) for x in xs])
    # imported here: scipy.integrate takes about 0.5 s, and only this needs it
    from scipy.integrate import simpson

    integral = float(simpson(ys, x=xs))
    rate = params.k / params.n
    return integral, rate, abs(integral - rate)


# ------------------------------------------------------- ordered entropies

@dataclass(frozen=True)
class EntropyProfile:
    """Ordered bit-channel entropies H_{A_i} of the full m-variate basis.

    entries pairs each monomial subset mask (full MonomialOrder) with its
    conditional entropy given all earlier coefficients and the channel
    output; exact profiles satisfy sum H == n*p up to rounding.
    """

    m: int
    p: float
    entries: tuple
    mode: str = "exact"

    def as_dict(self) -> dict:
        return {mask: h for mask, h in self.entries}

    def total(self) -> float:
        return math.fsum(h for _, h in self.entries)


def _undetermined_rows(rows, S: int):
    """Indices i where row_i restricted to S falls in the span of the later
    rows restricted to S (an echelon pass from the last row up)."""
    last = len(rows) - 1
    return [last - i for i in gf2._echelon([row & S for row in reversed(rows)])[1]]


@lru_cache(maxsize=None)
def _bitchannel_counts(m: int):
    """counts[i][e] = unerased sets with e erasures leaving U_{A_i} undetermined."""
    n = 1 << m
    if n > _EXACT_N_MAX:
        raise TooLarge(f"exact mode enumerates 2^{n} patterns")
    rows = rmcode.rm_full_rows(m)
    # Translations S -> S XOR t keep each verdict (a translate of row i is row
    # i plus rows of proper subsets of A_i, all later) and carry coordinate 0
    # everywhere, so as above the odd S, weighted n/|S|, count every nonempty
    # S; the empty S leaves all n rows undetermined.
    counts = [[0] * n + [1] for _ in range(n)]
    for S in range(1, 1 << n, 2):
        e = n - S.bit_count()
        for i in _undetermined_rows(rows, S):
            counts[i][e] += 1
    return tuple(tuple(c[e] * n // (n - e) for e in range(n)) + (1,) for c in counts)


def bitchannel_entropies_bec(
    m: int,
    p: float,
    mode: str = "exact",
    trials: int = 100_000,
    seed: int = 0,
) -> EntropyProfile:
    """Entropy profile of the ordered synthetic bit channels on BEC(p).

    U_{A_i} is determined from (U_{A_1..A_{i-1}}, unerased outputs) exactly
    when row i restricted to the unerased set S stays independent of the
    later rows; each erasure pattern leaves exactly |erasures| rows
    undetermined, which is what makes the balance equation exact.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    n = 1 << m
    if mode == "exact":
        hs = [
            math.fsum(c[e] * p**e * (1.0 - p) ** (n - e) for e in range(n + 1))
            for c in _bitchannel_counts(m)
        ]
    elif mode == "mc":
        _check_mc(n, trials)
        rows = rmcode.rm_full_rows(m)
        rng = channel._rng(seed)
        hits = [0] * n
        for _ in range(trials):
            for i in _undetermined_rows(rows, gf2.pack_bits(rng.random(n) >= p)):
                hits[i] += 1
        hs = [h / trials for h in hits]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return EntropyProfile(m, p, tuple(zip(rmcode.monomial_order(m), hs)), mode)


def check_partial_order(profile: EntropyProfile, tol: float = 1e-9):
    """Violations of A >= B (set containment) implying H_A >= H_B."""
    violations = []
    entries = profile.entries
    for a_mask, ha in entries:
        for b_mask, hb in entries:
            if a_mask != b_mask and a_mask & b_mask == b_mask and ha < hb - tol:
                violations.append((a_mask, b_mask, ha, hb))
    return violations


def check_interlacing(m: int, p: float, tol: float = 1e-9):
    """Chain interlacing between sizes m and m+1.

    For every maximal increasing chain emptyset = B_0 < ... < B_m = [m],
    extended by B_{m+1} = [m+1], checks
    H^{(m+1)}_{B_i} <= H^{(m)}_{B_i} <= H^{(m+1)}_{B_{i+1}} for all i.
    """
    lo = bitchannel_entropies_bec(m, p).as_dict()
    hi = bitchannel_entropies_bec(m + 1, p).as_dict()
    full = (1 << (m + 1)) - 1
    violations = []
    for perm in permutations(range(m)):
        chain = [0]
        for v in perm:
            chain.append(chain[-1] | (1 << v))
        chain.append(full)
        for i in range(m + 1):
            b, b_next = chain[i], chain[i + 1]
            if hi[b] > lo[b] + tol:
                violations.append((perm, i, "upper", hi[b], lo[b]))
            if lo[b] > hi[b_next] + tol:
                violations.append((perm, i, "lower", lo[b], hi[b_next]))
    return violations


def twin_rm_select(profile: EntropyProfile, eps: float):
    """Subsets with H_{A_i} <= eps, kept in MonomialOrder."""
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    return [mask for mask, h in profile.entries if h <= eps]


def twin_rm_report(profile: EntropyProfile):
    """Compare entropy-based selection against each degree threshold.

    For every r the k(m,r) lowest-entropy subsets (ties resolved toward
    the tail of MonomialOrder, i.e. lower degree) are matched against the
    degree <= r selection; reports the symmetric-difference size.
    """
    m = profile.m
    entries = profile.entries
    n = len(entries)
    by_entropy = sorted(range(n), key=lambda i: (entries[i][1], n - i))
    report = []
    for r in range(m + 1):
        k = _binomsum(m, r)
        chosen = {entries[i][0] for i in by_entropy[:k]}
        degree = {mask for mask, _ in entries if mask.bit_count() <= r}
        report.append(
            {"r": r, "k": k, "symmetric_difference": len(chosen ^ degree)}
        )
    return report
