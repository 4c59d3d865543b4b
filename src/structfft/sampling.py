"""Pivoted multi-coset sampling patterns and their aliasing structure.

The pattern for a pivot vector r = (r_1 < ... < r_s) in Z_{2^M} is
    I_r = { sum_k b_k 2^{M-1-r_k} : b in {0,1}^s },
equivalently I_r = I_{r^-} union (I_{r^-} + 2^{M-1-r_max}).  Its indicator's
DFT (the aliasing pattern) factors as a product of s binomial terms, and its
zeros are structural: h(m) = 0 exactly when v2(m) is one of the pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .congruence import (
    SupportSet,
    check_part_homogeneous,
    pivots,
    v2,
    validate_pivot_vector,
)
from .errors import BudgetExceededError, ContractViolationError, InvalidInputError


@dataclass(frozen=True)
class SamplingPattern:
    N: int
    pivots: tuple[int, ...]
    samples: tuple[int, ...]

    @property
    def M(self) -> int:
        return self.N.bit_length() - 1

    def __len__(self) -> int:
        return len(self.samples)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.samples, dtype=np.int64)

    def as_support(self) -> SupportSet:
        return SupportSet.make(self.N, self.samples)


FFT_RUN = 6  # shortest run of consecutive pivots the butterfly hands to numpy.fft


def fft_runs(r: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """(j, m) of every maximal run r_j, r_j + 1, ..., r_j + m - 1 of at
    least FFT_RUN consecutive pivots, ascending."""
    runs, j = [], 0
    for i in range(1, len(r) + 1):
        if i == len(r) or r[i] != r[i - 1] + 1:
            if i - j >= FFT_RUN:
                runs.append((j, i - j))
            j = i
    return tuple(runs)


def pattern_offsets(r: Sequence[int], M: int) -> np.ndarray:
    """I_r in butterfly order: element b is sum_i bit_i(b) 2^{M-1-q_i}, where
    q is r with every run of `fft_runs` reversed.

    So outside the long runs bit i of b selects pivot r_i, and a run of m
    pivots c..c+m-1 at indices j..j+m-1 contributes n 2^{M-c-m}, with n
    = (b >> j) mod 2^m: its samples lie in natural DFT order along that
    bit field, as the butterfly's `numpy.fft` over the run reads them.
    The order depends on r alone.
    """
    q = list(r)
    for j, m in fft_runs(q):
        q[j:j + m] = q[j:j + m][::-1]
    b = np.arange(1 << len(q), dtype=np.int64)
    out = np.zeros(len(b), dtype=np.int64)
    for i, qi in enumerate(q):
        out += ((b >> i) & 1) << (M - 1 - qi)
    return out


def _recursive(r: tuple[int, ...], M: int) -> list[int]:
    """I_r = I_{r^-} union (I_{r^-} + 2^{M-1-r_max}); the tests' oracle."""
    if not r:
        return [0]
    base = _recursive(r[:-1], M)
    shift = 1 << (M - 1 - r[-1])
    return sorted(set(base) | {x + shift for x in base})


def pivoted_pattern(r: Sequence[int], M: int) -> SamplingPattern:
    """Build I_r from its closed form, in ascending order."""
    rt = validate_pivot_vector(r, M)
    return SamplingPattern(1 << M, rt, tuple(np.sort(pattern_offsets(rt, M)).tolist()))


def aliasing_value(r: Sequence[int], m: int, N: int) -> complex:
    """h(m) = prod_i (1 + e^{-2 pi i m / 2^{r_i+1}}), the DFT of 1_{I_r} at m."""
    M = N.bit_length() - 1
    rt = validate_pivot_vector(r, M)
    out = 1.0 + 0j
    for ri in rt:
        out *= 1.0 + np.exp(-2j * np.pi * (m % (1 << (ri + 1))) / (1 << (ri + 1)))
    return complex(out)


def aliasing_is_zero(r: Sequence[int], m: int, N: int) -> bool:
    """Structural zero test: h(m) = 0 iff v2(m mod N) is an entry of r.

    Exact in integer arithmetic; a factor vanishes iff m is congruent to
    2^{r_i} mod 2^{r_i+1}.
    """
    m = m % N
    if m == 0:
        return False
    return v2(m) in set(r)


@dataclass(frozen=True)
class PairIsolation:
    j1: int
    j2: int
    v2_diff: int
    isolated: bool
    expected_h: complex


@dataclass(frozen=True)
class IsolationReport:
    pivots: tuple[int, ...]
    drop: int
    pairs: tuple[PairIsolation, ...]


def check_isolation(r: Sequence[int], J: SupportSet, drop: int = 0) -> IsolationReport:
    """Verify the aliasing pattern's action on all pairs of an r-part-homogeneous J.

    With the last `drop` pivots removed, h(j1-j2) must be 0 exactly when
    v2(j1-j2) is among the retained pivots and 2^{size(r)-drop} otherwise.
    Raises if J is not r-part-homogeneous, naming the offending pivot.
    """
    rt = validate_pivot_vector(r, J.M)
    if drop < 0 or drop > len(rt):
        raise InvalidInputError("drop must be in [0, size(r)]")
    check_part_homogeneous(pivots(J), rt)
    kept = rt[: len(rt) - drop]
    keep_set = set(kept)
    full = 2 ** len(kept)
    pairs = []
    idx = J.indices
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            d = (idx[a] - idx[b]) % J.N
            e = v2(d)
            if e <= (rt[-1] if rt else -1) and e not in set(rt):
                raise ContractViolationError(
                    f"pair ({idx[a]},{idx[b]}) has v2={e}, not a listed pivot"
                )
            isolated = e in keep_set
            pairs.append(
                PairIsolation(idx[a], idx[b], e, isolated, 0j if isolated else complex(full))
            )
    return IsolationReport(rt, drop, tuple(pairs))


@dataclass(frozen=True)
class IsolationSearchResult:
    minimum: int
    witness: tuple[int, ...] | None
    exact: bool  # False when the node budget ran out; minimum is then a lower bound


def _balance_conditions(N: int, diffs: set[int]) -> list[tuple[int, int]]:
    """Each difference d forces I to be balanced mod N' = N / 2^{v2(d)}.

    Balanced means equal counts in residue classes u and u + N'/2 for every
    u; this is the exact (cyclotomic) characterization of h(d) = 0 for N a
    power of two.  Returns deduplicated (modulus, half) pairs.
    """
    vals = sorted({v2(d) for d in diffs})
    return [(N >> e, N >> (e + 1)) for e in vals]


def min_isolating_set(
    K: SupportSet,
    within: SupportSet | None = None,
    max_nodes: int = 20_000_000,
) -> IsolationSearchResult:
    """Smallest I subset of Z_N whose aliasing pattern vanishes on the needed differences.

    By default the differences are the pairwise differences within K.  When
    `within` is given (e.g. the powers-of-two set the converse argument lives
    in), isolation is required between every element of K and every other
    element of `within`, which is the meaningful notion when K sits inside a
    larger support.

    Search: depth-first by increasing size, lexicographic candidates,
    pruning on class-imbalance feasibility and parity.  The witness returned
    is the lexicographically least of minimal size.  Zero tests are exact
    integer balance conditions, never float comparisons.
    """
    N = K.N
    amb = K if within is None else within
    if within is not None and within.N != N:
        raise InvalidInputError("`within` must share K's modulus")
    diffs = {
        (a - b) % N
        for a in K.indices
        for b in amb.indices
        if (a - b) % N != 0
    }
    if not diffs:
        return IsolationSearchResult(1, (0,), True)
    conds = _balance_conditions(N, diffs)
    # per condition: counts[u] for u < half track surplus of class u over u+half
    budget = [max_nodes]

    def feasible(imb: list[np.ndarray], remaining: int) -> bool:
        for im in imb:
            need = int(np.abs(im).sum())
            if need > remaining or (remaining - need) % 2 != 0:
                return False
        return True

    def dfs(start: int, chosen: list[int], imb: list[np.ndarray], remaining: int):
        if budget[0] <= 0:
            raise BudgetExceededError("min_isolating_set node budget exceeded")
        budget[0] -= 1
        if remaining == 0:
            if all(not im.any() for im in imb):
                return tuple(chosen)
            return None
        if N - start < remaining:
            return None
        if not feasible(imb, remaining):
            return None
        for cand in range(start, N):
            for im, (mod, half) in zip(imb, conds):
                u = cand % mod
                im[u % half] += 1 if u < half else -1
            chosen.append(cand)
            hit = dfs(cand + 1, chosen, imb, remaining - 1)
            if hit is not None:
                return hit
            chosen.pop()
            for im, (mod, half) in zip(imb, conds):
                u = cand % mod
                im[u % half] -= 1 if u < half else -1
        return None

    lower = 1 << len(conds)  # each distinct cyclotomic factor doubles |I|
    for size in range(1, N + 1):
        imb = [np.zeros(half, dtype=np.int64) for _, half in conds]
        try:
            hit = dfs(0, [], imb, size)
        except BudgetExceededError:
            return IsolationSearchResult(max(size, lower), None, False)
        if hit is not None:
            return IsolationSearchResult(size, hit, True)
    raise AssertionError("unreachable: Z_N itself always isolates")
