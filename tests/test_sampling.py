"""Tests for pivoted sampling patterns, aliasing values, and isolation search."""

import itertools

import numpy as np
import pytest

from structfft import (
    ContractViolationError,
    InvalidInputError,
    SupportSet,
    aliasing_is_zero,
    aliasing_value,
    check_isolation,
    dft_direct,
    gen_jstar,
    min_isolating_set,
    pivoted_pattern,
    pivots,
)
from structfft.sampling import FFT_RUN, _recursive, fft_runs, pattern_offsets

rng = np.random.default_rng(11)


class TestPivotedPattern:
    def test_fixture_02_m10(self):
        assert pivoted_pattern((0, 2), 10).samples == (0, 128, 512, 640)

    def test_empty_is_origin(self):
        assert pivoted_pattern((), 6).samples == (0,)

    def test_full_is_everything(self):
        assert pivoted_pattern(tuple(range(4)), 4).samples == tuple(range(16))

    def test_13_m6_definition_not_figure(self):
        # the closed form at M=6 gives these values (a figure in the source
        # material lists the M=5 values instead)
        assert pivoted_pattern((1, 3), 6).samples == (0, 4, 16, 20)
        assert pivoted_pattern((1, 3), 5).samples == (0, 2, 8, 10)

    def test_sizes(self):
        r = (0, 2, 5, 9)
        for n in range(len(r) + 1):
            assert len(pivoted_pattern(r[: len(r) - n], 12)) == 1 << (len(r) - n)

    def test_recursive_equals_closed_form(self):
        for _ in range(300):
            M = int(rng.integers(1, 25))
            s = int(rng.integers(0, min(M, 12) + 1))
            r = tuple(sorted(rng.choice(M, size=s, replace=False).tolist()))
            pat = pivoted_pattern(r, M)
            assert list(pat.samples) == _recursive(r, M)

    def test_self_homogeneity(self):
        for r, M in [((0, 2), 10), ((1, 3), 6), ((0, 1, 2), 8), ((4, 6), 8)]:
            pat = pivoted_pattern(r, M)
            want = tuple(sorted(M - 1 - x for x in r))
            assert pivots(pat.as_support()) == want

    def test_convolution_structure(self):
        # 1_{I_r} = 1_{I_{r^-}} circularly convolved with 1_{I_{(r_max)}}
        for r, M in [((1, 3), 5), ((0, 2), 6), ((0, 1, 3), 6)]:
            N = 1 << M
            full = np.zeros(N)
            full[list(pivoted_pattern(r, M).samples)] = 1
            a = np.zeros(N)
            a[list(pivoted_pattern(r[:-1], M).samples)] = 1
            b = np.zeros(N)
            b[list(pivoted_pattern(r[-1:], M).samples)] = 1
            conv = np.real(np.fft.ifft(np.fft.fft(a) * np.fft.fft(b)))
            assert np.max(np.abs(conv - full)) < 1e-9

    def test_pivot_out_of_range(self):
        with pytest.raises(InvalidInputError):
            pivoted_pattern((6,), 6)


class TestPatternOffsets:
    def test_permutes_pivoted_pattern_for_every_r(self):
        for M in range(1, 11):
            for mask in range(1 << M):
                r = tuple(i for i in range(M) if mask >> i & 1)
                got = pattern_offsets(r, M)
                assert sorted(got.tolist()) == list(pivoted_pattern(r, M).samples)

    def test_long_runs_in_natural_order(self):
        # each run of FFT_RUN or more consecutive pivots c..c+m-1 at indices
        # j..j+m-1 reads its bit field n of b as the offset n 2^(M-c-m); every
        # other bit i of b selects 2^(M-1-r_i)
        M = 16
        for r in (tuple(range(FFT_RUN)), (0,) + tuple(range(2, FFT_RUN + 3)) + (M - 3,),
                  tuple(range(FFT_RUN)) + tuple(range(FFT_RUN + 1, 2 * FFT_RUN + 1))):
            runs = fft_runs(r)
            assert runs
            in_run = {j + i for j, m in runs for i in range(m)}
            b = np.arange(1 << len(r))
            want = sum((((b >> i) & 1) << (M - 1 - ri)) for i, ri in enumerate(r) if i not in in_run)
            want = want + sum(((b >> j) & ((1 << m) - 1)) << (M - r[j] - m) for j, m in runs)
            assert pattern_offsets(r, M).tolist() == want.tolist()

    def test_runs(self):
        short = tuple(range(FFT_RUN - 1))
        assert fft_runs(short) == ()
        assert fft_runs(tuple(range(FFT_RUN))) == ((0, FFT_RUN),)
        r = (0,) + tuple(range(2, FFT_RUN + 2)) + (FFT_RUN + 3,) + tuple(range(20, 20 + FFT_RUN + 1))
        assert fft_runs(r) == ((1, FFT_RUN), (FFT_RUN + 2, FFT_RUN + 1))


class TestAliasingValue:
    def test_at_zero(self):
        assert abs(aliasing_value((1, 3, 4), 0, 64) - 8) < 1e-12

    def test_structural_zeros(self):
        N = 64
        r = (1, 3)
        for ri in r:
            for odd in (1, 3, 5):
                m = (odd << ri) % N
                assert abs(aliasing_value(r, m, N)) < 1e-12
                assert aliasing_is_zero(r, m, N)
        assert not aliasing_is_zero(r, 4, N)
        assert not aliasing_is_zero(r, 0, N)

    def test_matches_indicator_dft(self):
        N = 1024
        r = (0, 2)
        ind = np.zeros(N)
        ind[list(pivoted_pattern(r, 10).samples)] = 1
        h = dft_direct(ind)
        want = np.array([aliasing_value(r, m, N) for m in range(N)])
        assert np.max(np.abs(h - want)) < 1e-10


class TestCheckIsolation:
    def test_homogeneous_all_isolated(self):
        J = SupportSet.make(32, [3, 17, 25, 27])
        rep = check_isolation((1, 3), J, drop=0)
        assert all(p.isolated for p in rep.pairs)
        assert all(p.expected_h == 0 for p in rep.pairs)

    def test_full_drop_nothing_isolated(self):
        J = SupportSet.make(32, [3, 17, 25, 27])
        rep = check_isolation((1, 3), J, drop=2)
        assert all(not p.isolated for p in rep.pairs)
        assert all(p.expected_h == 1 for p in rep.pairs)

    def test_part_homogeneous_pair_misses(self):
        J = SupportSet.make(64, [3, 17, 25, 27, 35])
        rep = check_isolation((1, 3), J, drop=0)
        by_pair = {(p.j1, p.j2): p for p in rep.pairs}
        assert not by_pair[(3, 35)].isolated  # v2(32) = 5, not a listed pivot
        for pair, p in by_pair.items():
            assert p.isolated == (p.v2_diff in (1, 3))

    def test_expected_matches_product_formula(self):
        J = SupportSet.make(64, [3, 17, 25, 27, 35])
        for drop in (0, 1, 2):
            rep = check_isolation((1, 3), J, drop=drop)
            for p in rep.pairs:
                got = aliasing_value((1, 3)[: 2 - drop], (p.j1 - p.j2) % 64, 64)
                assert abs(got - p.expected_h) < 1e-9

    def test_contract_violation_names_pivot(self):
        J = SupportSet.make(8, [0, 1, 2, 3])
        with pytest.raises(ContractViolationError, match="pivot 0"):
            check_isolation((1,), J)


def _h_zero_witness(N, I, diffs):
    """Float cross-check that the witness really zeroes the aliasing pattern."""
    I = np.asarray(I)
    for d in diffs:
        h = np.exp(-2j * np.pi * d * I / N).sum()
        if abs(h) > 1e-9:
            return False
    return True


class TestMinIsolatingSet:
    def test_singleton(self):
        res = min_isolating_set(SupportSet.make(16, [5]))
        assert res.minimum == 1 and res.witness == (0,) and res.exact

    def test_pair_within_itself(self):
        # K = {1,2} alone needs only the antipodal pair {0, 8}
        res = min_isolating_set(SupportSet.make(16, [1, 2]))
        assert res.minimum == 2 and res.witness == (0, 8)

    def test_pair_within_jstar_n16(self):
        # isolating {1,2} against the rest of the powers-of-two set needs 4
        K = SupportSet.make(16, [1, 2])
        res = min_isolating_set(K, within=gen_jstar(4))
        assert res.minimum == 4 and res.exact
        assert res.witness == (0, 4, 8, 12)
        diffs = {(a - b) % 16 for a in K.indices for b in gen_jstar(4).indices} - {0}
        assert _h_zero_witness(16, res.witness, diffs)

    def test_triple_within_jstar_n32(self):
        K = SupportSet.make(32, [1, 2, 4])
        res = min_isolating_set(K, within=gen_jstar(5))
        assert res.minimum == 8 and res.exact
        diffs = {(a - b) % 32 for a in K.indices for b in gen_jstar(5).indices} - {0}
        assert _h_zero_witness(32, res.witness, diffs)
        assert res.minimum >= 2 ** len(K)  # the converse lower bound

    def test_triple_within_itself(self):
        # pairwise differences of {1,2,4} have valuations {0,1} only
        res = min_isolating_set(SupportSet.make(32, [1, 2, 4]))
        assert res.minimum == 4
        assert res.witness == (0, 8, 16, 24)

    def test_matches_bruteforce_small(self):
        # independent brute force over all subsets at N=8
        N = 8
        for _ in range(10):
            k = int(rng.integers(2, 4))
            K = SupportSet.make(N, rng.choice(N, size=k, replace=False).tolist())
            diffs = {(a - b) % N for a in K.indices for b in K.indices} - {0}
            best = None
            for size in range(1, N + 1):
                for comb in itertools.combinations(range(N), size):
                    if _h_zero_witness(N, comb, diffs):
                        best = size
                        break
                if best:
                    break
            assert min_isolating_set(K).minimum == best

    def test_budget_flag(self):
        K = SupportSet.make(32, [1, 2, 4])
        res = min_isolating_set(K, within=gen_jstar(5), max_nodes=5)
        assert not res.exact and res.witness is None
        assert res.minimum >= 1

    def test_within_modulus_mismatch(self):
        with pytest.raises(InvalidInputError):
            min_isolating_set(SupportSet.make(16, [1]), within=SupportSet.make(32, [1]))
