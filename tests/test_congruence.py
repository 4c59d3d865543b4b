"""Tests for congruence trees, pivots and homogeneity classification."""

import math

import numpy as np
import pytest

from structfft import (
    ContractViolationError,
    InvalidInputError,
    SupportSet,
    build_tree,
    classify,
    height_of,
    is_part_homogeneous,
    pivots,
    pivots_pairwise,
    v2,
)
from structfft import congruence
from structfft.congruence import check_part_homogeneous, validate_pivot_vector

rng = np.random.default_rng(7)


def random_support(M=None, k=None):
    M = M or int(rng.integers(2, 12))
    N = 1 << M
    k = k or int(rng.integers(1, min(N, 64) + 1))
    idx = rng.choice(N, size=k, replace=False)
    return SupportSet.make(N, idx.tolist())


def nodes(tree, level):
    """{residue: members} of the level's nodes, read off `level_arrays`."""
    residues, bounds, members = tree.level_arrays(level)
    m, b = members.tolist(), bounds.tolist()
    return {res: m[b[i]:b[i + 1]] for i, res in enumerate(residues.tolist())}


def weights(tree, level):
    """{residue: weight} of the level's nodes; absent classes are not keys."""
    residues, bounds, _ = tree.level_arrays(level)
    return dict(zip(residues.tolist(), np.diff(bounds).tolist()))


def random_homogeneous(M=None, s=None):
    from structfft import gen_homogeneous

    M = M or int(rng.integers(2, 14))
    s = s if s is not None else int(rng.integers(1, min(M, 8) + 1))
    pivs = sorted(rng.choice(M, size=s, replace=False).tolist())
    return gen_homogeneous(pivs, M, int(rng.integers(0, 2**62)))


class TestSupportSet:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SupportSet.make(12, [0])  # not a power of two
        with pytest.raises(InvalidInputError):
            SupportSet.make(8, [])
        with pytest.raises(InvalidInputError):
            SupportSet.make(8, [8])
        with pytest.raises(InvalidInputError):
            SupportSet.make(8, [1, 1])

    def test_fractional_input_raises(self):
        for N, idx in ((16, [1.5, 3.2]), (16, [1, 3, 7.9]), (16.9, [1, 3]), (16, [np.float64(2.5)])):
            with pytest.raises(InvalidInputError, match="not an integer"):
                SupportSet.make(N, idx)
        # integral floats are integers, as everywhere else
        assert SupportSet.make(16.0, [3.0, np.float64(1), 2]) == SupportSet(16, (1, 2, 3))

    def test_basic(self):
        J = SupportSet.make(32, [27, 3, 17, 25])
        assert J.indices == (3, 17, 25, 27)
        assert J.M == 5 and len(J) == 4 and 17 in J

    def test_contains(self):
        J = SupportSet.make(32, [27, 3, 17, 25, 31, 0])
        members = set(J.indices)
        for j in range(-40, 72):
            assert (j in J) == (j in members), j
        for cast in (np.int64, np.int32, np.uint8, np.uint64):
            assert cast(17) in J and cast(18) not in J
        assert np.int64(-32) not in J and np.int64(32) not in J and 2**70 not in J
        assert -(2**70) not in J and "17" not in J and None not in J


class TestBuildTree:
    def test_paper_example_z8(self):
        # level-2 nodes of {0,3,6,7}: residues mod 4 are 0 -> {0}, 2 -> {6}, 3 -> {3,7}
        J = SupportSet.make(8, [0, 3, 6, 7])
        tree = build_tree(J, 2)
        assert nodes(tree, 2) == {0: [0], 2: [6], 3: [3, 7]}

    def test_full_range_is_complete_binary(self):
        J = SupportSet.make(8, range(8))
        tree = build_tree(J, 3)
        for level in range(4):
            assert sorted(weights(tree, level)) == list(range(1 << level))
        assert set(weights(tree, 3).values()) == {1}

    def test_singleton_no_splits(self):
        J = SupportSet.make(16, [11])
        tree = build_tree(J, 4)
        for level in range(5):
            assert nodes(tree, level) == {11 % (1 << level): [11]}
        assert tree.split_levels() == ()

    def test_partition_and_weight_recursion(self):
        for _ in range(25):
            J = random_support()
            tree = build_tree(J, J.M)
            for level in range(J.M + 1):
                assert sum(weights(tree, level).values()) == len(J)
            for level in range(J.M):
                # the children of residue r are r + 2^level (left) and r
                below = weights(tree, level + 1)
                for res, w in weights(tree, level).items():
                    assert below.get(res + (1 << level), 0) + below.get(res, 0) == w

    def test_leaves_singletons(self):
        J = random_support()
        tree = build_tree(J, J.M)
        assert set(weights(tree, J.M).values()) == {1}

    def test_depth_validation(self):
        J = SupportSet.make(8, [1])
        with pytest.raises(InvalidInputError):
            build_tree(J, 4)
        with pytest.raises(InvalidInputError):
            build_tree(J, 2).level_arrays(3)

    def test_each_level_sorted_once(self):
        J = random_support(10, 40)
        tree = build_tree(J, J.M)
        for level in range(J.M + 1):
            arrays = tree.level_arrays(level)
            assert tree.level_arrays(level) is arrays
            for a in arrays:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[:1] = 0


class TestPivots:
    def test_paper_fixtures(self):
        assert pivots(SupportSet.make(32, [3, 17, 25, 27])) == (1, 3)
        assert pivots(
            SupportSet.make(1024, [23, 187, 190, 247, 386, 731, 990, 994])
        ) == (0, 2, 5)
        assert pivots(SupportSet.make(1024, [84, 305, 725, 992])) == (0, 2)
        assert pivots(SupportSet.make(16, [9])) == ()

    def test_matches_pairwise(self):
        for _ in range(200):
            J = random_support()
            assert pivots(J) == pivots_pairwise(J)

    def test_pairwise_cap(self):
        J = SupportSet.make(8, [0, 1])
        with pytest.raises(InvalidInputError):
            pivots_pairwise(J, size_cap=1)

    def test_lower_bound(self):
        for _ in range(100):
            J = random_support()
            assert len(pivots(J)) >= math.ceil(math.log2(len(J)))

    def test_splits_match_pivots(self):
        for _ in range(50):
            J = random_support()
            assert build_tree(J, J.M).split_levels() == pivots(J)

    def test_cached_on_the_support(self, monkeypatch):
        # the first pivots(J) builds J's tree once; later pivots, classify
        # and part-homogeneity queries on J read the cache
        built = []
        init = congruence.CongruenceTree.__init__
        monkeypatch.setattr(congruence.CongruenceTree, "__init__",
                            lambda self, *a: built.append(1) or init(self, *a))
        J = random_support(10, 40)
        first = pivots(J)
        assert len(built) == 1
        assert pivots(J) == first
        assert classify(J).pivots == first
        assert is_part_homogeneous(J, first)
        assert len(built) == 1

    def test_integral_pivots_only(self):
        assert validate_pivot_vector((0, 1.0, 2), 8) == (0, 1, 2)
        assert validate_pivot_vector(np.array([0.0, 3.0]), 8) == (0, 3)
        for r in ((0, 1.7, 2.2), (0, np.float32(0.5) + 1)):
            with pytest.raises(InvalidInputError, match="not an integer"):
                validate_pivot_vector(r, 8)


class TestClassify:
    def test_homogeneous_fixture(self):
        cls = classify(SupportSet.make(32, [3, 17, 25, 27]))
        assert cls.is_homogeneous and cls.pivots == (1, 3)

    def test_part_homogeneous_fixture(self):
        J = SupportSet.make(64, [3, 17, 25, 27, 35])
        cls = classify(J)
        assert not cls.is_homogeneous
        assert cls.pivots == (1, 3, 5)
        assert is_part_homogeneous(J, (1, 3))
        assert not is_part_homogeneous(J, (3,))  # pivot 1 <= 3 missing

    def test_jstar_generic(self):
        # pairwise differences 2^a - 2^b have valuation b <= M-2, so the
        # powers-of-two set splits at levels 0..M-2 (M-1 pivots for M
        # elements; its tree diagram shows exactly that many splits)
        from structfft import gen_jstar

        J = gen_jstar(6)
        cls = classify(J)
        assert cls.kind == "generic"
        assert cls.pivots == tuple(range(5))

    def test_singleton_homogeneous(self):
        assert classify(SupportSet.make(8, [5])).is_homogeneous

    def test_every_set_part_homogeneous_on_full_prefix(self):
        for _ in range(20):
            J = random_support()
            assert is_part_homogeneous(J, tuple(range(J.M)))


def class_sums(J, w, level):
    """{r: sum of w over the members of J that are r mod 2^level}, by dict."""
    sums = {}
    for j in J.indices:
        sums[j % (1 << level)] = sums.get(j % (1 << level), 0) + w[j]
    return sums


def node_sums(tree, w, level):
    """{residue: sum of w over the node's members}, one np.add.reduceat."""
    residues, bounds, members = tree.level_arrays(level)
    vals = np.array([w[j] for j in members.tolist()], dtype=np.complex128)
    return dict(zip(residues.tolist(), np.add.reduceat(vals, bounds[:-1]).tolist()))


class TestWeights:
    def test_node_sums_all_ones(self):
        J = random_support()
        tree = build_tree(J, J.M)
        ones = {j: 1.0 for j in J.indices}
        for level in (0, J.M // 2, J.M):
            assert node_sums(tree, ones, level) == weights(tree, level) == class_sums(J, ones, level)

    def test_root_weight_is_total(self):
        J = random_support()
        w = {j: complex(rng.normal(), rng.normal()) for j in J.indices}
        tree = build_tree(J, 2 if J.M >= 2 else J.M)
        assert abs(node_sums(tree, w, 0)[0] - sum(w.values())) < 1e-12

    def test_parent_equals_child_sum(self):
        for _ in range(25):
            J = random_support()
            w = {j: complex(rng.normal(), rng.normal()) for j in J.indices}
            tree = build_tree(J, J.M)
            for level in range(J.M):
                sums, below = node_sums(tree, w, level), node_sums(tree, w, level + 1)
                want = class_sums(J, w, level)
                assert sums.keys() == want.keys()
                for res, s in sums.items():
                    assert abs(s - want[res]) < 1e-12
                    kids = below.get(res + (1 << level), 0) + below.get(res, 0)
                    assert abs(s - kids) < 1e-12

    def test_missing_nodes_not_stored(self):
        J = SupportSet.make(8, [1])
        tree = build_tree(J, 3)
        assert nodes(tree, 1) == {1: [1]}  # residue 0 mod 2 meets no member
        assert 0 not in node_sums(tree, {1: 5.0}, 1)


class TestHeights:
    def test_fig_part_homogeneous_heights(self):
        # {3,17,25,27,35} with r=(1,3): heights 2,2,1,1,0,0 at levels 0..5
        r = (1, 3)
        want = {0: 2, 1: 2, 2: 1, 3: 1, 4: 0, 5: 0}
        for level, h in want.items():
            assert height_of(level, r) == h
        J = SupportSet.make(64, [3, 17, 25, 27, 35])
        check_part_homogeneous(pivots(J), r)
        assert {level: height_of(level, r) for level in range(J.M + 1)} == {**want, 6: 0}

    def test_mu_star_bounds(self):
        for _ in range(20):
            J = random_support()
            tree = build_tree(J, J.M)
            assert tree.max_weight_at_level(0) == len(J)
            assert tree.max_weight_at_level(J.M) == 1

    def test_mu_star_recursion(self):
        for _ in range(30):
            J = random_support()
            tree = build_tree(J, J.M)
            piv = set(pivots(J))
            for level in range(J.M):
                cur = tree.max_weight_at_level(level)
                nxt = tree.max_weight_at_level(level + 1)
                assert 2 * nxt >= cur
                if level not in piv:
                    assert nxt == cur

    def test_height_contract_violation(self):
        J = SupportSet.make(64, [3, 17, 25, 27, 35])
        with pytest.raises(ContractViolationError):
            check_part_homogeneous(pivots(J), (3,))  # pivot 1 missing below r_max


class TestHomogeneityEquivalences:
    """The four characterizations of homogeneity, checked jointly."""

    def test_on_random_homogeneous_sets(self):
        for _ in range(500):
            J = random_homogeneous()
            p = pivots(J)
            k = len(J)
            s = len(p)
            assert k == 1 << s  # definitional for the generator
            tree = build_tree(J, J.M)
            # (a) equal-weight children at every split; (b) splits happen at
            # whole levels
            for level in range(J.M):
                below = weights(tree, level + 1)
                split_flags = []
                for res in weights(tree, level):
                    left, right = below.get(res + (1 << level)), below.get(res)
                    split = left is not None and right is not None
                    split_flags.append(split)
                    if split:
                        assert left == right
                assert len(set(split_flags)) == 1
            # (c) mu*_r = 2^{#pivots >= r}
            for level in range(J.M + 1):
                want = 1 << sum(1 for x in p if x >= level)
                assert tree.max_weight_at_level(level) == want
            # (d) exactly log2 k distinct pairwise 2-adic valuations
            vals = {
                v2((a - b) % J.N)
                for a in J.indices
                for b in J.indices
                if a != b
            }
            assert len(vals) == s and tuple(sorted(vals)) == p

    def test_node_count_at_height(self):
        for _ in range(50):
            J = random_homogeneous()
            p = pivots(J)
            s = len(p)
            tree = build_tree(J, J.M)
            for n in range(s + 1):
                level = p[s - n - 1] + 1 if n < s else 0
                assert len(tree.level_arrays(level)[0]) == 1 << (s - n)
