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
from structfft.congruence import node_heights, validate_pivot_vector

rng = np.random.default_rng(7)


def random_support(M=None, k=None):
    M = M or int(rng.integers(2, 12))
    N = 1 << M
    k = k or int(rng.integers(1, min(N, 64) + 1))
    idx = rng.choice(N, size=k, replace=False)
    return SupportSet.make(N, idx.tolist())


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
        nodes = {n.residue: n.members for n in tree.nodes_at_level(2)}
        assert nodes == {0: (0,), 2: (6,), 3: (3, 7)}

    def test_full_range_is_complete_binary(self):
        J = SupportSet.make(8, range(8))
        tree = build_tree(J, 3)
        for level in range(4):
            assert len(tree.nodes_at_level(level)) == 1 << level
        assert all(n.weight == 1 for n in tree.nodes_at_level(3))

    def test_singleton_no_splits(self):
        J = SupportSet.make(16, [11])
        tree = build_tree(J, 4)
        for level in range(5):
            nodes = tree.nodes_at_level(level)
            assert len(nodes) == 1 and nodes[0].weight == 1
        assert tree.split_levels() == ()

    def test_partition_and_weight_recursion(self):
        for _ in range(25):
            J = random_support()
            tree = build_tree(J, J.M)
            for level in range(J.M + 1):
                assert sum(n.weight for n in tree.nodes_at_level(level)) == len(J)
            for level in range(J.M):
                for node in tree.nodes_at_level(level):
                    left, right = tree.children(node)
                    got = (left.weight if left else 0) + (right.weight if right else 0)
                    assert got == node.weight

    def test_leaves_singletons(self):
        J = random_support()
        tree = build_tree(J, J.M)
        assert all(n.weight == 1 for n in tree.nodes_at_level(J.M))

    def test_depth_validation(self):
        J = SupportSet.make(8, [1])
        with pytest.raises(InvalidInputError):
            build_tree(J, 4)


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
        assert node_heights(J, first)[0] == len(first)
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


class TestWeights:
    def test_induced_weight_all_ones(self):
        J = random_support()
        tree = build_tree(J, J.M)
        ones = {j: 1.0 for j in J.indices}
        for level in (0, J.M // 2, J.M):
            for n in tree.nodes_at_level(level):
                assert tree.induced_weight(level, n.residue, ones) == n.weight

    def test_root_weight_is_total(self):
        J = random_support()
        w = {j: complex(rng.normal(), rng.normal()) for j in J.indices}
        tree = build_tree(J, 2 if J.M >= 2 else J.M)
        assert abs(tree.induced_weight(0, 0, w) - sum(w.values())) < 1e-12

    def test_parent_equals_child_sum(self):
        for _ in range(25):
            J = random_support()
            w = {j: complex(rng.normal(), rng.normal()) for j in J.indices}
            tree = build_tree(J, J.M)
            for level in range(J.M):
                for node in tree.nodes_at_level(level):
                    left, right = tree.children(node)
                    s = sum(
                        tree.induced_weight(level + 1, c.residue, w)
                        for c in (left, right)
                        if c is not None
                    )
                    assert abs(tree.induced_weight(level, node.residue, w) - s) < 1e-12

    def test_missing_node_weight_zero(self):
        J = SupportSet.make(8, [1])
        tree = build_tree(J, 3)
        assert tree.node_weight(1, 0) == 0
        assert tree.induced_weight(1, 0, {1: 5.0}) == 0j


class TestHeights:
    def test_fig_part_homogeneous_heights(self):
        # {3,17,25,27,35} with r=(1,3): heights 2,2,1,1,0,0 at levels 0..5
        r = (1, 3)
        want = {0: 2, 1: 2, 2: 1, 3: 1, 4: 0, 5: 0}
        for level, h in want.items():
            assert height_of(level, r) == h
        J = SupportSet.make(64, [3, 17, 25, 27, 35])
        assert node_heights(J, r) == {**want, 6: 0}

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
            node_heights(J, (3,))  # pivot 1 missing below r_max


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
                nodes = tree.nodes_at_level(level)
                split_flags = []
                for node in nodes:
                    left, right = tree.children(node)
                    split = left is not None and right is not None
                    split_flags.append(split)
                    if split:
                        assert left.weight == right.weight
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
                assert len(tree.nodes_at_level(level)) == 1 << (s - n)
