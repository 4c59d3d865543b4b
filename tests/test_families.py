"""Tests for the support-set family generators."""

import math

import numpy as np
import pytest

from structfft import bench, families
from structfft import (
    ContractViolationError,
    FamilySpec,
    GapSpec,
    InvalidInputError,
    SupportSet,
    build_tree,
    classify,
    doubling,
    gap_pivot_envelope,
    gen_ap,
    gen_consecutive,
    gen_elementary,
    gen_gap,
    gen_homogeneous,
    gen_jstar,
    gen_random_subset,
    gen_random_subset_zn,
    gen_uoe,
    gen_uoh,
    pivots,
    rng_from_seed,
    v2,
)

rng = np.random.default_rng(31337)


class TestElementary:
    def test_known_examples_are_elementary(self):
        # {3,6} in Z_8 and {0,1,3,6} in Z_8: one element per class mod 2^r
        for idx, r in [((3, 6), 1), ((0, 1, 3, 6), 2)]:
            J = SupportSet.make(8, idx)
            assert sorted(j % (1 << r) for j in J.indices) == list(range(1 << r))
            assert pivots(J) == tuple(range(r))

    def test_generator_structure(self):
        for _ in range(50):
            M = int(rng.integers(1, 14))
            r = int(rng.integers(0, min(M, 8) + 1))
            J = gen_elementary(r, M, int(rng.integers(0, 2**62)))
            assert len(J) == 1 << r
            assert sorted(j % (1 << r) for j in J.indices) == list(range(1 << r))
            assert pivots(J) == tuple(range(r))

    def test_r0_singleton(self):
        J = gen_elementary(0, 6, seed=1)
        assert len(J) == 1 and pivots(J) == ()


class TestHomogeneous:
    def test_requested_pivots_realized(self):
        J = gen_homogeneous((1, 3), 5, seed=11)
        assert classify(J).is_homogeneous and pivots(J) == (1, 3)

    def test_full_pivot_set_gives_all_of_range(self):
        J = gen_homogeneous(tuple(range(5)), 5, seed=2)
        assert len(J) == 32

    def test_paper_instance_recognized(self):
        assert pivots(SupportSet.make(32, [3, 17, 25, 27])) == (1, 3)

    def test_coverage_across_draws(self):
        # no spurious pivots in many draws over varied pivot vectors
        for t in range(300):
            M = int(rng.integers(2, 16))
            s = int(rng.integers(1, min(M, 8) + 1))
            pivs = tuple(sorted(rng.choice(M, size=s, replace=False).tolist()))
            J = gen_homogeneous(pivs, M, t)
            assert pivots(J) == pivs and len(J) == 1 << s

    def test_reproducible(self):
        a = gen_homogeneous((0, 2), 8, seed=5)
        b = gen_homogeneous((0, 2), 8, seed=5)
        assert a.indices == b.indices


class TestApConsecutive:
    def test_consecutive_pivot_prefix(self):
        J = gen_consecutive(0, 8, 64)
        assert set(pivots(J)) <= {0, 1, 2}

    def test_ap_valuation_shift(self):
        # step 8 * odd: pairwise valuations are 3 + v2(delta) for delta < 4
        J = gen_ap(5, 8 * 3, 4, 256)
        assert set(pivots(J)) <= {3, 4}

    def test_singleton(self):
        assert pivots(gen_ap(7, 2, 1, 16)) == ()

    def test_collision_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_ap(0, 8, 3, 16)

    def test_ap_pivots_within_window(self):
        for _ in range(50):
            M = int(rng.integers(4, 12))
            N = 1 << M
            k = int(rng.integers(2, 17))
            alpha = int(rng.integers(0, max(M - k.bit_length() - 1, 1)))
            s = (2 * int(rng.integers(0, max(N >> (alpha + 2), 1))) + 1) << alpha
            J = gen_ap(int(rng.integers(0, N)), s % N, k, N)
            lo, hi = alpha, alpha + math.ceil(math.log2(k))
            assert all(lo <= p <= hi for p in pivots(J))


class TestGap:
    def test_dimension_one_is_ap(self):
        res = gen_gap(GapSpec(3, (5,), (8,), 64))
        assert res.proper
        assert res.support.indices == gen_ap(3, 5, 8, 64).indices

    def test_random_proper_gaps_obey_envelope_and_doubling(self):
        count = 0
        while count < 100:
            M = int(rng.integers(8, 15))
            N = 1 << M
            d = int(rng.integers(2, 4))
            lengths = tuple(int(rng.integers(2, 9)) for _ in range(d))
            steps = tuple(int(rng.integers(1, N)) for _ in range(d))
            res = gen_gap(GapSpec(int(rng.integers(0, N)), steps, lengths, N))
            if not res.proper:
                continue
            count += 1
            J = res.support
            assert len(pivots(J)) <= gap_pivot_envelope(d, len(J))
            assert doubling(J) <= (1 << d) * len(J)

    def test_improper_flagged(self):
        res = gen_gap(GapSpec(0, (2, 4), (4, 4), 16))
        assert not res.proper
        assert len(res.support) < 16


class TestDoubling:
    def test_interval(self):
        J = gen_consecutive(0, 10, 64)
        assert doubling(J) == 19

    def test_jstar_m6(self):
        J = gen_jstar(6)
        assert doubling(J) == 21
        assert doubling(J) >= len(J) ** 2 / 2

    def test_subgroup(self):
        assert doubling(SupportSet.make(16, [0, 8])) == 2


class TestUoe:
    def test_singleton_union(self):
        J = gen_uoe(0, [1], 8, seed=4)
        assert len(J) == 1

    def test_structure_and_weight_bound(self):
        # node weights at level s <= a_n stay below C * (s + 2^(a_n - s + 1) - 1)
        for t in range(50):
            M = int(rng.integers(5, 12))
            a_n = int(rng.integers(1, min(M - 1, 6) + 1))
            C = int(rng.integers(1, 4))
            etas = [int(rng.integers(0, C + 1)) for _ in range(a_n + 1)]
            etas[a_n] = max(1, etas[a_n])
            try:
                J = gen_uoe(a_n, etas, M, seed=t)
            except ContractViolationError:
                continue
            tree = build_tree(J, min(a_n, J.M))
            for s in range(min(a_n, J.M) + 1):
                cap = C * (s + (1 << (a_n - s + 1)) - 1)
                assert tree.max_weight_at_level(s) <= cap

    def test_overlap_condition_enforced(self):
        J = gen_uoe(3, [1, 1, 1, 1], 10, seed=0, alpha=1.0)
        assert 3 <= math.log2(len(J)) + 1.0


class TestUoh:
    def test_constituents_inside_base(self):
        K = gen_homogeneous((0, 2, 5, 7), 10, seed=8)
        J = gen_uoh(K, 2, [1, 1, 1], seed=9)
        assert set(J.indices) <= set(K.indices)
        assert classify(K).is_homogeneous

    def test_base_must_be_homogeneous(self):
        bad = gen_jstar(5)
        with pytest.raises(InvalidInputError):
            gen_uoh(bad, 1, [1, 1], seed=0)

    def test_via_family_spec(self):
        spec = FamilySpec("uoh", {"base_pivots": [0, 2, 4], "a_n": 2,
                                  "etas": [1, 0, 1], "M": 9}, seed=3)
        inst = spec.build()
        assert inst.meta["policy"] == "uoh"
        assert len(inst.meta["base_pivots"]) == 3


class TestRandomSubset:
    def test_full_probability_returns_base(self):
        K = gen_homogeneous((1, 3), 6, seed=2)
        assert gen_random_subset(K, len(K), seed=1).indices == K.indices

    def test_binomial_mean(self):
        k, M = 64, 12
        sizes = [len(gen_random_subset_zn(M, k, seed=t)) for t in range(1000)]
        assert abs(np.mean(sizes) - k) <= 3 * math.sqrt(k)
        assert np.var(sizes) <= 2 * k  # Var <= k in expectation; slack for sampling

    def test_k_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_random_subset_zn(8, 0, seed=0)

    def test_subset_of_base(self):
        K = gen_homogeneous((0, 1, 2, 3, 4, 5, 6, 7), 12, seed=6)
        J = gen_random_subset(K, 40, seed=7)
        assert set(J.indices) <= set(K.indices)


class TestJstar:
    def test_m6(self):
        assert gen_jstar(6).indices == (1, 2, 4, 8, 16, 32)

    def test_pivots_are_all_split_levels(self):
        # splits occur at levels 0..M-2 (the pairwise valuations of powers
        # of two); the well-known tree diagram shows exactly these splits
        for M in (2, 4, 6, 10):
            assert pivots(gen_jstar(M)) == tuple(range(M - 1))

    def test_m1(self):
        assert gen_jstar(1).indices == (1,)


class TestFamilySpec:
    def test_json_roundtrip(self):
        spec = FamilySpec("homogeneous", {"pivots": [1, 3], "M": 5}, seed=7)
        again = FamilySpec.from_json(spec.to_json())
        assert again == spec
        assert again.build().support.indices == spec.build().support.indices

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            FamilySpec("mystery", {}, 0)

    def test_rng_documented_stream_stability(self):
        a = rng_from_seed(42, 1, 2).integers(0, 2**32, size=4)
        b = rng_from_seed(42, 1, 2).integers(0, 2**32, size=4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind, params", [
        ("uoe", {"a_n": 2, "etas": [1.5, 0, 1], "M": 8}),  # int() would read eta 1.5 as 1
        ("uoh", {"base_pivots": [0, 2, 4], "a_n": 2, "etas": [1, True, 1], "M": 9}),
        ("elementary", {"r": 3.7, "M": 8}),
        ("elementary", {"r": 3, "M": "8"}),
        ("homogeneous", {"pivots": [1, 3.5], "M": 8}),
        ("consecutive", {"a": 0, "k": 2.5, "N": 64}),
        ("ap", {"a": 0, "s": 1.5, "k": 4, "N": 64}),
        ("gap", {"a": 0, "steps": [1, 16.5], "lengths": [4, 2], "N": 64}),
        ("random_subset", {"k": 64, "M": 12.5}),
        ("jstar", {"M": True}),
    ])
    def test_integer_parameters_must_be_integers(self, kind, params):
        with pytest.raises(InvalidInputError, match="not an integer"):
            FamilySpec(kind, params, 1).build()

    def test_integral_floats_build_the_same_draw(self):
        spec = FamilySpec("uoe", {"a_n": 2, "etas": [1, 0, 1], "M": 8}, 1)
        same = FamilySpec("uoe", {"a_n": 2.0, "etas": [1.0, 0, 1], "M": 8.0}, 1)
        assert same.build().support == spec.build().support

    def test_seed_must_be_an_integer(self):
        obj = {"kind": "elementary", "params": {"r": 2, "M": 5}}
        for seed in (2.9, True, "2"):
            with pytest.raises(InvalidInputError, match="not an integer"):
                FamilySpec.from_json({**obj, "seed": seed})
        assert FamilySpec.from_json({**obj, "seed": 2.0}) == FamilySpec("elementary", obj["params"], 2)

    def test_generators_read_etas_as_integers(self):
        with pytest.raises(InvalidInputError, match="not an integer"):
            gen_uoe(2, [1.5, 0, 1], 8, seed=0)
        with pytest.raises(InvalidInputError, match="not an integer"):
            gen_uoh(gen_homogeneous((0, 2, 5), 10, seed=8), 1, [1, 0.5], seed=0)


class _Drew(Exception):
    pass


class _NoDraw:
    """A generator stand-in that fails on the first number asked of it."""

    def random(self, size):
        raise _Drew


class TestDrawContracts:
    @pytest.mark.parametrize("alpha", ["x", True, math.nan])
    def test_alpha_must_be_a_real_number(self, alpha):
        K = gen_homogeneous((0, 2, 5), 10, seed=8)
        with pytest.raises(InvalidInputError, match="alpha"):
            gen_uoe(2, [1, 0, 1], 8, seed=0, alpha=alpha)
        with pytest.raises(InvalidInputError, match="alpha"):
            gen_uoh(K, 1, [1, 1], seed=0, alpha=alpha)
        for kind, params in (("uoe", {"a_n": 2, "etas": [1, 0, 1], "M": 8}),
                             ("uoh", {"base_pivots": [0, 2, 4], "a_n": 2, "etas": [1, 0, 1], "M": 9})):
            with pytest.raises(InvalidInputError, match="alpha"):
                FamilySpec(kind, {**params, "alpha": alpha}, 3).build()

    def test_negative_etas_alone_are_an_empty_union(self):
        with pytest.raises(InvalidInputError, match="empty union"):
            gen_uoe(1, [-1, -1], 8, seed=0)

    def test_a_negative_eta_raises(self):
        # it would draw as many parts as an eta of 0
        K = gen_homogeneous((0, 2, 5), 10, seed=8)
        with pytest.raises(InvalidInputError, match="non-negative"):
            gen_uoe(1, [-3, 1], 6, seed=0)
        with pytest.raises(InvalidInputError, match="non-negative"):
            gen_uoh(K, 1, [1, -1], seed=0)

    @pytest.mark.parametrize("n", [1000, 12345, 70000])
    def test_chunked_bernoulli_draw_is_one_draw(self, monkeypatch, n):
        monkeypatch.setattr(families, "_CHUNK", 1024)
        whole = np.flatnonzero(rng_from_seed(5, n).random(n) < 0.3)
        assert families._bernoulli_hits(rng_from_seed(5, n), n, 0.3).tobytes() == whole.tobytes()

    def test_bernoulli_draw_above_2_to_30_raises_before_drawing(self, monkeypatch):
        with pytest.raises(_Drew):  # 2^30 itself is drawn
            families._bernoulli_hits(_NoDraw(), 1 << 30, 0.5)
        with pytest.raises(InvalidInputError, match="2\\^30"):
            families._bernoulli_hits(_NoDraw(), (1 << 30) + 1, 0.5)
        monkeypatch.setattr(families, "rng_from_seed", lambda *streams: _NoDraw())
        with pytest.raises(InvalidInputError, match="2\\^30"):
            gen_random_subset_zn(31, 64, 0)
        monkeypatch.setattr(bench, "rng_from_seed", lambda *streams: _NoDraw())
        with pytest.raises(InvalidInputError, match="2\\^30"):
            bench.run_antipodal_scenario({"M": 31}, 0, 0, 1)

    def test_family_spec_checks_its_seed(self):
        params = {"r": 2, "M": 5}
        for seed in (2.9, True, "2"):
            with pytest.raises(InvalidInputError, match="not an integer"):
                FamilySpec("elementary", params, seed)
        with pytest.raises(InvalidInputError, match="non-negative"):
            FamilySpec("elementary", params, -1)
        spec = FamilySpec("elementary", params, 2.0)
        assert type(spec.seed) is int
        assert spec.build().support == FamilySpec("elementary", params, 2).build().support
