"""Tests for shift-and-sample decoding, pivot policies and the Vandermonde solver."""

import dataclasses
import math

import numpy as np
import pytest

from structfft import (
    BandlimitedSignal,
    ContractViolationError,
    FamilySpec,
    InvalidInputError,
    OpCounter,
    SasPlan,
    SupportSet,
    build_tree,
    dft_direct,
    draw_coefficients,
    gen_homogeneous,
    gen_jstar,
    hidft,
    hidft_to_dft,
    pivots,
    rel_error,
    rng_from_seed,
    sas_transform,
    select_pivots,
    submatrix_method,
    vandermonde_solve,
)
from structfft.bench import FIXTURES, _family_spec_for_trial
from structfft.families import FAMILY_KINDS
from structfft import sas as sas_module
from structfft.hidft import _read_grid
from structfft.sas import C1, C2, _solve_ops

rng = np.random.default_rng(4242)


def planted(J, seed=None):
    r = np.random.default_rng(seed) if seed is not None else rng
    mag = 0.5 + r.random(len(J))
    ang = r.random(len(J)) * 2 * np.pi
    c = mag * np.exp(1j * ang)
    return BandlimitedSignal(J, c), c


def clustered_support(M, s):
    """{5 + 8 b0 + 2^s b1 + 2^(M-1) b2}: eight members of Z_(2^M), all 5 mod 8."""
    return SupportSet.make(1 << M, [5 + 8 * b0 + (b1 << s) + (b2 << (M - 1))
                                    for b0 in (0, 1) for b1 in (0, 1) for b2 in (0, 1)])


class TestVandermondeSolve:
    def test_size_one(self):
        out = vandermonde_solve([1.0 + 0j], [5.0 - 1j])
        assert out[0] == 5.0 - 1j

    def test_two_point_dft_inversion(self):
        a, b = 2.0 + 1j, -0.5 + 3j
        out = vandermonde_solve([1.0 + 0j, -1.0 + 0j], [a + b, a - b])
        assert rel_error(out, [a, b]) < 1e-12

    def test_two_by_two_costs_five(self):
        ctr = OpCounter()
        vandermonde_solve([1.0 + 0j, 1j], [1.0, 2.0], counter=ctr)
        assert ctr.total == 5

    def test_against_dense_oracle(self):
        # nodes drawn as 16 of the 32nd roots of unity: dense enough to be
        # interesting, sparse enough that both solvers agree to 1e-9
        for _ in range(50):
            m = 16
            ls = rng.choice(32, size=m, replace=False)
            x = np.exp(2j * np.pi * ls / 32)
            c = rng.normal(size=m) + 1j * rng.normal(size=m)
            V = np.vander(x, m, increasing=True).T
            y = V @ c
            got = vandermonde_solve(x, y)
            dense = np.linalg.solve(V, y)
            assert rel_error(got, dense, floor=1e-6) < 1e-9

    def test_residual_and_budget_up_to_64(self):
        for _ in range(100):
            m = int(rng.integers(2, 65))
            x = np.exp(2j * np.pi * rng.random(m))
            c = rng.normal(size=m) + 1j * rng.normal(size=m)
            V = np.vander(x, m, increasing=True).T
            y = V @ c
            ctr = OpCounter()
            got = vandermonde_solve(x, y, counter=ctr)
            assert np.linalg.norm(V @ got - y) <= 1e-8 * np.linalg.norm(y)
            assert ctr.total <= 6 * m * m

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(InvalidInputError):
            vandermonde_solve([1.0 + 0j, 1.0 + 0j], [1.0, 2.0])


class TestSelectPivots:
    def test_homogeneous_auto_full_isolation(self):
        J = gen_homogeneous((1, 3), 5, seed=3)
        r = select_pivots(J)
        assert r == pivots(J)

    def test_worked_example_tie_break(self):
        # charged ops over the prefixes of (0,1,9): 75, 40, 34, 41; every plan decodes by
        # matrix, so the least charged, (0,1), wins
        J = SupportSet.make(1024, [0, 1, 6, 7, 512])
        assert select_pivots(J) == (0, 1)
        assert sas_transform(planted(J, 0)[0], J).report.total == 34
        # charged ops over the prefixes of (0..4): 154, 97, 97, 136, 204, 240; the tie at 97
        # goes to the smaller prefix (0,)
        J = SupportSet.make(32, [1, 7, 11, 15, 28, 30, 31])
        assert select_pivots(J) == (0,)
        assert [SasPlan.plan(J, r).decode for r in ((0,), (0, 1))] == ["matrix", "matrix"]
        assert sas_transform(planted(J, 0)[0], J).report.total == 97

    def test_no_passing_prefix_charges_less(self):
        # a seeded sweep over every family kind: each prefix of the split levels that may
        # decode by matrix (mu* <= 23) is planned, the chosen one does, and none that does is
        # charged less, nor as little with fewer pivots.  `_charged_ops`, which ranks them,
        # is each plan's report total
        kinds = {"homogeneous": {"M": [4, 14]}, "elementary": {"M": [4, 14]},
                 "consecutive": {"M": [4, 14], "k": [2, 64]}, "ap": {"M": [4, 14]}, "gap": {"M": [6, 14]},
                 "uoe": {"M": [4, 14]}, "uoh": {"M": [4, 14]},
                 "random_subset": {"M": [9, 14], "k": [8, 512]}, "jstar": {"M": [4, 12]}}
        assert sorted(kinds) == sorted(FAMILY_KINDS)
        aliased = 0
        for i, (kind, params) in enumerate(sorted(kinds.items())):
            for t in range(8):
                g = rng_from_seed(20261020, i, t)
                J = _family_spec_for_trial(kind, params, g, int(g.integers(1 << 62))).build().support
                tree = build_tree(J, J.M)
                p = tree.split_levels()
                weights = [tree.run_lengths(p[n - 1] + 1 if n else 0) for n in range(len(p) + 1)]
                key = {n: (sas_module._charged_ops(n, J.M, w), n) for n, w in enumerate(weights)}
                chosen = len(select_pivots(J))
                passing = []
                for n, w in enumerate(weights):
                    if w.max() <= 23:
                        q = sas_module._prepared(J, p[:n])[0]
                        assert q.report.total == key[n][0], (kind, t, n)
                        passing += [n] if q.plan.decode == "matrix" else []
                assert select_pivots(J) == p[:chosen] and chosen in passing
                assert key[chosen] == min(key[n] for n in passing), (kind, t)
                aliased += int(weights[chosen].max()) > 1
        assert aliased >= 20

    def test_jstar_auto_is_prefix(self):
        J = gen_jstar(10)
        r = select_pivots(J)
        assert r == tuple(range(len(r)))

    def test_policy_metadata_required(self):
        J = gen_jstar(5)
        sig, _ = planted(J, seed=0)
        with pytest.raises(InvalidInputError):
            sas_transform(sig, J, policy="nope")


class TestSasTransform:
    def test_worked_example(self):
        J = SupportSet.make(1024, [0, 1, 6, 7, 512])
        sig, c = planted(J, seed=0)
        out = sas_transform(sig, J)
        assert rel_error(out.coeffs, c) < 1e-8
        assert out.plan.pivots == (0, 1) and out.plan.mu_star == 2
        sizes = sorted(np.diff(out.nodes.bounds).tolist())
        assert sizes == [1, 1, 1, 2]  # 1,6,7 isolated; {0,512} solved 2x2
        assert out.report.total <= out.report.bound_alg1bnd
        assert out.report.samples_touched == 2 * 4

    def test_homogeneous_equals_hidft_path(self):
        for _ in range(20):
            M = int(rng.integers(2, 10))
            s = int(rng.integers(1, min(M, 6) + 1))
            pivs = sorted(rng.choice(M, size=s, replace=False).tolist())
            J = gen_homogeneous(pivs, M, int(rng.integers(0, 2**60)))
            sig, c = planted(J)
            out = sas_transform(sig, J)
            assert out.plan.mu_star == 1
            direct = hidft_to_dft(hidft(sig, J, tuple(pivs)))
            assert rel_error(out.coeffs, direct, floor=1e-9) < 1e-12
            assert rel_error(out.coeffs, c) < 1e-8

    def test_uoe_union_fixture_vs_direct_oracle(self):
        N, idx = FIXTURES["uoe_union"]
        J = SupportSet.make(N, idx)
        sig, c = planted(J, seed=1)
        out = sas_transform(sig, J, r=(0,))  # the paper's uoe count: mu* = 6
        full = dft_direct(sig.synthesize())
        assert rel_error(out.coeffs, full[list(J.indices)], floor=1e-9) < 1e-8
        assert out.report.total <= out.report.bound_alg1bnd

    def test_adversarial_uoe_fixture(self):
        N, idx = FIXTURES["uoe_adversarial"]
        J = SupportSet.make(N, idx)
        sig, c = planted(J, seed=2)
        out = sas_transform(sig, J, r=(0, 1))  # the paper's uoe count: mu* = 9
        assert rel_error(out.coeffs, c) < 1e-8
        assert out.report.total <= out.report.bound_alg1bnd

    def test_node_system_consistency(self):
        # decoded coefficients reproduce every shifted measurement
        J = SupportSet.make(1024, [0, 1, 6, 7, 512])
        sig, _ = planted(J, seed=3)
        out = sas_transform(sig, J)
        r = out.plan.pivots
        coeffs = out.coeff_map()
        scale = (1 << len(r)) / J.N
        for j in range(out.plan.mu_star):
            res = hidft(sig, J, r, height=0, shift=j)
            nodes = out.nodes
            for i, residue in enumerate(nodes.residues.tolist()):
                members = nodes.members[nodes.bounds[i]:nodes.bounds[i + 1]].tolist()
                want = scale * sum(
                    coeffs[l] * np.exp(-2j * np.pi * j * l / J.N) for l in members
                )
                got = res.values[residue]
                assert abs(got - want) <= 1e-8 * max(abs(got), 1e-9)

    def test_sample_complexity(self):
        for _ in range(10):
            M = int(rng.integers(4, 11))
            N = 1 << M
            k = int(rng.integers(2, 17))
            J = SupportSet.make(N, rng.choice(N, size=k, replace=False).tolist())
            sig, c = planted(J)
            out = sas_transform(sig, J)
            s = len(out.plan.pivots)
            assert out.report.samples_touched == out.plan.mu_star * (1 << s)
            assert rel_error(out.coeffs, c) < 1e-8

    def test_cost_bounds_random(self):
        for _ in range(50):
            M = int(rng.integers(3, 11))
            N = 1 << M
            k = int(rng.integers(1, min(N, 40) + 1))
            J = SupportSet.make(N, rng.choice(N, size=k, replace=False).tolist())
            sig, c = planted(J)
            ctr = OpCounter()
            out = sas_transform(sig, J, counter=ctr)
            assert rel_error(out.coeffs, c) < 1e-8
            assert out.report.total <= out.report.bound_alg1bnd
            assert out.report.total >= k * math.log2(k) if k > 1 else True
            s = len(out.plan.pivots)
            mu = out.plan.mu_star
            assert out.report.total <= (1 << s) * mu * (C1 * s + C2 * mu)
            # butterfly phase is exact
            assert out.report.ops_hidft == mu * round(C1 * s * (1 << s))

    def test_escalation_on_clustered_nodes(self):
        # adjacent frequencies inside one residue class produce a Vandermonde
        # with near-coincident nodes; the guard must hold 1e-8 accuracy
        N = 1 << 16
        members = [5 + t * 64 for t in (0, 1, 2, 3, 700, 701, 702, 703)]
        J = SupportSet.make(N, members)
        sig, c = planted(J, seed=9)
        out = sas_transform(sig, J, r=(0, 1, 2, 3, 4, 5))
        assert rel_error(out.coeffs, c) < 1e-8


class TestMismatch:
    """A node of weight m < mu* is measured under mu* shifts but solved from
    m of them; the spare rows flag a signal with energy off J."""

    @staticmethod
    def leaky_spectrum(seed, leak):
        """J, the planted spectrum F on Z_N and its three off-J bins."""
        J = FamilySpec("random_subset", {"k": 256, "M": 14}, seed).build().support
        F = np.zeros(J.N, dtype=np.complex128)
        F[J.as_array()] = draw_coefficients(len(J), np.random.default_rng(seed), nonzero=True)
        off = np.setdiff1d(np.arange(J.N), J.as_array())
        bins = np.random.default_rng(100 + seed).choice(off, size=3, replace=False)
        F[bins] = leak
        return J, F, bins

    @classmethod
    def leaky(cls, seed, leak):
        J, F, _ = cls.leaky_spectrum(seed, leak)
        return sas_transform(np.fft.ifft(F), J), F[J.as_array()]

    @pytest.mark.parametrize("seed", range(4))
    def test_off_support_bins_are_flagged(self, seed):
        out, c = self.leaky(seed, 0.3)
        assert np.max(np.abs(out.coeffs - c) / np.abs(c)) > 1e-8
        assert out.nodes.mismatch.sum() >= 1

    @staticmethod
    def wrong_nodes(out, c):
        """Whether each node has a coefficient off by more than 1e-8."""
        v = out.nodes
        err = np.abs(out.coeffs - c) / np.abs(c)
        at = np.searchsorted(out.support.as_array(), v.members)
        return np.maximum.reduceat(err[at], v.bounds[:-1]) > 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_every_wrong_node_is_flagged(self, seed):
        # seeds 1 and 2 each have a wrong weight-1 node, checked by its
        # mu* - 1 spare rows
        out, c = self.leaky(seed, 0.3)
        wrong = self.wrong_nodes(out, c)
        assert wrong.any()
        assert not (wrong & ~out.nodes.mismatch).any()

    def test_weight_mu_star_node_has_no_spare_row(self):
        # the blind spot that remains: seed 3's wrong node of weight mu* = 8
        # is solved from all its rows and goes unflagged
        out, c = self.leaky(3, 0.3)
        missed = np.flatnonzero(self.wrong_nodes(out, c) & ~out.nodes.mismatch)
        assert missed.size == 1
        assert np.diff(out.nodes.bounds)[missed[0]] == out.plan.mu_star == 8
        assert out.nodes.residual[missed[0]] <= 1e-14

    @pytest.mark.parametrize("seed", range(4))
    def test_bandlimited_leak_is_synthesized_and_flagged(self, seed):
        # a BandlimitedSignal on J plus the three off-J bins, read through J's plan:
        # where every bin's residue is a node of J (seeds 0-2) the grid is the
        # butterfly run backwards, else (seed 3) sample_block's; either way the
        # nodes are flagged as the dense leak's are, and no phases are kept
        J, F, bins = self.leaky_spectrum(seed, 0.3)
        L = SupportSet.make(J.N, sorted(J.indices + tuple(bins.tolist())))
        sig = BandlimitedSignal(L, F[L.as_array()])
        r = select_pivots(J)
        p = sas_module._prepared(J, r)[0]
        got = _read_grid(sig, J, p.butterfly, p.take, p.shifts, p.locations, ("phases", r))
        want = sig.sample_block(p.locations).reshape(got.shape)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        out = sas_transform(sig, J)
        assert (out.nodes.mismatch == self.leaky(seed, 0.3)[0].nodes.mismatch).all()
        assert out.nodes.mismatch.any() and ("phases", r) not in J._memo

    @pytest.mark.parametrize("seed", range(4))
    def test_clean_twin_flags_nothing(self, seed):
        out, c = self.leaky(seed, 0.0)
        assert np.max(np.abs(out.coeffs - c) / np.abs(c)) <= 1e-8
        assert not out.nodes.mismatch.any()


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1e-8])
def test_tolerance_must_be_finite_and_positive(tolerance):
    # a NaN tolerance would make every mismatch comparison false
    J = SupportSet.make(64, [1, 5, 9, 33])
    sig, _ = planted(J)
    with pytest.raises(InvalidInputError, match="tolerance"):
        sas_transform(sig, J, tolerance=tolerance)
    with pytest.raises(InvalidInputError, match="tolerance"):
        submatrix_method(J, sig, tolerance=tolerance)


def test_pivots_must_be_integers():
    # int() would truncate (0, 1.9, 2.0) to (0, 1, 2) and run that instead
    J = SupportSet.make(64, [1, 5, 9, 33])
    sig, _ = planted(J)
    for r in ((0, 1.9, 2.0), (0.5,)):
        with pytest.raises(InvalidInputError, match="not an integer"):
            sas_transform(sig, J, r=r)
        with pytest.raises(InvalidInputError, match="not an integer"):
            SasPlan.plan(J, r)
    assert not J._memo  # rejected before any plan is made
    # integral floats name the same pivots
    assert SasPlan.plan(J, (0, 1.0, 2.0)) == SasPlan.plan(J, (0, 1, 2))
    out = sas_transform(sig, J, r=(0, 1.0, 2.0))
    assert out.coeffs.tobytes() == sas_transform(sig, J, r=(0, 1, 2)).coeffs.tobytes()


class TestCostReport:
    @staticmethod
    def request():
        J = FamilySpec("random_subset", {"k": 64, "M": 12}, 0).build().support
        return J, BandlimitedSignal(J, draw_coefficients(len(J), np.random.default_rng(0), nonzero=True))

    def test_shared_counter_gets_the_sum_and_each_report_its_own(self):
        J, sig = self.request()
        fresh = OpCounter()
        want = sas_transform(sig, J, counter=fresh).report
        shared = OpCounter()
        for calls in (1, 2):
            out = sas_transform(sig, J, counter=shared)
            assert out.report == want and out.report.total <= out.report.bound_alg1bnd
            assert shared.phases == {p: (calls * a, calls * m) for p, (a, m) in fresh.phases.items()}
            assert shared.bit_ops == calls * fresh.bit_ops
        assert want.total == fresh.total

    def test_a_call_that_raises_charges_nothing(self):
        J, sig = self.request()
        ctr = OpCounter()
        sas_transform(sig, J, counter=ctr)
        before = (ctr.phases, ctr.bit_ops)
        for source in (np.zeros(J.N - 1, dtype=complex), np.zeros(2 * J.N)):
            with pytest.raises(InvalidInputError):
                sas_transform(source, J, counter=ctr)
            assert (ctr.phases, ctr.bit_ops) == before

    def test_report_is_read_only(self):
        J, sig = self.request()
        report = sas_transform(sig, J).report
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.hidft_adds = 0


class TestSubmatrixMethod:
    def test_k_equals_one(self):
        J = SupportSet.make(64, [13])
        sig, c = planted(J)
        ctr = OpCounter()
        out = submatrix_method(J, sig, ctr)
        assert rel_error(out, c) < 1e-10
        assert ctr.total == 1  # one scaling multiplication

    def test_random_k32_vs_direct(self):
        J = SupportSet.make(1024, rng.choice(1024, size=32, replace=False).tolist())
        sig, c = planted(J)
        ctr = OpCounter()
        out = submatrix_method(J, sig, ctr)
        full = dft_direct(sig.synthesize())
        assert rel_error(out, full[list(J.indices)], floor=1e-9) < 1e-8
        assert ctr.total <= 6 * 32 * 32

    def test_jstar_m10(self):
        J = gen_jstar(10)
        sig, c = planted(J)
        out = submatrix_method(J, sig)
        assert rel_error(out, c) < 1e-8

    def test_size_cap(self):
        J = SupportSet.make(1 << 13, range(1 << 13))
        with pytest.raises(InvalidInputError):
            submatrix_method(J, np.zeros(1 << 13, dtype=complex))

    @staticmethod
    def sources(J, c):
        sig = BandlimitedSignal(J, c)
        return sig, sig.synthesize()

    @pytest.mark.parametrize("seed", range(3))
    def test_jstar_m10_dense(self, seed):
        # the powers of two cluster as unstrided nodes e^{2 pi i l / N}
        J = gen_jstar(10)
        sig, c = planted(J, seed)
        assert rel_error(submatrix_method(J, sig.synthesize()), c) < 1e-8

    def test_elementary_k256(self):
        J = FamilySpec("elementary", {"r": 8, "M": 16}, 6).build().support
        _, c = planted(J, 0)
        for source in self.sources(J, c):
            assert rel_error(submatrix_method(J, source), c) < 1e-8

    def test_uoe_k221_out_of_reach(self):
        # the CI signal: float64 misses it by about 5e-7, and the estimate sees it
        J = FamilySpec("uoe", {"a_n": 7, "etas": [0, 0, 0, 0, 0, 1, 1, 1], "M": 12}, 3).build().support
        assert len(J) == 221
        _, c = planted(J, 0)
        for source in self.sources(J, c):
            with pytest.raises(ContractViolationError, match="out of reach"):
                submatrix_method(J, source)

    @pytest.mark.parametrize("M, s", [(30, 8), (40, 16), (48, 22), (62, 40)])
    def test_clustered_support_miss_raises(self, M, s):
        # the eight members share their residue mod 8, so probes evenly spaced
        # from t = 1 would all be phases of the t = 1 sample, next to the read
        # grid, and blind to the r = () miss.  sas decodes these supports.
        J = clustered_support(M, s)
        sig = BandlimitedSignal(J, np.full(len(J), 1 + 0.5j))
        out = sas_transform(sig, J)
        assert out.plan.mu_star == 1 and rel_error(out.coeffs, sig.coeffs) < 1e-14
        with pytest.raises(ContractViolationError, match="out of reach"):
            submatrix_method(J, sig)

    @pytest.mark.parametrize("k", [1, 2, 3, 17, 64])
    def test_counted_ops(self, k):
        J = SupportSet.make(1 << 12, rng.choice(1 << 12, size=k, replace=False).tolist())
        sig, _ = planted(J)
        ctr = OpCounter()
        submatrix_method(J, sig, ctr)
        if k == 1:  # the one scaling product is a read, as in sas_transform
            assert ctr.phases == {"read": (0, 1)}
        else:  # k scaling products, then the Leja + Bjorck-Pereyra sweep
            mults, adds = _solve_ops([k])
            assert ctr.phases == {"solve": (adds, k + mults)}

    def test_probes_once_per_support(self, monkeypatch):
        # the probe locations and phase rows depend on J alone: the first call
        # makes them, the next calls reuse them, and nothing inverts V
        J = SupportSet.make(1024, rng.choice(1024, size=32, replace=False).tolist())
        sig, _ = planted(J)
        inverses, made = [], []
        inv, probes = np.linalg.inv, sas_module._probes
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(1) or inv(a))
        monkeypatch.setattr(sas_module, "_probes", lambda *a: made.append(1) or probes(*a))
        outs = [submatrix_method(J, sig) for _ in range(3)]
        assert not inverses
        assert len(made) == 1 and ("probe", ()) in J._memo
        assert all(out.tobytes() == outs[0].tobytes() for out in outs)

    @pytest.mark.parametrize("N,k", [(1024, 1), (1024, 32), (16, 11), (16, 13), (16, 15)])
    def test_probes_avoid_the_read_grid(self, N, k):
        # min(4, N - k) distinct probes, none of them a location the decode read
        J = SupportSet.make(N, rng.choice(N, size=k, replace=False).tolist())
        prepared, _ = sas_module._prepared(J, ())
        t, rows = sas_module._probes(J, prepared.locations)
        assert len(set(t.tolist())) == len(t) == min(4, N - k)
        assert not set(t.tolist()) & set(prepared.locations.tolist())
        want = np.exp(2j * np.pi * np.outer(t, J.as_array()) / N)
        assert np.abs(rows - want).max() < 1e-12
        for a in (t, rows):
            assert not a.flags.writeable

    def test_callback_reads_the_probes_once_more(self):
        J = FamilySpec("random_subset", {"k": 64, "M": 12}, 0).build().support
        sig, c = planted(J, 0)
        calls = []

        def source(locations):
            calls.append(locations)
            return sig.sample_block(locations)

        out = submatrix_method(J, source)
        assert rel_error(out, c) < 1e-8
        assert [len(x) for x in calls] == [len(J), 4]
        assert not calls[1].flags.writeable
        assert not set(calls[1].tolist()) & set(calls[0].tolist())

    def test_full_support_skips_the_probes(self):
        # k = N: every location is read, J is all of Z_N and nothing can leak
        J = SupportSet.make(16, range(16))
        sig, c = planted(J, 0)
        calls = []
        out = submatrix_method(J, lambda t: calls.append(t) or sig.sample_block(t))
        assert rel_error(out, c) < 1e-8
        assert len(calls) == 1

    def test_nan_answer_raises(self):
        J = SupportSet.make(1024, [3, 17, 40, 101])
        sig, _ = planted(J, 0)
        x = sig.synthesize()
        x[0] = np.nan  # a read location: the samples are bad input, not a miss
        with pytest.raises(InvalidInputError, match="not finite"):
            submatrix_method(J, x)

    @staticmethod
    def random_subset_k60(seed):
        J = FamilySpec("random_subset", {"k": 64, "M": 12}, 0).build().support
        g = np.random.default_rng(seed)
        c = (0.5 + g.random(len(J))) * np.exp(2j * np.pi * g.random(len(J)))
        return J, c

    @pytest.mark.parametrize("seed", range(3))
    def test_well_solved_k60_returns(self, seed):
        # true errors 4e-11 to 1e-10: the probes see about that much, and the
        # call returns on both sources
        J, c = self.random_subset_k60(seed)
        assert len(J) == 60
        for source in self.sources(J, c):
            assert rel_error(submatrix_method(J, source), c) < 1e-8

    @pytest.mark.parametrize("amplitude", [0.3, 1e-6])
    def test_leak_off_the_support_raises(self, amplitude):
        # three off-J bins: the decode reads only J's k samples, which the leak
        # aliases into wrong coefficients; the probes off the read grid see it
        J, c = self.random_subset_k60(0)
        x = BandlimitedSignal(J, c).synthesize()
        n = np.arange(J.N)
        for b in (0, 1007, 2021):
            assert b not in J
            x = x + amplitude * np.exp(2j * np.pi * b * n / J.N) / J.N
        with pytest.raises(ContractViolationError, match="out of reach"):
            submatrix_method(J, x)

    def test_seeded_sweep_never_wrong(self):
        # a call may raise, but no answer it returns misses the tolerance
        g = np.random.default_rng(14)
        returned = 0
        for _ in range(32):
            M = int(g.integers(6, 15))
            k = int(g.integers(1, min(1 << M, 128) + 1))
            J = SupportSet.make(1 << M, g.choice(1 << M, size=k, replace=False).tolist())
            _, c = planted(J, int(g.integers(1 << 31)))
            for source in self.sources(J, c):
                try:
                    out = submatrix_method(J, source)
                except ContractViolationError:
                    continue
                returned += 1
                assert rel_error(out, c) <= 1e-8
        assert returned >= 32
