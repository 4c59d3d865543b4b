"""Tests for shift-and-sample decoding, pivot policies and the Vandermonde solver."""

import math

import numpy as np
import pytest

from structfft import (
    BandlimitedSignal,
    ContractViolationError,
    FamilySpec,
    InvalidInputError,
    OpCounter,
    SupportSet,
    dft_direct,
    draw_coefficients,
    gen_homogeneous,
    gen_jstar,
    hidft,
    hidft_to_dft,
    pivots,
    rel_error,
    sas_transform,
    select_pivots,
    submatrix_method,
    vandermonde_solve,
)
from structfft.bench import FIXTURES
from structfft.sas import C1, C2, _solve_ops

rng = np.random.default_rng(4242)


def planted(J, seed=None):
    r = np.random.default_rng(seed) if seed is not None else rng
    mag = 0.5 + r.random(len(J))
    ang = r.random(len(J)) * 2 * np.pi
    c = mag * np.exp(1j * ang)
    return BandlimitedSignal(J, c), c


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
        # bounds over prefixes of (0,1,9): 150, 87, 66, 66 -> the tie at 66
        # goes to the smaller prefix (0,1)
        J = SupportSet.make(1024, [0, 1, 6, 7, 512])
        assert select_pivots(J) == (0, 1)

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
    def leaky(seed, leak):
        J = FamilySpec("random_subset", {"k": 256, "M": 14}, seed).build().support
        c = draw_coefficients(len(J), np.random.default_rng(seed), nonzero=True)
        F = np.zeros(J.N, dtype=np.complex128)
        F[J.as_array()] = c
        off = np.setdiff1d(np.arange(J.N), J.as_array())
        F[np.random.default_rng(100 + seed).choice(off, size=3, replace=False)] = leak
        return sas_transform(np.fft.ifft(F), J), c

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
