"""Tests for the generalized butterfly, its oracle equivalence and identities."""

import importlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structfft import (
    BandlimitedSignal,
    ContractViolationError,
    InvalidInputError,
    OpCounter,
    SupportSet,
    block_factorization_check,
    build_tree,
    classify,
    dft_direct,
    fft_radix2,
    gen_homogeneous,
    gen_elementary,
    hidft,
    hidft_oracle,
    hidft_to_dft,
    pivots,
    rel_error,
    sas_transform,
    spectrality_check,
    submatrix_unitarity,
)
from structfft import congruence
from structfft.congruence import check_part_homogeneous
from structfft.core import fourier_kernel
from structfft.hidft import (
    BlockFactorizationReport,
    FUSE_PREFIXES, FUSE_STAGES, _build_plan, _butterfly_adjoint, _butterfly_entry, _butterfly_pass,
    butterfly_ops, stage_schedule,
)
from structfft.sampling import FFT_RUN, fft_runs, pivoted_pattern

rng = np.random.default_rng(99)


def random_signal(J):
    c = rng.normal(size=len(J)) + 1j * rng.normal(size=len(J))
    return BandlimitedSignal(J, c), c


def steps_of(plan, kind):
    """(j, n, arrays) of the plan's steps of one kind, in stage order."""
    return [(j, n, arrays) for k, j, n, arrays in plan.steps if k == kind]


def fused_groups(used):
    """(j, g) of every fused group of `stage_schedule(used)`."""
    return tuple((j, n) for kind, j, n in stage_schedule(used) if kind == "fused")


def random_homogeneous(M_hi=12, s_hi=8):
    M = int(rng.integers(2, M_hi))
    s = int(rng.integers(1, min(M, s_hi) + 1))
    pivs = sorted(rng.choice(M, size=s, replace=False).tolist())
    return gen_homogeneous(pivs, M, int(rng.integers(0, 2**62)))


class TestOracleEquivalence:
    def test_random_configs(self):
        for _ in range(60):
            J = random_homogeneous(M_hi=10, s_hi=6)
            r = pivots(J)
            sig, _ = random_signal(J)
            n = int(rng.integers(0, len(r) + 1))
            a = int(rng.integers(0, J.N))
            got = hidft(sig, J, r, height=n, shift=a)
            want = hidft_oracle(sig, J, r, height=n, shift=a)
            assert got.node_residues == want.node_residues
            assert rel_error(got.node_values, want.node_values, floor=1e-9) < 1e-10

    def test_part_homogeneous_configs(self):
        fixtures = [
            (64, [3, 17, 25, 27, 35], (1, 3)),
            (1024, [0, 1, 6, 7, 512], (0, 1)),
            (8, [0, 1, 3], (0, 1)),  # a tree slot lattice with an empty branch
        ]
        for N, idx, r in fixtures:
            J = SupportSet.make(N, idx)
            sig, _ = random_signal(J)
            for n in range(len(r) + 1):
                for a in (0, 1, 5):
                    got = hidft(sig, J, r, height=n, shift=a)
                    want = hidft_oracle(sig, J, r, height=n, shift=a)
                    assert rel_error(got.node_values, want.node_values, floor=1e-9) < 1e-10

    def test_top_height_is_single_sample(self):
        # shift a reads the sample of tau^a f at the origin, i.e. f(-a)
        J = SupportSet.make(64, [3, 17, 25, 27])
        sig, _ = random_signal(J)
        res = hidft(sig, J, (1, 3), height=2, shift=5)
        assert res.node_residues == (0,)
        assert abs(res.node_values[0] - sig.sample((-5) % 64)) < 1e-12
        assert res.ops_adds == res.ops_mults == 0


class TestFullSupportDegeneration:
    @pytest.mark.parametrize("M", [1, 2, 5, 8])
    def test_equals_fft_with_identical_counts(self, M):
        N = 1 << M
        f = rng.normal(size=N) + 1j * rng.normal(size=N)
        Z = SupportSet.make(N, range(N))
        c1, c2 = OpCounter(), OpCounter()
        got = hidft(f, Z, tuple(range(M)), counter=c1)
        want = fft_radix2(f, c2)
        assert rel_error(got.values_by_index(), want, floor=1e-9) < 1e-10
        assert (c1.complex_adds, c1.complex_mults) == (c2.complex_adds, c2.complex_mults)

    def test_downsampled_heights(self):
        # at height n the full-support transform is the N/2^n-point DFT of
        # the downsampled signal
        N, n = 64, 2
        f = rng.normal(size=N) + 1j * rng.normal(size=N)
        Z = SupportSet.make(N, range(N))
        res = hidft(f, Z, tuple(range(6)), height=n)
        small = fft_radix2(f[:: 1 << n])
        for m in range(N):
            assert abs(res.value_at_index(m) - small[m % (N >> n)]) < 1e-9


class TestHidftToDft:
    def test_dc_singleton(self):
        J = SupportSet.make(16, [0])
        sig = BandlimitedSignal(J, [3.0 - 2.0j])
        rec = hidft_to_dft(hidft(sig, J, ()))
        assert abs(rec[0] - (3.0 - 2.0j)) < 1e-12

    def test_paper_eight_point_fixture(self):
        J = SupportSet.make(1024, [23, 187, 190, 247, 386, 731, 990, 994])
        assert classify(J).is_homogeneous and pivots(J) == (0, 2, 5)
        sig, c = random_signal(J)
        rec = hidft_to_dft(hidft(sig, J, (0, 2, 5)))
        assert rel_error(rec, c) < 1e-9
        full = dft_direct(sig.synthesize())
        assert rel_error(rec, full[list(J.indices)]) < 1e-9

    def test_random_homogeneous_vs_planted(self):
        for _ in range(100):
            J = random_homogeneous()
            sig, c = random_signal(J)
            ctr = OpCounter()
            rec = hidft_to_dft(hidft(sig, J, pivots(J), counter=ctr), counter=ctr)
            assert rel_error(rec, c, floor=1e-9) < 1e-9

    def test_elementary_equals_downsample_fft(self):
        # one element per class mod 2^r: the pivoted pattern is uniform and
        # the butterfly equals a 2^r-point FFT of the downsampled signal
        J = gen_elementary(3, 6, seed=5)
        sig, c = random_signal(J)
        res = hidft(sig, J, (0, 1, 2))
        down = sig.sample_block(np.arange(8) * 8)  # locations b * 2^{M-r}
        small = fft_radix2(down)
        for j in J.indices:
            assert abs(res.value_at_index(j) - small[j % 8]) < 1e-10
        rec = hidft_to_dft(res)
        assert rel_error(rec, c) < 1e-9

    def test_requires_homogeneous(self):
        J = SupportSet.make(64, [3, 17, 25, 27, 35])
        sig, _ = random_signal(J)
        with pytest.raises(ContractViolationError):
            hidft_to_dft(hidft(sig, J, (1, 3)))


class TestTreeWeightIdentity:
    def test_shifted_weights(self):
        # transform value at node v = (|I|/N) * sum over members of the
        # modulated spectrum e^{-2 pi i a l / N} Ff(l)
        for N, idx, r in [
            (64, [3, 17, 25, 27, 35], (1, 3)),
            (1024, [0, 1, 6, 7, 512], (0, 1)),
        ]:
            J = SupportSet.make(N, idx)
            sig, c = random_signal(J)
            spec = sig.coeff_map()
            for n in range(len(r) + 1):
                for a in (0, 3):
                    res = hidft(sig, J, r, height=n, shift=a)
                    scale = (1 << (len(r) - n)) / N
                    residues, bounds, members = build_tree(J, res.level).level_arrays(res.level)
                    for i, residue in enumerate(residues.tolist()):
                        want = scale * sum(
                            spec[l] * np.exp(-2j * np.pi * a * l / N)
                            for l in members[bounds[i]:bounds[i + 1]].tolist()
                        )
                        got = res.values[residue]
                        assert abs(got - want) <= 1e-9 * max(abs(want), 1e-9)


class TestSplitIdentity:
    def test_height1_restriction(self):
        # the height-1 transform restricted to a branch equals the height-0
        # transform of that branch's subset
        J = SupportSet.make(32, [3, 17, 25, 27])
        r = (1, 3)
        sig, _ = random_signal(J)
        res1 = hidft(sig, J, r, height=1)
        j1 = SupportSet.make(32, [3, 17])   # left branch of the level-3 split
        j2 = SupportSet.make(32, [25, 27])  # right branch
        for sub in (j1, j2):
            res0 = hidft(sig, sub, r[:-1], height=0)
            for j in sub.indices:
                assert abs(res1.value_at_index(j) - res0.value_at_index(j)) < 1e-10


class TestExactOpCount:
    def test_every_config(self):
        for _ in range(40):
            J = random_homogeneous(M_hi=9, s_hi=6)
            r = pivots(J)
            sig, _ = random_signal(J)
            n = int(rng.integers(0, len(r) + 1))
            ctr = OpCounter()
            hidft(sig, J, r, height=n, shift=int(rng.integers(0, J.N)), counter=ctr)
            A = 1 << (len(r) - n)
            logA = len(r) - n
            assert ctr.total == round(1.5 * A * logA)
            assert ctr.total <= 1.5 * A * logA + A  # stated upper bound

    def test_charges_butterfly_ops_and_reports_them(self):
        for _ in range(20):
            J = random_homogeneous(M_hi=9, s_hi=6)
            r = pivots(J)
            sig, _ = random_signal(J)
            n = int(rng.integers(0, len(r) + 1))
            ctr = OpCounter()
            res = hidft(sig, J, r, height=n, counter=ctr)
            adds, mults = butterfly_ops(len(r) - n, 1, 1 << (len(r) - n))
            assert (res.ops_adds, res.ops_mults) == (adds, mults)
            assert ctr.phases == ({"hidft": (adds, mults)} if adds else {})

    def test_degenerate_tree_same_count(self):
        # missing branches are padded, so the count ignores tree shape
        J = SupportSet.make(8, [0, 1, 3])
        sig, _ = random_signal(J)
        ctr = OpCounter()
        hidft(sig, J, (0, 1), counter=ctr)
        assert ctr.total == round(1.5 * 4 * 2)

    def test_determinism(self):
        J = random_homogeneous()
        sig, _ = random_signal(J)
        a = hidft(sig, J, pivots(J))
        b = hidft(sig, J, pivots(J))
        assert np.array_equal(a.node_values, b.node_values)
        assert a.node_residues == b.node_residues


def raw_bit_plan(J, used):
    """The slot plan read off J's own bits: each element's slot is its bit
    pattern at the used pivots, a slot prefix's residue is the least element
    under it, stage by stage, and a prefix with no element inherits its
    parent's shared residue with the branch bit patched in."""
    arr = J.as_array()
    pats = np.zeros(len(arr), dtype=np.int64)
    for i, rk in enumerate(used):
        pats |= ((arr >> rk) & 1) << i
    reps = np.asarray([int(arr.min())], dtype=np.int64)
    twiddles = []
    big = np.iinfo(np.int64).max
    for k, rk in enumerate(used, start=1):
        shared = reps % (1 << rk)
        twiddles.append(np.exp(-2j * np.pi * (shared + (1 << rk)) / float(1 << (rk + 1))))
        least = np.full(1 << k, big, dtype=np.int64)
        np.minimum.at(least, pats & ((1 << k) - 1), arr)
        branch = (np.arange(1 << k) >> (k - 1)) & 1
        inherited = shared[np.arange(1 << k) & ((1 << (k - 1)) - 1)] + (branch << rk)
        reps = np.where(least == big, inherited, least)
    level = used[-1] + 1 if used else 0
    real = np.zeros(1 << len(used), dtype=bool)
    real[pats] = True
    return reps % (1 << level), real, twiddles


class TestSlotPlanOracle:
    def test_node_residues_give_the_raw_bit_plan(self):
        virtual = 0
        for t in range(150):
            if t % 2:
                J = random_homogeneous(M_hi=12, s_hi=7)
                keep = rng.random(len(J)) < 0.7  # thinned: empty branches
                keep[0] = True
                J = SupportSet.make(J.N, np.asarray(J.indices)[keep].tolist())
            else:
                M = int(rng.integers(1, 13))
                k = int(rng.integers(1, min(1 << M, 80) + 1))
                J = SupportSet.make(1 << M, rng.choice(1 << M, size=k, replace=False).tolist())
            p = pivots(J)
            r = p[:int(rng.integers(0, len(p) + 1))]  # J is r-part-homogeneous
            tree = build_tree(J, J.M)
            for n in range(len(r) + 1):
                used = r[:len(r) - n]
                residues = tree.level_arrays(used[-1] + 1 if used else 0)[0]
                plan, slots = _build_plan(residues, used)
                want_res, want_real, want_tw = raw_bit_plan(J, used)
                assert plan.slot_residues.tobytes() == want_res.tobytes()
                assert plan.slot_real.tobytes() == want_real.tobytes()
                assert len(want_tw) == len(used)
                for k, _, got in steps_of(plan, "radix2"):  # runs and fused groups keep no twiddles
                    assert got.tobytes() == want_tw[k].tobytes()
                assert plan.slot_residues[slots].tolist() == residues.tolist()
                virtual += int((~want_real).sum())
        assert virtual > 0


def dict_loop_block_factorization_check(J, r, tol=1e-12):
    """`block_factorization_check` as earlier versions wrote it: the
    siblings paired by a dict, a `seen` set and a loop.  Its oracle."""
    rt = tuple(r)
    r_max = rt[-1]
    level = r_max + 1
    tree = build_tree(J, level)
    residues, bounds, members = tree.level_arrays(level)
    rep_of = dict(zip(residues.tolist(), members[bounds[:-1]].tolist()))
    pairs, skipped, seen = [], [], set()
    for res in rep_of:
        if res in seen:
            continue
        sib = res ^ (1 << r_max)
        seen.update({res, sib})
        if sib in rep_of:
            left, right = (res, sib) if (res >> r_max) & 1 else (sib, res)
            pairs.append((rep_of[left], rep_of[right]))
        else:
            skipped.append(res)
    if not pairs:
        return BlockFactorizationReport(True, 0.0, 0, tuple(skipped))
    j1 = np.asarray([p[0] for p in pairs], dtype=np.int64)
    j2 = np.asarray([p[1] for p in pairs], dtype=np.int64)
    sub = pivoted_pattern(rt[:-1], J.M).as_array()
    cols = np.concatenate([sub, sub + (1 << (J.M - 1 - r_max))])
    full = fourier_kernel(np.concatenate([j1, j2]), cols, J.N)
    B = fourier_kernel(j1, sub, J.N)
    D = np.exp(-2j * np.pi * j1 / float(1 << (r_max + 1)))
    m = len(pairs)
    recon = np.empty_like(full)
    recon[:m, :len(sub)] = B
    recon[:m, len(sub):] = D[:, None] * B
    recon[m:, :len(sub)] = B
    recon[m:, len(sub):] = -D[:, None] * B
    err = float(np.max(np.abs(full - recon)))
    return BlockFactorizationReport(err <= tol, err, m, tuple(skipped))


class TestBlockFactorization:
    def test_reports_equal_the_dict_loop(self):
        # homogeneous, thinned and random supports at every prefix of their
        # pivots (random ones are part-homogeneous there, or both raise)
        gen = np.random.default_rng(41)
        seen = {"pairs": 0, "skipped": 0, "raised": 0}
        for t in range(90):
            M = int(gen.integers(1, 12))
            if t % 3 == 2:
                k = int(gen.integers(1, min(1 << M, 60) + 1))
                J = SupportSet.make(1 << M, gen.choice(1 << M, size=k, replace=False).tolist())
            else:
                piv = sorted(gen.choice(M, size=int(gen.integers(1, M + 1)), replace=False).tolist())
                J = gen_homogeneous(piv, M, int(gen.integers(0, 2**62)))
                if t % 3 == 1:
                    keep = gen.random(len(J)) < 0.6
                    keep[0] = True
                    J = SupportSet.make(J.N, np.asarray(J.indices)[keep].tolist())
            p = pivots(J)
            for n in range(1, len(p) + 1):
                for r in (p[:n], p[len(p) - n:]):
                    try:
                        got = block_factorization_check(J, r)
                    except ContractViolationError:
                        with pytest.raises(ContractViolationError):
                            check_part_homogeneous(pivots(J), r)
                        seen["raised"] += 1
                        continue
                    assert got == dict_loop_block_factorization_check(J, r), (J, r)
                    seen["pairs"] += got.n_pairs > 0
                    seen["skipped"] += bool(got.skipped)
        assert min(seen.values()) >= 10, seen

    def test_paper_fixture(self):
        rep = block_factorization_check(SupportSet.make(32, [3, 17, 25, 27]), (1, 3))
        assert rep.passed and rep.max_err <= 1e-12 and rep.n_pairs == 2

    def test_z4_textbook(self):
        rep = block_factorization_check(SupportSet.make(4, [0, 1, 2, 3]), (0, 1))
        assert rep.passed and rep.n_pairs == 2

    def test_random_homogeneous(self):
        for _ in range(50):
            J = random_homogeneous(M_hi=10, s_hi=6)
            r = pivots(J)
            if not r:
                continue
            rep = block_factorization_check(J, r)
            assert rep.passed, rep

    def test_degenerate_skips(self):
        # {0,1,3} at r=(0,1): residue-3 node at level 2 has no sibling
        rep = block_factorization_check(SupportSet.make(8, [0, 1, 3]), (0, 1))
        assert rep.passed
        assert len(rep.skipped) == 1


class TestSpectrality:
    def test_paper_fixture_and_named_rows(self):
        J = SupportSet.make(1024, [316, 384, 828, 896])
        rep = spectrality_check(J)
        assert rep.passed and rep.max_err <= 1e-9
        assert submatrix_unitarity([1, 292, 641, 932], J.indices, 1024) <= 1e-9

    def test_periodic_subgroup(self):
        assert spectrality_check(SupportSet.make(8, [0, 4])).passed

    def test_non_power_of_two_rejected(self):
        from structfft import InvalidInputError

        with pytest.raises(InvalidInputError):
            spectrality_check(SupportSet.make(8, [0, 1, 2]))

    def test_iff_homogeneous(self):
        for _ in range(60):
            M = int(rng.integers(2, 9))
            N = 1 << M
            k = 1 << int(rng.integers(1, min(M, 4) + 1))
            J = SupportSet.make(N, rng.choice(N, size=k, replace=False).tolist())
            assert spectrality_check(J).passed == classify(J).is_homogeneous


def mixed_runs(gen, s_max=10):
    """A pivot vector of at most s_max pivots that has a run of FFT_RUN or
    more consecutive pivots: segments of FFT_RUN..FFT_RUN+2 or 1..FFT_RUN-1
    consecutive pivots, one or two levels apart, the first at level 0..2."""
    while True:
        r, start = [], int(gen.integers(0, 3))
        while True:
            long = gen.random() < 0.5
            size = int(gen.integers(FFT_RUN, FFT_RUN + 3) if long else gen.integers(1, FFT_RUN))
            if len(r) + size > s_max:
                break
            r.extend(range(start, start + size))
            start += size + int(gen.integers(1, 3))
        if fft_runs(r):
            return tuple(r)


class TestFftRuns:
    """The butterfly runs each run of FFT_RUN or more consecutive pivots as
    one pre-twiddled numpy.fft; it must still give the dense submatrix
    product."""

    def test_pass_matches_oracle(self):
        gen = np.random.default_rng(2026)
        twiddled = 0  # runs after a first pivot whose table has several prefixes
        for t in range(40):
            r = mixed_runs(gen)
            M = r[-1] + 1 + int(gen.integers(0, 3))
            J = gen_homogeneous(r, M, int(gen.integers(0, 2**62)))
            if t % 2:  # thinned: virtual slots, J stays r-part-homogeneous
                keep = gen.random(len(J)) < 0.7
                keep[0] = True
                J = SupportSet.make(J.N, np.asarray(J.indices)[keep].tolist())
            x = gen.standard_normal(J.N) + 1j * gen.standard_normal(J.N)
            plan, _ = _butterfly_entry(J, r)[:2]
            twiddled += sum(j > 0 and table is not None for j, _, table in steps_of(plan, "fft_runs"))
            for height in (0, int(gen.integers(0, len(r) + 1))):
                shift = int(gen.integers(0, J.N))
                got = hidft(x, J, r, height=height, shift=shift)
                want = hidft_oracle(x, J, r, height=height, shift=shift)
                assert got.node_residues == want.node_residues
                scale = np.max(np.abs(want.node_values))
                assert np.max(np.abs(got.node_values - want.node_values)) <= 1e-12 * scale
        assert twiddled >= 5

    def test_pre_twiddle_table(self):
        # pivots 2..8 at stages 1..7: prefix p = 0, 1 of the first pivot, and
        # a residue shared mod 4 by each prefix's nodes
        r = (0, 2, 3, 4, 5, 6, 7, 8, 10)
        J = gen_homogeneous(r, 12, 3)
        plan, _ = _butterfly_entry(J, r)[:2]
        [(j, m, table)] = steps_of(plan, "fft_runs")
        assert (j, m) == (1, 7) and table.shape == (1 << 7, 2)
        x = plan.slot_residues[:2] % 4
        n = np.arange(1 << 7)[:, None]
        assert np.max(np.abs(table - np.exp(-2j * np.pi * n * x / (1 << 9)))) <= 1e-15
        assert not table.flags.writeable
        # radix-2 steps, with twiddles, at stages 0 and 8 only
        assert [step[:3] for step in plan.steps] == [("radix2", 0, 1), ("fft_runs", 1, 7), ("radix2", 8, 1)]
        assert all(w.shape == (1 << j,) for j, _, w in steps_of(plan, "radix2"))

    def test_runs_on_the_numpy_1_fft_signature(self, monkeypatch):
        # numpy.fft.fft took no `out` before NumPy 2.0; the pass must not need it
        real = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda a, n=None, axis=-1, norm=None: real(a, n, axis, norm))
        r = (0, 2, 3, 4, 5, 6, 7, 8, 10)
        J = gen_homogeneous(r, 12, 3)
        x = np.random.default_rng(3).standard_normal(J.N).astype(np.complex128)
        got, want = hidft(x, J, r), hidft_oracle(x, J, r)
        scale = np.max(np.abs(want.node_values))
        assert np.max(np.abs(got.node_values - want.node_values)) <= 1e-12 * scale


def natural_order_pass(plan, v, twiddles):
    """The butterfly as earlier versions ran it, in natural order: before
    stage k, row b is indexed u 2^k + p, p the merged k-bit slot prefix and
    u the unread sample bits.  Its runs read the plan's pre-twiddle tables,
    and every other stage k runs as a radix-2 step by twiddles[k], from
    `raw_bit_plan`.  `TestStockhamLayout`'s oracle."""
    rows, A = v.shape
    stages = len(plan.used)
    buffers = [np.empty((rows, A), dtype=np.complex128) for _ in range(min(stages, 2))]

    def spare(w):
        return buffers[1] if w is buffers[0] else buffers[0]

    runs = {j: (m, table) for j, m, table in steps_of(plan, "fft_runs")}
    k = 0
    while k < stages:
        if k in runs:
            m, table = runs[k]
            a = v.reshape(rows, -1, 1 << m, 1 << k)
            if table is not None:
                v = spare(v)
                a = np.multiply(a, table, out=v.reshape(a.shape))
            v = np.fft.fft(a, axis=2).reshape(rows, A)
            k += m
        else:
            half = 1 << k
            a = v.reshape(rows, -1, 2, half)
            t = twiddles[k] * a[:, :, 1, :]
            v = spare(v)
            b = v.reshape(rows, -1, 2, half)
            np.subtract(a[:, :, 0, :], t, out=b[:, :, 0, :])
            np.add(a[:, :, 0, :], t, out=b[:, :, 1, :])
            k += 1
    return v if stages else v.copy()


def run_pivots(gen, M):
    """Pivots below M >= FFT_RUN + 4 with one run of FFT_RUN or more
    consecutive levels and single pivots below and above it, levels apart;
    half the time the run starts at level 2 or more and ends two or more
    levels below M, so that room is left on both sides."""
    m = int(gen.integers(FFT_RUN, min(FFT_RUN + 2, M - 3)))
    c = int(gen.integers(2, M - m - 1) if gen.random() < 0.5 else gen.integers(0, M - m + 1))
    below = [x for x in range(c - 1) if gen.random() < 0.7]
    above = [x for x in range(c + m + 1, M) if gen.random() < 0.7]
    return below + list(range(c, c + m)) + above


def gapped_pivots(gen, M, s):
    """s levels below M (at most M - M // FFT_RUN of them) that hold no run
    of FFT_RUN consecutive levels, so every stage of the pass is radix-2 or
    fused."""
    s = min(s, M - M // FFT_RUN)
    while True:
        r = tuple(sorted(gen.choice(M, size=s, replace=False).tolist()))
        if not fft_runs(r):
            return r


class TestStockhamLayout:
    """The pass runs its stages in Stockham order and its long runs on
    contiguous lines; on every plan with no fused group it must return the
    bytes of the natural-order pass it replaced.  numpy's complex products
    can round differently by operand layout on some SIMD paths, so a case
    that misses in the last bit is reported and held to 1e-12 of the oracle
    instead.  A fused group sums 2^g products where its radix-2 stages
    rounded g times, so a plan with one is held to 1e-12 of the
    natural-order pass and of `hidft_oracle`, and not reported."""

    def test_bytes_equal_natural_order_pass(self):
        gen = np.random.default_rng(19)
        misses = []
        seen = {"random": 0, "thinned": 0, "run at 0": 0, "run after 0": 0, "run inside": 0,
                "table inside": 0, "fused": 0, "unfused": 0, "radix-2 past the gate": 0}

        def assert_hidft_matches_oracle(J, r, height, seed):
            x = np.random.default_rng(seed).standard_normal(J.N).astype(np.complex128)
            res, ref = hidft(x, J, r, height=height), hidft_oracle(x, J, r, height=height)
            scale = np.max(np.abs(ref.node_values))
            assert np.max(np.abs(res.node_values - ref.node_values)) <= 1e-12 * scale

        for t in range(252):
            M = int(gen.integers(1, 13) if t % 3 < 2 else gen.integers(FFT_RUN + 4, 13))
            if t % 3 == 0 and t < 240:
                k = int(gen.integers(1, min(1 << M, 80) + 1))
                J = SupportSet.make(1 << M, gen.choice(1 << M, size=k, replace=False).tolist())
                seen["random"] += 1
            else:
                if t >= 240:  # 9 to 11 gapped pivots: fused groups, then radix-2 stages past the gate
                    M = int(gen.integers(11, 15))
                    piv = gapped_pivots(gen, M, int(gen.integers(9, 12)))
                elif t % 3 == 1:
                    piv = sorted(gen.choice(M, size=int(gen.integers(0, M + 1)), replace=False).tolist())
                else:
                    piv = run_pivots(gen, M)
                J = gen_homogeneous(piv, M, int(gen.integers(0, 2**62)))
                if gen.random() < 0.4:  # virtual slots; J stays pivots(J)-part-homogeneous
                    keep = gen.random(len(J)) < 0.7
                    keep[0] = True
                    J = SupportSet.make(J.N, np.asarray(J.indices)[keep].tolist())
                    seen["thinned"] += 1
            r = pivots(J)
            tree = build_tree(J, J.M)
            for height in range(len(r) + 1):
                used = r[:len(r) - height]
                plan, _ = _build_plan(tree.level_arrays(used[-1] + 1 if used else 0)[0], used)
                twiddles = raw_bit_plan(J, used)[2]
                fused = bool(steps_of(plan, "fused"))
                for j, m, table in steps_of(plan, "fft_runs"):
                    inside = 0 < j and j + m < len(used)  # radix-2 stages on both sides
                    seen["run inside" if inside else "run at 0" if j == 0 else "run after 0"] += 1
                    seen["table inside"] += inside and table is not None
                seen["fused" if fused else "unfused"] += 1
                seen["radix-2 past the gate"] += fused and bool(plan.layout["radix2"])
                if fused:
                    assert_hidft_matches_oracle(J, r, height, t)
                for rows in (1, 9):
                    shape = (rows, 1 << len(used))
                    grid = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
                    got, want = _butterfly_pass(plan, grid), natural_order_pass(plan, grid, twiddles)
                    if got.tobytes() == want.tobytes():
                        continue
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (J, used, rows)
                    if not fused:
                        misses.append((J.N, len(J), used, rows))
                        assert_hidft_matches_oracle(J, r, height, len(misses))
        assert min(seen.values()) >= 10, seen
        if misses:
            warnings.warn(f"{len(misses)} plans rounded differently from the natural-order pass: {misses[:5]}")


class TestButterflyAdjoint:
    """`_butterfly_adjoint` is the conjugate transpose of `_butterfly_pass`,
    which `_read_grid` runs to synthesize a BandlimitedSignal's grid."""

    def test_inner_products_agree(self):
        # <T g, s> = <g, T^H s> on every height of random, homogeneous and
        # thinned supports, with runs of FFT_RUN pivots with and without a
        # table, fused groups, and radix-2 stages past the fusion gate
        gen = np.random.default_rng(23)
        seen = {"zero stages": 0, "virtual slots": 0, "run, no table": 0, "run, table": 0, "fused": 0,
                "radix-2 past the gate": 0}
        for t in range(132):
            M = int(gen.integers(1, 13) if t % 2 else gen.integers(FFT_RUN + 4, 13))
            if t >= 120:  # 9 to 11 pivots, no run: stages past the gate stay radix-2
                J = gen_homogeneous(gapped_pivots(gen, 14, int(gen.integers(9, 12))), 14,
                                    int(gen.integers(0, 2**62)))
            elif t % 4 == 1:
                k = int(gen.integers(1, min(1 << M, 80) + 1))
                J = SupportSet.make(1 << M, gen.choice(1 << M, size=k, replace=False).tolist())
            else:
                piv = run_pivots(gen, M) if t % 2 == 0 else sorted(
                    gen.choice(M, size=int(gen.integers(0, M + 1)), replace=False).tolist())
                J = gen_homogeneous(piv, M, int(gen.integers(0, 2**62)))
                if t % 4 == 2:
                    keep = gen.random(len(J)) < 0.7
                    keep[0] = True
                    J = SupportSet.make(J.N, np.asarray(J.indices)[keep].tolist())
            r = pivots(J)
            tree = build_tree(J, J.M)
            for height in range(len(r) + 1):
                used = r[:len(r) - height]
                plan, _ = _build_plan(tree.level_arrays(used[-1] + 1 if used else 0)[0], used)
                seen["zero stages"] += not used
                seen["virtual slots"] += not plan.slot_real.all()
                fused = bool(steps_of(plan, "fused"))
                seen["fused"] += fused
                seen["radix-2 past the gate"] += fused and bool(plan.layout["radix2"])
                for _, _, table in steps_of(plan, "fft_runs"):
                    seen["run, no table" if table is None else "run, table"] += 1
                rows = int(gen.integers(1, 6))
                g, v = (gen.standard_normal((2, rows, plan.n_slots))
                        + 1j * gen.standard_normal((2, rows, plan.n_slots)))
                before = v.tobytes()
                Tg, Thv = _butterfly_pass(plan, g), _butterfly_adjoint(plan, v)
                assert v.tobytes() == before  # the input is only read
                lhs, rhs = np.vdot(v, Tg), np.vdot(Thv, g)
                assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(Tg) * np.linalg.norm(v)
        assert min(seen.values()) >= 5, seen


class TestFusedGroups:
    """Stretches of radix-2 stages run as one product by per-prefix
    matrices (the "fused" steps of `stage_schedule`).  `TestStockhamLayout` and
    `TestButterflyAdjoint` check the pass and its adjoint on fused plans,
    and tests/test_batched.py that a row's bytes do not depend on the
    other rows."""

    def test_groups_follow_the_gate(self):
        assert fused_groups((0, 2, 3, 6, 8)) == ((0, 3), (3, 2))
        assert fused_groups((0, 1, 2, 3, 5, 7)) == ((0, 3), (3, 3))
        assert fused_groups((0, 1, 3, 4, 6, 7, 9)) == ((0, 4), (4, 3))
        assert fused_groups(tuple(range(0, 26, 2))) == ((0, 4), (4, 4))  # A = 8192: stages 8..12 radix-2
        assert fused_groups((0, 2, 3, 4, 5, 6, 7, 8, 10)) == ()  # stage 0, a run, stage 8
        assert fused_groups((0, 2, 4, 5, 6, 7, 8, 9)) == ((0, 2),)  # two stages, then a run
        assert fused_groups((0,)) == fused_groups(()) == ()
        gen = np.random.default_rng(31)
        for _ in range(200):
            M = int(gen.integers(1, 20))
            r = tuple(sorted(gen.choice(M, size=int(gen.integers(0, M + 1)), replace=False).tolist()))
            runs = {k for j, m in fft_runs(r) for k in range(j, j + m)}
            covered = [k for j, g in fused_groups(r) for k in range(j, j + g)]
            assert len(covered) == len(set(covered)) and not runs & set(covered)
            for j, g in fused_groups(r):
                assert 2 <= g <= FUSE_STAGES and 1 << j <= FUSE_PREFIXES

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(start=st.integers(0, 3), gaps=st.lists(st.integers(1, 3), max_size=23))
    def test_schedule_tiles_the_stages(self, start, gaps):
        # gaps of 1 make runs of consecutive pivots, longer gaps radix-2 or fused stages
        used = tuple(np.cumsum([start, *gaps]).tolist())
        schedule = stage_schedule(used)
        assert [k for _, j, n in schedule for k in range(j, j + n)] == list(range(len(used)))
        assert tuple((j, n) for kind, j, n in schedule if kind == "fft_runs") == fft_runs(used)
        for kind, j, n in schedule:
            assert kind in ("fft_runs", "fused", "radix2")
            if kind == "fused":
                assert j <= 4 and 2 <= n <= FUSE_STAGES
            if kind == "radix2":
                assert n == 1

    def test_matrices_are_read_only_in_the_frozen_plan(self):
        gen = np.random.default_rng(37)
        for t in range(30):
            M = int(gen.integers(3, 13))
            J = gen_homogeneous(gapped_pivots(gen, M, int(gen.integers(2, min(M, 9) + 1))), M,
                                int(gen.integers(0, 2**62)))
            r = pivots(J)
            plan = _butterfly_entry(J, r)[0]
            assert steps_of(plan, "fused") and _butterfly_entry(J, r)[0] is plan  # cached on J
            for j, g, (F, Fh) in steps_of(plan, "fused"):
                assert F.shape == Fh.shape == (1 << j, 1 << g, 1 << g)
                assert not F.flags.writeable and not Fh.flags.writeable
                with pytest.raises(ValueError):
                    F[0, 0, 0] = 0
                assert Fh.tobytes() == F.conj().tobytes()
                assert np.max(np.abs(np.abs(F) - 1)) <= 1e-15
            with pytest.raises(AttributeError):
                plan.steps = ()

    def test_layout_names_every_stage_once(self):
        for r, layout in (
            ((0, 2, 3, 6, 8), {"fft_runs": [], "fused": [[0, 3], [3, 2]], "radix2": []}),
            ((0, 2, 3, 4, 5, 6, 7, 8, 10), {"fft_runs": [[1, 7]], "fused": [], "radix2": [0, 8]}),
            (tuple(range(0, 22, 2)), {"fft_runs": [], "fused": [[0, 4], [4, 4]], "radix2": [8, 9, 10]}),
        ):
            J = gen_homogeneous(r, r[-1] + 1, 3)
            assert _butterfly_entry(J, r)[0].layout == layout


def test_shift_must_be_an_integer():
    # int() would read at shift 2 and report shift=2.7
    J = gen_homogeneous((0, 2, 3), 8, 1)
    sig, _ = random_signal(J)
    r = pivots(J)
    for fn in (hidft, hidft_oracle):
        with pytest.raises(InvalidInputError, match="not an integer"):
            fn(sig, J, r, shift=2.7)
        with pytest.raises(InvalidInputError, match="not an integer"):
            fn(sig, J, (0, 2.5))
        res = fn(sig, J, r, shift=2.0)
        assert res.shift == 2 and type(res.shift) is int
        assert res.slot_values.tobytes() == fn(sig, J, r, shift=2).slot_values.tobytes()


def test_oracle_keeps_the_height_range():
    # three pivots: height 5 and -1 name no level of the tree
    J = gen_homogeneous((0, 2, 3), 8, 1)
    sig, _ = random_signal(J)
    for fn in (hidft, hidft_oracle):
        for height in (5, -1, 4):
            with pytest.raises(InvalidInputError, match="height"):
                fn(sig, J, (0, 2, 3), height=height)


def test_any_integer_shift_reads_at_shift_mod_N():
    # int64 would overflow on these; the result keeps the shift as given
    J = gen_homogeneous((0, 2, 3, 5), 9, 4)
    sig, _ = random_signal(J)
    x = rng.standard_normal(J.N) + 1j * rng.standard_normal(J.N)
    r = pivots(J)
    for fn in (hidft, hidft_oracle):
        for source in (x, sig):
            for shift in (2**63, 2**70, -2**70, 2**70 + 3):
                res = fn(source, J, r, height=1, shift=shift)
                assert res.shift == shift
                want = fn(source, J, r, height=1, shift=shift % J.N)
                assert res.slot_values.tobytes() == want.slot_values.tobytes()


def test_height_must_be_an_integer():
    # int() would run height=True as height 1 and report height=True
    J = gen_homogeneous((0, 2, 3), 8, 1)
    sig, _ = random_signal(J)
    r = pivots(J)
    for fn in (hidft, hidft_oracle):
        for height in (True, 1.5, "1"):
            with pytest.raises(InvalidInputError, match="not an integer"):
                fn(sig, J, r, height=height)
        res = fn(sig, J, r, height=1.0)
        assert res.height == 1 and type(res.height) is int
        assert res.slot_values.tobytes() == fn(sig, J, r, height=1).slot_values.tobytes()


class TestPlanCache:
    def test_second_call_builds_no_tree_and_no_plan(self, monkeypatch):
        hidft_module = importlib.import_module("structfft.hidft")
        J = gen_homogeneous((0, 2, 3, 4, 5, 6, 7, 8, 10), 12, 3)
        sig, _ = random_signal(J)
        r = pivots(J)
        first = hidft(sig, J, r)
        coeffs = hidft_to_dft(first)
        built = []
        tree_init = congruence.CongruenceTree.__init__
        monkeypatch.setattr(congruence.CongruenceTree, "__init__",
                            lambda self, *a: built.append("tree") or tree_init(self, *a))
        monkeypatch.setattr(hidft_module, "_build_plan", lambda *a: built.append("plan"))
        ctr = OpCounter()
        for _ in range(2):
            again = hidft(sig, J, r, counter=ctr)
            assert again.slot_values.tobytes() == first.slot_values.tobytes()
            assert again.node_residues == first.node_residues
            assert hidft_to_dft(again).tobytes() == coeffs.tobytes()
        assert built == []
        assert ctr.phases == {"hidft": (2 * first.ops_adds, 2 * first.ops_mults)}

    def test_warm_call_reads_offsets_and_node_order_from_the_entry(self, monkeypatch):
        hidft_module = importlib.import_module("structfft.hidft")
        J = gen_homogeneous((0, 2, 3, 5, 7, 8), 11, 6)
        sig, c = random_signal(J)
        r = pivots(J)
        cold = [hidft(sig, J, r, height=n, shift=3 * n) for n in range(len(r) + 1)]

        def unexpected(*args):
            raise AssertionError("a warm hidft recomputed the pattern offsets")

        monkeypatch.setattr(hidft_module, "pattern_offsets", unexpected)
        warm = [hidft(sig, J, r, height=n, shift=3 * n) for n in range(len(r) + 1)]
        for got, want in zip(warm, cold):
            assert got.slot_values.tobytes() == want.slot_values.tobytes()
            assert got.node_residues is want.node_residues
            residues = np.asarray(got.node_residues)
            at = np.searchsorted(residues, J.as_array() % (1 << got.level))
            assert got.values_by_index().tobytes() == got.node_values[at].tobytes()
        assert rel_error(hidft_to_dft(hidft(sig, J, r)), c) < 1e-12

    def test_shares_the_sas_plan(self):
        J = gen_homogeneous((0, 1, 2, 3, 4, 5, 6, 7, 9), 11, 5)
        sig, c = random_signal(J)
        out = sas_transform(sig, J, r=pivots(J))
        entries = [k for k in J._memo if k[0] == "butterfly"]
        res = hidft(sig, J, pivots(J))
        assert [k for k in J._memo if k[0] == "butterfly"] == entries == [("butterfly", pivots(J))]
        assert hidft_to_dft(res).tobytes() == out.coeffs.tobytes()
        assert rel_error(out.coeffs, c) < 1e-12
