"""Tests for the DFT primitives and spectrum-backed signals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structfft import (
    BandlimitedSignal,
    InvalidInputError,
    OpCounter,
    SupportSet,
    aliased_class_sums,
    dft_direct,
    downsample,
    fft_radix2,
    idft_direct,
    rel_error,
    submatrix_apply,
)
from structfft.core import fourier_kernel

rng = np.random.default_rng(20240809)


class TestDftDirect:
    def test_impulse_gives_ones(self):
        f = np.zeros(8)
        f[0] = 1.0
        assert rel_error(dft_direct(f), np.ones(8)) < 1e-14

    def test_constant_n4(self):
        out = dft_direct(np.ones(4))
        assert rel_error(out, [4, 0, 0, 0], floor=1.0) < 1e-14

    def test_1234_hand_computed(self):
        # evaluated from the defining sum with 40-digit arithmetic
        want = np.array([10, -2 + 2j, -2, -2 - 2j], dtype=complex)
        assert rel_error(dft_direct([1, 2, 3, 4]), want) < 1e-14

    def test_rejects_non_power_of_two(self):
        with pytest.raises(InvalidInputError):
            dft_direct(np.ones(6))

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            dft_direct(np.array([np.nan, 1.0]))


class TestIdftDirect:
    def test_ones_gives_impulse(self):
        out = idft_direct(np.ones(8))
        want = np.zeros(8)
        want[0] = 1.0
        assert np.max(np.abs(out - want)) < 1e-14

    def test_constant(self):
        assert rel_error(idft_direct([4, 0, 0, 0]), np.ones(4)) < 1e-14

    @pytest.mark.parametrize("M", range(3, 11))
    def test_roundtrip(self, M):
        for _ in range(100 // (M - 2) + 1):
            f = rng.normal(size=1 << M) + 1j * rng.normal(size=1 << M)
            back = idft_direct(dft_direct(f))
            assert np.linalg.norm(back - f) <= 1e-12 * np.linalg.norm(f)


class TestFftRadix2:
    def test_matches_direct_n8(self):
        f = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert rel_error(fft_radix2(f), dft_direct(f)) < 1e-10

    def test_identity_n1(self):
        assert fft_radix2([3.0 + 1j])[0] == 3.0 + 1j

    def test_counted_cost_n1024(self):
        c = OpCounter()
        fft_radix2(rng.normal(size=1024), c)
        assert c.total == 15360  # 1.5 * 1024 * 10
        assert c.complex_mults == 5120 and c.complex_adds == 10240

    @pytest.mark.parametrize("M", list(range(1, 11)) + [12])
    def test_equals_direct_all_sizes(self, M):
        f = rng.normal(size=1 << M) + 1j * rng.normal(size=1 << M)
        assert rel_error(fft_radix2(f), dft_direct(f)) < 1e-10

    def test_matches_numpy(self):
        f = rng.normal(size=256) + 1j * rng.normal(size=256)
        assert rel_error(fft_radix2(f), np.fft.fft(f)) < 1e-12


class TestBandlimitedSignal:
    def test_dc_only_constant(self):
        J = SupportSet.make(16, [0])
        sig = BandlimitedSignal(J, [16.0])
        for i in range(16):
            assert abs(sig.sample(i) - 1.0) < 1e-14

    def test_full_support_matches_idft(self):
        J = SupportSet.make(16, range(16))
        c = rng.normal(size=16) + 1j * rng.normal(size=16)
        sig = BandlimitedSignal(J, c)
        assert rel_error(sig.synthesize(), idft_direct(c)) < 1e-12

    def test_sparse_fixture_matches_full_synthesis(self):
        J = SupportSet.make(1024, [316, 384, 828, 896])
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        sig = BandlimitedSignal(J, c)
        spectrum = np.zeros(1024, dtype=complex)
        spectrum[list(J.indices)] = c
        full = idft_direct(spectrum)
        locs = rng.integers(0, 1024, size=50)
        assert rel_error(sig.sample_block(locs), full[locs]) < 1e-10

    def test_spectrum_zero_off_support(self):
        J = SupportSet.make(64, [3, 17, 25, 27])
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        back = dft_direct(BandlimitedSignal(J, c).synthesize())
        off = [j for j in range(64) if j not in set(J.indices)]
        assert np.max(np.abs(back[off])) < 1e-10 * np.max(np.abs(c))
        assert rel_error(back[list(J.indices)], c) < 1e-10

    def test_out_of_range_sample(self):
        sig = BandlimitedSignal(SupportSet.make(8, [1]), [1.0])
        with pytest.raises(InvalidInputError):
            sig.sample(8)

    def test_coeff_count_must_match(self):
        with pytest.raises(InvalidInputError):
            BandlimitedSignal(SupportSet.make(8, [1, 2]), [1.0])

    @pytest.mark.parametrize("M", [1, 4, 8, 10, 12])
    def test_synthesize_is_sample_block_everywhere(self, M):
        # one inverse FFT against the per-sample sums, on seeded random supports
        N = 1 << M
        g = np.random.default_rng(M)
        for _ in range(3):
            k = int(g.integers(1, min(N, 300) + 1))
            J = SupportSet.make(N, g.choice(N, size=k, replace=False).tolist())
            sig = BandlimitedSignal(J, g.normal(size=k) + 1j * g.normal(size=k))
            want = sig.sample_block(np.arange(N))
            assert np.max(np.abs(sig.synthesize() - want)) <= 1e-13 * np.max(np.abs(want))


def exact_phases(rows, cols, N, sign):
    """e^{sign 2 pi i (r c mod N) / N} with r c reduced in Python integers."""
    res = np.array([[int(r) * int(c) % N for c in cols] for r in rows], dtype=np.int64)
    return np.exp(sign * 2j * np.pi * res / N)


class TestFourierKernel:
    N = 1 << 62
    g = np.random.default_rng(62)
    rows = np.concatenate(([0, 1, N - 1], g.integers(N // 2, N, size=9)))
    cols = np.unique(np.concatenate(([1, N - 1], g.integers(N // 2, N, size=13))))

    def test_products_past_int64_reduce_exactly(self):
        # the products reach 2^124; reduced in uint64 they keep their residues mod N
        assert max(int(r) * int(c) for r in self.rows for c in self.cols) > 1 << 120
        for sign in (-1, 1):
            want = exact_phases(self.rows, self.cols, self.N, sign)
            assert fourier_kernel(self.rows, self.cols, self.N, sign).tobytes() == want.tobytes()

    def test_submatrix_apply_at_n_2_62(self):
        g = np.random.default_rng(1)
        x = g.normal(size=len(self.cols)) + 1j * g.normal(size=len(self.cols))
        want = exact_phases(self.rows, self.cols, self.N, -1) @ x
        assert rel_error(submatrix_apply(self.rows, self.cols, x, self.N), want) < 1e-12

    def test_sample_block_at_n_2_62(self):
        J = SupportSet.make(self.N, self.cols.tolist())
        g = np.random.default_rng(2)
        c = g.normal(size=len(J)) + 1j * g.normal(size=len(J))
        want = exact_phases(self.rows, J.as_array(), self.N, 1) @ c / self.N
        assert rel_error(BandlimitedSignal(J, c).sample_block(self.rows), want) < 1e-12


class TestSubmatrixApply:
    def test_row_zero_sums(self):
        x = rng.normal(size=5) + 1j * rng.normal(size=5)
        out = submatrix_apply([0], [1, 3, 5, 7, 9], x, 16)
        assert abs(out[0] - x.sum()) < 1e-12

    def test_full_matrix_restriction(self):
        f = rng.normal(size=32) + 1j * rng.normal(size=32)
        J = [3, 17, 25, 27]
        out = submatrix_apply(J, np.arange(32), f, 32)
        assert rel_error(out, dft_direct(f)[J]) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            submatrix_apply([1], [1, 2], np.ones(3), 8)

    def test_counted(self):
        c = OpCounter()
        submatrix_apply([1, 2], [0, 4, 8], np.ones(3), 16, c)
        assert c.complex_mults == 6 and c.complex_adds == 4


class TestSpectralIdentities:
    def test_parseval(self):
        for _ in range(100):
            M = int(rng.integers(1, 11))
            f = rng.normal(size=1 << M) + 1j * rng.normal(size=1 << M)
            F = dft_direct(f)
            lhs = np.sum(np.abs(F) ** 2)
            rhs = (1 << M) * np.sum(np.abs(f) ** 2)
            assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_shift_modulation(self):
        for _ in range(20):
            N = 64
            f = rng.normal(size=N) + 1j * rng.normal(size=N)
            a = int(rng.integers(0, N))
            shifted = np.roll(f, a)  # (tau^a f)(n) = f(n - a)
            lhs = dft_direct(shifted)
            rhs = np.exp(-2j * np.pi * a * np.arange(N) / N) * dft_direct(f)
            assert rel_error(lhs, rhs, floor=1e-9) < 1e-10

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_downsampling_aliasing(self, m):
        # DFT of the downsampled signal equals the congruence-class sums of
        # the spectrum, divided by the declared 2^m scale
        N = 64
        f = rng.normal(size=N) + 1j * rng.normal(size=N)
        F = dft_direct(f)
        lhs = dft_direct(downsample(f, m)) * (1 << m)
        assert rel_error(lhs, aliased_class_sums(F, m), floor=1e-9) < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_roundtrip_property(M, seed):
    r = np.random.default_rng(seed)
    f = r.normal(size=1 << M) + 1j * r.normal(size=1 << M)
    assert rel_error(idft_direct(dft_direct(f)), f) < 1e-12
    assert rel_error(fft_radix2(f), dft_direct(f)) < 1e-10
