"""DFT primitives, brute-force oracles, and spectrum-backed signals.

Conventions (fixed once, used everywhere):
  forward transform   F f(m) = sum_n f(n) e^{-2 pi i m n / N}
  inverse transform   f(n)   = (1/N) sum_m F f(m) e^{+2 pi i m n / N}
  shift               (tau^a f)(n) = f(n - a)

Downsampling by 2^m aliases the spectrum into congruence-class sums; this
module reports those sums unscaled, and the relation to the literal DFT of
the downsampled signal is F(f_down)(n) = class_sum(n) / 2^m.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .congruence import SupportSet
from .counting import OpCounter
from .errors import InvalidInputError

_CHUNK = 1 << 21  # cap on temporary kernel-matrix entries


def _as_vec(f) -> np.ndarray:
    arr = np.asarray(f, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError("expected a nonempty 1-D complex vector")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("vector contains NaN or Inf")
    return arr


def require_power_of_two(n: int) -> int:
    if n <= 0 or (n & (n - 1)) != 0:
        raise InvalidInputError(f"length {n} is not a power of two")
    return n.bit_length() - 1


def mod_product(a, b, N: int) -> np.ndarray:
    """a * b mod N for broadcasting int arrays, N a power of two up to 2^62.

    The uint64 products wrap modulo 2^64, a multiple of N, so no product
    overflows on the way.
    """
    a = np.asarray(a, dtype=np.int64).astype(np.uint64)
    b = np.asarray(b, dtype=np.int64).astype(np.uint64)
    return ((a * b) & np.uint64(N - 1)).astype(np.int64)


def fourier_kernel(rows, cols, N: int, sign: int = -1) -> np.ndarray:
    """e^{sign 2 pi i (r c mod N) / N} at [r, c], r c reduced by `mod_product`."""
    return np.exp(sign * 2j * np.pi * mod_product(np.asarray(rows)[:, None], cols, N) / N)


def _kernel_apply(rows, cols, x: np.ndarray, N: int, sign: int = -1) -> np.ndarray:
    """fourier_kernel(rows, cols, N, sign) @ x, formed in blocks of <= _CHUNK entries."""
    out = np.empty(len(rows), dtype=np.complex128)
    step = max(1, _CHUNK // max(len(cols), 1))
    for s in range(0, len(rows), step):
        out[s:s + step] = fourier_kernel(rows[s:s + step], cols, N, sign) @ x
    return out


def dft_direct(f, counter: OpCounter | None = None) -> np.ndarray:
    """O(N^2) forward DFT by the defining sum; the reference oracle."""
    f = _as_vec(f)
    N = f.size
    require_power_of_two(N)
    n = np.arange(N)
    out = _kernel_apply(n, n, f, N)
    if counter is not None:
        counter.mul(N * N)
        counter.add(N * (N - 1))
    return out


def idft_direct(F, counter: OpCounter | None = None) -> np.ndarray:
    """O(N^2) inverse DFT with 1/N scaling."""
    F = _as_vec(F)
    N = F.size
    require_power_of_two(N)
    n = np.arange(N)
    out = _kernel_apply(n, n, F, N, sign=1) / N
    if counter is not None:
        counter.mul(N * N + N)
        counter.add(N * (N - 1))
    return out


def fft_radix2(f, counter: OpCounter | None = None) -> np.ndarray:
    """Iterative decimation-in-time radix-2 FFT.

    Counted cost is exactly 1.5 * N * log2(N): each of the log2(N) stages
    performs N/2 twiddle multiplications and N additions (trivial twiddles
    count too; that is the convention that makes the constant exact).
    """
    f = _as_vec(f)
    N = f.size
    M = require_power_of_two(N)
    if N == 1:
        return f.copy()
    # bit-reversal permutation
    idx = np.arange(N)
    rev = np.zeros(N, dtype=np.int64)
    for b in range(M):
        rev |= ((idx >> b) & 1) << (M - 1 - b)
    v = f[rev]
    for s in range(1, M + 1):
        half = 1 << (s - 1)
        tw = np.exp(-2j * np.pi * np.arange(half) / (1 << s))
        v = v.reshape(-1, 2, half)
        t = tw[None, :] * v[:, 1, :]
        v = np.stack([v[:, 0, :] + t, v[:, 0, :] - t], axis=1).reshape(-1)
        if counter is not None:
            counter.mul(N // 2)
            counter.add(N)
    return v


def downsample(f, m: int) -> np.ndarray:
    """Keep every 2^m-th sample starting at index 0."""
    f = _as_vec(f)
    require_power_of_two(f.size)
    if m < 0 or (1 << m) > f.size:
        raise InvalidInputError("downsampling factor out of range")
    return f[:: 1 << m].copy()


def aliased_class_sums(F, m: int) -> np.ndarray:
    """Congruence-class sums sum_r F(n + r * 2^{M-m}) for n < 2^{M-m}.

    These are the tree-induced weights at level M-m.  The literal DFT of the
    downsampled signal equals these sums divided by 2^m.
    """
    F = _as_vec(F)
    N = F.size
    require_power_of_two(N)
    step = N >> m
    return F.reshape(1 << m, step).sum(axis=0)


class BandlimitedSignal:
    """A signal known through its spectrum on a support set J.

    Stores the nonzero DFT coefficients (F f)_J and synthesizes any sample
    f(i) = (1/N) sum_{l in J} c_l e^{+2 pi i i l / N} in O(|J|), so signals
    with huge N never materialize.  `sample_block` is the dense per-sample
    sum, the oracle; `sample_grid` reads the shifted pivoted-pattern grids
    of the transforms from group sums at a fraction of its cost.  The phase
    tables those sums use depend on J alone, so `sample_grid` keeps the last
    request's tables (up to _CHUNK entries each) in `support._memo`, where
    every signal on the same `SupportSet` instance finds them; the signal
    itself holds only its coefficients.
    """

    def __init__(self, support: SupportSet, coeffs: Sequence[complex]):
        self.support = support
        self.N = support.N
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.shape != (len(support),):
            raise InvalidInputError(
                f"need exactly {len(support)} coefficients, got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise InvalidInputError("coefficients contain NaN or Inf")
        self.coeffs = c
        self._l = support.as_array()

    def coeff(self, j: int) -> complex:
        pos = int(np.searchsorted(self._l, j))
        if pos >= len(self._l) or self._l[pos] != j:
            raise InvalidInputError(f"index {j} not in support")
        return complex(self.coeffs[pos])

    def coeff_map(self) -> dict[int, complex]:
        return {int(l): complex(c) for l, c in zip(self._l, self.coeffs)}

    def sample(self, i: int) -> complex:
        if i < 0 or i >= self.N:
            raise InvalidInputError(f"sample index {i} out of range [0, {self.N})")
        return complex(self.sample_block(np.asarray([i]))[0])

    def sample_block(self, locations) -> np.ndarray:
        """Vectorized synthesis of f at the given (mod-N) locations."""
        loc = np.asarray(locations, dtype=np.int64)
        return _kernel_apply(loc, self._l, self.coeffs, self.N, sign=1) / self.N

    def sample_grid(self, offsets, shifts) -> np.ndarray:
        """Samples f(o_i - j): one row per shift j, one column per offset o_i.

        Built from group sums instead of one k-term sum per sample.  With
        2^(M-q) the largest power of two dividing every offset (q = 0 if all
        are 0 mod N), e^{2 pi i o l / N} depends on l only through its group,
        l mod 2^q, so

            f(o_i - j) = (1/N) sum_g S[j, g] P[g, i],
            S[j, g] = sum_{l in g} c_l E[j, l],
            E[j, l] = e^{-2 pi i j l / N},  P[g, i] = e^{2 pi i res_g o_i / N}.

        For a pivoted pattern the groups are the decode-level tree nodes, so
        the cost is len(shifts) * k + G * len(offsets) exponentials for G
        groups, plus one (shifts x G) @ (G x offsets) product.  `sample_block`
        at the same locations is the oracle.

        Everything but the coefficients depends on J, the offsets and the
        shifts alone.  E is formed in blocks of rows and P in blocks of
        groups, each of at most _CHUNK entries (at least one row or group).
        When each is one block, the support order by group, the group
        starts, E and P are kept, read-only, as the one "grid" entry of
        `support._memo`, keyed by the offsets and shifts mod N; a request
        with other offsets or shifts replaces it.  A call that finds them
        (any signal on the same `SupportSet` instance) forms only S and the
        product.  Cold, warm and larger requests go through the same loops,
        so a warm call returns a cold call's bytes.
        """
        N = self.N
        o = np.asarray(offsets, dtype=np.int64) % N
        j = np.asarray(shifts, dtype=np.int64) % N
        memo = self.support._memo
        key = (o.tobytes(), j.tobytes())
        entry = memo.get("grid")
        if entry is not None and entry[0] == key:
            order, starts, E, P = entry[1]
            E, P = (E,), (P,)
        else:
            nz = o[o != 0]
            q = N.bit_length() - int(np.min(nz & -nz)).bit_length() if nz.size else 0
            group = self._l & ((1 << q) - 1)
            order = np.argsort(group, kind="stable")  # the support by group
            group = group[order]
            starts = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1])))
            l, res = self._l[order], group[starts]
            rows = max(1, _CHUNK // len(l))
            groups = max(1, _CHUNK // max(len(o), 1))
            E = (fourier_kernel(j[s:s + rows], l, N)
                 for s in range(0, max(len(j), 1), rows))  # no shifts: one empty block
            P = (fourier_kernel(res[g:g + groups], o, N, sign=1)
                 for g in range(0, len(res), groups))
            if len(j) * len(l) <= _CHUNK and len(res) * len(o) <= _CHUNK:  # one block each
                E, P = tuple(E), tuple(P)
                for a in (order, starts, *E, *P):
                    a.flags.writeable = False
                memo["grid"] = (key, (order, starts, *E, *P))
        c = self.coeffs[order]
        S = np.concatenate([np.add.reduceat(e * c, starts, axis=1) for e in E])
        out = np.zeros((len(j), len(o)), dtype=np.complex128)  # + turns -0.0 into 0.0
        g = 0
        for p in P:
            out += S[:, g:g + len(p)] @ p
            g += len(p)
        return out / N

    def synthesize(self) -> np.ndarray:
        """Full time-domain vector: one inverse FFT of the spectrum on Z_N."""
        F = np.zeros(self.N, dtype=np.complex128)
        F[self._l] = self.coeffs
        return np.fft.ifft(F)


def _index_array(obj) -> np.ndarray:
    if isinstance(obj, SupportSet):
        return obj.as_array()
    arr = np.asarray(obj, dtype=np.int64)
    if arr.ndim != 1:
        raise InvalidInputError("index list must be 1-D")
    return arr


def submatrix_apply(rows, cols, x, N: int, counter: OpCounter | None = None) -> np.ndarray:
    """F(rows, cols) @ x with the forward kernel e^{-2 pi i r c / N}.

    The O(|rows| * |cols|) oracle against which the fast transforms are
    validated.
    """
    r = _index_array(rows)
    c = _index_array(cols)
    x = _as_vec(x)
    if x.size != c.size:
        raise InvalidInputError(f"|x|={x.size} does not match |cols|={c.size}")
    if (r < 0).any() or (r >= N).any() or (c < 0).any() or (c >= N).any():
        raise InvalidInputError("indices must lie in [0, N)")
    out = _kernel_apply(r, c, x, N)
    if counter is not None:
        counter.mul(r.size * c.size)
        counter.add(r.size * max(c.size - 1, 0))
    return out


def rel_error(got, want, floor: float = 1e-30) -> float:
    """Max entrywise relative error with a tiny absolute floor."""
    got = np.asarray(got, dtype=np.complex128)
    want = np.asarray(want, dtype=np.complex128)
    scale = np.maximum(np.abs(want), floor)
    return float(np.max(np.abs(got - want) / scale)) if got.size else 0.0
