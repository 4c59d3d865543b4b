"""Tests for the double-double arithmetic of `_ddc`, which perfbench still imports.

The batched solver and the blocked synthesis are checked byte for byte
against the scalar loops they replaced, kept here as oracles; the solver is
also checked against a 50-digit mpmath solve.
"""

import mpmath as mp
import numpy as np
import pytest

from structfft import _ddc
from structfft._ddc import (
    cdd_add,
    cdd_div,
    cdd_mul,
    cdd_mul_complex,
    cdd_sub,
    dd_to_float,
)

rng = np.random.default_rng(20221129)


def parts(u) -> bytes:
    """The bytes of a cdd (scalars or arrays), part by part."""
    return b"".join(np.asarray(p, dtype=np.float64).tobytes() for part in u for p in part)


def scalar_at(u, i):
    """The scalar cdd at position i of cdd arrays."""
    return ((float(u[0][0][i]), float(u[0][1][i])), (float(u[1][0][i]), float(u[1][1][i])))


def scalar_root(N, t):
    return scalar_at(_ddc.root_table(N).gather(np.asarray([t])), 0)


def scalar_solve(exponents, N, y):
    """Bjorck-Pereyra sweep on scalar cdds, one entry at a time."""
    ls = [int(l) for l in exponents]
    n = len(ls)
    x = [scalar_root(N, (-l) % N) for l in ls]
    c = list(y)
    for k in range(0, n - 1):
        for j in range(n - 1, k, -1):
            c[j] = cdd_sub(c[j], cdd_mul(x[k], c[j - 1]))
    for k in range(n - 2, -1, -1):
        for j in range(k + 1, n):
            c[j] = cdd_div(c[j], cdd_sub(x[j], x[j - k - 1]))
        for j in range(k, n - 1):
            c[j] = cdd_sub(c[j], c[j + 1])
    return np.asarray([complex(dd_to_float(v[0]), dd_to_float(v[1])) for v in c])


def scalar_synthesize(N, support, coeffs, locations):
    """dd synthesis, one support element at a time over all locations."""
    tab = _ddc.root_table(N)
    loc = np.asarray(locations, dtype=np.int64) % N
    acc = _ddc.cdd_zero(loc.shape)
    for l, c in zip(support, coeffs):
        acc = cdd_add(acc, cdd_mul_complex(tab.gather(loc * int(l)), complex(c)))
    return cdd_mul_complex(acc, complex(1.0 / N))


def random_cdd(n):
    hi = rng.normal(size=(2, n))
    lo = hi * 1e-17 * rng.normal(size=(2, n))
    return ((hi[0], lo[0]), (hi[1], lo[1]))


def clustered_exponents(m, N):
    """m exponents of one residue class mod 64, in up to four tight clusters."""
    r = int(rng.integers(64))
    starts = 8 * rng.choice(N // 512, size=4, replace=False)
    pool = sorted(int(s) + t for s in starts for t in range(8))
    picked = rng.choice(len(pool), size=m, replace=False)
    return [r + 64 * pool[i] for i in sorted(picked)]


def scalar_solves(exps, N, y):
    """scalar_solve of each system, y holding their right-hand sides in turn."""
    out, at = [], 0
    for e in exps:
        out.append(scalar_solve(e, N, [scalar_at(y, at + j) for j in range(len(e))]))
        at += len(e)
    return np.concatenate(out)


class TestSolveVandermondeDD:
    N = 1 << 16

    @pytest.mark.parametrize("sizes", [
        [2, 25] + np.random.default_rng(1).integers(2, 26, size=6).tolist(),
        [2, 25] + np.random.default_rng(2).integers(2, 26, size=6).tolist(),
        [9] * 5,
        [14],
    ])
    def test_batch_equals_scalar_sweep(self, sizes):
        exps = [clustered_exponents(m, self.N) for m in sizes]
        y = random_cdd(sum(sizes))
        got = _ddc.solve_vandermonde_dd(exps, self.N, y)
        assert got.tobytes() == scalar_solves(exps, self.N, y).tobytes()

    def test_condition_1e10_matches_mpmath(self):
        N = self.N
        ls = [5 + 64 * t for t in range(5)]
        x64 = np.exp(-2j * np.pi * np.asarray(ls) / N)
        assert 1e9 < np.linalg.cond(np.vander(x64, 5, increasing=True).T) < 1e11
        c_true = (0.5 + rng.random(5)) * np.exp(2j * np.pi * rng.random(5))
        with mp.workdps(50):
            # the system the solver sees: its dd nodes, and y rounded to dd
            x = [
                mp.mpc(mp.mpf(re[0]) + re[1], mp.mpf(im[0]) + im[1])
                for re, im in (scalar_root(N, (-l) % N) for l in ls)
            ]
            V = mp.matrix([[xm ** j for xm in x] for j in range(5)])
            y_exact = V * mp.matrix([mp.mpc(c.real, c.imag) for c in c_true])
            y = [[], [], [], []]  # re hi, re lo, im hi, im lo
            for v in y_exact:
                for d, a in enumerate((v.real, v.imag)):
                    y[2 * d].append(float(a))
                    y[2 * d + 1].append(float(a - y[2 * d][-1]))
            y_dd = mp.matrix([
                mp.mpc(mp.mpf(y[0][j]) + y[1][j], mp.mpf(y[2][j]) + y[3][j]) for j in range(5)
            ])
            ref = np.asarray([complex(v) for v in mp.lu_solve(V, y_dd)])
        y = ((np.asarray(y[0]), np.asarray(y[1])), (np.asarray(y[2]), np.asarray(y[3])))
        got = _ddc.solve_vandermonde_dd([ls], N, y)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-15


class TestSynthesizeDD:
    def test_blocks_equal_per_element_loop(self):
        N = 1 << 18
        locations = np.unique(rng.integers(0, N, size=5000))
        rows = _ddc.BLOCK // len(locations)
        for k in (rows - 3, 3 * rows + 5):  # inside one block; three and a part
            support = np.sort(rng.choice(N, size=k, replace=False))
            coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
            got = _ddc.synthesize_dd(N, support, coeffs, locations)
            want = scalar_synthesize(N, support, coeffs, locations)
            assert parts(got) == parts(want)
