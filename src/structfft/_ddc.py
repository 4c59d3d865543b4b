"""Double-double complex arithmetic for the submatrix baseline's rescue.

`submatrix_method` solves one k x k Vandermonde system in the nodes
e^{2 pi i l / N}, l in J, from the first k samples.  Once those nodes
cluster, float64 misses a 1e-8 tolerance, and the baseline re-solves the
system in ~31-digit double-double arithmetic: `synthesize_dd` gives the
samples of a `BandlimitedSignal` in dd, and `solve_vandermonde_dd` runs the
Bjorck-Pereyra sweep in dd.  This changes word size, not the algorithm,
and no operation is counted here.  `sas_transform` does not use this
module: its planned shift stride (`sas.choose_stride`) keeps its node
systems within float64 reach.

Representation: a real double-double is a pair (hi, lo) of same-shape
float64 arrays; a complex double-double (cdd) is ((re_hi, re_lo),
(im_hi, im_lo)).  Every operation is elementwise, so one call on arrays
gives, entry for entry, the bits the same call gives on scalars.  Sums over
many terms are written as loops of elementwise additions in a fixed term
order, because double-double addition is not associative.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp
import numpy as np

_SPLITTER = 134217729.0  # 2^27 + 1, Dekker splitting constant

BLOCK = 1 << 16  # entries per batched dd temporary (~0.5 MB per float64 part)


def _two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _quick_two_sum(a, b):
    s = a + b
    err = b - (s - a)
    return s, err


def _two_prod(a, b):
    p = a * b
    ta = _SPLITTER * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLITTER * b
    bhi = tb - (tb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    e = e + x[1] + y[1]
    return _quick_two_sum(s, e)


def dd_neg(x):
    return (-x[0], -x[1])


def dd_sub(x, y):
    return dd_add(x, dd_neg(y))


def dd_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    e = e + x[0] * y[1] + x[1] * y[0]
    return _quick_two_sum(p, e)


def dd_mul_f(x, f):
    p, e = _two_prod(x[0], f)
    e = e + x[1] * f
    return _quick_two_sum(p, e)


def dd_div(x, y):
    q1 = x[0] / y[0]
    r = dd_sub(x, dd_mul_f(y, q1))
    q2 = r[0] / y[0]
    r = dd_sub(r, dd_mul_f(y, q2))
    q3 = r[0] / y[0]
    s, e = _quick_two_sum(q1, q2)
    return dd_add((s, e), (q3, 0.0))


def dd_to_float(x):
    return x[0] + x[1]


# complex double-double -------------------------------------------------------


def cdd_zero(shape):
    z = np.zeros(shape)
    return ((z.copy(), z.copy()), (z.copy(), z.copy()))


def cdd_take(u, index):
    """u[index] of every part: a gather, or a view for a slice."""
    return ((u[0][0][index], u[0][1][index]), (u[1][0][index], u[1][1][index]))


def cdd_put(u, index, v):
    """u[index] = v for every part, in place."""
    for dst, src in zip((u[0][0], u[0][1], u[1][0], u[1][1]), (v[0][0], v[0][1], v[1][0], v[1][1])):
        dst[index] = src


def cdd_add(u, v):
    return (dd_add(u[0], v[0]), dd_add(u[1], v[1]))


def cdd_sub(u, v):
    return (dd_sub(u[0], v[0]), dd_sub(u[1], v[1]))


def cdd_mul(u, v):
    re = dd_sub(dd_mul(u[0], v[0]), dd_mul(u[1], v[1]))
    im = dd_add(dd_mul(u[0], v[1]), dd_mul(u[1], v[0]))
    return (re, im)


def cdd_mul_complex(u, z):
    """Multiply by exact float complex factors z (a scalar or an array broadcasting against u)."""
    a, b = np.real(z), np.imag(z)
    re = dd_sub(dd_mul_f(u[0], a), dd_mul_f(u[1], b))
    im = dd_add(dd_mul_f(u[0], b), dd_mul_f(u[1], a))
    return (re, im)


def cdd_div(u, v):
    den = dd_add(dd_mul(v[0], v[0]), dd_mul(v[1], v[1]))
    re = dd_add(dd_mul(u[0], v[0]), dd_mul(u[1], v[1]))
    im = dd_sub(dd_mul(u[1], v[0]), dd_mul(u[0], v[1]))
    return (dd_div(re, den), dd_div(im, den))


def cdd_to_complex(u):
    # parts set one by one: re + 1j * im would turn -0.0 parts into +0.0
    re = dd_to_float(u[0])
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real = re
    out.imag = dd_to_float(u[1])
    return out


class RootTable:
    """Double-double values of e^{+2 pi i t / N} for all t in [0, N), N = 2^M.

    Built once per modulus from two mpmath-seeded quarter tables (coarse and
    fine angle factors); an arbitrary root is one dd complex multiply.
    """

    def __init__(self, N: int):
        if N <= 0 or N & (N - 1):
            raise ValueError("N must be a power of two")
        self.N = N
        M = N.bit_length() - 1
        self._h = M // 2
        self._mask = (1 << self._h) - 1
        self._fine = self._mp_table(1 << self._h, N)        # e^{2 pi i s / N}
        self._coarse = self._mp_table(N >> self._h, N >> self._h)

    @staticmethod
    def _mp_table(count: int, denom: int):
        rh = np.empty(count)
        rl = np.empty(count)
        ih = np.empty(count)
        il = np.empty(count)
        with mp.workdps(50):
            for t in range(count):
                z = mp.expjpi(mp.mpf(2 * t) / denom)
                re, im = z.real, z.imag
                rh[t] = float(re)
                rl[t] = float(re - mp.mpf(rh[t]))
                ih[t] = float(im)
                il[t] = float(im - mp.mpf(ih[t]))
        return ((rh, rl), (ih, il))

    def gather(self, t):
        """cdd arrays of e^{2 pi i t / N} for an int array t (taken mod N)."""
        t = np.asarray(t, dtype=np.int64) % self.N
        return cdd_mul(cdd_take(self._coarse, t >> self._h), cdd_take(self._fine, t & self._mask))


@lru_cache(maxsize=8)
def root_table(N: int) -> RootTable:
    return RootTable(N)


def synthesize_dd(N: int, support: np.ndarray, coeffs: np.ndarray, locations: np.ndarray):
    """Samples f(loc) = (1/N) sum_l c_l e^{2 pi i loc l / N} in dd precision.

    Returns cdd arrays shaped like `locations`.  The stored float64
    coefficients are treated as exact.  The terms of a block of support
    elements (at most about BLOCK entries) are formed at once, then added to
    the sum one support element at a time, in support order.
    """
    tab = root_table(N)
    loc = np.asarray(locations, dtype=np.int64) % N
    ls = np.asarray(support, dtype=np.int64).reshape((-1,) + (1,) * loc.ndim)
    cs = np.asarray(coeffs, dtype=np.complex128).reshape(ls.shape)
    acc = cdd_zero(loc.shape)
    rows = max(1, BLOCK // max(loc.size, 1))
    for start in range(0, len(ls), rows):
        terms = cdd_mul_complex(tab.gather(loc * ls[start:start + rows]), cs[start:start + rows])
        for i in range(len(terms[0][0])):
            acc = cdd_add(acc, cdd_take(terms, i))
    return cdd_mul_complex(acc, complex(1.0 / N))


def solve_vandermonde_dd(node_exponents, N: int, rhs) -> np.ndarray:
    """Solve sum_m c_m x_m^j = y_j in dd, x_m = e^{-2 pi i l_m / N}, for a
    batch of systems of any sizes.

    `node_exponents` lists each system's l_m; `rhs` is a cdd of 1-D arrays
    holding the systems' y_0..y_{n-1} one system after another.  Returns the
    complex128 coefficients laid out the same way.

    Same Bjorck-Pereyra sweep as the float64 solver (no Leja needed at this
    precision for the sizes involved).  The systems are zero-padded to the
    largest size n and swept together, each inner loop over j done as one
    slice operation: step 1 runs j downwards and step 3 upwards, so every
    scalar update reads only values of the previous step, which is what a
    slice reads too.  A system's own entries never read padding, except in
    step 3 at its last entry, which is masked; padded divisors are 1.
    """
    sizes = np.array([len(e) for e in node_exponents], dtype=np.int64)
    n = int(sizes.max())
    col = np.arange(n)
    own = col[None, :] < sizes[:, None]
    exps = np.zeros(own.shape, dtype=np.int64)
    exps[own] = np.concatenate([np.asarray(e, dtype=np.int64) for e in node_exponents])
    x = root_table(N).gather(-exps)
    c = cdd_zero(own.shape)
    cdd_put(c, own, rhs)
    rows = slice(None)
    for k in range(0, n - 1):
        hi, lo = (rows, slice(k + 1, n)), (rows, slice(k, n - 1))
        xk = cdd_take(x, (rows, slice(k, k + 1)))
        cdd_put(c, hi, cdd_sub(cdd_take(c, hi), cdd_mul(xk, cdd_take(c, lo))))
    for k in range(n - 2, -1, -1):
        hi, lo = (rows, slice(k + 1, n)), (rows, slice(k, n - 1))
        div = cdd_sub(cdd_take(x, hi), cdd_take(x, (rows, slice(0, n - k - 1))))
        cdd_put(div, col[None, k + 1:] >= sizes[:, None], ((1.0, 0.0), (0.0, 0.0)))
        cdd_put(c, hi, cdd_div(cdd_take(c, hi), div))
        diff = cdd_sub(cdd_take(c, lo), cdd_take(c, hi))
        mine = col[None, k:n - 1] < sizes[:, None] - 1  # a system's step 3 ends at its n - 2
        cdd_put(cdd_take(c, lo), mine, cdd_take(diff, mine))
    return cdd_to_complex(cdd_take(c, own))
