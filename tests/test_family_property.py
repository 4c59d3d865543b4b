"""Property: on every family generator at small N, `sas_transform` agrees
with numpy.fft.fft(x)[J] on a dense source, and with the planted spectrum
on a `BandlimitedSignal` source, on the cold call and on the warm one.  The
bandlimited source runs on an equal, fresh support, so its warm call is the
one that reads both the cached plan and the cached grid tables.

The parameters span each generator's own domain at M <= 11; a draw the
generator itself refuses (an overlap condition it cannot realize) is
rejected, never a draw that `sas_transform` gets wrong.  Hypothesis runs
derandomized, so a pinned miss fails on every run.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from structfft import BandlimitedSignal, ContractViolationError, FamilySpec, SupportSet, sas_transform
from structfft.families import FAMILY_KINDS

TOLERANCE = 1e-8
M_MAX = 11


def subset(draw, M):
    return sorted(draw(st.sets(st.integers(0, M - 1), max_size=M)))


def etas(draw, a_n):
    e = draw(st.lists(st.integers(0, 3), min_size=a_n + 1, max_size=a_n + 1))
    if not any(e):
        e[draw(st.integers(0, a_n))] = 1
    return e


def params(draw, kind):
    """One draw of `kind`'s parameters at N = 2^M, M <= 11."""
    M = draw(st.integers(1, M_MAX))
    N = 1 << M
    if kind == "elementary":
        return {"r": draw(st.integers(0, M)), "M": M}
    if kind == "homogeneous":
        return {"pivots": subset(draw, M), "M": M}
    if kind == "consecutive":
        return {"a": draw(st.integers(0, N - 1)), "k": draw(st.integers(1, N)), "N": N}
    if kind == "ap":
        s = draw(st.integers(1, N - 1))
        # collision-free: k <= N / gcd(s, N)
        k = draw(st.integers(1, N >> ((s & -s).bit_length() - 1)))
        return {"a": draw(st.integers(0, N - 1)), "s": s, "k": k, "N": N}
    if kind == "gap":
        d = draw(st.integers(1, 4))
        cap = int(math.floor(2 ** (14 / d) + 1e-9))  # volume <= 2^14
        return {"a": draw(st.integers(0, N - 1)),
                "steps": draw(st.lists(st.integers(0, N - 1), min_size=d, max_size=d)),
                "lengths": draw(st.lists(st.integers(1, cap), min_size=d, max_size=d)), "N": N}
    if kind == "uoe":
        a_n = draw(st.integers(0, M))
        return {"a_n": a_n, "etas": etas(draw, a_n), "M": M}
    if kind == "uoh":
        base = subset(draw, M)
        a_n = draw(st.integers(0, len(base)))
        return {"base_pivots": base, "a_n": a_n, "etas": etas(draw, a_n), "M": M}
    if kind == "random_subset":
        if draw(st.booleans()):
            return {"k": draw(st.integers(1, N)), "M": M}
        base = subset(draw, M)
        return {"k": draw(st.integers(1, 1 << len(base))), "M": M, "base": "hom", "base_pivots": base}
    assert kind == "jstar"
    return {"M": M}


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_sas_transform_matches_numpy_fft_on_every_family(kind, data):
    spec = FamilySpec(kind, params(data.draw, kind), data.draw(st.integers(0, 2**16)))
    try:
        fam = spec.build()
    except ContractViolationError:
        reject()  # the generator could not realize its own overlap condition
    J = fam.support
    rng = np.random.default_rng(spec.seed)
    c = (0.5 + rng.random(len(J))) * np.exp(2j * np.pi * rng.random(len(J)))
    F = np.zeros(J.N, dtype=np.complex128)
    F[J.as_array()] = c
    x = np.fft.ifft(F)
    K = SupportSet(J.N, J.indices)
    runs = [("dense", x, J, np.fft.fft(x)[J.as_array()]), ("bandlimited", BandlimitedSignal(K, c), K, c)]
    for name, source, support, want in runs:
        for call in ("cold", "warm"):
            out = sas_transform(source, support, policy=fam.meta["policy"], family_meta=fam.meta)
            assert out.plan_reused == (call == "warm")
            err = float(np.max(np.abs(out.coeffs - want) / np.abs(want)))
            assert err <= TOLERANCE, f"{call} call, {name} source, on {spec.to_json()}: relative error {err:.2e}"
