"""What a transform reads and never writes.

The butterfly, `hidft` and `sas_transform` only read their inputs: the
sample grid, a dense source, the array a sample callback returns and a
`BandlimitedSignal`'s coefficients come back byte-identical, and a second
pass over the same grid gives the first pass's bytes.  A dense source is
indexed as given and only the samples read are converted, so a float64 or
complex64 vector gives the bytes of its complex128 copy without being
copied whole.  A NaN or infinite sample that a transform reads raises
InvalidInputError, and one it does not read leaves its bytes unchanged.
"""

import tracemalloc

import numpy as np
import pytest

from structfft import (
    BandlimitedSignal, FamilySpec, InvalidInputError, SupportSet, build_tree, gen_homogeneous, hidft, sas,
    sas_transform, submatrix_method,
)
from structfft.congruence import pivots
from structfft.hidft import _build_plan, _butterfly_entry, _butterfly_pass

rng = np.random.default_rng(4096)

SUPPORTS = [
    FamilySpec("random_subset", {"k": 40, "M": 10}, 2).build(),
    FamilySpec("uoe", {"a_n": 5, "etas": [0, 0, 0, 1, 1, 1], "M": 12}, 1).build(),
    FamilySpec("homogeneous", {"pivots": [0, 3, 4, 8], "M": 11}, 5).build(),
    FamilySpec("jstar", {"M": 9}, 0).build(),
]


def spectrum(J):
    return (0.5 + rng.random(len(J))) * np.exp(2j * np.pi * rng.random(len(J)))


def dense(J, c):
    F = np.zeros(J.N, dtype=np.complex128)
    F[J.as_array()] = c
    return np.fft.ifft(F)


class Recorder:
    """A sample callback that keeps every array it returns, with a copy."""

    def __init__(self, x):
        self.x = x
        self.returned = []

    def __call__(self, loc):
        vals = self.x[loc]
        self.returned.append((vals, vals.copy()))
        return vals

    def untouched(self):
        return all(v.tobytes() == snap.tobytes() for v, snap in self.returned)


@pytest.mark.parametrize("stages", range(5))
def test_butterfly_pass_reads_its_grid_only(stages):
    for _ in range(10):
        M = int(rng.integers(stages + 2, 13))
        used = tuple(sorted(rng.choice(M - 1, size=stages, replace=False).tolist()))
        J = FamilySpec("homogeneous", {"pivots": list(used), "M": M}, int(rng.integers(1 << 20))).build().support
        plan, _ = _build_plan(build_tree(J, J.M).level_arrays(used[-1] + 1 if used else 0)[0], used)
        rows = int(rng.integers(1, 6))
        grid = rng.standard_normal((rows, 1 << stages)) + 1j * rng.standard_normal((rows, 1 << stages))
        before = grid.copy()
        first = _butterfly_pass(plan, grid)
        second = _butterfly_pass(plan, grid)
        assert grid.tobytes() == before.tobytes()
        assert first.tobytes() == second.tobytes()
        assert np.all(np.isfinite(first))


@pytest.mark.parametrize("r, table, radix2", [
    (tuple(range(10)), False, False),           # one numpy.fft, no pre-twiddle
    (tuple(range(3, 13)), True, False),         # one pre-twiddled numpy.fft
    ((0, 2, 3, 4, 5, 6, 7, 8, 10), True, True),  # radix-2 stages on both sides of a run
], ids=["fft", "fft-table", "mixed"])
def test_butterfly_pass_allocates_a_fresh_result(r, table, radix2):
    J = gen_homogeneous(r, 14, 1)
    plan, _ = _butterfly_entry(J, r)[:2]
    assert [t is not None for kind, *_, t in plan.steps if kind == "fft_runs"] == [table]
    assert any(kind == "radix2" for kind, *_ in plan.steps) == radix2
    grid = rng.standard_normal((3, 1 << len(r))) + 1j * rng.standard_normal((3, 1 << len(r)))
    before = grid.copy()
    first = _butterfly_pass(plan, grid)  # numpy.fft caches its plan for this length
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        second = _butterfly_pass(plan, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.tobytes() == before.tobytes()
    assert first.tobytes() == second.tobytes()
    assert not np.shares_memory(first, grid) and not np.shares_memory(first, second)
    if not (table or radix2):  # only numpy.fft's result: no stage buffer
        assert peak < 1.5 * grid.nbytes, f"the pass allocated {peak} bytes at peak"


def test_warm_default_request_reuses_its_plan(monkeypatch):
    J = SUPPORTS[1].support
    x = dense(J, spectrum(J))
    cold = sas_transform(x, J)
    keys = list(J._memo)

    def unexpected(*args):
        raise AssertionError("a warm default request planned again")

    with monkeypatch.context() as m:
        m.setattr(sas, "build_tree", unexpected)
        m.setattr(sas, "_prepare", unexpected)
        warm = sas_transform(x, J)
    assert warm.plan_reused and not cold.plan_reused
    assert list(J._memo) == keys
    explicit = sas_transform(x, J, r=cold.plan.pivots)
    for out in (warm, explicit):
        assert out.plan == cold.plan and out.report == cold.report
        assert out.coeffs.tobytes() == cold.coeffs.tobytes()
        assert out.nodes.residual.tobytes() == cold.nodes.residual.tobytes()
    assert list(J._memo) == keys


@pytest.mark.parametrize("fam", SUPPORTS, ids=lambda f: f.kind)
def test_transforms_leave_their_sources_unwritten(fam):
    J = fam.support
    c = spectrum(J)
    x = dense(J, c)
    x_before = x.copy()
    signal = BandlimitedSignal(J, c)
    coeffs_before = signal.coeffs.copy()
    callback = Recorder(x)
    r = pivots(J)
    for height in range(len(r) + 1):
        for source in (x, callback, signal):
            hidft(source, J, r, height=height, shift=int(rng.integers(J.N)))
    for _ in range(2):  # cold, then warm
        outs = [sas_transform(source, J, policy=fam.meta["policy"], family_meta=fam.meta)
                for source in (x, callback, signal)]
    assert x.tobytes() == x_before.tobytes()
    assert callback.returned and callback.untouched()
    assert signal.coeffs.tobytes() == coeffs_before.tobytes()
    assert outs[0].coeffs.tobytes() == outs[1].coeffs.tobytes()
    np.testing.assert_allclose(outs[2].coeffs, c, rtol=1e-8)


def test_hidft_values_do_not_share_the_callbacks_array():
    for J in (SupportSet.make(16, [3]), SUPPORTS[0].support):
        callback = Recorder(dense(J, spectrum(J)))
        r = pivots(J)
        for height in range(len(r) + 1):
            res = hidft(callback, J, r, height=height)
            assert not np.shares_memory(res.slot_values, callback.returned[-1][0])
            assert not np.shares_memory(res.node_values, callback.returned[-1][0])


@pytest.mark.parametrize("fam", SUPPORTS, ids=lambda f: f.kind)
@pytest.mark.parametrize("dtype", [np.float64, np.complex64, np.float32, np.int64])
def test_narrow_dense_source_gives_its_complex128_bytes(fam, dtype):
    J = fam.support
    x = (rng.standard_normal(J.N) * 100).astype(dtype)
    if np.iscomplexobj(x):
        x += 1j * rng.standard_normal(J.N).astype(dtype)
    wide = x.astype(np.complex128)
    got = sas_transform(x, J, policy=fam.meta["policy"], family_meta=fam.meta)
    want = sas_transform(wide, J, policy=fam.meta["policy"], family_meta=fam.meta)
    assert got.coeffs.tobytes() == want.coeffs.tobytes()
    assert got.nodes.residual.tobytes() == want.nodes.residual.tobytes()
    r = pivots(J)
    assert hidft(x, J, r, shift=3).slot_values.tobytes() == hidft(wide, J, r, shift=3).slot_values.tobytes()


def test_dense_list_source_reads_like_its_array():
    J = SupportSet.make(64, [1, 5, 9, 22, 40, 41])
    x = dense(J, spectrum(J))
    got = sas_transform(x.tolist(), J)
    assert got.coeffs.tobytes() == sas_transform(x, J).coeffs.tobytes()


def test_warm_call_does_not_copy_a_float64_source():
    M = 20
    N = 1 << M
    J = FamilySpec("homogeneous", {"pivots": list(range(0, 20, 2)), "M": M}, 3).build().support
    x = rng.standard_normal(N)
    sas_transform(x, J)  # cold: plans and caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = sas_transform(x, J)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.plan_reused
    assert peak < N * 16, f"a warm call allocated {peak} bytes at peak"


# non-finite samples -------------------------------------------------------------

HOMOG = SUPPORTS[2].support  # plans mu* = 1
# mu* = 3 under r = ALIASED_PIVOTS, two stages fused into one product; the
# least-charged plan, r = (0,), has mu* = 4 and a single radix-2 stage
ALIASED = SupportSet.make(64, [1, 3, 9, 17, 40])
ALIASED_PIVOTS = (0, 1)
# pivots 0, 2..7, 9 and a copy of the set at N / 2: mu* = 2 under r = RUN_PIVOTS,
# whose butterfly is a radix-2 stage, a numpy.fft run and a radix-2 stage
RUN_PIVOTS = (0, 2, 3, 4, 5, 6, 7, 9)
_RUN_HALF = gen_homogeneous(RUN_PIVOTS, 11, 3)
RUN_ALIASED = SupportSet.make(2048, set(_RUN_HALF.indices) | {(j + 1024) % 2048 for j in _RUN_HALF.indices})
NONFINITE = {
    "sas-mu1": (HOMOG, lambda J, x: sas_transform(x, J).coeffs),
    "sas-mu3": (ALIASED, lambda J, x: sas_transform(x, J, r=ALIASED_PIVOTS).coeffs),
    "sas-run": (RUN_ALIASED, lambda J, x: sas_transform(x, J, r=RUN_PIVOTS).coeffs),
    "hidft": (HOMOG, lambda J, x: hidft(x, J, pivots(J)).slot_values),
    "hidft-run": (RUN_ALIASED, lambda J, x: hidft(x, J, RUN_PIVOTS).slot_values),
    "submatrix": (ALIASED, lambda J, x: submatrix_method(J, x)),  # probes included
}


def test_nonfinite_cases_plan_mu_star_1_and_3():
    assert sas.SasPlan.plan(HOMOG, sas.select_pivots(HOMOG)).mu_star == 1
    assert sas.SasPlan.plan(ALIASED, ALIASED_PIVOTS).mu_star == 3


def test_nonfinite_cases_cover_fused_run_and_radix2_stages():
    # the check reads one slot per row; every stage kind must carry a
    # non-finite sample there, fused groups by matrices of modulus-1 entries
    layouts = {J: _butterfly_entry(J, r)[0].layout
               for J, r in ((HOMOG, pivots(HOMOG)), (ALIASED, ALIASED_PIVOTS),
                            (RUN_ALIASED, RUN_PIVOTS))}
    assert layouts[HOMOG] == {"fft_runs": [], "fused": [[0, 4]], "radix2": []}
    assert layouts[ALIASED] == {"fft_runs": [], "fused": [[0, 2]], "radix2": []}
    assert layouts[RUN_ALIASED] == {"fft_runs": [[1, 6]], "fused": [], "radix2": [0, 7]}
    assert sas.SasPlan.plan(RUN_ALIASED, RUN_PIVOTS).mu_star == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the raise comes with no numpy warning
@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf), -np.inf])
@pytest.mark.parametrize("case", sorted(NONFINITE))
def test_nonfinite_sample_read_raises(case, value):
    J, run = NONFINITE[case]
    x = dense(J, spectrum(J))
    seen = []
    clean = run(J, lambda t: seen.append(t.copy()) or x[t])
    read = np.unique(np.concatenate(seen))
    for loc in read:
        bad = x.copy()
        bad[loc] = value
        with pytest.raises(InvalidInputError, match="not finite"):
            run(J, bad)
        # as a callback's answer too
        with pytest.raises(InvalidInputError, match="not finite"):
            run(J, lambda t: bad[t])
    # NaN where nothing is read: the same bytes as the clean call
    unread = np.setdiff1d(np.arange(J.N), read)
    bad = x.copy()
    bad[unread] = np.nan
    assert run(J, bad).tobytes() == clean.tobytes()
