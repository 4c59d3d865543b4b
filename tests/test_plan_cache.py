"""The per-support plan cache of sas_transform: a warm call (the plan found
on the SupportSet) returns the bytes of a cold one, requests are keyed by
what the plan reads, failures store nothing, and cached arrays are
read-only and never pickled.  The same holds for the phase tables that
BandlimitedSignal.sample_grid keeps on its support."""

import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structfft import (
    BandlimitedSignal,
    FamilySpec,
    InvalidInputError,
    ContractViolationError,
    OpCounter,
    SasPlan,
    SupportSet,
    draw_coefficients,
    hidft,
    sas,
    sas_transform,
    select_pivots,
)
from structfft.core import _CHUNK
from structfft.sampling import pattern_offsets

TOLERANCE = 1e-8

# the structured supports of the benchmark's struct workloads, and one homogeneous one
STRUCT = [
    FamilySpec("elementary", {"r": 8, "M": 16}, 6),
    FamilySpec("elementary", {"r": 8, "M": 20}, 0),
    FamilySpec("random_subset", {"k": 256, "M": 16, "base": "hom",
                                 "base_pivots": [0, 1, 2, 3, 5, 7, 9, 11, 13, 14]}, 7),
    FamilySpec("uoh", {"base_pivots": [0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 17], "a_n": 7,
                       "etas": [0, 0, 0, 0, 0, 1, 1, 1], "M": 20}, 1),
    FamilySpec("uoe", {"a_n": 8, "etas": [0, 0, 0, 0, 0, 0, 1, 1, 2], "M": 20}, 2),
    FamilySpec("uoe", {"a_n": 7, "etas": [0, 0, 0, 0, 0, 1, 1, 1], "M": 18}, 3),
    FamilySpec("random_subset", {"k": 1024, "M": 18}, 3),
]
HOMOG = FamilySpec("homogeneous", {"pivots": [0, 2, 3, 5, 6, 8, 9, 11], "M": 14}, 4)
SPECS = STRUCT + [HOMOG]


def dense(J, c):
    F = np.zeros(J.N, dtype=np.complex128)
    F[J.as_array()] = c
    return np.fft.ifft(F)


def sources(J, c):
    x = dense(J, c)
    return {"dense": x, "bandlimited": BandlimitedSignal(J, c), "callable": lambda loc: x[loc]}


def fresh(J):
    """An equal SupportSet that shares nothing with J."""
    return SupportSet(J.N, J.indices)


def run(source, J, **request):
    counter = OpCounter()
    out = sas_transform(source, J, counter=counter, **request)
    return out, counter


def fingerprint(out, counter):
    """Every byte a caller can read off one call."""
    n = out.nodes
    arrays = (out.coeffs, n.residues, n.bounds, n.members, n.mismatch, n.residual)
    return (
        [(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
        list(out.report.as_dict().items()),
        out.plan,
        list(counter.phases.items()),
        counter.bit_ops,
    )


# warm equals cold ---------------------------------------------------------------------


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.seed}")
def test_warm_equals_cold(spec):
    fam = spec.build()
    J, meta = fam.support, fam.meta
    c = draw_coefficients(len(J), np.random.default_rng(spec.seed), nonzero=True)
    request = {"policy": meta["policy"], "family_meta": meta}
    for name, source in sources(J, c).items():
        K = fresh(J)
        cold, ctr = run(source, K, **request)
        want = fingerprint(cold, ctr)
        assert not cold.plan_reused
        for again in (K, K, fresh(J)):  # warm twice, then an equal but distinct support
            out, ctr = run(source, again, **request)
            assert out.plan_reused == (again is K), name
            assert fingerprint(out, ctr) == want, name
        assert np.max(np.abs(cold.coeffs - c) / np.abs(c)) <= TOLERANCE, name


def test_requests_on_one_support_each_match_a_cold_call():
    fam = STRUCT[3].build()  # uoh: pivots from base_pivots
    J, meta = fam.support, fam.meta
    c = draw_coefficients(len(J), np.random.default_rng(0), nonzero=True)
    x = dense(J, c)
    auto = select_pivots(fresh(J))
    plan = SasPlan.plan(fresh(J), auto)
    for policy in sas.POLICIES:  # no policy, with or without family_meta, changes the plan
        for q in ({"policy": policy}, {"policy": policy, "family_meta": meta}):
            assert run(x, fresh(J), **q)[0].plan == plan, q
    requests = [
        {"policy": "uoh", "family_meta": meta},
        {"policy": "random_subset", "family_meta": meta},
        {"policy": "uoh", "family_meta": {"base_pivots": meta["base_pivots"][:-1]}},
        {"policy": "balanced", "family_meta": {"pivots": list(auto)}},
        {"policy": "balanced", "family_meta": {"pivots": list(auto[:-1])}},
        {"policy": "auto"},
        {"policy": "uoe"},
        {"r": auto},
        {"r": np.asarray(auto[:-1])},
        {"r": ()},
    ]
    want = [fingerprint(*run(x, fresh(J), **q)) for q in requests]
    for _ in range(2):  # interleaved, each request warm on the second pass
        for q, w in zip(requests, want):
            assert fingerprint(*run(x, J, **q)) == w, q


# invalid requests ---------------------------------------------------------------------


def memo_snapshot(J):
    return {key: id(value) for key, value in J._memo.items()}


@pytest.mark.parametrize("request_, error", [
    ({"policy": "nope"}, InvalidInputError),
    ({"r": (1,)}, ContractViolationError),
    ({"r": (2, 1)}, InvalidInputError),
    ({"r": (0, 99)}, InvalidInputError),
], ids=[0, 4, 5, 6])
def test_invalid_requests_raise_every_time_and_store_nothing(request_, error):
    J = SupportSet.make(1 << 8, [0, 1, 2, 3, 64, 65, 130])  # pivots 0, 1, 6, 7
    x = dense(J, np.ones(len(J)))
    for warm in (False, True):
        if warm:
            sas_transform(x, J)
        before = memo_snapshot(J)
        for _ in range(2):
            with pytest.raises(error):
                sas_transform(x, J, **request_)
            assert memo_snapshot(J) == before
    if "r" in request_:
        with pytest.raises(error):
            SasPlan.plan(J, request_["r"])
    assert memo_snapshot(J) == before


# read-only, pickling, reuse -------------------------------------------------------------


def test_cached_and_returned_arrays_are_read_only():
    fam = STRUCT[5].build()
    J = fam.support
    out = sas_transform(dense(J, np.ones(len(J))), J, policy=fam.meta["policy"], family_meta=fam.meta)
    assert out.plan_reused is False
    returned = [out.nodes.residues, out.nodes.bounds, out.nodes.members, J.as_array()]
    [prepared] = [v for k, v in J._memo.items() if k[0] == "plan"]
    cached = [v for v in vars(prepared).values() if isinstance(v, np.ndarray)]
    assert len(cached) == 9
    f = prepared.factors
    cached += [*prepared.butterfly.twiddles, f.perm, f.sizes, f.xr, f.xi, f.gather, f.pad]
    cached += [a for step in f.steps for a in step]
    for a in returned + cached:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.reshape(-1)[:1] = 0
    # per-call state stays the caller's
    out.coeffs[0] = 0
    out.nodes.residual[0] = 0


def test_support_pickles_as_its_two_fields():
    J = FamilySpec("random_subset", {"k": 1024, "M": 12}, 0).build().support
    plain = len(pickle.dumps(fresh(J)))
    x = dense(J, np.ones(len(J)))
    out = sas_transform(x, J)
    assert J._memo  # the plan is cached
    blob = pickle.dumps(J)
    assert len(blob) == plain
    K = pickle.loads(blob)
    assert K == J and "_memo" not in vars(K) and "_array" not in vars(K)
    assert not K.as_array().flags.writeable
    with pytest.raises(ValueError):
        K.as_array()[0] = 1
    back = pickle.loads(pickle.dumps(out))
    assert not back.support.as_array().flags.writeable
    assert back.coeffs.tobytes() == out.coeffs.tobytes()
    again = sas_transform(x, back.support)
    assert not again.plan_reused and again.coeffs.tobytes() == out.coeffs.tobytes()


def test_pivot_choice_and_plan_reuse_one_tree(monkeypatch):
    built = []
    real = sas.build_tree
    monkeypatch.setattr(sas, "build_tree", lambda *a, **k: built.append(a) or real(*a, **k))
    fam = STRUCT[4].build()
    J, meta = fam.support, fam.meta
    x = dense(J, np.ones(len(J)))
    r = select_pivots(J)
    plan = SasPlan.plan(J, r)
    out = sas_transform(x, J, r=r)
    assert out.plan_reused and out.plan is plan
    assert sas_transform(x, J, policy=meta["policy"], family_meta=meta).plan_reused
    assert select_pivots(J) == sas_transform(x, J).plan.pivots
    assert len(built) == 1


def test_plan_charges_tree_bitops_every_call():
    fam = STRUCT[0].build()
    J, meta = fam.support, fam.meta
    request = {"policy": meta["policy"], "family_meta": meta}
    counts = []
    for _ in range(2):  # cold, then warm
        ctr = OpCounter()
        SasPlan.plan(J, select_pivots(J), ctr)
        counts.append(ctr.bit_ops)
    ctr = OpCounter()
    sas_transform(dense(J, np.ones(len(J))), J, counter=ctr, **request)
    assert counts == [ctr.bit_ops] * 2 and ctr.bit_ops > 0


# warm and cold against numpy.fft ------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(M=st.integers(2, 11), data=st.data())
def test_warm_and_cold_agree_with_numpy_fft(M, data):
    N = 1 << M
    idx = data.draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=min(N, 48), unique=True))
    seed = data.draw(st.integers(0, 2**32 - 1))
    J = SupportSet.make(N, idx)
    c = draw_coefficients(len(J), np.random.default_rng(seed), nonzero=True)
    x = dense(J, c)
    want = np.fft.fft(x)[J.as_array()]
    cold = sas_transform(x, J)
    warm = sas_transform(x, J)
    assert warm.plan_reused and not cold.plan_reused
    assert warm.coeffs.tobytes() == cold.coeffs.tobytes()
    assert np.max(np.abs(cold.coeffs - want) / np.abs(want)) <= TOLERANCE


# grid tables of BandlimitedSignal -------------------------------------------------------


def grid_request(spec):
    """A workload support, coefficients, and the offsets and shifts its plan reads."""
    fam = spec.build()
    J, meta = fam.support, fam.meta
    c = draw_coefficients(len(J), np.random.default_rng(spec.seed), nonzero=True)
    plan = SasPlan.plan(fresh(J), select_pivots(fresh(J)))
    shifts = np.arange(plan.mu_star) * plan.stride
    return J, meta, c, pattern_offsets(plan.pivots, J.M), shifts


def grid_entry(J):
    return [value for key, value in J._memo.items() if key == "grid"]


class TestGridTables:
    @pytest.mark.parametrize("spec", STRUCT, ids=lambda s: f"{s.kind}-{s.seed}")
    def test_cold_warm_and_fresh_support_grids_are_byte_equal(self, spec):
        J, meta, c, o, shifts = grid_request(spec)
        sig = BandlimitedSignal(J, c)
        cold = sig.sample_grid(o, shifts)
        [entry] = grid_entry(J)
        warm = sig.sample_grid(o, shifts)
        assert grid_entry(J) == [entry] and J._memo["grid"] is entry  # found, not rebuilt
        other = BandlimitedSignal(fresh(J), c).sample_grid(o, shifts)
        for got in (warm, other):
            assert got.tobytes() == cold.tobytes()
        want = sig.sample_block((o[None, :] - shifts[:, None]).reshape(-1)).reshape(cold.shape)
        assert np.max(np.abs(cold - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("spec", STRUCT, ids=lambda s: f"{s.kind}-{s.seed}")
    def test_sas_transform_is_byte_equal_with_grid_cold_or_warm(self, spec):
        J, meta, c, _, _ = grid_request(spec)
        request = {"policy": meta["policy"], "family_meta": meta}
        want = fingerprint(*run(BandlimitedSignal(J, c), J, **request))
        for drop_grid in (False, True, False):  # warm, plan warm and grid cold, warm
            if drop_grid:
                del J._memo["grid"]
            assert fingerprint(*run(BandlimitedSignal(J, c), J, **request)) == want
        K = fresh(J)
        assert fingerprint(*run(BandlimitedSignal(K, c), K, **request))[:2] == want[:2]

    def test_signals_on_one_support_share_one_entry(self):
        J, _, c, o, shifts = grid_request(STRUCT[2])
        one, two = BandlimitedSignal(J, c), BandlimitedSignal(J, c[::-1] * 1j)
        a = one.sample_grid(o, shifts)
        [entry] = grid_entry(J)
        b = two.sample_grid(o, shifts)
        assert J._memo["grid"] is entry
        assert np.max(np.abs(a - b)) > 0.1 * np.max(np.abs(a))  # two distinct grids
        for sig, got in ((one, a), (two, b)):
            want = sig.sample_block((o[None, :] - shifts[:, None]).reshape(-1)).reshape(got.shape)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert fresh_grid(two, o, shifts).tobytes() == b.tobytes()

    def test_coefficients_edited_in_place_show_in_the_next_grid(self):
        J, meta, c, o, shifts = grid_request(STRUCT[0])
        sig = BandlimitedSignal(J, c)
        sig.sample_grid(o, shifts)
        sig.coeffs[::3] *= -2.5j
        assert sig.sample_grid(o, shifts).tobytes() == fresh_grid(sig, o, shifts).tobytes()
        out = sas_transform(sig, J, policy=meta["policy"], family_meta=meta)
        assert np.max(np.abs(out.coeffs - sig.coeffs) / np.abs(sig.coeffs)) <= TOLERANCE

    def test_hidft_at_many_shifts_keeps_one_entry(self):
        J, _, c, _, _ = grid_request(STRUCT[2])
        sig = BandlimitedSignal(J, c)
        r = select_pivots(J)
        sizes = set()
        for shift in range(0, 20 * 7, 7):
            out = hidft(sig, J, r, shift=shift)
            assert out.node_values.tobytes() == hidft(BandlimitedSignal(fresh(J), c), J, r,
                                                     shift=shift).node_values.tobytes()
            sizes.add(len(J._memo))
        assert len(grid_entry(J)) == 1 and len(sizes) == 1

    def test_tables_are_read_only_and_inputs_untouched(self):
        J, _, c, o, shifts = grid_request(STRUCT[4])
        sig = BandlimitedSignal(J, c)
        before = (sig.coeffs.tobytes(), o.tobytes(), shifts.tobytes())
        sig.sample_grid(o, shifts)
        sig.sample_grid(o, shifts)
        assert (sig.coeffs.tobytes(), o.tobytes(), shifts.tobytes()) == before
        assert sig.coeffs.flags.writeable and o.flags.writeable
        [(key, tables)] = grid_entry(J)
        assert len(tables) == 4
        for a in tables:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.reshape(-1)[:1] = 0

    def test_request_over_chunk_stores_nothing(self):
        N, k = 1 << 12, 2048
        J = SupportSet.make(N, np.random.default_rng(1).choice(N, size=k, replace=False).tolist())
        c = draw_coefficients(k, np.random.default_rng(2), nonzero=True)
        sig = BandlimitedSignal(J, c)
        o, shifts = np.arange(2048), np.arange(3)
        assert k * len(o) > _CHUNK  # singleton groups: P would be k x 2048
        got = sig.sample_grid(o, shifts)
        assert "grid" not in J._memo
        want = sig.sample_block((o[None, :] - shifts[:, None]).reshape(-1)).reshape(got.shape)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert sig.sample_grid(o, shifts).tobytes() == got.tobytes()
        assert "grid" not in J._memo


def fresh_grid(sig, o, shifts):
    """sig's grid from tables built on an equal support with nothing cached."""
    return BandlimitedSignal(fresh(sig.support), sig.coeffs).sample_grid(o, shifts)


# open fault, pinned ------------------------------------------------------------------


@pytest.mark.xfail(strict=True, reason="large random subsets miss 1e-8 at the planned "
                   "stride (d = 115) with nothing flagged; see FOUND in CHANGES.md")
@pytest.mark.parametrize("kind", ["bandlimited", "dense"])
def test_large_random_subset_within_tolerance(kind):
    # the paper's pivot count, t = floor(log2 k - log2 log2 k) = 6, as an explicit r:
    # the least-cost plan decodes this case (see the test below).  The spare-row
    # check does not see this miss: its largest residual is 7.9e-12
    fam = FamilySpec("random_subset", {"k": 1024, "M": 18}, 5).build()
    J = fam.support
    c = draw_coefficients(len(J), np.random.default_rng(5), nonzero=True)
    source = BandlimitedSignal(J, c) if kind == "bandlimited" else dense(J, c)
    out = sas_transform(source, J, r=tuple(range(6)))
    assert not out.nodes.mismatch.any() and out.plan.stride == 115
    assert np.max(np.abs(out.coeffs - c) / np.abs(c)) <= TOLERANCE


@pytest.mark.parametrize("kind", ["bandlimited", "dense"])
@pytest.mark.parametrize("k, M, seed", [(1024, 18, 5)] + [(2048, 20, s) for s in range(6)])
def test_least_cost_plan_decodes_large_random_subsets(k, M, seed, kind):
    J = FamilySpec("random_subset", {"k": k, "M": M}, seed).build().support
    c = draw_coefficients(len(J), np.random.default_rng(seed), nonzero=True)
    cold = []
    for _ in range(3):  # the best of three cold calls, each on an unplanned support
        K = fresh(J)
        source = BandlimitedSignal(K, c) if kind == "bandlimited" else dense(K, c)
        start = time.perf_counter()
        out = sas_transform(source, K)
        cold.append(time.perf_counter() - start)
        assert not out.plan_reused
        assert np.max(np.abs(out.coeffs - c) / np.abs(c)) <= TOLERANCE
    assert min(cold) < 0.05
