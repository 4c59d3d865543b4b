"""The per-support plan cache of sas_transform: a warm call (the plan found
on the SupportSet) returns the bytes of a cold one, requests are keyed by
what the plan reads, failures store nothing, and cached arrays are
read-only and never pickled.  The same holds for the phases that a plan's
BandlimitedSignal grid read (the butterfly run backwards) keeps on the
support, one entry per plan.  Plans that decode by their cached inverses
are checked against the sweep they replace, and sweep plans' calls carry
the probe check."""

import math
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
    build_tree,
    draw_coefficients,
    hidft,
    hidft_oracle,
    sas,
    sas_transform,
    select_pivots,
    submatrix_method,
)
from structfft.hidft import _butterfly_pass, _read_grid
from structfft.sas import RESIDUAL_FLOOR, _bp_apply, _bp_factors, _leja_orders, product_error_bound

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
        (out.probe_error, out.flagged),
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
        assert not cold.plan_reused and cold.plan.decode == "matrix"
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
    ({"tolerance": math.nan}, InvalidInputError),
    ({"tolerance": 0.0}, InvalidInputError),
], ids=[0, 4, 5, 6, 7, 8])
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


def test_warm_call_without_r_finds_its_plan_in_one_lookup(monkeypatch):
    fam = STRUCT[2].build()
    J = fam.support
    x = dense(J, draw_coefficients(len(J), np.random.default_rng(1), nonzero=True))
    cold, cold_ctr = run(x, J)
    assert not cold.plan_reused
    assert J._memo[("plan", None)] is J._memo[("plan", cold.plan.pivots)]

    def unexpected(*args):
        raise AssertionError("a warm call without r chose or validated its pivots again")

    monkeypatch.setattr(sas, "select_pivots", unexpected)
    monkeypatch.setattr(sas, "validate_pivot_vector", unexpected)
    for _ in range(2):
        warm, warm_ctr = run(x, J)
        assert warm.plan_reused
        assert fingerprint(warm, warm_ctr) == fingerprint(cold, cold_ctr)
    monkeypatch.undo()
    # a plan prepared under its explicit pivots is found by a first call without r
    K = fresh(J)
    first = run(x, K, r=cold.plan.pivots)[0]
    assert not first.plan_reused
    out, ctr = run(x, K)
    assert out.plan_reused and fingerprint(out, ctr) == fingerprint(cold, cold_ctr)
    assert K._memo[("plan", None)] is K._memo[("plan", cold.plan.pivots)]


# read-only, pickling, reuse -------------------------------------------------------------


def step_arrays(steps):
    """Every array of a butterfly plan's steps: twiddles, run tables, F and
    their conjugates."""
    return [a for *_, arrays in steps if arrays is not None for a in arrays]


def test_cached_and_returned_arrays_are_read_only():
    fam = STRUCT[5].build()
    J = fam.support
    # the least-cost plan decodes by its inverses K, r = () by the sweep's factors and V
    for r, decode in ((None, "matrix"), ((), "sweep")):
        out = sas_transform(dense(J, np.ones(len(J))), J, r=r, policy=fam.meta["policy"],
                            family_meta=fam.meta)
        assert out.plan_reused is False and out.plan.decode == decode
        returned = [out.nodes.residues, out.nodes.bounds, out.nodes.members, out.nodes.amplification,
                    J.as_array()]
        prepared = J._memo[("plan", out.plan.pivots)]
        cached = [v for v in vars(prepared).values() if isinstance(v, np.ndarray)]
        assert len(cached) == 9
        cached += step_arrays(prepared.butterfly.steps)
        if decode == "matrix":
            assert prepared.factors is None and prepared.V is None and prepared.K.ndim == 3
        else:
            f = prepared.factors
            assert prepared.K is None
            cached += [f.perm, f.sizes, f.xr, f.xi, f.gather, f.pad]
            cached += [a for step in f.steps for a in step]
        for a in returned + cached:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.reshape(-1)[:1] = 0
        # per-call state stays the caller's
        out.coeffs[0] = 0
        out.nodes.residual[0] = 0
    # a plan with a fused group, a pre-twiddled run and radix-2 steps
    piv = [0, 2, 4, 6, 7, 8, 9, 10, 11, 13, 15]
    J = FamilySpec("homogeneous", {"pivots": piv, "M": 16}, 1).build().support
    out = sas_transform(dense(J, np.ones(len(J))), J)
    steps = J._memo[("plan", out.plan.pivots)].butterfly.steps
    assert [step[:3] for step in steps] == [("fused", 0, 3), ("fft_runs", 3, 6), ("radix2", 9, 1),
                                            ("radix2", 10, 1)]
    arrays = step_arrays(steps)
    assert len(arrays) == 8  # F, the run's table, two twiddles and the conjugate of each
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.reshape(-1)[:1] = 0


def test_a_cold_plan_sorts_its_decode_level_once():
    # the tree caches each level's sort, read-only, and the plan's nodes are
    # those arrays, not a second sort's copies
    J = FamilySpec("uoe", {"a_n": 7, "etas": [0, 0, 0, 0, 0, 1, 1, 1], "M": 12}, 3).build().support
    res = sas_transform(dense(J, np.ones(len(J))), J)
    assert res.plan_reused is False and res.plan.mu_star > 1
    r = res.plan.pivots  # one entry per plan, none for a rejected prefix
    assert set(J._memo) == {"tree", ("plan", None), ("plan", r), ("butterfly", r)}
    tree = J._memo["tree"]
    arrays = tree.level_arrays(res.plan.decode_level)
    assert tree.level_arrays(res.plan.decode_level) is arrays
    assert res.nodes.residues is arrays[0] and res.nodes.bounds is arrays[1]
    assert res.nodes.members is arrays[2]
    assert not any(a.flags.writeable for a in arrays)


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


# synthesized grids of BandlimitedSignal ---------------------------------------------------


def grid_request(spec):
    """A workload support, its metadata, coefficients and least-cost pivots."""
    fam = spec.build()
    c = draw_coefficients(len(fam.support), np.random.default_rng(spec.seed), nonzero=True)
    return fam.support, fam.meta, c, select_pivots(fam.support)


def read(sig, J, r, cache=True):
    """The grid one sas_transform call on J with pivots r reads from sig
    (with cache=False, as a read that keeps nothing on J forms it)."""
    p = sas._prepared(J, r)[0]
    return _read_grid(sig, J, p.butterfly, p.take, p.shifts, p.locations, ("phases", r) if cache else None)


def synthesis(sig, J, r):
    """sample_block at the locations of `read`: the oracle."""
    p = sas._prepared(J, r)[0]
    return sig.sample_block(p.locations).reshape(len(p.shifts), -1)


def phase_entries(J):
    return {key: value for key, value in J._memo.items() if key[0] == "phases"}


class TestGridTables:
    @pytest.mark.parametrize("spec", STRUCT, ids=lambda s: f"{s.kind}-{s.seed}")
    def test_cold_warm_and_fresh_support_grids_are_byte_equal(self, spec):
        J, meta, c, r = grid_request(spec)
        sig = BandlimitedSignal(J, c)
        cold = read(sig, J, r)
        [(key, entry)] = phase_entries(J).items()
        assert key == ("phases", r)
        warm = read(sig, J, r)
        assert J._memo[key] is entry  # found, not rebuilt
        K = fresh(J)
        other = read(BandlimitedSignal(K, c), K, r)
        for got in (warm, other, read(sig, J, r, cache=False)):
            assert got.tobytes() == cold.tobytes()
        want = synthesis(sig, J, r)
        assert np.max(np.abs(cold - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("spec", STRUCT, ids=lambda s: f"{s.kind}-{s.seed}")
    def test_sas_transform_is_byte_equal_with_grid_cold_or_warm(self, spec):
        J, meta, c, r = grid_request(spec)
        request = {"policy": meta["policy"], "family_meta": meta}
        want = fingerprint(*run(BandlimitedSignal(J, c), J, **request))
        for drop_phases in (False, True, False):  # warm, plan warm and phases cold, warm
            if drop_phases:
                del J._memo[("phases", r)]
            assert fingerprint(*run(BandlimitedSignal(J, c), J, **request)) == want
        K = fresh(J)
        assert fingerprint(*run(BandlimitedSignal(K, c), K, **request))[:2] == want[:2]
        # a signal on an equal support reads through J's entry
        assert fingerprint(*run(BandlimitedSignal(K, c), J, **request)) == want

    def test_signals_on_one_support_share_one_entry(self):
        J, _, c, r = grid_request(STRUCT[2])
        one, two = BandlimitedSignal(J, c), BandlimitedSignal(J, c[::-1] * 1j)
        a = read(one, J, r)
        [entry] = phase_entries(J).values()
        b = read(two, J, r)
        assert phase_entries(J) == {("phases", r): entry}
        assert np.max(np.abs(a - b)) > 0.1 * np.max(np.abs(a))  # two distinct grids
        for sig, got in ((one, a), (two, b)):
            want = synthesis(sig, J, r)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_coefficients_edited_in_place_show_in_the_next_grid(self):
        J, meta, c, r = grid_request(STRUCT[0])
        sig = BandlimitedSignal(J, c)
        read(sig, J, r)
        sig.coeffs[::3] *= -2.5j
        K = fresh(J)
        assert read(sig, J, r).tobytes() == read(BandlimitedSignal(K, sig.coeffs), K, r).tobytes()
        out = sas_transform(sig, J, policy=meta["policy"], family_meta=meta)
        assert np.max(np.abs(out.coeffs - sig.coeffs) / np.abs(sig.coeffs)) <= TOLERANCE

    def test_signal_on_an_equal_support_reads_the_cached_phases(self, monkeypatch):
        # a signal on J itself holds J's index array, so the read skips the
        # comparison; one on an equal but distinct support is compared, and
        # both read J's phases, with the same bytes
        J, meta, c, r = grid_request(STRUCT[2])
        want = sas_transform(BandlimitedSignal(fresh(J), c), fresh(J))
        sig = BandlimitedSignal(J, c)
        cold = sas_transform(sig, J)
        [(key, entry)] = phase_entries(J).items()
        compared = []
        real = np.array_equal
        monkeypatch.setattr(np, "array_equal", lambda *a, **k: compared.append(1) or real(*a, **k))
        same = sas_transform(sig, J)
        assert compared == []
        other = sas_transform(BandlimitedSignal(fresh(J), c), J)
        assert compared == [1]
        assert list(phase_entries(J)) == [key] and J._memo[key] is entry
        for out in (cold, same, other):
            assert out.coeffs.tobytes() == want.coeffs.tobytes()
            assert out.nodes.residual.tobytes() == want.nodes.residual.tobytes()

    def test_hidft_at_many_shifts_keeps_one_entry(self):
        # hidft keeps its butterfly plan and node order, and no phases: a read at
        # 20 shifts adds no entry after the first
        J, _, c, r = grid_request(STRUCT[2])
        sig = BandlimitedSignal(J, c)
        keys = []
        for shift in range(0, 20 * 7, 7):
            out = hidft(sig, J, r, shift=shift)
            assert out.node_values.tobytes() == hidft(BandlimitedSignal(fresh(J), c), J, r,
                                                     shift=shift).node_values.tobytes()
            want = hidft_oracle(sig, J, r, shift=shift).node_values
            assert np.max(np.abs(out.node_values - want)) <= 1e-12 * np.max(np.abs(want))
            keys.append(set(J._memo))
        assert all(k == keys[0] for k in keys) and not phase_entries(J)

    def test_tables_are_read_only_and_inputs_untouched(self):
        J, _, c, r = grid_request(STRUCT[4])
        sig = BandlimitedSignal(J, c)
        before = sig.coeffs.tobytes()
        read(sig, J, r)
        read(sig, J, r)
        assert sig.coeffs.tobytes() == before and sig.coeffs.flags.writeable
        [tables] = phase_entries(J).values()
        assert len(tables) == 2
        for a in tables:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.reshape(-1)[:1] = 0

    def test_submatrix_plan_stores_no_phases(self):
        # r = (): one node of all of J, whose node sums are the samples; its k x k
        # phases would take 67 MB at k = 2048, so the read goes to sample_block
        N, k = 1 << 12, 2048
        J = SupportSet.make(N, np.random.default_rng(1).choice(N, size=k, replace=False).tolist())
        sig = BandlimitedSignal(J, draw_coefficients(k, np.random.default_rng(2), nonzero=True))
        got = read(sig, J, ())
        assert got.shape == (sas._prepared(J, ())[0].plan.mu_star, 1) and not phase_entries(J)
        assert got.tobytes() == synthesis(sig, J, ()).tobytes()


# the matrix decode -------------------------------------------------------------------

# the random supports whose leaks TestMismatch plants (test_sas.py)
LEAKY = [FamilySpec("random_subset", {"k": 256, "M": 14}, seed) for seed in range(4)]
# the pinned miss below, with the paper's pivot count
PINNED = (FamilySpec("random_subset", {"k": 1024, "M": 18}, 5), tuple(range(6)))
# the k = 60 support of submatrix_method's tests, as one node of weight 60
K60 = (FamilySpec("random_subset", {"k": 64, "M": 12}, 0), ())
LARGE = [FamilySpec("random_subset", {"k": 2048, "M": 20}, seed) for seed in range(6)]


def random_supports(count, seed):
    g = np.random.default_rng(seed)
    for _ in range(count):
        M = int(g.integers(8, 17))
        k = int(g.integers(10, min(1 << M, 400)))
        yield SupportSet.make(1 << M, g.choice(1 << M, size=k, replace=False).tolist())


def node_system(J, p):
    """The plan's Vandermonde nodes e^{-2 pi i d l / N}, (B, mu*) padded with
    0, and the node weights."""
    sizes = np.diff(p.bounds)
    own = np.arange(p.plan.mu_star) < sizes[:, None]
    x = np.zeros(own.shape, dtype=np.complex128)
    x[own] = np.exp(-2j * np.pi * (p.members * p.plan.stride % J.N).astype(np.float64) / J.N)
    return x, sizes


def node_rows(source, J, p):
    """The (B, mu*) right-hand sides one call decodes, times the read scale
    N / |I_r| (on the float64 view), which the call applies after the
    decode: a power of two, it changes no byte of the coefficients or the
    residuals."""
    grid = _read_grid(source, J, p.butterfly, p.take, p.shifts, p.locations, ("phases", p.plan.pivots))
    y = _butterfly_pass(p.butterfly, grid).T[p.take]
    return (y.view(np.float64) * p.scale).view(np.complex128)


def sweep(J, p, y):
    """The Leja + Bjorck-Pereyra sweep on the plan's nodes, (B, mu*)."""
    x, sizes = node_system(J, p)
    return _bp_apply(_bp_factors(x, sizes, _leja_orders(x, sizes)), y)


class TestMatrixDecode:
    @staticmethod
    def bound(plan):
        return product_error_bound(plan.mu_star, plan.cond_bound)

    @staticmethod
    def exact(plan):
        """The exact form of the bound: mu* max_b ||V_b^-1||_inf eps."""
        return plan.mu_star * plan.amplification * 2.0 ** -52

    @classmethod
    def admits(cls, plan):
        """The decode rule: mu* <= 23, and the exact form within the floor."""
        return plan.mu_star <= 23 and cls.exact(plan) <= RESIDUAL_FLOOR

    def test_gate_picks_the_decode(self):
        cases = [(spec, None, "matrix") for spec in STRUCT + [HOMOG] + LEAKY + LARGE]
        cases += [(*PINNED, "sweep"), (*K60, "sweep")]
        # the k = 2048 subsets under r = (0..7): mu* 15 to 19, admitted by neither form but on
        # seed 5, where the exact one is 9.6e-10 against a bound of 1.2e-6
        cases += [(spec, tuple(range(8)), "sweep" if spec.seed < 5 else "matrix") for spec in LARGE]
        for spec, r, decode in cases:
            J = spec.build().support
            plan = SasPlan.plan(J, select_pivots(J) if r is None else r)
            assert plan.decode == decode, (spec, r)
            assert self.admits(plan) == (decode == "matrix"), (spec, r)
            if self.bound(plan) <= RESIDUAL_FLOOR:  # every plan the bound admits decodes by matrix
                assert decode == "matrix"
        for J in random_supports(20, 3):
            p = build_tree(J, J.M).split_levels()
            for t in range(len(p) + 1):
                plan = SasPlan.plan(J, p[:t])
                assert plan.decode == ("matrix" if self.admits(plan) else "sweep"), (J, t)
                # Gautschi's bound is never below the exact form, which the rule reads alone
                assert not self.exact(plan) > self.bound(plan) * (1 + 1e-12), (J, t)
        # the bound admits no plan of mu* > 23, not even the best-spread nodes, and the rule
        # tries no other: all of Z_32 as one node, the 32nd roots of unity, has ||V^-1|| = 1
        best = [product_error_bound(mu, -math.log(mu)) for mu in (23, 24)]
        assert best[0] <= RESIDUAL_FLOOR < best[1]
        assert sas._in_reach(23) and not sas._in_reach(24)
        assert SasPlan.plan(SupportSet.make(16, range(16)), ()).decode == "matrix"
        plan = SasPlan.plan(SupportSet.make(32, range(32)), ())
        assert plan.decode == "sweep" and math.isnan(plan.amplification)

    def test_amplification_is_the_exact_inverse_norm(self):
        for spec in STRUCT + LEAKY + LARGE:
            J = spec.build().support
            p = sas._prepared(J, select_pivots(J))[0]
            x, sizes = node_system(J, p)
            amp = p.amplification
            assert amp.shape == sizes.shape and not amp.flags.writeable
            for b, m in enumerate(sizes.tolist()):
                want = np.linalg.norm(np.linalg.inv(np.vander(x[b, :m], m, increasing=True).T), np.inf)
                assert abs(amp[b] - want) <= 1e-9 * want, (spec, b)
            assert (amp[sizes == 1] == 1.0).all()
            assert p.plan.amplification == amp.max()
        # mu* > 23 builds no inverses: NaN on the heavier nodes, 1.0 on weight 1
        spec, r = PINNED
        p = sas._prepared(spec.build().support, r)[0]
        assert p.plan.mu_star == 25 and np.isnan(p.amplification).all() and math.isnan(p.plan.amplification)
        p = sas._prepared(SupportSet.make(64, [1] + list(range(0, 64, 2))), (0,))[0]
        assert p.plan.node_weights == (32, 1) and p.plan.decode == "sweep"
        assert np.isnan(p.amplification[0]) and p.amplification[1] == 1.0

    @pytest.mark.parametrize("kind", ["dense", "bandlimited"])
    @pytest.mark.parametrize("seed", [0, 2, 4, 5])
    def test_large_subsets_leave_the_sweep(self, seed, kind):
        # Gautschi's bound sends these plans to the sweep (1.0e-9 to 3.4e-9); their exact
        # form, 1.4e-11 to 8.9e-11, admits them.  The bound still decides the probe
        spec = LARGE[seed]
        J = spec.build().support
        c = draw_coefficients(len(J), np.random.default_rng(seed), nonzero=True)
        out = sas_transform(BandlimitedSignal(J, c) if kind == "bandlimited" else dense(J, c), J)
        assert out.plan.decode == "matrix" and self.bound(out.plan) > RESIDUAL_FLOOR
        assert self.exact(out.plan) <= RESIDUAL_FLOOR
        assert out.probe_error is not None and not out.flagged and not out.nodes.mismatch.any()
        assert np.max(np.abs(out.coeffs - c) / np.abs(c)) <= 1e-10

    def test_inverses_within_the_gate(self):
        supports = [spec.build().support for spec in STRUCT + LEAKY + LARGE]
        checked = 0
        for J in supports + list(random_supports(20, 3)):
            p = sas._prepared(J, select_pivots(J))[0]
            mu = p.plan.mu_star
            if p.K is None or mu == 1:
                continue
            assert p.factors is None and p.V is None and p.K.shape == (len(p.residues), 2 * mu, mu)
            x, sizes = node_system(J, p)
            own = np.arange(mu) < sizes[:, None]
            block = own[:, :, None] & own[:, None, :]
            V = x[:, None, :] ** np.arange(mu)[None, :, None]  # V[b, j, l] = x_l^j
            W, R = p.K[:, :mu] / p.scale, p.K[:, mu:]  # K holds the read scale in its W rows
            assert not W[~block].any() and not R[own].any()
            err = np.where(block, W @ V - np.eye(mu), 0)
            assert np.abs(err).sum(axis=2).max() <= self.exact(p.plan)  # 0.52 of it at most, measured
            checked += 1
        assert checked >= 20

    def test_coefficients_within_the_gate_of_the_sweep(self):
        # each decode rounds within the gate, so they differ by at most twice it (0.17 of
        # that at most, measured)
        supports = [spec.build().support for spec in STRUCT + LEAKY + LARGE]
        checked = 0
        for i, J in enumerate(supports + list(random_supports(20, 4))):
            p = sas._prepared(J, select_pivots(J))[0]
            if p.K is None or p.plan.mu_star == 1:
                continue
            c = draw_coefficients(len(J), np.random.default_rng(i), nonzero=True)
            x = dense(J, c)
            got = sas_transform(x, J).coeffs
            want = sweep(J, p, node_rows(x, J, p)).reshape(-1).take(p.coeff_index)
            assert np.max(np.abs(got - want)) <= 2 * self.exact(p.plan) * np.max(np.abs(want))
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("case", ["pinned", "submatrix"])
    def test_sweep_plans_return_the_sweep_bytes(self, case):
        spec, r = PINNED if case == "pinned" else K60
        J = spec.build().support
        c = draw_coefficients(len(J), np.random.default_rng(5), nonzero=True)
        x = dense(J, c)
        out = sas_transform(x, J, r=r)
        got = out.coeffs if case == "pinned" else submatrix_method(J, x)
        p = J._memo[("plan", r)]
        assert p.plan.decode == "sweep" and p.K is None and p.plan.mu_star == (25 if case == "pinned" else 60)
        want = sweep(J, p, node_rows(x, J, p)).reshape(-1).take(p.coeff_index)
        assert got.tobytes() == want.tobytes() == out.coeffs.tobytes()
        # probed, and only the pinned miss is flagged
        assert out.probe_error is not None and out.flagged == (case == "pinned")

    def test_sweep_plans_keep_only_the_rows_a_check_reads(self):
        # V holds the rows j >= the lightest node's weight, and none on the r = () plan;
        # residuals and flags are those of the full Vandermonde, on clean and leaky sources.
        # Under r = (0..7) the k = 2048 subsets but seed 5 plan mu* <= 23 sweeps: their nodes
        # were inverted for the amplification, and K was never completed
        cases = [PINNED, K60] + [(spec, tuple(range(8))) for spec in LARGE]
        sweeps = 0
        for spec, r in cases:
            J = spec.build().support
            r = select_pivots(J) if r is None else r
            p = sas._prepared(J, r)[0]
            if p.plan.decode != "sweep":
                continue
            sweeps += 1
            sizes = np.diff(p.bounds)
            mu = p.plan.mu_star
            assert p.V.shape == (len(sizes), mu - sizes.min(), mu)
            assert p.V.shape[1] == 0 if r == () else p.V.shape[1] > 0
            x = dense(J, draw_coefficients(len(J), np.random.default_rng(5), nonzero=True))
            off = np.setdiff1d(np.arange(64), J.as_array())[0]
            leak = 1e-3 * np.exp(2j * np.pi * off * np.arange(J.N) / J.N)
            for source in (x, x + leak):
                out = sas_transform(source, J, r=r)
                y = node_rows(source, J, p)
                c = sweep(J, p, y)
                V = np.ascontiguousarray(sas._vander_stack(node_system(J, p)[0]))  # all mu* rows
                spare = (V @ c[:, :, None])[:, :, 0] - y
                spare[np.arange(mu) < sizes[:, None]] = 0
                want = sas._row_norms(spare) / np.maximum(sas._row_norms(y), 1e-300)
                assert out.coeffs.tobytes() == c.reshape(-1).take(p.coeff_index).tobytes()
                assert out.nodes.residual.tobytes() == want.tobytes()
                assert (out.nodes.mismatch == (want > TOLERANCE)).all()
        assert sweeps == 7


# the probe check of sweep plans ----------------------------------------------------------


@pytest.mark.parametrize("kind", ["bandlimited", "dense"])
def test_large_random_subset_within_tolerance(kind):
    # the paper's pivot count, t = floor(log2 k - log2 log2 k) = 6, as an explicit r:
    # the least-cost plan decodes this case (see the test below).  The weight-25
    # node's ||V^-1||_inf is about 8.7e7 at the planned stride, so the error is
    # amplified rounding, about 2e-8 to 3e-8 on either source, and any rounding of
    # the grid can move it across 1e-8.  The spare rows do not see the miss (the
    # largest residual is about 6.5e-12); the sweep plan's probe check does
    fam = FamilySpec("random_subset", {"k": 1024, "M": 18}, 5).build()
    J = fam.support
    c = draw_coefficients(len(J), np.random.default_rng(5), nonzero=True)
    source = BandlimitedSignal(J, c) if kind == "bandlimited" else dense(J, c)
    out = sas_transform(source, J, r=tuple(range(6)))
    assert not out.nodes.mismatch.any() and out.plan.stride == 115
    assert out.plan.decode == "sweep" and out.flagged
    assert out.probe_error > TOLERANCE / sas._PROBE_MARGIN
    assert np.max(np.abs(out.coeffs - c) / np.abs(c)) <= TOLERANCE or out.flagged


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
        assert not out.plan_reused and not out.flagged
        assert np.max(np.abs(out.coeffs - c) / np.abs(c)) <= TOLERANCE
    assert min(cold) < 0.05


def test_a_rejected_candidate_costs_its_stride_and_inverses_once(monkeypatch):
    # k = 2048, M = 20, seed 4: the least-charged prefix, 8 pivots at mu* = 15 (106044 ops),
    # fails the decode rule, so 9 pivots run (106419 ops).  Each candidate's nodes are
    # inverted once, only the chosen plan completes K, and nothing of the rejected
    # prefix is kept; an explicit r of it plans its own sweep
    J = fresh(LARGE[4].build().support)
    calls = []
    for name in ("_inverses", "_inverse_stack"):
        def counted(*a, f=getattr(sas, name), name=name):
            calls.append(name)
            return f(*a)
        monkeypatch.setattr(sas, name, counted)
    c = draw_coefficients(len(J), np.random.default_rng(4), nonzero=True)
    x = dense(J, c)
    out = sas_transform(x, J)
    p = build_tree(J, J.M).split_levels()
    assert out.plan.pivots == p[:9] and out.report.total == 106419 and out.plan.decode == "matrix"
    assert calls == ["_inverses", "_inverses", "_inverse_stack"]
    assert set(J._memo) == {"tree", ("plan", None), ("plan", p[:9]), ("butterfly", p[:9]), ("probe", p[:9])}
    again = sas_transform(x, J, r=p[:8])
    assert again.report.total == 106044 and again.plan.decode == "sweep" and again.plan.mu_star == 15
    assert 15 * again.plan.amplification * 2.0 ** -52 > RESIDUAL_FLOOR  # the decode rule fails
    assert again.probe_error is not None and not again.flagged
    assert np.max(np.abs(again.coeffs - c) / np.abs(c)) <= TOLERANCE
