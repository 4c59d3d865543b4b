"""The planned shift stride: its search, and float64-only decodes that it
keeps within tolerance where consecutive shifts needed double-double."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structfft import families, sas
from structfft import (
    BandlimitedSignal,
    FamilySpec,
    InvalidInputError,
    SupportSet,
    cli,
    gen_homogeneous,
    sas_transform,
)
from structfft.congruence import build_tree
from structfft.core import mod_product
from structfft.sas import SasPlan, choose_stride, select_pivots, stride_candidates

TOLERANCE = 1e-8

# the structured supports of the benchmark's struct workloads
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


def spectrum(k, seed):
    g = np.random.default_rng(seed)
    return (0.5 + g.random(k)) * np.exp(2j * np.pi * g.random(k))


def dense(J, c):
    F = np.zeros(J.N, dtype=np.complex128)
    F[J.as_array()] = c
    return np.fft.ifft(F)


def decode(spec, source, r=None):
    return sas_transform(source, spec.build().support, r=r)


def worst_error(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


# the search against a brute-force score --------------------------------------------


def brute_force_scores(J, level, candidates):
    """score(d) of every candidate, summed row by row of every aliased node in Python."""
    groups = {}
    for l in J.indices:
        groups.setdefault(l % (1 << level), []).append(l)
    scores = []
    for d in candidates.tolist():
        worst = -math.inf
        for members in groups.values():
            if len(members) == 1:
                continue
            for i in members:
                total = 0.0
                for j in members:
                    if j != i:
                        gap = abs(2 * math.sin(math.pi * (d * (j - i) % J.N) / J.N))
                        total += math.inf if gap == 0 else -math.log(gap)
                worst = max(worst, total)
        scores.append(worst)
    return np.asarray(scores)


def random_support(rng, M_lo=4, M_hi=13, k_hi=80):
    M = int(rng.integers(M_lo, M_hi))
    k = int(rng.integers(2, min(1 << M, k_hi) + 1))
    return SupportSet.make(1 << M, rng.choice(1 << M, size=k, replace=False).tolist())


def test_candidates():
    assert stride_candidates(2).tolist() == [1]
    assert stride_candidates(16).tolist() == [1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 15]
    got = stride_candidates(1 << 12)
    assert got.tolist() == sorted(set(range(1, 256, 2)) | {1 << t for t in range(1, 12)})


def test_search_equals_brute_force():
    rng = np.random.default_rng(20261018)
    for _ in range(40):
        J = random_support(rng)
        plan = SasPlan.plan(J, select_pivots(J))
        if plan.mu_star == 1:
            continue
        cands = stride_candidates(J.N)
        want = brute_force_scores(J, plan.decode_level, cands)
        best = float(want.min())
        assert plan.cond_bound == pytest.approx(best, rel=1e-12, abs=1e-12)
        near = cands[want <= best + 1e-9 * max(1.0, abs(best))]
        assert plan.stride in near.tolist()


@pytest.mark.parametrize("piece, batch", [(1, 1), (7, 3), (1 << 20, 1 << 12)])
def test_search_does_not_depend_on_pruning(piece, batch, monkeypatch):
    # one piece and a batch of 4096 score every candidate in full: the unpruned argmin
    plans = []
    for spec in STRUCT[2:]:
        J = spec.build().support
        plans.append(SasPlan.plan(J, select_pivots(J)))
    monkeypatch.setattr(sas, "_STRIDE_PIECE", piece)
    monkeypatch.setattr(sas, "_STRIDE_BATCH", batch)
    for spec, plan in zip(STRUCT[2:], plans):
        again = SasPlan.plan(spec.build().support, plan.pivots)
        assert (again.stride, again.cond_bound) == (plan.stride, plan.cond_bound)


# properties -------------------------------------------------------------------------


supports = st.integers(min_value=3, max_value=12).flatmap(
    lambda M: st.lists(st.integers(0, (1 << M) - 1), min_size=2, max_size=60, unique=True)
    .map(lambda idx: SupportSet.make(1 << M, idx))
)


@settings(max_examples=60, deadline=None)
@given(supports, st.integers(min_value=0, max_value=2**40))
def test_stride_properties(J, a):
    tree = build_tree(J, J.M)
    plan = SasPlan.plan(J, select_pivots(J))
    _, bounds, members = tree.level_arrays(plan.decode_level)
    if plan.mu_star == 1:
        assert (plan.stride, plan.cond_bound) == (1, 0.0)
    else:
        assert plan.stride in stride_candidates(J.N).tolist()
        assert math.isfinite(plan.cond_bound)
    # every node's d l stays distinct mod N
    for b0, b1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        node = members[b0:b1] * plan.stride % J.N
        assert len(np.unique(node)) == len(node)
    # a translate of J gets the same stride and the same score bits
    K = SupportSet.make(J.N, ((J.as_array() + a) % J.N).tolist())
    moved = SasPlan.plan(K, plan.pivots)
    assert (moved.stride, moved.cond_bound) == (plan.stride, plan.cond_bound)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=14), st.data())
def test_homogeneous_supports_keep_stride_one(M, data):
    pivs = sorted(data.draw(st.sets(st.integers(0, M - 1), min_size=1, max_size=min(M, 8))))
    J = gen_homogeneous(tuple(pivs), M, data.draw(st.integers(0, 2**31 - 1)))
    out = sas_transform(dense(J, spectrum(len(J), 0)), J)
    assert out.plan.mu_star == 1
    assert (out.plan.stride, out.plan.cond_bound) == (1, 0.0)


def test_choose_stride_single_pair():
    # {0, N/4} in one node: d = 2 sends them to antipodes (gap 2), odd d
    # leave a quarter turn (gap sqrt 2), d = 4 makes them coincide
    d, score = choose_stride(np.array([0, 16]), np.array([0, 2]), 64)
    assert (d, score) == (2, -math.log(2.0))


# float64-only decodes -----------------------------------------------------------------


# the paper's pivot counts, t = floor(log2 k - log2 log2 k), where the least-cost
# plan has mu* = 1 or stride 1
PAPER_R = {"elementary-6": (0, 1, 2, 3, 4), "elementary-0": (0, 1, 2, 3, 4),
           "random_subset-3": (0, 1, 2, 3, 4, 5)}


@pytest.mark.parametrize("spec", STRUCT, ids=lambda s: f"{s.kind}-{s.seed}")
def test_struct_supports_decode_without_dd(spec):
    J = spec.build().support
    c = spectrum(len(J), 1)
    for source in (dense(J, c), BandlimitedSignal(J, c)):
        out = decode(spec, source, PAPER_R.get(f"{spec.kind}-{spec.seed}"))
        assert out.plan.mu_star > 1 and out.plan.stride > 1
        assert not out.nodes.mismatch.any()
        assert worst_error(out.coeffs, c) <= TOLERANCE


def test_sas_does_not_reach_double_double():
    assert not hasattr(sas, "_ddc")


@pytest.mark.parametrize("seed", range(4))
def test_dense_source_meets_tolerance(seed):
    # consecutive shifts left these nodes at condition 8e9, with errors of
    # 4.9e-7 to 1.1e-6 even after a double-double re-solve of the samples
    spec = STRUCT[5]
    J = spec.build().support
    c = spectrum(len(J), seed)
    out = decode(spec, dense(J, c))
    assert worst_error(out.coeffs, c) <= TOLERANCE


@pytest.mark.parametrize("spec", [
    FamilySpec("random_subset", {"k": 256, "M": 14}, 3),    # 3.9e-5 at stride 1
    FamilySpec("random_subset", {"k": 1024, "M": 18}, 3),   # 8.0e-7 at stride 1
], ids=["k256-M14", "k1024-M18"])
def test_dense_source_regressions(spec):
    J = spec.build().support
    c = spectrum(len(J), 0)
    out = decode(spec, dense(J, c))
    assert worst_error(out.coeffs, c) <= TOLERANCE


def test_large_modulus_strides_do_not_overflow():
    # at N = 2^48 the stride is a power of two near N, and the shifts, node
    # exponents and group sums take products past 2^63 unless reduced mod N
    spec = FamilySpec("elementary", {"r": 6, "M": 48}, 1)
    J = spec.build().support
    c = spectrum(len(J), 0)
    out = decode(spec, BandlimitedSignal(J, c), r=(0, 1, 2))  # the paper's count; least cost has mu* = 1
    assert out.plan.stride >= 1 << 40
    assert worst_error(out.coeffs, c) <= TOLERANCE


@pytest.mark.parametrize("M", [63, 64])
def test_modulus_above_the_cap_is_rejected(M, monkeypatch):
    with pytest.raises(InvalidInputError, match="cap"):
        SupportSet.make(1 << M, [5, 13])
    # the family check comes before anything is drawn
    monkeypatch.setattr(families, "gen_elementary", lambda *a: pytest.fail("drew a support"))
    with pytest.raises(InvalidInputError, match="cap"):
        FamilySpec("elementary", {"r": 3, "M": M}, 1).build()
    with pytest.raises(InvalidInputError, match="cap"):
        FamilySpec("gap", {"a": 1, "steps": [3], "lengths": [4], "N": 1 << M}, 1).build()


def test_mod_product_matches_python_integers():
    rng = np.random.default_rng(7)
    for M in (1, 20, 40, 63):
        N = 1 << M
        a = rng.integers(-(1 << 62), 1 << 62, size=50)
        b = rng.integers(0, 1 << 62, size=50)
        assert mod_product(a, b, N).tolist() == [int(x) * int(y) % N for x, y in zip(a, b)]


# observability ------------------------------------------------------------------------


def test_cli_transform_reports_plan(tmp_path, capsys):
    spec = STRUCT[5]
    J = spec.build().support
    path = tmp_path / "signal.json"
    cli.dump_json(cli.signal_to_json(J, spectrum(len(J), 0)), str(path))
    assert cli.main(["transform", "--signal", str(path), "--algo", "sas",
                     "--pivots", "0,1,2,3"]) == 0  # the paper's uoe count
    payload = json.loads(capsys.readouterr().out)
    assert payload["mismatch_nodes"] == 0
    plan = payload["plan"]
    want = SasPlan.plan(J, (0, 1, 2, 3))
    assert plan == {
        "pivots": list(want.pivots),
        "decode_level": want.decode_level,
        "mu_star": want.mu_star,
        "stride": want.stride,
        "cond_bound": want.cond_bound,
        "decode": want.decode,
        # pivots 0..3: no run of FFT_RUN, so the four stages are one fused product
        "butterfly": {"fft_runs": [], "fused": [[0, 4]], "radix2": []},
    }
    assert plan["stride"] == 103
