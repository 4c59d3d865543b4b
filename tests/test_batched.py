"""Byte oracles for the batched float64 layers of sas_transform.

The scalar Leja order and Bjorck-Pereyra sweep that the batched code
replaced are kept here as oracles; on dense sources every batched layer
must give their bytes, the solver also when one set of factors
(`_bp_factors`) serves several right-hand sides (`_bp_apply`).  The
sample grids of a BandlimitedSignal, synthesized by the butterfly run
backwards, are checked against the dense per-sample synthesis instead, so
that the butterfly is never validated against its own algebra.
"""

import numpy as np
import pytest

from structfft import (
    BandlimitedSignal,
    ContractViolationError,
    FamilySpec,
    InvalidInputError,
    OpCounter,
    SupportSet,
    build_tree,
    cli,
    gen_homogeneous,
    hidft,
    pivots,
    sas_transform,
    select_pivots,
    submatrix_method,
    vandermonde_solve,
)
from structfft.bench import FIXTURES
from structfft.hidft import (
    _build_plan, _butterfly_entry, _butterfly_pass, _grid_locations, _read_grid, butterfly_ops,
)
from structfft.sampling import FFT_RUN, fft_runs, pattern_offsets
from structfft.sas import (
    C1,
    C2,
    RESIDUAL_FLOOR,
    _bp_apply,
    _bp_factors,
    _leja_orders,
    predicted_cost,
    product_error_bound,
)

rng = np.random.default_rng(20260517)


# scalar oracles ---------------------------------------------------------------


def leja_order(x):
    n = len(x)
    order = np.empty(n, dtype=np.int64)
    order[0] = int(np.argmax(np.abs(x)))
    chosen = np.zeros(n, dtype=bool)
    chosen[order[0]] = True
    prod = np.abs(x - x[order[0]])
    for t in range(1, n):
        prod_masked = np.where(chosen, -1.0, prod)
        i = int(np.argmax(prod_masked))
        order[t] = i
        chosen[i] = True
        prod = prod * np.abs(x - x[i])
    return order


def bp_core(x, y):
    n = len(x)
    c = np.array(y, dtype=np.complex128)
    for k in range(0, n - 1):
        for j in range(n - 1, k, -1):
            c[j] = c[j] - x[k] * c[j - 1]
    for k in range(n - 2, -1, -1):
        for j in range(k + 1, n):
            c[j] = c[j] / (x[j] - x[j - k - 1])
        for j in range(k, n - 1):
            c[j] = c[j] - c[j + 1]
    return c


def scalar_solve(x, y):
    m = len(x)
    if m == 1:
        return y.copy()
    if m < 3:
        return bp_core(x, y)
    perm = leja_order(x)
    c = np.empty(m, dtype=np.complex128)
    c[perm] = bp_core(x[perm], y)
    return c


# inputs -----------------------------------------------------------------------


def clustered_nodes(m, N=1 << 16):
    """m unit-circle nodes e^{-2 pi i l / N}, l of one residue mod 64 in up
    to four tight clusters."""
    r = int(rng.integers(64))
    starts = 8 * rng.choice(N // 512, size=4, replace=False)
    pool = sorted(int(s) + t for s in starts for t in range(8))
    ls = np.asarray([r + 64 * pool[i] for i in sorted(rng.choice(len(pool), size=m, replace=False))])
    return np.exp(-2j * np.pi * ls.astype(np.float64) / N)


def padded_batch(sizes):
    sizes = np.asarray(sizes)
    n = int(sizes.max())
    x = np.zeros((len(sizes), n), dtype=np.complex128)
    y = np.zeros((len(sizes), n), dtype=np.complex128)
    for b, m in enumerate(sizes.tolist()):
        x[b, :m] = clustered_nodes(m)
        y[b, :m] = rng.normal(size=m) + 1j * rng.normal(size=m)
    return x, y, sizes


MIXED = [
    [1, 2, 25] + np.random.default_rng(1).integers(1, 26, size=9).tolist(),
    [25, 3, 1, 2] + np.random.default_rng(2).integers(1, 26, size=9).tolist(),
    [7] * 6,
    [25],
]


# the padded solve ---------------------------------------------------------------


class TestPaddedSolve:
    @pytest.mark.parametrize("sizes", MIXED)
    def test_leja_orders_equal_scalar_loop(self, sizes):
        x, _, sizes = padded_batch(sizes)
        perm = _leja_orders(x, sizes)
        for b, m in enumerate(sizes.tolist()):
            want = leja_order(x[b, :m]) if m >= 3 else np.arange(m)
            assert perm[b, :m].tolist() == want.tolist()
            assert perm[b, m:].tolist() == list(range(m, x.shape[1]))

    @pytest.mark.parametrize("sizes", MIXED)
    def test_solve_equals_scalar_sweep(self, sizes):
        x, y, sizes = padded_batch(sizes)
        y2 = np.where(y != 0, 1j * y[:, ::-1] - 0.5, 0)
        own = np.arange(x.shape[1]) < sizes[:, None]
        y3 = np.where(own, y, 1e3 * (1 + 1j) * rng.standard_normal(y.shape))  # padding never read
        factors = _bp_factors(x, sizes, _leja_orders(x, sizes))
        for rhs in (y, y2, y3):  # one set of factors, three right-hand sides
            c = _bp_apply(factors, rhs)
            for b, m in enumerate(sizes.tolist()):
                want = scalar_solve(x[b, :m], rhs[b, :m])
                assert c[b, :m].tobytes() == want.tobytes()
                assert vandermonde_solve(x[b, :m], rhs[b, :m]).tobytes() == want.tobytes()
                assert not c[b, m:].any()

    def test_factors_are_read_only(self):
        sizes = np.array([3, 5])
        x = np.exp(-2j * np.pi * np.array([[1, 5, 9, 0, 0], [2, 3, 7, 11, 13]]) / 16)
        factors = _bp_factors(x, sizes, _leja_orders(x, sizes))
        for a in (factors.perm, factors.xr, factors.steps[0][1]):
            with pytest.raises(ValueError):
                a[0, 0] = 1

    @pytest.mark.parametrize("sizes", MIXED[:2])
    def test_rows_equal_single_system_solves(self, sizes):
        x, y, sizes = padded_batch(sizes)
        factors = _bp_factors(x, sizes, _leja_orders(x, sizes))
        c = _bp_apply(factors, y)
        for b, m in enumerate(sizes.tolist()):
            xb, yb = x[b:b + 1, :m], y[b:b + 1, :m]
            one = _bp_factors(xb, sizes[b:b + 1], _leja_orders(xb, sizes[b:b + 1]))
            assert c[b, :m].tobytes() == _bp_apply(one, yb)[0].tobytes()

    def test_counts_equal_per_system_charges(self):
        sizes = [1, 2, 3, 25, 7]
        batch, single = OpCounter(), OpCounter()
        x, y, sizes = padded_batch(sizes)
        for b, m in enumerate(sizes.tolist()):
            vandermonde_solve(x[b, :m], y[b, :m], counter=single)
            half = m * (m - 1) // 2
            extra = half if m >= 3 else 0
            batch.mul(m * (m - 1) + extra)
            batch.add(3 * half + extra)
        assert (single.complex_mults, single.complex_adds) == (batch.complex_mults, batch.complex_adds)

    def test_duplicate_nodes_rejected(self):
        x, y, sizes = padded_batch([4, 6, 2])
        x[1, 5] = x[1, 2]
        with pytest.raises(InvalidInputError):
            _bp_factors(x, sizes, _leja_orders(x, sizes))
        with pytest.raises(InvalidInputError):
            vandermonde_solve(x[1, :6], y[1, :6])

    def test_padding_is_not_a_duplicate(self):
        x, y, sizes = padded_batch([2, 5])
        x[0, 0] = 0.0  # equals the padding value of row 0
        _bp_apply(_bp_factors(x, sizes, _leja_orders(x, sizes)), y)


# the batched butterfly ------------------------------------------------------------


def dense_source(J):
    c = (0.5 + rng.random(len(J))) * np.exp(2j * np.pi * rng.random(len(J)))
    F = np.zeros(J.N, dtype=np.complex128)
    F[J.as_array()] = c
    return np.fft.ifft(F), c


def random_support(M_lo=4, M_hi=13, k_hi=60):
    M = int(rng.integers(M_lo, M_hi))
    k = int(rng.integers(1, min(1 << M, k_hi) + 1))
    return SupportSet.make(1 << M, rng.choice(1 << M, size=k, replace=False).tolist())


def assert_rows_equal_single_shift_hidft(J, x, r, shifts):
    """Row b of one pass over every shift's grid has the bytes of the
    single-shift `hidft` at shifts[b]; the per-row charges sum to the pass's."""
    plan, slots = _build_plan(build_tree(J, J.M).level_arrays(r[-1] + 1 if r else 0)[0], r)
    offsets = pattern_offsets(r, J.M)
    grid = _read_grid(x, J, plan, slots, shifts, _grid_locations(offsets, shifts, J.N))
    v = _butterfly_pass(plan, grid)
    nodes = v[:, slots]
    ref = OpCounter()
    for b, j in enumerate(shifts.tolist()):
        one = hidft(x, J, r, shift=j, counter=ref)
        assert nodes[b].tobytes() == one.node_values.tobytes()
        assert v[b].tobytes() == one.slot_values.tobytes()
    adds, mults = butterfly_ops(len(r), len(shifts), plan.n_slots)
    assert ref.phases == ({"hidft": (adds, mults)} if r else {})
    return plan


class TestButterflyBatch:
    def test_rows_equal_single_shift_hidft(self):
        for _ in range(40):
            J = random_support()
            x, _ = dense_source(J)
            r = select_pivots(J)
            shifts = np.concatenate([np.arange(5), rng.integers(-J.N, 2 * J.N, size=4)])
            assert_rows_equal_single_shift_hidft(J, x, r, shifts)

    def test_rows_equal_single_shift_hidft_on_fft_runs(self):
        # homogeneous supports whose pivots hold a run of FFT_RUN or more
        # consecutive levels, which the pass hands to numpy.fft
        gen = np.random.default_rng(7)
        tables = 0
        for t in range(12):
            j = int(gen.integers(0, 3))
            r = tuple(range(0, 2 * j, 2)) + tuple(range(2 * j, 2 * j + FFT_RUN + t % 3))
            r += tuple(range(r[-1] + 2, r[-1] + 2 + 2 * int(gen.integers(0, 3)), 2))
            J = gen_homogeneous(r, r[-1] + 2, int(gen.integers(0, 2**62)))
            x = gen.standard_normal(J.N) + 1j * gen.standard_normal(J.N)
            shifts = np.concatenate([np.arange(5), gen.integers(-J.N, 2 * J.N, size=4)])
            plan = assert_rows_equal_single_shift_hidft(J, x, r, shifts)
            assert plan.runs and plan.runs[0][:2] == (j, FFT_RUN + t % 3)
            tables += plan.runs[0][2] is not None
        assert tables >= 6

    def test_rows_equal_single_shift_hidft_on_fused_groups(self):
        # gapped homogeneous supports, thinned or not: the pass fuses stretches
        # of radix-2 stages into per-prefix products, batched per row, so a row
        # has the bytes of its single-shift hidft; 9 or more pivots leave the
        # stages past the gate radix-2
        gen = np.random.default_rng(11)
        layouts = set()
        for t in range(16):
            M = int(gen.integers(6, 15))
            while True:
                r = tuple(sorted(gen.choice(M, size=int(gen.integers(2, min(M - M // FFT_RUN, 11) + 1)),
                                            replace=False).tolist()))
                if not fft_runs(r):
                    break
            J = gen_homogeneous(r, M, int(gen.integers(0, 2**62)))
            if t % 2:
                keep = gen.random(len(J)) < 0.7
                keep[0] = True
                J = SupportSet.make(J.N, np.asarray(J.indices)[keep].tolist())
            x = gen.standard_normal(J.N) + 1j * gen.standard_normal(J.N)
            r = pivots(J)
            shifts = np.concatenate([np.arange(5), gen.integers(-J.N, 2 * J.N, size=4)])
            plan = assert_rows_equal_single_shift_hidft(J, x, r, shifts)
            assert plan.fused
            layouts.add(bool(plan.layout["radix2"]))
        assert layouts == {False, True}

    def test_callable_reads_once(self):
        J = SupportSet.make(1 << 10, [0, 1, 6, 7, 512, 300, 301])
        x, _ = dense_source(J)
        calls = []

        def source(loc):
            calls.append(loc.shape)
            return x[loc]

        out = sas_transform(source, J)
        assert len(calls) == 1 and calls[0] == (out.plan.mu_star << len(out.plan.pivots),)
        assert out.coeffs.tobytes() == sas_transform(x, J).coeffs.tobytes()


# node arrays against an eager node-by-node decode -----------------------------------


def eager_decode(source, J, out, tolerance=1e-8):
    """The node-by-node decode: one (residue, members, mismatch, residual)
    tuple per node and every coefficient, from single-shift `hidft` calls at
    the planned shifts j * stride.  A node of weight m, weight 1 included,
    is solved from the first m shifts by the scalar sweep; its residual is
    taken over the spare shifts m..mu*-1 alone, so it is 0 for a node of
    weight mu*, hence for every node when mu* = 1."""
    plan = out.plan
    N, d = J.N, plan.stride
    scale = N / (1 << len(plan.pivots))
    rows = [hidft(source, J, plan.pivots, shift=j * d) for j in range(plan.mu_star)]
    level = plan.decode_level
    groups = {}
    for l in J.indices:
        groups.setdefault(l % (1 << level), []).append(l)
    nodes, coeffs = [], {}
    for i, res in enumerate(sorted(groups)):
        members = tuple(sorted(groups[res]))
        y = np.asarray([row.node_values[i] for row in rows]) * scale
        x = np.exp(-2j * np.pi * np.asarray([d * l % N for l in members], dtype=np.float64) / N)
        c = scalar_solve(x, y[:len(members)])
        V = np.vander(x, plan.mu_star, increasing=True).T
        spare = (V @ c - y)[len(members):]
        residual = float(np.linalg.norm(spare) / max(np.linalg.norm(y), 1e-300))
        nodes.append((res, members, residual > max(tolerance, RESIDUAL_FLOOR), residual))
        coeffs.update(zip(members, c))
    return nodes, coeffs


SAS_CASES = [
    (FIXTURES["paper_sas"], None),
    (FIXTURES["uoe_union"], (0,)),
    (FIXTURES["uoe_adversarial"], (0, 1)),
    ((1 << 16, [5 + t * 64 for t in (0, 1, 2, 3, 700, 701, 702, 703)]), (0, 1, 2, 3, 4, 5)),
    # one node of weight 24: past the matrix decode's reach, a sweep plan
    ((1 << 12, np.random.default_rng(3).choice(1 << 12, size=24, replace=False).tolist()), ()),
]


class TestLazyNodeSystems:
    """`SasResult.nodes`, read node by node, against the eager decode: byte
    for byte on a sweep plan, within twice `product_error_bound` on a matrix
    plan, whose product rounds differently from the sweep."""

    @pytest.mark.parametrize("case", range(len(SAS_CASES) + 6))
    def test_equal_eager_list(self, case):
        if case < len(SAS_CASES):
            (N, idx), r = SAS_CASES[case]
            J = SupportSet.make(N, idx)
        else:
            J, r = random_support(M_lo=6, k_hi=40), None
        x, _ = dense_source(J)
        out = sas_transform(x, J, r=r)
        nodes, coeffs = eager_decode(x, J, out)
        v = out.nodes
        m, b = v.members.tolist(), v.bounds.tolist()
        got = [(res, tuple(m[b[i]:b[i + 1]]), flag)
               for i, (res, flag) in enumerate(zip(v.residues.tolist(), v.mismatch.tolist()))]
        assert got == [n[:3] for n in nodes]
        matrix = out.plan.decode == "matrix" and out.plan.mu_star > 1
        # both decodes round within the bound, so they differ by at most twice it
        bound = 2 * product_error_bound(out.plan.mu_star, out.plan.cond_bound) if matrix else 1e-15
        assert all(abs(r - n[3]) <= bound for r, n in zip(v.residual.tolist(), nodes))
        assert v.mismatch.dtype == bool
        have = out.coeff_map()
        assert len(coeffs) == len(J)
        if matrix:
            want = np.array([coeffs[l] for l in J.indices])
            assert np.max(np.abs(out.coeffs - want)) <= bound * np.max(np.abs(want))
            return
        for l, c in coeffs.items():
            assert np.complex128(have[l]).tobytes() == np.complex128(c).tobytes()


# synthesis against independent oracles -------------------------------------------


def synthesized_grid(sig, used, shifts):
    """sig's grid for the pivots `used` (the butterfly run backwards), and
    the dense per-sample synthesis at the same locations."""
    J = sig.support
    plan, slots, offsets = _butterfly_entry(J, used)
    locations = _grid_locations(offsets, shifts, J.N)
    got = _read_grid(sig, J, plan, slots, shifts, locations)
    return got, sig.sample_block(locations).reshape(got.shape)


class TestSampleGrid:
    def test_float_grid_equals_dense_synthesis(self):
        # every height of the full pivot vector, so gapped pivots, runs of FFT_RUN
        # and the no-pivot read all occur, at shifts beyond [0, N)
        for _ in range(60):
            J = random_support(M_lo=2, M_hi=13, k_hi=300)
            sig = BandlimitedSignal(J, rng.normal(size=len(J)) + 1j * rng.normal(size=len(J)))
            r = pivots(J)
            used = r[:len(r) - int(rng.integers(0, len(r) + 1))]
            shifts = rng.integers(-J.N, 2 * J.N, size=int(rng.integers(1, 9)))
            got, want = synthesized_grid(sig, used, shifts)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_pivot_pattern_grid(self):
        J = SupportSet.make(1 << 12, rng.choice(1 << 12, size=200, replace=False).tolist())
        r = select_pivots(J)
        sig = BandlimitedSignal(J, rng.normal(size=200) + 1j * rng.normal(size=200))
        got, _ = synthesized_grid(sig, r, np.arange(6))
        o = pattern_offsets(r, J.M)
        want = np.stack([sig.sample_block(o - j) for j in range(6)])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# predicted cost ---------------------------------------------------------------------


def test_predicted_cost_equals_python_sum():
    for _ in range(200):
        w = rng.integers(1, 1 << 26, size=int(rng.integers(1, 300)))  # sums past 2^53
        s, mu = int(rng.integers(0, 20)), int(w.max())
        want = C1 * s * (1 << s) * mu + C2 * sum(int(v) * int(v) for v in w)
        assert predicted_cost(s, mu, w) == want
        assert predicted_cost(s, mu, tuple(w.tolist())) == want


# submatrix method out of reach --------------------------------------------------


def out_of_reach(seed):
    J = FamilySpec("random_subset", {"k": 200, "M": 16}, seed).build().support
    g = np.random.default_rng(seed)
    c = (0.5 + g.random(len(J))) * np.exp(2j * np.pi * g.random(len(J)))
    return J, c


@pytest.mark.parametrize("seed", range(3))
def test_submatrix_out_of_reach_raises(seed):
    J, c = out_of_reach(seed)
    with pytest.raises(ContractViolationError):
        submatrix_method(J, BandlimitedSignal(J, c))


def test_cli_submatrix_out_of_reach_exits_3(tmp_path, capsys):
    J, c = out_of_reach(0)
    path = tmp_path / "signal.json"
    cli.dump_json(cli.signal_to_json(J, c), str(path))
    assert cli.main(["transform", "--signal", str(path), "--algo", "submatrix"]) == 3
    assert "out of reach" in capsys.readouterr().err
