"""The warm half of a call keeps the bytes of the execute it replaced.

`reference_execute` below is that earlier execute, kept as the oracle: it
scales the grid by the read scale N / |I_r| on its float64 view (in the
phases for a `BandlimitedSignal`), runs `numpy.fft.fft` and
`numpy.fft.ifft(norm="forward")` through their Python wrappers, takes the
adjoint's conjugates per call, decodes with the unscaled inverses W and
checks one slot per row as Python complex numbers.  The execute under test
applies the read scale at one point of the plan instead (`sas._Prepared`),
calls numpy's pocketfft gufuncs directly and checks one value its decode
computed.  Scaling by a power of two commutes bit for bit with every linear
step, so the coefficients, residuals, flags, probe errors and reports must
keep their bytes on every plan kind and every source kind, and a NaN or
infinite sample must still raise.
"""

import cmath

import numpy as np
import pytest

from structfft import (
    BandlimitedSignal, ContractViolationError, FamilySpec, InvalidInputError, SupportSet, gen_homogeneous, hidft,
    sas, sas_transform, submatrix_method,
)
from structfft.bench import _family_spec_for_trial
from structfft.congruence import pivots
from structfft.core import fourier_kernel
from structfft.families import FAMILY_KINDS, rng_from_seed
from structfft.hidft import _butterfly_entry, _grid_locations, _spare_buffers

# the benchmark's family recipes (kind, params, family seed), copied from perfbench/workloads.py
STRUCT_RECIPES = (
    ("elementary", {"r": 8, "M": 16}, 6),
    ("elementary", {"r": 8, "M": 20}, 0),
    ("random_subset",
     {"k": 256, "M": 16, "base": "hom", "base_pivots": [0, 1, 2, 3, 5, 7, 9, 11, 13, 14]}, 7),
    ("uoh", {"base_pivots": [0, 1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 17], "a_n": 7,
             "etas": [0, 0, 0, 0, 0, 1, 1, 1], "M": 20}, 1),
    ("uoe", {"a_n": 8, "etas": [0, 0, 0, 0, 0, 0, 1, 1, 2], "M": 20}, 2),
    ("uoe", {"a_n": 7, "etas": [0, 0, 0, 0, 0, 1, 1, 1], "M": 18}, 3),
    ("random_subset", {"k": 1024, "M": 18}, 3),
)
HOMOG_PIVOTS = (  # the homog-dense pivot vectors at M = 22
    tuple(range(0, 13)),
    tuple(range(9, 22)),
    (0, 2, 4, 6, 8, 10, 12, 14, 16, 17, 18, 20, 21),
)
TRIAL_PARAMS = {
    "elementary": {"M": [2, 14]},
    "homogeneous": {"M": [2, 14]},
    "consecutive": {"M": [2, 14]},
    "ap": {"M": [4, 14]},
    "gap": {"M": [6, 14]},
    "uoe": {"M": [3, 14], "eta_cap": 3},
    "uoh": {"M": [3, 14]},
    "random_subset": {"M": [8, 16], "k": [1, 200]},
    "jstar": {"M": [1, 14]},
}
PINNED = (FamilySpec("random_subset", {"k": 1024, "M": 18}, 5), tuple(range(6)))  # a sweep plan, mu* = 25


# the execute as it ran before the read scale moved into the plan ---------------------------


def reference_fetch(source, locations, N):
    if isinstance(source, BandlimitedSignal):
        return source.sample_block(locations)
    if callable(source):
        return np.asarray(source(locations), dtype=np.complex128)
    return np.asarray(source)[locations].astype(np.complex128, copy=False)


def reference_read_grid(source, J, plan, slots, shifts, locations, scale):
    """The grid times `scale`: on the float64 view of the samples, or in the
    phases of a `BandlimitedSignal`'s node sums."""
    if isinstance(source, BandlimitedSignal) and plan.used:
        l, A = source._l, plan.n_slots
        residues, res = plan.slot_residues[slots], l % (1 << plan.level)
        node = np.minimum(np.searchsorted(residues, res), len(residues) - 1)
        if not (residues[node] != res).any():
            flat = slots[node] + A * np.arange(len(shifts))[:, None]
            index = (2 * flat[:, :, None] + np.arange(2)).reshape(-1)
            phases = fourier_kernel(shifts, l, J.N) * (scale / J.N)
            w = (phases * source.coeffs).view(np.float64).reshape(-1)
            S = np.bincount(index, w, 2 * len(shifts) * A).view(np.complex128)
            return reference_adjoint(plan, S.reshape(len(shifts), A))
    grid = reference_fetch(source, locations, J.N).reshape(len(shifts), -1)
    if scale == 1.0:
        return grid
    return (np.ascontiguousarray(grid).view(np.float64) * scale).view(np.complex128)


def reference_pass(plan, v):
    """The butterfly with `numpy.fft.fft` on its runs."""
    rows, A = v.shape
    spare = _spare_buffers(rows, A)
    for kind, k, n, arrays in plan.steps:
        if kind == "fft_runs":
            a = v.reshape(rows, 1 << k, -1, 1 << n)
            if arrays is not None:
                v = spare(v)
                a = np.multiply(a, arrays[0].T[:, None, :], out=v.reshape(a.shape))
            v = np.fft.fft(a.transpose(0, 3, 1, 2), axis=1).reshape(rows, A)
        elif kind == "fused":
            a = v.reshape(rows, 1 << k, -1, 1 << n)
            v = spare(v)
            out = v.reshape(rows, 1 << n, 1 << k, -1).transpose(0, 2, 1, 3)
            np.matmul(arrays[0], a.transpose(0, 1, 3, 2), out=out)
        else:
            a = v.reshape(rows, 1 << k, -1, 2)
            t = arrays[0][:, None] * a[..., 1]
            v = spare(v)
            b = v.reshape(rows, 2, 1 << k, -1)
            np.subtract(a[..., 0], t, out=b[:, 0])
            np.add(a[..., 0], t, out=b[:, 1])
    return v if plan.steps else v.copy()


def reference_adjoint(plan, v):
    """The adjoint with `numpy.fft.ifft(norm="forward")` and per-call conjugates."""
    rows, A = v.shape
    spare = _spare_buffers(rows, A)
    for kind, j, n, arrays in reversed(plan.steps):
        if kind == "fused":
            b = v.reshape(rows, 1 << n, 1 << j, -1).transpose(0, 2, 3, 1)
            v = spare(v)
            np.matmul(b, arrays[1], out=v.reshape(rows, 1 << j, -1, 1 << n))
        elif kind == "fft_runs":
            y = np.fft.ifft(v.reshape(rows, 1 << n, 1 << j, -1), axis=1, norm="forward")
            a = y.transpose(0, 2, 3, 1)
            if arrays is None:
                v = a.reshape(rows, A)
            else:
                v = spare(v)
                np.multiply(a, arrays[0].T.conj()[:, None, :], out=v.reshape(a.shape))
        else:
            b = v.reshape(rows, 2, 1 << j, -1)
            v = spare(v)
            a = v.reshape(rows, 1 << j, -1, 2)
            np.add(b[:, 0], b[:, 1], out=a[..., 0])
            np.multiply(b[:, 1] - b[:, 0], arrays[0].conj()[:, None], out=a[..., 1])
    return v


def reference_inverse_stack(p, J):
    """[W_b; R_b] of the plan's nodes, built from J as the plan builds its
    K, with no read scale in W."""
    mu, weights = p.plan.mu_star, np.diff(p.bounds)
    own = np.arange(mu) < weights[:, None]
    x = np.zeros(own.shape, dtype=np.complex128)
    x[own] = fourier_kernel(p.members, [p.plan.stride], J.N)[:, 0]
    V = sas._vander_stack(x)
    W = sas._inverses(V, weights)
    R = V @ W - np.eye(mu)
    R[own] = 0
    return np.concatenate((W, R), axis=1)


def reference_execute(p, source, J, tolerance):
    """(coefficients, residual, mismatch) of one call on the prepared plan p."""
    mu = p.plan.mu_star
    grid = reference_read_grid(source, J, p.butterfly, p.take, p.shifts, p.locations, p.scale)
    with np.errstate(invalid="ignore"):
        slots = reference_pass(p.butterfly, grid)
    if not all(map(cmath.isfinite, slots[:, 0].tolist())):
        raise InvalidInputError("signal samples at the read locations are not finite")
    if p.read_index is not None:
        coeffs = slots.reshape(-1).take(p.read_index)
        residual = np.zeros(len(p.residues))
    else:
        y = slots.T[p.take]
        if p.K is not None:
            out = np.matmul(reference_inverse_stack(p, J), y[:, :, None])[:, :, 0]
            c, spare = out[:, :mu], out[:, mu:]
        else:
            c = sas._bp_apply(p.factors, y)
            spare = sas._spare_rows(p.V, y, c, p.factors.sizes)
        residual = sas._row_norms(spare) / np.maximum(sas._row_norms(y), 1e-300)
        coeffs = c.reshape(-1).take(p.coeff_index)
    return coeffs, residual, residual > max(tolerance, sas.RESIDUAL_FLOOR)


def reference_transform(source, J, r=None, tolerance=1e-8):
    p = sas._prepared(J, r)[0]
    coeffs, residual, mismatch = reference_execute(p, source, J, tolerance)
    probe = sas._probe_error(p, source, J, coeffs) if p.probed else None
    flagged = probe is not None and not probe <= tolerance / sas._PROBE_MARGIN
    return coeffs, residual, mismatch, probe, flagged, p.report


# helpers -------------------------------------------------------------------------------------


def spectrum(J, seed):
    g = np.random.default_rng(seed)
    return (0.5 + g.random(len(J))) * np.exp(2j * np.pi * g.random(len(J)))


def sources(J, c):
    """Every source kind: dense complex128, float64 and complex64 vectors, a
    `BandlimitedSignal` and a callback."""
    sig = BandlimitedSignal(J, c)
    x = sig.synthesize()
    return {"complex128": x, "float64": x.real.copy(), "complex64": x.astype(np.complex64),
            "bandlimited": sig, "callback": lambda t: x[t]}


def fingerprint(out):
    return (out.coeffs.tobytes(), out.nodes.residual.tobytes(), out.nodes.mismatch.tobytes(),
            out.probe_error, out.flagged, out.report)


def assert_same_bytes(source, J, r=None):
    """Cold and warm calls return the reference's bytes; the plan's decode."""
    want = reference_transform(source, J, r)
    want = (want[0].tobytes(), want[1].tobytes(), want[2].tobytes(), *want[3:])
    for _ in range(2):
        assert fingerprint(sas_transform(source, J, r=r)) == want
    p = sas._prepared(J, r)[0]
    return "mu1-run" if p.run_scale != 1.0 else "mu1" if p.plan.mu_star == 1 else p.plan.decode


# tests ---------------------------------------------------------------------------------------


def test_benchmark_recipes_keep_their_bytes():
    seen = set()
    for i, (kind, params, seed) in enumerate(STRUCT_RECIPES):
        J = FamilySpec(kind, params, seed).build().support
        for name, source in sources(J, spectrum(J, i)).items():
            seen.add(assert_same_bytes(source, J))
    assert seen == {"mu1-run", "matrix"}


def test_the_read_scale_rides_on_the_first_of_two_runs():
    # a mu* = 1 plan with two runs: pivots 0..5 (no table) and 7..12 (a table)
    J = FamilySpec("homogeneous", {"pivots": [0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12], "M": 15}, 2).build().support
    p = sas._prepared(J, None)[0]
    assert p.butterfly.layout["fft_runs"] == [[0, 6], [6, 6]] and p.butterfly.steps[1][3] is not None
    for source in sources(J, spectrum(J, 2)).values():
        assert assert_same_bytes(source, J) == "mu1-run"


@pytest.mark.parametrize("i", range(len(HOMOG_PIVOTS)))
def test_homogeneous_recipes_keep_their_bytes(i):
    # k = 8192 at N = 2^22: a BandlimitedSignal and one dense vector
    J = FamilySpec("homogeneous", {"pivots": list(HOMOG_PIVOTS[i]), "M": 22}, i + 1).build().support
    c = spectrum(J, i)
    sig = BandlimitedSignal(J, c)
    for source in (sig, sig.synthesize()):
        assert assert_same_bytes(source, J) == ("mu1" if i == 2 else "mu1-run")  # pivots 2: no run


def test_seeded_draws_keep_their_bytes():
    # 8 draws of each family kind, seeded as `bench.run_trial` seeds them, on every
    # source kind; the planner's plan, and r = () (a sweep) and a prefix of the split
    # levels where k is small
    seen, draws = set(), 0
    for idx, kind in enumerate(FAMILY_KINDS):
        for trial in range(8):
            rng = rng_from_seed(11, idx, trial)
            spec = _family_spec_for_trial(kind, TRIAL_PARAMS[kind], rng, int(rng.integers(0, 2**63 - 1)))
            J = spec.build().support
            draws += 1
            plans = [None]
            if len(J) <= 96:
                p = pivots(J)
                plans += [(), p[:int(rng.integers(0, len(p) + 1))]]
            for name, source in sources(J, spectrum(J, draws)).items():
                for r in plans:
                    seen.add(assert_same_bytes(source, J, r))
    assert draws >= 60
    assert seen == {"mu1-run", "mu1", "matrix", "sweep"}


def test_pinned_sweep_and_submatrix_keep_their_bytes():
    spec, r = PINNED
    J = spec.build().support
    for source in sources(J, spectrum(J, 5)).values():
        assert assert_same_bytes(source, J, r) == "sweep"
    # submatrix_method returns the reference's bytes where its probes pass and
    # raises where they miss: a float64 or complex64 vector is not (exactly) on K
    K = FamilySpec("random_subset", {"k": 64, "M": 12}, 0).build().support
    p = sas._prepared(K, ())[0]
    outcomes = []
    for source in sources(K, spectrum(K, 0)).values():
        want = reference_execute(p, source, K, 1e-8)[0]
        outcomes.append(sas._probe_error(p, source, K, want) <= 1e-8 / sas._PROBE_MARGIN)
        if outcomes[-1]:
            assert submatrix_method(K, source).tobytes() == want.tobytes()
        else:
            with pytest.raises(ContractViolationError):
                submatrix_method(K, source)
    assert outcomes == [True, False, False, True, True]


def test_hidft_keeps_its_bytes_at_every_height():
    gen = np.random.default_rng(17)
    heights = 0
    for t in range(12):
        M = int(gen.integers(4, 14))
        piv = sorted(gen.choice(M, size=int(gen.integers(1, M + 1)), replace=False).tolist())
        J = gen_homogeneous(piv, M, int(gen.integers(0, 2**62)))
        if t % 3 == 2:  # virtual slots
            keep = gen.random(len(J)) < 0.7
            keep[0] = True
            J = SupportSet.make(J.N, np.asarray(J.indices)[keep].tolist())
        r = pivots(J)
        for source in sources(J, spectrum(J, t)).values():
            for height in range(len(r) + 1):
                shift = int(gen.integers(0, J.N))
                used = r[:len(r) - height]
                plan, slots, offsets = _butterfly_entry(J, used)
                shifts = np.asarray([shift], dtype=np.int64)
                grid = reference_read_grid(source, J, plan, slots, shifts,
                                           _grid_locations(offsets, shifts, J.N), 1.0)
                want = reference_pass(plan, grid)[0]
                assert hidft(source, J, r, height=height, shift=shift).slot_values.tobytes() == want.tobytes()
                heights += 1
    assert heights >= 200


NONFINITE_PLANS = {  # (support, explicit pivots, the decode that reads the sample)
    "mu1-run": (FamilySpec("elementary", {"r": 7, "M": 12}, 1), None),
    "mu1": (FamilySpec("homogeneous", {"pivots": [0, 2, 3, 5, 6, 8], "M": 11}, 4), None),
    "matrix": (FamilySpec("random_subset", {"k": 256, "M": 14}, 1), None),
    "sweep": (FamilySpec("random_subset", {"k": 40, "M": 10}, 2), ()),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the raise comes with no numpy warning
@pytest.mark.parametrize("value", [np.nan, np.inf, complex(-np.inf, 0)])
@pytest.mark.parametrize("case", sorted(NONFINITE_PLANS))
def test_nonfinite_samples_raise_on_every_plan_kind(case, value):
    spec, r = NONFINITE_PLANS[case]
    J = spec.build().support
    x = BandlimitedSignal(J, spectrum(J, 3)).synthesize()
    p = sas._prepared(J, r)[0]
    assert ("mu1-run" if p.run_scale != 1.0 else "mu1" if p.plan.mu_star == 1 else p.plan.decode) == case
    read = p.locations
    for loc in (read[0], read[len(read) // 2], read[-1]):
        bad = x.copy()
        bad[loc] = value
        for source in (bad, lambda t: bad[t]):
            with pytest.raises(InvalidInputError, match="not finite"):
                sas_transform(source, J, r=r)
            with pytest.raises(InvalidInputError, match="not finite"):
                reference_execute(p, source, J, 1e-8)
    if case == "sweep":
        with pytest.raises(InvalidInputError, match="not finite"):
            submatrix_method(J, bad)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # the norms overflow, the reference's too
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("case", ["matrix", "sweep"])
def test_finite_samples_past_the_norm_range_are_read(case):
    # at 1e160 and 1e300 node 0's ||y|| overflows, which a non-finite sample
    # also makes; the slots are finite, so the call returns the reference's bytes
    spec, r = NONFINITE_PLANS[case]
    J = spec.build().support
    x = BandlimitedSignal(J, spectrum(J, 3)).synthesize()
    for magnitude in (1e160, 1e300):
        assert assert_same_bytes(x * magnitude, J, r) == case
