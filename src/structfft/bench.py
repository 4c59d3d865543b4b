"""Monte Carlo experiment runner behind the bench CLI.

A scenario file lists seeded experiments over family generators; each trial
plants a random spectrum, runs the shift-and-sample transform, and records
costs and correctness.  Replays are byte-identical for a fixed scenario and
seed.  The antipodal scenario kind draws Bernoulli subsets of the full range
and only measures how often a pair differing by N/2 appears (the statistic
that breaks uniform-downsampling approaches); it contributes summary data,
not trial records.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .congruence import SupportSet, as_int
from .core import BandlimitedSignal, rel_error
from .errors import InvalidInputError
from .families import FamilySpec, _bernoulli_hits, draw_coefficients, rng_from_seed
from .sas import C1, C2, _check_tolerance, sas_transform

# threshold constant for the aliasing-tail statistic
C_MU_STAR = 4.0 + 3.0 * math.log(2.0)

FIXTURES = {
    # worked shift-and-sample example: one 2x2 node system
    "paper_sas": (1024, (0, 1, 6, 7, 512)),
    # union-of-elementary example set (including the singleton {0} term)
    "uoe_union": (1024, (0, 1, 2, 3, 4, 8, 9, 10, 13, 22, 23, 31)),
    # adversarial union: as many large powers of two as possible (a = 4)
    "uoe_adversarial": (
        1024,
        tuple(sorted({(1 << (4 + i)) + j for i in range(5) for j in range(1 << i)})),
    ),
}


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    family: str
    N: int
    k: int
    size_r: int
    mu_star: int
    amplification: float  # SasPlan.amplification: the largest exact ||V_b^-1||_inf
    ops_hidft: int
    ops_solve: int
    ops_total: int
    bound_total: float
    samples: int
    correct: bool
    max_rel_err: float
    mismatch_nodes: int

    def as_row(self) -> list:
        return [getattr(self, c) for c in CSV_COLUMNS]


CSV_COLUMNS = tuple(f.name for f in fields(TrialRecord))


def _draw_int(rng, value) -> int:
    """Scenario params may give a constant or an inclusive [lo, hi] range."""
    if isinstance(value, (list, tuple)):
        lo, hi = value
        return int(rng.integers(as_int(lo), as_int(hi) + 1))
    return as_int(value)


def _family_spec_for_trial(kind: str, params: dict, rng, seed: int) -> FamilySpec:
    p = dict(params)
    if kind == "homogeneous":
        M = _draw_int(rng, p["M"])
        s = _draw_int(rng, p.get("s", [1, max(M // 2, 1)]))
        pivs = sorted(rng.choice(M, size=min(s, M), replace=False).tolist())
        return FamilySpec("homogeneous", {"pivots": pivs, "M": M}, seed)
    if kind == "elementary":
        M = _draw_int(rng, p["M"])
        r = _draw_int(rng, p.get("r", [1, max(M // 2, 1)]))
        return FamilySpec("elementary", {"r": min(r, M), "M": M}, seed)
    if kind == "consecutive":
        N = 1 << _draw_int(rng, p["M"])
        k = min(_draw_int(rng, p.get("k", [2, 64])), N)
        a = int(rng.integers(0, N))
        return FamilySpec("consecutive", {"a": a, "k": k, "N": N}, seed)
    if kind == "ap":
        M = _draw_int(rng, p["M"])
        N = 1 << M
        k = min(_draw_int(rng, p.get("k", [2, 64])), N // 2)
        alpha = _draw_int(rng, p.get("alpha", [0, max(M - k.bit_length() - 1, 0)]))
        s = ((2 * int(rng.integers(0, max(N >> (alpha + 2), 1))) + 1) << alpha) % N
        a = int(rng.integers(0, N))
        try:
            FamilySpec("ap", {"a": a, "s": s, "k": k, "N": N}, seed).build()
        except InvalidInputError:
            s = 1 << alpha  # collision-free fallback with the same valuation
        return FamilySpec("ap", {"a": a, "s": s, "k": k, "N": N}, seed)
    if kind == "gap":
        M = _draw_int(rng, p["M"])
        N = 1 << M
        d = _draw_int(rng, p.get("d", [1, 3]))
        cap = as_int(p.get("volume_cap", 1 << 12))
        lengths = []
        vol = 1
        for i in range(d):
            hi = max(cap // vol, 2)
            n_i = int(rng.integers(2, min(hi, 64) + 1))
            lengths.append(n_i)
            vol *= n_i
        steps = [int(rng.integers(1, N)) for _ in range(d)]
        a = int(rng.integers(0, N))
        return FamilySpec("gap", {"a": a, "steps": steps, "lengths": lengths, "N": N}, seed)
    if kind == "uoe":
        M = _draw_int(rng, p["M"])
        a_n = _draw_int(rng, p.get("a_n", [1, max(M // 2, 1)]))
        C = as_int(p.get("eta_cap", 2))
        etas = [int(rng.integers(0, C + 1)) for _ in range(a_n + 1)]
        etas[a_n] = max(1, etas[a_n])  # keep the top size present so a_n is realized
        return FamilySpec("uoe", {"a_n": a_n, "etas": etas, "M": M}, seed)
    if kind == "uoh":
        M = _draw_int(rng, p["M"])
        s = _draw_int(rng, p.get("s", [2, max(M // 2, 2)]))
        base = sorted(rng.choice(M, size=min(s, M), replace=False).tolist())
        a_n = min(_draw_int(rng, p.get("a_n", [1, len(base)])), len(base))
        C = as_int(p.get("eta_cap", 2))
        etas = [int(rng.integers(0, C + 1)) for _ in range(a_n + 1)]
        etas[a_n] = max(1, etas[a_n])
        return FamilySpec(
            "uoh", {"base_pivots": base, "a_n": a_n, "etas": etas, "M": M}, seed
        )
    if kind == "random_subset":
        M = _draw_int(rng, p["M"])
        k = _draw_int(rng, p["k"])
        base = p.get("base", "zn")
        sp = {"M": M, "k": k, "base": base}
        if base == "homogeneous":
            s = _draw_int(rng, p.get("base_s", max(M // 2, 1)))
            sp["base_pivots"] = sorted(rng.choice(M, size=min(s, M), replace=False).tolist())
        return FamilySpec("random_subset", sp, seed)
    if kind == "jstar":
        return FamilySpec("jstar", {"M": _draw_int(rng, p["M"])}, seed)
    raise InvalidInputError(f"unknown trial kind {kind!r}")


def run_trial(kind: str, params: dict, base_seed: int, scenario_idx: int,
              trial: int, tolerance: float) -> TrialRecord:
    rng = rng_from_seed(base_seed, scenario_idx, trial)
    trial_seed = int(rng.integers(0, 2**63 - 1))
    if kind == "fixture":
        name = params.get("name")
        if not isinstance(name, str) or name not in FIXTURES:
            raise InvalidInputError(f"fixture scenario needs a 'name' among {sorted(FIXTURES)}")
        N, idx = FIXTURES[name]
        J = SupportSet.make(N, idx)
        family_label = f"fixture:{name}"
    else:
        try:
            spec = _family_spec_for_trial(kind, params, rng, trial_seed)
        except KeyError as e:
            raise InvalidInputError(f"{kind} scenario params missing key {e}") from None
        except (TypeError, ValueError) as e:  # e.g. "M": "abc", [3] or [5, 3]
            raise InvalidInputError(f"bad {kind} scenario params: {e}") from None
        J = spec.build().support
        family_label = kind
    coeffs = draw_coefficients(len(J), rng, nonzero=True)
    sig = BandlimitedSignal(J, coeffs)
    out = sas_transform(sig, J, tolerance=tolerance)
    err = rel_error(out.coeffs, coeffs)
    return TrialRecord(
        trial=trial,
        family=family_label,
        N=J.N,
        k=len(J),
        size_r=len(out.plan.pivots),
        mu_star=out.plan.mu_star,
        amplification=out.plan.amplification,
        ops_hidft=out.report.ops_hidft,
        ops_solve=out.report.ops_solve,
        ops_total=out.report.total,
        bound_total=out.report.bound_alg1bnd,
        samples=out.report.samples_touched,
        correct=bool(err <= tolerance),
        max_rel_err=err,
        mismatch_nodes=int(out.nodes.mismatch.sum()),
    )


def run_antipodal_scenario(params: dict, base_seed: int, scenario_idx: int,
                           trials: int) -> dict:
    """Fraction of Bernoulli(k/N) subsets of Z_N containing a pair j, j + N/2."""
    M = as_int(params["M"])
    N = 1 << M
    k = as_int(params.get("k", math.isqrt(N) * as_int(params.get("k_factor", 4))))
    hits = 0
    sizes = []
    for t in range(trials):
        kept = _bernoulli_hits(rng_from_seed(base_seed, scenario_idx, t), N, k / N)
        sizes.append(kept.size)
        if np.isin(kept[kept < N // 2] + N // 2, kept).any():
            hits += 1
    return {
        "kind": "antipodal",
        "trials": trials,
        "N": N,
        "k": k,
        "antipodal_fraction": hits / trials,
        "mean_size": float(np.mean(sizes)),
    }


def _pool_worker(args):
    return run_trial(*args)


def run_scenario(scenario: dict, base_seed: int, scenario_idx: int,
                 tolerance: float, threads: int = 1) -> tuple[list[TrialRecord], dict]:
    try:
        kind = scenario["kind"]
        trials = as_int(scenario["trials"])
    except (KeyError, TypeError, ValueError):
        raise InvalidInputError(f"scenario {scenario_idx} needs a 'kind' and an integer 'trials'") from None
    least = 1 if kind == "antipodal" else 0  # an antipodal fraction over no subsets is undefined
    if trials < least:
        raise InvalidInputError(f"scenario {scenario_idx} needs 'trials' >= {least}")
    params = scenario.get("params", {})
    if not isinstance(params, dict):
        raise InvalidInputError(f"scenario {scenario_idx} 'params' must be an object")
    sid = scenario.get("id", f"{kind}-{scenario_idx}")
    if kind == "antipodal":
        try:
            summary = run_antipodal_scenario(params, base_seed, scenario_idx, trials)
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidInputError(f"bad antipodal scenario params: {e!r}") from None
        summary["id"] = sid
        return [], summary
    args = [(kind, params, base_seed, scenario_idx, t, tolerance) for t in range(trials)]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(_pool_worker, args, chunksize=8))
    else:
        records = [run_trial(*a) for a in args]
    records.sort(key=lambda r: r.trial)
    summary = summarize_records(records)
    summary["id"] = sid
    summary["kind"] = kind
    return records, summary


def summarize_records(records: list[TrialRecord]) -> dict:
    n = len(records)
    if n == 0:
        return {"trials": 0}
    mu_exceed = sum(
        1 for r in records if r.k >= 2 and r.mu_star >= C_MU_STAR * math.log2(r.k)
    )
    hidft_exact = sum(
        1
        for r in records
        if r.ops_hidft == round(C1 * r.size_r * (1 << r.size_r)) * r.mu_star
    )
    bound_ok = sum(1 for r in records if r.ops_total <= r.bound_total)
    lower_ok = sum(
        1 for r in records if r.ops_total >= r.k * math.log2(r.k)
    )
    envelope = C_MU_STAR * (C1 + C2 * C_MU_STAR)
    env_ok = sum(
        1
        for r in records
        if r.k < 2 or r.ops_total <= envelope * r.k * math.log2(r.k)
    )
    ratios = [
        r.ops_total / (r.k * math.log2(r.k)) for r in records if r.k >= 2
    ]
    return {
        "trials": n,
        "all_correct": all(r.correct for r in records),
        "frac_correct": sum(r.correct for r in records) / n,
        "max_rel_err": max(r.max_rel_err for r in records),
        "pr_mu_star_ge_c_logk": mu_exceed / n,
        "c_mu_star": C_MU_STAR,
        "hidft_exact_frac": hidft_exact / n,
        "bound_ok_frac": bound_ok / n,
        "lower_bound_ok_frac": lower_ok / n,
        "proof_envelope_ok_frac": env_ok / n,
        "ops_over_klogk_max": max(ratios) if ratios else 0.0,
        "ops_over_klogk_mean": float(np.mean(ratios)) if ratios else 0.0,
        "mismatch_nodes_total": sum(r.mismatch_nodes for r in records),
    }


def run_bench(config: dict, threads: int | None = None) -> tuple[list[TrialRecord], dict]:
    if not isinstance(config.get("scenarios"), list):
        raise InvalidInputError("scenario file needs a 'scenarios' list")
    try:
        base_seed = as_int(config.get("seed", 0))
    except (TypeError, ValueError):
        raise InvalidInputError("scenario file 'seed' must be an integer") from None
    tolerance = config.get("tolerance", 1e-8)
    _check_tolerance(tolerance)
    tolerance = float(tolerance)
    if base_seed < 0:
        raise InvalidInputError(f"seed must be non-negative, not {base_seed}")
    if threads is None:
        try:
            threads = int(os.environ.get("THREADS", "1"))
        except ValueError:
            raise InvalidInputError(f"THREADS must be an integer, not {os.environ['THREADS']!r}") from None
    all_records: list[TrialRecord] = []
    summaries = []
    for idx, sc in enumerate(config["scenarios"]):
        records, summary = run_scenario(sc, base_seed, idx, tolerance, threads)
        base = len(all_records)
        for r in records:
            all_records.append(
                TrialRecord(**{**r.__dict__, "trial": base + r.trial})
            )
        summaries.append(summary)
    return all_records, {
        "name": config.get("name", "bench"),
        "seed": base_seed,
        "tolerance": tolerance,
        "scenarios": summaries,
    }
