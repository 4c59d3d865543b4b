"""Benchmark of structfft.sas_transform, end to end and layer by layer.

    python3 perfbench/run.py --workload homog-dense --seed 1 --seconds 30 --trace 0

One caller, one thread, a closed loop: each call starts after the previous
one returned.  `--trace 0` times whole `sas_transform` calls, each next to a
`numpy.fft.fft` at the same N, checks every output and prints the
end-to-end metrics.  `--trace 1` alternates untraced and traced calls on the
same inputs and prints the per-layer metrics.  The last line of stdout is
one JSON object; README.md defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

TOLERANCE = 1e-8          # relative error allowed on every coefficient
MIN_SAMPLES = 40          # fewest timed calls per run, so the tail has 10 beyond it
MAX_LOOP_S = 120.0        # no new round starts after this long
SETUP_RUNS = 3            # setups timed per run: two child processes and this one

PROBE_REPS = 400          # probe size: 11 to 20 ms on a 2-vCPU VM
PROBE_REF_S = 0.011       # the probe's time on that VM in its fast phase

# end-to-end metrics gated in BENCHMARK.json: none of them scales with the
# host's speed, which on a shared VM drifts by a third within minutes
E2E_UNITS = {
    "wall_per_probe": "x",
    "ops_per_transform": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed and saved with every run, not gated: they follow the host's speed
# phases further than any bound can hold (README.md, "Drift")
UNGATED_UNITS = {
    "setup_raw_s": "s",
    "fft_speedup": "x",
    "wall_ms.p50": "ms",
    "wall_ms.tail": "ms",
    "transforms_per_s": "1/s",
}
# per-layer counts read from each traced call's SasResult
REPORT_LAYER_METRICS = {
    "congruence.tree_bitops": lambda res: res.report.tree_build_bitops,
    "hidft.ops": lambda res: res.report.ops_hidft,
    "sas.solve_ops": lambda res: res.report.ops_solve,
    "sas.mu_star": lambda res: res.plan.mu_star,
    "sas.escalated_nodes": lambda res: res.report.escalated_nodes,
    "sas.dense_fallbacks": lambda res: res.report.dense_fallbacks,
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("homog-dense", "struct-dense", "struct-synth"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """Import, input generation and one warm-up transform per instance."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    instances = workloads.build(workload, seed)
    for inst in instances:
        call(inst)
    return time.perf_counter() - t0, instances


def call(inst):
    from structfft import sas_transform

    return sas_transform(inst.source, inst.support, policy=inst.policy,
                         family_meta=inst.meta, tolerance=TOLERANCE)


def make_probe():
    """A fixed kernel of the work `sas_transform` is made of: small numpy calls.

    Timed beside each call, it divides the host's current speed out of the
    call's wall time.  A full-length numpy.fft does not: in this host's slow
    phases it slows by a quarter while `sas_transform` and this probe slow
    by a half.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    vec = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    mat = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))

    def probe():
        acc = 0j
        for i in range(PROBE_REPS):
            acc += np.fft.fft(vec)[i % 256]
            acc += np.linalg.solve(mat, vec[:16])[i % 16]
            acc += np.vander(vec[:8], 8, increasing=True).sum()
        return acc

    return probe


def child_setup_seconds(args) -> float:
    """Time one setup in a fresh interpreter, so imports and caches start cold."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def check(inst, res, spectrum) -> tuple[float, list[str]]:
    """Largest relative coefficient error, and what is wrong with the output.

    Checked apart from the program: the coefficients against the planted
    spectrum, for dense sources also against numpy.fft.fft(x)[J], and the
    counted-op properties ops_hidft == mu* round(1.5 s 2^s) and
    ops_total <= bound_alg1bnd.
    """
    import numpy as np

    got = np.asarray(res.coeffs)
    err = float(np.max(np.abs(got - inst.planted) / np.abs(inst.planted)))
    bad = [] if err <= TOLERANCE else [f"rel err {err:.2e} vs planted spectrum"]
    if spectrum is not None:
        want = spectrum[inst.support.as_array()]
        err_fft = float(np.max(np.abs(got - want) / np.abs(want)))
        if not err_fft <= TOLERANCE:
            bad.append(f"rel err {err_fft:.2e} vs numpy.fft")
        err = max(err, err_fft)
    rep, s = res.report, len(res.plan.pivots)
    ops_hidft = res.plan.mu_star * round(1.5 * s * (1 << s))
    if rep.ops_hidft != ops_hidft:
        bad.append(f"ops_hidft {rep.ops_hidft} != mu* round(1.5 s 2^s) = {ops_hidft}")
    if not rep.total <= rep.bound_alg1bnd:
        bad.append(f"ops_total {rep.total} > bound_alg1bnd {rep.bound_alg1bnd}")
    return err, bad


def guarded(fn):
    """Run one transform; an exception counts as a failed output."""
    try:
        return fn(), None
    except Exception as exc:  # a failing call must not stop the run
        traceback.print_exc()
        return None, f"{type(exc).__name__}: {exc}"


class Tally:
    """Attempted and failed transforms, and whether every failure is the known one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.by_instance: dict[str, dict] = {}

    def record(self, inst, res, error, spectrum=None) -> bool:
        self.attempted += 1
        row = self.by_instance.setdefault(inst.label, {"calls": 0, "failed": 0, "max_err": 0.0})
        row["calls"] += 1
        bad = [error] if error else []
        if res is not None:
            err, bad = check(inst, res, spectrum)
            row["max_err"] = max(row["max_err"], err)
        if not bad:
            return True
        self.failed += 1
        row["failed"] += 1
        row["why"] = bad
        # known fault: dense sources on the fixed ill-conditioned instances
        if not (inst.fixed and inst.dense):
            self.unexpected.append(f"{inst.label}: {'; '.join(bad)}")
        return False


def rounds(instances, seconds: float):
    """Yield instances in whole rounds until the run has lasted `seconds`."""
    t0 = time.perf_counter()
    n = 0
    while True:
        for inst in instances:
            yield inst
            n += 1
        elapsed = time.perf_counter() - t0
        if (elapsed >= seconds and n >= MIN_SAMPLES) or elapsed >= MAX_LOOP_S:
            return


def untraced_run(instances, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Gated end-to-end metrics, and the ungated ones and details printed beside them."""
    import numpy as np

    probe = make_probe()
    probe()
    walls, ffts, probes, ops, labels = [], [], [], [], []
    fft_by_n: dict[int, list[float]] = {}
    good = 0
    for inst in rounds(instances, seconds):
        gc.collect()
        t0 = time.perf_counter()
        spectrum = np.fft.fft(inst.reference)
        t1 = time.perf_counter()
        probe()
        t2 = time.perf_counter()
        gc.collect()
        t3 = time.perf_counter()
        res, error = guarded(lambda: call(inst))
        t4 = time.perf_counter()
        walls.append(t4 - t3)
        ffts.append(t1 - t0)
        probes.append(t2 - t1)
        labels.append(inst.label)
        fft_by_n.setdefault(inst.N, []).append((t1 - t0) * 1e3)
        if res is not None:
            ops.append(res.report.total)
        if tally.record(inst, res, error, spectrum if inst.dense else None):
            good += 1
    n = len(walls)
    # per instance, the median of a ratio over its calls; the geometric mean
    # over instances weighs every instance alike, whatever its N
    def per_instance(ratios):
        ratios = list(ratios)
        return {lb: statistics.median(r for l2, r in zip(labels, ratios) if l2 == lb)
                for lb in dict.fromkeys(labels)}

    speedups = per_instance(f / w for f, w in zip(ffts, walls))
    relative = per_instance(w / p for w, p in zip(walls, probes))
    metrics = {
        "wall_per_probe": statistics.geometric_mean(relative.values()),
        "ops_per_transform": statistics.fmean(ops) if ops else float("nan"),
    }
    ungated = {
        "fft_speedup": statistics.geometric_mean(speedups.values()),
        "wall_ms.p50": statistics.median(walls) * 1e3,
        "transforms_per_s": good / sum(walls),
    }
    if n >= MIN_SAMPLES:
        tail_index = n - 11  # ten samples lie beyond it
        ungated["wall_ms.tail"] = sorted(walls)[tail_index] * 1e3
        ungated["_tail_percentile"] = 100.0 * (tail_index + 1) / n
    return metrics, dict(ungated, **{
        "_samples": n,
        "_speedup_by_instance": speedups,
        "_wall_per_probe_by_instance": relative,
        "_probe_ms": statistics.median(probes) * 1e3,
        "_fft_ms_by_N": {str(N): statistics.median(v) for N, v in sorted(fft_by_n.items())},
        "_calls": [[lb, w * 1e3, f * 1e3, p * 1e3] for lb, w, f, p in zip(labels, walls, ffts, probes)],
    })


def traced_run(instances, seconds: float, tally: Tally):
    import numpy as np
    import spans

    # dense sources are also checked against numpy.fft, computed once per instance
    spectra = [np.fft.fft(inst.source) if inst.dense else None for inst in instances]
    tracer = spans.Tracer()
    untraced, traced, counts = [], [], []
    for tid, inst in enumerate(rounds(instances, seconds)):
        spectrum = spectra[tid % len(instances)]
        gc.collect()
        t0 = time.perf_counter()
        res, error = guarded(lambda: call(inst))
        t1 = time.perf_counter()
        tally.record(inst, res, error, spectrum)
        gc.collect()
        with tracer.installed():
            t2 = time.perf_counter()
            res_t, error_t = guarded(lambda: tracer.transform(tid, call, inst))
            t3 = time.perf_counter()
        tally.record(inst, res_t, error_t, spectrum)
        untraced.append(t1 - t0)
        traced.append(t3 - t2)
        if res_t is not None:  # keep numbers only: live results would slow every gc pass
            counts.append({name: value_of(res_t) for name, value_of in REPORT_LAYER_METRICS.items()})
    totals = spans.layer_totals(tracer.spans)
    n = len(traced)
    metrics = {}
    for name in spans.all_layer_metrics() + ["trace.wall_ms"]:
        metrics[name] = sum(totals[t].get(name, 0.0) for t in range(n)) / n
    for name in REPORT_LAYER_METRICS:
        metrics[name] = statistics.fmean(c[name] for c in counts) if counts else float("nan")
    metrics["trace.overhead_ms"] = statistics.median(
        (b - a) * 1e3 for a, b in zip(untraced, traced))
    return metrics, tracer.spans


def unit_of(name: str) -> str:
    units = dict(E2E_UNITS, **UNGATED_UNITS)
    if name in units:
        return units[name]
    return "ms" if name.endswith("_ms") else "count"


def write_json(path: Path, obj) -> None:
    RESULTS.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "structfft" / "__init__.py").is_file():
        print(f"structfft sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is imported, here and in children

    if args.setup_only:
        seconds, _ = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    setups = [] if args.trace else [child_setup_seconds(args) for _ in range(SETUP_RUNS - 1)]
    seconds, instances = setup(args.workload, args.seed)
    setups.append(seconds)
    tally = Tally()
    stem = f"{args.workload}-seed{args.seed}"

    if args.trace:
        metrics, recorded = traced_run(instances, args.seconds, tally)
        write_json(RESULTS / f"trace-{stem}.json", {
            "fields": ["name", "start", "end", "parent", "transform", "items"],
            "spans": recorded,
        })
        extra = {}
    else:
        metrics, extra = untraced_run(instances, args.seconds, tally)
        # set-up seconds at the host's reference speed: the median set-up
        # scaled by how much slower than PROBE_REF_S the probe ran in the
        # timed loop.  A probe timed right after each set-up is too short a
        # sample of a 2 to 4 s set-up; the loop's median over its 40 to 130
        # probes follows the host's slower phases, which last minutes.
        metrics["setup_s"] = statistics.median(setups) * PROBE_REF_S / (extra["_probe_ms"] / 1e3)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        extra["setup_raw_s"] = statistics.median(setups)
        extra["setup_runs_s"] = setups

    correct = not tally.unexpected
    out = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    write_json(RESULTS / f"{stem}-trace{args.trace}.json",
               dict(out, instances=tally.by_instance, unexpected=tally.unexpected, **extra))

    print(f"{args.workload} seed {args.seed}: {len(instances)} instances, "
          f"{tally.attempted} transforms attempted, {tally.failed} failed")
    for label, row in tally.by_instance.items():
        print(f"  {label:22s} calls {row['calls']:4d}  failed {row['failed']:4d}  "
              f"max rel err {row['max_err']:.1e}")
    for label, speedup in extra.get("_speedup_by_instance", {}).items():
        print(f"  {label:22s} fft_speedup {speedup:8.4f} x  "
              f"wall_per_probe {extra['_wall_per_probe_by_instance'][label]:8.4f} x")
    for name, v in metrics.items():
        print(f"  {name:28s} {v:14.4f} {unit_of(name)}")
    ungated = [name for name in UNGATED_UNITS if name in extra]
    if ungated:
        print(f"  not gated, they follow the host's speed ({extra['_samples']} calls, "
              f"probe {extra['_probe_ms']:.2f} ms):")
    for name in ungated:
        note = f"  (p{extra['_tail_percentile']:.1f})" if name == "wall_ms.tail" else ""
        print(f"  {name:28s} {extra[name]:14.4f} {unit_of(name)}{note}")
    for msg in tally.unexpected[:5]:
        print(f"  unexpected failure: {msg}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
