"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --workload struct-dense --seeds 1-10 --seconds 30 [--trace 1]

Runs perfbench/run.py once per seed, one run at a time, and prints for each
metric the median over runs and the spread (third quartile minus first, as
statistics.quantiles(values, n=4) gives them) as a share of the median.
With --trace 0 it also prints the median numpy.fft time at each N, with
--trace 1 each layer's share of the traced wall time.
The figures in README.md come from this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", default="30")
    p.add_argument("--trace", default="0", choices=("0", "1"))
    args = p.parse_args()

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: attempted {runs[-1]['attempted']}, failed {runs[-1]['failed']}, "
              f"correct {runs[-1]['correct']}", flush=True)

    print(f"{'metric':30s} {'unit':>6s} {'median':>14s} {'IQR/median':>11s}")
    medians = {}
    for name, first in runs[0]["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in runs]
        med = medians[name] = statistics.median(vals)
        spread = "-"
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(med):.1%}"
        print(f"{name:30s} {first['unit']:>6s} {med:14.4f} {spread:>11s}")
    if args.trace == "0":
        saved = [json.loads((HERE / "results" / f"{args.workload}-seed{seed}-trace0.json").read_text())
                 for seed in args.seeds]
        print("not gated (they follow the host's speed):")
        for name in ("setup_raw_s", "fft_speedup", "wall_ms.p50", "wall_ms.tail", "transforms_per_s"):
            vals = [r[name] for r in saved if name in r]
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                print(f"{name:30s} {statistics.median(vals):21.4f} {(q3 - q1) / statistics.median(vals):11.1%}")
        by_n: dict[str, list[float]] = {}
        for r in saved:
            for n, ms in r["_fft_ms_by_N"].items():
                by_n.setdefault(n, []).append(ms)
        for n, ms in by_n.items():
            print(f"numpy.fft.fft at N={n}: {statistics.median(ms):.2f} ms")
    if args.trace == "1" and medians.get("trace.wall_ms"):
        print("\nshare of traced wall time (medians):")
        for name, med in medians.items():
            if name.endswith("_ms") and name not in ("trace.wall_ms", "trace.overhead_ms"):
                print(f"  {name:30s} {med / medians['trace.wall_ms']:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
