"""Command-line interface: analyze / transform / bench / gen.

File formats (all JSON, canonically serialized: sorted keys, floats at 17
significant digits):

  support file   {"N": int, "indices": [int, ...]}        indices ascending
  signal file    {"N": int, "support": [...], "coeffs": [[re, im], ...]}
  spectrum file  mirrors the signal file

Exit codes: 0 ok, 2 input error, 3 contract violation, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .bench import CSV_COLUMNS, run_bench
from .congruence import SupportSet, build_tree, classify, pivots
from .core import BandlimitedSignal, dft_direct, fft_radix2
from .counting import CostReport
from .errors import BudgetExceededError, ContractViolationError, InvalidInputError
from .families import FamilySpec, doubling, draw_coefficients, rng_from_seed
from .hidft import butterfly_ops, hidft, hidft_to_dft
from .sas import _prepared, sas_transform, submatrix_method

ORACLE_SIZE_CAP = 1 << 12
FFT_SIZE_CAP = 1 << 22


# canonical serialization ------------------------------------------------------


def _canonical(obj):
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise InvalidInputError("non-finite float in output")
        return float(format(obj, ".17g"))
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _canonical(float(obj))
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_json(obj, path: str | None) -> str:
    text = json.dumps(_canonical(obj), sort_keys=True, indent=2) + "\n"
    if path and path != "-":
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InvalidInputError(f"no such file: {path}") from None
    except json.JSONDecodeError as e:
        raise InvalidInputError(f"malformed JSON in {path}: {e}") from None


def load_support(path: str) -> SupportSet:
    obj = _load_json(path)
    try:
        return SupportSet.make(int(obj["N"]), [int(j) for j in obj["indices"]])
    except (KeyError, TypeError) as e:
        raise InvalidInputError(f"bad support file {path}: {e}") from None


def support_to_json(J: SupportSet) -> dict:
    return {"N": J.N, "indices": list(J.indices)}


def load_signal(path: str) -> BandlimitedSignal:
    obj = _load_json(path)
    try:
        J = SupportSet.make(int(obj["N"]), [int(j) for j in obj["support"]])
        coeffs = np.asarray([complex(re, im) for re, im in obj["coeffs"]])
    except (KeyError, TypeError, ValueError) as e:
        raise InvalidInputError(f"bad signal file {path}: {e}") from None
    return BandlimitedSignal(J, coeffs)


def signal_to_json(J: SupportSet, coeffs) -> dict:
    return {
        "N": J.N,
        "support": list(J.indices),
        "coeffs": [[float(c.real), float(c.imag)] for c in np.asarray(coeffs)],
    }


# analyze -----------------------------------------------------------------------


def _tree_ascii(tree) -> list[str]:
    lines = []
    for level in range(tree.depth + 1):
        for node in tree.nodes_at_level(level):
            lines.append(
                "  " * level
                + f"L{level} res={node.residue} weight={node.weight} members={list(node.members)}"
            )
    return lines


def _tree_dot(tree) -> str:
    out = ["digraph congruence_tree {"]
    for level in range(tree.depth + 1):
        for node in tree.nodes_at_level(level):
            nid = f"n{level}_{node.residue}"
            out.append(f'  {nid} [label="{node.residue} mod 2^{level}\\nw={node.weight}"];')
            if level > 0:
                parent = tree.parent(node)
                out.append(f"  n{level-1}_{parent.residue} -> {nid};")
    out.append("}")
    return "\n".join(out)


def cmd_analyze(args) -> int:
    J = load_support(args.support)
    cls = classify(J)
    p = cls.pivots
    depth = min((p[-1] + 1) if p else 0, J.M)
    tree = build_tree(J, depth)
    report = {
        "N": J.N,
        "k": len(J),
        "pivots": list(p),
        "classification": cls.kind,
        "mu_star_profile": [tree.max_weight_at_level(l) for l in range(depth + 1)],
        "doubling": doubling(J) if len(J) <= (1 << 12) else None,
    }
    if args.binary:
        width = J.M
        report["indices_binary"] = [format(j, f"0{width}b") for j in J.indices]
    if args.tree == "ascii":
        report["tree"] = _tree_ascii(tree)
    elif args.tree == "dot":
        report["tree_dot"] = _tree_dot(tree)
    text = dump_json(report, args.out)
    if not args.out:
        sys.stdout.write(text)
    return 0


# transform ---------------------------------------------------------------------


def _parse_pivots(text: str | None):
    if text is None:
        return None
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise InvalidInputError(f"bad --pivots value {text!r}") from None


def cmd_transform(args) -> int:
    sig = load_signal(args.signal)
    J = sig.support
    explicit_r = _parse_pivots(args.pivots)
    extra = {}  # the sas plan, flagged nodes and probe check, reported beside the cost
    if args.algo in ("oracle", "fft"):
        cap, full_transform = ((ORACLE_SIZE_CAP, dft_direct) if args.algo == "oracle"
                               else (FFT_SIZE_CAP, fft_radix2))
        if J.N > cap:
            raise BudgetExceededError(f"{args.algo} transform capped at N <= {cap}")
        coeffs = full_transform(sig.synthesize())[list(J.indices)]
        # the full-length transform's counted ops, reported as the butterfly's:
        # N^2 products and N(N - 1) sums, or the radix-2 count
        N = J.N
        adds, mults = (N * (N - 1), N * N) if args.algo == "oracle" else butterfly_ops(J.M, 1, N)
        cost = CostReport(hidft_adds=adds, hidft_mults=mults, samples_touched=N)
    elif args.algo == "submatrix":
        coeffs = submatrix_method(J, sig, tolerance=args.tolerance)
        cost = _prepared(J, ())[0].report
    elif args.algo == "hidft":
        r = explicit_r if explicit_r is not None else pivots(J)
        height = args.height if args.height is not None else 0
        res = hidft(sig, J, r, height=height)
        # hidft_to_dft scales by N / k: one product per coefficient, none when it is 1
        read = 0 if args.height is not None or J.N == len(J) else len(J)
        cost = CostReport(hidft_adds=res.ops_adds, hidft_mults=res.ops_mults, read_ops=read,
                          samples_touched=len(res.slot_values))
        if args.height is not None:
            report = {
                "N": J.N,
                "level": res.level,
                "height": res.height,
                "nodes": {
                    str(k): [v.real, v.imag] for k, v in res.values.items()
                },
                "cost": cost.as_dict(),
            }
            text = dump_json(report, args.out)
            if not args.out:
                sys.stdout.write(text)
            return 0
        coeffs = hidft_to_dft(res)
    elif args.algo == "sas":
        out = sas_transform(sig, J, r=explicit_r, tolerance=args.tolerance)
        coeffs = out.coeffs
        cost = out.report
        extra["plan"] = {f: getattr(out.plan, f)
                         for f in ("pivots", "decode_level", "mu_star", "stride", "cond_bound", "decode")}
        # how the butterfly runs its stages: numpy.fft runs, fused groups, radix-2 stages
        extra["plan"]["butterfly"] = _prepared(J, out.plan.pivots)[0].butterfly.layout
        extra["mismatch_nodes"] = int(out.nodes.mismatch.sum())
        extra["probe_error"], extra["flagged"] = out.probe_error, out.flagged  # None, False: matrix plan
    else:
        raise InvalidInputError(f"unknown algo {args.algo!r}")
    spectrum = signal_to_json(J, coeffs)
    if args.out:
        dump_json(spectrum, args.out)
    payload = {"algo": args.algo, "cost": cost.as_dict(), **extra}
    if not args.out:
        payload["spectrum"] = spectrum
    sys.stdout.write(dump_json(payload, None))
    return 0


# bench -------------------------------------------------------------------------


def records_to_csv(records) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in records:
        row = r.as_row()
        row = [
            format(x, ".17g") if isinstance(x, float) else (int(x) if isinstance(x, bool) else x)
            for x in row
        ]
        w.writerow(row)
    return buf.getvalue()


def cmd_bench(args) -> int:
    config = _load_json(args.scenario)
    if not isinstance(config, dict):
        raise InvalidInputError(f"scenario file {args.scenario} must hold a JSON object")
    if args.seed is not None:
        config["seed"] = args.seed
    if args.tolerance is not None:
        config["tolerance"] = args.tolerance
    records, summary = run_bench(config, threads=args.threads)
    csv_text = records_to_csv(records)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(csv_text)
    text = dump_json(summary, args.summary)
    if not args.summary:
        sys.stdout.write(text)
    return 0


# gen ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as e:
        raise InvalidInputError(f"bad --params JSON: {e}") from None
    spec = FamilySpec(args.kind, params, args.seed)
    inst = spec.build()
    J = inst.support
    dump_json(support_to_json(J), args.out)
    result = {
        "kind": args.kind,
        "N": J.N,
        "k": len(J),
        "pivots": list(pivots(J)),
        "classification": classify(J).kind,
        "out": args.out,
    }
    if args.signal:
        rng = rng_from_seed(args.seed, 100)
        coeffs = draw_coefficients(len(J), rng, nonzero=args.nonzero)
        dump_json(signal_to_json(J, coeffs), args.signal)
        result["signal"] = args.signal
    sys.stdout.write(dump_json(result, None))
    return 0


# entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="structfft",
        description="structured-support DFT toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="pivots, classification, weights of a support set")
    a.add_argument("support", help="support JSON file")
    a.add_argument("--binary", action="store_true", help="include index bit patterns")
    a.add_argument("--tree", choices=["none", "ascii", "dot"], default="none")
    a.add_argument("--out", default=None)
    a.set_defaults(func=cmd_analyze)

    t = sub.add_parser("transform", help="compute DFT coefficients on the support")
    t.add_argument("--signal", required=True, help="signal JSON file")
    t.add_argument("--algo", required=True,
                   choices=["oracle", "fft", "submatrix", "hidft", "sas"])
    t.add_argument("--pivots", default=None, help="explicit pivot vector, e.g. 0,1,9")
    t.add_argument("--height", type=int, default=None,
                   help="emit node values at this height instead of coefficients")
    t.add_argument("--tolerance", type=float, default=1e-8)
    t.add_argument("--out", default=None, help="spectrum output file")
    t.set_defaults(func=cmd_transform)

    b = sub.add_parser("bench", help="run a seeded scenario file")
    b.add_argument("scenario", help="scenario JSON file")
    b.add_argument("--csv", default=None, help="per-trial CSV output")
    b.add_argument("--summary", default=None, help="summary JSON output")
    b.add_argument("--seed", type=int, default=None, help="override scenario seed")
    b.add_argument("--tolerance", type=float, default=None)
    b.add_argument("--threads", type=int, default=None,
                   help="trial-level worker pool (default: THREADS env or 1)")
    b.set_defaults(func=cmd_bench)

    g = sub.add_parser("gen", help="generate a support (and optionally a signal)")
    g.add_argument("--kind", required=True)
    g.add_argument("--params", required=True, help="JSON parameter object")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="support output file")
    g.add_argument("--signal", default=None, help="signal output file")
    g.add_argument("--nonzero", action="store_true",
                   help="force nonzero coefficients on every support index")
    g.set_defaults(func=cmd_gen)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except ContractViolationError as e:
        print(f"contract violation: {e}", file=sys.stderr)
        return 3
    except BudgetExceededError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
