"""Benchmark of the monarch_surrogate package.

Run from the repository root:

    python3 perfbench/run.py --workload sine-train --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload paper-shape --seed 1 --seconds 35 --trace 1

--trace 0 prints every end-to-end metric; --trace 1 runs the workload
untraced and then traced, and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Run records (and, when traced, the
spans) are written to .perfbench_out/ at the repository root.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sine-train", "paper-shape", "verify-suite")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "monarch_surrogate" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import gates
    import layers
    import workloads as W
    from spans import Tracer
    from stats import environment, valid_name, valid_unit

    w = W.WORKLOADS[args.workload]
    setup = W.set_up(w)
    if not Path(setup.pkg.training.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported {setup.pkg.training.__file__}, not the source tree",
              file=sys.stderr)
        return 2
    env = environment(ROOT)
    tally = W.Tally()
    tracer = None
    if args.trace:
        untraced = W.end_to_end(setup, W.Pass(setup, w, args.seed, tally).run(args.seconds / 2))
        tracer = Tracer()
        layers.install(tracer, setup.pkg)
    gate = gates.run_gates(setup, tally)
    out = W.Pass(setup, w, args.seed, tally, tracer).run(
        args.seconds / 2 if args.trace else args.seconds)
    e2e = W.end_to_end(setup, out)
    if args.trace:
        tracer.unwrap_all()
        values = layers.span_metrics(tracer, out)
        values.update(layers.role_metrics(setup, args.seed))
        values["structured.muladds_per_fwd"] = gate["muladds_per_fwd"]
        values["data.build_ms"] = W.median(setup.build_ms)
        for name in layers.OVERHEAD_OF:
            values[f"trace.overhead.{name}"] = e2e[name][0] - untraced[name][0]
        metrics = {name: (values[name], unit) for name, unit in layers.per_layer_names()}
    else:
        metrics = e2e

    bad = [n for n, (_, u) in metrics.items() if not (valid_name(n) and valid_unit(u))]
    if bad:
        print(f"error: invalid metric names or units: {bad}", file=sys.stderr)
        return 2

    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("gates " + json.dumps(gate, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {_fmt(value)} {unit}")
    if tracer is not None:
        print("self time per span, traced pass (context, name, calls, total ms, self ms):")
        for row in tracer.table():
            print(f"  {row['context'] or '-':9s} {row['name']:42s} {row['calls']:7d} "
                  f"{row['total_ms']:11.1f} {row['self_ms']:11.1f}")
    share = tally.failed / tally.attempted
    print(f"ops_failed_share = {tally.failed}/{tally.attempted} = {share:.6g} fraction")
    for reason in tally.reasons[:20]:
        print(f"  failed: {reason}")
    flops = setup.pkg.bench.efficiency_ratios(setup.cfg)["flops"]
    infer_ratio = e2e["surrogate.infer_ms_p50"][0] / e2e["dense.infer_ms_p50"][0]
    train_ratio = e2e["dense.train_samples_per_s"][0] / e2e["surrogate.train_samples_per_s"][0]
    print(f"derived surrogate/dense wall ratio: inference p50 {infer_ratio:.3f}, "
          f"training time per window {train_ratio:.3f}; ledger FLOP ratio {flops:.3f}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "gates": gate,
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
              "attempted": tally.attempted, "failed": tally.failed, "reasons": tally.reasons,
              "samples": {k: list(zip(out.at[k], v)) for k, v in out.values.items()}}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.json")

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
