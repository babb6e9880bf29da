"""Command-line interface: verify checks, benchmark costs, train on sine data.

Each command takes only the flags it reads: verify --out --select --quick;
bench --out --config (scaling builds no model and takes no --config); train
--out --config --seed --variant --epochs; report show --format.  Every
setting has one source: --out writes JSON, and report show --format csv
prints its flat CSV; the seed is --seed (default 0) and the epoch count
--epochs, neither of which a config file sets.  Exit codes: 0 success, 1 a
check or run failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import bench, report as report_mod, verification
from .data import SineSpec, build_dataset
from .errors import ConfigurationError, ContractError, DimensionError
from .training import TrainConfig, train_forecaster


# the keys that train's flags --seed, --variant and --epochs set, per section
FLAG_KEYS = {"train": ("seed", "variant", "epochs"), "data": ("seed",)}
# the keys each --config section may set, with defaults that give their types
CONFIG_DEFAULTS = {
    "model": dataclasses.asdict(bench.ModelConfig()),
    "train": {k: v for k, v in dataclasses.asdict(TrainConfig()).items()
              if k not in FLAG_KEYS["train"]},
    "data": {**{k: v for k, v in dataclasses.asdict(SineSpec()).items()
                if k not in FLAG_KEYS["data"]}, "l_in": 48, "l_out": 24},
}


def _load_config(args, sections: tuple[str, ...]) -> dict:
    """The --config file's sections, each of which must be one the command reads."""
    if not args.config:
        return {}
    with open(args.config, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise ConfigurationError(f"config file {args.config} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"config file {args.config} must hold a JSON object")
    for section, values in cfg.items():
        if section not in sections:
            reads = "; ".join(f"{s} (keys {', '.join(sorted(CONFIG_DEFAULTS[s]))})"
                              for s in sections)
            raise ConfigurationError(f"{args.command} does not read config section {section!r}; "
                                     f"it reads {reads}")
        defaults = CONFIG_DEFAULTS[section]
        if not isinstance(values, dict):
            raise ConfigurationError(f"config section {section!r} must be a JSON object")
        unknown = set(values) - set(defaults)
        for key in sorted(unknown & set(FLAG_KEYS.get(section, ()))):
            raise ConfigurationError(f"{section}.{key} is set by --{key}, not by --config")
        if unknown:
            raise ConfigurationError(
                f"unknown {section} config keys: {sorted(unknown)}; allowed: {sorted(defaults)}")
        for key, value in values.items():
            if isinstance(defaults[key], float):
                ok = isinstance(value, (int, float)) and math.isfinite(value)
                kind = "a finite number"
            else:  # integer keys are counts and sizes
                ok, kind = isinstance(value, int) and value >= 1, "a positive integer"
            if isinstance(value, bool) or not ok:
                raise ConfigurationError(f"{section}.{key} must be {kind}, got {value!r}")
    return cfg


def _emit(args, rep: dict) -> None:
    if args.out:
        report_mod.write_report(args.out, rep)


def cmd_verify(args) -> int:
    vcfg = verification.VerifyConfig(select=args.select,
                                     **(verification.QUICK if args.quick else {}))
    checks = verification.run_all(vcfg)
    rep = report_mod.new_report({"quick": args.quick, "select": args.select})
    rep["checks"] = [c.to_dict() for c in checks]
    failures = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status}  {c.name}  max_abs_diff={c.max_abs_diff:.3e}  "
              f"threshold={c.threshold:.1e}  seeds={c.seeds_run}")
        failures += not c.passed
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    _emit(args, rep)
    return 1 if failures else 0


def cmd_bench(args) -> int:
    if args.what == "scaling" and args.config:  # no model shapes a scaling run
        raise ConfigurationError("bench scaling uses no model and reads no --config")
    overrides = _load_config(args, ("model",))
    cfg = bench.ModelConfig(**overrides.get("model", {}))
    rep = report_mod.new_report({} if args.what == "scaling" else {"model": cfg.__dict__})
    status = 0
    if args.what == "params":
        rep["params"] = {
            "surrogate": bench.count_params(cfg, "surrogate"),
            "dense": bench.count_params(cfg, "dense"),
            "ratio": bench.efficiency_ratios(cfg)["params"],
        }
        print(json.dumps(rep["params"], indent=2))
    elif args.what == "flops":
        meter = bench.check_ledger_matches_meter(cfg)
        rep["flops"] = {
            "surrogate": bench.count_muladds(cfg, "surrogate"),
            "dense": bench.count_muladds(cfg, "dense"),
            "ratio": bench.efficiency_ratios(cfg)["flops"],
            "meter": meter,
        }
        print(json.dumps(rep["flops"], indent=2))
        if not meter["match"]:
            print("FAIL: analytic ledger disagrees with runtime meter", file=sys.stderr)
            status = 1
    else:  # scaling
        rep["scaling"] = {
            "analytic": bench.analytic_scaling(),
            "wallclock": bench.measure_wallclock(),
        }
        print(json.dumps(rep["scaling"], indent=2))
    _emit(args, rep)
    return status


def cmd_train(args) -> int:
    if args.seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {args.seed}")
    overrides = _load_config(args, ("train", "data"))
    data_cfg = {**CONFIG_DEFAULTS["data"], **overrides.get("data", {})}
    l_in, l_out = data_cfg.pop("l_in"), data_cfg.pop("l_out")
    series = SineSpec(seed=args.seed, **data_cfg).generate()
    dataset = build_dataset(series, l_in, l_out)
    tcfg = TrainConfig(seed=args.seed, variant=args.variant, epochs=args.epochs,
                       **overrides.get("train", {}))
    result = train_forecaster(dataset, tcfg)
    rep = report_mod.new_report(
        {"seed": args.seed, "data": {**data_cfg, "l_in": l_in, "l_out": l_out},
         "train": tcfg.__dict__}
    )
    rep["training"] = dataclasses.asdict(result)
    print(f"variant={result.variant} epochs={result.epochs_run} "
          f"best_epoch={result.best_epoch} test_mse={result.test_mse:.6f} "
          f"test_mae={result.test_mae:.6f} wall={result.wall_seconds:.1f}s")
    _emit(args, rep)
    return 1 if result.failed else 0


def cmd_report(args) -> int:
    rep = report_mod.read_report(args.path)
    if args.format == "csv":
        sys.stdout.write(report_mod.report_csv(rep))
    else:
        print(json.dumps(rep, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msb", description="Monarch surrogate blocks: verify, benchmark, train."
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="write a JSON run report to this path")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None, help="JSON file with overrides")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[output], help="run all correctness checks")
    p.add_argument("--select", nargs="*", default=None,
                   help="only run checks whose name contains one of these substrings")
    p.add_argument("--quick", action="store_true", help="reduced seed counts")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", parents=[output, config], help="cost accounting and scaling")
    p.add_argument("what", choices=("params", "flops", "scaling"))
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train", parents=[output, config], help="train a forecaster")
    p.add_argument("task", choices=("sine",))
    p.add_argument("--seed", type=int, default=0, help="RNG seed, >= 0")
    p.add_argument("--variant", choices=("surrogate", "dense"), default="surrogate")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("report", help="inspect a saved run report")
    p.add_argument("action", choices=("show",))
    p.add_argument("path")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="print the report as JSON or as flat key,value CSV")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ContractError, DimensionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
