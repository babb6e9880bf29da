"""End-to-end acceptance suite.

Each test covers one headline guarantee, prints a single pass/fail line,
and asserts the stated tolerance.
"""

import time

import numpy as np

from monarch_surrogate import verification as V
from monarch_surrogate.bench import (
    ModelConfig,
    analytic_scaling,
    efficiency_ratios,
    measure_wallclock,
)
from monarch_surrogate.cli import main as cli_main
from monarch_surrogate.data import SineSpec, build_dataset
from monarch_surrogate.report import read_report
from monarch_surrogate.structured import monarch_new
from monarch_surrogate.training import TrainConfig, train_forecaster


def _verdict(num: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num:2d} [{name}]: {status}{suffix}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_factored_apply_matches_dense_oracle():
    t0 = time.perf_counter()
    res = V.check_monarch_oracle(seeds=100)
    elapsed = time.perf_counter() - t0
    ok = res.passed and elapsed < 10.0
    _verdict(1, "monarch oracle", ok,
             f"max_abs_diff={res.max_abs_diff:.2e} <= 1e-10, {elapsed:.1f}s")


def test_criterion_02_parameter_count_law():
    sizes = (4, 16, 64, 256, 1024, 4096)
    exact = all(
        monarch_new(n, np.random.default_rng(n)).param_count == 2 * round(n**1.5)
        for n in sizes
    )
    _verdict(2, "parameter law 2*n^1.5", exact, f"sizes {sizes}")


def test_criterion_03_diagonal_attention_equals_sum_of_convolutions():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (8, 16, 64):
        for heads in (1, 2, 4):
            for lam in (1, 3, 5):
                res = V.check_theorem_diagonal(n, lam, heads, seeds=100)
                worst = np.maximum(worst, res.max_abs_diff)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    _verdict(3, "diagonal theorem", ok,
             f"worst={worst:.2e} <= 1e-8, {elapsed:.1f}s")


def test_criterion_04_vertical_attention_equals_fixed_tap_form():
    worst_eq = 0.0
    worst_rows = 0.0
    for n in (8, 16, 64):
        for heads in (1, 2, 4):
            for lam in (1, 2, 4):
                eq, rows = V.check_theorem_vertical(n, lam, heads, seeds=100)
                worst_eq = np.maximum(worst_eq, eq.max_abs_diff)
                worst_rows = np.maximum(worst_rows, rows.max_abs_diff)
    ok = worst_eq <= 1e-8 and worst_rows <= 1e-12
    _verdict(4, "vertical theorem", ok,
             f"eq={worst_eq:.2e} <= 1e-8, rows={worst_rows:.2e} <= 1e-12")


def test_criterion_05_expressiveness_identities():
    # worked example first: x = (2, 3, 5, 7) gives y1 = 12 and y2 = 20
    details = []
    ok = True
    for mode, k in (("short_term", 1), ("long_term", 2)):
        c = V.build_expressiveness(4, mode, k)
        res = V.check_expressiveness(c, seeds=1000)
        ok &= res.passed
        details.append(f"{mode} n=4 k={k}: {res.max_abs_diff:.2e}")
    for mode in ("short_term", "long_term"):
        for n in (4, 16):
            for k in (1, n - 1):
                c = V.build_expressiveness(n, mode, k)
                res = V.check_expressiveness(c, seeds=200)
                ok &= res.passed
    _verdict(5, "expressiveness identities", ok,
             "; ".join(details) + " <= 1e-12; general n in {4,16}, k in {1,n-1}")


def test_criterion_06_lti_decomposition():
    res = V.check_lti_decomposition(seeds=100)
    _verdict(6, "LTI decomposition", res.passed,
             f"max_abs_diff={res.max_abs_diff:.2e} <= 1e-10, A=0 memoryless exact")


def test_criterion_07_gradients_match_finite_differences():
    res = V.check_layer_gradients(probes=50)
    _verdict(7, "gradient correctness", res.passed,
             f"worst rel err={res.max_abs_diff:.2e} <= 1e-4 over 50 probes")


def test_criterion_08_complexity_scaling():
    t0 = time.perf_counter()
    analytic = analytic_scaling()
    wall = measure_wallclock()
    elapsed = time.perf_counter() - t0
    ok = (
        abs(analytic["monarch_exponent"] - 1.5) < 1e-9
        and abs(analytic["dense_exponent"] - 2.0) < 1e-9
        and 1.3 <= wall["exponent"] <= 1.8
        and elapsed < 120.0
    )
    _verdict(8, "complexity scaling", ok,
             f"analytic 1.5/2.0 exact, wallclock={wall['exponent']:.2f} in [1.3,1.8]")


def test_criterion_09_efficiency_direction():
    r = efficiency_ratios(ModelConfig())
    ok = 0.15 <= r["params"] <= 0.45 and 0.15 <= r["flops"] <= 0.50
    _verdict(9, "efficiency direction", ok,
             f"param ratio={r['params']:.3f} in [0.15,0.45], "
             f"flop ratio={r['flops']:.3f} in [0.15,0.50]")


def test_criterion_10_sine_forecasting():
    t0 = time.perf_counter()
    series = SineSpec(samples=480, period=24.0).generate()
    dataset = build_dataset(series, l_in=48, l_out=24)
    cfg = TrainConfig(epochs=10, seed=0)
    res = train_forecaster(dataset, cfg)
    rerun = train_forecaster(dataset, TrainConfig(epochs=2, seed=0))
    rerun2 = train_forecaster(dataset, TrainConfig(epochs=2, seed=0))
    elapsed = time.perf_counter() - t0
    ok = (
        not res.failed
        and res.test_mse < 0.05
        and cfg.epochs <= 200
        and rerun.test_mse == rerun2.test_mse
        and elapsed < 300.0
    )
    _verdict(10, "sine forecasting", ok,
             f"test MSE={res.test_mse:.4f} < 0.05 after {cfg.epochs} epochs, "
             f"deterministic, {elapsed:.0f}s")


def test_criterion_11_verify_cli_full_run(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = cli_main(["verify", "--out", str(out)])
    capsys.readouterr()  # the per-check table is validated via the report
    rep = read_report(out)  # raises on schema violations
    n_checks = len(rep["checks"])
    ok = code == 0 and n_checks > 0 and all(c["passed"] for c in rep["checks"])
    _verdict(11, "verify CLI", ok,
             f"exit 0, schema-valid report, {n_checks} checks passed")
