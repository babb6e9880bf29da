"""Unit tests for parameter/FLOP accounting and scaling fits."""

import numpy as np
import pytest

from monarch_surrogate.bench import (
    ModelConfig,
    analytic_scaling,
    check_ledger_matches_meter,
    count_muladds,
    count_params,
    efficiency_ratios,
    fit_scaling_exponent,
    measure_wallclock,
    monarch_param_count,
)
from monarch_surrogate.errors import ConfigurationError
from monarch_surrogate.training import ForecasterParams


def test_model_config_derived_sizes():
    cfg = ModelConfig()
    assert cfg.d_head == 64
    assert cfg.n_pad == 100
    assert cfg.d_ffn == 2116
    with pytest.raises(ConfigurationError):
        ModelConfig(d_model=10, heads=3)
    with pytest.raises(ConfigurationError):
        ModelConfig(heads=0)


def test_param_counts_reference_values():
    cfg = ModelConfig()
    dense = count_params(cfg, "dense")
    assert dense["layer"]["attn_proj"] == 3 * 512 * 512
    assert dense["layer"]["ffn"] == 2 * 512 * 2048
    surro = count_params(cfg, "surrogate")
    assert surro["layer"]["attn_seq"] == 2 * monarch_param_count(100) == 4000
    assert surro["layer"]["attn_proj"] == 3 * 8 * 2 * 512
    assert surro["total"] < dense["total"]
    with pytest.raises(ConfigurationError):
        count_params(cfg, "sparse")


def test_muladd_counts_reference_values():
    cfg = ModelConfig()
    dense = count_muladds(cfg, "dense")
    assert dense["layer"]["attn_scores"] == 96 * 96 * 512
    assert dense["layer"]["ffn"] == 2 * 96 * 512 * 2048
    assert dense["flops"] == 2 * dense["total"]
    surro = count_muladds(cfg, "surrogate")
    # each FFN apply runs 2116 * 96 multiply-adds per grid row it touches:
    # ceil(512 / 46) = 12 of the 46 on the padded side, all 46 on the other
    assert surro["layer"]["ffn"] == 2 * 2116 * 96 * (12 + 46)
    with pytest.raises(ConfigurationError):
        count_muladds(cfg, "sparse")


@pytest.mark.parametrize("cfg, totals", [
    (ModelConfig(), {"surrogate": 2_544_384, "dense": 7_475_712}),
    (ModelConfig(d_model=16, heads=2, n_seq=48, layers=1, d_ff=64),  # msb train sine
     {"surrogate": 22_544, "dense": 21_584}),
    (ModelConfig(d_model=15, heads=3, n_seq=30, layers=2, d_ff=40, l_out=7),
     {"surrogate": 9_539, "dense": 7_485}),
], ids=["paper", "sine", "odd"])
@pytest.mark.parametrize("variant", ["surrogate", "dense"])
def test_param_ledger_matches_live_model(cfg, totals, variant):
    params = ForecasterParams.create(variant, cfg.n_seq, cfg.l_out, cfg.d_model, cfg.heads,
                                     cfg.layers, cfg.d_ff, np.random.default_rng(0))
    live = sum(p.data.size for p in params.parameters())
    assert live == count_params(cfg, variant)["total"] == totals[variant]


def test_efficiency_ratios_are_fractions():
    r = efficiency_ratios(ModelConfig())
    assert 0.0 < r["params"] < 1.0
    assert 0.0 < r["flops"] < 1.0


def test_ledger_matches_meter_small_config():
    cfg = ModelConfig(d_model=8, heads=2, n_seq=6, layers=1, d_ff=16, l_out=4)
    res = check_ledger_matches_meter(cfg)
    assert res["match"]
    assert res["metered"] == res["ledgered"]


def test_fit_scaling_exponent_recovers_power_law():
    sizes = np.array([64, 256, 1024])
    assert abs(fit_scaling_exponent(sizes, 7.0 * sizes**1.7) - 1.7) < 1e-12
    with pytest.raises(ConfigurationError):
        fit_scaling_exponent([64], [1.0])
    with pytest.raises(ConfigurationError):
        fit_scaling_exponent([64, 256], [1.0, 0.0])


def test_analytic_scaling_slopes():
    s = analytic_scaling()
    assert abs(s["monarch_exponent"] - 1.5) < 1e-9
    assert abs(s["dense_exponent"] - 2.0) < 1e-9


def test_wallclock_returns_positive_times():
    w = measure_wallclock()
    assert w["sizes"] == [1024, 4096, 16384]
    assert len(w["median_seconds"]) == 3
    assert all(t > 0 for t in w["median_seconds"])
