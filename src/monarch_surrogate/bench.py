"""Cost accounting and scaling measurements.

Counts parameters and multiply-adds per architectural role for both the
surrogate (Monarch-based) and dense encoder variants, checks the analytic
ledger against the runtime multiply-add meter bit-for-bit, and fits scaling
exponents to analytic and wall-clock cost curves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .blocks import EnhancedLayerParams, enhanced_layer_forward
from .errors import ConfigurationError
from .structured import (
    flop_meter,
    monarch_apply,
    monarch_apply_muladds,
    monarch_new,
    pad_to_square,
)
from .tensor import Tensor


@dataclass
class ModelConfig:
    """Forecasting-encoder shape shared by both variants.

    The model embeds a scalar series to d_model, runs `layers` encoder
    layers over a window of n_seq steps, and flattens to l_out predictions.
    """

    d_model: int = 512
    heads: int = 8
    n_seq: int = 96
    layers: int = 2
    d_ff: int = 2048
    l_out: int = 24

    def __post_init__(self):
        if self.heads < 1 or self.d_model % self.heads != 0:
            raise ConfigurationError(
                f"d_model={self.d_model} not divisible by heads={self.heads}"
            )
        if self.d_ffn < self.d_model:  # the surrogate FFN could not be built
            raise ConfigurationError(f"d_ffn={self.d_ffn} smaller than d_in={self.d_model}")

    @property
    def d_head(self) -> int:
        return pad_to_square(self.d_model // self.heads)

    @property
    def n_pad(self) -> int:
        return pad_to_square(self.n_seq)

    @property
    def d_ffn(self) -> int:
        # surrogate FFN Monarch size mirrors the dense hidden width
        return pad_to_square(self.d_ff)


def monarch_param_count(n: int) -> int:
    return 2 * n * int(round(n**0.5))


# ---------------------------------------------------------------------------
# Parameter ledger


def count_params(cfg: ModelConfig, variant: str) -> dict:
    """Per-role parameter counts for one layer, plus model totals.

    Shared roles (scalar embedding and the flattening output head) are
    identical across variants and included in the totals.
    """
    d, h, dff = cfg.d_model, cfg.heads, cfg.d_ff
    if variant == "surrogate":
        layer = {
            "attn_proj": 3 * h * monarch_param_count(cfg.d_head),
            "attn_seq": 2 * monarch_param_count(cfg.n_pad),
            "attn_out": h * cfg.d_head * d,
            "ffn": 2 * monarch_param_count(cfg.d_ffn),
            "layer_norm": 4 * d,
        }
    elif variant == "dense":
        layer = {
            "attn_proj": 3 * d * d,
            "attn_out": d * d,
            "ffn": 2 * d * dff,
            "layer_norm": 4 * d,
        }
    else:
        raise ConfigurationError(f"unknown variant {variant!r}")
    shared = {"embed": d, "head": cfg.n_seq * d * cfg.l_out}
    per_layer = sum(layer.values())
    total = cfg.layers * per_layer + sum(shared.values())
    return {"variant": variant, "layer": layer, "shared": shared,
            "per_layer": per_layer, "total": total}


# ---------------------------------------------------------------------------
# Multiply-add ledger (one forward pass over a full window)


def count_muladds(cfg: ModelConfig, variant: str) -> dict:
    """Per-role multiply-add counts for one forward pass.

    Monarch roles use the exact factored-apply cost at the input rows k and
    output rows size each apply really has, so the ledger agrees with the
    runtime meter bit-for-bit.  Softmax rows are charged five scalar-op
    equivalents per score entry; activations and layer norms are charged
    nothing in either variant.
    """
    d, h, n = cfg.d_model, cfg.heads, cfg.n_seq
    if variant == "surrogate":
        layer = {
            "attn_proj": 3 * h * monarch_apply_muladds(cfg.d_head, n, k=d // h),
            "attn_seq": 2 * h * monarch_apply_muladds(cfg.n_pad, cfg.d_head, k=n, size=n),
            "attn_elementwise": 2 * h * n * cfg.d_head,
            "attn_out": h * n * cfg.d_head * d,
            "ffn": monarch_apply_muladds(cfg.d_ffn, n, k=d)
            + monarch_apply_muladds(cfg.d_ffn, n, size=d),
        }
        monarch_roles = ("attn_proj", "attn_seq", "ffn")
    elif variant == "dense":
        layer = {
            "attn_proj": 3 * n * d * d,
            "attn_scores": n * n * d,
            "attn_softmax": 5 * n * n * h,
            "attn_weighted": n * n * d,
            "attn_out": n * d * d,
            "ffn": 2 * n * d * cfg.d_ff,
        }
        monarch_roles = ()
    else:
        raise ConfigurationError(f"unknown variant {variant!r}")
    shared = {"embed": n * d, "head": n * d * cfg.l_out}
    per_layer = sum(layer.values())
    total = cfg.layers * per_layer + sum(shared.values())
    return {
        "variant": variant,
        "layer": layer,
        "shared": shared,
        "per_layer": per_layer,
        "total": total,
        "flops": 2 * total,
        "monarch_per_layer": sum(layer[r] for r in monarch_roles),
    }


def efficiency_ratios(cfg: ModelConfig) -> dict:
    """Surrogate/dense ratios for whole-model parameters and forward FLOPs."""
    p_s = count_params(cfg, "surrogate")["total"]
    p_d = count_params(cfg, "dense")["total"]
    f_s = count_muladds(cfg, "surrogate")["total"]
    f_d = count_muladds(cfg, "dense")["total"]
    return {"params": p_s / p_d, "flops": f_s / f_d}


def check_ledger_matches_meter(cfg: ModelConfig) -> dict:
    """Run one surrogate layer forward under the meter and compare exactly.

    Returns metered and ledgered Monarch multiply-add counts; they must be
    equal with no tolerance.
    """
    rng = np.random.default_rng(0)
    params = EnhancedLayerParams.create(
        cfg.n_seq, cfg.d_model, cfg.heads, rng, d_ffn=cfg.d_ffn
    )
    x = Tensor(rng.standard_normal((cfg.n_seq, cfg.d_model)))
    flop_meter.reset()
    enhanced_layer_forward(x, params)
    metered = flop_meter.muladds
    ledgered = count_muladds(cfg, "surrogate")["monarch_per_layer"]
    return {"metered": metered, "ledgered": ledgered, "match": metered == ledgered}


# ---------------------------------------------------------------------------
# Scaling fits


def fit_scaling_exponent(sizes, costs) -> float:
    """Least-squares slope of log(cost) against log(size)."""
    sizes = np.asarray(sizes, dtype=float)
    costs = np.asarray(costs, dtype=float)
    if len(sizes) < 2:
        raise ConfigurationError("scaling fit needs at least two sizes")
    if np.any(costs <= 0.0):
        raise ConfigurationError("scaling fit needs positive costs")
    return float(np.polyfit(np.log(sizes), np.log(costs), 1)[0])


def analytic_scaling() -> dict:
    """Exponents implied by the cost formulas themselves."""
    sizes = (64, 256, 1024, 4096, 16384)
    monarch = [monarch_apply_muladds(n, 1) for n in sizes]
    dense = [n * n for n in sizes]
    return {
        "sizes": list(sizes),
        "monarch_muladds": monarch,
        "dense_muladds": dense,
        "monarch_exponent": fit_scaling_exponent(sizes, monarch),
        "dense_exponent": fit_scaling_exponent(sizes, dense),
    }


def measure_wallclock() -> dict:
    """Median wall-clock seconds of a factored apply at each size, plus slope.

    Each size n is a (n, 64) left apply, timed 5 times.

    The sizes are timed in interleaved rounds, so a change in machine load
    during the run reaches every size alike instead of skewing their ratio.
    Each timed apply follows two untimed ones at the same size: the first
    applies after a switch of size, and in a fresh process, run several times
    slower.
    """
    sizes, d, repeats = (1024, 4096, 16384), 64, 5
    rng = np.random.default_rng(0)
    cases = [(monarch_new(n, rng), Tensor(rng.standard_normal((n, d))))
             for n in sizes]
    times: list[list[float]] = [[] for _ in sizes]
    for _ in range(repeats):
        for (m, x), ts in zip(cases, times):
            for _ in range(2):
                monarch_apply(m, x, "left")
            t0 = time.perf_counter()
            monarch_apply(m, x, "left")
            ts.append(time.perf_counter() - t0)
    medians = [float(np.median(ts)) for ts in times]
    return {
        "sizes": list(sizes),
        "d": d,
        "repeats": repeats,
        "median_seconds": medians,
        "exponent": fit_scaling_exponent(sizes, medians),
    }
