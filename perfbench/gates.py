"""Correctness gates, run outside every timed region.  Each gate is one operation."""

from __future__ import annotations

import numpy as np

from workloads import VARIANTS, Setup, Tally


def meter_muladds(s: Setup) -> int:
    """Multiply-adds the runtime meter counts over one surrogate forecast."""
    pkg = s.pkg
    meter = pkg.structured.flop_meter
    meter.reset()
    pkg.training.forecaster_forward(pkg.tensor.Tensor(s.dataset.test[0][0][:, None]),
                                    s.params["surrogate"])
    return meter.muladds


def _layer_norm(a: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float) -> np.ndarray:
    mu = a.mean(axis=-1, keepdims=True)
    return (a - mu) / np.sqrt(a.var(axis=-1, keepdims=True) + eps) * gain + bias


def layer_oracle_error(s: Setup) -> float:
    """Worst |fast - dense| for one surrogate layer, the dense side rebuilt from monarch_to_dense."""
    pkg = s.pkg
    V, eps = pkg.verification, pkg.tensor.LAYER_NORM_EPS
    params = s.params["surrogate"]
    layer = params.layers[0]
    x = s.dataset.test[0][0][:, None] @ params.embed.data
    fast = pkg.blocks.enhanced_layer_forward(pkg.tensor.Tensor(x), layer).data
    ln1 = lambda a: _layer_norm(a, layer.ln1_gain.data, layer.ln1_bias.data, eps)
    ln2 = lambda a: _layer_norm(a, layer.ln2_gain.data, layer.ln2_bias.data, eps)
    sab = lambda a: V._dense_sab_oracle(a, layer.attn)
    sfb = lambda a: V._dense_sfb_oracle(a, layer.ffn)
    if layer.norm_style == "post-ln":
        x1 = ln1(x + sab(x))
        dense = ln2(x1 + sfb(x1))
    else:
        x1 = x + sab(ln1(x))
        dense = x1 + sfb(ln2(x1))
    return float(np.abs(fast - dense).max())


def run_gates(s: Setup, tally: Tally) -> dict:
    pkg = s.pkg
    ledger = s.cfg.layers * pkg.bench.count_muladds(s.cfg, "surrogate")["monarch_per_layer"]
    metered = meter_muladds(s)
    tally.op(metered == ledger, f"meter counted {metered} multiply-adds, ledger says {ledger}")
    paper = pkg.bench.check_ledger_matches_meter(pkg.bench.ModelConfig())
    tally.op(paper["match"], f"check_ledger_matches_meter(ModelConfig()) gave {paper}")
    x = pkg.tensor.Tensor(s.dataset.test[0][0][:, None])
    for v in VARIANTS:
        off = pkg.training.forecaster_forward(x, s.params[v]).data
        with pkg.tensor.tape_scope():
            on = pkg.training.forecaster_forward(x, s.params[v]).data
        tally.op(np.array_equal(on, off), f"{v} forecast differs with the tape on")
    err = layer_oracle_error(s)
    limit = pkg.verification.THRESH_BLOCK_ORACLE
    tally.op(err <= limit, f"surrogate layer is {err:.3e} from its dense oracle, limit {limit:.0e}")
    return {"muladds_per_fwd": metered, "ledger_muladds_per_fwd": ledger,
            "layer_oracle_error": err}
