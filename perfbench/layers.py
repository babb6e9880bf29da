"""Per-layer metrics for the traced run.

Two sources.  Spans recorded around calls into the package during the
traced pass give the training, tape, verification and bench figures.
Direct timings of each ledger role's public function, at the shapes the
workload runs, give the structured, blocks and reference figures; backward
is timed under the role's own tape.
"""

from __future__ import annotations

import time

import numpy as np

from spans import Tracer
from stats import median
from workloads import VARIANTS, Package, Samples, Setup

ROLES = ("attn_proj", "attn_seq", "attn_elementwise", "attn_out", "ffn", "layer_norm",
         "embed", "head")
MONARCH_ROLES = ("attn_proj", "attn_seq", "ffn")
VERIFY_FAMILIES = {
    "monarch_oracle": ("check_monarch_oracle",),
    "parameter_law": ("check_parameter_law",),
    "theorem_diagonal": ("check_theorem_diagonal",),
    "theorem_vertical": ("check_theorem_vertical",),
    "expressiveness": ("build_expressiveness", "check_expressiveness"),
    "lti_decomposition": ("check_lti_decomposition",),
    "sab_oracle": ("check_sab_oracle",),
    "sfb_oracle": ("check_sfb_oracle",),
    "layer_gradients": ("check_layer_gradients",),
}
# (module, attribute) rebound in the traced run; the span is named after the
# module that defines the function.
WRAPPED = (
    ("training", "train_forecaster"), ("training", "_eval_mse_mae"),
    ("training", "forecaster_forward"), ("training", "enhanced_layer_forward"),
    ("training", "dense_layer_forward"), ("training", "dense_mhsa_forward"),
    ("training", "dense_ffn_forward"), ("blocks", "structured_projection"),
    ("blocks", "surrogate_attention_forward"), ("blocks", "surrogate_ffn_forward"),
    ("blocks", "monarch_apply"), ("bench", "check_ledger_matches_meter"),
) + tuple(("verification", f) for fs in VERIFY_FAMILIES.values() for f in fs)
OVERHEAD_OF = {"surrogate.train_samples_per_s": "windows/s", "dense.train_samples_per_s": "windows/s",
               "surrogate.infer_ms_p50": "ms", "dense.infer_ms_p50": "ms", "verify_s": "s"}
REPEAT_BUDGET_S = 0.05


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def install(tracer: Tracer, pkg: Package) -> None:
    for module, attr in WRAPPED:
        owner = getattr(pkg, module)
        tracer.wrap(owner, attr, span_name(getattr(owner, attr)))
    tape, adam = pkg.tensor.Tape, pkg.training.Adam
    tracer.wrap(tape, "backward", span_name(tape.backward),
                count=lambda args: {"nodes": len(args[0])})
    tracer.wrap(adam, "step", span_name(adam.step))


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in print order."""
    out = []
    for v in VARIANTS:
        out += [(f"tensor.tape_nodes_per_step.{v}", "count"), (f"tensor.backward_ms.{v}", "ms")]
    for r in MONARCH_ROLES:
        out += [(f"structured.apply_ms.{r}", "ms"), (f"structured.gflops.{r}", "GFLOP/s")]
    out.append(("structured.muladds_per_fwd", "count"))
    for r in ROLES:
        out += [(f"blocks.{r}.fwd_ms", "ms"), (f"blocks.{r}.bwd_ms", "ms")]
    out.append(("blocks.layer_fwd_ms", "ms"))
    out += [(f"reference.{p}_{d}_ms", "ms") for p in ("mhsa", "ffn") for d in ("fwd", "bwd")]
    for v in VARIANTS:
        out += [(f"training.{k}_ms.{v}", "ms") for k in ("fwd", "bwd", "adam", "eval", "step")]
        out.append((f"training.step_accounted_share.{v}", "fraction"))
    out.append(("data.build_ms", "ms"))
    out += [(f"verification.{f}_s", "s") for f in VERIFY_FAMILIES]
    out.append(("verification.checks_run", "count"))
    out.append(("bench.ledger_check_ms", "ms"))
    out += [(f"trace.overhead.{m}", unit) for m, unit in OVERHEAD_OF.items()]
    return out


# ---------------------------------------------------------------------------
# span-derived metrics


def _mean_ms(spans) -> float:
    return 1e3 * sum(s.seconds for s in spans) / len(spans) if spans else float("nan")


def span_metrics(tracer: Tracer, out: Samples) -> dict:
    spans = tracer.spans
    m = {}
    for v in VARIANTS:
        backward = tracer.select("tensor.Tape.backward", v)
        steps = len(backward)
        m[f"tensor.tape_nodes_per_step.{v}"] = median([s.counts["nodes"] for s in backward])
        m[f"tensor.backward_ms.{v}"] = _mean_ms(backward)
        step_parents = ("bench.train_step", "training.train_forecaster")
        fwd = [s for s in tracer.select("training.forecaster_forward", v)
               if s.parent >= 0 and spans[s.parent].name in step_parents]
        m[f"training.fwd_ms.{v}"] = _mean_ms(fwd)
        m[f"training.bwd_ms.{v}"] = m[f"tensor.backward_ms.{v}"]
        m[f"training.adam_ms.{v}"] = _mean_ms(tracer.select("training.Adam.step", v))
        evals = tracer.select("training._eval_mse_mae", v) or tracer.select("bench.test_pass", v)
        m[f"training.eval_ms.{v}"] = _mean_ms(evals)
        driven = tracer.select("bench.train_step", v)
        if driven:
            step_ms = _mean_ms(driven)
        else:  # inside train_forecaster: its time less evaluation, per step
            runs = tracer.select("training.train_forecaster", v)
            step_ms = 1e3 * (sum(s.seconds for s in runs) - sum(s.seconds for s in evals)) / steps
        m[f"training.step_ms.{v}"] = step_ms
        parts = sum(m[f"training.{k}_ms.{v}"] for k in ("fwd", "bwd", "adam"))
        m[f"training.step_accounted_share.{v}"] = parts / step_ms
    passes = out.count("verify")
    for family, fns in VERIFY_FAMILIES.items():
        total = sum(s.seconds for f in fns for s in tracer.select(f"verification.{f}"))
        m[f"verification.{family}_s"] = total / passes
    m["verification.checks_run"] = out.checks_run
    m["bench.ledger_check_ms"] = _mean_ms(tracer.select("bench.check_ledger_matches_meter"))
    return m


# ---------------------------------------------------------------------------
# direct role timings at the workload's shapes


def _repeat(fn) -> float:
    """Median seconds of fn(), repeated for about REPEAT_BUDGET_S, 5 to 200 times."""
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    times = []
    for _ in range(max(5, min(200, int(REPEAT_BUDGET_S / max(first, 1e-9))))):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def _fwd_bwd_ms(pkg: Package, role, leaves) -> tuple[float, float]:
    """Forward with no tape; backward of the summed outputs under the role's own tape."""
    T = pkg.tensor
    fwd = _repeat(role)

    def backward():
        for p in leaves:
            p.grad = None
        with T.tape_scope() as tape:
            outs = role()
            loss = T.sum_all(outs[0])
            for o in outs[1:]:
                loss = T.add(loss, T.sum_all(o))
        t0 = time.perf_counter()
        tape.backward(loss)
        return time.perf_counter() - t0

    backward()
    bwd = median([backward() for _ in range(max(5, min(200, int(REPEAT_BUDGET_S / max(fwd, 1e-9)))))])
    return 1e3 * fwd, 1e3 * bwd


def role_metrics(s: Setup, seed: int) -> dict:
    pkg = s.pkg
    T, S, B = pkg.tensor, pkg.structured, pkg.blocks
    rng = np.random.default_rng(seed)
    sur, den = s.params["surrogate"], s.params["dense"]
    layer, attn, ffn = sur.layers[0], sur.layers[0].attn, sur.layers[0].ffn
    n, d = s.cfg.n_seq, s.cfg.d_model
    leaf = lambda shape: T.Tensor(rng.standard_normal(shape), requires_grad=True)
    window = T.Tensor(s.dataset.test[0][0][:, None])
    x = T.Tensor(window.data @ sur.embed.data, requires_grad=True)
    seq = [[leaf((attn.n_pad, attn.d_head)) for _ in range(3)] for _ in range(attn.heads)]
    sa = [leaf((n, attn.d_head)) for _ in range(attn.heads)]

    def attn_out():
        out = T.matmul(sa[0], attn.w_out[0])
        for h in range(1, attn.heads):
            out = T.add(out, T.matmul(sa[h], attn.w_out[h]))
        return [out]

    roles = {
        "attn_proj": (lambda: [t for group in B.structured_projection(x, attn) for t in group]),
        "attn_seq": (lambda: [S.monarch_apply(m, q, "left")
                              for q, _, _ in seq for m in (attn.m1, attn.m2)]),
        "attn_elementwise": (lambda: [T.elementwise_mul(a, b) for a, b, c in seq]
                             + [T.elementwise_mul(c, b) for a, b, c in seq]),
        "attn_out": attn_out,
        "ffn": (lambda: [B.surrogate_ffn_forward(x, ffn)]),
        "layer_norm": (lambda: [T.layer_norm(x, layer.ln1_gain, layer.ln1_bias),
                                T.layer_norm(x, layer.ln2_gain, layer.ln2_bias)]),
        "embed": (lambda: [T.matmul(window, sur.embed)]),
        "head": (lambda: [T.matmul(T.reshape(x, (1, n * d)), sur.head)]),
    }
    leaves = sur.parameters() + den.parameters() + [x] + [t for g in seq for t in g] + sa
    m = {}
    for name, fn in roles.items():
        m[f"blocks.{name}.fwd_ms"], m[f"blocks.{name}.bwd_ms"] = _fwd_bwd_ms(pkg, fn, leaves)
    m["blocks.layer_fwd_ms"] = 1e3 * _repeat(lambda: B.enhanced_layer_forward(x, layer))
    dense = den.layers[0]
    R = pkg.reference
    m["reference.mhsa_fwd_ms"], m["reference.mhsa_bwd_ms"] = _fwd_bwd_ms(
        pkg, lambda: [R.dense_mhsa_forward(x, dense.attn)], leaves)
    m["reference.ffn_fwd_ms"], m["reference.ffn_bwd_ms"] = _fwd_bwd_ms(
        pkg, lambda: [R.dense_ffn_forward(x, dense.w1, dense.w2, dense.sigma)], leaves)
    applies = {  # one factored apply per role, at the role's shape and side
        "attn_proj": (attn.m_q[0], T.Tensor(rng.standard_normal((n, attn.d_head))), "right"),
        "attn_seq": (attn.m1, T.Tensor(rng.standard_normal((attn.n_pad, attn.d_head))), "left"),
        "ffn": (ffn.m1, T.Tensor(rng.standard_normal((n, ffn.d_ffn))), "right"),
    }
    for role, (mon, inp, side) in applies.items():
        t = _repeat(lambda: S.monarch_apply(mon, inp, side))
        cols = inp.shape[0] if side == "right" else inp.shape[1]
        m[f"structured.apply_ms.{role}"] = 1e3 * t
        m[f"structured.gflops.{role}"] = 2 * S.monarch_apply_muladds(mon.n, cols) / t / 1e9
    for p in leaves:
        p.grad = None
    return m
