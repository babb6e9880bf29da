"""Executable checks for every theoretical claim the library relies on.

Each check evaluates both sides of an identity through independent code
paths (factored vs dense oracle, attention vs convolution, direct vs
state-space) and records the worst absolute difference over seeded trials,
folded by one `_worst`: a NaN in any trial fails the check, and a check asked
to run no trial raises ConfigurationError.  Each seed draws from its own
generator; a check may evaluate all its seeds' trials in one vectorised pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .blocks import (
    EnhancedLayerParams,
    SurrogateAttentionParams,
    SurrogateFFNParams,
    _group,
    enhanced_layer_forward,
    structured_projection,
    surrogate_attention_forward,
    surrogate_ffn_forward,
    surrogate_mix,
)
from .errors import ConfigurationError
from .gradcheck import probe_rel_errors
from .reference import (
    fixed_tap_aggregation,
    pattern_matrix,
    patterned_mhsa_forward,
    random_pattern,
    sum_of_convs_forward,
)
from .structured import (
    monarch_apply,
    monarch_from_dense_factors,
    monarch_new,
    monarch_to_dense,
    permutation_spec,
)
from .tensor import GELU_C0, GELU_C1, Tensor

THRESH_THEOREM = 1e-8
THRESH_ORACLE = 1e-10
THRESH_BLOCK_ORACLE = 1e-9
THRESH_EXACT = 1e-12
THRESH_GRAD = 1e-4

# the reduced seed counts of `msb verify --quick`
QUICK = dict(seeds_oracle=10, seeds_theorem=10, seeds_expressiveness=50,
             seeds_lti=10, seeds_block_oracle=5, gradient_probes=10)


@dataclass
class CheckResult:
    name: str
    max_abs_diff: float
    threshold: float
    seeds_run: int

    @property
    def passed(self) -> bool:
        return self.max_abs_diff <= self.threshold

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_abs_diff": self.max_abs_diff,
            "threshold": self.threshold,
            "passed": bool(self.passed),
            "seeds_run": self.seeds_run,
        }


def _worst(trial, seeds: int, cases=(None,)):
    """Elementwise worst of the error rows of trial(rngs, case) over each case.

    rngs is [default_rng(0), ..., default_rng(seeds - 1)], fresh for each case,
    and the trial returns one error row per generator.  np.max keeps a NaN, so
    a NaN trial fails its check; a check that ran no trial would pass with
    nothing shown, so it is refused.
    """
    if seeds < 1 or not cases:
        raise ConfigurationError(f"a check needs a trial, got {seeds} seeds for {len(cases)} cases")
    errors = [np.asarray(trial([np.random.default_rng(s) for s in range(seeds)], case), dtype=float)
              for case in cases]
    return np.max(np.concatenate(errors), axis=0)


def _each(trial):
    """The trial of one generator, run on each generator in turn."""
    return lambda rngs, case: [trial(rng, case) for rng in rngs]


# ---------------------------------------------------------------------------
# Monarch factored-apply oracle and the parameter law


def check_monarch_oracle(seeds: int) -> CheckResult:
    sizes = (4, 16, 64, 256)

    def trial(rng, n):
        m = monarch_new(n, rng=rng)
        x = Tensor(rng.standard_normal((n, 3)))
        return np.abs(monarch_apply(m, x, "left").data - monarch_to_dense(m) @ x.data).max()

    return CheckResult("monarch_oracle", _worst(_each(trial), seeds, sizes), THRESH_ORACLE, seeds)


def check_parameter_law() -> CheckResult:
    sizes = (4, 16, 64, 256, 1024)

    def trial(rng, n):  # the count does not depend on the drawn values
        return abs(monarch_new(n, rng).param_count - 2 * round(n**1.5))

    return CheckResult("parameter_law", _worst(_each(trial), 1, sizes), 0.0, len(sizes))


# ---------------------------------------------------------------------------
# Theorems: patterned MHSA equals a sum of convolutions

_D_IN, _D_OUT = 6, 5  # input and per-head output widths of both theorem checks


def _theorem_trials(kind: str, n: int, lam: int, heads: int, rngs):
    """Every trial's patterns, head weights, input and patterned MHSA output,
    stacked on a leading trial axis.

    Each generator draws in the order of one trial: each head's pattern, then
    each head's W, then x.
    """
    if lam > n:
        raise ConfigurationError(f"lambda={lam} exceeds sequence length {n}")
    if heads < 1:
        raise ConfigurationError(f"a theorem check needs heads >= 1, got {heads}")
    patterns = [random_pattern(kind, n, lam, rngs) for _ in range(heads)]
    w = [np.stack([r.standard_normal((_D_IN, _D_OUT)) for r in rngs]) for _ in range(heads)]
    x = np.stack([r.standard_normal((n, _D_IN)) for r in rngs])
    attn = patterned_mhsa_forward(x, [pattern_matrix(p) for p in patterns], w)
    return patterns, w, x, attn


def check_theorem_diagonal(n: int, lam: int, heads: int, seeds: int) -> CheckResult:
    def trial(rngs, _):  # an even lam fails in AttentionPattern
        patterns, w, x, attn = _theorem_trials("diagonal", n, lam, heads, rngs)
        kernels = [
            {int(delta): f[:, None, None] * wh for delta, f in zip(p.offsets, p.weights.T)}
            for p, wh in zip(patterns, w)
        ]
        return np.abs(attn - sum_of_convs_forward(x, kernels)).max(axis=(1, 2))

    worst = _worst(trial, seeds)
    return CheckResult(f"theorem_diagonal_n{n}_lam{lam}_h{heads}", worst, THRESH_THEOREM, seeds)


def check_theorem_vertical(n: int, lam: int, heads: int, seeds: int) -> tuple[CheckResult, CheckResult]:
    """Equality against the fixed-tap form, plus the all-rows-identical consequence."""

    def trial(rngs, _):
        patterns, w, x, attn = _theorem_trials("vertical", n, lam, heads, rngs)
        tap = sum(fixed_tap_aggregation(x, p, [wh]) for p, wh in zip(patterns, w))
        return np.stack([np.abs(attn - tap).max(axis=(1, 2)),
                         np.abs(attn - attn[:, :1]).max(axis=(1, 2))], axis=1)

    worst, worst_rows = _worst(trial, seeds)
    tag = f"n{n}_lam{lam}_h{heads}"
    return (
        CheckResult(f"theorem_vertical_{tag}", worst, THRESH_THEOREM, seeds),
        CheckResult(f"theorem_vertical_rows_{tag}", worst_rows, THRESH_EXACT, seeds),
    )


# ---------------------------------------------------------------------------
# Expressiveness constructions


@dataclass
class ExpressivenessConstruction:
    """Hand-placed unit entries making the attention output reproduce a monomial.

    mode 'short_term' yields y_k = x_k * x_{k-1}^2; 'long_term' yields
    y_k = x_k * x_0^2.  All four factors stay block-diagonal.
    """

    n: int
    mode: str
    k: int
    l1: np.ndarray = field(repr=False)
    r1: np.ndarray = field(repr=False)
    l2: np.ndarray = field(repr=False)
    r2: np.ndarray = field(repr=False)

    @property
    def source_index(self) -> int:
        return 0 if self.mode == "long_term" else self.k - 1


def build_expressiveness(n: int, mode: str, k: int) -> ExpressivenessConstruction:
    if mode not in ("short_term", "long_term"):
        raise ConfigurationError(f"unknown expressiveness mode {mode!r}")
    if not (1 <= k < n):
        raise ConfigurationError(f"target index k={k} out of range for n={n}")
    spec = permutation_spec(n)
    b, h = spec.b, spec.map
    src = 0 if mode == "long_term" else k - 1
    l1 = np.zeros((n, n))
    r1 = np.zeros((n, n))
    l2 = np.zeros((n, n))
    r2 = np.zeros((n, n))
    for i in range(n):
        # unit entries are kept only where the block-diagonal structure allows
        if h[src] // b == h[i] // b:
            l1[h[src], h[i]] = 1.0
        if i // b == h[src] // b:
            r1[i, h[src]] = 1.0
            r2[i, h[src]] = 1.0
        if h[k] // b == h[i] // b:
            l2[h[k], h[i]] = 1.0
    return ExpressivenessConstruction(n=n, mode=mode, k=k, l1=l1, r1=r1, l2=l2, r2=r2)


def check_expressiveness(c: ExpressivenessConstruction, seeds: int) -> CheckResult:
    """Mix Q = K = V = X (no projections) with the construction and compare y_k to the monomial."""
    m1 = monarch_from_dense_factors(c.n, c.l1, c.r1)
    m2 = monarch_from_dense_factors(c.n, c.l2, c.r2)

    def trial(rngs, _):  # trial t's input is column t, and the mix keeps columns apart
        x = Tensor(np.concatenate([r.uniform(-2.0, 2.0, (c.n, 1)) for r in rngs], axis=1))
        y = surrogate_mix(x, x, x, m1, m2).data
        return np.abs(y[c.k] - x.data[c.k] * x.data[c.source_index] ** 2)

    worst = _worst(trial, seeds)
    return CheckResult(f"expressiveness_{c.mode}_n{c.n}_k{c.k}", worst, THRESH_EXACT, seeds)


# ---------------------------------------------------------------------------
# LTI decomposition of the attention block


def check_lti_decomposition(seeds: int) -> CheckResult:
    """Dual-path equality on one 4-wide head of n = 16 steps: direct block vs
    memoryless state-space + readout.

    The state recursion is x_{t+1} = A x_t + B v_{t+1} with A = 0, B = I; the
    time-invariant readout is the key-weighted M1/query contraction, and the
    per-step M2-row multiply is applied as post-processing.
    """
    n = 16

    def trial(rng, _):
        params = SurrogateAttentionParams.create(n, 4, heads=1, rng=rng)
        x = rng.standard_normal((n, 4))
        qs, ks, vs = structured_projection(Tensor(x), params)
        direct = surrogate_mix(qs[0], ks[0], vs[0], params.m1, params.m2).data
        q, k, v = qs[0].data, ks[0].data, vs[0].data
        m1 = monarch_to_dense(params.m1)
        m2 = monarch_to_dense(params.m2)
        readout = (m1 @ q) * k  # time-invariant: shared by every step
        states = _simulate_memoryless_states(v)
        ltipath = np.empty_like(v)
        for t in range(n):
            ltipath[t] = (m2[t] @ readout) * states[t]
        # A = 0 memorylessness: shuffling past inputs cannot move the state
        shuffled = v.copy()
        shuffled[: n - 1] = shuffled[: n - 1][::-1]
        moved = np.abs(_simulate_memoryless_states(shuffled)[-1] - states[-1]).max()
        return np.maximum(np.abs(direct - ltipath).max(), moved)

    return CheckResult("lti_decomposition", _worst(_each(trial), seeds), THRESH_ORACLE, seeds)


def _simulate_memoryless_states(v: np.ndarray) -> np.ndarray:
    states = np.zeros_like(v)
    prev = np.zeros(v.shape[1])
    for t in range(v.shape[0]):
        prev = 0.0 * prev + v[t]  # A = 0, B = I
        states[t] = prev
    return states


# ---------------------------------------------------------------------------
# Surrogate block oracles


def _dense_sab_oracle(x: np.ndarray, params: SurrogateAttentionParams) -> np.ndarray:
    n = x.shape[0]
    w, d_head, n_pad = params.head_width, params.d_head, params.n_pad
    m1 = monarch_to_dense(params.m1)
    m2 = monarch_to_dense(params.m2)
    out = np.zeros((n, params.d_in))
    w_out = params.w_out
    for h in range(params.heads):
        chunk = x[:, h * w : (h + 1) * w]
        chunk = np.pad(chunk, ((0, 0), (0, d_head - w)))
        q, k, v = (np.pad(chunk @ monarch_to_dense(_group(m, h)), ((0, n_pad - n), (0, 0)))
                   for m in (params.q_stack, params.k_stack, params.v_stack))
        sa = (m2 @ ((m1 @ q) * k)) * v
        out += sa[:n] @ w_out[h].data
    return out


def _dense_sfb_oracle(x: np.ndarray, params) -> np.ndarray:
    y = np.pad(x, ((0, 0), (0, params.d_ffn - params.d_in)))
    y = y @ monarch_to_dense(params.m1)
    if params.sigma == "relu":
        y = np.maximum(y, 0.0)
    elif params.sigma == "gelu":
        y = 0.5 * y * (1.0 + np.tanh(GELU_C0 * (y + GELU_C1 * y**3)))
    y = y @ monarch_to_dense(params.m2)
    return y[:, : params.d_in]


_BLOCK_SHAPES = ((4, 4), (16, 8), (64, 16))  # (n, d_in) inputs of both block oracles


def check_sab_oracle(seeds: int) -> CheckResult:
    def trial(rng, shape):
        params = SurrogateAttentionParams.create(*shape, heads=2, rng=rng)
        x = rng.standard_normal(shape)
        return np.abs(surrogate_attention_forward(Tensor(x), params).data
                      - _dense_sab_oracle(x, params)).max()

    return CheckResult("sab_oracle", _worst(_each(trial), seeds, _BLOCK_SHAPES),
                       THRESH_BLOCK_ORACLE, seeds)


def check_sfb_oracle(seeds: int) -> CheckResult:
    def trial(rng, shape):
        params = SurrogateFFNParams.create(shape[1], rng)
        x = rng.standard_normal(shape)
        return np.abs(surrogate_ffn_forward(Tensor(x), params).data
                      - _dense_sfb_oracle(x, params)).max()

    return CheckResult("sfb_oracle", _worst(_each(trial), seeds, _BLOCK_SHAPES),
                       THRESH_BLOCK_ORACLE, seeds)


# ---------------------------------------------------------------------------
# Gradient correctness through a full enhanced layer


def check_layer_gradients(probes: int) -> CheckResult:
    """Finite differences at max(probes, parameter tensors) coordinates: its seeds_run.

    The layer is n = 6 rows of d_model = 4 in 2 heads, drawn from seed 0.
    """
    if probes < 1:
        raise ConfigurationError(f"layer_gradients needs probes >= 1, got {probes}")
    n, d_model = 6, 4
    rng = np.random.default_rng(0)
    params = EnhancedLayerParams.create(n, d_model, 2, rng)
    tensors = params.parameters()
    x = Tensor(rng.standard_normal((n, d_model)))
    target = rng.standard_normal((n, d_model))

    def loss() -> Tensor:
        y = enhanced_layer_forward(x, params)
        diff = T.sub(y, Tensor(target))
        return T.sum_all(T.elementwise_mul(diff, diff))

    worst = float(probe_rel_errors(loss, tensors, probes, rng))
    return CheckResult("layer_gradients", worst, THRESH_GRAD, max(probes, len(tensors)))


# ---------------------------------------------------------------------------
# Suite runner


@dataclass
class VerifyConfig:
    seeds_oracle: int = 100
    seeds_theorem: int = 100
    seeds_expressiveness: int = 1000
    seeds_lti: int = 100
    seeds_block_oracle: int = 50
    gradient_probes: int = 50
    select: list[str] | None = None  # substring filters; None runs everything


def run_all(config: VerifyConfig | None = None) -> list[CheckResult]:
    config = config or VerifyConfig()
    if "" in (config.select or ()):
        raise ConfigurationError("select holds an empty name, which every check name contains")
    checks: list[CheckResult] = []

    def keep(name: str) -> bool:
        if config.select is None:
            return True
        return any(s in name for s in config.select)

    if keep("monarch_oracle"):
        checks.append(check_monarch_oracle(seeds=config.seeds_oracle))
    if keep("parameter_law"):
        checks.append(check_parameter_law())
    for n in (8, 16, 64):
        for heads in (1, 2, 4):
            for lam in (1, 3, 5):
                if keep(f"theorem_diagonal_n{n}_lam{lam}_h{heads}"):
                    checks.append(
                        check_theorem_diagonal(n, lam, heads, seeds=config.seeds_theorem)
                    )
            for lam in (1, 2, 4):
                tag = f"n{n}_lam{lam}_h{heads}"
                if keep(f"theorem_vertical_{tag}") or keep(f"theorem_vertical_rows_{tag}"):
                    pair = check_theorem_vertical(n, lam, heads, seeds=config.seeds_theorem)
                    checks.extend(c for c in pair if keep(c.name))
    for mode in ("short_term", "long_term"):
        for n in (4, 16):
            for k in (1, n - 1):
                name = f"expressiveness_{mode}_n{n}_k{k}"
                if keep(name):
                    c = build_expressiveness(n, mode, k)
                    checks.append(check_expressiveness(c, seeds=config.seeds_expressiveness))
    if keep("lti_decomposition"):
        checks.append(check_lti_decomposition(seeds=config.seeds_lti))
    if keep("sab_oracle"):
        checks.append(check_sab_oracle(seeds=config.seeds_block_oracle))
    if keep("sfb_oracle"):
        checks.append(check_sfb_oracle(seeds=config.seeds_block_oracle))
    if keep("layer_gradients"):
        checks.append(check_layer_gradients(probes=config.gradient_probes))
    if not checks:
        raise ConfigurationError(f"no check name contains any of {config.select}")
    return checks
