"""Executable checks for every theoretical claim the library relies on.

Each check evaluates both sides of an identity through independent code
paths (factored vs dense oracle, attention vs convolution, direct vs
state-space) and records the worst absolute difference over seeded trials,
NaN if any trial gave NaN, which fails the check.
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
from .tensor import Tensor

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


# ---------------------------------------------------------------------------
# Monarch factored-apply oracle and the parameter law


def check_monarch_oracle(sizes=(4, 16, 64, 256), seeds: int = 100, d: int = 3) -> CheckResult:
    worst = 0.0
    for n in sizes:
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            m = monarch_new(n, rng=rng)
            x = Tensor(rng.standard_normal((n, d)))
            fast = monarch_apply(m, x, "left").data
            worst = np.maximum(worst, float(np.abs(fast - monarch_to_dense(m) @ x.data).max()))
    return CheckResult("monarch_oracle", worst, THRESH_ORACLE, seeds)


def check_parameter_law(sizes=(4, 16, 64, 256, 1024)) -> CheckResult:
    worst = 0.0
    for n in sizes:
        m = monarch_new(n, np.random.default_rng(n))
        expected = 2 * round(n**1.5)
        worst = max(worst, abs(m.param_count - expected))
    return CheckResult("parameter_law", worst, 0.0, len(sizes))


# ---------------------------------------------------------------------------
# Theorems: patterned MHSA equals a sum of convolutions


def check_theorem_diagonal(
    n: int, lam: int, heads: int, d_in: int = 6, d_out: int = 5, seeds: int = 100
) -> CheckResult:
    if lam % 2 == 0:
        raise ConfigurationError(f"diagonal pattern needs odd lambda, got {lam}")
    if lam > n:
        raise ConfigurationError(f"lambda={lam} exceeds sequence length {n}")
    worst = 0.0
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        patterns = [random_pattern("diagonal", n, lam, rng) for _ in range(heads)]
        w = [rng.standard_normal((d_in, d_out)) for _ in range(heads)]
        x = rng.standard_normal((n, d_in))
        attn = patterned_mhsa_forward(x, [pattern_matrix(p) for p in patterns], w)
        kernels = [
            {int(delta): f * wh for delta, f in zip(p.offsets, p.weights)}
            for p, wh in zip(patterns, w)
        ]
        conv = sum_of_convs_forward(x, kernels)
        worst = np.maximum(worst, float(np.abs(attn - conv).max()))
    return CheckResult(f"theorem_diagonal_n{n}_lam{lam}_h{heads}", worst, THRESH_THEOREM, seeds)


def check_theorem_vertical(
    n: int, lam: int, heads: int, d_in: int = 6, d_out: int = 5, seeds: int = 100
) -> tuple[CheckResult, CheckResult]:
    """Equality against the fixed-tap form, plus the all-rows-identical consequence."""
    if lam > n:
        raise ConfigurationError(f"lambda={lam} exceeds sequence length {n}")
    worst = 0.0
    worst_rows = 0.0
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        patterns = [random_pattern("vertical", n, lam, rng) for _ in range(heads)]
        w = [rng.standard_normal((d_in, d_out)) for _ in range(heads)]
        x = rng.standard_normal((n, d_in))
        attn = patterned_mhsa_forward(x, [pattern_matrix(p) for p in patterns], w)
        tap = sum(fixed_tap_aggregation(x, p, [wh]) for p, wh in zip(patterns, w))
        worst = np.maximum(worst, float(np.abs(attn - tap).max()))
        worst_rows = np.maximum(worst_rows, float(np.abs(attn - attn[0]).max()))
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


def check_expressiveness(c: ExpressivenessConstruction, seeds: int = 1000) -> CheckResult:
    """Mix Q = K = V = X (no projections) with the construction and compare y_k to the monomial."""
    m1 = monarch_from_dense_factors(c.n, c.l1, c.r1)
    m2 = monarch_from_dense_factors(c.n, c.l2, c.r2)
    worst = 0.0
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-2.0, 2.0, (c.n, 1)))
        y = surrogate_mix(x, x, x, m1, m2).data[:, 0]
        expected = x.data[c.k, 0] * x.data[c.source_index, 0] ** 2
        worst = np.maximum(worst, abs(y[c.k] - expected))
    return CheckResult(f"expressiveness_{c.mode}_n{c.n}_k{c.k}", worst, THRESH_EXACT, seeds)


# ---------------------------------------------------------------------------
# LTI decomposition of the attention block


def check_lti_decomposition(n: int = 16, d_head: int = 4, seeds: int = 100) -> CheckResult:
    """Dual-path equality: direct block vs memoryless state-space + readout.

    The state recursion is x_{t+1} = A x_t + B v_{t+1} with A = 0, B = I; the
    time-invariant readout is the key-weighted M1/query contraction, and the
    per-step M2-row multiply is applied as post-processing.
    """
    worst = 0.0
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        params = SurrogateAttentionParams.create(n, d_head, heads=1, rng=rng)
        if params.n_pad != n:
            raise ConfigurationError(f"n={n} must be a perfect square for this check")
        x = rng.standard_normal((n, d_head))
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
        worst = np.maximum(worst, float(np.abs(direct - ltipath).max()))
        # A = 0 memorylessness: shuffling past inputs cannot move the state
        shuffled = v.copy()
        shuffled[: n - 1] = shuffled[: n - 1][::-1]
        if not np.array_equal(_simulate_memoryless_states(shuffled)[-1], states[-1]):
            raise AssertionError("state at t depends on earlier inputs despite A = 0")
    return CheckResult("lti_decomposition", worst, THRESH_ORACLE, seeds)


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
    from .tensor import GELU_C0, GELU_C1

    y = np.pad(x, ((0, 0), (0, params.d_ffn - params.d_in)))
    y = y @ monarch_to_dense(params.m1)
    if params.sigma == "relu":
        y = np.maximum(y, 0.0)
    elif params.sigma == "gelu":
        y = 0.5 * y * (1.0 + np.tanh(GELU_C0 * (y + GELU_C1 * y**3)))
    y = y @ monarch_to_dense(params.m2)
    return y[:, : params.d_in]


def check_sab_oracle(sizes=((4, 4), (16, 8), (64, 16)), heads: int = 2, seeds: int = 50) -> CheckResult:
    worst = 0.0
    for n, d in sizes:
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            params = SurrogateAttentionParams.create(n, d, heads=heads, rng=rng)
            x = rng.standard_normal((n, d))
            fast = surrogate_attention_forward(Tensor(x), params).data
            worst = np.maximum(worst, float(np.abs(fast - _dense_sab_oracle(x, params)).max()))
    return CheckResult("sab_oracle", worst, THRESH_BLOCK_ORACLE, seeds)


def check_sfb_oracle(sizes=((4, 4), (16, 8), (64, 16)), seeds: int = 50) -> CheckResult:
    worst = 0.0
    for n, d in sizes:
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            params = SurrogateFFNParams.create(d, rng)
            x = rng.standard_normal((n, d))
            fast = surrogate_ffn_forward(Tensor(x), params).data
            worst = np.maximum(worst, float(np.abs(fast - _dense_sfb_oracle(x, params)).max()))
    return CheckResult("sfb_oracle", worst, THRESH_BLOCK_ORACLE, seeds)


# ---------------------------------------------------------------------------
# Gradient correctness through a full enhanced layer


def check_layer_gradients(
    n: int = 6, d_model: int = 4, heads: int = 2, probes: int = 50, seed: int = 0
) -> CheckResult:
    rng = np.random.default_rng(seed)
    params = EnhancedLayerParams.create(n, d_model, heads, rng)
    x = Tensor(rng.standard_normal((n, d_model)))
    target = rng.standard_normal((n, d_model))

    def loss() -> Tensor:
        y = enhanced_layer_forward(x, params)
        diff = T.sub(y, Tensor(target))
        return T.sum_all(T.elementwise_mul(diff, diff))

    worst = float(probe_rel_errors(loss, params.parameters(), probes, rng))
    return CheckResult("layer_gradients", worst, THRESH_GRAD, probes)


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
