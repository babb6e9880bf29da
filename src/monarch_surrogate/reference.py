"""Dense baselines and synthetic attention-pattern generators.

The dense multi-head self-attention and FFN here are the standard forms the
surrogate blocks replace.  The pattern generators produce row-stochastic
scoring matrices whose mass sits either on a circular diagonal band or on a
fixed set of columns; they feed the attention-equals-convolution checkers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, DimensionError
from .tensor import Tensor


@dataclass
class DenseMHSAParams:
    w_qry: Tensor  # (heads, d_in, d_k), d_k = d_in // heads
    w_key: Tensor
    w_val: Tensor
    w_out: Tensor  # (heads * d_k, d_in): head h's output projection in rows h*d_k..

    @classmethod
    def create(cls, d_in: int, heads: int, rng: np.random.Generator) -> "DenseMHSAParams":
        if heads < 1 or d_in % heads != 0:
            raise ConfigurationError(f"need heads >= 1 dividing d_in={d_in}, got heads={heads}")
        d_k = d_in // heads

        # every weight has d_in rows; one draw of a stack fills the heads in
        # the order per-head draws would
        def w(*shape):
            return Tensor(rng.normal(0.0, d_in**-0.5, shape), requires_grad=True)

        return cls(w(heads, d_in, d_k), w(heads, d_in, d_k), w(heads, d_in, d_k), w(d_in, d_in))

    parameters = T.parameters


def dense_mhsa_forward(x: Tensor, params: DenseMHSAParams) -> Tensor:
    """Softmax(Q K^T / sqrt(Dk)) X W_val for every head at once, heads concatenated."""
    heads, _, d_k = params.w_qry.shape
    q = T.matmul(x, params.w_qry)  # (heads, n, d_k)
    k = T.matmul(x, params.w_key)
    v = T.matmul(x, params.w_val)
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 2, 1))), d_k**-0.5)
    o = T.matmul(T.softmax_rows(scores), v)
    cols = T.reshape(T.transpose(o, (1, 0, 2)), (x.shape[0], heads * d_k))
    return T.matmul(cols, params.w_out)


def dense_ffn_forward(x: Tensor, w1: Tensor, w2: Tensor, sigma: str) -> Tensor:
    """Two-layer network sigma(X W1) W2, W1 (d_in, d_m) and W2 (d_m, d_in); a mismatch fails a matmul."""
    return T.matmul(T.activation(T.matmul(x, w1), sigma), w2)


@dataclass
class AttentionPattern:
    """Generator spec for a diagonal-band or fixed-column scoring matrix.

    Weights are strictly positive, sum to one, and are shared across queries
    (the query-independence hypothesis of the equivalence theorems).  weights
    (and columns) may carry one leading trial axis: row t is trial t's pattern.
    """

    kind: str  # 'diagonal' or 'vertical'
    n: int
    lam: int
    weights: np.ndarray  # diagonal: f over offsets -floor(lam/2)..floor(lam/2); vertical: g over columns
    columns: np.ndarray | None = None  # vertical only: the lam significant columns

    def __post_init__(self):
        if self.kind not in ("diagonal", "vertical"):
            raise ConfigurationError(f"unknown pattern kind {self.kind!r}")
        if self.weights.ndim not in (1, 2) or self.weights.shape[-1] != self.lam:
            raise ConfigurationError(f"pattern needs lambda={self.lam} weights per trial, "
                                     f"got shape {self.weights.shape}")
        if self.kind == "diagonal":
            if self.lam % 2 == 0:
                raise ConfigurationError(f"diagonal pattern needs odd lambda, got {self.lam}")
        else:
            if self.columns is None or self.columns.shape != self.weights.shape:
                raise ConfigurationError("vertical pattern needs lambda columns per trial")
            if np.any(np.diff(np.sort(self.columns, axis=-1), axis=-1) == 0):
                raise ConfigurationError("vertical pattern columns must be distinct")
            if np.any(self.columns < 0) or np.any(self.columns >= self.n):
                raise ConfigurationError("vertical pattern columns out of range")
        if np.any(self.weights <= 0.0) or np.any(np.abs(self.weights.sum(axis=-1) - 1.0) > 1e-12):
            raise ConfigurationError("pattern weights must be positive and sum to 1")

    @property
    def offsets(self) -> np.ndarray:
        half = self.lam // 2
        return np.arange(-half, half + 1)


def random_pattern(kind: str, n: int, lam: int, rng) -> AttentionPattern:
    """Draw weights uniform(0.1, 1) and normalize, keeping them in (0, 1].

    rng is one Generator, or a list of them: a list draws each trial's pattern
    from its own generator, in the order one generator would, and stacks them
    on a leading trial axis.
    """
    stacked = isinstance(rng, list)
    rngs = rng if stacked else [rng]
    w = np.stack([r.uniform(0.1, 1.0, lam) for r in rngs])
    w /= w.sum(axis=-1, keepdims=True)
    cols = None
    if kind == "vertical":
        cols = np.stack([np.sort(r.choice(n, size=lam, replace=False)) for r in rngs])
    if not stacked:
        w, cols = w[0], None if cols is None else cols[0]
    return AttentionPattern(kind=kind, n=n, lam=lam, weights=w, columns=cols)


def pattern_matrix(p: AttentionPattern) -> np.ndarray:
    """Materialize the row-stochastic N x N scoring matrix, one per trial."""
    w = p.weights.reshape(-1, p.lam)
    a = np.zeros((len(w), p.n, p.n))
    rows = np.arange(p.n)
    if p.kind == "diagonal":
        for j, delta in enumerate(p.offsets):
            a[:, rows, (rows - delta) % p.n] = w[:, j, None]
    else:
        trials = np.arange(len(w))[:, None, None]
        a[trials, rows[:, None], p.columns.reshape(-1, 1, p.lam)] = w[:, None, :]
    return a.reshape(p.weights.shape[:-1] + (p.n, p.n))


def patterned_mhsa_forward(x: np.ndarray, scores: list[np.ndarray], w: list[np.ndarray]) -> np.ndarray:
    """MHSA with externally imposed scoring matrices: sum_h A_h X W_h.

    x (n, d_in), each A_h (n, n) and each W_h (d_in, d_out), or all three with
    one leading trial axis.
    """
    if len(scores) != len(w):
        raise DimensionError("need one scoring matrix per head weight")
    n = x.shape[-2]
    out = np.zeros(x.shape[:-1] + (w[0].shape[-1],))
    for a, wh in zip(scores, w):
        if a.shape[-2:] != (n, n):
            raise DimensionError(f"scoring matrix shape {a.shape} does not match {n} rows")
        out += a @ x @ wh
    return out


def sum_of_convs_forward(x: np.ndarray, kernels: list[dict[int, np.ndarray]]) -> np.ndarray:
    """Circular 1-D convolution over rows with matrix-valued taps, summed over heads.

    kernels[h] maps offset delta to the (d_in, d_out) tap W_delta; output row q
    is sum_h sum_delta X[(q - delta) mod N] @ W_delta.  x and every tap may
    carry one leading trial axis.
    """
    n = x.shape[-2]
    d_out = next(iter(kernels[0].values())).shape[-1]
    out = np.zeros(x.shape[:-1] + (d_out,))
    rows = np.arange(n)
    for taps in kernels:
        for delta, w_delta in taps.items():
            out += x[..., (rows - delta) % n, :] @ w_delta
    return out


def fixed_tap_aggregation(x: np.ndarray, pattern: AttentionPattern, w: list[np.ndarray]) -> np.ndarray:
    """The query-independent form a vertical MHSA collapses to.

    Every output row equals sum_h sum_{k in K} g(k) X[k] @ W_h.  x, the
    pattern and every W_h may carry one leading trial axis.
    """
    if pattern.kind != "vertical":
        raise ConfigurationError("fixed-tap aggregation applies to vertical patterns")
    picked = np.take_along_axis(x, pattern.columns[..., None], axis=-2)  # (..., lam, d_in)
    pooled = pattern.weights[..., None, :] @ picked  # (..., 1, d_in)
    row = sum(pooled @ wh for wh in w)
    return np.repeat(row, x.shape[-2], axis=-2)
