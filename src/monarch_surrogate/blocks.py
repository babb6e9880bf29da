"""Surrogate attention and FFN blocks built from Monarch matrices.

The attention replacement computes, per head,

    SA = M2 @ ((M1 @ Q) * K) * V        (`surrogate_mix`)

with learnable sequence-axis Monarchs M1, M2 and Monarch-projected Q, K, V,
then sums head outputs through per-head dense output projections.  There is
no softmax and no 1/sqrt(Dk) scaling anywhere in this path.  The heads run
side by side: Q, K and V are each one grouped Monarch with a group per head,
so every head's projection is one apply; M1 and M2 act on the sequence axis,
so one apply mixes the head-stacked (n, heads * d_head) columns of all heads
at once; and the head sum is one matmul, concat_h(SA_h) @ W with W the
row-stacked output projections.  The FFN replacement is Y = sigma(X @ M1) @ M2
on the feature axis.

The params objects hold only what is learned or chosen; every size the
stacks fix (the attention's heads and d_in, the head width, the Monarch
sizes) is read off them once, at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, DimensionError
from .structured import MonarchMatrix, _draw, monarch_apply, monarch_new, pad_to_square
from .tensor import Tensor


def _view(t: Tensor, index) -> Tensor:
    """A read-only Tensor over t.data[index], sharing t's memory."""
    data = t.data[index]
    data.flags.writeable = False
    return Tensor(data, requires_grad=t.requires_grad)


def _group(m: MonarchMatrix, h: int) -> MonarchMatrix:
    return MonarchMatrix(_view(m.left, h), _view(m.right, h))


@dataclass
class SurrogateAttentionParams:
    q_stack: MonarchMatrix  # one group per head, size d_head
    k_stack: MonarchMatrix
    v_stack: MonarchMatrix
    m1: MonarchMatrix  # sequence Monarchs, size n_pad
    m2: MonarchMatrix
    w_stack: Tensor  # (heads * d_head, d_in): head h's output projection in rows h*d_head..
    heads: int = field(init=False)  # Q's group count
    d_in: int = field(init=False)  # model width, w_stack's columns
    head_width: int = field(init=False)  # contiguous input chunk per head, d_in // heads
    d_head: int = field(init=False)  # per-head Monarch size, a perfect square
    n_pad: int = field(init=False)  # sequence Monarch size, a perfect square

    def __post_init__(self):
        self.heads, self.d_in = self.q_stack.groups, self.w_stack.shape[-1]
        self.head_width = self.d_in // self.heads
        self.d_head, self.n_pad = self.q_stack.n, self.m1.n
        if self.head_width * self.heads != self.d_in or self.head_width > self.d_head:
            raise ConfigurationError(
                f"{self.heads} heads of Monarch size {self.d_head} do not fit d_in={self.d_in}"
            )
        stacked = (self.heads * self.d_head, self.d_in)
        kv = (self.k_stack, self.v_stack)
        if any((m.groups, m.n) != (self.heads, self.d_head) for m in kv) or (
            self.w_stack.shape != stacked
        ):
            raise DimensionError(
                f"need K/V stacks of Q's {self.heads} Monarchs of size {self.d_head} "
                f"and a {stacked} output stack"
            )
        if self.m2.n != self.n_pad:
            raise DimensionError(f"sequence Monarchs have sizes {self.n_pad} and {self.m2.n}")

    @property
    def m_q(self) -> tuple[MonarchMatrix, ...]:
        """Read-only per-head views of q_stack, built per access to follow a rebound `.data`."""
        return tuple(_group(self.q_stack, h) for h in range(self.heads))

    @property
    def w_out(self) -> tuple[Tensor, ...]:
        """Read-only views of each head's (d_head, d_in) output projection: rows h*d_head.."""
        dh = self.d_head
        return tuple(_view(self.w_stack, slice(h * dh, (h + 1) * dh)) for h in range(self.heads))

    @classmethod
    def create(
        cls, n_seq: int, d_in: int, heads: int, rng: np.random.Generator
    ) -> "SurrogateAttentionParams":
        if heads < 1 or d_in % heads != 0:
            raise ConfigurationError(f"need heads >= 1 dividing d_in={d_in}, got heads={heads}")
        d_head = pad_to_square(d_in // heads)
        n_pad = pad_to_square(n_seq)
        m1 = monarch_new(n_pad, rng=rng)
        m2 = monarch_new(n_pad, rng=rng)
        q_stack, k_stack, v_stack = (
            MonarchMatrix(*(Tensor(f, requires_grad=True) for f in _draw(d_head, heads, rng)))
            for _ in range(3))
        # one draw of heads * d_head rows fills the rows the per-head draws would
        w_stack = Tensor(rng.normal(0.0, d_head**-0.5, (heads * d_head, d_in)), requires_grad=True)
        return cls(q_stack, k_stack, v_stack, m1, m2, w_stack)

    parameters = T.parameters


@dataclass
class SurrogateFFNParams:
    d_in: int
    m1: MonarchMatrix
    m2: MonarchMatrix
    sigma: str = "relu"
    d_ffn: int = field(init=False)  # Monarch size, a perfect square >= d_in

    def __post_init__(self):
        self.d_ffn = self.m1.n
        if self.d_ffn < self.d_in:
            raise ConfigurationError(f"d_ffn={self.d_ffn} smaller than d_in={self.d_in}")
        if self.m2.n != self.d_ffn:
            raise DimensionError(f"FFN Monarchs have sizes {self.d_ffn} and {self.m2.n}")

    @classmethod
    def create(
        cls,
        d_in: int,
        rng: np.random.Generator,
        d_ffn: int | None = None,
        sigma: str = "relu",
    ) -> "SurrogateFFNParams":
        d_ffn = pad_to_square(d_in) if d_ffn is None else d_ffn
        if pad_to_square(d_ffn) != d_ffn:
            raise ConfigurationError(f"d_ffn={d_ffn} must be a perfect square")
        return cls(d_in, monarch_new(d_ffn, rng=rng), monarch_new(d_ffn, rng=rng), sigma)

    parameters = T.parameters


@dataclass
class EnhancedLayerParams:
    attn: SurrogateAttentionParams
    ffn: SurrogateFFNParams
    norm_style: str  # 'post-ln' or 'pre-ln'
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor

    def __post_init__(self):
        if self.norm_style not in ("post-ln", "pre-ln"):
            raise ConfigurationError(f"unknown norm style {self.norm_style!r}")

    @classmethod
    def create(
        cls,
        n_seq: int,
        d_model: int,
        heads: int,
        rng: np.random.Generator,
        norm_style: str = "post-ln",
        d_ffn: int | None = None,
        sigma: str = "relu",
    ) -> "EnhancedLayerParams":
        return cls(
            attn=SurrogateAttentionParams.create(n_seq, d_model, heads, rng),
            ffn=SurrogateFFNParams.create(d_model, rng, d_ffn=d_ffn, sigma=sigma),
            norm_style=norm_style,
            ln1_gain=Tensor(np.ones(d_model), requires_grad=True),
            ln1_bias=Tensor(np.zeros(d_model), requires_grad=True),
            ln2_gain=Tensor(np.ones(d_model), requires_grad=True),
            ln2_bias=Tensor(np.zeros(d_model), requires_grad=True),
        )

    parameters = T.parameters


def structured_projection(
    x: Tensor, params: SurrogateAttentionParams
) -> tuple[list[Tensor], list[Tensor], list[Tensor]]:
    """Monarch-project x's per-head column chunks to head-stacked Q, K, V.

    Each of Q, K, V is one grouped right apply, returned as a one-element
    list: head h's chunk (columns h*w..) meets head h's Monarch, columns w..
    of each chunk are implicit zeros, and head h's result fills columns
    h*d_head.. of the (n, heads * d_head) output.
    """
    n = x.shape[0]
    if n > params.n_pad:
        raise DimensionError(f"sequence length {n} exceeds padded size {params.n_pad}")
    if x.shape[1] != params.d_in:
        raise DimensionError(f"input width {x.shape[1]} != d_in {params.d_in}")
    qs, ks, vs = ([monarch_apply(m, x, "right")]
                  for m in (params.q_stack, params.k_stack, params.v_stack))
    return qs, ks, vs


def surrogate_mix(q: Tensor, k: Tensor, v: Tensor, m1: MonarchMatrix, m2: MonarchMatrix) -> Tensor:
    """Sequence mixing M2 ((M1 Q) . K) . V for (n, w) Q, K, V, n <= m1.n.

    Every column is mixed alike, so the columns may be one head's or the
    head-stacked columns of all heads.  Rows n.. of Q, K, V are implicit
    zeros, and so are those rows of (M1 Q) . K; only the n rows that
    survive . V are computed.
    """
    n = q.shape[0]
    a = T.elementwise_mul(monarch_apply(m1, q, "left", n), k)
    return T.elementwise_mul(monarch_apply(m2, a, "left", n), v)


def surrogate_attention_forward(x: Tensor, params: SurrogateAttentionParams) -> Tensor:
    """Head sum sum_h [M2 ((M1 Q_h) . K_h) . V_h] W_out_h, as concat_h(SA_h) @ W."""
    (q,), (k,), (v,) = structured_projection(x, params)
    return T.matmul(surrogate_mix(q, k, v, params.m1, params.m2), params.w_stack)


def surrogate_ffn_forward(x: Tensor, params: SurrogateFFNParams) -> Tensor:
    """Feature-axis swap Y = sigma(X M1) M2 at the Monarch size, read at width d_in.

    X's columns d_in.. are implicit zeros, and only the first d_in columns
    of the output are computed.  The wide hidden sigma(X M1) is held
    feature-major, (d_ffn, rows), the layout both applies work in, so only
    the d_in-wide ends are transposed.
    """
    if x.shape[1] != params.d_in:
        raise DimensionError(f"input width {x.shape[1]} != d_in {params.d_in}")
    h = T.activation(monarch_apply(params.m1, x, "right", t_out=True), params.sigma)
    return monarch_apply(params.m2, h, "right", params.d_in, t_in=True)


def enhanced_layer_forward(x: Tensor, params: EnhancedLayerParams) -> Tensor:
    """One encoder layer with either residual-connection style."""
    sab = lambda t: surrogate_attention_forward(t, params.attn)
    sfb = lambda t: surrogate_ffn_forward(t, params.ffn)
    ln1 = lambda t: T.layer_norm(t, params.ln1_gain, params.ln1_bias)
    ln2 = lambda t: T.layer_norm(t, params.ln2_gain, params.ln2_bias)
    if params.norm_style == "post-ln":
        x1 = ln1(T.add(x, sab(x)))
        return ln2(T.add(x1, sfb(x1)))
    x1 = T.add(x, sab(ln1(x)))
    return T.add(x1, sfb(ln2(x1)))
