"""Window-to-window forecaster and a small Adam training loop."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import tensor as T
from .blocks import EnhancedLayerParams, enhanced_layer_forward
from .data import WindowedDataset
from .errors import ConfigurationError, ContractError
from .reference import DenseMHSAParams, dense_ffn_forward, dense_mhsa_forward
from .structured import pad_to_square
from .tensor import Tensor, tape_scope


@dataclass
class DenseLayerParams:
    """Standard encoder layer: softmax attention + two-layer ReLU FFN, post-norm."""

    sigma: ClassVar[str] = "relu"
    attn: DenseMHSAParams
    w1: Tensor
    w2: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor

    @classmethod
    def create(cls, d_model: int, heads: int, d_ff: int, rng: np.random.Generator) -> "DenseLayerParams":
        return cls(
            attn=DenseMHSAParams.create(d_model, heads, rng),
            w1=Tensor(rng.normal(0.0, d_model**-0.5, (d_model, d_ff)), requires_grad=True),
            # drawn as (d_model, d_ff), the draw a seed has always given, stored as read
            w2=Tensor(rng.normal(0.0, d_ff**-0.5, (d_model, d_ff)).T.copy(), requires_grad=True),
            ln1_gain=Tensor(np.ones(d_model), requires_grad=True),
            ln1_bias=Tensor(np.zeros(d_model), requires_grad=True),
            ln2_gain=Tensor(np.ones(d_model), requires_grad=True),
            ln2_bias=Tensor(np.zeros(d_model), requires_grad=True),
        )

    parameters = T.parameters


def dense_layer_forward(x: Tensor, params: DenseLayerParams) -> Tensor:
    x1 = T.layer_norm(
        T.add(x, dense_mhsa_forward(x, params.attn)), params.ln1_gain, params.ln1_bias
    )
    ffn = dense_ffn_forward(x1, params.w1, params.w2, params.sigma)
    return T.layer_norm(T.add(x1, ffn), params.ln2_gain, params.ln2_bias)


@dataclass
class ForecasterParams:
    """Scalar series in, l_out-step forecast out.

    embed lifts each scalar step to d_model, the encoder layers mix along
    the window, and the head flattens the whole window to the forecast.
    The window and forecast lengths and d_model are the tensors' shapes.
    """

    embed: Tensor  # (1, d_model)
    layers: list
    head: Tensor  # (l_in * d_model, l_out)

    @classmethod
    def create(
        cls,
        variant: str,
        l_in: int,
        l_out: int,
        d_model: int,
        heads: int,
        n_layers: int,
        d_ff: int,
        rng: np.random.Generator,
    ) -> "ForecasterParams":
        if variant == "surrogate":
            layers = [
                EnhancedLayerParams.create(l_in, d_model, heads, rng, d_ffn=pad_to_square(d_ff))
                for _ in range(n_layers)
            ]
        elif variant == "dense":
            layers = [DenseLayerParams.create(d_model, heads, d_ff, rng) for _ in range(n_layers)]
        else:
            raise ConfigurationError(f"unknown variant {variant!r}")
        return cls(
            embed=Tensor(rng.normal(0.0, 1.0, (1, d_model)), requires_grad=True),
            layers=layers,
            head=Tensor(
                rng.normal(0.0, (l_in * d_model) ** -0.5, (l_in * d_model, l_out)),
                requires_grad=True,
            ),
        )

    parameters = T.parameters


def forecaster_forward(x: Tensor, params: ForecasterParams, training: bool = False) -> Tensor:
    """x has shape (l_in, 1); returns the (1, l_out) forecast.

    A window of another length fails the head's matmul with DimensionError.
    Each layer runs the forward of its params type.  `training` has no
    effect: the forward is the same in training and in evaluation.
    """
    y = T.matmul(x, params.embed)
    for layer in params.layers:
        if isinstance(layer, EnhancedLayerParams):
            y = enhanced_layer_forward(y, layer)
        else:
            y = dense_layer_forward(y, layer)
    flat = T.reshape(y, (1, y.data.size))
    return T.matmul(flat, params.head)


# A step streams six float64 arrays a chunk at a time (the parameter, gradient, m
# and v slices and two scratch vectors): at 32 K elements, 6 x 256 KiB fits a 2 MiB L2.
ADAM_CHUNK = 1 << 15


class Adam:
    """Adam with bias correction over one flat float64 buffer of every parameter.

    `lr` has no default: the caller's config (`TrainConfig.lr` for training)
    is its one source.  After `Adam(params, lr)` each `p.data` is a view of
    `flat` and each `p.grad_home` a view of `grads`; `m` and `v` share the
    layout.  Backward puts each parameter's gradient in its `grad_home`, and
    `step` updates from `grads` only.  Write into the views in place, never
    rebind them: they are reused every step.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        offsets = np.cumsum([0] + [p.data.size for p in params])
        self.flat, self.grads, self.m, self.v = self._state = np.zeros((4, offsets[-1]))
        self._scratch = np.empty((2, min(ADAM_CHUNK, offsets[-1])))
        self._layout = []  # (parameter, its view of flat)
        for p, lo, hi in zip(params, offsets, offsets[1:]):
            self.flat[lo:hi] = p.data.ravel()
            p.data, p.grad_home = self.flat[lo:hi].reshape(p.shape), self.grads[lo:hi].reshape(p.shape)
            self._layout.append((p, p.data))

    def step(self) -> None:
        """Update m, v and each parameter in place, in Kingma & Ba's reordered form.

        Every array op rounds as in m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g
        and p -= lr_t*m / (sqrt(v) + eps_t), with lr_t = lr*sqrt(1-b2^t)/(1-b1^t)
        and eps_t = eps*sqrt(1-b2^t), so the step is bit-identical to that
        out-of-place formula.  It equals the textbook p -= lr*m_hat /
        (sqrt(v_hat) + eps) in exact arithmetic, but not bit for bit: it rounds
        differently and saves the two passes that form m_hat and v_hat.  Each
        parameter's .data must still be its view of flat and its .grad its
        grad_home, where backward put it: a gradient that is None or was set by
        hand raises ContractError before any state changes.
        """
        for p, view in self._layout:
            if p.data is not view or p.grad is not p.grad_home:
                raise ContractError(f"a {p.shape} parameter's .data or .grad is not its view of Adam's"
                                    " buffers; write .data in place and let backward fill .grad")
        self.t += 1
        root_c2 = math.sqrt(1.0 - self.beta2**self.t)
        lr_t, eps_t = self.lr * root_c2 / (1.0 - self.beta1**self.t), self.eps * root_c2
        for s in range(0, self.flat.size, ADAM_CHUNK):
            p, g, m, v = self._state[:, s : s + ADAM_CHUNK]
            a, b = self._scratch[:, : p.size]
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=a)
            v *= self.beta2
            v += np.multiply(np.multiply(g, 1.0 - self.beta2, out=a), g, out=a)
            np.sqrt(v, out=a)
            a += eps_t
            p -= np.divide(np.multiply(m, lr_t, out=b), a, out=b)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


@dataclass
class TrainConfig:
    variant: str = "surrogate"
    d_model: int = 16
    heads: int = 2
    layers: int = 1
    d_ff: int = 64
    lr: float = 3e-3
    epochs: int = 40
    seed: int = 0


@dataclass
class TrainResult:
    variant: str
    epochs_run: int
    best_epoch: int
    val_mse: list[float] = field(repr=False)
    test_mse: float = float("nan")
    test_mae: float = float("nan")
    failed: bool = False
    wall_seconds: float = 0.0


def _eval_mse_mae(params: ForecasterParams, xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    se = 0.0
    ae = 0.0
    for x, y in zip(xs, ys):
        pred = forecaster_forward(Tensor(x[:, None]), params).data[0]
        se += float(np.mean((pred - y) ** 2))
        ae += float(np.mean(np.abs(pred - y)))
    return se / len(xs), ae / len(xs)


def train_forecaster(dataset: WindowedDataset, cfg: TrainConfig) -> TrainResult:
    """Minimize per-window MSE with Adam; keep the best-validation weights."""
    if not 0 < cfg.lr < math.inf or cfg.epochs < 1:  # a NaN lr fails both comparisons
        raise ConfigurationError(f"need a finite lr > 0 and epochs >= 1, got lr={cfg.lr}, "
                                 f"epochs={cfg.epochs}")
    rng = np.random.default_rng(cfg.seed)
    params = ForecasterParams.create(cfg.variant, dataset.l_in, dataset.l_out, cfg.d_model,
                                     cfg.heads, cfg.layers, cfg.d_ff, rng)
    opt = Adam(params.parameters(), lr=cfg.lr)
    xs, ys = dataset.train
    best_val = float("inf")
    best_epoch = -1
    best: np.ndarray | None = None  # every parameter at the best epoch, as one copy of opt.flat
    val_history: list[float] = []
    t0 = time.perf_counter()
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(xs))
        for i in order:
            with tape_scope() as tape:
                pred = forecaster_forward(Tensor(xs[i][:, None]), params)
                diff = T.sub(pred, Tensor(ys[i][None, :]))
                loss = T.mean_all(T.elementwise_mul(diff, diff))
                if not np.isfinite(loss.data):
                    return TrainResult(
                        variant=cfg.variant, epochs_run=epoch, best_epoch=best_epoch,
                        val_mse=val_history, failed=True,
                        wall_seconds=time.perf_counter() - t0,
                    )
                opt.zero_grad()
                tape.backward(loss)
            opt.step()
        val, _ = _eval_mse_mae(params, *dataset.val)
        val_history.append(val)
        if val < best_val:
            best_val = val
            best_epoch = epoch
            best = opt.flat.copy()
    if best is not None:
        opt.flat[...] = best
    test_mse, test_mae = _eval_mse_mae(params, *dataset.test)
    return TrainResult(
        variant=cfg.variant,
        epochs_run=cfg.epochs,
        best_epoch=best_epoch,
        val_mse=val_history,
        test_mse=test_mse,
        test_mae=test_mae,
        wall_seconds=time.perf_counter() - t0,
    )
