"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every primitive is a pure function of its inputs.  When a tape is active,
applications are recorded in execution order with their inputs.  A
primitive's backward maps the output gradient to one gradient per input;
``backward`` replays the tape once, in reverse, and accumulates them in that
fixed order, so repeated runs on fresh tapes are bit-identical.

Aliasing rule: a backward never writes into a forward array.  It may write
a leaf's *first* gradient into that leaf's `grad_home` (`_home`), when the
leaf is given to its node once, and `accumulate_grad` then takes that array
as the gradient without copying it; every later gradient is a fresh array
added to it.  So no gradient shares memory with a tape output or with
another tensor's gradient.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, ContractError, DimensionError

LAYER_NORM_EPS = 1e-5
GELU_C0 = 0.7978845608  # sqrt(2/pi), tanh approximation constant
GELU_C1 = 0.044715


class Tensor:
    """A dense row-major float64 array, optionally tracked for gradients.

    `_node_id` is its index on the tape that recorded it, None if none did.
    `grad_home`, when set (an optimizer's buffer view), is the preallocated
    array a first gradient is written into, so no per-parameter gradient is
    allocated.  Clear a gradient with `t.grad = None`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node_id", "grad_home")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._node_id: int | None = None
        self.grad_home: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add g to .grad, unless the tensor wants none: no leaf to train, not recorded."""
        if not self.requires_grad and self._node_id is None:
            return
        if g.shape != self.data.shape:
            raise DimensionError(f"gradient of shape {g.shape} for a tensor of shape {self.shape}")
        if self.grad is not None:
            self.grad += g
        elif g is self.grad_home:  # the backward wrote it in place
            self.grad = g
        elif self.grad_home is not None:
            np.copyto(self.grad_home, g)
            self.grad = self.grad_home
        else:
            self.grad = g.copy()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def parameters(obj) -> list[Tensor]:
    """Every Tensor a params dataclass holds, in field declaration order.

    Lists and nested params dataclasses are walked in place.
    """
    if isinstance(obj, Tensor):
        return [obj]
    if isinstance(obj, list):
        return [t for item in obj for t in parameters(item)]
    if dataclasses.is_dataclass(obj):
        return parameters([getattr(obj, f.name) for f in dataclasses.fields(obj)])
    return []


# maps the output gradient to one gradient per input, in input order
Backward = Callable[[np.ndarray], Sequence[np.ndarray]]


class Tape:
    """Ordered record of primitive applications: output, backward, inputs."""

    def __init__(self):
        self._nodes: list[tuple[Tensor, Backward, tuple[Tensor, ...]]] = []
        self._replayed = False

    def record(self, out: Tensor, backward: Backward, inputs: tuple[Tensor, ...]) -> None:
        out._node_id = len(self._nodes)
        self._nodes.append((out, backward, inputs))

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        if loss.data.ndim != 0 and loss.data.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
        i = loss._node_id
        if i is None or i >= len(self._nodes) or self._nodes[i][0] is not loss:
            raise ContractError("loss was not produced through primitives recorded on this tape")
        if self._replayed:
            # leaf grads already hold the first pass; a replay would add to them
            raise ContractError("backward already ran on this tape; record a new one")
        self._replayed = True
        loss.grad = np.ones_like(loss.data)
        for out, backward, inputs in reversed(self._nodes[: i + 1]):
            if out.grad is not None:
                for t, g in zip(inputs, backward(out.grad)):
                    t.accumulate_grad(g)
                out.grad = None  # passed on to its inputs; free it


_active_tape: Tape | None = None


@contextlib.contextmanager
def tape_scope() -> Iterator[Tape]:
    """Install a fresh tape as the active recording target for the block."""
    global _active_tape
    prev, _active_tape = _active_tape, Tape()
    try:
        yield _active_tape
    finally:
        _active_tape = prev


def _home(t: Tensor, *others: Tensor) -> np.ndarray | None:
    """Where a backward may write t's gradient: t.grad_home while t has no gradient.

    None as well when t is also one of its node's other inputs, whose
    gradient would land in the same array.
    """
    if t.grad is None and not any(o is t for o in others):
        return t.grad_home
    return None


def _record(out: Tensor, backward: Backward, *inputs: Tensor) -> Tensor:
    if _active_tape is not None and any(t.requires_grad or t._node_id is not None for t in inputs):
        _active_tape.record(out, backward, inputs)
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _record(Tensor(a.data + b.data), lambda g: (g, g), a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return _record(Tensor(a.data - b.data), lambda g: (g, -g), a, b)


def elementwise_mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "elementwise_mul")
    return _record(Tensor(a.data * b.data), lambda g: (g * b.data, g * a.data), a, b)


def scale(a: Tensor, c: float) -> Tensor:
    return _record(Tensor(a.data * c), lambda g: (g * c,), a)


def _operand_grad(x: np.ndarray, y: np.ndarray, ndim: int, home: np.ndarray | None) -> np.ndarray:
    """x @ y summed over the leading axes a matmul operand of ndim axes was broadcast along.

    With none to sum, it is written into home when there is one.
    """
    if max(x.ndim, y.ndim) > ndim:
        g = x @ y
        return g.sum(axis=tuple(range(g.ndim - ndim)))
    return np.matmul(x, y, out=home)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, or stacks of them: leading axes match or one side has none."""
    lead_a, lead_b = a.shape[:-2], b.shape[:-2]
    if (a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]
            or (lead_a and lead_b and lead_a != lead_b)):
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} do not chain")
    out = Tensor(a.data @ b.data)

    def bwd(g):
        return (_operand_grad(g, b.data.swapaxes(-1, -2), a.data.ndim, _home(a, b)),
                _operand_grad(a.data.swapaxes(-1, -2), g, b.data.ndim, _home(b, a)))

    return _record(out, bwd, a, b)


def sum_all(a: Tensor) -> Tensor:
    return _record(Tensor(a.data.sum()), lambda g: (np.full_like(a.data, float(g)),), a)


def mean_all(a: Tensor) -> Tensor:
    c = 1.0 / a.data.size
    return _record(Tensor(a.data.sum() * c), lambda g: (np.full_like(a.data, float(g) * c),), a)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def softmax_rows(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s)

    def bwd(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - inner),)

    return _record(out, bwd, a)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    n = a.shape[-1]
    if n < 2:
        raise DimensionError(f"layer_norm needs at least 2 features, got {n}")
    if gain.shape != (n,) or bias.shape != (n,):
        raise DimensionError(f"layer_norm: gain/bias must have shape ({n},)")
    # each mean rounds as ndarray.mean, and mean(c * c) as ndarray.var
    mean = lambda t: np.add.reduce(t, axis=-1, keepdims=True) / n
    c = a.data - mean(a.data)  # centred once
    inv = 1.0 / np.sqrt(mean(c * c) + LAYER_NORM_EPS)
    xhat = np.multiply(c, inv, out=c)
    out = Tensor(xhat * gain.data + bias.data)

    def bwd(g):
        gy = g * gain.data
        m1 = mean(gy)
        m2 = mean(gy * xhat)
        lead = tuple(range(g.ndim - 1))
        return (inv * (gy - m1 - xhat * m2),
                np.sum(g * xhat, axis=lead, out=_home(gain, a, bias)),
                np.sum(g, axis=lead, out=_home(bias, a, gain)))

    return _record(out, bwd, a, gain, bias)


ACTIVATION_KINDS = ("relu", "gelu", "identity")


def activation(a: Tensor, kind: str) -> Tensor:
    if kind == "relu":
        out = Tensor(np.maximum(a.data, 0.0))
        bwd = lambda g: (g * (a.data > 0.0),)
    elif kind == "gelu":
        x = a.data
        u = GELU_C0 * (x + GELU_C1 * x**3)
        t = np.tanh(u)
        out = Tensor(0.5 * x * (1.0 + t))

        def bwd(g):
            du = GELU_C0 * (1.0 + 3.0 * GELU_C1 * x**2)
            return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du),)

    elif kind == "identity":
        out = Tensor(a.data.copy())
        bwd = lambda g: (g,)
    else:
        raise ConfigurationError(f"unknown activation kind {kind!r}, expected one of {ACTIVATION_KINDS}")
    return _record(out, bwd, a)


# ---------------------------------------------------------------------------
# structure: reshapes and axis permutations


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    return _record(Tensor(a.data.reshape(shape)), lambda g: (g.reshape(a.shape),), a)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    """Permute the axes as ``np.transpose(a, axes)`` does."""
    inverse = np.argsort(axes)
    return _record(Tensor(a.data.transpose(axes)), lambda g: (g.transpose(inverse),), a)
