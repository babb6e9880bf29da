"""Order-2 Monarch matrices: permutation, block-diagonal factors, fast apply.

A Monarch matrix of size n (a perfect square, block size b = sqrt(n)) is the
product P . L . P . R . P of a fixed grid-transpose permutation P and two
learnable block-diagonal factors.  The factored apply views its operand as a
(b, b, d) stack, so P is a swap of the two grid axes and each factor is one
batched matmul; the whole apply is a single tape node with a hand-written
backward, and the right apply is the left apply of the transpose.  It never
materializes the dense matrix and costs O(n^{3/2}) per column; a dense
conversion exists for test oracles only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, DimensionError
from .tensor import Tensor


def is_perfect_square(n: int) -> bool:
    b = math.isqrt(n)
    return b * b == n


@dataclass(frozen=True)
class PermutationSpec:
    """The base-sqrt(n) index map h(i) = floor(i/b) + b*(i mod b).

    h transposes a b-by-b index grid, hence it is an involution and serves
    as its own inverse.
    """

    n: int
    b: int
    map: np.ndarray = field(repr=False)

    def matrix(self) -> np.ndarray:
        p = np.zeros((self.n, self.n))
        p[np.arange(self.n), self.map] = 1.0
        return p


def permutation_spec(n: int) -> PermutationSpec:
    if n < 1 or not is_perfect_square(n):
        raise DimensionError(
            f"permutation_spec requires a perfect-square size, got {n}; use pad_to_square first"
        )
    b = math.isqrt(n)
    i = np.arange(n)
    return PermutationSpec(n=n, b=b, map=i // b + b * (i % b))


@dataclass
class SquarePadding:
    """A size n and the perfect square n_pad it is zero-padded to."""

    n: int
    n_pad: int


def pad_to_square(n: int) -> SquarePadding:
    if n < 1:
        raise DimensionError(f"pad_to_square requires n >= 1, got {n}")
    root = math.isqrt(n)
    if root * root < n:
        root += 1
    return SquarePadding(n=n, n_pad=root * root)


class FlopMeter:
    """Global multiply-add counter for factored Monarch applies."""

    def __init__(self):
        self.muladds = 0

    def reset(self) -> None:
        self.muladds = 0

    def add(self, muladds: int) -> None:
        self.muladds += muladds


flop_meter = FlopMeter()


def monarch_apply_muladds(n: int, d: int) -> int:
    """Metered multiply-add cost of one factored apply: 4 * n^{3/2} * d."""
    b = math.isqrt(n)
    return 4 * n * b * d


@dataclass
class MonarchMatrix:
    """n-by-n map factored as P . L . P . R . P with learnable L, R blocks."""

    n: int
    left: Tensor  # (b, b, b) stack: diagonal blocks of L
    right: Tensor  # (b, b, b) stack: diagonal blocks of R
    perm: PermutationSpec

    @property
    def b(self) -> int:
        return self.perm.b

    @property
    def param_count(self) -> int:
        # 2 factors * b blocks * b*b entries = 2 * n^{3/2}
        return self.left.data.size + self.right.data.size

    def parameters(self) -> list[Tensor]:
        return [self.left, self.right]


def monarch_new(
    n: int,
    init: str = "kaiming-block",
    rng: np.random.Generator | None = None,
    blocks: tuple[np.ndarray, np.ndarray] | None = None,
    requires_grad: bool = True,
) -> MonarchMatrix:
    """Create a Monarch matrix of perfect-square size n.

    init 'kaiming-block' draws block entries from normal(0, 1/sqrt(n))
    (variance 1/b, i.e. per-block fan-in); 'identity-block' makes both
    factors identity so the dense form reduces to the permutation matrix;
    'explicit' takes (left, right) stacks of shape (b, b, b).
    """
    spec = permutation_spec(n)
    b = spec.b
    if init == "kaiming-block":
        if rng is None:
            rng = np.random.default_rng()
        std = n ** -0.25  # variance 1/sqrt(n)
        left = rng.normal(0.0, std, (b, b, b))
        right = rng.normal(0.0, std, (b, b, b))
    elif init == "identity-block":
        left = np.broadcast_to(np.eye(b), (b, b, b)).copy()
        right = left.copy()
    elif init == "explicit":
        if blocks is None:
            raise ConfigurationError("explicit init requires blocks=(left, right)")
        left, right = (np.asarray(x, dtype=np.float64) for x in blocks)
        if left.shape != (b, b, b) or right.shape != (b, b, b):
            raise DimensionError(
                f"explicit blocks must have shape {(b, b, b)}, got {left.shape} and {right.shape}"
            )
    else:
        raise ConfigurationError(f"unknown init {init!r}")
    return MonarchMatrix(
        n=n,
        left=Tensor(left, requires_grad=requires_grad),
        right=Tensor(right, requires_grad=requires_grad),
        perm=spec,
    )


def monarch_from_dense_factors(n: int, l_dense: np.ndarray, r_dense: np.ndarray) -> MonarchMatrix:
    """Build from dense block-diagonal L and R matrices (off-block entries must be zero)."""
    spec = permutation_spec(n)
    b = spec.b
    for name, mat in (("L", l_dense), ("R", r_dense)):
        if mat.shape != (n, n):
            raise DimensionError(f"{name} must be {n}x{n}, got {mat.shape}")
        mask = np.ones((n, n), dtype=bool)
        for j in range(b):
            mask[j * b : (j + 1) * b, j * b : (j + 1) * b] = False
        if np.any(mat[mask] != 0.0):
            raise DimensionError(f"{name} has nonzeros outside its diagonal blocks")
    left = np.stack([l_dense[j * b : (j + 1) * b, j * b : (j + 1) * b] for j in range(b)])
    right = np.stack([r_dense[j * b : (j + 1) * b, j * b : (j + 1) * b] for j in range(b)])
    return MonarchMatrix(n=n, left=Tensor(left), right=Tensor(right), perm=spec)


def block_diag_dense(blocks: np.ndarray) -> np.ndarray:
    b = blocks.shape[0]
    n = b * b
    out = np.zeros((n, n))
    for j in range(b):
        out[j * b : (j + 1) * b, j * b : (j + 1) * b] = blocks[j]
    return out


def monarch_to_dense(m: MonarchMatrix) -> np.ndarray:
    """Materialize P.L.P.R.P; oracle/test use only."""
    h = m.perm.map
    ldense = block_diag_dense(m.left.data)
    rdense = block_diag_dense(m.right.data)
    # P @ A permutes rows by h; A @ P permutes columns by h (P symmetric).
    return (ldense[h][:, h] @ rdense)[:, h]


def _grid_t(a: np.ndarray) -> np.ndarray:
    """P on a (b, b, d) stack: swap the two grid axes, as a contiguous copy.

    Contiguous operands keep every batched matmul on the same BLAS path, so
    the rounding does not depend on which side the apply came from.
    """
    return np.ascontiguousarray(a.transpose(1, 0, 2))


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose the last two axes: a matrix, or each block of a stack."""
    return np.swapaxes(a, -1, -2)


def monarch_apply(m: MonarchMatrix, x: Tensor, side: str) -> Tensor:
    """Factored apply as one tape node; differentiable in x and both block stacks.

    side 'left' computes dense(M) @ x for x of shape (n, d); side 'right'
    computes x @ dense(M) for x of shape (d, n) as the left apply of x^T with
    the transposed Monarch, dense(M)^T = P.R^T.P.L^T.P.  On the (b, b, d)
    stack of columns both sides run the same code: grid transpose, batched
    matmul with the first factor, grid transpose, batched matmul with the
    second factor, grid transpose.
    """
    if side not in ("left", "right"):
        raise ConfigurationError(f"side must be 'left' or 'right', got {side!r}")
    flip = side == "right"
    orient = _t if flip else (lambda a: a)
    if x.data.ndim != 2 or orient(x.data).shape[0] != m.n:
        raise DimensionError(f"{side} apply: x has shape {x.shape}, Monarch size is {m.n}")
    cols = orient(x.data)  # (n, d): the columns the Monarch acts on
    n, b, d = m.n, m.b, cols.shape[1]
    # P.L.P.R.P applies R first; its transpose P.R^T.P.L^T.P applies L^T first
    first, second = (m.left, m.right) if flip else (m.right, m.left)
    f, s = orient(first.data), orient(second.data)
    z = _grid_t(cols.reshape(b, b, d))
    u = _grid_t(np.matmul(f, z))
    y = _grid_t(np.matmul(s, u)).reshape(n, d)
    out = Tensor(np.ascontiguousarray(orient(y)))

    def bwd(g):
        gv = _grid_t(orient(g).reshape(b, b, d))
        if T._wants_grad(second):
            second.accumulate_grad(orient(np.matmul(gv, _t(u))))
        gu = _grid_t(np.matmul(_t(s), gv))
        if T._wants_grad(first):
            first.accumulate_grad(orient(np.matmul(gu, _t(z))))
        if T._wants_grad(x):
            x.accumulate_grad(orient(_grid_t(np.matmul(_t(f), gu)).reshape(n, d)))

    flop_meter.add(monarch_apply_muladds(n, d))
    return T._record(out, bwd, x, first, second)
