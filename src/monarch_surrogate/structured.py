"""Order-2 Monarch matrices: permutation, block-diagonal factors, fast apply.

A Monarch matrix of size n (a perfect square, block size b = sqrt(n)) is the
product P . L . P . R . P of a fixed grid-transpose permutation P and two
learnable block-diagonal factors.  A `MonarchMatrix` holds only the two
(b, b, b) factor stacks: n and b are read off them once, at construction,
and P is fixed by n.  The factored apply views its operand as a (b, b, d)
stack, so P is a swap of the two grid axes and each factor is one batched
matmul; the whole apply is a single tape node with a hand-written backward,
and the right apply is the left apply of the transpose.

The apply takes padding as block shapes rather than as zeros: an operand
with k < n rows stands for its zero-padded self, and the first factor
multiplies only the grid rows that can be nonzero; `size` < n asks for the
leading output rows only, and the second factor computes only the grid rows
that hold them.  Each batched product is written straight into its
grid-transposed slot.  The apply never materializes the dense matrix and
costs O(n^{3/2}) per column; a dense conversion exists for test oracles only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, DimensionError
from .tensor import Tensor


@dataclass(frozen=True)
class PermutationSpec:
    """The base-sqrt(n) index map h(i) = floor(i/b) + b*(i mod b).

    h transposes a b-by-b index grid, hence it is an involution and serves
    as its own inverse.
    """

    n: int
    b: int
    map: np.ndarray = field(repr=False)


def permutation_spec(n: int) -> PermutationSpec:
    if n < 1 or math.isqrt(n) ** 2 != n:
        raise DimensionError(
            f"permutation_spec requires a perfect-square size, got {n}; use pad_to_square first"
        )
    b = math.isqrt(n)
    i = np.arange(n)
    return PermutationSpec(n=n, b=b, map=i // b + b * (i % b))


def pad_to_square(n: int) -> int:
    """The smallest perfect square >= n: the Monarch size that holds n."""
    if n < 1:
        raise DimensionError(f"pad_to_square requires n >= 1, got {n}")
    root = math.isqrt(n)
    if root * root < n:
        root += 1
    return root * root


class FlopMeter:
    """Global multiply-add counter for factored Monarch applies."""

    def __init__(self):
        self.muladds = 0

    def reset(self) -> None:
        self.muladds = 0

    def add(self, muladds: int) -> None:
        self.muladds += muladds


flop_meter = FlopMeter()


def monarch_apply_muladds(n: int, d: int, k: int | None = None, size: int | None = None) -> int:
    """Multiply-adds of `monarch_apply` on d columns, k input rows, size output rows.

    Each factor costs b * b * d per grid row it touches: ceil(k/b) for the
    first, ceil(size/b) for the second; 2 * n^{3/2} * d when k = size = n.
    """
    b = math.isqrt(n)
    k = n if k is None else k
    size = n if size is None else size
    return b * b * d * (-(-k // b) + -(-size // b))


@dataclass
class MonarchMatrix:
    """n-by-n map factored as P . L . P . R . P with learnable L, R blocks.

    Only the factors are stored; n = b * b and b are set from their (b, b, b)
    shape at construction (plain attributes: the apply reads both every call).
    """

    left: Tensor  # (b, b, b) stack: diagonal blocks of L
    right: Tensor  # (b, b, b) stack: diagonal blocks of R
    n: int = field(init=False)
    b: int = field(init=False)

    def __post_init__(self):
        b = self.left.shape[0] if self.left.data.ndim == 3 else 0
        if b < 1 or self.left.shape != (b, b, b) or self.right.shape != (b, b, b):
            raise DimensionError(
                f"Monarch factors must be two (b, b, b) stacks of one b >= 1, "
                f"got {self.left.shape} and {self.right.shape}"
            )
        self.n, self.b = b * b, b

    @property
    def param_count(self) -> int:
        # 2 factors * b blocks * b*b entries = 2 * n^{3/2}
        return self.left.data.size + self.right.data.size

    parameters = T.parameters


def monarch_new(n: int, rng: np.random.Generator) -> MonarchMatrix:
    """Create a Monarch matrix of perfect-square size n with learnable factors.

    Block entries are drawn from normal(0, 1/sqrt(n)) (variance 1/b, i.e.
    per-block fan-in).
    """
    b = permutation_spec(n).b
    std = n ** -0.25  # variance 1/sqrt(n)
    return MonarchMatrix(
        left=Tensor(rng.normal(0.0, std, (b, b, b)), requires_grad=True),
        right=Tensor(rng.normal(0.0, std, (b, b, b)), requires_grad=True),
    )


def monarch_from_dense_factors(n: int, l_dense: np.ndarray, r_dense: np.ndarray) -> MonarchMatrix:
    """Build from dense block-diagonal L and R matrices (off-block entries must be zero)."""
    b = permutation_spec(n).b
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
    return MonarchMatrix(left=Tensor(left), right=Tensor(right))


def block_diag_dense(blocks: np.ndarray) -> np.ndarray:
    b = blocks.shape[0]
    n = b * b
    out = np.zeros((n, n))
    for j in range(b):
        out[j * b : (j + 1) * b, j * b : (j + 1) * b] = blocks[j]
    return out


def monarch_to_dense(m: MonarchMatrix) -> np.ndarray:
    """Materialize P.L.P.R.P; oracle/test use only."""
    h = permutation_spec(m.n).map
    ldense = block_diag_dense(m.left.data)
    rdense = block_diag_dense(m.right.data)
    # P @ A permutes rows by h; A @ P permutes columns by h (P symmetric).
    return (ldense[h][:, h] @ rdense)[:, h]


def _to_grid(cols: np.ndarray, b: int) -> np.ndarray:
    """P on k <= n columns given as a (k, d) array: a fresh (b, ceil(k/b), d) stack.

    out[j, i] holds cols[i*b + j].  Only the grid rows that can be nonzero
    are kept, and the unfilled tail of the last one is zero.
    """
    k, d = cols.shape
    full, rows = k // b, -(-k // b)
    z = np.empty((b, rows, d))
    zt = z.transpose(1, 0, 2)
    zt[:full] = cols[: full * b].reshape(full, b, d)
    if full < rows:
        zt[full, : k - full * b] = cols[full * b :]
        zt[full, k - full * b :] = 0.0
    return z


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose the last two axes: a matrix, or each block of a stack."""
    return np.swapaxes(a, -1, -2)


def monarch_apply(m: MonarchMatrix, x: Tensor, side: str, size: int | None = None) -> Tensor:
    """Factored apply as one tape node; differentiable in x and both block stacks.

    side 'left' computes (dense(M) @ x)[:size] for x of shape (k, d); side
    'right' computes (x @ dense(M))[:, :size] for x of shape (d, k), as the
    left apply of x^T with the transposed Monarch, dense(M)^T = P.R^T.P.L^T.P.
    The n - k missing rows (left) or columns (right) of x are implicit zeros,
    and size defaults to n.  Both sides run the same code on the (b, b, d)
    stack of columns: the first factor multiplies only the ceil(k/b) grid rows
    x can fill, the second computes only the ceil(size/b) grid rows kept, and
    each product is written straight into its grid-transposed slot.
    """
    if side not in ("left", "right"):
        raise ConfigurationError(f"side must be 'left' or 'right', got {side!r}")
    flip = side == "right"
    orient = _t if flip else (lambda a: a)
    n, b = m.n, m.b
    if x.data.ndim != 2 or not 1 <= orient(x.data).shape[0] <= n:
        raise DimensionError(f"{side} apply: x has shape {x.shape}, Monarch size is {n}")
    size = n if size is None else size
    if not 1 <= size <= n:
        raise DimensionError(f"{side} apply: size {size} outside 1..{n}")
    cols = orient(x.data)  # (k, d): the columns the Monarch acts on
    k, d = cols.shape
    kb, mb = -(-k // b), -(-size // b)
    # P.L.P.R.P applies R first; its transpose P.R^T.P.L^T.P applies L^T first
    first, second = (m.left, m.right) if flip else (m.right, m.left)
    f = orient(first.data)[:, :, :kb]  # meets only the grid rows x can fill
    s = orient(second.data)[:, :mb, :]  # makes only the grid rows kept
    z = _to_grid(cols, b)  # (b, kb, d)
    u = np.empty((b, b, d))
    np.matmul(f, z, out=u.transpose(1, 0, 2))
    v = np.empty((mb, b, d))
    np.matmul(s, u, out=v.transpose(1, 0, 2))
    out = Tensor(np.ascontiguousarray(orient(v.reshape(mb * b, d)[:size])))

    def bwd(g):
        gv = _to_grid(orient(g), b)  # (b, mb, d)
        if T._wants_grad(second):
            ds = np.zeros((b, b, b))
            np.matmul(gv, _t(u), out=ds[:, :mb, :])
            second.accumulate_grad(orient(ds))
        gu = np.empty((b, b, d))
        np.matmul(_t(s), gv, out=gu.transpose(1, 0, 2))
        if T._wants_grad(first):
            df = np.zeros((b, b, b))
            np.matmul(gu, _t(z), out=df[:, :, :kb])
            first.accumulate_grad(orient(df))
        if T._wants_grad(x):
            gx = np.empty((kb, b, d))
            np.matmul(_t(f), gu, out=gx.transpose(1, 0, 2))
            x.accumulate_grad(orient(gx.reshape(kb * b, d)[:k]))

    flop_meter.add(monarch_apply_muladds(n, d, k, size))
    return T._record(out, bwd, x, first, second)
