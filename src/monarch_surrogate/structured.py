"""Order-2 Monarch matrices: permutation, block-diagonal factors, fast apply.

A Monarch matrix of size n (a perfect square, block size b = sqrt(n)) is the
product P . L . P . R . P of a fixed grid-transpose permutation P and two
learnable block-diagonal factors.  A `MonarchMatrix` holds only the two
(b, b, b) factor stacks: n and b are read off them once, at construction,
and P is fixed by n.  The stacks may carry a leading group axis, (g, b, b, b):
g Monarchs of one size applied side by side, group i to column chunk i of
the operand.  The factored apply views its operand as a (g, b, b, d) stack,
so P is a swap of the two grid axes and each factor is one batched matmul
over every group and block; the whole apply is a single tape node with a
hand-written backward, and the right apply is the left apply of the
transpose.  x's gradient is the apply of the transpose too, through the
same routine: only the two factor gradients are products of their own.
Each is its factor's output gradient times its input, transposed, in the
frame the apply used, stored transposed when the apply used the factor's
transpose; it goes into the factor's `grad_home` when the tape allows it.

Each end of an apply, operand and result, is laid out one of two ways: the
Monarch axis down the columns, (n, d), as a left apply takes and returns
them, or along the rows, (d, n), as a right apply does.  Either end may be
asked for in the other layout, so a chain of right applies can keep a wide
activation Monarch-axis-first and transpose only at its narrow ends.  An
operand that already fills whole grid rows contiguously is read in place;
any other is copied once into the grid.

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

    b: int
    map: np.ndarray = field(repr=False)


def _root(n: int) -> int:
    """The block size b = sqrt(n) of a Monarch of size n, a perfect square."""
    if n < 1 or math.isqrt(n) ** 2 != n:
        raise DimensionError(f"Monarch size {n} is not a perfect square; use pad_to_square first")
    return math.isqrt(n)


def permutation_spec(n: int) -> PermutationSpec:
    b = _root(n)
    i = np.arange(n)
    return PermutationSpec(b=b, map=i // b + b * (i % b))


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
    A grouped Monarch costs this once per group, with d, k, size per group.
    """
    b = _root(n)
    k = n if k is None else k
    size = n if size is None else size
    if not (1 <= k <= n and 1 <= size <= n):
        raise DimensionError(f"k={k} and size={size} must lie in 1..{n}")
    return b * b * d * (-(-k // b) + -(-size // b))


@dataclass
class MonarchMatrix:
    """n-by-n map factored as P . L . P . R . P with learnable L, R blocks.

    Only the factors are stored; n = b * b, b and the group count are set
    from their shape at construction (plain attributes: the apply reads them
    every call).  A grouped Monarch is `groups` Monarchs of size n stacked
    on a leading axis; an ungrouped one has groups = 1.
    """

    left: Tensor  # (b, b, b) or (groups, b, b, b) stack: diagonal blocks of L
    right: Tensor  # same shape: diagonal blocks of R
    n: int = field(init=False)
    b: int = field(init=False)
    groups: int = field(init=False)

    def __post_init__(self):
        shape = self.left.shape
        b = shape[-1] if len(shape) in (3, 4) else 0
        if b < 1 or shape[-3:] != (b, b, b) or self.right.shape != shape or 0 in shape:
            raise DimensionError(
                f"Monarch factors must be two (b, b, b) or (g, b, b, b) stacks of one "
                f"b >= 1, got {self.left.shape} and {self.right.shape}"
            )
        self.n, self.b = b * b, b
        self.groups = shape[0] if len(shape) == 4 else 1

    @property
    def param_count(self) -> int:
        # per group: 2 factors * b blocks * b*b entries = 2 * n^{3/2}
        return self.left.data.size + self.right.data.size

    parameters = T.parameters


def _draw(n: int, groups: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The (groups, b, b, b) L and R stacks of `groups` Monarchs of size n.

    One draw, L then R per group, from normal(0, 1/sqrt(n)) (variance 1/b,
    i.e. per-block fan-in); one group's stacks are views of it.
    """
    b = _root(n)
    f = rng.normal(0.0, n**-0.25, (groups, 2, b, b, b))
    return np.ascontiguousarray(f[:, 0]), np.ascontiguousarray(f[:, 1])


def monarch_new(n: int, rng: np.random.Generator) -> MonarchMatrix:
    """Create a Monarch matrix of perfect-square size n with learnable factors: one `_draw`."""
    return MonarchMatrix(*(Tensor(f[0], requires_grad=True) for f in _draw(n, 1, rng)))


def monarch_from_dense_factors(n: int, l_dense: np.ndarray, r_dense: np.ndarray) -> MonarchMatrix:
    """Build from dense L and R that equal their diagonal blocks laid out (NaN matching NaN)."""
    b = _root(n)
    stacks = []
    for name, mat in (("L", l_dense), ("R", r_dense)):
        if mat.shape != (n, n):
            raise DimensionError(f"{name} must be {n}x{n}, got {mat.shape}")
        blocks = np.stack([mat[j * b : (j + 1) * b, j * b : (j + 1) * b] for j in range(b)])
        if not np.array_equal(block_diag_dense(blocks), mat, equal_nan=True):
            raise DimensionError(f"{name} has nonzeros outside its diagonal blocks")
        stacks.append(blocks)
    return MonarchMatrix(left=Tensor(stacks[0]), right=Tensor(stacks[1]))


def block_diag_dense(blocks: np.ndarray) -> np.ndarray:
    b = blocks.shape[0]
    n = b * b
    out = np.zeros((n, n))
    for j in range(b):
        out[j * b : (j + 1) * b, j * b : (j + 1) * b] = blocks[j]
    return out


def monarch_to_dense(m: MonarchMatrix) -> np.ndarray:
    """Materialize P.L.P.R.P of an ungrouped Monarch; oracle/test use only."""
    if m.left.data.ndim != 3:
        raise DimensionError(f"monarch_to_dense takes one Monarch, got {m.groups} groups")
    h = permutation_spec(m.n).map
    ldense = block_diag_dense(m.left.data)
    rdense = block_diag_dense(m.right.data)
    # P @ A permutes rows by h; A @ P permutes columns by h (P symmetric).
    return (ldense[h][:, h] @ rdense)[:, h]


def _to_grid(cols: np.ndarray, b: int) -> np.ndarray:
    """P on k <= n rows of g column stacks (g, k, d): a (g, b, ceil(k/b), d) stack.

    out[:, j, i] holds cols[:, i*b + j].  Only the grid rows that can be
    nonzero are kept, and the unfilled tail of the last one is zero.  An
    operand that fills whole grid rows and is C-contiguous is read in place;
    any other is copied once into a fresh, zero-padded buffer.  Either way
    the result is a strided view, which np.matmul reads directly.
    """
    g, k, d = cols.shape
    rows = -(-k // b)
    if k % b or not cols.flags.c_contiguous:
        z = np.empty((g, rows * b, d))
        z[:, :k] = cols
        z[:, k:] = 0.0
        cols = z
    return cols.reshape(g, rows, b, d).transpose(0, 2, 1, 3)


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose the last two axes: a matrix, or each block of a stack."""
    return a.swapaxes(-1, -2)


def _chain(a: np.ndarray, first: np.ndarray, second: np.ndarray, g: int,
           in_rows: bool, out_rows: bool, keep: int):
    """P.second.P.first.P on the g column chunks of a, (k, g*d) or (d, g*k) if in_rows.

    first, (b, b, ceil(k/b)) blocks, meets only the grid rows a fills; second,
    (b, m, b), makes only m.  Products go straight into grid-transposed slots,
    and the leading `keep` rows are laid out as out_rows says (a view if they
    can be).  Returns (grid, middle product, result).
    """
    r, c = a.shape
    b = first.shape[-2]
    chunks = a.reshape(r, g, c // g)
    z = _to_grid(chunks.transpose(1, 2, 0) if in_rows else chunks.transpose(1, 0, 2), b)
    d = z.shape[-1]
    u = np.empty((g, b, b, d))
    np.matmul(first, z, out=u.transpose(0, 2, 1, 3))
    v = np.empty((g, second.shape[-2], b, d))
    np.matmul(second, u, out=v.transpose(0, 2, 1, 3))
    y = v.reshape(g, -1, d)[:, :keep]
    y = y.transpose(2, 0, 1) if out_rows else y.transpose(1, 0, 2)
    return z, u, y.reshape(y.shape[0], -1)


def _factor_grad(t: Tensor, other: Tensor, gy: np.ndarray, x: np.ndarray, flip: bool) -> np.ndarray:
    """gy @ x^T, the gradient of the factor the apply used (t, or t^T if flip), stored as t is.

    It fills each block's leading corner; the rest met only padding and is
    zero.  It goes into t's grad_home when the backward may (`tensor._home`).
    """
    home = T._home(t, other)
    out = np.empty(t.shape) if home is None else home
    blocks = out.reshape(-1, *t.shape[-3:])  # (g, b, b, b), grouped or not
    a, c = (x, gy) if flip else (gy, x)
    r, k = a.shape[-2], c.shape[-2]
    np.matmul(a, _t(c), out=blocks[..., :r, :k])
    blocks[..., r:, :].fill(0.0)
    blocks[..., :r, k:].fill(0.0)
    return out


def monarch_apply(m: MonarchMatrix, x: Tensor, side: str, size: int | None = None, *,
                  t_in: bool = False, t_out: bool = False) -> Tensor:
    """Factored apply as one tape node; differentiable in x and both block stacks.

    side 'left' computes (dense(M) @ x)[:size] for x of shape (k, d); side
    'right' computes (x @ dense(M))[:, :size] for x of shape (d, k), as the
    left apply of x^T with the transposed Monarch, dense(M)^T = P.R^T.P.L^T.P.
    The n - k missing rows (left) or columns (right) of x are implicit zeros,
    and size defaults to n.  A grouped Monarch splits x's columns into
    `groups` equal chunks and applies group i to chunk i, on either side: the
    result is the chunks' results side by side, (size, g*d) left or
    (d, g*size) right.  t_in says x is given in the other side's layout, each
    chunk transposed: (k, g*d) for a right apply, (d, g*k) for a left one;
    t_out returns the result so, and x's gradient keeps x's layout.  Every
    case, and x's gradient, runs the one factor chain `_chain`.
    """
    if side not in ("left", "right"):
        raise ConfigurationError(f"side must be 'left' or 'right', got {side!r}")
    flip = side == "right"
    in_rows, out_rows = flip != t_in, flip != t_out  # Monarch axis along the rows, per end
    orient = _t if flip else (lambda a: a)
    n, b, g = m.n, m.b, m.groups
    if x.data.ndim != 2 or x.shape[1] % g:
        raise DimensionError(f"{side} apply: x has shape {x.shape}, not {g} equal column chunks")
    r, c = x.shape
    k, d = (c // g, r) if in_rows else (r, c // g)  # each group's rows and columns
    if not 1 <= k <= n:
        raise DimensionError(f"{side} apply: x has shape {x.shape}, Monarch size is {n}")
    size = n if size is None else size
    if not 1 <= size <= n:
        raise DimensionError(f"{side} apply: size {size} outside 1..{n}")
    kb, mb = -(-k // b), -(-size // b)
    # P.L.P.R.P applies R first; its transpose P.R^T.P.L^T.P applies L^T first
    first, second = (m.left, m.right) if flip else (m.right, m.left)
    # an ungrouped (b, b, b) stack broadcasts over the one group
    f = orient(first.data)[..., :kb]  # meets only the grid rows x can fill
    s = orient(second.data)[..., :mb, :]  # makes only the grid rows kept
    z, u, y = _chain(x.data, f, s, g, in_rows, out_rows, size)
    out = Tensor(np.ascontiguousarray(y))

    def bwd(grad):
        # x's gradient is the apply of the transpose, P.f^T.P.s^T.P, back to x's layout
        gv, gu, gx = _chain(grad, _t(s), _t(f), g, out_rows, in_rows, k)
        # f maps the grid z to u and s maps u to v; a right apply's are transposed
        return (gx, _factor_grad(first, second, gu, z, flip),
                _factor_grad(second, first, gv, u, flip))

    flop_meter.add(g * monarch_apply_muladds(n, d, k, size))
    return T._record(out, bwd, x, first, second)
