"""Unit tests for Monarch matrices, permutations, padding, the fused apply and the meter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monarch_surrogate import tensor as T
from monarch_surrogate.errors import ConfigurationError, DimensionError
from monarch_surrogate.gradcheck import max_rel_error
from monarch_surrogate.structured import (
    FlopMeter,
    MonarchMatrix,
    _to_grid,
    block_diag_dense,
    flop_meter,
    monarch_apply,
    monarch_apply_muladds,
    monarch_from_dense_factors,
    monarch_new,
    monarch_to_dense,
    pad_to_square,
    permutation_spec,
)
from monarch_surrogate.tensor import Tensor, tape_scope


def test_permutation_is_involution():
    for n in (4, 16, 64):
        h = permutation_spec(n).map
        assert np.array_equal(h[h], np.arange(n))


def test_permutation_matrix_symmetric():
    p = np.eye(16)[permutation_spec(16).map]
    assert np.array_equal(p, p.T)
    assert np.array_equal(p @ p, np.eye(16))


def test_permutation_rejects_non_square():
    with pytest.raises(DimensionError, match="pad_to_square"):
        permutation_spec(6)


def test_pad_to_square_values():
    assert pad_to_square(96) == 100
    assert pad_to_square(64) == 64
    assert pad_to_square(1) == 1
    with pytest.raises(DimensionError):
        pad_to_square(0)


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("side", ["left", "right"])
def test_apply_matches_dense(n, side):
    rng = np.random.default_rng(n)
    m = monarch_new(n, rng=rng)
    dense = monarch_to_dense(m)
    if side == "left":
        x = Tensor(rng.standard_normal((n, 3)))
        expected = dense @ x.data
    else:
        x = Tensor(rng.standard_normal((3, n)))
        expected = x.data @ dense
    got = monarch_apply(m, x, side).data
    assert np.abs(got - expected).max() <= 1e-12


def test_identity_init_gives_permutation():
    eye = np.broadcast_to(np.eye(4), (4, 4, 4))
    m = MonarchMatrix(Tensor(eye.copy()), Tensor(eye.copy()))
    assert np.array_equal(monarch_to_dense(m), np.eye(16)[permutation_spec(16).map])


def test_param_count_law():
    for n in (4, 16, 64, 256):
        m = monarch_new(n, np.random.default_rng(n))
        assert m.param_count == 2 * round(n**1.5)


def test_explicit_init_validation():
    # a Monarch is built explicitly from its two factor stacks; n and b are read off them
    m = MonarchMatrix(Tensor(np.zeros((3, 3, 3))), Tensor(np.ones((3, 3, 3))))
    assert (m.n, m.b) == (9, 3)
    for left, right in [((3, 2, 2), (2, 2, 2)), ((2, 2, 2), (3, 3, 3)), ((2, 2), (2, 2)),
                        ((0, 0, 0), (0, 0, 0)), ((2, 2, 3), (2, 2, 3))]:
        with pytest.raises(DimensionError):
            MonarchMatrix(Tensor(np.zeros(left)), Tensor(np.zeros(right)))


def test_kaiming_block_scale():
    rng = np.random.default_rng(1)
    m = monarch_new(1024, rng=rng)
    std = m.left.data.std()
    assert abs(std - 1024**-0.25) < 0.01


def test_from_dense_factors_roundtrip():
    rng = np.random.default_rng(2)
    m = monarch_new(16, rng=rng)
    l_dense = block_diag_dense(m.left.data)
    r_dense = block_diag_dense(m.right.data)
    m2 = monarch_from_dense_factors(16, l_dense, r_dense)
    assert np.array_equal(monarch_to_dense(m), monarch_to_dense(m2))


def test_from_dense_factors_rejects_off_block():
    bad = np.zeros((4, 4))
    bad[0, 3] = 1.0
    with pytest.raises(DimensionError):
        monarch_from_dense_factors(4, bad, np.zeros((4, 4)))


def test_from_dense_factors_compares_off_block_entries_with_zero():
    # -0.0 == 0.0 off the blocks, and the blocks themselves are not checked;
    # NaN, inf and the smallest nonzero differ from zero
    for value, i, j, accepted in [(np.nan, 0, 1, True), (-0.0, 0, 3, True),
                                  (np.nan, 0, 3, False), (np.inf, 3, 0, False),
                                  (1e-300, 1, 2, False)]:
        bad = block_diag_dense(np.ones((2, 2, 2)))
        bad[i, j] = value
        if accepted:
            m = monarch_from_dense_factors(4, np.eye(4), bad)
            assert np.array_equal(block_diag_dense(m.right.data), bad, equal_nan=True)
        else:
            with pytest.raises(DimensionError, match="R has nonzeros outside"):
                monarch_from_dense_factors(4, np.eye(4), bad)


def test_apply_dimension_errors():
    m = monarch_new(4, np.random.default_rng(4))
    with pytest.raises(DimensionError):
        monarch_apply(m, Tensor(np.zeros((5, 2))), "left")
    with pytest.raises(DimensionError):
        monarch_apply(m, Tensor(np.zeros((2, 5))), "right")
    with pytest.raises(DimensionError):
        monarch_apply(m, Tensor(np.zeros((0, 2))), "left")
    with pytest.raises(DimensionError):
        monarch_apply(m, Tensor(np.zeros((4, 2))), "left", size=5)
    with pytest.raises(DimensionError):
        monarch_apply(m, Tensor(np.zeros((2, 4))), "right", size=0)
    with pytest.raises(ConfigurationError):
        monarch_apply(m, Tensor(np.zeros((4, 2))), "sideways")


def test_meter_counts_factored_cost():
    m = monarch_new(256, np.random.default_rng(256))
    x = Tensor(np.zeros((256, 1)))
    flop_meter.reset()
    monarch_apply(m, x, "left")
    assert flop_meter.muladds == 8192
    assert monarch_apply_muladds(256, 1) == 8192


@pytest.mark.parametrize("n, d, k, size", [(10, 3, None, None), (0, 3, None, None),
                                           (9, 3, 10, None), (9, 3, 0, None),
                                           (9, 3, None, 10), (9, 3, None, 0)])
def test_muladds_reject_an_apply_that_cannot_run(n, d, k, size):
    # a non-square size, or k or size outside 1..n, has no apply to price
    with pytest.raises(DimensionError):
        monarch_apply_muladds(n, d, k, size)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("k, size", [(256, 256), (200, 256), (256, 37), (1, 1), (17, 240)])
def test_meter_counts_factor_nonzeros_times_columns(side, k, size):
    # one multiply-add per column of x and per nonzero of a dense factor that
    # meets a grid row the input can fill (first factor) or makes a grid row
    # the output keeps (second factor); the grid rows are b-long runs of P
    n, b, d = 256, 16, 3
    m = monarch_new(n, rng=np.random.default_rng(5))
    h = permutation_spec(n).map
    ldense, rdense = block_diag_dense(m.left.data), block_diag_dense(m.right.data)
    # dense(M) = P.L.P.R.P applies R first; dense(M)^T = P.R^T.P.L^T.P applies L^T first
    first, second = (rdense, ldense) if side == "left" else (ldense.T, rdense.T)
    filled = h[: -(-k // b) * b]
    kept = h[: -(-size // b) * b]
    expected = d * (np.count_nonzero(first[:, filled]) + np.count_nonzero(second[kept, :]))
    x = Tensor(np.ones((k, d) if side == "left" else (d, k)))
    flop_meter.reset()
    monarch_apply(m, x, side, size)
    assert flop_meter.muladds == expected == monarch_apply_muladds(n, d, k, size)


def test_meter_is_cumulative_and_resettable():
    meter = FlopMeter()
    meter.add(10)
    meter.add(5)
    assert meter.muladds == 15
    meter.reset()
    assert meter.muladds == 0


@pytest.mark.parametrize("side", ["left", "right"])
def test_gradients_through_apply(side):
    rng = np.random.default_rng(3)
    m = monarch_new(9, rng=rng)
    shape = (9, 2) if side == "left" else (2, 9)
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    w = rng.standard_normal(shape)

    def loss():
        return T.sum_all(T.elementwise_mul(monarch_apply(m, x, side), Tensor(w)))

    assert max_rel_error(loss, [m.left, m.right, x]) < 1e-6


def _laid_out(a, order):
    """a as a C-ordered, an F-ordered or a strided (non-contiguous) array."""
    if order == "C":
        return np.ascontiguousarray(a)
    if order == "F":
        return np.asfortranarray(a)
    wide = np.zeros((a.shape[0], 2 * a.shape[1]))
    wide[:, ::2] = a
    return wide[:, ::2]


def _dense_factor_grads(m, g):
    """Gradients of <g, dense(M)> in M's two factor stacks, through dense matrices.

    dense(M) = P.L.P.R.P, so d/dL = P.g.(P.R.P)^T and d/dR = (P.L.P)^T.g.P,
    each read on its diagonal blocks.
    """
    b = m.b
    p = np.eye(m.n)[permutation_spec(m.n).map]
    ldense, rdense = block_diag_dense(m.left.data), block_diag_dense(m.right.data)
    blocks = lambda a: np.stack([a[j * b : (j + 1) * b, j * b : (j + 1) * b] for j in range(b)])
    return blocks(p @ g @ (p @ rdense @ p).T), blocks((p @ ldense @ p).T @ g @ p)


def test_to_grid_reads_whole_contiguous_grid_rows_in_place():
    b, d = 4, 3
    cols = np.random.default_rng(0).standard_normal((2, 8, d))  # two whole grid rows
    z = _to_grid(cols, b)
    assert z.shape == (2, b, 2, d) and np.shares_memory(z, cols)
    assert np.array_equal(z[:, 1, 0], cols[:, 1])  # out[:, j, i] = cols[:, i*b + j]
    for other in (cols[:, :7], cols.transpose(0, 2, 1).copy().transpose(0, 2, 1)):
        z = _to_grid(other, b)
        assert not np.shares_memory(z, cols)
        assert np.array_equal(z.transpose(0, 2, 1, 3).reshape(2, 8, d)[:, : other.shape[1]], other)


@settings(max_examples=80, deadline=None)
@given(
    b=st.integers(1, 16),
    d=st.integers(1, 12),
    side=st.sampled_from(["left", "right"]),
    t_in=st.booleans(),
    t_out=st.booleans(),
    order=st.sampled_from(["C", "F", "strided"]),
    data=st.data(),
)
def test_apply_is_one_node_and_matches_dense(b, d, side, t_in, t_out, order, data):
    # k input rows (left) or columns (right), the rest implicit zeros; size
    # kept.  t_in / t_out give x / the result transposed; a whole-grid-row k
    # with x in the layout the apply stacks (C for 'left', F for 'right', the
    # other way round under t_in) is read in place, any other is copied
    n = b * b
    aligned = data.draw(st.booleans(), label="aligned")
    k = data.draw(st.integers(1, b).map(lambda r: r * b) if aligned else st.integers(1, n), label="k")
    size = data.draw(st.integers(1, n), label="size")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    m = monarch_new(n, rng=rng)
    dense = monarch_to_dense(m)
    if side == "left":  # zero-pad to n rows, apply densely, keep `size` rows
        xn = rng.standard_normal((k, d))
        padded = np.pad(xn, ((0, n - k), (0, 0)))
        expected = (dense @ padded)[:size]
    else:
        xn = rng.standard_normal((d, k))
        padded = np.pad(xn, ((0, 0), (0, n - k)))
        expected = (padded @ dense)[:, :size]
    x = Tensor(_laid_out(xn.T if t_in else xn, order), requires_grad=True)
    w = rng.standard_normal(expected.shape)  # loss = sum(y * w) in y's nominal layout
    wt = w.T if t_out else w
    with tape_scope() as tape:
        y = monarch_apply(m, x, side, size, t_in=t_in, t_out=t_out)
        assert len(tape) == 1
        tape.backward(T.sum_all(T.elementwise_mul(y, Tensor(wt))))
    # dloss/dx is the kept part of dense^T times w, cut to k; dloss/d dense(M)
    # is w against the padded x, and the factor gradients follow from it
    if side == "left":
        expected_grad = (dense[:size].T @ w)[:k]
        g_dense = np.pad(w, ((0, n - size), (0, 0))) @ padded.T
    else:
        expected_grad = (w @ dense[:, :size].T)[:, :k]
        g_dense = padded.T @ np.pad(w, ((0, 0), (0, n - size)))
    d_left, d_right = _dense_factor_grads(m, g_dense)
    scale = np.sqrt(n) * max(1.0, np.abs(x.data).max(), np.abs(w).max())
    assert y.shape == wt.shape and y.data.flags.c_contiguous
    assert np.abs(y.data - (expected.T if t_out else expected)).max() <= 1e-13 * scale
    assert x.grad.shape == x.shape
    assert np.abs(x.grad - (expected_grad.T if t_in else expected_grad)).max() <= 1e-13 * scale
    assert np.abs(m.left.grad - d_left).max() <= 1e-13 * n * scale
    assert np.abs(m.right.grad - d_right).max() <= 1e-13 * n * scale


@settings(max_examples=80, deadline=None)
@given(
    heads=st.integers(1, 4),
    width=st.integers(1, 7),
    n=st.integers(1, 40),
    side=st.sampled_from(["left", "right"]),
    t_in=st.booleans(),
    t_out=st.booleans(),
    order=st.sampled_from(["C", "F", "strided"]),
    data=st.data(),
)
def test_grouped_apply_is_one_node_and_equals_per_group_applies(
        heads, width, n, side, t_in, t_out, order, data):
    # x is (n, heads * width); group h acts on column chunk h: across its
    # width (right, as the Q/K/V projections) or down its n rows (left).
    # Under t_in each chunk is given transposed, under t_out each result chunk
    n_mon = pad_to_square(width if side == "right" else n)
    size = data.draw(st.integers(1, n_mon), label="size")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    ms = [monarch_new(n_mon, rng) for _ in range(heads)]
    grouped = MonarchMatrix(
        Tensor(np.stack([m.left.data for m in ms]), requires_grad=True),
        Tensor(np.stack([m.right.data for m in ms]), requires_grad=True),
    )
    xn = np.split(rng.standard_normal((n, heads * width)), heads, axis=1)
    x = Tensor(_laid_out(np.concatenate([c.T if t_in else c for c in xn], axis=1), order),
               requires_grad=True)
    chunk = x.shape[1] // heads
    chunks = [Tensor(x.data[:, h * chunk : (h + 1) * chunk], requires_grad=True)
              for h in range(heads)]
    apply = lambda m, a: monarch_apply(m, a, side, size, t_in=t_in, t_out=t_out)
    ys = [apply(m, c) for m, c in zip(ms, chunks)]
    w = rng.standard_normal((ys[0].shape[0], sum(y.shape[1] for y in ys)))
    with tape_scope() as tape:
        y = apply(grouped, x)
        assert len(tape) == 1
        tape.backward(T.sum_all(T.elementwise_mul(y, Tensor(w))))
    cut = np.cumsum([y.shape[1] for y in ys])[:-1]
    for m, c, wh in zip(ms, chunks, np.split(w, cut, axis=1)):
        with tape_scope() as tape:
            tape.backward(T.sum_all(T.elementwise_mul(apply(m, c), Tensor(wh))))
    assert np.array_equal(y.data, np.concatenate([y.data for y in ys], axis=1))
    assert np.array_equal(x.grad, np.concatenate([c.grad for c in chunks], axis=1))
    assert np.array_equal(grouped.left.grad, np.stack([m.left.grad for m in ms]))
    assert np.array_equal(grouped.right.grad, np.stack([m.right.grad for m in ms]))


def test_grouped_apply_meter_and_shape_errors():
    rng = np.random.default_rng(6)
    stack = lambda: Tensor(rng.standard_normal((3, 2, 2, 2)))
    m = MonarchMatrix(stack(), stack())
    assert (m.groups, m.n, m.param_count) == (3, 4, 48)
    flop_meter.reset()
    assert monarch_apply(m, Tensor(np.zeros((5, 9))), "right").shape == (5, 12)
    assert flop_meter.muladds == 3 * monarch_apply_muladds(4, 5, k=3)
    with pytest.raises(DimensionError):
        monarch_apply(m, Tensor(np.zeros((4, 8))), "left")  # 8 columns in 3 chunks
    with pytest.raises(DimensionError):
        monarch_apply(m, Tensor(np.zeros((5, 15))), "right")  # chunks wider than n
    with pytest.raises(DimensionError):
        monarch_to_dense(m)
    with pytest.raises(DimensionError):
        MonarchMatrix(stack(), Tensor(np.zeros((2, 2, 2, 2))))


@settings(max_examples=150, deadline=None)
@given(
    b=st.integers(1, 12),
    groups=st.integers(0, 3),  # 0: one ungrouped (b, b, b) stack
    d=st.integers(1, 5),
    side=st.sampled_from(["left", "right"]),
    t_in=st.booleans(),
    t_out=st.booleans(),
    data=st.data(),
)
def test_x_gradient_is_the_apply_of_the_transpose(b, groups, d, side, t_in, t_out, data):
    # dense(M)^T = P.R^T.P.L^T.P is the Monarch with factors (R^T, L^T); x's
    # gradient is its apply to the output gradient, the two ends' layouts
    # swapped and x's k rows kept, to the bit
    n, g = b * b, max(groups, 1)
    k = data.draw(st.integers(1, n), label="k")
    size = data.draw(st.integers(1, n), label="size")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    shape = (g, b, b, b) if groups else (b, b, b)
    m = MonarchMatrix(Tensor(rng.standard_normal(shape), requires_grad=True),
                      Tensor(rng.standard_normal(shape), requires_grad=True))
    in_rows = (side == "right") != t_in
    x = Tensor(rng.standard_normal((d, g * k) if in_rows else (k, g * d)), requires_grad=True)
    with tape_scope() as tape:
        y = monarch_apply(m, x, side, size, t_in=t_in, t_out=t_out)
        w = rng.standard_normal(y.shape)
        tape.backward(T.sum_all(T.elementwise_mul(y, Tensor(w))))
    mt = MonarchMatrix(Tensor(m.right.data.swapaxes(-1, -2)), Tensor(m.left.data.swapaxes(-1, -2)))
    gx = monarch_apply(mt, Tensor(w), side, k, t_in=t_out, t_out=t_in)
    assert np.array_equal(x.grad, gx.data)
