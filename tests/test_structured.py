"""Unit tests for Monarch matrices, permutations, padding, the fused apply and the meter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monarch_surrogate import tensor as T
from monarch_surrogate.errors import ConfigurationError, DimensionError
from monarch_surrogate.gradcheck import DEFAULT_TOL, max_rel_error, probe_rel_errors
from monarch_surrogate.structured import (
    FlopMeter,
    MonarchMatrix,
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


@settings(max_examples=60, deadline=None)
@given(
    b=st.integers(1, 16),
    d=st.integers(1, 12),
    side=st.sampled_from(["left", "right"]),
    data=st.data(),
)
def test_apply_is_one_node_and_matches_dense(b, d, side, data):
    # k input rows (left) or columns (right), the rest implicit zeros; size kept
    n = b * b
    k = data.draw(st.integers(1, n), label="k")
    size = data.draw(st.integers(1, n), label="size")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    m = monarch_new(n, rng=rng)
    dense = monarch_to_dense(m)
    if side == "left":  # zero-pad to n rows, apply densely, keep `size` rows
        x = Tensor(rng.standard_normal((k, d)), requires_grad=True)
        expected = (dense @ np.pad(x.data, ((0, n - k), (0, 0))))[:size]
    else:
        x = Tensor(rng.standard_normal((d, k)), requires_grad=True)
        expected = (np.pad(x.data, ((0, 0), (0, n - k))) @ dense)[:, :size]
    w = rng.standard_normal(expected.shape)
    loss = lambda: T.sum_all(T.elementwise_mul(monarch_apply(m, x, side, size), Tensor(w)))
    with tape_scope() as tape:
        y = monarch_apply(m, x, side, size)
        assert len(tape) == 1
        tape.backward(T.sum_all(T.elementwise_mul(y, Tensor(w))))
    # loss = sum(y * w): dloss/dx is the kept part of dense^T times w, cut to k
    if side == "left":
        expected_grad = (dense[:size].T @ w)[:k]
    else:
        expected_grad = (w @ dense[:, :size].T)[:, :k]
    scale = np.sqrt(n) * max(1.0, np.abs(x.data).max(), np.abs(w).max())
    assert y.shape == expected.shape
    assert np.abs(y.data - expected).max() <= 1e-13 * scale
    assert np.abs(x.grad - expected_grad).max() <= 1e-13 * scale
    # the factor gradients too: with k < n or size < n only some grid rows meet x
    assert probe_rel_errors(loss, [x, m.left, m.right], 8, rng) < DEFAULT_TOL


@settings(max_examples=60, deadline=None)
@given(
    heads=st.integers(1, 4),
    width=st.integers(1, 7),
    n=st.integers(1, 40),
    side=st.sampled_from(["left", "right"]),
    data=st.data(),
)
def test_grouped_apply_is_one_node_and_equals_per_group_applies(heads, width, n, side, data):
    # x is (n, heads * width); group h acts on column chunk h: across its
    # width (right, as the Q/K/V projections) or down its n rows (left)
    n_mon = pad_to_square(width if side == "right" else n)
    size = data.draw(st.integers(1, n_mon), label="size")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    ms = [monarch_new(n_mon, rng) for _ in range(heads)]
    grouped = MonarchMatrix(
        Tensor(np.stack([m.left.data for m in ms]), requires_grad=True),
        Tensor(np.stack([m.right.data for m in ms]), requires_grad=True),
    )
    x = Tensor(rng.standard_normal((n, heads * width)), requires_grad=True)
    chunks = [Tensor(x.data[:, h * width : (h + 1) * width], requires_grad=True)
              for h in range(heads)]
    ys = [monarch_apply(m, c, side, size) for m, c in zip(ms, chunks)]
    w = rng.standard_normal((ys[0].shape[0], sum(y.shape[1] for y in ys)))
    with tape_scope() as tape:
        y = monarch_apply(grouped, x, side, size)
        assert len(tape) == 1
        tape.backward(T.sum_all(T.elementwise_mul(y, Tensor(w))))
    cut = np.cumsum([y.shape[1] for y in ys])[:-1]
    for m, c, wh in zip(ms, chunks, np.split(w, cut, axis=1)):
        with tape_scope() as tape:
            tape.backward(T.sum_all(T.elementwise_mul(monarch_apply(m, c, side, size), Tensor(wh))))
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
