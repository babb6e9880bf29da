"""Unit tests for the tensor primitives and the autograd tape."""

import numpy as np
import pytest

from monarch_surrogate import tensor as T
from monarch_surrogate.errors import ConfigurationError, ContractError, DimensionError
from monarch_surrogate.gradcheck import max_rel_error
from monarch_surrogate.structured import MonarchMatrix, monarch_apply, monarch_new
from monarch_surrogate.tensor import Tensor, tape_scope


def _grad_matches(build_loss, params, tol=1e-6):
    assert max_rel_error(build_loss, params) < tol


def test_add_sub_mul_forward_and_grad():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)

    def loss():
        return T.sum_all(T.elementwise_mul(T.add(a, b), T.sub(a, b)))

    assert np.allclose(loss().data, (a.data**2 - b.data**2).sum())
    _grad_matches(loss, [a, b])


def test_shape_mismatch_raises():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((3, 2)))
    with pytest.raises(DimensionError):
        T.add(a, b)
    with pytest.raises(DimensionError):
        T.matmul(a, Tensor(np.zeros((2, 2))))
    with pytest.raises(DimensionError):  # stacks of 2 and 3 matrices
        T.matmul(Tensor(np.zeros((2, 4, 3))), Tensor(np.zeros((3, 3, 5))))
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.zeros(3)), b)


@pytest.mark.parametrize(
    "shape_a, shape_b",
    [((3, 5), (5, 2)), ((3, 5), (4, 5, 2)), ((4, 3, 5), (5, 2)), ((4, 3, 5), (4, 5, 2))],
    ids=["2d", "broadcast-a", "broadcast-b", "batched"],
)
def test_matmul_grad(shape_a, shape_b):
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal(shape_a), requires_grad=True)
    b = Tensor(rng.standard_normal(shape_b), requires_grad=True)
    w = Tensor(rng.standard_normal(np.matmul(a.data, b.data).shape))
    assert np.array_equal(T.matmul(a, b).data, a.data @ b.data)
    _grad_matches(lambda: T.sum_all(T.elementwise_mul(T.matmul(a, b), w)), [a, b])


@pytest.mark.parametrize("axes", [None, (1, 0, 2), (2, 0, 1)])
def test_transpose_axes_and_grad(axes):
    rng = np.random.default_rng(10)
    a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    assert np.array_equal(T.transpose(a, axes).data, np.transpose(a.data, axes))
    w = Tensor(rng.standard_normal(np.transpose(a.data, axes).shape))
    _grad_matches(lambda: T.sum_all(T.elementwise_mul(T.transpose(a, axes), w)), [a])


def test_softmax_rows_is_row_stochastic():
    rng = np.random.default_rng(2)
    s = T.softmax_rows(Tensor(rng.standard_normal((4, 6)))).data
    assert np.all(s > 0)
    assert np.allclose(s.sum(axis=1), 1.0)


def test_softmax_nan_row_stays_in_its_row():
    # a diverging run's NaN reaches the loss, where training stops, in both variants
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 4))
    a[1, 2] = np.nan
    s = T.softmax_rows(Tensor(a)).data
    assert np.isnan(s[1]).all()
    assert np.all(s[[0, 2]] > 0) and np.allclose(s[[0, 2]].sum(axis=1), 1.0)


def test_softmax_grad():
    rng = np.random.default_rng(3)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = rng.standard_normal((3, 4))
    _grad_matches(lambda: T.sum_all(T.elementwise_mul(T.softmax_rows(a), Tensor(w))), [a])


def test_layer_norm_normalizes_and_grad():
    rng = np.random.default_rng(4)
    a = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
    gain = Tensor(np.ones(8), requires_grad=True)
    bias = Tensor(np.zeros(8), requires_grad=True)
    y = T.layer_norm(a, gain, bias).data
    assert np.allclose(y.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(y.var(axis=1), 1.0, atol=1e-4)
    w = rng.standard_normal((3, 8))

    def loss():
        return T.sum_all(T.elementwise_mul(T.layer_norm(a, gain, bias), Tensor(w)))

    _grad_matches(loss, [a, gain, bias], tol=1e-5)


def test_layer_norm_needs_two_features():
    with pytest.raises(DimensionError):
        T.layer_norm(Tensor(np.zeros((2, 1))), Tensor(np.ones(1)), Tensor(np.zeros(1)))


@pytest.mark.parametrize("kind", ["relu", "gelu", "identity"])
def test_activation_grads(kind):
    rng = np.random.default_rng(5)
    a = Tensor(rng.standard_normal((4, 4)) + 0.1, requires_grad=True)
    _grad_matches(lambda: T.sum_all(T.activation(a, kind)), [a], tol=1e-5)


def test_unknown_activation():
    with pytest.raises(ConfigurationError):
        T.activation(Tensor(np.zeros(2)), "swish")


def test_backward_requires_scalar_loss():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    with tape_scope() as tape:
        y = T.add(a, a)
        with pytest.raises(ContractError):
            tape.backward(y)


def test_backward_requires_recorded_loss():
    with tape_scope() as tape:
        with pytest.raises(ContractError):
            tape.backward(Tensor(np.array(1.0)))


def test_backward_rejects_a_loss_recorded_on_another_tape():
    a = Tensor(np.ones(3), requires_grad=True)
    with tape_scope():
        loss1 = T.sum_all(T.add(a, a))
    with tape_scope() as t2:
        T.sum_all(T.add(a, a))
        T.sum_all(T.add(a, a))
        with pytest.raises(ContractError):
            t2.backward(loss1)
    with tape_scope() as t3:
        with pytest.raises(ContractError):  # index past the end of this tape
            t3.backward(loss1)
    assert a.grad is None


def test_no_recording_without_tape():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    y = T.add(a, a)
    assert y._node_id is None


def test_repeated_backward_is_deterministic():
    rng = np.random.default_rng(9)
    a = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    grads = []
    for _ in range(2):
        a.zero_grad()
        with tape_scope() as tape:
            y = T.matmul(a, T.transpose(a))
            tape.backward(T.sum_all(y))
        grads.append(a.grad.copy())
    assert np.array_equal(grads[0], grads[1])


def test_second_backward_on_a_tape_raises():
    # d(6a^2)/da = 12a = 36 at a = 3; a replay would return 108 from stale intermediate grads
    a = Tensor(np.array(3.0), requires_grad=True)
    with tape_scope() as tape:
        loss = T.scale(T.elementwise_mul(a, a), 6.0)
        tape.backward(loss)
    assert float(a.grad) == 36.0
    a.zero_grad()
    with pytest.raises(ContractError):
        tape.backward(loss)


def test_accumulate_grad_rejects_shape_mismatch():
    a = Tensor(np.zeros((3, 4)), requires_grad=True)
    with pytest.raises(DimensionError):
        a.accumulate_grad(np.ones(4))
    assert a.grad is None
    c = Tensor(np.zeros((3, 4)))  # neither trained nor recorded: wants no gradient
    c.accumulate_grad(np.ones((3, 4)))
    assert c.grad is None


def test_backward_frees_intermediate_grads():
    rng = np.random.default_rng(8)
    a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((5, 5)), requires_grad=True)

    def run(replay):
        a.zero_grad()
        w.zero_grad()
        with tape_scope() as tape:
            h = T.activation(T.matmul(a, w), "gelu")  # h feeds three consumers
            loss = T.sum_all(T.add(T.elementwise_mul(h, h), T.matmul(h, w)))
            replay(tape, loss)
        return tape, [a.grad.copy(), w.grad.copy()]

    def keep_grads(tape, loss):  # the same replay without freeing
        loss.grad = np.ones_like(loss.data)
        for out, backward, inputs in reversed(tape._nodes):
            if out.grad is not None:
                for t, g in zip(inputs, backward(out.grad)):
                    t.accumulate_grad(g)

    kept_tape, kept = run(keep_grads)
    freed_tape, freed = run(lambda tape, loss: tape.backward(loss))
    assert all(np.array_equal(x, y) for x, y in zip(kept, freed))
    assert all(out.grad is not None for out, _, _ in kept_tape._nodes)
    assert all(out.grad is None for out, _, _ in freed_tape._nodes)


def test_inputs_that_want_no_gradient_end_backward_without_one():
    # every primitive returns a gradient for each input; the tape drops those
    # for constants, and every parameter still gets its own
    rng = np.random.default_rng(11)
    param = lambda *shape: Tensor(rng.standard_normal(shape), requires_grad=True)
    const = lambda *shape: Tensor(rng.standard_normal(shape))
    w, gain, bias = param(3, 4), param(4), param(4)
    m, grouped = monarch_new(4, rng), MonarchMatrix(param(2, 2, 2, 2), param(2, 2, 2, 2))
    consts = [const(4, 3)] + [const(4, 4) for _ in range(5)]
    x, target, normed, left_in, right_in, grouped_in = consts
    with tape_scope() as tape:
        outs = [T.sub(T.matmul(x, w), target), T.layer_norm(normed, gain, bias),
                monarch_apply(m, left_in, "left"), monarch_apply(m, right_in, "right"),
                monarch_apply(grouped, grouped_in, "left")]
        loss = T.sum_all(outs[0])
        for o in outs[1:]:
            loss = T.add(loss, T.sum_all(o))
        tape.backward(loss)
    assert all(c.grad is None for c in consts)
    params = [w, gain, bias, m.left, m.right, grouped.left, grouped.right]
    assert all(p.grad is not None and p.grad.shape == p.shape for p in params)
