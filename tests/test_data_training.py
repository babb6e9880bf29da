"""Unit tests for the sine dataset pipeline and the training loop."""

import functools
import itertools

import numpy as np
import pytest

from monarch_surrogate import tensor as T
from monarch_surrogate.bench import ModelConfig
from monarch_surrogate.data import (
    SineSpec,
    build_dataset,
    chronological_split,
    make_windows,
)
from monarch_surrogate.errors import ConfigurationError, ContractError, DimensionError
from monarch_surrogate.training import (
    ADAM_CHUNK,
    Adam,
    ForecasterParams,
    TrainConfig,
    forecaster_forward,
    train_forecaster,
)
from monarch_surrogate.structured import MonarchMatrix, monarch_apply, monarch_new
from monarch_surrogate.tensor import Tensor, tape_scope


def test_sine_generation_periodicity():
    z = SineSpec(samples=96, period=24.0).generate()
    assert len(z) == 96
    assert np.abs(z[:72] - z[24:]).max() < 1e-12
    assert abs(z.max() - 1.0) < 1e-6
    with pytest.raises(ConfigurationError):
        SineSpec(samples=0).generate()
    with pytest.raises(ConfigurationError):
        SineSpec(period=0.0).generate()


def test_noise_is_seeded():
    a = SineSpec(samples=50, noise_std=0.1, seed=3).generate()
    b = SineSpec(samples=50, noise_std=0.1, seed=3).generate()
    c = SineSpec(samples=50, noise_std=0.1, seed=4).generate()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_chronological_split_sizes():
    train, val, test = chronological_split(np.arange(100))
    assert len(train) == 60 and len(val) == 20 and len(test) == 20
    assert train[-1] == 59 and val[0] == 60 and test[0] == 80


def test_window_counts_and_alignment():
    x, y = make_windows(np.arange(20), l_in=4, l_out=2)
    assert x.shape == (15, 4) and y.shape == (15, 2)
    assert np.array_equal(x[0], [0, 1, 2, 3])
    assert np.array_equal(y[0], [4, 5])
    assert np.array_equal(x[-1], [14, 15, 16, 17])
    with pytest.raises(ConfigurationError):
        make_windows(np.arange(5), l_in=4, l_out=2)


def test_build_dataset_windows_stay_inside_splits():
    ds = build_dataset(np.arange(100, dtype=float), l_in=4, l_out=2)
    assert len(ds.train[0]) == 55 and len(ds.val[0]) == 15 and len(ds.test[0]) == 15
    assert ds.val[0][0][0] == 60.0  # first validation window starts at the split


def test_forecaster_forward_shapes():
    rng = np.random.default_rng(0)
    for variant in ("surrogate", "dense"):
        p = ForecasterParams.create(variant, 8, 3, d_model=4, heads=2,
                                    n_layers=1, d_ff=8, rng=rng)
        y = forecaster_forward(Tensor(rng.standard_normal((8, 1))), p)
        assert y.shape == (1, 3)
    with pytest.raises(ConfigurationError):
        ForecasterParams.create("conv", 8, 3, 4, 2, 1, 8, rng)


def test_forecaster_rejects_a_window_one_step_short():
    rng = np.random.default_rng(0)
    for variant in ("surrogate", "dense"):
        p = ForecasterParams.create(variant, 8, 3, d_model=4, heads=2,
                                    n_layers=1, d_ff=8, rng=rng)
        with pytest.raises(DimensionError):  # a (1, 7 * 4) flat window meets the (8 * 4, 3) head
            forecaster_forward(Tensor(rng.standard_normal((7, 1))), p)


def _linear_backward(params, grads):
    """Backward of the sum of sum_all(p * G) over the pairs, which leaves each p.grad = G bit for bit."""
    with tape_scope() as tape:
        terms = (T.sum_all(T.elementwise_mul(p, Tensor(g))) for p, g in zip(params, grads))
        tape.backward(functools.reduce(T.add, terms))


def test_adam_moves_toward_minimum():
    p = Tensor(np.array([5.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    for _ in range(200):
        opt.zero_grad()
        with tape_scope() as tape:
            tape.backward(T.sum_all(T.elementwise_mul(p, p)))  # d/dp of p^2 is 2p
        opt.step()
    assert abs(p.data[0]) < 0.1


def test_adam_in_place_step_is_bit_identical_to_the_formula():
    rng = np.random.default_rng(3)
    # the (3, 11000) tensor straddles the first chunk boundary of the flat buffer
    shapes = [(3,), (4, 5), (3, 11000), (2, 3, 3)]
    assert 3 + 20 < ADAM_CHUNK < 3 + 20 + 33000
    params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    ref = [p.data.copy() for p in params]
    m = [np.zeros_like(r) for r in ref]
    v = [np.zeros_like(r) for r in ref]
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    opt = Adam(params, lr=lr)
    for t in range(1, 7):
        grads = [rng.standard_normal(p.shape) for p in params]
        opt.zero_grad()
        _linear_backward(params, grads)
        opt.step()
        lr_t, eps_t = _reordered_rates(lr, eps, t)
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            ref[i] = ref[i] - lr_t * m[i] / (np.sqrt(v[i]) + eps_t)
        assert all(np.array_equal(p.data, r) for p, r in zip(params, ref))
        assert np.array_equal(opt.m, np.concatenate([x.ravel() for x in m]))
        assert np.array_equal(opt.v, np.concatenate([x.ravel() for x in v]))


def test_adam_step_is_within_1e_12_of_the_textbook_formula():
    # the reordered step equals lr * m_hat / (sqrt(v_hat) + eps) in exact
    # arithmetic; each step starts from zero parameters, so -p is the step itself
    rng = np.random.default_rng(6)
    params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in [(7,), (40, 900)]]
    m = [np.zeros(p.shape) for p in params]
    v = [np.zeros(p.shape) for p in params]
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    opt = Adam(params, lr=lr)
    for t in range(1, 9):
        grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-9, 2) for p in params]
        opt.zero_grad()
        _linear_backward(params, grads)
        opt.flat[...] = 0.0
        opt.step()
        for p, g, mi, vi in zip(params, grads, m, v):
            mi[...] = b1 * mi + (1.0 - b1) * g
            vi[...] = b2 * vi + (1.0 - b2) * g * g
            step = lr * (mi / (1.0 - b1**t)) / (np.sqrt(vi / (1.0 - b2**t)) + eps)
            np.testing.assert_allclose(-p.data, step, rtol=1e-12, atol=0.0)
        assert np.array_equal(opt.m, np.concatenate([x.ravel() for x in m]))
        assert np.array_equal(opt.v, np.concatenate([x.ravel() for x in v]))


def _reordered_rates(lr: float, eps: float, t: int) -> tuple[float, float]:
    """Kingma & Ba's step size lr * sqrt(1 - b2^t) / (1 - b1^t) and eps * sqrt(1 - b2^t)."""
    root_c2 = np.sqrt(1.0 - 0.999**t)
    return lr * root_c2 / (1.0 - 0.9**t), eps * root_c2


@pytest.mark.parametrize("fault", ["rebound data", "no gradient", "hand-set gradient"])
def test_adam_refuses_a_parameter_off_its_buffers_before_any_state_changes(fault):
    rng = np.random.default_rng(4)
    p, q = params = [Tensor(rng.standard_normal(3), requires_grad=True) for _ in range(2)]
    opt = Adam(params, lr=0.1)
    _linear_backward(params, [rng.standard_normal(3) for _ in params])
    opt.step()  # a good step first, so the moments hold something to keep
    opt.zero_grad()
    _linear_backward(params, [rng.standard_normal(3) for _ in params])
    if fault == "rebound data":
        q.data = q.data.copy()  # detached: a step would no longer reach it
    elif fault == "no gradient":
        q.grad = None
    else:
        q.grad = q.grad.copy()  # the same values, but not where backward put them
    before = [x.copy() for x in (opt.flat, opt.m, opt.v)]
    with pytest.raises(ContractError):
        opt.step()
    assert opt.t == 1
    assert all(np.array_equal(x, y) for x, y in zip((opt.flat, opt.m, opt.v), before))


def test_training_steps_keep_parameters_and_gradients_in_the_flat_buffers():
    # two train_forecaster-style steps at the sine config, the second after a
    # perfbench-style `p.grad = None`, against per-tensor reordered Adam
    t = TrainConfig()
    lr, b1, b2, eps = t.lr, 0.9, 0.999, 1e-8
    for variant in ("surrogate", "dense"):
        rng = np.random.default_rng(5)
        params = ForecasterParams.create(variant, 48, 24, t.d_model, t.heads, t.layers, t.d_ff, rng)
        ps = params.parameters()
        ref = [p.data.copy() for p in ps]
        m = [np.zeros_like(r) for r in ref]
        v = [np.zeros_like(r) for r in ref]
        opt = Adam(ps, lr=lr)
        for step in range(1, 3):
            for p in ps:
                p.grad = None
            with tape_scope() as tape:
                pred = forecaster_forward(Tensor(rng.standard_normal((48, 1))), params)
                diff = T.sub(pred, Tensor(rng.standard_normal((1, 24))))
                tape.backward(T.mean_all(T.elementwise_mul(diff, diff)))
            for i, p in enumerate(ps):
                assert np.shares_memory(p.data, opt.flat) and np.shares_memory(p.grad, opt.grads)
                m[i] = b1 * m[i] + (1.0 - b1) * p.grad
                v[i] = b2 * v[i] + (1.0 - b2) * p.grad * p.grad
                lr_t, eps_t = _reordered_rates(lr, eps, step)
                ref[i] = ref[i] - lr_t * m[i] / (np.sqrt(v[i]) + eps_t)
            opt.step()
            assert all(np.array_equal(p.data, r) for p, r in zip(ps, ref)), variant


def _meets_only_padding(b: int, d_in: int) -> np.ndarray:
    """(b, b, b) mask of the ffn.m1.left entries [j, i, :] whose grid slot i*b + j >= d_in.

    The SFB's first apply meets m1.left[j][i, :] only with input feature
    i*b + j, and the second makes output feature i*b + j only from
    m2.right[j][:, i]; features d_in.. are zero padding on both ends.
    """
    j, i = np.meshgrid(np.arange(b), np.arange(b), indexing="ij")
    return np.broadcast_to((i * b + j >= d_in)[:, :, None], (b, b, b))


@pytest.mark.parametrize("shape, padding_only, total", [
    ("sine", 768, 22_544),
    ("paper", 295_136, 2_544_384),
])
def test_sfb_entries_that_meet_only_padding_get_no_gradient_and_stay_put(shape, padding_only,
                                                                        total):
    cfg, t = ModelConfig(), TrainConfig()
    if shape == "sine":
        cfg = ModelConfig(d_model=t.d_model, heads=t.heads, n_seq=48, layers=t.layers,
                          d_ff=t.d_ff, l_out=24)
    rng = np.random.default_rng(3)
    params = ForecasterParams.create("surrogate", cfg.n_seq, cfg.l_out, cfg.d_model, cfg.heads,
                                     cfg.layers, cfg.d_ff, rng)
    ps = params.parameters()
    ffns = [layer.ffn for layer in params.layers]
    masks = [_meets_only_padding(f.m1.b, f.d_in) for f in ffns]
    pinned = [(f.m1.left, mask) for f, mask in zip(ffns, masks)]
    pinned += [(f.m2.right, mask.transpose(0, 2, 1)) for f, mask in zip(ffns, masks)]
    assert sum(int(mask.sum()) for _, mask in pinned) == padding_only
    assert sum(p.data.size for p in ps) == total
    initial = [p.data[mask].copy() for p, mask in pinned]
    opt = Adam(ps, lr=t.lr)
    for _ in range(2):
        opt.zero_grad()
        with tape_scope() as tape:
            pred = forecaster_forward(Tensor(rng.standard_normal((cfg.n_seq, 1))), params)
            diff = T.sub(pred, Tensor(rng.standard_normal((1, cfg.l_out))))
            tape.backward(T.mean_all(T.elementwise_mul(diff, diff)))
        for p, mask in pinned:
            assert not p.grad[mask].any() and p.grad[~mask].any()
        opt.step()
    assert all(np.array_equal(p.data[mask], x) for (p, mask), x in zip(pinned, initial))


@pytest.mark.parametrize("shape, nodes", [
    ("sine", {"surrogate": 21, "dense": 24}),
    ("paper", {"surrogate": 36, "dense": 42}),
])
def test_tape_nodes_per_training_step(shape, nodes):
    # the step train_forecaster takes: forecast, squared error, mean
    cfg, t = ModelConfig(), TrainConfig()
    if shape == "sine":
        cfg = ModelConfig(d_model=t.d_model, heads=t.heads, n_seq=48, layers=t.layers,
                          d_ff=t.d_ff, l_out=24)
    rng = np.random.default_rng(0)
    for variant, expected in nodes.items():
        params = ForecasterParams.create(variant, cfg.n_seq, cfg.l_out, cfg.d_model, cfg.heads,
                                         cfg.layers, cfg.d_ff, rng)
        with tape_scope() as tape:
            pred = forecaster_forward(Tensor(rng.standard_normal((cfg.n_seq, 1))), params)
            diff = T.sub(pred, Tensor(rng.standard_normal((1, cfg.l_out))))
            T.mean_all(T.elementwise_mul(diff, diff))
        assert len(tape) == expected, variant


def test_no_dense_parameter_gets_a_strided_first_gradient(monkeypatch):
    # no parameter of either variant gets a copied first gradient, strided or
    # not: each backward writes it into the parameter's grad_home, and
    # accumulate_grad takes that array as it is
    t = TrainConfig()
    copied = []
    accumulate = Tensor.accumulate_grad

    def spy(self, g):
        if self.grad_home is not None and self.grad is None and g is not self.grad_home:
            copied.append(self.shape)
        accumulate(self, g)

    monkeypatch.setattr(Tensor, "accumulate_grad", spy)
    shapes = [(48, 24, t.d_model, t.heads, t.d_ff),  # the sine config
              (30, 7, 12, 2, 40)]  # padded: sequence 36, head Monarchs 9 for 6, FFN 49
    for variant, (l_in, l_out, d_model, heads, d_ff) in itertools.product(
            ("surrogate", "dense"), shapes):
        rng = np.random.default_rng(0)
        params = ForecasterParams.create(variant, l_in, l_out, d_model, heads, 1, d_ff, rng)
        ps = params.parameters()
        Adam(ps, lr=t.lr)
        with tape_scope() as tape:
            pred = forecaster_forward(Tensor(rng.standard_normal((l_in, 1))), params)
            diff = T.sub(pred, Tensor(rng.standard_normal((1, l_out))))
            tape.backward(T.mean_all(T.elementwise_mul(diff, diff)))
        assert all(p.grad is p.grad_home for p in ps), (variant, l_in)
    assert copied == []


def _graph_with_a_leaf_met_twice(case: str):
    """Leaves and a scalar loss builder for a graph where one leaf gets two gradients."""
    rng = np.random.default_rng(8)
    leaf = lambda *shape: Tensor(rng.standard_normal(shape), requires_grad=True)
    readout = lambda y: T.sum_all(T.elementwise_mul(y, Tensor(rng.standard_normal(y.shape))))
    if case == "matmul-a-a":
        a = leaf(5, 5)
        return [a], lambda: readout(T.matmul(a, a))
    if case == "one-weight-two-matmuls":
        w, x = leaf(4, 4), Tensor(rng.standard_normal((6, 4)))
        return [w], lambda: readout(T.matmul(T.matmul(x, w), w))
    if case == "layer-norm-gain-is-bias":
        w, x = leaf(6), Tensor(rng.standard_normal((3, 6)))
        return [w], lambda: readout(T.layer_norm(x, w, w))
    if case == "monarch-twice":
        m, x = monarch_new(16, rng), Tensor(rng.standard_normal((13, 5)))
        return m.parameters(), lambda: readout(
            monarch_apply(m, monarch_apply(m, x, "left", 15), "right", 14))
    f, x = leaf(3, 3, 3), Tensor(rng.standard_normal((4, 8)))  # "monarch-left-is-right"
    return [f], lambda: readout(monarch_apply(MonarchMatrix(f, f), x, "right"))


@pytest.mark.parametrize("case", ["matmul-a-a", "one-weight-two-matmuls",
                                  "layer-norm-gain-is-bias", "monarch-twice",
                                  "monarch-left-is-right"])
def test_gradients_written_in_place_equal_the_unbound_ones(case):
    # the leaf's first gradient may go straight into its grad_home; its second
    # must not land there as well, nor the first be counted twice
    grads = []
    for bound in (True, False):
        leaves, loss = _graph_with_a_leaf_met_twice(case)
        if bound:
            opt = Adam(leaves, lr=1e-3)
        with tape_scope() as tape:
            tape.backward(loss())
        grads.append([p.grad.copy() for p in leaves])
    opt.zero_grad()
    assert all(np.array_equal(a, b) for a, b in zip(*grads))


@pytest.mark.parametrize("variant", ["surrogate", "dense"])
def test_no_parameter_gradient_shares_memory_with_a_forward_array_or_another_gradient(variant):
    rng = np.random.default_rng(9)
    params = ForecasterParams.create(variant, 30, 7, 12, 2, 1, 40, rng)
    ps = params.parameters()
    opt = Adam(ps, lr=1e-3)
    with tape_scope() as tape:
        pred = forecaster_forward(Tensor(rng.standard_normal((30, 1))), params)
        diff = T.sub(pred, Tensor(rng.standard_normal((1, 7))))
        tape.backward(T.mean_all(T.elementwise_mul(diff, diff)))
    outputs = [out.data for out, _, _ in tape._nodes]
    for i, p in enumerate(ps):
        assert not any(np.shares_memory(p.grad, y) for y in outputs), p.shape
        assert not any(np.shares_memory(p.grad, q.grad) for q in ps[i + 1:]), p.shape
    opt.step()


def _tiny_dataset():
    series = SineSpec(samples=80, period=8.0).generate()
    return build_dataset(series, l_in=8, l_out=4)


def test_training_is_deterministic():
    ds = _tiny_dataset()
    cfg = TrainConfig(d_model=8, heads=2, layers=1, d_ff=16, epochs=2, seed=11)
    a = train_forecaster(ds, cfg)
    b = train_forecaster(ds, cfg)
    assert a.test_mse == b.test_mse
    assert a.val_mse == b.val_mse
    assert not a.failed


def test_training_improves_validation_loss():
    ds = _tiny_dataset()
    cfg = TrainConfig(d_model=8, heads=2, layers=1, d_ff=16, epochs=4, seed=0)
    res = train_forecaster(ds, cfg)
    assert min(res.val_mse) < res.val_mse[0]
    assert res.best_epoch == int(np.argmin(res.val_mse))


def test_training_dense_variant_runs():
    ds = _tiny_dataset()
    cfg = TrainConfig(variant="dense", d_model=8, heads=2, layers=1,
                      d_ff=16, epochs=1, seed=0)
    res = train_forecaster(ds, cfg)
    assert res.variant == "dense"
    assert np.isfinite(res.test_mse)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to NaN
@pytest.mark.parametrize("variant", ["surrogate", "dense"])
def test_a_diverging_run_fails_the_same_way_in_both_variants(variant):
    cfg = TrainConfig(variant=variant, d_model=4, heads=2, layers=1, d_ff=8, lr=1e300,
                      epochs=1, seed=0)
    res = train_forecaster(_tiny_dataset(), cfg)
    assert res.failed and res.epochs_run == 0
    assert not np.isfinite(res.test_mse) and not np.isfinite(res.test_mae)


@pytest.mark.parametrize("lr", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_a_non_finite_lr_is_refused_before_training(lr):
    # NaN and inf pass an `lr <= 0` test; run, they would end as if the model had diverged
    cfg = TrainConfig(d_model=4, heads=2, layers=1, d_ff=8, lr=lr, epochs=1)
    with pytest.raises(ConfigurationError, match="finite lr"):
        train_forecaster(_tiny_dataset(), cfg)
